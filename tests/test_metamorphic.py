"""Metamorphic properties of the scorers over METHODS and of top-k selection.

Each property changes the input in a way that must not change the result
and bounds how far the two results may differ, in float64 ulps (eps =
2**-52) of M, the largest key coordinate, for (B, H, n, d) keys:

- permuting tokens permutes the scores alike (every method; windowed only
  within its windows): 64 * (n + d) ulps of M;
- translating every key by one vector (manifold, windowed, l1, linf):
  64 * (n + d) ulps of M;
- rotating every key by one orthogonal matrix (manifold, knorm, keydiff,
  normalized): 64 * (n + d) ulps of M;
- scaling each key by its own positive factor (keydiff): 64 * (n + d) ulps
  of M;
- a strictly increasing map of the scores leaves topk_select unchanged:
  exactly.

hybrid min-max-scales each row, so its bound is divided by the smaller of
the two row spans it scales by. Translated, rotated and scaled keys are
built on a grid of eighths, so the float32 keys hold them exactly and the
bound covers only the float64 arithmetic of the scorers. The first key
coordinate is offset by 4, which keeps keydiff's anchor (the mean unit
key) away from zero.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from kvgeom import (
    METHODS,
    KeyTensor,
    ScorerSpec,
    compute_scores,
    keydiff_score,
    manifold_score,
    topk_select,
)

EPS = np.finfo(np.float64).eps


def keys(grid=False, min_d=1):
    """float32 (B, H, n, d) keys in [-2, 2], eighths if `grid`, with 4 added
    to the first coordinate."""
    def offset(data):
        data = data.astype(np.float32) / (8 if grid else 1)
        data[..., 0] += 4.0
        return data

    if grid:
        dtype, elements = np.int8, st.integers(-16, 16)
    else:
        dtype, elements = np.float32, st.floats(-2.0, 2.0, width=32)
    shapes = st.tuples(st.integers(1, 2), st.integers(1, 2), st.integers(2, 16),
                       st.integers(min_d, 6))
    return shapes.flatmap(lambda s: arrays(dtype, s, elements=elements)).map(offset)


# method -> its ScorerSpec parameter's values given the token count n
PARAMETERS = {
    "windowed": lambda n: st.integers(1, n),
    "hybrid": lambda n: st.floats(0.0, 1.0),
    "obs_attention": lambda n: st.integers(1, 4),
}


def draw_spec(draw, method: str, n: int) -> ScorerSpec:
    if method not in PARAMETERS:
        return ScorerSpec(method)
    return ScorerSpec(method, draw.draw(PARAMETERS[method](n)))


def queries_for(data: np.ndarray) -> KeyTensor:
    b, h, _, d = data.shape
    g = np.random.Generator(np.random.Philox(int(data.size)))
    return KeyTensor(g.normal(size=(b, h, 4, d)))


def bound(spec: ScorerSpec, t: KeyTensor) -> float:
    n, d = t.seq_len, t.head_dim
    tol = 64 * (n + d) * EPS * float(np.abs(t.data).max())
    if spec.method == "hybrid":
        spans = [np.ptp(score(t).data, axis=2).min() for score in (manifold_score, keydiff_score)]
        tol *= sum(1.0 / s if s > 0 else np.inf for s in spans)
    return tol


def assert_within(a: np.ndarray, b: np.ndarray, tol: float) -> None:
    worst = float(np.abs(a - b).max())
    assert worst <= tol, f"differ by {worst:.3g} > {tol:.3g}"


@pytest.mark.parametrize("method", METHODS)
@settings(max_examples=20, deadline=None)
@given(data=keys(), draw=st.data())
def test_permutation_equivariance(method, data, draw):
    t = KeyTensor(data)
    spec = draw_spec(draw, method, t.seq_len)
    perm = np.array(draw.draw(st.permutations(range(t.seq_len))))
    if method == "windowed":  # only within each window: sort by (window, drawn order)
        w = spec.param
        perm = np.array(sorted(range(t.seq_len), key=lambda i: (i // w, perm[i])))
    queries = queries_for(data)
    base = compute_scores(spec, t, queries=queries).data
    permuted = compute_scores(spec, KeyTensor(data[:, :, perm]), queries=queries).data
    assert_within(permuted, base[:, :, perm], bound(spec, t))


@settings(max_examples=25, deadline=None)
@given(keys(grid=True), st.sampled_from(["manifold", "windowed", "l1", "linf"]), st.data())
def test_translation_invariance(data, method, draw):
    spec = draw_spec(draw, method, data.shape[2])
    d = data.shape[3]
    shift = np.array(draw.draw(st.lists(st.integers(-16, 16), min_size=d, max_size=d)))
    shifted = KeyTensor((data + shift).astype(np.float32))  # exact: eighths below 2**10
    t = KeyTensor(data)
    tol = max(bound(spec, t), bound(spec, shifted))
    assert_within(compute_scores(spec, shifted).data, compute_scores(spec, t).data, tol)


def exact_rotation(d: int, draw) -> np.ndarray:
    """An orthogonal d x d matrix with entries 0, +-1/2 or +-1 (d >= 4).

    Half a 4 x 4 Hadamard matrix mixes four coordinates, between two signed
    permutations; on keys of eighths the products are exact in float32.
    """
    hadamard = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]) / 2
    mix = np.eye(d)
    mix[:4, :4] = hadamard

    def signed_permutation():
        perm = draw.draw(st.permutations(range(d)))
        signs = draw.draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=d, max_size=d))
        return np.eye(d)[perm] * np.array(signs)[:, None]

    return signed_permutation() @ mix @ signed_permutation()


@settings(max_examples=25, deadline=None)
@given(keys(grid=True, min_d=4), st.sampled_from(["manifold", "knorm", "keydiff", "normalized"]),
       st.data())
def test_orthogonal_rotation_invariance(data, method, draw):
    q = exact_rotation(data.shape[3], draw)
    assert np.array_equal(q @ q.T, np.eye(len(q)))
    rotated = data.astype(np.float64) @ q
    assert np.array_equal(rotated.astype(np.float32), rotated)  # exact in float32
    spec = ScorerSpec(method)
    t = KeyTensor(data)
    assert_within(compute_scores(spec, KeyTensor(rotated)).data, compute_scores(spec, t).data,
                  bound(spec, t))


@settings(max_examples=25, deadline=None)
@given(keys(grid=True), st.data())
def test_keydiff_per_token_scale_invariance(data, draw):
    # factors m / 4 for m in 1..32: products of eighths stay exact in float32
    factors = draw.draw(arrays(np.int8, data.shape[:3] + (1,), elements=st.integers(1, 32))) / 4
    scaled = data * factors
    assert np.array_equal(scaled.astype(np.float32), scaled)
    t = KeyTensor(data)
    assert_within(keydiff_score(KeyTensor(scaled)).data, keydiff_score(t).data,
                  bound(ScorerSpec("keydiff"), t))


INCREASING_MAPS = {
    "affine": lambda x: 3.0 * x - 7.0,
    "cube": lambda x: x**3,
    "exp": lambda x: np.exp(x / 4.0),
    "arctan": np.arctan,
    "signed_log": lambda x: np.sign(x) * np.log1p(np.abs(x)),
}


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-20, 20), min_size=1, max_size=60),
       st.sampled_from(sorted(INCREASING_MAPS)), st.data())
def test_topk_unchanged_under_increasing_map(values, name, draw):
    scores = np.array(values, dtype=np.float64)
    mapped = INCREASING_MAPS[name](scores)
    distinct = np.unique(scores)
    assert np.all(np.diff(INCREASING_MAPS[name](distinct)) > 0)  # strictly increasing here
    m = draw.draw(st.integers(1, len(scores)))
    assert np.array_equal(topk_select(mapped, m), topk_select(scores, m))

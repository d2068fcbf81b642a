"""Property-based checks for the small algebraic contracts and the bulk I/O paths."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from kvgeom import (
    BudgetPlan,
    KeyTensor,
    Report,
    ScoreTensor,
    ValidationError,
    compress_cache,
    hybrid_score,
    keydiff_score,
    knorm_score,
    load_kvt,
    lp_score,
    manifold_score,
    normalized_manifold_score,
    preservation_error,
    retention_from_scores,
    save_kvt,
    selection_overlap,
    topk_select,
    windowed_manifold_score,
)
from kvgeom.attention import _slab_weights
from kvgeom.experiments import _count_needle_hits
from kvgeom.report import CSV_BLOCK_ROWS, TOOL_VERSION, Columns, _format_cell, _format_column
from kvgeom.scorers import NORM_EPS

from conftest import TIE_HEAVY

finite_f32 = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False, width=32
)


def tensors(max_seq=12, max_dim=6):
    return st.tuples(
        st.integers(1, 2), st.integers(1, 2), st.integers(1, max_seq), st.integers(1, max_dim)
    ).flatmap(lambda s: arrays(np.float32, s, elements=finite_f32))


@settings(max_examples=50, deadline=None)
@given(tensors())
def test_kvt_round_trip_identity(tmp_path_factory, data):
    t = KeyTensor(data)
    path = tmp_path_factory.mktemp("kvt") / "t.kvt"
    save_kvt(t, path)
    assert load_kvt(path) == t


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(-5, 5), min_size=1, max_size=40).map(
        lambda xs: np.asarray(xs, dtype=np.float64)
    ),
    st.data(),
)
def test_topk_matches_sort_oracle(scores, draw):
    m = draw.draw(st.integers(1, len(scores)))
    oracle = sorted(sorted(range(len(scores)), key=lambda i: (-scores[i], i))[:m])
    assert np.array_equal(topk_select(scores, m), oracle)


@settings(max_examples=30, deadline=None)
@given(tensors())
def test_manifold_translation_invariance(data):
    t = KeyTensor(data)
    shifted = KeyTensor(data + np.float32(17.0))
    a = manifold_score(t).data
    b = manifold_score(shifted).data
    assert np.allclose(a, b, rtol=1e-4, atol=1e-3)


# ------------------------------------------------ column-wise CSV emission

# -0.0, subnormals, values near the float64 limit and integral values
SPECIAL_FLOATS = st.sampled_from(
    [-0.0, 0.0, 5e-324, -5e-324, 2.225e-308, 1.7e308, -1.7e308, 3.0, -42.0, 1e16, 2.0**53]
)


def columns(n: int):
    """One report column of n cells: a numpy array of ints, floats or bools, or a mixed list."""
    def cells(elements):
        return st.lists(elements, min_size=n, max_size=n)

    return st.one_of(
        cells(st.integers(-(2**63), 2**63 - 1)).map(lambda xs: np.array(xs, dtype=np.int64)),
        cells(st.integers(0, 2**64 - 1)).map(lambda xs: np.array(xs, dtype=np.uint64)),
        cells(st.floats() | SPECIAL_FLOATS).map(lambda xs: np.array(xs, dtype=np.float64)),
        cells(st.floats(width=32)).map(lambda xs: np.array(xs, dtype=np.float32)),
        cells(st.booleans()).map(lambda xs: np.array(xs, dtype=bool)),
        cells(st.integers() | st.floats() | SPECIAL_FLOATS | st.booleans() | st.text(max_size=5)),
    )


def _reference_csv(report: Report, rows: list) -> str:
    # the per-cell emission: one dict per row, _format_cell on every cell
    lines = [f"# tool_version={TOOL_VERSION}"]
    for key in sorted(report.metadata):
        lines.append(f"# {key}={_format_cell(report.metadata[key])}")
    lines.append(",".join(report.columns))
    for row in rows:
        lines.append(",".join(_format_cell(row.get(c, "")) for c in report.columns))
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 20).flatmap(lambda n: st.lists(columns(n), min_size=1, max_size=4)))
def test_column_csv_equals_per_cell_reference(cols):
    data = {f"c{i}": column for i, column in enumerate(cols)}
    n = len(cols[0])
    rows = [{name: column[i] for name, column in data.items()} for i in range(n)]
    names = [*data, "absent"]  # a column no row has reads as empty cells
    reference = _reference_csv(Report(name="r", columns=names), rows)
    assert Report(name="r", columns=names, rows=Columns(**data)).to_csv_text() == reference
    assert Report(name="r", columns=names, rows=rows).to_csv_text() == reference


@pytest.mark.parametrize("n", [0, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1])
def test_csv_blocks_join_to_the_per_cell_reference(tmp_path, n):
    g = np.random.default_rng(n)
    data = {"token": np.arange(n) % 37, "score": g.normal(size=n),
            "label": [f"r{i % 5}" for i in range(n)]}
    rows = [{name: column[i] for name, column in data.items()} for i in range(n)]
    report = Report(name="r", columns=list(data), rows=Columns(**data),
                    metadata={"seeds": [0, 1]})
    reference = _reference_csv(report, rows)
    assert report.to_csv_text() == reference
    report.write(tmp_path / "r.csv", "csv")
    assert (tmp_path / "r.csv").read_bytes() == reference.encode()


INT_DTYPES = ("int8", "int16", "int32", "int64", "uint8", "uint16", "uint32", "uint64")


@st.composite
def int_columns(draw):
    """An integer column of any width and signedness, often spanning fewer
    values than it has cells."""
    dtype = np.dtype(draw(st.sampled_from(INT_DTYPES)))
    info = np.iinfo(dtype)
    n = draw(st.integers(0, 300))  # over 256 cells: int8 spans beyond 127
    base = draw(st.integers(int(info.min), int(info.max)))
    span = draw(st.sampled_from([0, 1, n // 2, n, 2**64]))
    lo, hi = max(int(info.min), base - span), min(int(info.max), base + span)
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return g.integers(lo, hi, size=n, dtype=dtype, endpoint=True)


@settings(max_examples=200, deadline=None)
@given(int_columns())
@example(np.array([], dtype=np.int64))
@example(np.array([7], dtype=np.uint8))
@example(np.array([-3, -3, -3], dtype=np.int16))
@example(np.array([2**64 - 1, 2**64 - 2, 2**64 - 1], dtype=np.uint64))
@example(np.array([-(2**63), -(2**63) + 1], dtype=np.int64))
@example(np.array([-100, 100] + [0] * 199, dtype=np.int8))  # a span int8 cannot hold
def test_integer_column_equals_str_of_each_cell(values):
    assert _format_column(values) == list(map(str, values.tolist()))


# ------------------------------------------------ slab-wise centroid scorers

def batched_tensors():
    return st.tuples(
        st.integers(1, 3), st.integers(1, 4), st.integers(1, 40), st.integers(1, 9)
    ).flatmap(lambda s: arrays(np.float32, s, elements=finite_f32))


# The whole-tensor expressions the in-place slab kernels replaced, kept here
# as oracles: the kernels must reproduce their bits exactly.

def _centered_l2(block: np.ndarray) -> np.ndarray:
    mu = block.mean(axis=2, keepdims=True)
    return np.linalg.norm(block - mu, axis=3)


def _guarded_norms(data: np.ndarray) -> np.ndarray:
    return np.maximum(np.linalg.norm(data, axis=3, keepdims=True), NORM_EPS)


def _keydiff(data: np.ndarray) -> np.ndarray:
    norms = _guarded_norms(data)
    anchor = (data / norms).mean(axis=2, keepdims=True)
    anchor_norms = np.maximum(np.linalg.norm(anchor, axis=3, keepdims=True), NORM_EPS)
    cos = (data * anchor).sum(axis=3) / (norms * anchor_norms)[..., 0]
    return 1.0 - cos


def _minmax(scores: np.ndarray) -> np.ndarray:
    lo = scores.min(axis=2, keepdims=True)
    span = scores.max(axis=2, keepdims=True) - lo
    out = np.zeros_like(scores)
    np.divide(scores - lo, span, out=out, where=span > 0)
    return out


def _deviation(data: np.ndarray) -> np.ndarray:
    return np.abs(data - data.mean(axis=2, keepdims=True))


def _whole_tensor_windowed(data: np.ndarray, window: int) -> np.ndarray:
    block = data.astype(np.float64)
    out = np.empty(block.shape[:3])
    for start in range(0, block.shape[2], window):
        out[:, :, start:start + window] = _centered_l2(block[:, :, start:start + window])
    return out


# scorer -> the old expression on the whole float64 tensor
REPLACED_EXPRESSIONS = {
    manifold_score: _centered_l2,
    keydiff_score: _keydiff,
    knorm_score: lambda d: np.linalg.norm(d, axis=3),
    (lambda t: lp_score(t, 1)): lambda d: _deviation(d).sum(axis=3),
    (lambda t: lp_score(t, np.inf)): lambda d: _deviation(d).max(axis=3),
    normalized_manifold_score: lambda d: _centered_l2(d / _guarded_norms(d)),
}


def _assert_kernels_equal_replaced_expressions(data: np.ndarray, window: int) -> None:
    t = KeyTensor(data)
    whole = t.data.astype(np.float64)
    for scorer, expression in REPLACED_EXPRESSIONS.items():
        assert np.array_equal(scorer(t).data, expression(whole.copy()))
    assert np.array_equal(windowed_manifold_score(t, window).data,
                          _whole_tensor_windowed(t.data, window))
    # hybrid, one slab pass: the two whole-tensor scorers, each min-max scaled, mixed
    for lam in (0.0, 0.3, 1.0):
        two_pass = (lam * _minmax(_centered_l2(whole.copy()))
                    + (1.0 - lam) * _minmax(_keydiff(whole.copy())))
        assert np.array_equal(hybrid_score(t, lam).data, two_pass)
    # C04: a window covering the sequence is global scoring, bit for bit
    assert np.array_equal(windowed_manifold_score(t, t.seq_len).data, manifold_score(t).data)


@settings(max_examples=100, deadline=None)
@given(batched_tensors(), st.data())
def test_slab_scorers_equal_whole_tensor_reference(data, draw):
    t = KeyTensor(data)
    assert np.array_equal(manifold_score(t).data, _centered_l2(data.astype(np.float64)))
    window = draw.draw(st.integers(1, t.seq_len + 2))
    windowed = windowed_manifold_score(t, window).data
    assert np.array_equal(windowed, _whole_tensor_windowed(data, window))
    # C04: a window covering the sequence is global scoring, bit for bit
    wide = draw.draw(st.integers(t.seq_len, t.seq_len + 5))
    assert np.array_equal(windowed_manifold_score(t, wide).data, manifold_score(t).data)


# ties, zero keys and signed zeros next to ordinary values
KERNEL_ELEMENTS = finite_f32 | st.sampled_from([0.0, -0.0, 1.0, -1.0, 3.0])


@settings(max_examples=150, deadline=None)
@given(
    st.tuples(st.integers(1, 3), st.integers(1, 4), st.integers(1, 40), st.integers(1, 9))
    .flatmap(lambda s: arrays(np.float32, s, elements=KERNEL_ELEMENTS)),
    st.data(),
)
def test_inplace_kernels_equal_replaced_expressions(data, draw):
    _assert_kernels_equal_replaced_expressions(data, draw.draw(st.integers(1, data.shape[2])))


@pytest.mark.parametrize("shape, window", [
    ((1, 1, 1000, 128), 250),  # a sweep-like slab: pairwise sums past their 128-element block
    ((2, 3, 257, 129), 100),
    ((1, 2, 300, 1), 7),
])
def test_inplace_kernels_equal_replaced_expressions_at_size(shape, window):
    g = np.random.Generator(np.random.Philox(sum(shape)))
    data = (g.normal(size=shape) * g.uniform(0.1, 50.0, size=shape[:3] + (1,))).astype(np.float32)
    data[0, 0, 3] = 0.0
    _assert_kernels_equal_replaced_expressions(data, window)


# ------------------------------------------------ partition top-k and the retention mask

@settings(max_examples=300, deadline=None)
@given(st.lists(TIE_HEAVY, min_size=1, max_size=300), st.data())
def test_topk_equals_stable_argsort_oracle(scores, draw):
    arr = np.asarray(scores, dtype=np.float64)
    m = draw.draw(st.sampled_from([1, arr.size]) | st.integers(1, arr.size))
    oracle = np.sort(np.argsort(-arr, kind="stable")[:m])
    got = topk_select(arr, m)
    assert got.dtype == np.int64
    assert np.array_equal(got, oracle)


def _list_compress(keys, values, indices):
    # the per-head index-list gather compress_cache replaced
    budgets = [[len(i) for i in row] for row in indices]
    max_budget = max(max(row) for row in budgets)
    out_k = np.zeros((keys.batch, keys.heads, max_budget, keys.head_dim), dtype=np.float32)
    out_v = np.zeros((keys.batch, keys.heads, max_budget, values.head_dim), dtype=np.float32)
    mask = np.zeros((keys.batch, keys.heads, max_budget), dtype=bool)
    for b in range(keys.batch):
        for h in range(keys.heads):
            idx = indices[b][h]
            out_k[b, h, : len(idx)] = keys.data[b, h, idx]
            out_v[b, h, : len(idx)] = values.data[b, h, idx]
            mask[b, h, : len(idx)] = True
    return out_k, out_v, mask


def _list_needle_hits(indices, needles):
    needle_arr = np.asarray(needles, dtype=np.int64)
    hits = sum(int(np.isin(needle_arr, idx).sum()) for row in indices for idx in row)
    return hits, needle_arr.size * sum(len(row) for row in indices)


def _list_overlap(ia, ib):
    fractions = [
        len(np.intersect1d(a, b, assume_unique=True)) / len(a)
        for row_a, row_b in zip(ia, ib) for a, b in zip(row_a, row_b)
    ]
    return float(np.mean(fractions))


def _list_preservation_error(q, k, v, indices):
    full = np.empty(q.shape[:3] + (v.head_dim,))
    kept = np.empty_like(full)
    for bi in range(k.batch):
        for hi in range(k.heads):
            qs, ks, vs = q.matrix(bi, hi), k.matrix(bi, hi), v.matrix(bi, hi)
            np.matmul(_slab_weights(qs, ks), vs, out=full[bi, hi])
            idx = indices[bi][hi]
            np.matmul(_slab_weights(qs, ks[idx]), vs[idx], out=kept[bi, hi])
    return float(np.linalg.norm(full - kept) / np.linalg.norm(full))


@st.composite
def score_grids(draw):
    # tie-heavy (batch, heads, n) scores: every entry from a small pool that holds
    # +-0.0, and mixed budgets per head (or one BudgetPlan row for every batch row)
    b, h, n = draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(1, 16))
    pool = [-0.0, 0.0] + draw(st.lists(TIE_HEAVY, min_size=1, max_size=4))
    g = np.random.Generator(np.random.Philox(draw(st.integers(0, 2**32))))
    scores = np.array(pool)[g.integers(0, len(pool), size=(b, h, n))]
    if draw(st.booleans()):
        return scores, BudgetPlan("uniform", 0.0, g.integers(1, n + 1, size=h))
    return scores, g.integers(1, n + 1, size=(b, h))


@settings(max_examples=60, deadline=None)
@given(score_grids(), st.lists(st.integers(-2, 18), min_size=1, max_size=5), st.integers(0, 99))
def test_batched_retention_equals_list_oracles(grid, needles, seed):
    scores, budgets = grid
    r = retention_from_scores(ScoreTensor(scores), budgets)
    per = np.broadcast_to(getattr(budgets, "per_head", budgets), scores.shape[:2])
    indices = [[np.sort(np.argsort(-scores[b, h], kind="stable")[: per[b, h]])
                for h in range(scores.shape[1])] for b in range(scores.shape[0])]
    for b, h in np.ndindex(per.shape):
        assert np.array_equal(r.indices[b][h], indices[b][h])
    assert np.array_equal(r.counts, per)

    # every consumer of the mask equals its old per-head index-list loop
    g = np.random.Generator(np.random.Philox(seed))
    keys = KeyTensor(g.normal(size=scores.shape + (3,)))
    values = KeyTensor(g.normal(size=scores.shape + (2,)))
    queries = KeyTensor(g.normal(size=scores.shape[:2] + (2, 3)))
    out = compress_cache(keys, values, r)
    out_k, out_v, mask = _list_compress(keys, values, indices)
    assert np.array_equal(out.keys.data, out_k) and np.array_equal(out.values.data, out_v)
    assert np.array_equal(out.mask, mask)
    assert _count_needle_hits(r, needles) == _list_needle_hits(indices, needles)
    other = retention_from_scores(ScoreTensor(g.permutation(scores, axis=2)), budgets)
    assert selection_overlap(r, other) == _list_overlap(indices, other.indices)
    assert preservation_error(queries, keys, values, r) == _list_preservation_error(
        queries, keys, values, indices
    )


# ------------------------------------------------ tensors never take over a caller's array

@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([np.float32, np.float64, np.int32]),
    st.sampled_from(["C", "F"]),
    st.booleans(),
    st.data(),
)
def test_tensors_never_freeze_or_alias_caller_array(dtype, order, sliced, draw):
    for cls, ndim in ((KeyTensor, 4), (ScoreTensor, 3)):
        shape = draw.draw(st.tuples(*[st.integers(1, 4)] * ndim))
        arr = np.ones(shape, dtype=dtype, order=order)
        if sliced:
            arr = arr[..., :1]
        t = cls(arr)
        assert arr.flags.writeable and not t.data.flags.writeable
        assert not np.shares_memory(arr, t.data)
        arr[...] = 7
        assert (t.data == 1).all()

"""Per-token importance scorers.

Every scorer maps a (batch, heads, seq, dim) key tensor to per-token scores
with the dim axis reduced away; higher score means "keep this token". Each
(batch, head) slice is scored independently, and all reductions accumulate
in float64 regardless of the float32 storage precision. The geometric
scorers read the float32 rows ROW_CHUNK at a time into one reused float64
buffer, so none holds a float64 copy of a slab, and every score has the bits
of the same expression on the whole float64 slab.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .attention import attention_weights
from .errors import ValidationError
from .tensor import ROW_CHUNK, KeyTensor, ScoreTensor, _check_frames, _each_slab, freeze

# Guard for unit-normalizing degenerate (zero-norm) keys.
NORM_EPS = 1e-12


class Method(NamedTuple):
    """One scoring method: `score(keys, param, queries)`, which reaches its
    scorer by module-global name at call time, and for a method with a parameter
    the parameter's name in messages, its config key (the flag without dashes),
    its label format and its type and range check."""

    score: Callable
    field: str | None = None
    key: str | None = None
    label: str | None = None
    check: Callable | None = None


def _integer(field: str, value) -> int:
    """`value` as an int, refusing by `field`'s name a bool or a non-integer (int(2.5) is 2)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{field} must be an integer, got {value!r}")
    return int(value)


def _at_least_one(field: str, value) -> None:
    if _integer(field, value) < 1:
        raise ValidationError(f"{field} must be >= 1, got {value}")


def _unit_interval(field: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValidationError(f"{field} must be a number, got {value!r}")
    if not 0.0 <= value <= 1.0:
        raise ValidationError(f"{field} must be in [0, 1], got {value}")


METHOD_TABLE = {
    "manifold": Method(lambda k, p, q: manifold_score(k)),
    "windowed": Method(lambda k, p, q: windowed_manifold_score(k, p),
                       "window_size", "window", "windowed[{}]", _at_least_one),
    "keydiff": Method(lambda k, p, q: keydiff_score(k)),
    "knorm": Method(lambda k, p, q: _row_scores(k, _norms)),
    "l1": Method(lambda k, p, q: _row_scores(k, _centered_lp(np.add.reduce))),
    "linf": Method(lambda k, p, q: _row_scores(k, _centered_lp(np.maximum.reduce))),
    # {:g} for lambda only: a window of 10**6 would read 1e+06
    "hybrid": Method(lambda k, p, q: _row_scores(k, _hybrid(p)),
                     "hybrid_lambda", "lambda", "hybrid[{:g}]", _unit_interval),
    "normalized": Method(lambda k, p, q: _row_scores(k, _normalized)),
    "obs_attention": Method(lambda k, p, q: obs_attention_score(k, q, p),
                            "obs_window", "obs_window", "obs_attention[{}]", _at_least_one),
}

METHODS = tuple(METHOD_TABLE)


@dataclass(frozen=True)
class ScorerSpec:
    """A scorer selection plus the one parameter its METHOD_TABLE row requires
    (None for a method that takes none)."""

    method: str
    param: int | float | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValidationError(f"unknown method {self.method!r}; expected one of {METHODS}")
        own = METHOD_TABLE[self.method]
        if own.field is None:
            if self.param is not None:
                raise ValidationError(f"method {self.method!r} takes no parameter")
        elif self.param is None:
            flag = "--" + own.key.replace("_", "-")
            raise ValidationError(f"method {self.method!r} requires {own.field} ({flag})")
        else:
            own.check(own.field, self.param)

    def label(self) -> str:
        own = METHOD_TABLE[self.method]
        return own.label.format(self.param) if own.field else self.method


def centroid(keys: np.ndarray) -> np.ndarray:
    """Mean key vector of an (N, d) matrix, accumulated in float64."""
    arr = np.asarray(keys, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] < 1:
        raise ValidationError(f"expected a non-empty (N, d) matrix, got shape {arr.shape}")
    return arr.mean(axis=0)


def l2_from_anchor(keys: np.ndarray, anchor: np.ndarray) -> np.ndarray:
    """Euclidean distance of each key row from `anchor`."""
    arr = np.asarray(keys, dtype=np.float64)
    anc = np.asarray(anchor, dtype=np.float64)
    if arr.ndim != 2 or anc.shape != (arr.shape[1],):
        raise ValidationError(
            f"anchor shape {anc.shape} does not match key dim {arr.shape[-1:]}"
        )
    return np.linalg.norm(arr - anc, axis=1)


def _row_blocks(x: np.ndarray, buf: np.ndarray, scale: np.ndarray | None = None):
    """Each block of up to ROW_CHUNK float32 rows of `x` as (its row slice, a
    float64 copy at the head of `buf`), divided row-wise by `scale` if given."""
    for start in range(0, len(x), ROW_CHUNK):
        rows = slice(start, min(start + ROW_CHUNK, len(x)))
        block = buf[: rows.stop - start]
        np.copyto(block, x[rows])
        if scale is not None:
            block /= scale[rows, None]
        yield rows, block


def _col_mean(x: np.ndarray, buf: np.ndarray, scale: np.ndarray | None = None) -> np.ndarray:
    """Column means of the rows of `x` (divided by `scale`), with the bits of
    `x.astype(np.float64).mean(axis=0)`: numpy adds the rows of a C-ordered
    matrix to a zeroed sum one after another, so that sum is carried in row 0
    of `buf`, ahead of each block's rows. A single column is one contiguous
    run, which numpy sums pairwise instead, so it is converted whole."""
    if x.shape[1] == 1:
        return (x.astype(np.float64) if scale is None else x / scale[:, None]).mean(axis=0)
    total = np.zeros(x.shape[1])
    for _, block in _row_blocks(x, buf[1:], scale):
        buf[0] = total
        np.add.reduce(buf[: len(block) + 1], axis=0, out=total)
    return total / len(x)


def _row_scores(t: KeyTensor, kernel) -> ScoreTensor:
    """Scores from `kernel(x, buf, out)` per (batch, head): its float32 (seq, dim)
    rows `x`, its worker's float64 buffer of ROW_CHUNK + 1 rows, its score row `out`."""
    scores = np.empty(t.shape[:3], dtype=np.float64)
    _each_slab(t.shape[:2], lambda b, h, buf: kernel(t.data[b, h], buf, scores[b, h]),
               lambda: np.empty((min(t.seq_len, ROW_CHUNK) + 1, t.head_dim)))
    return ScoreTensor(freeze(scores))


def _centered_l2(x, buf, out, scale=None) -> None:
    # the bits of np.linalg.norm(rows - rows.mean(axis=0), axis=1) on the float64 rows
    mu = _col_mean(x, buf, scale)
    for rows, block in _row_blocks(x, buf, scale):
        block -= mu
        block *= block
        np.add.reduce(block, axis=1, out=out[rows])
    np.sqrt(out, out=out)


def manifold_score(t: KeyTensor) -> ScoreTensor:
    """L2 distance of each key from its (batch, head) centroid."""
    return _row_scores(t, _centered_l2)


def windowed_manifold_score(t: KeyTensor, window_size: int) -> ScoreTensor:
    """L2 distance from a local centroid per contiguous window of `window_size` tokens.

    Windows tile the sequence from position 0; the last window may be short.
    Scores from different windows are written as-is (no cross-window
    rescaling) so that a single global top-k can run downstream. With
    window_size >= seq_len this is bit-identical to manifold_score.
    """
    _at_least_one("window_size", window_size)

    def windows(x, buf, out):
        for start in range(0, len(x), window_size):
            _centered_l2(x[start : start + window_size], buf, out[start : start + window_size])

    return _row_scores(t, windows)


def _norms(x, buf, out, floor=0.0) -> None:
    """Plain L2 magnitude of each key."""
    # the bits of np.linalg.norm(rows, axis=1), floored at `floor` (norms are >= +0.0)
    for rows, block in _row_blocks(x, buf):
        block *= block
        np.add.reduce(block, axis=1, out=out[rows])
    np.maximum(np.sqrt(out, out=out), floor, out=out)


def _keydiff(x, buf, out) -> None:
    _norms(x, buf, out, NORM_EPS)  # `out` holds the guarded norms until the cosine pass
    anchor = _col_mean(x, buf, scale=out)
    anchor_norm = np.maximum(np.sqrt(np.add.reduce(anchor * anchor)), NORM_EPS)
    for rows, block in _row_blocks(x, buf):
        block *= anchor
        cos = np.add.reduce(block, axis=1)
        cos /= out[rows] * anchor_norm
        np.subtract(1.0, cos, out=out[rows])


def keydiff_score(t: KeyTensor) -> ScoreTensor:
    """One minus cosine similarity of each raw key to the normalized-mean anchor.

    The anchor is the mean of unit-normalized keys; the cosine is then taken
    between the raw key and that anchor, so per-token rescaling never changes
    any score. Zero-norm keys are guarded with NORM_EPS instead of emitting
    NaN. Range [0, 2].
    """
    return _row_scores(t, _keydiff)


def _centered_lp(reduce):
    """L1 (np.add) or Linf (np.maximum) distance from the per-(batch, head) centroid."""

    def deviation(x, buf, out):
        mu = _col_mean(x, buf)
        for rows, block in _row_blocks(x, buf):
            block -= mu
            reduce(np.abs(block, out=block), axis=1, out=out[rows])

    return deviation


def _normalized(x, buf, out) -> None:
    """L2 distance of unit-normalized keys from the mean of unit-normalized keys."""
    _norms(x, buf, out, NORM_EPS)
    # each block reads its norms from `out` before its distances overwrite them
    _centered_l2(x, buf, out, scale=out)


def _minmax(scores: np.ndarray) -> np.ndarray:
    # rescale one score row to [0, 1]; a constant row maps to zeros
    lo = scores.min()
    span = scores.max() - lo
    return (scores - lo) / span if span > 0 else np.zeros_like(scores)


def _hybrid(hybrid_lambda: float):
    """Convex combination of min-max-normalized centroid-L2 and keydiff scores,
    both taken per (batch, head): min-max scaling is per row."""

    def mix(x, buf, out):
        diff = np.empty_like(out)
        _keydiff(x, buf, diff)
        _centered_l2(x, buf, out)
        out[...] = hybrid_lambda * _minmax(out) + (1.0 - hybrid_lambda) * _minmax(diff)

    return mix


def obs_attention_score(keys: KeyTensor, queries: KeyTensor, obs_window: int) -> ScoreTensor:
    """Cumulative softmax attention each key receives from the last `obs_window` queries.

    Per query the weights sum to 1, so the total score mass per (batch, head)
    equals obs_window. No causal mask: this models prefill-time eviction over
    a fixed prefix.
    """
    _at_least_one("obs_window", obs_window)
    if queries is None:
        raise ValidationError("obs_attention requires a query tensor")
    _check_frames(keys, q=queries)  # names the given queries' shape, not the tail's
    if obs_window > queries.seq_len:
        raise ValidationError(
            f"obs_window {obs_window} exceeds query count {queries.seq_len}"
        )
    tail = KeyTensor(queries.data[:, :, queries.seq_len - obs_window :, :])
    weights = attention_weights(tail, keys)
    return ScoreTensor(freeze(weights.sum(axis=2)))


def compute_scores(
    spec: ScorerSpec, keys: KeyTensor, queries: KeyTensor | None = None
) -> ScoreTensor:
    """Dispatch a ScorerSpec against a key tensor."""
    return METHOD_TABLE[spec.method].score(keys, spec.param, queries)

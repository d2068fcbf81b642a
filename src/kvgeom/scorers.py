"""Per-token importance scorers.

Every scorer maps a (batch, heads, seq, dim) key tensor to per-token scores
with the dim axis reduced away; higher score means "keep this token". Each
(batch, head) slice is scored independently, and all reductions accumulate
in float64 regardless of the float32 storage precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .attention import attention_weights
from .errors import ValidationError
from .tensor import KeyTensor, ScoreTensor, freeze

# Guard for unit-normalizing degenerate (zero-norm) keys.
NORM_EPS = 1e-12

# Rows whose squares are formed at a time for a row norm: 256 rows of 128
# float64 values are 256 KiB, which stays in a core's L2 cache.
ROW_CHUNK = 256


class Method(NamedTuple):
    """One scoring method: `score(keys, parameter, queries)`, which reaches its
    scorer by module-global name at call time, and for a method with a parameter
    the ScorerSpec field it requires, the field's config key (the flag without
    dashes), its label format and its range check."""

    score: Callable
    field: str | None = None
    key: str | None = None
    label: str | None = None
    check: Callable | None = None


def _at_least_one(field: str, value) -> None:
    if value < 1:
        raise ValidationError(f"{field} must be >= 1, got {value}")


def _unit_interval(field: str, value) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValidationError(f"{field} must be in [0, 1], got {value}")


METHOD_TABLE = {
    "manifold": Method(lambda k, p, q: manifold_score(k)),
    "windowed": Method(lambda k, p, q: windowed_manifold_score(k, p),
                       "window_size", "window", "windowed[{}]", _at_least_one),
    "keydiff": Method(lambda k, p, q: keydiff_score(k)),
    "knorm": Method(lambda k, p, q: knorm_score(k)),
    "l1": Method(lambda k, p, q: lp_score(k, 1)),
    "linf": Method(lambda k, p, q: lp_score(k, np.inf)),
    # {:g} for lambda only: a window of 10**6 would read 1e+06
    "hybrid": Method(lambda k, p, q: hybrid_score(k, p),
                     "hybrid_lambda", "lambda", "hybrid[{:g}]", _unit_interval),
    "normalized": Method(lambda k, p, q: normalized_manifold_score(k)),
    "obs_attention": Method(lambda k, p, q: obs_attention_score(k, q, p),
                            "obs_window", "obs_window", "obs_attention[{}]", _at_least_one),
}

METHODS = tuple(METHOD_TABLE)


@dataclass(frozen=True)
class ScorerSpec:
    """A scorer selection plus the one parameter its METHOD_TABLE row requires."""

    method: str
    window_size: int | None = None
    hybrid_lambda: float | None = None
    obs_window: int | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValidationError(f"unknown method {self.method!r}; expected one of {METHODS}")
        for method, m in METHOD_TABLE.items():
            value = getattr(self, m.field) if m.field else None
            if method == self.method and m.field and value is None:
                flag = "--" + m.key.replace("_", "-")
                raise ValidationError(f"method {method!r} requires {m.field} ({flag})")
            if method != self.method and value is not None:
                raise ValidationError(f"{m.field} is only valid for method {method!r}")
        own = METHOD_TABLE[self.method]
        if own.field:
            own.check(own.field, self._parameter)

    @property
    def _parameter(self):
        field = METHOD_TABLE[self.method].field
        return getattr(self, field) if field else None

    def label(self) -> str:
        own = METHOD_TABLE[self.method]
        return own.label.format(self._parameter) if own.field else self.method

    def to_dict(self) -> dict:
        own = METHOD_TABLE[self.method]
        return {"method": self.method, **({own.key: self._parameter} if own.field else {})}


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


def _centered_l2(block: np.ndarray) -> np.ndarray:
    # block: (batch, heads, n, d) float64 -> distances from the block centroid.
    # Consumes `block`: it is centred and squared in place, which gives the bits
    # of np.linalg.norm(block - mu, axis=3) without its two full-size temporaries.
    mu = block.mean(axis=2, keepdims=True)
    block -= mu
    block *= block
    return np.sqrt(np.add.reduce(block, axis=3))


def _slab_scores(t: KeyTensor, score_slab) -> ScoreTensor:
    """Scores from `score_slab`, called on one fresh (1, 1, seq, dim) float64
    slab per (batch, head), so that only one slab is held in float64 at a time.
    The slab is the scorer's own copy: it may overwrite it."""
    scores = np.empty(t.shape[:3], dtype=np.float64)
    for b in range(t.batch):
        for h in range(t.heads):
            slab = t.data[b : b + 1, h : h + 1].astype(np.float64)
            scores[b : b + 1, h : h + 1] = score_slab(slab)
    return ScoreTensor(freeze(scores))


def manifold_score(t: KeyTensor) -> ScoreTensor:
    """L2 distance of each key from its (batch, head) centroid."""
    return _slab_scores(t, _centered_l2)


def windowed_manifold_score(t: KeyTensor, window_size: int) -> ScoreTensor:
    """L2 distance from a local centroid per contiguous window of `window_size` tokens.

    Windows tile the sequence from position 0; the last window may be short.
    Scores from different windows are written as-is (no cross-window
    rescaling) so that a single global top-k can run downstream. With
    window_size >= seq_len this is bit-identical to manifold_score.
    """
    _at_least_one("window_size", window_size)
    n = t.seq_len

    def windows(slab: np.ndarray) -> np.ndarray:
        out = np.empty(slab.shape[:3], dtype=np.float64)
        for start in range(0, n, window_size):
            end = min(start + window_size, n)
            out[:, :, start:end] = _centered_l2(slab[:, :, start:end, :])
        return out

    return _slab_scores(t, windows)


def _guarded_norms(data: np.ndarray) -> np.ndarray:
    """Row norms of `data` (keepdims), floored at NORM_EPS.

    The squares are formed ROW_CHUNK rows at a time in one small buffer that
    stays in cache; every row is summed as np.linalg.norm sums it, so the
    bits are the same.
    """
    n = data.shape[2]
    sums = np.empty(data.shape[:3] + (1,))
    work = np.empty(data.shape[:2] + (min(n, ROW_CHUNK), data.shape[3]))
    for start in range(0, n, ROW_CHUNK):
        end = min(start + ROW_CHUNK, n)
        rows = data[:, :, start:end]
        squares = np.multiply(rows, rows, out=work[:, :, : end - start])
        np.add.reduce(squares, axis=3, keepdims=True, out=sums[:, :, start:end])
    return np.maximum(np.sqrt(sums, out=sums), NORM_EPS)


def _keydiff(data: np.ndarray) -> np.ndarray:
    norms = _guarded_norms(data)
    anchor = (data / norms).mean(axis=2, keepdims=True)
    anchor_norms = np.maximum(np.linalg.norm(anchor, axis=3, keepdims=True), NORM_EPS)
    data *= anchor  # the last use of the raw keys
    cos = np.add.reduce(data, axis=3)
    cos /= (norms * anchor_norms)[..., 0]
    return 1.0 - cos


def keydiff_score(t: KeyTensor) -> ScoreTensor:
    """One minus cosine similarity of each raw key to the normalized-mean anchor.

    The anchor is the mean of unit-normalized keys; the cosine is then taken
    between the raw key and that anchor, so per-token rescaling never changes
    any score. Zero-norm keys are guarded with NORM_EPS instead of emitting
    NaN. Range [0, 2].
    """
    return _slab_scores(t, _keydiff)


def _row_norms(data: np.ndarray) -> np.ndarray:
    data *= data
    return np.sqrt(np.add.reduce(data, axis=3))


def knorm_score(t: KeyTensor) -> ScoreTensor:
    """Plain L2 magnitude of each key."""
    return _slab_scores(t, _row_norms)


def lp_score(t: KeyTensor, p) -> ScoreTensor:
    """L1 (p=1) or Linf (p=np.inf) distance from the per-(batch, head) centroid."""
    if p == 1:
        reduce = np.add.reduce
    elif p == np.inf:
        reduce = np.maximum.reduce
    else:
        raise ValidationError(f"p must be 1 or inf, got {p!r}")

    def deviation(data: np.ndarray) -> np.ndarray:
        data -= data.mean(axis=2, keepdims=True)
        return reduce(np.abs(data, out=data), axis=3)

    return _slab_scores(t, deviation)


def _normalized(data: np.ndarray) -> np.ndarray:
    data /= _guarded_norms(data)
    return _centered_l2(data)


def normalized_manifold_score(t: KeyTensor) -> ScoreTensor:
    """L2 distance of unit-normalized keys from the mean of unit-normalized keys."""
    return _slab_scores(t, _normalized)


def _minmax(scores: np.ndarray) -> np.ndarray:
    # rescale each (batch, head) score row to [0, 1]; constant rows map to zeros
    lo = scores.min(axis=2, keepdims=True)
    span = scores.max(axis=2, keepdims=True) - lo
    out = np.zeros_like(scores)
    np.divide(scores - lo, span, out=out, where=span > 0)
    return out


def hybrid_score(t: KeyTensor, hybrid_lambda: float) -> ScoreTensor:
    """Convex combination of min-max-normalized centroid-L2 and keydiff scores,
    both from one float64 slab per (batch, head): min-max scaling is per row."""
    _unit_interval("hybrid_lambda", hybrid_lambda)

    def mix(slab: np.ndarray) -> np.ndarray:
        m = _minmax(_centered_l2(slab.copy()))
        return hybrid_lambda * m + (1.0 - hybrid_lambda) * _minmax(_keydiff(slab))

    return _slab_scores(t, mix)


def obs_attention_score(keys: KeyTensor, queries: KeyTensor, obs_window: int) -> ScoreTensor:
    """Cumulative softmax attention each key receives from the last `obs_window` queries.

    Per query the weights sum to 1, so the total score mass per (batch, head)
    equals obs_window. No causal mask: this models prefill-time eviction over
    a fixed prefix.
    """
    _at_least_one("obs_window", obs_window)
    if queries is None:
        raise ValidationError("obs_attention requires a query tensor")
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
    return METHOD_TABLE[spec.method].score(keys, spec._parameter, queries)

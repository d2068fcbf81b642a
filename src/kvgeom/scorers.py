"""Per-token importance scorers.

Every scorer maps a (batch, heads, seq, dim) key tensor to per-token scores
with the dim axis reduced away; higher score means "keep this token". Each
(batch, head) slice is scored independently, and all reductions accumulate
in float64 regardless of the float32 storage precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attention import attention_weights
from .errors import ValidationError
from .tensor import KeyTensor, ScoreTensor, freeze

# Guard for unit-normalizing degenerate (zero-norm) keys.
NORM_EPS = 1e-12

# Rows whose squares are formed at a time for a row norm: 256 rows of 128
# float64 values are 256 KiB, which stays in a core's L2 cache.
ROW_CHUNK = 256

METHODS = (
    "manifold",
    "windowed",
    "keydiff",
    "knorm",
    "l1",
    "linf",
    "hybrid",
    "normalized",
    "obs_attention",
)


@dataclass(frozen=True)
class ScorerSpec:
    """A scorer selection plus its method-specific parameters.

    window_size is required iff method == "windowed", hybrid_lambda iff
    method == "hybrid", obs_window iff method == "obs_attention".
    """

    method: str
    window_size: int | None = None
    hybrid_lambda: float | None = None
    obs_window: int | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValidationError(f"unknown method {self.method!r}; expected one of {METHODS}")
        for field_name, needed_by, flag in (
            ("window_size", "windowed", "--window"),
            ("hybrid_lambda", "hybrid", "--lambda"),
            ("obs_window", "obs_attention", "--obs-window"),
        ):
            value = getattr(self, field_name)
            if self.method == needed_by and value is None:
                raise ValidationError(f"method {needed_by!r} requires {field_name} ({flag})")
            if self.method != needed_by and value is not None:
                raise ValidationError(f"{field_name} is only valid for method {needed_by!r}")
        if self.window_size is not None and self.window_size < 1:
            raise ValidationError(f"window_size must be >= 1, got {self.window_size}")
        if self.hybrid_lambda is not None and not 0.0 <= self.hybrid_lambda <= 1.0:
            raise ValidationError(f"hybrid_lambda must be in [0, 1], got {self.hybrid_lambda}")
        if self.obs_window is not None and self.obs_window < 1:
            raise ValidationError(f"obs_window must be >= 1, got {self.obs_window}")

    def label(self) -> str:
        if self.method == "windowed":
            return f"windowed[{self.window_size}]"
        if self.method == "hybrid":
            return f"hybrid[{self.hybrid_lambda:g}]"
        if self.method == "obs_attention":
            return f"obs_attention[{self.obs_window}]"
        return self.method

    def to_dict(self) -> dict:
        out = {"method": self.method}
        if self.window_size is not None:
            out["window"] = self.window_size
        if self.hybrid_lambda is not None:
            out["lambda"] = self.hybrid_lambda
        if self.obs_window is not None:
            out["obs_window"] = self.obs_window
        return out


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
    if window_size < 1:
        raise ValidationError(f"window_size must be >= 1, got {window_size}")
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
    """Convex combination of min-max-normalized centroid-L2 and keydiff scores."""
    if not 0.0 <= hybrid_lambda <= 1.0:
        raise ValidationError(f"hybrid_lambda must be in [0, 1], got {hybrid_lambda}")
    m = _minmax(manifold_score(t).data)
    k = _minmax(keydiff_score(t).data)
    return ScoreTensor(freeze(hybrid_lambda * m + (1.0 - hybrid_lambda) * k))


def obs_attention_score(keys: KeyTensor, queries: KeyTensor, obs_window: int) -> ScoreTensor:
    """Cumulative softmax attention each key receives from the last `obs_window` queries.

    Per query the weights sum to 1, so the total score mass per (batch, head)
    equals obs_window. No causal mask: this models prefill-time eviction over
    a fixed prefix.
    """
    if obs_window < 1:
        raise ValidationError(f"obs_window must be >= 1, got {obs_window}")
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
    if spec.method == "manifold":
        return manifold_score(keys)
    if spec.method == "windowed":
        return windowed_manifold_score(keys, spec.window_size)
    if spec.method == "keydiff":
        return keydiff_score(keys)
    if spec.method == "knorm":
        return knorm_score(keys)
    if spec.method == "l1":
        return lp_score(keys, 1)
    if spec.method == "linf":
        return lp_score(keys, np.inf)
    if spec.method == "hybrid":
        return hybrid_score(keys, spec.hybrid_lambda)
    if spec.method == "normalized":
        return normalized_manifold_score(keys)
    if spec.method == "obs_attention":
        if queries is None:
            raise ValidationError("obs_attention requires a query tensor")
        return obs_attention_score(keys, queries, spec.obs_window)
    raise ValidationError(f"unknown method {spec.method!r}")

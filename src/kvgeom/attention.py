"""Reference attention and score agreement.

Attention here is prefill-style: no causal mask, every query attends to the
full key set. The softmax is always computed with per-row max subtraction;
this is part of the numerical contract, not an optimization.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, check_memory
from .tensor import KeyTensor, _check_frames, _each_slab, all_finite


@dataclass(frozen=True)
class AttentionOutput:
    """values: (batch, heads, queries, head_dim); weights: (batch, heads, queries, keys)."""

    values: np.ndarray
    weights: np.ndarray


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Stabilized softmax along the last axis."""
    e = logits - logits.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def attention_weights(queries: KeyTensor, keys: KeyTensor) -> np.ndarray:
    """softmax(Q K^T / sqrt(d)) per (batch, head, query) row, float64.

    Queries and keys go to float64 one (batch, head) slab at a time, keys into a worker's buffer.
    """
    _check_frames(keys, q=queries)
    shape = queries.shape[:3] + (keys.seq_len,)
    check_memory(8 * math.prod(shape), f"a {shape} float64 attention weight tensor")
    out = np.empty(shape)

    def slab(bi, hi, k):  # softmax_rows's operations, in place in the slab's block of out
        np.copyto(k, keys.data[bi, hi])
        w = np.matmul(queries.matrix(bi, hi), k.T, out=out[bi, hi])
        w /= np.sqrt(k.shape[1])
        w -= w.max(axis=-1, keepdims=True)
        np.exp(w, out=w)
        w /= w.sum(axis=-1, keepdims=True)

    _each_slab(keys.shape[:2], slab, lambda: np.empty(keys.shape[2:]))
    return out


def attention(q: KeyTensor, k: KeyTensor, v: KeyTensor) -> AttentionOutput:
    """Full attention output: weights and weighted values."""
    _check_frames(k, v, q)
    weights = attention_weights(q, k)
    values = np.empty(q.shape[:3] + (v.head_dim,))
    _each_slab(k.shape[:2], lambda bi, hi, _: np.matmul(
        weights[bi, hi], v.matrix(bi, hi), out=values[bi, hi]))
    return AttentionOutput(values=values, weights=weights)


def _as_score_vector(a, name: str) -> np.ndarray:
    arr = np.asarray(a, dtype=np.float64).ravel()
    if arr.size < 2:
        raise ValidationError(f"{name} needs at least 2 entries, got {arr.size}")
    if not all_finite(arr):
        raise ValidationError(f"{name} contains NaN or Inf")
    return arr


def _paired_samples(a, b) -> tuple:
    """a and b as float64 vectors of one length, each of at least 2 finite entries."""
    x = _as_score_vector(a, "a")
    y = _as_score_vector(b, "b")
    if x.size != y.size:
        raise ValidationError(f"length mismatch: {x.size} vs {y.size}")
    return x, y


def pearson(a, b) -> float:
    """Sample Pearson correlation; constant input is defined as 0 (with a warning)."""
    x, y = _paired_samples(a, b)
    xc = x - x.mean()
    yc = y - y.mean()
    sx = float(xc @ xc)
    sy = float(yc @ yc)
    if sx == 0.0 or sy == 0.0:
        warnings.warn("constant input to pearson; correlation defined as 0", RuntimeWarning)
        return 0.0
    return float((xc @ yc) / np.sqrt(sx * sy))


def average_ranks(x) -> np.ndarray:
    """Ranks starting at 1; ties receive the average of their rank span."""
    arr = np.asarray(x, dtype=np.float64).ravel()
    _, inverse, counts = np.unique(arr, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)  # a tie group spans sorted positions ends - counts .. ends - 1
    return (0.5 * ((ends - counts) + (ends - 1)) + 1.0)[inverse]


def spearman(a, b) -> float:
    """Pearson correlation of average-ranked vectors."""
    return pearson(*map(average_ranks, _paired_samples(a, b)))


def selection_overlap(ra, rb) -> float:
    """Mean |intersection| / budget over (batch, head) pairs; budgets must match."""
    if ra.keep.shape != rb.keep.shape:
        raise ValidationError("retention sets cover different frames")
    ca, cb = ra.counts, rb.counts
    if (ca != cb).any():
        bi, hi = np.argwhere(ca != cb)[0]
        raise ValidationError(
            f"budget mismatch at (batch={bi}, head={hi}): {ca[bi, hi]} vs {cb[bi, hi]}"
        )
    return float(((ra.keep & rb.keep).sum(axis=2) / ca).mean())

"""Budget computation, top-k retention, cache assembly, and per-head
allocation into a plain int64 (heads,) budget array."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .tensor import KeyTensor, ScoreTensor, _check_frames, _each_slab, _Frame, all_finite, freeze

BUDGET_MODES = ("uniform", "proportional")


def budget(n: int, rho: float) -> int:
    """Retention budget M = floor((1 - rho) * n), clamped to at least 1 token.

    The clamp keeps attention over the compressed cache well-defined for
    tiny n. The 1e-9 nudge absorbs binary representation error in
    (1 - rho) * n (e.g. rho=0.3, n=10 must give 7, not 6).
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    if not 0.0 <= rho < 1.0:
        raise ValidationError(f"rho must be in [0, 1), got {rho}")
    return max(1, math.floor((1.0 - rho) * n + 1e-9))


def topk_select(scores, m: int) -> np.ndarray:
    """Indices of the m highest scores, ties broken toward the lower index.

    Returns sorted ascending indices (original sequence order). The minimum
    selected score is >= the maximum unselected score.
    """
    arr = np.asarray(scores, dtype=np.float64).ravel()
    if not all_finite(arr):
        raise ValidationError("scores must be finite")
    if not 1 <= m <= arr.size:
        raise ValidationError(f"m must be in [1, {arr.size}], got {m}")
    # the m-th largest score t: every score above t is kept, and the lowest
    # indices among scores equal to t fill the rest, the selection a stable
    # argsort of -scores makes (-0.0 and 0.0 tie there as here)
    t = np.partition(arr, arr.size - m)[arr.size - m]
    keep = arr > t
    short = m - int(np.count_nonzero(keep))
    keep[np.flatnonzero(arr == t)[:short]] = True
    return np.flatnonzero(keep).astype(np.int64, copy=False)


@dataclass(frozen=True, eq=False)
class RetentionSet(_Frame):
    """Which tokens each (batch, head) keeps: a read-only (batch, heads,
    seq_len) bool mask with at least one True per head."""

    keep: np.ndarray
    _field = "keep"
    __eq__, __hash__ = object.__eq__, object.__hash__  # compared by identity

    def __post_init__(self):
        dtype = np.asarray(self.keep).dtype
        if dtype != np.bool_:  # an int index array must not pass as a 0/1 mask
            raise ValidationError(f"keep must be a bool mask, got dtype {dtype}")
        if not self._adopt(np.bool_, 3).any(axis=2).all():
            raise ValidationError("each head must retain at least one token")

    @property
    def counts(self) -> np.ndarray:
        """Retained tokens per (batch, head), int64 (batch, heads)."""
        return self.keep.sum(axis=2, dtype=np.int64)

    @property
    def indices(self) -> list:
        """indices[batch][head]: that head's retained tokens, ascending int64."""
        return [[np.flatnonzero(row).astype(np.int64, copy=False) for row in rows]
                for rows in self.keep]

    def to_json_obj(self) -> list:
        idx = self.indices
        return [{"batch": b, "head": h, "indices": idx[b][h].tolist()}
                for b, h in np.ndindex(self.keep.shape[:2])]


def retention_from_scores(scores: ScoreTensor, budgets) -> RetentionSet:
    """Top-k retention per (batch, head); `budgets` is an int or an array that
    broadcasts to (batch, heads), such as the (heads,) array of
    `allocate_head_budgets` (applied to every batch row)."""
    per = np.broadcast_to(np.asarray(budgets, dtype=np.int64), (scores.batch, scores.heads))
    keep = np.zeros(scores.data.shape, dtype=bool)
    for b, h in np.ndindex(per.shape):
        keep[b, h, topk_select(scores.data[b, h], int(per[b, h]))] = True
    return RetentionSet(freeze(keep))


@dataclass(frozen=True)
class CompressedCache:
    """Rectangular export of an evicted cache.

    Per-head budgets may differ, so rows are padded with zeros up to the
    largest budget; `mask` marks the valid rows. Retained rows keep their
    original sequence order.
    """

    keys: KeyTensor
    values: KeyTensor
    mask: np.ndarray  # bool (batch, heads, max_budget)

    def mask_json_obj(self) -> dict:
        counts = self.mask.sum(axis=2).astype(int).tolist()
        return {"max_budget": int(self.mask.shape[2]), "valid_counts": counts}


def compress_cache(keys: KeyTensor, values: KeyTensor, retained: RetentionSet) -> CompressedCache:
    """Keep only the retained rows of the key/value tensors.

    Gathers the keys, then the values, and drops its reference to the keys
    before it allocates the values' output: a caller that passes its only
    references holds at most three cache-sized arrays (keys, values and the
    keys' output, then values and both outputs), not four.
    """
    _check_frames(keys, values, retained=retained)
    counts = retained.counts
    mask = np.arange(counts.max()) < counts[..., None]
    out_keys = _gather(keys, retained.keep, counts)
    del keys
    return CompressedCache(
        keys=out_keys, values=_gather(values, retained.keep, counts), mask=mask
    )


def _gather(t: KeyTensor, keep: np.ndarray, counts: np.ndarray) -> KeyTensor:
    """The kept rows of each (batch, head) of `t`, zero-padded to the largest count."""
    out = np.zeros(counts.shape + (counts.max(), t.head_dim), dtype=np.float32)
    # one row gather per (batch, head), measured faster than take_along_axis
    # over an argsort and lighter than one flat boolean gather of the tensor;
    # `take` writes straight into `out` (mode "raise" would buffer it, and
    # no index of flatnonzero needs clipping)
    def gather(b, h, _):
        rows = np.flatnonzero(keep[b, h])
        np.take(t.data[b, h], rows, axis=0, out=out[b, h, : rows.size], mode="clip")

    _each_slab(counts.shape, gather)
    return KeyTensor(freeze(out))


def _round_robin(alloc, order, room, left: int, step: int) -> None:
    """Add `step` to heads of `order` in cyclic passes, one per head and pass,
    skipping heads whose `room` is used up, until `left` steps are given. Whole
    passes over the open heads go at once; the last, partial one goes to the
    first `left` open heads."""
    while left > 0:
        heads = order[room[order] > 0]
        q = min(left // heads.size, int(room[heads].min()))
        if q == 0:
            heads, q = heads[:left], 1
        alloc[heads] += step * q
        room[heads] -= q
        left -= q * heads.size


def _apportion(quotas: np.ndarray, total: int, upper: int) -> np.ndarray:
    """Largest-remainder apportionment of `total`, in [k, k * upper], over k slots in [1, upper]."""
    k = quotas.size
    base = np.floor(quotas).astype(np.int64)
    frac = quotas - base
    alloc = np.clip(base, 1, upper)
    # hand out (or claw back) one token at a time, biggest remainder first,
    # ties toward the lower head index; cycles until the total is exact
    priority = np.lexsort((np.arange(k), -frac))
    diff = int(total - alloc.sum())
    if diff > 0:
        _round_robin(alloc, priority, upper - alloc, diff, 1)
    else:
        _round_robin(alloc, priority[::-1], alloc - 1, -diff, -1)
    return alloc


def allocate_head_budgets(scores: ScoreTensor, rho: float, mode: str) -> np.ndarray:
    """Distribute the global budget across heads: int64 (heads,) budgets.

    uniform: every head gets budget(N, rho). proportional: heads receive
    budgets proportional to their total score mass (summed over batch and
    tokens), rounded by largest remainder so the global total
    budget(heads * N, rho) is exact, each head clamped to [1, N].
    """
    if mode not in BUDGET_MODES:
        raise ValidationError(f"mode must be one of {BUDGET_MODES}, got {mode!r}")
    n = scores.seq_len
    heads = scores.heads
    if mode == "uniform":
        return np.full(heads, budget(n, rho), dtype=np.int64)
    total = max(heads, budget(heads * n, rho))
    mass = scores.data.sum(axis=(0, 2)).astype(np.float64)
    mass_sum = float(mass.sum())
    if mass_sum <= 0.0:
        quotas = np.full(heads, total / heads, dtype=np.float64)
    else:
        quotas = mass / mass_sum * total
    return _apportion(quotas, total, n)

"""Budget computation, top-k retention, cache assembly, per-head allocation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .tensor import KeyTensor, ScoreTensor, _adopt, all_finite, freeze

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
class RetentionSet:
    """Which tokens each (batch, head) keeps: a read-only (batch, heads,
    seq_len) bool mask with at least one True per head."""

    keep: np.ndarray

    def __post_init__(self):
        dtype = np.asarray(self.keep).dtype
        if dtype != np.bool_:  # an int index array must not pass as a 0/1 mask
            raise ValidationError(f"keep must be a bool mask, got dtype {dtype}")
        arr = _adopt(self.keep, np.bool_)
        if arr.ndim != 3:
            raise ValidationError(f"expected 3 axes (batch, heads, seq), got {arr.ndim}")
        if min(arr.shape) < 1:
            raise ValidationError(f"all axes must be >= 1, got shape {arr.shape}")
        if not arr.any(axis=2).all():
            raise ValidationError("each head must retain at least one token")
        object.__setattr__(self, "keep", arr)

    @property
    def batch(self) -> int:
        return self.keep.shape[0]

    @property
    def heads(self) -> int:
        return self.keep.shape[1]

    @property
    def seq_len(self) -> int:
        return self.keep.shape[2]

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
    """Top-k retention per (batch, head); `budgets` is an int, a (batch, heads)
    array, or a BudgetPlan (applied to every batch row)."""
    per = budgets.per_head if isinstance(budgets, BudgetPlan) else budgets
    per = np.broadcast_to(np.asarray(per, dtype=np.int64), (scores.batch, scores.heads))
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
    if (keys.batch, keys.heads, keys.seq_len) != (values.batch, values.heads, values.seq_len):
        raise ValidationError(
            f"key shape {keys.shape} incompatible with value shape {values.shape}"
        )
    if retained.keep.shape != keys.shape[:3]:
        raise ValidationError("retention set frame does not match tensors")
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
    for b, h in np.ndindex(counts.shape):
        rows = np.flatnonzero(keep[b, h])
        np.take(t.data[b, h], rows, axis=0, out=out[b, h, : rows.size], mode="clip")
    return KeyTensor(freeze(out))


@dataclass(frozen=True)
class BudgetPlan:
    """Per-head retention budgets summing to an exact global budget."""

    mode: str
    global_ratio: float
    per_head: np.ndarray  # int64 (heads,)

    def total(self) -> int:
        return int(self.per_head.sum())


def _apportion(quotas: np.ndarray, total: int, upper: int) -> np.ndarray:
    """Largest-remainder apportionment with per-slot bounds [1, upper]."""
    k = quotas.size
    if not k <= total <= k * upper:
        raise ValidationError(f"total {total} infeasible for {k} heads with cap {upper}")
    base = np.floor(quotas).astype(np.int64)
    frac = quotas - base
    alloc = np.clip(base, 1, upper)
    # hand out (or claw back) one token at a time, biggest remainder first,
    # ties toward the lower head index; cycles until the total is exact
    priority = np.lexsort((np.arange(k), -frac))
    diff = int(total - alloc.sum())
    j = 0
    while diff > 0:
        h = priority[j % k]
        if alloc[h] < upper:
            alloc[h] += 1
            diff -= 1
        j += 1
    j = 0
    reverse = priority[::-1]
    while diff < 0:
        h = reverse[j % k]
        if alloc[h] > 1:
            alloc[h] -= 1
            diff += 1
        j += 1
    return alloc


def allocate_head_budgets(scores: ScoreTensor, rho: float, mode: str) -> BudgetPlan:
    """Distribute the global budget across heads.

    uniform: every head gets budget(N, rho). proportional: heads receive
    budgets proportional to their total score mass (summed over batch and
    tokens), rounded by largest remainder so the global total
    floor(heads * (1 - rho) * N) is exact, each head clamped to [1, N].
    """
    if mode not in BUDGET_MODES:
        raise ValidationError(f"mode must be one of {BUDGET_MODES}, got {mode!r}")
    if not 0.0 <= rho < 1.0:
        raise ValidationError(f"rho must be in [0, 1), got {rho}")
    n = scores.seq_len
    heads = scores.heads
    if mode == "uniform":
        per = np.full(heads, budget(n, rho), dtype=np.int64)
        return BudgetPlan(mode=mode, global_ratio=rho, per_head=per)
    total = max(heads, min(heads * n, math.floor(heads * (1.0 - rho) * n + 1e-9)))
    mass = scores.data.sum(axis=(0, 2)).astype(np.float64)
    mass_sum = float(mass.sum())
    if mass_sum <= 0.0:
        quotas = np.full(heads, total / heads, dtype=np.float64)
    else:
        quotas = mass / mass_sum * total
    per = _apportion(quotas, total, n)
    return BudgetPlan(mode=mode, global_ratio=rho, per_head=per)

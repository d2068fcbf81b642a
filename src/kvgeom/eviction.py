"""Budget computation, top-k retention, cache assembly, per-head allocation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .tensor import KeyTensor, ScoreTensor, all_finite, freeze

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


@dataclass
class RetentionSet:
    """Per-(batch, head) sorted lists of retained token indices."""

    batch: int
    heads: int
    seq_len: int
    indices: list  # indices[batch][head] -> sorted int64 array

    def __post_init__(self):
        if len(self.indices) != self.batch or any(len(row) != self.heads for row in self.indices):
            raise ValidationError("retention grid does not match (batch, heads)")
        normalized = []
        for row in self.indices:
            out_row = []
            for idx in row:
                arr = np.array(idx, dtype=np.int64).ravel()  # own copy, never the caller's
                if arr.size < 1:
                    raise ValidationError("each head must retain at least one token")
                # strictly increasing means sorted and unique: one linear pass
                if not (arr[1:] > arr[:-1]).all():
                    arr.sort()
                    if (arr[1:] == arr[:-1]).any():
                        raise ValidationError("retained indices must be unique")
                if arr[0] < 0 or arr[-1] >= self.seq_len:
                    raise ValidationError(
                        f"retained index out of range [0, {self.seq_len})"
                    )
                out_row.append(arr)
            normalized.append(out_row)
        self.indices = normalized

    def budgets(self) -> np.ndarray:
        return np.array(
            [[len(self.indices[b][h]) for h in range(self.heads)] for b in range(self.batch)],
            dtype=np.int64,
        )

    def to_json_obj(self) -> list:
        return [
            {"batch": b, "head": h, "indices": self.indices[b][h].tolist()}
            for b in range(self.batch)
            for h in range(self.heads)
        ]


def retention_from_scores(scores: ScoreTensor, budgets) -> RetentionSet:
    """Top-k retention per (batch, head); `budgets` is an int, a (batch, heads)
    array, or a BudgetPlan (applied to every batch row)."""
    if isinstance(budgets, BudgetPlan):
        per = np.tile(budgets.per_head, (scores.batch, 1))
    else:
        per = np.broadcast_to(
            np.asarray(budgets, dtype=np.int64), (scores.batch, scores.heads)
        )
    grid = [
        [topk_select(scores.data[b, h], int(per[b, h])) for h in range(scores.heads)]
        for b in range(scores.batch)
    ]
    return RetentionSet(
        batch=scores.batch, heads=scores.heads, seq_len=scores.seq_len, indices=grid
    )


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
    """Keep only the retained rows of the key/value tensors."""
    if (keys.batch, keys.heads, keys.seq_len) != (values.batch, values.heads, values.seq_len):
        raise ValidationError(
            f"key shape {keys.shape} incompatible with value shape {values.shape}"
        )
    if (retained.batch, retained.heads, retained.seq_len) != (
        keys.batch,
        keys.heads,
        keys.seq_len,
    ):
        raise ValidationError("retention set frame does not match tensors")
    budgets = retained.budgets()
    max_budget = int(budgets.max())
    out_k = np.zeros((keys.batch, keys.heads, max_budget, keys.head_dim), dtype=np.float32)
    out_v = np.zeros((keys.batch, keys.heads, max_budget, values.head_dim), dtype=np.float32)
    mask = np.zeros((keys.batch, keys.heads, max_budget), dtype=bool)
    for b in range(keys.batch):
        for h in range(keys.heads):
            idx = retained.indices[b][h]
            out_k[b, h, : len(idx)] = keys.data[b, h, idx]
            out_v[b, h, : len(idx)] = values.data[b, h, idx]
            mask[b, h, : len(idx)] = True
    return CompressedCache(
        keys=KeyTensor(freeze(out_k)), values=KeyTensor(freeze(out_v)), mask=mask
    )


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

"""Intrinsic-dimension estimation for key point clouds.

Three complementary estimators:
  * PCA effective dimension: components needed to explain a variance fraction.
  * Two-NN: closed-form estimate from the ratio of second to first nearest
    neighbor distances, n_valid / sum(log(r2/r1)).
  * k-NN MLE: mean over points of [mean_j log(r_k / r_j)]^-1.

Neighbor search is exact and brute-force in float64: O(n^2) time, done in
blocks of 128 rows by at most 4096 columns. Up to two worker threads each
own one 4 MiB block buffer and take every other row tile, keeping each
column block's k smallest, so scratch is O(2 * 4 MiB + n*k) whatever n is.
The blocks do not depend on the worker count, so neither does the table.
Squared distances that rounding makes negative (near-duplicates) are clamped
to 0 only in the k selected columns; clamping is monotone, so no bit changes.
Duplicates (r1 < 1e-12) are discarded and counted. This targets desk-scale
clouds, not production indexes.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import EstimationError, ValidationError
from .tensor import _each_slab, all_finite

DUPLICATE_EPS = 1e-12
# Rows and at most columns of one block of the neighbor search's float64
# squared distances (4 MiB); the column block is capped at n.
ROW_TILE = 128
COL_BLOCK = 4096
# Float64 elements of a worker's scratch strip of squared norms (192 KiB):
# 6 rows of a 4096-column block. With the (ROW_TILE, d) doubled rows at
# d = 64, a worker's small buffers stay at 256 KiB, as with an 8-row strip.
STRIP_ELEMENTS = 3 * 2**13


@dataclass(frozen=True)
class DimensionReport:
    pca_d95: int
    twonn: float
    mle: float
    n_points: int
    ambient_dim: int
    discarded_pairs: int

    @property
    def pca_ratio(self) -> float:
        """PCA effective dimension as a fraction of the ambient dimension."""
        return self.pca_d95 / self.ambient_dim

    def to_dict(self) -> dict:
        return {**asdict(self), "pca_ratio": self.pca_ratio}


def _as_points(points) -> np.ndarray:
    arr = np.asarray(points, dtype=np.float64)
    if arr.ndim != 2:
        raise ValidationError(f"expected an (n, d) matrix, got shape {arr.shape}")
    if not all_finite(arr):
        raise ValidationError("points contain NaN or Inf")
    return arr


def pca_effective_dim(points, threshold: float = 0.95) -> int:
    """Smallest k whose top-k eigenvalues explain >= threshold of total variance."""
    arr = _as_points(points)
    if arr.shape[0] < 2:
        raise ValidationError(f"need at least 2 points, got {arr.shape[0]}")
    if not 0.0 < threshold <= 1.0:
        raise ValidationError(f"threshold must be in (0, 1], got {threshold}")
    centered = arr - arr.mean(axis=0)
    # eigenvalues of the d x d scatter matrix: the squared singular values of
    # the centred cloud, to within (n + d) * eps of the largest
    eig = np.maximum(np.linalg.eigvalsh(centered.T @ centered)[::-1], 0.0)
    total = float(eig.sum())
    if total == 0.0:
        return 1
    cum = np.cumsum(eig) / total
    return int(np.searchsorted(cum, threshold - 1e-12) + 1)


def _nn_tile(points, sq, s, k, g, strip, cand, twice, out) -> None:
    """Sorted squared k-NN distances of rows s:e into out[s:e], one column block
    at a time in the block buffer g, with a small strip for the squared norms.
    Each block's k smallest go to the candidate buffer cand. The rows are
    doubled once into `twice`: 2x.y has the bits of 2(x.y), as doubling is exact."""
    n = len(points)
    e = min(s + g.shape[0], n)
    rows = np.multiply(points[s:e], 2.0, out=twice[: e - s])
    m = 0
    for c in range(0, n, g.shape[1]):
        ce = min(c + g.shape[1], n)
        b = g[: e - s, : ce - c]
        np.matmul(rows, points[c:ce].T, out=b)
        for r in range(0, e - s, strip.shape[0]):
            re = min(r + strip.shape[0], e - s)
            t = strip[: re - r, : ce - c]
            np.add(sq[s + r : s + re, None], sq[None, c:ce], out=t)
            np.subtract(t, b[r:re], out=b[r:re])
        lo = max(s, c)
        np.fill_diagonal(b[lo - s :, lo - c :], np.inf)
        kb = min(k, ce - c)
        b.partition(kb - 1, axis=1)
        cand[: e - s, m : m + kb] = b[:, :kb]
        m += kb
    pool = cand[: e - s, :m]
    pool.partition(k - 1, axis=1)
    part = out[s:e]
    np.maximum(pool[:, :k], 0.0, out=part)
    part.sort(axis=1)


def _sorted_nn_dists(points: np.ndarray, k: int) -> np.ndarray:
    """(n, k) matrix of each point's k smallest neighbor distances, ascending.

    Exact, one tile of ROW_TILE rows at a time, on `tensor._each_slab`'s
    workers, each owning one (ROW_TILE, COL_BLOCK) block buffer, strip,
    candidate buffer and (ROW_TILE, d) buffer of doubled rows and taking
    every other tile; a cloud of one tile runs inline. Tiles start at 0,
    ROW_TILE, 2*ROW_TILE, ... and column blocks at 0, COL_BLOCK, ...
    whatever the worker count, so the BLAS sees the same blocks and the
    table has the same bits on any number of CPUs while the BLAS runs one
    thread per call, as `_each_slab` sets it. Each block's squared
    distances round as the whole n x n matrix's would (doubling a factor of
    each dot product is exact), and the k smallest of a row are the k
    smallest of its blocks' k smallest, so the table equals the whole
    matrix's wherever the BLAS gives a block of `points @ points.T` the bits
    of the same entries of the whole product. Negative squared distances are
    clamped to 0 after selection: clamping is monotone, so the k smallest
    clamped values are the clamped k smallest values.
    """
    n = points.shape[0]
    rows, cols = min(n, ROW_TILE), min(n, COL_BLOCK)
    blocks = -(-n // cols)
    starts = range(0, n, rows)
    sq = (points**2).sum(axis=1)
    out = np.empty((n, k))
    strip_rows = min(rows, max(1, STRIP_ELEMENTS // cols))
    _each_slab((len(starts),), lambda i, buffers: _nn_tile(points, sq, starts[i], k, *buffers, out),
               lambda: (np.empty((rows, cols)), np.empty((strip_rows, cols)),
                        np.empty((rows, min(n, blocks * k))), np.empty((rows, points.shape[1]))))
    return np.sqrt(out, out=out)


def _twonn_from_dists(nn: np.ndarray) -> tuple[float, int]:
    r1 = nn[:, 0]
    r2 = nn[:, 1]
    valid = r1 >= DUPLICATE_EPS
    discarded = int((~valid).sum())
    if not valid.any():
        raise EstimationError("all points have duplicate nearest neighbors")
    log_mu = np.log(r2[valid] / r1[valid])
    denom = float(log_mu.sum())
    if denom <= 0.0:
        raise EstimationError("degenerate neighbor ratios; cannot estimate dimension")
    return float(valid.sum() / denom), discarded


def twonn_dim(points) -> float:
    """Two-NN intrinsic dimension estimate; duplicates are dropped."""
    arr = _as_points(points)
    if arr.shape[0] < 3:
        raise ValidationError(f"need at least 3 points, got {arr.shape[0]}")
    est, _ = _twonn_from_dists(_sorted_nn_dists(arr, 2))
    return est


def _mle_from_dists(nn: np.ndarray) -> float:
    rk = nn[:, -1:]
    valid = (nn >= DUPLICATE_EPS).all(axis=1)
    if not valid.any():
        raise EstimationError("all points degenerate for MLE estimation")
    logs = np.log(rk[valid] / nn[valid, :-1])
    inv = logs.mean(axis=1)
    good = inv > 0.0
    if not good.any():
        raise EstimationError("degenerate neighbor ratios; cannot estimate dimension")
    return float((1.0 / inv[good]).mean())


def estimate_dimensions(
    points, threshold: float = 0.95, k_neighbors: int = 10
) -> DimensionReport:
    """All three estimates from one shared distance computation."""
    arr = _as_points(points)
    if k_neighbors < 2:
        raise ValidationError(f"k_neighbors must be >= 2, got {k_neighbors}")
    if arr.shape[0] <= max(k_neighbors, 2):
        raise ValidationError(
            f"need more than {max(k_neighbors, 2)} points, got {arr.shape[0]}"
        )
    # checked here, before the O(n^2) search, not only by the PCA: the PCA runs
    # after the search, since its freed (n, d) temporary raises the search's peak
    if not 0.0 < threshold <= 1.0:
        raise ValidationError(f"threshold must be in (0, 1], got {threshold}")
    nn = _sorted_nn_dists(arr, k_neighbors)
    twonn, discarded = _twonn_from_dists(nn[:, :2])
    return DimensionReport(
        pca_d95=pca_effective_dim(arr, threshold),
        twonn=twonn,
        mle=_mle_from_dists(nn),
        n_points=arr.shape[0],
        ambient_dim=arr.shape[1],
        discarded_pairs=discarded,
    )

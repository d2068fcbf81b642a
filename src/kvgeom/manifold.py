"""Intrinsic-dimension estimation for key point clouds.

Three complementary estimators:
  * PCA effective dimension: components needed to explain a variance fraction.
  * Two-NN: closed-form estimate from the ratio of second to first nearest
    neighbor distances, n_valid / sum(log(r2/r1)).
  * k-NN MLE: mean over points of [mean_j log(r_k / r_j)]^-1.

Neighbor search is exact and brute-force in float64: O(n^2) time, done in
row tiles of about 16 MiB of distances. Up to two worker threads (fewer when
fewer CPUs are usable or the cloud has fewer tiles) each own one tile buffer
and take every other tile, so memory is O(2*tile*n + n*k) rather than an
n x n matrix. Every tile is the same row block whatever the worker count, so
the table does not depend on the number of CPUs. Squared distances that
rounding makes negative (near-duplicates) are clamped to 0 only in the k
selected columns; clamping is monotone, so no bit changes.
Duplicates (r1 < 1e-12) are discarded and counted. This targets desk-scale
clouds, not production indexes.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import EstimationError, ValidationError
from .tensor import _each_slab, all_finite

DUPLICATE_EPS = 1e-12
# Float64 distances held per row tile of the neighbor search (16 MiB):
# 256 rows at n = 8192.
TILE_ELEMENTS = 2**21
# Float64 elements of a worker's scratch strip of squared norms (256 KiB):
# 4 rows at n = 8192.
STRIP_ELEMENTS = 2**15


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
    svals = np.linalg.svd(centered, compute_uv=False)
    eig = svals**2
    total = float(eig.sum())
    if total == 0.0:
        return 1
    cum = np.cumsum(eig) / total
    return int(np.searchsorted(cum, threshold - 1e-12) + 1)


def _nn_tile(points, sq, s, k, g, strip, out) -> None:
    """Sorted squared k-NN distances of rows s:e into out[s:e], in the first
    e - s rows of the tile buffer g and a small strip for the squared norms."""
    g = g[: len(points) - s]
    e = s + g.shape[0]
    np.matmul(points[s:e], points.T, out=g)
    g *= 2.0
    for c in range(0, e - s, strip.shape[0]):
        ce = min(c + strip.shape[0], e - s)
        t = strip[: ce - c]
        np.add(sq[s + c : s + ce, None], sq[None, :], out=t)
        np.subtract(t, g[c:ce], out=g[c:ce])
    np.fill_diagonal(g[:, s:], np.inf)
    g.partition(k - 1, axis=1)
    part = out[s:e]
    np.maximum(g[:, :k], 0.0, out=part)
    part.sort(axis=1)


def _sorted_nn_dists(points: np.ndarray, k: int) -> np.ndarray:
    """(n, k) matrix of each point's k smallest neighbor distances, ascending.

    Exact, one tile of rows at a time, on `tensor._each_slab`'s workers, each
    owning one tile buffer and strip and taking every other tile; a cloud of
    one tile runs inline. Tiles start at 0, rows, 2*rows, ... whatever the
    worker count, so the BLAS sees the same row blocks and the table has the
    same bits on any number of CPUs. Each
    tile's squared distances use the same operations in the same order as
    the whole n x n matrix would, so the table equals the whole matrix's
    wherever the BLAS gives a row block of `points @ points.T` the bits of
    the same rows of the whole product. Negative squared distances are
    clamped to 0 after selection: clamping is monotone, so the k smallest
    clamped values are the clamped k smallest values.
    """
    n = points.shape[0]
    rows = min(n, max(1, TILE_ELEMENTS // n))
    starts = range(0, n, rows)
    sq = (points**2).sum(axis=1)
    out = np.empty((n, k))
    strip_rows = min(rows, max(1, STRIP_ELEMENTS // n))
    _each_slab((len(starts),), lambda i, buffers: _nn_tile(points, sq, starts[i], k, *buffers, out),
               lambda: (np.empty((rows, n)), np.empty((strip_rows, n))))
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


def mle_dim(points, k_neighbors: int = 10) -> float:
    """k-NN maximum-likelihood dimension estimate (plain mean over points)."""
    arr = _as_points(points)
    if k_neighbors < 2:
        raise ValidationError(f"k_neighbors must be >= 2, got {k_neighbors}")
    if arr.shape[0] <= k_neighbors:
        raise ValidationError(
            f"need more than k_neighbors={k_neighbors} points, got {arr.shape[0]}"
        )
    return _mle_from_dists(_sorted_nn_dists(arr, k_neighbors))


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

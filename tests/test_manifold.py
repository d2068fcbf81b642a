import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kvgeom import (
    EstimationError,
    ValidationError,
    estimate_dimensions,
    manifold,
    mle_dim,
    pca_effective_dim,
    twonn_dim,
)

from conftest import rng


def whole_matrix_nn_dists(points, k):
    """Reference neighbor search: the whole n x n squared-distance matrix at once."""
    sq = (points**2).sum(axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (points @ points.T)
    np.maximum(d2, 0.0, out=d2)
    np.fill_diagonal(d2, np.inf)
    part = np.partition(d2, k - 1, axis=1)[:, :k]
    part.sort(axis=1)
    return np.sqrt(part)


def fresh_temporary_nn_dists(points, k):
    """Reference row-tile loop: fresh temporaries for every tile, and the clamp
    to 0 over the whole tile before selection."""
    n = points.shape[0]
    rows = max(1, manifold.TILE_ELEMENTS // n)
    sq = (points**2).sum(axis=1)
    out = np.empty((n, k))
    for s in range(0, n, rows):
        e = min(s + rows, n)
        d2 = sq[s:e, None] + sq[None, :] - 2.0 * (points[s:e] @ points.T)
        np.maximum(d2, 0.0, out=d2)
        np.fill_diagonal(d2[:, s:], np.inf)
        d2.partition(k - 1, axis=1)
        part = d2[:, :k]
        part.sort(axis=1)
        out[s:e] = part
    return np.sqrt(out, out=out)


def _tile_rows(n):
    return max(1, manifold.TILE_ELEMENTS // n)


# Cloud sizes at the row-tile boundaries: the largest n that one tile holds,
# the first n that needs a second tile, several tiles whose last one is
# ragged, and the first n whose last tile has a single row.
ONE_TILE = math.isqrt(manifold.TILE_ELEMENTS)
TILE_BOUNDARY_SIZES = (
    ONE_TILE,
    ONE_TILE + 1,
    2500,
    next(n for n in range(ONE_TILE + 1, 8 * ONE_TILE) if n % _tile_rows(n) == 1),
)


def planted_uniform(k, n, d, seed, low=0.0, high=1.0):
    """Uniform sample on a k-dim box embedded in d ambient dims."""
    g = rng(seed)
    basis, _ = np.linalg.qr(g.normal(size=(d, k)))
    return g.uniform(low, high, size=(n, k)) @ basis.T


def planted_gaussian(k, n, d, seed):
    g = rng(seed)
    basis, _ = np.linalg.qr(g.normal(size=(d, k)))
    return g.normal(size=(n, k)) @ basis.T


class TestPcaEffectiveDim:
    def test_line_in_3d(self):
        t = np.linspace(-1, 1, 50)
        points = np.stack([t, 2 * t, -t], axis=1)
        assert pca_effective_dim(points) == 1

    def test_equal_eigenvalues_need_all_components(self):
        # 10 symmetric +- pairs give exactly equal eigenvalues; 9/10 < 0.95
        d = 10
        points = np.concatenate([np.eye(d), -np.eye(d)])
        assert pca_effective_dim(points) == 10

    def test_rank2_with_96_4_split(self):
        u = np.zeros(8)
        u[0] = 1.0
        v = np.zeros(8)
        v[1] = 1.0
        a, b = np.sqrt(0.96), np.sqrt(0.04)
        points = np.concatenate([np.outer([1, -1], a * u), np.outer([1, -1], b * v)])
        assert pca_effective_dim(points, threshold=0.95) == 1
        assert pca_effective_dim(points, threshold=0.97) == 2

    def test_rank_k_bound(self):
        for k in (1, 2, 5):
            points = planted_gaussian(k, 200, 32, seed=k)
            assert pca_effective_dim(points) <= k

    def test_identical_points(self):
        assert pca_effective_dim(np.zeros((5, 4))) == 1

    def test_errors(self):
        with pytest.raises(ValidationError):
            pca_effective_dim(np.zeros((1, 3)))
        with pytest.raises(ValidationError):
            pca_effective_dim(np.zeros((5, 3)), threshold=0.0)


class TestTwoNN:
    def test_line_segment(self):
        estimates = [twonn_dim(planted_uniform(1, 2000, 128, s)) for s in range(5)]
        assert 0.8 <= np.mean(estimates) <= 1.3

    def test_square(self):
        estimates = [twonn_dim(planted_uniform(2, 2000, 128, s)) for s in range(5)]
        assert 1.7 <= np.mean(estimates) <= 2.4

    def test_duplicates_discarded(self):
        base = planted_uniform(2, 300, 16, seed=0)
        doubled = np.concatenate([base, base])
        report = estimate_dimensions(doubled, k_neighbors=3)
        assert report.discarded_pairs > 0
        assert np.isfinite(report.twonn)

    def test_all_duplicates_is_estimation_error(self):
        with pytest.raises(EstimationError):
            twonn_dim(np.zeros((10, 4)))

    def test_too_few_points(self):
        with pytest.raises(ValidationError):
            twonn_dim(np.zeros((2, 4)))


class TestMle:
    def test_line(self):
        estimates = [mle_dim(planted_uniform(1, 1000, 64, s)) for s in range(5)]
        assert 0.8 <= np.mean(estimates) <= 1.4

    def test_nine_dim_gaussian(self):
        estimates = [mle_dim(planted_gaussian(9, 4096, 128, s)) for s in range(3)]
        assert 7.0 <= np.mean(estimates) <= 12.0

    def test_k_equals_n_rejected(self):
        points = planted_gaussian(2, 20, 8, seed=1)
        with pytest.raises(ValidationError):
            mle_dim(points, k_neighbors=20)

    def test_k_too_small(self):
        with pytest.raises(ValidationError):
            mle_dim(planted_gaussian(2, 20, 8, seed=1), k_neighbors=1)


class TestInvariances:
    def _rigid_motion(self, points, seed):
        g = rng(seed)
        rot, _ = np.linalg.qr(g.normal(size=(points.shape[1],) * 2))
        return points @ rot + g.normal(size=points.shape[1]) * 5.0

    def test_rigid_motion(self):
        points = planted_uniform(3, 600, 24, seed=0)
        moved = self._rigid_motion(points, seed=1)
        assert pca_effective_dim(moved) == pca_effective_dim(points)
        for fn in (twonn_dim, mle_dim):
            a, b = fn(points), fn(moved)
            assert abs(a - b) / a < 1e-3

    def test_scale_invariance(self):
        points = planted_uniform(2, 500, 16, seed=2)
        for alpha in (0.01, 7.0):
            assert abs(twonn_dim(alpha * points) - twonn_dim(points)) < 1e-6
            assert abs(mle_dim(alpha * points) - mle_dim(points)) < 1e-6


class TestDimensionReport:
    def test_fields_and_ratio(self):
        points = planted_gaussian(3, 400, 20, seed=3)
        report = estimate_dimensions(points)
        assert report.n_points == 400
        assert report.ambient_dim == 20
        assert 1 <= report.pca_d95 <= 20
        assert report.twonn > 0 and report.mle > 0
        assert report.pca_ratio == report.pca_d95 / 20
        d = report.to_dict()
        assert set(d) == {
            "pca_d95", "twonn", "mle", "n_points", "ambient_dim",
            "discarded_pairs", "pca_ratio",
        }

    def test_matches_standalone_estimators(self):
        points = planted_gaussian(2, 300, 12, seed=4)
        report = estimate_dimensions(points, k_neighbors=8)
        assert report.twonn == pytest.approx(twonn_dim(points), abs=1e-12)
        assert report.mle == pytest.approx(mle_dim(points, k_neighbors=8), abs=1e-12)
        assert report.pca_d95 == pca_effective_dim(points)

    def test_planted_dimension_recovery(self):
        for k in (1, 2, 5):
            estimates = [
                estimate_dimensions(planted_uniform(k, 1500, 64, s)).twonn for s in range(3)
            ]
            tol = max(1.0, 0.25 * k)
            assert abs(np.mean(estimates) - k) <= tol


@st.composite
def dyadic_clouds(draw):
    """Clouds whose coordinates are small integers times a power of two.

    Every squared distance of such a cloud is exact in float64 whatever
    order a BLAS sums in, so tiled and whole-matrix tables must be equal.
    A spread of 1 puts up to 3**d distinct points in the cloud, so most
    points have duplicates.
    """
    n = draw(st.sampled_from(TILE_BOUNDARY_SIZES) | st.integers(3, 64))
    d = draw(st.integers(1, 4))
    spread = draw(st.sampled_from([1, 3, 1000]))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = g.integers(-spread, spread + 1, size=(n, d)).astype(np.float64)
    copies = draw(st.integers(0, n // 2))
    points[:copies] = points[n - copies :]
    points *= 2.0 ** draw(st.integers(-8, 8))
    k = draw(st.sampled_from([2, n - 1]) | st.integers(2, n - 1))
    return points, k


class TestTiledNeighborSearch:
    def test_boundary_sizes_cover_the_tile_cases(self):
        one, two, ragged, single_row_tail = TILE_BOUNDARY_SIZES
        assert _tile_rows(one) == one
        assert _tile_rows(two) < two < 2 * _tile_rows(two)
        assert ragged // _tile_rows(ragged) >= 2 and ragged % _tile_rows(ragged) > 0
        assert single_row_tail % _tile_rows(single_row_tail) == 1

    @staticmethod
    def _report(points, k):
        try:
            return estimate_dimensions(points, k_neighbors=k)
        except EstimationError as exc:
            return repr(exc)

    @settings(max_examples=40, deadline=None)
    @given(dyadic_clouds())
    def test_equals_whole_matrix_exactly(self, cloud):
        points, k = cloud
        whole = whole_matrix_nn_dists(points, k)  # computed once per example
        tiled = manifold._sorted_nn_dists(points, k)
        assert np.array_equal(tiled, whole)
        report = self._report(points, k)
        with mock.patch.object(manifold, "_sorted_nn_dists", lambda *_: whole):
            assert report == self._report(points, k)

    def test_duplicates_are_discarded_alike(self):
        g = np.random.default_rng(5)
        for n in TILE_BOUNDARY_SIZES:
            points = g.integers(-1000, 1001, size=(n, 3)).astype(np.float64)
            q = n // 4
            points[:q] = points[q : 2 * q]
            report = estimate_dimensions(points, k_neighbors=4)
            assert report.discarded_pairs >= 2 * q
            with mock.patch.object(manifold, "_sorted_nn_dists", whole_matrix_nn_dists):
                assert estimate_dimensions(points, k_neighbors=4) == report

    @settings(max_examples=20, deadline=None)
    @given(
        st.sampled_from(TILE_BOUNDARY_SIZES),
        st.integers(1, 8),
        st.integers(0, 2**32 - 1),
    )
    def test_within_blas_rounding_of_whole_matrix(self, n, d, seed):
        # A BLAS may sum a row tile's dot products in another order than the
        # same rows of the whole product (OpenBLAS does in the last n mod 8
        # columns). With M = max|x|^2, each dot product then moves by at most
        # d*eps*M, the squared distance by 2*d*eps*M plus 4*eps*M from its
        # final rounding, and sqrt and the squaring below add 12*eps*M.
        # Sorting is 1-Lipschitz, so the sorted tables agree to that bound.
        points = np.random.default_rng(seed).normal(size=(n, d)) * 3.0
        tiled = manifold._sorted_nn_dists(points, 2)
        whole = whole_matrix_nn_dists(points, 2)
        tol = (2 * d + 16) * np.finfo(np.float64).eps * (points**2).sum(axis=1).max()
        assert np.abs(tiled**2 - whole**2).max() <= tol

    @pytest.mark.parametrize("n", TILE_BOUNDARY_SIZES)
    def test_equals_fresh_temporary_tiles_exactly(self, n):
        # The reference makes the same BLAS calls row for row, so the tables
        # are equal for every n. Near-duplicate rows round some squared
        # distances below 0, which the kernel clamps only after selection.
        g = np.random.default_rng(n)
        points = g.normal(size=(n, 5)) * 3.0
        q = n // 5
        points[:q] = points[n - q :] + g.normal(size=(q, 5)) * 1e-9
        a, b = points[:q], points[n - q :]
        assert ((a**2).sum(axis=1) + (b**2).sum(axis=1) - 2.0 * (a * b).sum(axis=1) < 0.0).any()
        # the k smallest sorted values are the first k columns of the whole sorted row
        full = fresh_temporary_nn_dists(points, n - 1)
        for k in (2, 10, n - 1):
            assert np.array_equal(manifold._sorted_nn_dists(points, k), full[:, :k])

    @staticmethod
    def _table_on(cpus, points, k):
        with mock.patch.object(manifold, "_usable_cpus", return_value=cpus):
            return manifold._sorted_nn_dists(points, k)

    @pytest.mark.parametrize("n", TILE_BOUNDARY_SIZES)
    def test_table_does_not_depend_on_the_worker_count(self, n):
        # normal coordinates, so the BLAS rounds: only equal row blocks give equal bits
        points = np.random.default_rng(n).normal(size=(n, 5)) * 3.0
        one = self._table_on(1, points, 3)
        assert np.array_equal(self._table_on(2, points, 3), one)

    @settings(max_examples=12, deadline=None)
    @given(dyadic_clouds())
    def test_dyadic_table_does_not_depend_on_the_worker_count(self, cloud):
        points, k = cloud
        assert np.array_equal(self._table_on(2, points, k), self._table_on(1, points, k))

    def test_one_tile_starts_no_thread(self):
        points = np.random.default_rng(0).normal(size=(ONE_TILE, 4))
        no_pool = mock.Mock(side_effect=AssertionError("a one-tile search started a thread"))
        with mock.patch.object(manifold, "ThreadPoolExecutor", no_pool):
            self._table_on(8, points, 2)

    def test_never_more_than_two_workers(self):
        ragged = TILE_BOUNDARY_SIZES[2]  # three tiles
        points = np.random.default_rng(0).normal(size=(ragged, 2))
        with mock.patch.object(
            manifold, "ThreadPoolExecutor", wraps=manifold.ThreadPoolExecutor
        ) as pool:
            self._table_on(64, points, 2)
        pool.assert_called_once_with(max_workers=2)

    def test_worker_errors_propagate(self):
        points = np.random.default_rng(0).normal(size=(ONE_TILE + 1, 2))

        def fail_on_second_tile(points, sq, s, *args):
            if s > 0:
                raise FloatingPointError("tile failed")

        with mock.patch.object(manifold, "_nn_tile", fail_on_second_tile):
            with pytest.raises(FloatingPointError, match="tile failed"):
                self._table_on(2, points, 2)

    def test_search_holds_two_tile_buffers(self):
        n, k = 8192, 10
        points = np.random.default_rng(0).normal(size=(n, 8))
        tracemalloc.start()
        try:
            manifold._sorted_nn_dists(points, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        tile = _tile_rows(n) * n * 8
        assert peak <= 2 * tile + n * k * 8 + 2**20

    def test_memory_is_bounded_by_tiles(self):
        # The n x n float64 matrix alone would be 512 MiB.
        points = np.random.default_rng(0).normal(size=(8192, 8))
        tracemalloc.start()
        try:
            estimate_dimensions(points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

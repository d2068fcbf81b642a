import contextlib
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
    pca_effective_dim,
    twonn_dim,
)
from kvgeom import tensor

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


@tensor.one_blas_thread()
def fresh_temporary_nn_dists(points, k):
    """Reference block loop: the same BLAS calls as the kernel, on one BLAS
    thread as the kernel's, with fresh temporaries for every (row tile, column
    block), a tile's blocks joined into whole rows, and the clamp to 0 over the
    whole tile before selection."""
    n = points.shape[0]
    rows, cols = min(n, manifold.ROW_TILE), min(n, manifold.COL_BLOCK)
    sq = (points**2).sum(axis=1)
    out = np.empty((n, k))
    for s in range(0, n, rows):
        e = min(s + rows, n)
        d2 = np.concatenate([
            sq[s:e, None] + sq[None, c : c + cols] - 2.0 * (points[s:e] @ points[c : c + cols].T)
            for c in range(0, n, cols)
        ], axis=1)
        np.maximum(d2, 0.0, out=d2)
        np.fill_diagonal(d2[:, s:], np.inf)
        d2.partition(k - 1, axis=1)
        part = d2[:, :k]
        part.sort(axis=1)
        out[s:e] = part
    return np.sqrt(out, out=out)


# A small block geometry, patched in so that every block boundary fits a
# cheap whole-matrix reference. As in the production one, a column block is
# a whole number of row tiles.
SMALL_BLOCKS = {"ROW_TILE": 8, "COL_BLOCK": 64}


def small_blocks():
    return mock.patch.multiple(manifold, **SMALL_BLOCKS)


def boundary_sizes(rows, cols):
    """Cloud sizes at the block boundaries of a rows x cols geometry."""
    return (
        rows,  # the largest n that one row tile holds
        rows + 1,  # the first n that needs a second row tile
        cols,  # the largest n that one column block holds
        cols + 1,  # a one-column second block and a single-row last tile
        2 * cols + cols // 2 + 3,  # a ragged third block and a ragged last tile
        # a single-row last tile beside a ragged last block
        next(n for n in range(2 * cols + 2, 4 * cols) if n % rows == 1 and n % cols > 1),
    )


TILE_BOUNDARY_SIZES = boundary_sizes(SMALL_BLOCKS["ROW_TILE"], SMALL_BLOCKS["COL_BLOCK"])
# Clouds at the production constants: one column block of several row tiles,
# the last one ragged, with n a multiple of 8 or not.
PRODUCTION_SIZES = (1448, 1449, 2500, 3547)


def blocks_for(n):
    """The small geometry for a boundary size, the production one otherwise."""
    return small_blocks() if n in TILE_BOUNDARY_SIZES else contextlib.nullcontext()


def scratch_bound(n, d, k):
    """Bytes of the search's scratch: two workers' block buffers, strips,
    candidate buffers and doubled rows, the squared norms and the (n, k) table."""
    rows, cols = manifold.ROW_TILE, min(n, manifold.COL_BLOCK)
    blocks = -(-n // cols)
    per_worker = rows * cols + manifold.STRIP_ELEMENTS + rows * blocks * k + rows * d
    return 2 * per_worker * 8 + n * (k + 1) * 8


def svd_spectrum(points):
    """Reference PCA spectrum: the squared singular values of the whole
    centred (n, d) cloud, padded with zeros to d values."""
    n, d = points.shape
    eig = np.zeros(d)
    eig[: min(n, d)] = np.linalg.svd(points - points.mean(axis=0), compute_uv=False) ** 2
    return eig


def effective_dim(eig, threshold):
    """The PCA effective dimension of a descending spectrum."""
    total = float(eig.sum())
    if total == 0.0:
        return 1
    return int(np.searchsorted(np.cumsum(eig) / total, threshold - 1e-12) + 1)


@st.composite
def graded_clouds(draw):
    """Clouds of rank 1 to d with geometrically graded spectra, small noise,
    power-of-two scales and large offsets, optionally with duplicated rows
    and rounded through float32."""
    d = draw(st.integers(1, 128))
    n = draw(st.integers(2, 600))
    rank = draw(st.integers(1, d))
    decay = draw(st.floats(0.05, 1.0))
    noise = draw(st.sampled_from([0.0, 1e-10, 1e-7, 1e-4]))
    scale = 2.0 ** draw(st.integers(-20, 20))
    offset = draw(st.sampled_from([0.0, 1.0, 1e6]))
    g = rng(draw(st.integers(0, 2**32 - 1)))
    basis, _ = np.linalg.qr(g.normal(size=(d, rank)))
    points = (g.normal(size=(n, rank)) * decay ** np.arange(rank)) @ basis.T
    points = (points + noise * g.normal(size=(n, d))) * scale + offset * g.normal(size=d)
    if draw(st.booleans()):
        points = np.repeat(points[: (n + 1) // 2], 2, axis=0)[:n]
    if draw(st.booleans()):
        points = points.astype(np.float32).astype(np.float64)
    return points


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

    @given(graded_clouds())
    @settings(max_examples=60, deadline=None)
    def test_equals_svd_reference(self, points):
        sv2 = svd_spectrum(points)
        for threshold in (0.5, 0.95, 0.999999, 1.0):
            assert pca_effective_dim(points, threshold) == effective_dim(sv2, threshold)
        # the scatter matrix's eigenvalues are the squared singular values to
        # within (n + d) eps of the largest; at d <= 128 and n <= 600 a
        # cumulative fraction moves by well under the 1e-12 threshold slack
        n, d = points.shape
        centered = points - points.mean(axis=0)
        eig = np.maximum(np.linalg.eigvalsh(centered.T @ centered)[::-1], 0.0)
        assert np.abs(eig - sv2).max() <= (n + d) * np.finfo(float).eps * sv2[0]

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


def mle_estimate(points, k_neighbors=10):
    """The k-NN MLE of `estimate_dimensions`, the only way the package offers it."""
    return estimate_dimensions(points, k_neighbors=k_neighbors).mle


class TestMle:
    def test_line(self):
        estimates = [mle_estimate(planted_uniform(1, 1000, 64, s)) for s in range(5)]
        assert 0.8 <= np.mean(estimates) <= 1.4

    def test_nine_dim_gaussian(self):
        estimates = [mle_estimate(planted_gaussian(9, 4096, 128, s)) for s in range(3)]
        assert 7.0 <= np.mean(estimates) <= 12.0

    def test_k_equals_n_rejected(self):
        points = planted_gaussian(2, 20, 8, seed=1)
        with pytest.raises(ValidationError):
            mle_estimate(points, k_neighbors=20)

    def test_k_too_small(self):
        with pytest.raises(ValidationError):
            mle_estimate(planted_gaussian(2, 20, 8, seed=1), k_neighbors=1)


class TestInvariances:
    def _rigid_motion(self, points, seed):
        g = rng(seed)
        rot, _ = np.linalg.qr(g.normal(size=(points.shape[1],) * 2))
        return points @ rot + g.normal(size=points.shape[1]) * 5.0

    def test_rigid_motion(self):
        points = planted_uniform(3, 600, 24, seed=0)
        moved = self._rigid_motion(points, seed=1)
        assert pca_effective_dim(moved) == pca_effective_dim(points)
        for fn in (twonn_dim, mle_estimate):
            a, b = fn(points), fn(moved)
            assert abs(a - b) / a < 1e-3

    def test_scale_invariance(self):
        points = planted_uniform(2, 500, 16, seed=2)
        for alpha in (0.01, 7.0):
            assert abs(twonn_dim(alpha * points) - twonn_dim(points)) < 1e-6
            assert abs(mle_estimate(alpha * points) - mle_estimate(points)) < 1e-6


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
        assert manifold.COL_BLOCK % manifold.ROW_TILE == 0
        with small_blocks():
            rows, cols = manifold.ROW_TILE, manifold.COL_BLOCK
            assert TILE_BOUNDARY_SIZES == boundary_sizes(rows, cols)
            one, two, one_block, two_blocks, ragged, single_row_tail = TILE_BOUNDARY_SIZES
            assert one == rows and rows < two < 2 * rows
            assert one_block == cols and cols < two_blocks < 2 * cols
            assert ragged // cols == 2 and ragged % cols > 1 and ragged % rows > 1
            assert single_row_tail > 2 * cols and single_row_tail % cols > 1
            for n in (two_blocks, single_row_tail):
                assert n % rows == 1

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
        with small_blocks():
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
            with small_blocks():
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
        # A BLAS may sum a block's dot products in another order than the
        # same entries of the whole product (OpenBLAS does in the last n mod 8
        # columns). With M = max|x|^2, each dot product then moves by at most
        # d*eps*M, the squared distance by 2*d*eps*M plus 4*eps*M from its
        # final rounding, and sqrt and the squaring below add 12*eps*M.
        # Sorting is 1-Lipschitz, so the sorted tables agree to that bound.
        points = np.random.default_rng(seed).normal(size=(n, d)) * 3.0
        with small_blocks():
            tiled = manifold._sorted_nn_dists(points, 2)
        whole = whole_matrix_nn_dists(points, 2)
        tol = (2 * d + 16) * np.finfo(np.float64).eps * (points**2).sum(axis=1).max()
        assert np.abs(tiled**2 - whole**2).max() <= tol

    @staticmethod
    def _near_duplicates(n):
        """Normal points whose first n // 5 rows (at least one) lie within 1e-9
        of the last ones, each redrawn until rounding makes its squared
        distance negative."""
        g = np.random.default_rng(n)
        points = g.normal(size=(n, 5)) * 3.0
        q = max(n // 5, 1)
        twins = points[n - q :]
        todo = np.arange(q)
        while todo.size:
            a, b = twins[todo] + g.normal(size=(todo.size, 5)) * 1e-9, twins[todo]
            points[todo] = a
            todo = todo[(a**2).sum(axis=1) + (b**2).sum(axis=1) - 2.0 * (a * b).sum(axis=1) >= 0.0]
        return points

    @pytest.mark.parametrize("n", TILE_BOUNDARY_SIZES + PRODUCTION_SIZES)
    def test_equals_fresh_temporary_tiles_exactly(self, n):
        # The reference makes the same BLAS calls block for block, so the
        # tables are equal for every n. Near-duplicate rows round some squared
        # distances below 0, which the kernel clamps only after selection.
        points = self._near_duplicates(n)
        with blocks_for(n):
            # the k smallest sorted values are the first k columns of the whole sorted row
            full = fresh_temporary_nn_dists(points, n - 1)
            for k in sorted({2, min(10, n - 1), n - 1}):
                assert np.array_equal(manifold._sorted_nn_dists(points, k), full[:, :k])

    def test_two_production_column_blocks_equal_fresh_temporary_blocks(self):
        n = manifold.COL_BLOCK + 1  # a one-column second block, a single-row last tile
        points = self._near_duplicates(n)
        table = self._table_on(2, points, 3)
        assert np.array_equal(table, fresh_temporary_nn_dists(points, 3))
        assert np.array_equal(self._table_on(1, points, 3), table)

    @staticmethod
    def _table_on(cpus, points, k):
        with mock.patch.object(tensor, "_usable_cpus", return_value=cpus):
            return manifold._sorted_nn_dists(points, k)

    @pytest.mark.parametrize("n", TILE_BOUNDARY_SIZES + PRODUCTION_SIZES)
    def test_table_does_not_depend_on_the_worker_count(self, n):
        # normal coordinates, so the BLAS rounds: only equal blocks give equal bits
        points = np.random.default_rng(n).normal(size=(n, 5)) * 3.0
        with blocks_for(n):
            one = self._table_on(1, points, 3)
            assert np.array_equal(self._table_on(2, points, 3), one)

    @settings(max_examples=12, deadline=None)
    @given(dyadic_clouds())
    def test_dyadic_table_does_not_depend_on_the_worker_count(self, cloud):
        points, k = cloud
        with small_blocks():
            assert np.array_equal(self._table_on(2, points, k), self._table_on(1, points, k))

    def test_one_tile_starts_no_thread(self):
        points = np.random.default_rng(0).normal(size=(manifold.ROW_TILE, 4))
        no_pool = mock.Mock(side_effect=AssertionError("a one-tile search started a thread"))
        with mock.patch.object(tensor, "Thread", no_pool):
            self._table_on(8, points, 2)

    def test_never_more_than_two_workers(self):
        points = np.random.default_rng(0).normal(size=(2 * manifold.ROW_TILE + 1, 2))
        with mock.patch.object(tensor, "Thread", wraps=tensor.Thread) as thread:
            self._table_on(64, points, 2)  # three tiles
        assert thread.call_count == 2

    def test_worker_errors_propagate(self):
        points = np.random.default_rng(0).normal(size=(manifold.ROW_TILE + 1, 2))

        def fail_on_second_tile(points, sq, s, *args):
            if s > 0:
                raise FloatingPointError("tile failed")

        with mock.patch.object(manifold, "_nn_tile", fail_on_second_tile):
            with pytest.raises(FloatingPointError, match="tile failed"):
                self._table_on(2, points, 2)

    @staticmethod
    def _search_peak(n, d, k):
        points = np.random.default_rng(0).normal(size=(n, d))
        tracemalloc.start()
        try:
            manifold._sorted_nn_dists(points, k)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # Slack for the thread pool and numpy's small allocations.
    SLACK = 2**17

    def test_search_holds_two_tile_buffers(self):
        n, k = 8192, 10
        assert self._search_peak(n, 8, k) <= scratch_bound(n, 8, k) + self.SLACK

    @pytest.mark.parametrize("n", [4096, 12288])
    def test_scratch_does_not_grow_with_n(self, n):
        # two workers' (ROW_TILE, COL_BLOCK) blocks whatever n is; only the
        # candidate buffers and the table grow, by k floats a block or a row
        assert self._search_peak(n, 2, 2) <= scratch_bound(n, 2, 2) + self.SLACK

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

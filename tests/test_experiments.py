import threading
import time
from unittest import mock

import numpy as np
import pytest
import scipy.stats

from kvgeom import (
    Scenario,
    ScorerSpec,
    ValidationError,
    budget,
    compare_methods,
    config_hash,
    dilution_sweep,
    gen_collision_scenario,
    gen_radial_failure,
    gen_subspace_scenario,
    manifold_score,
    paired_ttest,
    retention_from_scores,
    retention_rate,
    run_retention,
    separation_test,
    window_ablation,
)

from kvgeom import compute_scores, experiments, regenerate, synth, tensor
from kvgeom.experiments import _count_needle_hits, _map_jobs

from conftest import retention, rng


def retain(seq_len, *index_lists):
    return retention(seq_len, [index_lists])


class TestRetentionRate:
    def test_superset_is_one(self):
        assert retention_rate(retain(10, [1, 2, 3, 4]), [2, 3]) == 1.0

    def test_disjoint_is_zero(self):
        assert retention_rate(retain(10, [5, 6]), [1, 2]) == 0.0

    def test_two_of_three(self):
        assert retention_rate(retain(10, [1, 2, 8]), [1, 2, 5]) == pytest.approx(2 / 3)

    def test_head_average(self):
        r = retain(10, [1, 2], [3, 4])
        assert retention_rate(r, [1, 2]) == pytest.approx(0.5)

    def test_needles_outside_the_sequence_are_misses(self):
        # -1 must not wrap to the last token, nor 10 raise
        r = retain(10, [0, 9], [9])
        assert _count_needle_hits(r, [-1, 10, 9, 9]) == (4, 8)
        assert retention_rate(r, [-1]) == 0.0

    def test_empty_needles_rejected(self):
        with pytest.raises(ValidationError):
            retention_rate(retain(10, [1]), [])


class TestRunRetention:
    def test_radial_manifold_vs_keydiff(self):
        scenario = gen_radial_failure(alpha=100.0, epsilon=0.1, n=64, d=8, seed=0)
        man = run_retention(scenario, ScorerSpec("manifold"), rho=0.5)
        kd = run_retention(scenario, ScorerSpec("keydiff"), rho=0.5)
        assert man.retention_rate == 1.0
        assert kd.retention_rate == 0.0
        assert man.total_needles == 1

    def test_rho_zero_keeps_everything(self):
        scenario = gen_radial_failure(alpha=100.0, epsilon=0.1, n=32, d=8, seed=1)
        for method in ("manifold", "keydiff", "knorm", "l1", "linf", "normalized"):
            assert run_retention(scenario, ScorerSpec(method), rho=0.0).retention_rate == 1.0

    def test_obs_attention_autoqueries(self):
        scenario = gen_radial_failure(alpha=100.0, epsilon=0.1, n=64, d=8, seed=2)
        result = run_retention(scenario, ScorerSpec("obs_attention", 8), rho=0.5)
        assert result.retention_rate == 1.0  # probing queries concentrate on the needle

    def test_scenario_without_needles_rejected(self):
        keys = gen_radial_failure(alpha=100.0, epsilon=0.1, n=16, d=4, seed=0).keys
        scenario = Scenario(kind="file", keys=keys, needles=(), params={"seed": 0})
        with pytest.raises(ValidationError) as err:
            run_retention(scenario, ScorerSpec("manifold"), rho=0.5)
        assert str(err.value) == "scenario has no needles to retain"

    def test_deterministic(self):
        scenario = gen_collision_scenario(magnitudes=(2.0, 5.0), epsilon=0.1, n=64, d=8, seed=3)
        a = run_retention(scenario, ScorerSpec("manifold"), rho=0.5)
        b = run_retention(scenario, ScorerSpec("manifold"), rho=0.5)
        assert a == b


class TestSeparationTest:
    def test_strict_subspace_always_succeeds(self):
        report = separation_test(
            k=4, d=32, sigma=1.0, epsilon=1.0, n_grid=[256, 512], n_out=4,
            seeds=range(3),
        )
        means = [r for r in report.rows if r["row"] == "mean"]
        assert all(r["success"] == 1.0 for r in means)

    def test_keydiff_fails_on_radial(self):
        report = separation_test(
            k=4, d=16, sigma=1.0, epsilon=0.1, n_grid=[64, 128], n_out=1,
            seeds=range(3), spec=ScorerSpec("keydiff"), kind="radial",
        )
        means = [r for r in report.rows if r["row"] == "mean"]
        assert all(r["success"] == 0.0 for r in means)

    def test_row_schema(self):
        report = separation_test(
            k=2, d=8, sigma=1.0, epsilon=1.0, n_grid=[32, 64], n_out=2, seeds=[0, 1],
        )
        runs = [r for r in report.rows if r["row"] == "run"]
        means = [r for r in report.rows if r["row"] == "mean"]
        assert len(runs) == 4 and len(means) == 2
        assert set(report.columns) >= {"row", "n", "seed", "retention", "success"}

    def test_kind_message(self):
        with pytest.raises(ValidationError) as err:
            separation_test(k=2, d=8, sigma=1.0, epsilon=1.0, n_grid=[32], n_out=2, seeds=[0],
                            kind="clusters")
        assert str(err.value) == "kind must be 'subspace' or 'radial', got 'clusters'"

    def test_n_not_above_n_out_rejected(self):
        with pytest.raises(ValidationError):
            separation_test(k=2, d=8, sigma=1.0, epsilon=1.0, n_grid=[4], n_out=4, seeds=[0])

    def test_jobs_do_not_change_rows(self):
        kwargs = dict(k=2, d=8, sigma=1.0, epsilon=1.0, n_grid=[32, 64], n_out=2,
                      seeds=[0, 1, 2])
        serial = separation_test(**kwargs, jobs=1)
        parallel = separation_test(**kwargs, jobs=4)
        assert serial.rows == parallel.rows

    def test_empty_seeds_rejected(self):
        # once numpy's "Mean of empty slice" warning and a NaN mean row
        with pytest.raises(ValidationError, match="at least one seed"):
            separation_test(k=2, d=8, sigma=1.0, epsilon=1.0, n_grid=[32], n_out=2, seeds=[])

    def test_alpha_is_in_the_provenance(self):
        # two alphas generate two radial scenarios, so the reports' metadata must differ
        kwargs = dict(k=2, d=16, sigma=1.0, epsilon=1.0, n_grid=[64, 128], n_out=2,
                      seeds=[0, 1], kind="radial")
        reports = [separation_test(**kwargs, alpha=alpha) for alpha in (50.0, 100.0)]
        assert [r.metadata["alpha"] for r in reports] == [50.0, 100.0]
        assert config_hash(reports[0].metadata) != config_hash(reports[1].metadata)


# sweep -> (its arguments, another value for each argument that reaches its scenarios)
SWEEP_CALLS = {
    "dilution": (dilution_sweep,
                 dict(k_grid=[1, 2], n=64, d=8, rho=0.25, seeds=[0, 1]),
                 dict(k_grid=[1, 4], n=128, d=16, spread=2.0, separation=5.0, seeds=[0, 2])),
    "ablation": (window_ablation,
                 dict(w_grid=[8, 64], n=64, d=8, k_clusters=2, rho=0.25, seeds=[0, 1]),
                 dict(n=128, d=16, k_clusters=4, spread=2.0, separation=5.0, seeds=[0, 2])),
    "separation-subspace": (separation_test,
                            dict(k=2, d=8, sigma=1.0, epsilon=1.0, n_grid=[32, 64], n_out=2,
                                 seeds=[0, 1]),
                            dict(k=3, d=16, sigma=2.0, epsilon=2.0, n_grid=[32, 48], n_out=3,
                                 seeds=[0, 2])),
    "separation-radial": (separation_test,
                          dict(k=2, d=8, sigma=1.0, epsilon=1.0, n_grid=[32, 64], n_out=1,
                               seeds=[0, 1], kind="radial", alpha=50.0),
                          dict(d=16, epsilon=0.5, n_grid=[32, 48], seeds=[0, 2], alpha=100.0)),
}


class TestSweepProvenance:
    @pytest.mark.parametrize("name", SWEEP_CALLS)
    def test_each_argument_reaching_the_scenarios_changes_the_hash(self, name):
        sweep, base, changes = SWEEP_CALLS[name]
        first = config_hash(sweep(**base).metadata)
        assert config_hash(sweep(**base).metadata) == first
        for arg, value in changes.items():
            assert config_hash(sweep(**{**base, arg: value}).metadata) != first, arg


# sweep -> the scorer spec of each retention column of a run row
RESCORED = {
    "dilution": lambda row: {"global_retention": ScorerSpec("manifold"),
                             "windowed_retention": ScorerSpec("windowed", row["window"]),
                             "keydiff_retention": ScorerSpec("keydiff")},
    "ablation": lambda row: {"windowed_retention": ScorerSpec("windowed", row["window"]),
                             "global_retention": ScorerSpec("manifold")},
    "separation": lambda row: {"retention": ScorerSpec("manifold")},
}


class TestSweepRebuildsItsRuns:
    """A report's metadata, given a run row's grid point and seed, regenerates the run."""

    @pytest.mark.parametrize("name", SWEEP_CALLS)
    def test_metadata_and_run_row_regenerate_and_rescore_the_run(self, monkeypatch, name):
        sweep, base, _ = SWEEP_CALLS[name]
        built = []  # every scenario the sweep generates, in job order (one worker)
        for fn in synth._GENERATORS.values():
            monkeypatch.setattr(synth, fn.__name__,
                                lambda fn=fn, **args: built.append(fn(**args)) or built[-1])
        report = sweep(**base)
        monkeypatch.undo()
        meta, column = report.metadata, report.group_by
        runs = [r for r in report.rows if r["row"] == "run"]
        assert len(built) == len(runs)
        for row, job in zip(runs, built):
            scenario = regenerate(meta["kind"], {**meta, column: row[column], "seed": row["seed"]})
            assert scenario.keys == job.keys and scenario.needles == job.needles
            m = budget(scenario.seq_len, meta["rho"]) if "rho" in meta else meta["n_out"]
            for col, spec in RESCORED[name.split("-")[0]](row).items():
                kept = retention_from_scores(compute_scores(spec, scenario.keys), m)
                assert retention_rate(kept, scenario.needles) == row[col], col


class TestMapJobs:
    """Sweep jobs on `jobs` workers of 8 usable CPUs, so each job count starts its threads."""

    @pytest.mark.parametrize("jobs", [1, 2, 3])
    def test_rows_in_input_order(self, jobs):
        def job(i, square):
            time.sleep(0.002 * (7 - i))  # later jobs finish sooner
            return i, square

        with mock.patch.object(tensor, "_usable_cpus", return_value=8):
            rows = _map_jobs(jobs, job, [(i, i * i) for i in range(7)])
        assert rows == [(i, i * i) for i in range(7)]

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_lowest_failing_job_raises(self, jobs):
        # job 2 fails first, job 1 on another worker after it: job 1's error wins
        failed_two = threading.Event()

        def job(i):
            if i == 2:
                failed_two.set()
                raise ValueError("job 2")
            if i == 1:
                failed_two.wait(timeout=10)
                raise KeyError("job 1")
            return i

        with mock.patch.object(tensor, "_usable_cpus", return_value=8):
            with pytest.raises(KeyError, match="job 1"):
                _map_jobs(jobs, job, [(i,) for i in range(4)])


class TestDilutionSweep:
    def test_schema_and_single_cluster_gap(self):
        report = dilution_sweep(k_grid=[1, 4], n=2048, d=64, rho=0.25, seeds=range(3))
        runs = [r for r in report.rows if r["row"] == "run"]
        means = [r for r in report.rows if r["row"] == "mean"]
        assert len(runs) == 6 and len(means) == 2
        k1 = next(r for r in means if r["k_clusters"] == 1)
        assert abs(k1["gap"]) < 0.05
        k4 = next(r for r in means if r["k_clusters"] == 4)
        assert k4["windowed_retention"] > k4["global_retention"]

    def test_window_defaults_to_block_extent(self):
        report = dilution_sweep(k_grid=[4], n=1024, d=32, rho=0.25, seeds=[0])
        assert all(r["window"] == 256 for r in report.rows)

    def test_bit_exact_reproducibility(self):
        a = dilution_sweep(k_grid=[2], n=512, d=32, rho=0.25, seeds=[0, 1])
        b = dilution_sweep(k_grid=[2], n=512, d=32, rho=0.25, seeds=[0, 1])
        assert a.rows == b.rows
        assert a.to_csv_text() == b.to_csv_text()

    def test_empty_seeds_rejected(self):
        # once an IndexError from the first grid point's mean row
        with pytest.raises(ValidationError, match="at least one seed"):
            dilution_sweep(k_grid=[2], n=512, d=32, rho=0.25, seeds=[])


class TestWindowAblation:
    def test_full_window_row_matches_global_exactly(self):
        report = window_ablation(w_grid=[256, 1024], n=1024, d=32, k_clusters=4,
                                 rho=0.25, seeds=[0, 1])
        for r in report.rows:
            if r["row"] == "run" and r["window"] >= 1024:
                assert r["windowed_retention"] == r["global_retention"]

    def test_window_one_matches_prefix_selection_oracle(self):
        # W=1 zeroes every score, so top-k degenerates to the index tie-break
        from kvgeom import gen_cluster_mixture

        n, rho = 512, 0.25
        report = window_ablation(w_grid=[1], n=n, d=32, k_clusters=4, rho=rho, seeds=[0, 1])
        m = budget(n, rho)
        for r in report.rows:
            if r["row"] != "run":
                continue
            scenario = gen_cluster_mixture(n=n, d=32, k_clusters=4, spread=1.0,
                                           separation=10.0, seed=r["seed"])
            prefix_hits = sum(1 for p in scenario.needles if p < m)
            assert r["windowed_retention"] == pytest.approx(
                prefix_hits / len(scenario.needles)
            )

    def test_best_window_near_cluster_extent(self):
        n, k = 2048, 8
        extent = n // k
        report = window_ablation(
            w_grid=[extent // 2, extent, 2 * extent, 4 * extent, n],
            n=n, d=64, k_clusters=k, rho=0.25, seeds=range(4),
        )
        assert extent // 2 <= report.metadata["best_window"] <= 2 * extent

    def test_w_grid_validation(self):
        with pytest.raises(ValidationError):
            window_ablation(w_grid=[0], n=64, d=8, k_clusters=2, rho=0.2, seeds=[0])

    def test_empty_seeds_rejected(self):
        # once numpy's "Mean of empty slice" warning and a NaN mean row
        with pytest.raises(ValidationError, match="at least one seed"):
            window_ablation(w_grid=[64], n=128, d=8, k_clusters=2, rho=0.2, seeds=[])

    @pytest.mark.parametrize("n, k_clusters, grid", [
        (256, 4, [32, 64, 128, 256]),  # the output matrix's ablation cases
        (8192, 16, [256, 512, 1024, 2048, 8192]),  # the CLI defaults, as the benchmark runs them
        (4096, 4, [512, 1024, 2048, 4096]),  # the benchmark's small sizes
        (6, 16, [1, 2, 4, 6]),  # fewer tokens than clusters: C = 1
    ])
    def test_default_grid_is_half_one_two_four_topic_lengths_and_n(self, monkeypatch, n,
                                                                      k_clusters, grid):
        # C = n // k_clusters; the grid is read where the sweep starts, before any scenario
        class Grid(Exception):
            pass

        def sweep(name, column, points, *args, **kwargs):
            raise Grid(points)

        monkeypatch.setattr(experiments, "_sweep", sweep)
        with pytest.raises(Grid) as got:
            window_ablation(n=n, d=8, k_clusters=k_clusters, rho=0.25)
        assert got.value.args[0] == grid

    @pytest.mark.parametrize("w_grid", [None, [64]])
    def test_zero_clusters_refused_before_any_division(self, w_grid):
        with pytest.raises(ValidationError, match="k_clusters must be >= 1, got 0"):
            window_ablation(w_grid, n=128, d=8, k_clusters=0, rho=0.2)


class TestSweepSizes:
    """A sweep names a wrong scalar size, never a grid or window derived from it; the
    scenario arguments are typed as a sidecar's."""

    @pytest.mark.parametrize("call, message", [
        pytest.param(lambda: window_ablation(None, n=64, d=8, k_clusters=2.5, rho=0.5, seeds=[0]),
                     "k_clusters must be an integer, got 2.5", id="ablation-default-grid-k"),
        pytest.param(lambda: window_ablation(None, n=64.5, d=8, k_clusters=2, rho=0.5, seeds=[0]),
                     "n must be an integer, got 64.5", id="ablation-default-grid-n"),
        pytest.param(lambda: window_ablation([16], n=64, d=8, k_clusters=2.5, rho=0.5, seeds=[0]),
                     "k_clusters must be an integer, got 2.5", id="ablation-k"),
        pytest.param(lambda: window_ablation([16], n=64, d=8.0, k_clusters=2, rho=0.5, seeds=[0]),
                     "scenario param 'd': expected an integer, got 8.0", id="ablation-d"),
        pytest.param(lambda: dilution_sweep([2], n=64.5, d=8, rho=0.5, seeds=[0]),
                     "scenario param 'n': expected an integer, got 64.5", id="dilution-n"),
        pytest.param(lambda: dilution_sweep([2], n=64, d=8.0, rho=0.5, seeds=[0]),
                     "scenario param 'd': expected an integer, got 8.0", id="dilution-d"),
        pytest.param(lambda: dilution_sweep([2], n=np.int64(64), d=8, rho=0.5, seeds=[0]),
                     "scenario param 'n': expected an integer, got np.int64(64)",
                     id="dilution-numpy-n"),
    ])
    def test_named(self, call, message):
        with pytest.raises(ValidationError) as err:
            call()
        assert str(err.value) == message

    def test_integer_spread_echoed_as_float(self):
        for report in (dilution_sweep([2], n=64, d=8, rho=0.5, spread=1, seeds=[0]),
                       window_ablation([16], n=64, d=8, k_clusters=2, rho=0.5, spread=1, seeds=[0])):
            assert type(report.metadata["spread"]) is float


# each sweep at a size that runs in milliseconds, given its grid and any other arguments
SWEEPS = {
    "n_grid": lambda grid=(32,), **kw: separation_test(
        k=2, d=8, sigma=1.0, epsilon=1.0, n_grid=list(grid), n_out=2, **kw),
    "k_grid": lambda grid=(2,), **kw: dilution_sweep(list(grid), n=64, d=8, rho=0.5, **kw),
    "w_grid": lambda grid=(16,), **kw: window_ablation(
        list(grid), n=64, d=8, k_clusters=2, rho=0.5, **kw),
}


class TestSweepIntegers:
    """Grid points, seeds and jobs are integers: int() would run 2.5 as 2 and True as 1."""

    @pytest.mark.parametrize("value", [2.5, True])
    @pytest.mark.parametrize("grid", list(SWEEPS))
    def test_grid_points(self, grid, value):
        with pytest.raises(ValidationError) as err:
            SWEEPS[grid](grid=[value], seeds=[0])
        assert str(err.value) == f"{grid} must be an integer, got {value!r}"

    @pytest.mark.parametrize("value", [2.5, True])
    @pytest.mark.parametrize("grid", list(SWEEPS))
    def test_seeds(self, grid, value):
        with pytest.raises(ValidationError) as err:
            SWEEPS[grid](seeds=[0, value])
        assert str(err.value) == f"seeds must be an integer, got {value!r}"

    @pytest.mark.parametrize("jobs, message", [
        (0, "jobs must be >= 1, got 0"),
        (-3, "jobs must be >= 1, got -3"),
        (1.5, "jobs must be an integer, got 1.5"),
        (True, "jobs must be an integer, got True"),
    ])
    @pytest.mark.parametrize("grid", list(SWEEPS))
    def test_jobs(self, grid, jobs, message):
        with pytest.raises(ValidationError) as err:
            SWEEPS[grid](seeds=[0], jobs=jobs)
        assert str(err.value) == message

    @pytest.mark.parametrize("grid", list(SWEEPS))
    def test_numpy_integers_run_as_ints(self, grid):
        plain = SWEEPS[grid](seeds=[0, 1], jobs=1)
        numpy = SWEEPS[grid](seeds=np.arange(2), jobs=np.int64(1))
        assert numpy.rows == plain.rows and numpy.metadata == plain.metadata


class TestPairedTTest:
    def test_identical_samples(self):
        result = paired_ttest([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert result.t_stat == 0.0
        assert result.p_value == 1.0
        assert result.degenerate

    def test_constant_offset_degenerate(self):
        result = paired_ttest([2.0, 3.0, 4.0], [1.0, 2.0, 3.0])
        assert result.p_value == 0.0
        assert result.degenerate
        assert result.t_stat == np.inf

    def test_textbook_case(self):
        # differences (1, 2, 3, 4): mean 2.5, sd sqrt(5/3), se = sd / 2
        a = [2.0, 4.0, 6.0, 8.0]
        b = [1.0, 2.0, 3.0, 4.0]
        result = paired_ttest(a, b)
        assert result.n == 4 and result.df == 3
        assert result.mean_diff == pytest.approx(2.5)
        sd = np.std([1.0, 2.0, 3.0, 4.0], ddof=1)
        assert result.std_err == pytest.approx(sd / 2.0, rel=1e-12)
        oracle = scipy.stats.ttest_rel(a, b)
        assert result.t_stat == pytest.approx(oracle.statistic, abs=1e-10)
        assert result.p_value == pytest.approx(oracle.pvalue, abs=1e-10)

    def test_matches_scipy_on_random_instances(self):
        for seed in range(100):
            g = rng(seed)
            n = int(g.integers(2, 40))
            a = g.normal(size=n)
            b = a + g.normal(scale=0.5, size=n)
            result = paired_ttest(a, b)
            oracle = scipy.stats.ttest_rel(a, b)
            assert abs(result.t_stat - oracle.statistic) <= 1e-10
            assert abs(result.p_value - oracle.pvalue) <= 1e-10
            assert result.t_stat == pytest.approx(result.mean_diff / result.std_err)

    def test_errors(self):
        with pytest.raises(ValidationError):
            paired_ttest([1.0], [2.0])
        with pytest.raises(ValidationError):
            paired_ttest([1.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValidationError):
            paired_ttest([1.0, np.nan], [1.0, 2.0])

    # one check with pearson and spearman: a, then b, then their lengths
    @pytest.mark.parametrize("a, b, message", [
        ([1.0], [1.0], "a needs at least 2 entries, got 1"),
        ([1.0, np.nan, 3.0, 4.25], [0.5, 2.0, 3.5, 3.0], "a contains NaN or Inf"),
        ([1.0, 2.0], [1.0, np.inf], "b contains NaN or Inf"),
        ([1.0], [1.0, 2.0, 3.0], "a needs at least 2 entries, got 1"),
        ([1.0, 2.0], [1.0, 2.0, 3.0], "length mismatch: 2 vs 3"),
    ])
    def test_messages(self, a, b, message):
        with pytest.raises(ValidationError) as err:
            paired_ttest(a, b)
        assert str(err.value) == message


class TestCompareMethods:
    def test_method_against_itself(self):
        scenario = gen_radial_failure(alpha=50.0, epsilon=0.1, n=64, d=8, seed=0)
        report = compare_methods(scenario, [ScorerSpec("manifold"), ScorerSpec("manifold")],
                                 rho=0.5)
        pair = next(r for r in report.rows if r["row"] == "pair")
        assert pair["pearson"] == pytest.approx(1.0, abs=1e-12)
        assert pair["overlap"] == 1.0

    def test_radial_disagreement_contains_needle(self):
        scenario = gen_radial_failure(alpha=100.0, epsilon=0.1, n=64, d=8, seed=1)
        specs = [ScorerSpec("manifold"), ScorerSpec("keydiff")]
        report = compare_methods(scenario, specs, rho=0.5)
        pair = next(r for r in report.rows if r["row"] == "pair")
        assert pair["overlap"] < 1.0
        m = budget(64, 0.5)
        sa = retention_from_scores(manifold_score(scenario.keys), m).indices[0][0]
        needle = scenario.needles[0]
        assert needle in sa.tolist()
        retentions = {r["method_a"]: r["retention"] for r in report.rows
                      if r["row"] == "retention"}
        assert retentions["manifold"] == 1.0
        assert retentions["keydiff"] == 0.0

    def test_manifold_vs_l1_isotropic_spearman(self):
        # centered-norm scorers agree strongly on isotropic clouds
        for seed in range(5):
            scenario = gen_subspace_scenario(n=256, d=32, k=31, sigma=1.0, n_out=0,
                                             epsilon=1.0, seed=seed, center_scale=0.0)
            report = compare_methods(scenario, [ScorerSpec("manifold"), ScorerSpec("l1")],
                                     rho=0.2)
            pair = next(r for r in report.rows if r["row"] == "pair")
            assert pair["spearman"] > 0.9

    def test_needs_two_specs(self):
        scenario = gen_radial_failure(alpha=10.0, epsilon=0.1, n=16, d=4, seed=0)
        with pytest.raises(ValidationError):
            compare_methods(scenario, [ScorerSpec("manifold")], rho=0.5)


class TestRetentionMonotonicity:
    def test_monotone_in_budget(self):
        scenario = gen_collision_scenario(magnitudes=(2.0, 5.0, 10.0), epsilon=0.1,
                                          n=128, d=8, seed=0)
        rates = [
            run_retention(scenario, ScorerSpec("manifold"), rho=rho).retention_rate
            for rho in (0.9, 0.7, 0.5, 0.3, 0.0)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(rates, rates[1:]))

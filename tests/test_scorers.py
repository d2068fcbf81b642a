import math
import tracemalloc
import types

import numpy as np
import pytest

from kvgeom import (
    METHODS,
    KeyTensor,
    ScorerSpec,
    ValidationError,
    centroid,
    compute_scores,
    keydiff_score,
    l2_from_anchor,
    manifold_score,
    obs_attention_score,
    windowed_manifold_score,
)

import kvgeom
from kvgeom import scorers
from kvgeom.scorers import METHOD_TABLE

from conftest import kt, random_tensor, rng

ALL_GLOBAL_SPECS = [
    ScorerSpec("manifold"),
    ScorerSpec("keydiff"),
    ScorerSpec("knorm"),
    ScorerSpec("l1"),
    ScorerSpec("linf"),
    ScorerSpec("hybrid", 0.5),
    ScorerSpec("normalized"),
    ScorerSpec("obs_attention", 4),
]


class TestScorerSpec:
    def test_labels(self):
        assert ScorerSpec("manifold").label() == "manifold"
        assert ScorerSpec("windowed", 4).label() == "windowed[4]"
        assert ScorerSpec("hybrid", 0.3).label() == "hybrid[0.3]"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"method": "nope"},
            {"method": "windowed"},  # missing its window
            {"method": "hybrid"},
            {"method": "obs_attention"},
            {"method": "manifold", "param": 3},
            {"method": "windowed", "param": 0},
            {"method": "hybrid", "param": 1.5},
            {"method": "keydiff", "param": 2},
        ],
    )
    def test_invalid_specs(self, kwargs):
        with pytest.raises(ValidationError):
            ScorerSpec(**kwargs)


# every method with the label it has always had
SPEC_STRINGS = [
    (ScorerSpec("manifold"), "manifold"),
    (ScorerSpec("windowed", 7), "windowed[7]"),
    (ScorerSpec("windowed", 10**6), "windowed[1000000]"),
    (ScorerSpec("windowed", np.int64(7)), "windowed[7]"),
    (ScorerSpec("keydiff"), "keydiff"),
    (ScorerSpec("knorm"), "knorm"),
    (ScorerSpec("l1"), "l1"),
    (ScorerSpec("linf"), "linf"),
    (ScorerSpec("hybrid", 0.3), "hybrid[0.3]"),
    (ScorerSpec("hybrid", 1e-7), "hybrid[1e-07]"),
    (ScorerSpec("hybrid", 1), "hybrid[1]"),
    (ScorerSpec("normalized"), "normalized"),
    (ScorerSpec("obs_attention", 16), "obs_attention[16]"),
]


class TestMethodTable:
    def test_covers_every_method(self):
        assert {spec.method for spec, _ in SPEC_STRINGS} == set(METHODS)
        assert METHODS == tuple(METHOD_TABLE)

    @pytest.mark.parametrize("spec, label", SPEC_STRINGS, ids=lambda v: str(v))
    def test_label(self, spec, label):
        assert spec.label() == label

    @pytest.mark.parametrize("kwargs, message", [
        ({"method": "windowed"}, "method 'windowed' requires window_size (--window)"),
        ({"method": "hybrid"}, "method 'hybrid' requires hybrid_lambda (--lambda)"),
        ({"method": "obs_attention"}, "method 'obs_attention' requires obs_window (--obs-window)"),
        ({"method": "manifold", "param": 3}, "method 'manifold' takes no parameter"),
        ({"method": "windowed", "param": 0}, "window_size must be >= 1, got 0"),
        ({"method": "hybrid", "param": -0.5}, "hybrid_lambda must be in [0, 1], got -0.5"),
        ({"method": "obs_attention", "param": 0}, "obs_window must be >= 1, got 0"),
        ({"method": "hybrid", "param": 2.0}, "hybrid_lambda must be in [0, 1], got 2.0"),
    ])
    def test_spec_messages(self, kwargs, message):
        with pytest.raises(ValidationError) as raised:
            ScorerSpec(**kwargs)
        assert str(raised.value) == message

    @pytest.mark.parametrize("call, message", [
        (lambda: windowed_manifold_score(random_tensor(0), 0), "window_size must be >= 1, got 0"),
        (lambda: obs_attention_score(random_tensor(0), random_tensor(1), 0),
         "obs_window must be >= 1, got 0"),
    ])
    def test_scorers_share_the_range_checks(self, call, message):
        with pytest.raises(ValidationError) as raised:
            call()
        assert str(raised.value) == message

    # a float window (or a text lambda) once failed later with a bare TypeError,
    # and a bool window scored as a window of 1
    @pytest.mark.parametrize("method, param, message", [
        ("windowed", 2.5, "window_size must be an integer, got 2.5"),
        ("windowed", True, "window_size must be an integer, got True"),
        ("obs_attention", 1.5, "obs_window must be an integer, got 1.5"),
        ("obs_attention", False, "obs_window must be an integer, got False"),
        ("hybrid", True, "hybrid_lambda must be a number, got True"),
        ("hybrid", "0.5", "hybrid_lambda must be a number, got '0.5'"),
        ("windowed", "16", "window_size must be an integer, got '16'"),
    ])
    def test_parameter_types(self, method, param, message):
        with pytest.raises(ValidationError) as raised:
            ScorerSpec(method, param)
        assert str(raised.value) == message

    @pytest.mark.parametrize("name, spec", [
        ("manifold_score", ScorerSpec("manifold")),
        ("windowed_manifold_score", ScorerSpec("windowed", 3)),
        ("keydiff_score", ScorerSpec("keydiff")),
        ("obs_attention_score", ScorerSpec("obs_attention", 2)),
    ])
    def test_compute_scores_calls_the_module_attribute(self, monkeypatch, name, spec):
        # bench/spans.py traces these scorers by replacing them on the module
        calls = []
        original = getattr(scorers, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(scorers, name, wrapper)
        compute_scores(spec, random_tensor(0), queries=random_tensor(1, seq=4))
        assert calls == [name]


class TestCentroid:
    def test_single_key(self):
        key = np.array([[3.0, -1.0, 2.0]])
        assert np.array_equal(centroid(key), key[0])

    def test_symmetric_pair(self):
        keys = np.array([[1.0, 0.0], [-1.0, 0.0]])
        assert np.array_equal(centroid(keys), [0.0, 0.0])

    def test_arithmetic_mean(self):
        keys = np.array([[0.0, 0.0], [2.0, 4.0], [4.0, 2.0]])
        assert np.array_equal(centroid(keys), [2.0, 2.0])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            centroid(np.zeros((0, 3)))


class TestL2FromAnchor:
    def test_radial_pair_scores_differ_tenfold(self):
        # keys at 10x and 0.1x of a unit anchor: distances 9 and 0.9
        mu = np.array([1.0, 0.0, 0.0])
        keys = np.stack([10.0 * mu, 0.1 * mu])
        scores = l2_from_anchor(keys, mu)
        assert scores == pytest.approx([9.0, 0.9], abs=1e-12)

    def test_zero_distance(self):
        mu = np.array([2.0, -3.0])
        assert l2_from_anchor(mu[None, :], mu)[0] == 0.0

    def test_unit_circle(self):
        angles = np.linspace(0, 2 * np.pi, 9, endpoint=False)
        keys = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        assert l2_from_anchor(keys, np.zeros(2)) == pytest.approx(np.ones(9))

    def test_dim_mismatch(self):
        with pytest.raises(ValidationError):
            l2_from_anchor(np.zeros((2, 3)), np.zeros(4))


class TestManifoldScore:
    def test_identical_keys_score_zero(self):
        t = kt(np.tile([1.0, 2.0, 3.0], (5, 1)))
        assert np.array_equal(manifold_score(t).data, np.zeros((1, 1, 5)))

    def test_translation_invariance(self):
        base = rng(0).normal(size=(12, 6))
        shift = rng(1).normal(size=6) * 100.0
        s0 = manifold_score(kt(base)).data
        s1 = manifold_score(kt(base + shift)).data
        assert s1 == pytest.approx(s0, rel=1e-5)

    def test_global_scaling(self):
        base = rng(2).normal(size=(12, 6))
        s0 = manifold_score(kt(base)).data
        s3 = manifold_score(kt(-3.0 * base)).data
        assert s3 == pytest.approx(3.0 * s0, rel=1e-5)

    def test_hand_case(self):
        # keys {e1, -e1, 2*e2, 0}: centroid (0, 0.5),
        # scores {sqrt(1.25), sqrt(1.25), 1.5, 0.5}
        t = kt([[1.0, 0.0], [-1.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
        expected = [math.sqrt(1.25), math.sqrt(1.25), 1.5, 0.5]
        assert manifold_score(t).data[0, 0] == pytest.approx(expected, abs=1e-12)

    def test_heads_are_independent(self):
        a = rng(3).normal(size=(9, 4))
        b = rng(4).normal(size=(9, 4))
        stacked = KeyTensor(np.stack([a, b])[None, :, :, :])
        for fn in (manifold_score, keydiff_score, lambda t: windowed_manifold_score(t, 4)):
            s = fn(stacked).data
            assert np.array_equal(s[0, 0], fn(kt(a)).data[0, 0])
            assert np.array_equal(s[0, 1], fn(kt(b)).data[0, 0])


class TestWindowedScore:
    def test_full_window_bit_exact(self):
        for seed in range(10):
            t = random_tensor(seed, batch=2, heads=2, seq=17, dim=5)
            global_scores = manifold_score(t).data
            for w in (17, 18, 100):
                assert np.array_equal(windowed_manifold_score(t, w).data, global_scores)

    def test_window_one_all_zero(self):
        t = random_tensor(5, seq=9)
        assert np.array_equal(windowed_manifold_score(t, 1).data, np.zeros((1, 1, 9)))

    def test_hand_case_two_windows(self):
        # d=1 keys {0, 2, 10, 14}, W=2: window centroids {1, 12}, scores {1,1,2,2}
        t = kt([[0.0], [2.0], [10.0], [14.0]])
        assert np.array_equal(windowed_manifold_score(t, 2).data[0, 0], [1.0, 1.0, 2.0, 2.0])

    def test_ragged_last_window(self):
        t = random_tensor(6, seq=10)
        s = windowed_manifold_score(t, 4).data[0, 0]
        last = t.data[0, 0, 8:10].astype(np.float64)
        oracle = np.linalg.norm(last - last.mean(axis=0), axis=1)
        assert s[8:10] == pytest.approx(oracle, abs=1e-12)

    def test_zero_window_rejected(self):
        with pytest.raises(ValidationError):
            windowed_manifold_score(random_tensor(0), 0)


class TestKeydiffScore:
    def test_identical_nonzero_keys(self):
        t = kt(np.tile([2.0, 1.0], (4, 1)))
        assert keydiff_score(t).data == pytest.approx(np.zeros((1, 1, 4)), abs=1e-12)

    def test_radial_outlier_blindness(self):
        # common tokens e1, one outlier 100*e1: all scores identical (zero)
        keys = np.tile([1.0, 0.0, 0.0], (8, 1))
        keys[3] = [100.0, 0.0, 0.0]
        scores = keydiff_score(kt(keys)).data[0, 0]
        assert scores[3] == pytest.approx(scores[0], abs=1e-12)
        assert scores == pytest.approx(np.zeros(8), abs=1e-12)

    def test_orthogonal_key_scores_one(self):
        # keys {e1, -e1, e2}: anchor = e2/3; e1 and -e1 are orthogonal to it
        scores = keydiff_score(kt([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])).data[0, 0]
        assert scores[0] == pytest.approx(1.0, abs=1e-12)
        assert scores[1] == pytest.approx(1.0, abs=1e-12)
        assert scores[2] == pytest.approx(0.0, abs=1e-12)

    def test_range(self):
        for seed in range(5):
            s = keydiff_score(random_tensor(seed, seq=32)).data
            assert (s >= 0).all() and (s <= 2.0 + 1e-12).all()

    def test_zero_key_guarded(self):
        keys = np.zeros((3, 4))
        keys[1] = [1.0, 0.0, 0.0, 0.0]
        s = keydiff_score(kt(keys)).data
        assert np.isfinite(s).all()

    def test_single_token_scale_invariance(self):
        base = rng(8).normal(size=(16, 6))
        before = keydiff_score(kt(base)).data
        for alpha in (0.1, 10.0, 100.0):
            for i in (0, 7, 15):
                scaled = base.copy()
                scaled[i] *= alpha
                after = keydiff_score(kt(scaled)).data
                assert np.abs(after - before).max() <= 1e-6

    def test_scaling_single_token_moves_manifold_score(self):
        base = rng(9).normal(size=(16, 6))
        before = manifold_score(kt(base)).data[0, 0]
        scaled = base.copy()
        scaled[5] *= 100.0
        after = manifold_score(kt(scaled)).data[0, 0]
        assert after[5] > before[5] + 1.0


KNORM, L1, LINF, NORMALIZED = (ScorerSpec(m) for m in ("knorm", "l1", "linf", "normalized"))


class TestSimpleScores:
    def test_knorm_cases(self):
        t = kt([[0.0, 0.0], [1.0, 0.0], [3.0, 4.0]])
        assert np.array_equal(compute_scores(KNORM, t).data[0, 0], [0.0, 1.0, 5.0])

    def test_lp_at_centroid(self):
        t = kt(np.tile([1.0, -2.0], (3, 1)))
        assert np.array_equal(compute_scores(L1, t).data, np.zeros((1, 1, 3)))
        assert np.array_equal(compute_scores(LINF, t).data, np.zeros((1, 1, 3)))

    def test_lp_hand_case(self):
        # deviations (+-3, -+4) from centroid (0, 0): L1 = 7, Linf = 4
        t = kt([[3.0, -4.0], [-3.0, 4.0]])
        assert np.array_equal(compute_scores(L1, t).data[0, 0], [7.0, 7.0])
        assert np.array_equal(compute_scores(LINF, t).data[0, 0], [4.0, 4.0])

    def test_norm_inequality_chain(self):
        for seed in range(20):
            t = random_tensor(seed, seq=24, dim=7)
            l1 = compute_scores(L1, t).data
            linf = compute_scores(LINF, t).data
            l2 = manifold_score(t).data
            assert (linf <= l2 + 1e-12).all()
            assert (l2 <= l1 + 1e-12).all()

    def test_normalized_parallel_keys(self):
        t = kt([[1.0, 0.0], [5.0, 0.0], [0.25, 0.0]])
        assert compute_scores(NORMALIZED, t).data == pytest.approx(
            np.zeros((1, 1, 3)), abs=1e-12
        )

    def test_normalized_hand_case(self):
        # unit keys e1, e2: mean (0.5, 0.5); both distances sqrt(0.5)
        t = kt([[1.0, 0.0], [0.0, 1.0]])
        assert compute_scores(NORMALIZED, t).data[0, 0] == pytest.approx(
            [math.sqrt(0.5)] * 2, abs=1e-12
        )

    def test_normalized_bounded_by_two(self):
        for seed in range(5):
            s = compute_scores(NORMALIZED, random_tensor(seed, seq=40)).data
            assert (s <= 2.0 + 1e-12).all()


class TestHybridScore:
    def test_lambda_one_matches_manifold_ranking(self):
        t = random_tensor(11, seq=20)
        h = compute_scores(ScorerSpec("hybrid", 1.0), t).data[0, 0]
        m = manifold_score(t).data[0, 0]
        assert np.array_equal(np.argsort(-h, kind="stable"), np.argsort(-m, kind="stable"))

    def test_lambda_zero_matches_keydiff_ranking(self):
        t = random_tensor(12, seq=20)
        h = compute_scores(ScorerSpec("hybrid", 0.0), t).data[0, 0]
        k = keydiff_score(t).data[0, 0]
        assert np.array_equal(np.argsort(-h, kind="stable"), np.argsort(-k, kind="stable"))

    def test_half_weight_hand_case(self):
        keys = [[1.0, 0.0], [0.0, 2.0], [3.0, 3.0]]
        t = kt(keys)

        def minmax(v):
            lo, hi = min(v), max(v)
            return [0.0] * len(v) if hi == lo else [(x - lo) / (hi - lo) for x in v]

        man = list(manifold_score(t).data[0, 0])
        kd = list(keydiff_score(t).data[0, 0])
        oracle = [0.5 * a + 0.5 * b for a, b in zip(minmax(man), minmax(kd))]
        h = compute_scores(ScorerSpec("hybrid", 0.5), t).data[0, 0]
        assert h == pytest.approx(oracle, abs=1e-12)

    def test_constant_scores_map_to_zero(self):
        t = kt(np.tile([1.0, 1.0], (4, 1)))
        h = compute_scores(ScorerSpec("hybrid", 0.7), t).data
        assert np.array_equal(h, np.zeros((1, 1, 4)))

    def test_lambda_domain(self):
        with pytest.raises(ValidationError):
            compute_scores(ScorerSpec("hybrid", 1.5), random_tensor(0))


class TestObsAttentionScore:
    def test_single_key_gets_all_mass(self):
        keys = kt([[1.0, 2.0]])
        queries = random_tensor(0, seq=6, dim=2)
        s = obs_attention_score(keys, queries, 4)
        assert s.data[0, 0] == pytest.approx([4.0], abs=1e-9)

    def test_total_mass_equals_window(self):
        keys = random_tensor(1, seq=12, dim=4)
        queries = random_tensor(2, seq=9, dim=4)
        for w in (1, 5, 9):
            s = obs_attention_score(keys, queries, w)
            assert s.data.sum() == pytest.approx(w, abs=1e-9)

    def test_hand_softmax(self):
        # d=1, one query q=1, keys (0, ln4): logits (0, ln4) -> weights (0.2, 0.8)
        keys = kt([[0.0], [math.log(4.0)]])
        queries = kt([[1.0]])
        s = obs_attention_score(keys, queries, 1)
        assert s.data[0, 0] == pytest.approx([0.2, 0.8], abs=1e-9)

    def test_window_validation(self):
        keys = random_tensor(1, seq=4, dim=3)
        queries = random_tensor(2, seq=4, dim=3)
        with pytest.raises(ValidationError):
            obs_attention_score(keys, queries, 0)
        with pytest.raises(ValidationError):
            obs_attention_score(keys, queries, 5)

    def test_shape_mismatch(self):
        keys = random_tensor(1, seq=4, dim=3)
        queries = random_tensor(2, seq=4, dim=5)
        with pytest.raises(ValidationError):
            obs_attention_score(keys, queries, 2)


class TestCrossCuttingInvariants:
    def test_decomposition_identity(self):
        # squared centroid distance == r^2 + |mu|^2 - 2 r |mu| cos(k, mu)
        for seed in range(10):
            t = random_tensor(seed, seq=25, dim=6)
            keys = t.matrix(0, 0)
            mu = centroid(keys)
            lhs = l2_from_anchor(keys, mu) ** 2
            r = np.linalg.norm(keys, axis=1)
            mu_norm = np.linalg.norm(mu)
            cos = keys @ mu / np.maximum(r * mu_norm, 1e-300)
            rhs = r**2 + mu_norm**2 - 2.0 * r * mu_norm * cos
            rel = np.abs(lhs - rhs) / np.maximum.reduce([lhs, rhs, np.full_like(lhs, 1e-30)])
            assert rel.max() < 1e-5

    @pytest.mark.parametrize("spec", ALL_GLOBAL_SPECS, ids=lambda s: s.label())
    def test_permutation_equivariance(self, spec):
        t = random_tensor(21, seq=18, dim=5)
        queries = random_tensor(22, seq=6, dim=5)
        perm = rng(23).permutation(18)
        permuted = KeyTensor(t.data[:, :, perm, :])
        s_base = compute_scores(spec, t, queries=queries).data[0, 0]
        s_perm = compute_scores(spec, permuted, queries=queries).data[0, 0]
        assert s_perm == pytest.approx(s_base[perm], rel=1e-9, abs=1e-12)

    def test_windowed_breaks_permutation_equivariance(self):
        t = random_tensor(24, seq=16, dim=4)
        perm = rng(25).permutation(16)
        s_base = windowed_manifold_score(t, 4).data[0, 0]
        s_perm = windowed_manifold_score(KeyTensor(t.data[:, :, perm, :]), 4).data[0, 0]
        assert not np.allclose(s_perm, s_base[perm])

    @pytest.mark.parametrize("spec", ALL_GLOBAL_SPECS + [ScorerSpec("windowed", 3)],
                             ids=lambda s: s.label())
    def test_no_nan_on_degenerate_inputs(self, spec):
        dup = np.tile([1.0, 2.0, 3.0], (6, 1))
        zeros = np.zeros((6, 3))
        mixed = dup.copy()
        mixed[2] = 0.0
        queries = random_tensor(26, seq=4, dim=3)
        for keys in (dup, zeros, mixed):
            s = compute_scores(spec, kt(keys), queries=queries)
            assert np.isfinite(s.data).all()

    def test_compute_scores_requires_queries_for_obs(self):
        with pytest.raises(ValidationError, match="quer"):
            compute_scores(ScorerSpec("obs_attention", 2), random_tensor(0))


class TestRowBlockMemory:
    """A geometric scorer converts ROW_CHUNK rows at a time: on a (16384, 128)
    slab it peaks far below one float64 copy of the slab (16 MiB)."""

    @pytest.fixture(scope="class")
    def slab(self):
        return KeyTensor(rng(40).normal(size=(1, 1, 16384, 128)).astype(np.float32))

    @pytest.mark.parametrize(
        "spec",
        [s for s in ALL_GLOBAL_SPECS if s.method != "obs_attention"]
        + [ScorerSpec("windowed", 1000)],
        ids=lambda s: s.label(),
    )
    def test_peak_is_at_most_one_mib(self, slab, spec):
        tracemalloc.start()
        try:
            compute_scores(spec, slab)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**20


class TestInputsUntouched:
    """Scorers work on their own float64 copies and never write into their input."""

    @pytest.mark.parametrize(
        "spec",
        ALL_GLOBAL_SPECS + [ScorerSpec("windowed", 3),
                            ScorerSpec("windowed", 64)],
        ids=lambda s: s.label(),
    )
    def test_scorers_leave_caller_array_and_tensor_data_unchanged(self, spec):
        caller = rng(30).normal(size=(2, 3, 20, 5)).astype(np.float32)
        caller[0, 1, 4] = 0.0  # a zero key takes the NORM_EPS guard
        snapshot = caller.copy()
        t = KeyTensor(caller)
        queries = KeyTensor(rng(31).normal(size=(2, 3, 6, 5)))
        q_snapshot = queries.data.copy()
        compute_scores(spec, t, queries=queries)
        assert np.array_equal(caller, snapshot) and caller.flags.writeable
        assert np.array_equal(t.data, snapshot) and not t.data.flags.writeable
        assert np.array_equal(queries.data, q_snapshot)


# the package's public names: removing or adding one is a change to this list
PUBLIC_NAMES = [
    "AttentionOutput", "CompressedCache", "DEFAULT_SEEDS", "DimensionReport", "EstimationError",
    "KeyTensor", "METHODS", "Report", "RetentionResult", "RetentionSet", "SCENARIO_KINDS",
    "Scenario", "ScoreTensor", "ScorerSpec", "TTestResult", "ValidationError",
    "allocate_head_budgets", "attention", "attention_weights", "budget", "centroid",
    "compare_methods", "compress_cache", "compute_scores", "config_hash", "dilution_sweep",
    "estimate_dimensions", "gen_cluster_mixture", "gen_collision_scenario", "gen_queries",
    "gen_radial_failure", "gen_subspace_scenario", "keydiff_score", "l2_from_anchor", "load_kvt",
    "load_sidecar", "manifold_score", "obs_attention_score", "paired_ttest", "pca_effective_dim",
    "pearson", "regenerate", "retention_from_scores", "retention_rate", "run_retention",
    "save_kvt", "save_sidecar", "selection_overlap", "separation_test", "spearman",
    "topk_select", "twonn_dim", "window_ablation", "windowed_manifold_score",
]


def test_kvgeom_public_names():
    names = sorted(n for n, v in vars(kvgeom).items()
                   if not n.startswith("_") and not isinstance(v, types.ModuleType))
    assert names == PUBLIC_NAMES

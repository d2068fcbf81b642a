import inspect
import json
import math
import os
import tracemalloc

import numpy as np
import pytest

from kvgeom import (
    SCENARIO_KINDS,
    KeyTensor,
    Scenario,
    ValidationError,
    attention,
    centroid,
    gen_cluster_mixture,
    gen_collision_scenario,
    gen_queries,
    gen_radial_failure,
    gen_subspace_scenario,
    keydiff_score,
    l2_from_anchor,
    load_sidecar,
    manifold_score,
    regenerate,
    save_sidecar,
    synth,
)
from kvgeom.scorers import ROW_CHUNK


def make_each_kind(seed=0):
    return [
        gen_subspace_scenario(n=64, d=16, k=3, sigma=1.0, n_out=4, epsilon=8.0, seed=seed),
        gen_radial_failure(alpha=100.0, epsilon=0.1, n=64, d=8, seed=seed),
        gen_cluster_mixture(n=128, d=16, k_clusters=4, spread=1.0, separation=10.0, seed=seed),
        gen_collision_scenario(magnitudes=(2.0, 5.0, 10.0), epsilon=0.1, n=64, d=8, seed=seed),
    ]


class TestDeterminismAndGroundTruth:
    def test_same_seed_bit_identical(self):
        for a, b in zip(make_each_kind(3), make_each_kind(3)):
            assert a.keys == b.keys
            assert a.needles == b.needles

    def test_different_seed_differs(self):
        for a, b in zip(make_each_kind(1), make_each_kind(2)):
            assert a.keys != b.keys

    def test_needles_interior_and_in_range(self):
        for scenario in make_each_kind(5):
            n = scenario.seq_len
            for pos in scenario.needles:
                assert 0 < pos < n - 1


class TestSubspaceScenario:
    def test_no_outliers_stay_in_plane(self):
        scenario = gen_subspace_scenario(n=64, d=32, k=4, sigma=1.0, n_out=0,
                                         epsilon=5.0, seed=0)
        assert scenario.needles == ()
        basis = np.asarray(scenario.params["basis"])
        keys = scenario.keys.matrix(0, 0)
        residual = keys - keys @ basis @ basis.T
        assert np.linalg.norm(residual, axis=1).max() < 1e-6

    def test_strict_separation_scores(self):
        # every needle must outscore every common token under centroid-L2
        for seed in range(3):
            scenario = gen_subspace_scenario(n=512, d=64, k=5, sigma=1.0, n_out=8,
                                             epsilon=1.0, seed=seed,
                                             strict_separation=True)
            scores = manifold_score(scenario.keys).data[0, 0]
            needles = list(scenario.needles)
            common = np.delete(scores, needles)
            assert scores[needles].min() > common.max()

    def test_strict_separation_diameter_contract(self):
        scenario = gen_subspace_scenario(n=256, d=32, k=4, sigma=1.0, n_out=4,
                                         epsilon=1.0, seed=1, strict_separation=True)
        keys = scenario.keys.matrix(0, 0)
        common = np.delete(keys, list(scenario.needles), axis=0)
        diam = 0.0
        for i in range(0, len(common), 16):
            diam = max(diam, np.linalg.norm(common[i] - common, axis=1).max())
        assert scenario.params["epsilon"] > 3.0 * diam

    def test_outliers_offset_orthogonally(self):
        scenario = gen_subspace_scenario(n=64, d=16, k=3, sigma=0.5, n_out=4,
                                         epsilon=6.0, seed=2)
        basis = np.asarray(scenario.params["basis"])
        keys = scenario.keys.matrix(0, 0)
        for pos in scenario.needles:
            residual = keys[pos] - basis @ (basis.T @ keys[pos])
            assert np.linalg.norm(residual) == pytest.approx(6.0, rel=1e-3)

    def test_param_errors(self):
        with pytest.raises(ValidationError):
            gen_subspace_scenario(n=16, d=4, k=4, sigma=1.0, n_out=2, epsilon=1.0, seed=0)
        with pytest.raises(ValidationError):
            gen_subspace_scenario(n=16, d=8, k=2, sigma=1.0, n_out=16, epsilon=1.0, seed=0)


class TestRadialFailure:
    def test_construction_geometry(self):
        scenario = gen_radial_failure(alpha=100.0, epsilon=0.1, n=64, d=8, seed=0)
        keys = scenario.keys.matrix(0, 0)
        pos = scenario.needles[0]
        axis = np.zeros(8)
        axis[0] = 1.0
        # needle is exactly alpha * e1; its distance from the construction
        # anchor e1 is alpha - 1 = 99, and every common token sits at
        # distance epsilon from the anchor
        anchored = l2_from_anchor(keys, axis)
        assert anchored[pos] == pytest.approx(99.0, abs=2 * 0.1)
        common = np.delete(anchored, pos)
        assert common.max() <= 2 * 0.1

    def test_radial_blindness_is_deterministic(self):
        for seed in range(5):
            scenario = gen_radial_failure(alpha=100.0, epsilon=0.1, n=64, d=8, seed=seed)
            pos = scenario.needles[0]
            kd = keydiff_score(scenario.keys).data[0, 0]
            man = manifold_score(scenario.keys).data[0, 0]
            assert kd[pos] <= np.delete(kd, pos).min()
            assert kd[pos] <= 1e-6
            assert man[pos] > np.delete(man, pos).max()

    def test_small_hand_case(self):
        # alpha=2, d=2, n=3: commons e1 +- eps*e2 (balanced pair), needle 2*e1
        eps = 0.1
        scenario = gen_radial_failure(alpha=2.0, epsilon=eps, n=3, d=2, seed=7)
        keys = scenario.keys.matrix(0, 0)
        pos = scenario.needles[0]
        mu = centroid(keys)
        assert mu == pytest.approx([4.0 / 3.0, 0.0], abs=1e-6)
        scores = manifold_score(scenario.keys).data[0, 0]
        common_expected = math.sqrt((1.0 / 3.0) ** 2 + eps**2)
        for i in range(3):
            expected = 2.0 / 3.0 if i == pos else common_expected
            assert scores[i] == pytest.approx(expected, rel=1e-5)

    def test_param_errors(self):
        with pytest.raises(ValidationError):
            gen_radial_failure(alpha=1.0, epsilon=0.1, n=16, d=4, seed=0)
        with pytest.raises(ValidationError):
            gen_radial_failure(alpha=2.0, epsilon=0.1, n=2, d=4, seed=0)


def _out_of_place_cluster_keys(n, d, k_clusters, spread, separation, seed, shuffle):
    # the construction the in-place draws replaced: means[i] + rng.normal(...) per block
    rng = np.random.Generator(np.random.Philox(seed))
    dirs, _ = np.linalg.qr(rng.normal(size=(d, k_clusters)))
    dirs = dirs.T
    means = separation * dirs
    keys = np.empty((n, d))
    needles = []
    lo = 0
    for i in range(k_clusters):
        hi = lo + n // k_clusters + (1 if i < n % k_clusters else 0)
        keys[lo:hi] = means[i] + rng.normal(0.0, spread / np.sqrt(d), size=(hi - lo, d))
        radius = rng.uniform(3.0, 4.0) * spread
        pos = int(rng.integers(max(lo, 1), min(hi, n - 1)))
        keys[pos] = means[i] - radius * dirs[i]
        needles.append(pos)
        lo = hi
    if shuffle:
        perm = rng.permutation(n)
        keys = keys[perm]
        inverse = np.empty(n, dtype=np.int64)
        inverse[perm] = np.arange(n)
        needles = [int(inverse[p]) for p in needles]
    return keys, needles


class TestClusterMixture:
    def test_single_cluster_blob(self):
        scenario = gen_cluster_mixture(n=64, d=16, k_clusters=1, spread=1.0,
                                       separation=10.0, seed=0)
        assert len(scenario.needles) == 1
        scores = manifold_score(scenario.keys).data[0, 0]
        assert int(np.argmax(scores)) == scenario.needles[0]

    def test_contiguous_block_layout(self):
        n, k = 128, 4
        scenario = gen_cluster_mixture(n=n, d=16, k_clusters=k, spread=1.0,
                                       separation=10.0, seed=1)
        means = np.asarray(scenario.params["cluster_means"])
        keys = scenario.keys.matrix(0, 0)
        block = n // k
        for i in range(k):
            rows = keys[i * block : (i + 1) * block]
            dists = np.linalg.norm(rows[:, None, :] - means[None, :, :], axis=2)
            assert (np.argmin(dists, axis=1) == i).all()

    def test_grand_mean_far_from_every_cluster(self):
        for seed in range(5):
            scenario = gen_cluster_mixture(n=256, d=32, k_clusters=4, spread=1.0,
                                           separation=10.0, seed=seed)
            mu = centroid(scenario.keys.matrix(0, 0))
            means = np.asarray(scenario.params["cluster_means"])
            assert np.linalg.norm(means - mu, axis=1).min() >= 0.5 * 10.0

    def test_dilution_witness(self):
        # at K >= 4 at least one local needle falls below the global median
        hits = 0
        for seed in range(5):
            scenario = gen_cluster_mixture(n=512, d=64, k_clusters=4, spread=1.0,
                                           separation=10.0, seed=seed)
            scores = manifold_score(scenario.keys).data[0, 0]
            median = np.median(scores)
            if min(scores[list(scenario.needles)]) < median:
                hits += 1
        assert hits >= 4

    def test_needles_are_local_outliers(self):
        scenario = gen_cluster_mixture(n=256, d=32, k_clusters=4, spread=1.0,
                                       separation=10.0, seed=3)
        keys = scenario.keys.matrix(0, 0)
        means = np.asarray(scenario.params["cluster_means"])
        for (lo, hi), pos in zip(scenario.params["block_bounds"], sorted(scenario.needles)):
            cluster_id = int(np.argmin(np.linalg.norm(means - keys[pos], axis=1)))
            dist = np.linalg.norm(keys[pos] - means[cluster_id])
            assert 3.0 - 1e-6 <= dist / 1.0 <= 4.0 + 1e-6

    def test_shuffle_tracks_needles(self):
        plain = gen_cluster_mixture(n=128, d=16, k_clusters=4, spread=1.0,
                                    separation=10.0, seed=4)
        mixed = gen_cluster_mixture(n=128, d=16, k_clusters=4, spread=1.0,
                                    separation=10.0, seed=4, shuffle=True)
        plain_needle_keys = plain.keys.data[0, 0, list(plain.needles)]
        mixed_needle_keys = mixed.keys.data[0, 0, list(mixed.needles)]
        assert {tuple(r) for r in plain_needle_keys.tolist()} == {
            tuple(r) for r in mixed_needle_keys.tolist()
        }

    @pytest.mark.parametrize("n, d, k_clusters, shuffle", [
        (128, 16, 4, False), (1001, 33, 7, False), (4096, 128, 16, False), (300, 9, 3, True),
    ])
    @pytest.mark.parametrize("seed", [0, 1, 17, 123456])
    def test_keys_equal_out_of_place_construction(self, n, d, k_clusters, shuffle, seed):
        scenario = gen_cluster_mixture(n=n, d=d, k_clusters=k_clusters, spread=1.5,
                                       separation=10.0, seed=seed, shuffle=shuffle)
        keys, needles = _out_of_place_cluster_keys(n, d, k_clusters, 1.5, 10.0, seed, shuffle)
        assert np.array_equal(scenario.keys.data[0, 0], keys.astype(np.float32))
        assert list(scenario.needles) == sorted(needles)

    @pytest.mark.parametrize("row_chunk", [3, ROW_CHUNK])
    @pytest.mark.parametrize("n, d, k_clusters, shuffle", [
        # one cluster over several row blocks, the last one ragged
        (2 * ROW_CHUNK + 77, 16, 1, False), (2 * ROW_CHUNK + 77, 16, 1, True), (101, 5, 4, True),
    ])
    def test_row_blocks_equal_out_of_place_construction(self, monkeypatch, row_chunk,
                                                        n, d, k_clusters, shuffle):
        monkeypatch.setattr(synth, "ROW_CHUNK", row_chunk)
        for seed in (0, 17):
            scenario = gen_cluster_mixture(n=n, d=d, k_clusters=k_clusters, spread=1.5,
                                           separation=10.0, seed=seed, shuffle=shuffle)
            keys, needles = _out_of_place_cluster_keys(n, d, k_clusters, 1.5, 10.0, seed, shuffle)
            assert np.array_equal(scenario.keys.data[0, 0], keys.astype(np.float32))
            assert list(scenario.needles) == sorted(needles)

    @pytest.mark.parametrize("shuffle", [False, True])
    def test_overflowing_separation_refused_like_the_cast_matrix(self, shuffle):
        keys, _ = _out_of_place_cluster_keys(600, 8, 2, 1.0, 1e39, 0, shuffle)
        with np.errstate(over="ignore"), pytest.raises(ValidationError) as cast:
            KeyTensor(keys.astype(np.float32)[None, None])
        with pytest.raises(ValidationError) as generated:
            gen_cluster_mixture(n=600, d=8, k_clusters=2, spread=1.0, separation=1e39,
                                seed=0, shuffle=shuffle)
        assert str(generated.value) == str(cast.value)

    def test_peak_memory_is_the_float32_keys(self):
        # the float64 (16384, 128) matrix alone would be 16 MiB
        tracemalloc.start()
        try:
            scenario = gen_cluster_mixture(n=16384, d=128, k_clusters=1, spread=1.0,
                                           separation=10.0, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= scenario.keys.data.nbytes + 2 * 2**20

    def test_param_errors(self):
        with pytest.raises(ValidationError):
            gen_cluster_mixture(n=8, d=16, k_clusters=4, spread=1.0, separation=10.0, seed=0)
        with pytest.raises(ValidationError):
            gen_cluster_mixture(n=64, d=4, k_clusters=8, spread=1.0, separation=10.0, seed=0)


class TestCollisionScenario:
    def test_cosine_collision(self):
        for seed in range(5):
            scenario = gen_collision_scenario(magnitudes=(2.0, 5.0, 10.0), epsilon=0.1,
                                              n=256, d=8, seed=seed)
            kd = keydiff_score(scenario.keys).data[0, 0]
            needles = list(scenario.needles)
            common = np.delete(kd, needles)
            assert kd[needles].max() <= common.min() + 1e-6

    def test_manifold_orders_by_magnitude(self):
        scenario = gen_collision_scenario(magnitudes=(2.0, 5.0, 10.0), epsilon=0.1,
                                          n=256, d=8, seed=0)
        man = manifold_score(scenario.keys).data[0, 0]
        by_mag = dict(zip(scenario.params["magnitudes"], scenario.params["needle_positions"]))
        assert man[by_mag[10.0]] > man[by_mag[5.0]] > man[by_mag[2.0]]

    def test_single_magnitude_matches_radial_semantics(self):
        scenario = gen_collision_scenario(magnitudes=(100.0,), epsilon=0.1,
                                          n=64, d=8, seed=1)
        pos = scenario.needles[0]
        kd = keydiff_score(scenario.keys).data[0, 0]
        man = manifold_score(scenario.keys).data[0, 0]
        assert kd[pos] <= 1e-6
        assert man[pos] > np.delete(man, pos).max()

    def test_param_errors(self):
        with pytest.raises(ValidationError):
            gen_collision_scenario(magnitudes=(), epsilon=0.1, n=16, d=4, seed=0)
        with pytest.raises(ValidationError):
            gen_collision_scenario(magnitudes=(0.5,), epsilon=0.1, n=16, d=4, seed=0)
        with pytest.raises(ValidationError):
            gen_collision_scenario(magnitudes=(2.0, 3.0), epsilon=0.1, n=4, d=4, seed=0)


class TestQueries:
    def test_needle_probing_argmax(self):
        scenario = gen_radial_failure(alpha=100.0, epsilon=0.1, n=64, d=8, seed=0)
        queries = gen_queries(scenario, 4, "needle_probing", seed=1)
        out = attention(queries, scenario.keys, scenario.keys)
        top = out.weights[0, 0].argmax(axis=1)
        assert (top == scenario.needles[0]).all()

    def test_needle_probing_on_strict_subspace(self):
        scenario = gen_subspace_scenario(n=128, d=32, k=4, sigma=0.01, n_out=4,
                                         epsilon=1.0, seed=0, strict_separation=True,
                                         center_scale=0.0)
        queries = gen_queries(scenario, 8, "needle_probing", seed=2)
        out = attention(queries, scenario.keys, scenario.keys)
        top = out.weights[0, 0].argmax(axis=1)
        needles = np.resize(np.array(scenario.needles), 8)
        assert (top == needles).all()

    def test_deterministic(self):
        scenario = gen_radial_failure(alpha=10.0, epsilon=0.1, n=32, d=8, seed=0)
        a = gen_queries(scenario, 6, "random", seed=5)
        b = gen_queries(scenario, 6, "random", seed=5)
        assert a == b

    @pytest.mark.parametrize("mode", ["random", "needle_probing"])
    def test_one_draw_for_every_head(self, mode):
        scenario = gen_radial_failure(alpha=10.0, epsilon=0.1, n=32, d=8, seed=0)
        wide = Scenario(kind="file", keys=KeyTensor(np.broadcast_to(
            scenario.keys.data, (2, 3, 32, 8))), needles=scenario.needles, params={})
        one = gen_queries(scenario, 6, mode, seed=5).data
        queries = gen_queries(wide, 6, mode, seed=5)
        assert queries.shape == (2, 3, 6, 8)
        for b, h in np.ndindex(2, 3):
            assert np.array_equal(queries.data[b, h], one[0, 0])

    def test_errors(self):
        scenario = gen_radial_failure(alpha=10.0, epsilon=0.1, n=32, d=8, seed=0)
        with pytest.raises(ValidationError):
            gen_queries(scenario, 0, "random", seed=0)
        with pytest.raises(ValidationError):
            gen_queries(scenario, 4, "bogus", seed=0)


# kind -> (generator arguments, the values its params add to them)
GENERATOR_CALLS = {
    "subspace": (dict(n=64, d=16, k=3, sigma=1.0, n_out=4, epsilon=8.0, seed=5,
                      strict_separation=True, center_scale=4.0),
                 {"separation_scale", "basis"}),
    "radial": (dict(alpha=100.0, epsilon=0.1, n=64, d=8, seed=5), set()),
    "clusters": (dict(n=128, d=16, k_clusters=4, spread=1.0, separation=10.0, seed=5),
                 {"block_bounds", "cluster_means"}),
    "collision": (dict(magnitudes=(2, 5.0, 10), epsilon=0.1, n=64, d=8, seed=5),
                  {"direction", "needle_positions"}),
}


class TestSidecar:
    def test_kinds_are_the_generator_table(self):
        assert SCENARIO_KINDS == tuple(synth._GENERATORS) == tuple(GENERATOR_CALLS)

    @pytest.mark.parametrize("kind", SCENARIO_KINDS)
    def test_params_are_the_arguments_and_the_derived_values(self, kind):
        fn = synth._GENERATORS[kind]
        args, derived = GENERATOR_CALLS[kind]
        scenario = fn(**args)
        call = inspect.signature(fn).bind(**args)
        call.apply_defaults()  # a defaulted argument is echoed too
        expected = dict(call.arguments)
        if kind == "collision":  # magnitudes as the list of floats regenerate types
            expected["magnitudes"] = [2.0, 5.0, 10.0]
            assert all(type(m) is float for m in scenario.params["magnitudes"])
        assert scenario.params.keys() == expected.keys() | derived
        assert {a: scenario.params[a] for a in expected} == expected
        assert scenario.source == {"kind": kind, **expected}  # what reports print
        again = regenerate(kind, scenario.params)
        assert again.keys == scenario.keys and again.needles == scenario.needles
        assert again.params == scenario.params

    @pytest.mark.parametrize("kind", SCENARIO_KINDS)
    def test_regenerate_calls_the_generator_bound_at_call_time(self, monkeypatch, kind):
        fn, calls = synth._GENERATORS[kind], []  # a tracer rebinds the name, not the table
        monkeypatch.setattr(synth, fn.__name__, lambda **a: calls.append(a) or fn(**a))
        scenario = fn(**GENERATOR_CALLS[kind][0])
        assert regenerate(kind, scenario.params).keys == scenario.keys
        assert len(calls) == 1

    def test_round_trip_every_kind(self, tmp_path):
        for i, scenario in enumerate(make_each_kind(9)):
            path = tmp_path / f"s{i}.json"
            save_sidecar(scenario, path)
            back = load_sidecar(path)
            assert back.keys == scenario.keys
            assert back.needles == scenario.needles

    def test_regenerate_matches(self):
        scenario = gen_cluster_mixture(n=64, d=8, k_clusters=2, spread=1.0,
                                       separation=8.0, seed=11)
        again = regenerate(scenario.kind, scenario.params)
        assert again.keys == scenario.keys

    def test_malformed_sidecar(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError, match="malformed"):
            load_sidecar(path)

    def test_missing_fields(self, tmp_path):
        path = tmp_path / "missing.json"
        path.write_text(json.dumps({"kind": "radial"}))
        with pytest.raises(ValidationError):
            load_sidecar(path)


class TestSizeLimit:
    @pytest.mark.parametrize("kind", ["subspace", "radial", "clusters", "collision"])
    def test_keys_beyond_physical_memory_refused(self, monkeypatch, kind):
        # pretend the machine has 1 MiB (2**10 pages of 2**10 bytes); a missing check
        # would allocate just 2 MiB
        monkeypatch.setattr(os, "sysconf", lambda name: 2**10)
        base = {s.kind: s.params for s in make_each_kind()}[kind]
        params = {**base, "n": 2**16, "d": 4}
        with pytest.raises(ValidationError, match="physical memory"):
            regenerate(kind, params)
        assert regenerate(kind, {**params, "n": 2**15}).seq_len == 2**15  # exactly 1 MiB fits

    def test_subspace_basis_beyond_physical_memory_refused(self, monkeypatch, tmp_path):
        # 1 MiB of memory again: 32 KiB of keys fit, but a 256 x 255 basis costs
        # about 3 MiB once drawn, factored and echoed as Python floats
        monkeypatch.setattr(os, "sysconf", lambda name: 2**10)
        params = {**make_each_kind()[0].params, "n": 16, "d": 256, "k": 255, "n_out": 1}
        with pytest.raises(ValidationError, match="basis .* physical memory"):
            regenerate("subspace", params)
        from kvgeom.cli import main

        argv = ["separation", "--d", "256", "--k", "255", "--n-grid", "16", "--n-out", "1",
                "--seeds", "0", "--out", str(tmp_path / "s.csv")]
        assert main(argv) == 2

import json
import math
import os
import tracemalloc

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

from kvgeom import (
    KeyTensor,
    RetentionSet,
    ScorerSpec,
    ValidationError,
    attention,
    attention_weights,
    compress_cache,
    compute_scores,
    gen_cluster_mixture,
    gen_queries,
    gen_subspace_scenario,
    manifold_score,
    keydiff_score,
    pearson,
    save_sidecar,
    selection_overlap,
    spearman,
)
from kvgeom.attention import average_ranks, softmax_rows
from kvgeom.cli import main
from kvgeom.tensor import one_blas_thread

from conftest import TIE_HEAVY, kt, random_tensor, retention, rng


def retain(seq_len, *index_lists):
    return retention(seq_len, [index_lists])


def loop_average_ranks(x) -> np.ndarray:
    # the tie-group loop average_ranks replaced: the oracle for its ranks
    arr = np.asarray(x, dtype=np.float64).ravel()
    order = np.argsort(arr, kind="stable")
    ranks = np.empty(arr.size, dtype=np.float64)
    i = 0
    while i < arr.size:
        j = i
        while j + 1 < arr.size and arr[order[j + 1]] == arr[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


class TestWeightsSizeLimit:
    """The (batch, heads, queries, keys) float64 weights are refused, before
    they are allocated, when they exceed physical memory; the machine is
    pretended to have 1 MiB (2**10 pages of 2**10 bytes)."""

    @pytest.fixture(autouse=True)
    def one_mib(self, monkeypatch):
        monkeypatch.setattr(os, "sysconf", lambda name: 2**10)

    def test_weights_beyond_physical_memory_refused(self):
        keys = random_tensor(0, heads=2, seq=512, dim=4)
        with pytest.raises(ValidationError, match=r"^a \(1, 2, 256, 512\) float64 attention "
                           r"weight tensor needs 0\.00195 GiB, more than the 0\.000977 GiB "
                           r"of physical memory$"):
            attention_weights(random_tensor(1, heads=2, seq=256, dim=4), keys)
        # exactly 1 MiB fits
        assert attention_weights(random_tensor(1, heads=2, seq=128, dim=4), keys).nbytes == 2**20

    def test_obs_window_beyond_physical_memory_exits_2(self, capsys, tmp_path):
        # 4096 drawn queries over 64 keys need 2 MiB of weights; the queries
        # themselves take 128 KiB
        save_sidecar(gen_cluster_mixture(n=64, d=8, k_clusters=2, spread=1.0, separation=10.0,
                                          seed=0), tmp_path / "m.json")
        tracemalloc.start()
        try:
            code = main(["compare", "--sidecar", str(tmp_path / "m.json"), "--methods",
                         "manifold,obs_attention", "--obs-window", "4096",
                         "--out", str(tmp_path / "c.csv")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert code == 2 and json.loads(err)["exit_code"] == 2
        assert "attention weight tensor needs" in json.loads(err)["message"]
        assert peak < 2**20
        assert not (tmp_path / "c.csv").exists()


class TestAttention:
    def test_single_key_returns_value(self):
        k = kt([[0.3, -0.7]])
        v = kt([[5.0, 6.0]])
        q = random_tensor(0, seq=4, dim=2)
        out = attention(q, k, v)
        assert out.values[0, 0] == pytest.approx(np.tile([5.0, 6.0], (4, 1)), abs=1e-9)

    def test_identical_keys_convexity(self):
        k = kt([[1.0, 2.0], [1.0, 2.0]])
        v = kt([[3.0, 4.0], [3.0, 4.0]])
        q = random_tensor(1, seq=3, dim=2)
        out = attention(q, k, v)
        assert out.values[0, 0] == pytest.approx(np.tile([3.0, 4.0], (3, 1)), abs=1e-9)

    def test_hand_softmax_weights(self):
        # d=1, q=1: logits (0, ln 4) -> weights (0.2, 0.8)
        k = kt([[0.0], [math.log(4.0)]])
        v = kt([[1.0], [2.0]])
        q = kt([[1.0]])
        out = attention(q, k, v)
        assert out.weights[0, 0, 0] == pytest.approx([0.2, 0.8], abs=1e-9)
        assert out.values[0, 0, 0, 0] == pytest.approx(1.8, abs=1e-9)

    def test_rows_sum_to_one_and_nonnegative(self):
        q = random_tensor(2, batch=2, heads=2, seq=5, dim=6)
        k = random_tensor(3, batch=2, heads=2, seq=9, dim=6)
        v = random_tensor(4, batch=2, heads=2, seq=9, dim=6)
        out = attention(q, k, v)
        assert out.weights.sum(axis=-1) == pytest.approx(
            np.ones((2, 2, 5)), abs=1e-6
        )
        assert (out.weights >= 0).all()

    def test_softmax_shift_invariance(self):
        logits = rng(5).normal(size=(4, 7))
        assert softmax_rows(logits + 123.0) == pytest.approx(softmax_rows(logits), abs=1e-12)

    def test_permutation_equivariance(self):
        q = random_tensor(6, seq=3, dim=4)
        k = random_tensor(7, seq=10, dim=4)
        v = random_tensor(8, seq=10, dim=4)
        perm = rng(9).permutation(10)
        kp = KeyTensor(k.data[:, :, perm, :])
        vp = KeyTensor(v.data[:, :, perm, :])
        base = attention(q, k, v).values
        permuted = attention(q, kp, vp).values
        assert permuted == pytest.approx(base, rel=1e-5, abs=1e-9)

    @pytest.mark.parametrize("q_shape, k_shape", [
        ((2, 3, 5, 7), (2, 3, 33, 7)),
        ((1, 2, 16, 128), (1, 2, 1001, 128)),
    ])
    def test_slabwise_weights_equal_batched(self, q_shape, k_shape):
        q = KeyTensor(rng(10).normal(size=q_shape) * 3.0)
        k = KeyTensor(rng(11).normal(size=k_shape) * 2.0)
        v = KeyTensor(rng(14).normal(size=k_shape[:3] + (5,)))
        qd = q.data.astype(np.float64)
        kd = k.data.astype(np.float64)
        with one_blas_thread():  # as the library runs its slabs' products
            batched = softmax_rows(qd @ kd.transpose(0, 1, 3, 2) / np.sqrt(k.head_dim))
            values = batched @ v.data.astype(np.float64)
        assert np.array_equal(attention_weights(q, k), batched)
        assert np.array_equal(attention(q, k, v).values, values)

    def test_peak_memory_below_whole_key_copy(self):
        q = random_tensor(12, heads=4, seq=8, dim=16)
        k = random_tensor(13, heads=4, seq=4096, dim=16)
        whole_keys = k.data.size * 8
        logits = q.batch * q.heads * q.seq_len * k.seq_len * 8
        tracemalloc.start()
        try:
            attention_weights(q, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < whole_keys + logits

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            attention(random_tensor(0, dim=3), random_tensor(1, dim=4), random_tensor(2, dim=4))
        with pytest.raises(ValidationError):
            attention(
                random_tensor(0, dim=4),
                random_tensor(1, seq=5, dim=4),
                random_tensor(2, seq=6, dim=4),
            )


# Each call's inputs by shape: 4 axes make a KeyTensor, 3 a keep-all RetentionSet.
# The keys are (1, 2, 5, 4); values and the keep mask must share their (batch,
# heads, seq), queries their (batch, heads) and dim, checked in that order.
KEY_VS = "key shape (1, 2, 5, 4) incompatible with value shape "
QUERY_VS = " incompatible with key shape (1, 2, 5, 4)"
FRAME = "retention set frame does not match tensors"


@pytest.mark.parametrize("fn, shapes, message", [
    (attention_weights, [(1, 2, 3, 3), (1, 2, 5, 4)], "query shape (1, 2, 3, 3)" + QUERY_VS),
    (attention_weights, [(1, 1, 3, 4), (1, 2, 5, 4)], "query shape (1, 1, 3, 4)" + QUERY_VS),
    (attention, [(2, 2, 3, 4), (1, 2, 5, 4), (1, 2, 5, 4)], "query shape (2, 2, 3, 4)" + QUERY_VS),
    (attention, [(1, 2, 3, 3), (1, 2, 5, 4), (1, 2, 6, 4)], KEY_VS + "(1, 2, 6, 4)"),
    (compress_cache, [(1, 2, 5, 4), (1, 2, 5, 7), (1, 1, 5)], FRAME),
    (compress_cache, [(1, 2, 5, 4), (2, 2, 5, 4), (1, 1, 5)], KEY_VS + "(2, 2, 5, 4)"),
], ids=["weights-dim", "weights-heads", "attention-batch", "attention-values-first",
        "compress-frame", "compress-values-first"])
def test_frame_mismatch_messages(fn, shapes, message):
    args = [KeyTensor(rng(i).normal(size=s)) if len(s) == 4 else RetentionSet(np.ones(s, bool))
            for i, s in enumerate(shapes)]
    with pytest.raises(ValidationError) as err:
        fn(*args)
    assert str(err.value) == message


class TestPreservationError:
    """The relative attention-output error of an evicted cache, built from
    `attention` on the full cache and on each head's rows of `compress_cache`.

    `attention.preservation_error` was removed; the class keeps its name so the
    ids of these tests stay stable."""

    @pytest.mark.parametrize("batch, heads, queries, seq, dim, dv", [
        (2, 3, 5, 40, 7, 3),
        (1, 2, 16, 1001, 128, 64),
    ])
    def test_slabwise_equals_whole_tensor_expression(self, batch, heads, queries, seq, dim, dv):
        q = KeyTensor(rng(40).normal(size=(batch, heads, queries, dim)) * 2.0)
        k = KeyTensor(rng(41).normal(size=(batch, heads, seq, dim)))
        v = KeyTensor(rng(42).normal(size=(batch, heads, seq, dv)))
        g = rng(43)
        retained = retention(seq, [
            [g.permutation(seq)[: int(g.integers(1, seq + 1))] for _ in range(heads)]
            for _ in range(batch)
        ])
        # the whole-tensor float64 expression, on one BLAS thread as the library's slabs
        qd, kd, vd = (t.data.astype(np.float64) for t in (q, k, v))
        scale = np.sqrt(dim)
        with one_blas_thread():
            full = softmax_rows(qd @ kd.transpose(0, 1, 3, 2) / scale) @ vd
            kept = np.empty_like(full)
            for bi in range(batch):
                for hi in range(heads):
                    idx = retained.indices[bi][hi]
                    kept[bi, hi] = (softmax_rows(qd[bi, hi] @ kd[bi, hi, idx].T / scale)
                                    @ vd[bi, hi, idx])
            expected = float(np.linalg.norm(full - kept) / np.linalg.norm(full))
        # the same error through the library, one (batch, head) of the compressed cache at a time
        values = attention(q, k, v).values
        cache = compress_cache(k, v, retained)
        evicted = np.empty_like(values)
        for bi in range(batch):
            for hi in range(heads):
                n = int(retained.counts[bi, hi])
                one = (KeyTensor(t[bi : bi + 1, hi : hi + 1]) for t in (
                    q.data, cache.keys.data[:, :, :n], cache.values.data[:, :, :n]))
                evicted[bi, hi] = attention(*one).values[0, 0]
        assert float(np.linalg.norm(values - evicted) / np.linalg.norm(values)) == expected
        assert np.array_equal(values, full)
        assert np.array_equal(evicted, kept)


class TestPearson:
    def test_self_correlation(self):
        x = rng(0).normal(size=20)
        assert pearson(x, x) == pytest.approx(1.0, abs=1e-12)

    def test_anti_correlation(self):
        x = rng(1).normal(size=20)
        assert pearson(x, -x) == pytest.approx(-1.0, abs=1e-12)

    def test_formula_oracle(self):
        a = [1.0, 2.0, 3.0]
        b = [2.0, 4.0, 7.0]
        expected = scipy.stats.pearsonr(a, b).statistic
        assert pearson(a, b) == pytest.approx(expected, abs=1e-12)

    def test_affine_invariance(self):
        x = rng(2).normal(size=15)
        y = rng(3).normal(size=15)
        assert pearson(2.5 * x + 7, y) == pytest.approx(pearson(x, y), abs=1e-12)

    def test_symmetry(self):
        x = rng(4).normal(size=10)
        y = rng(5).normal(size=10)
        assert pearson(x, y) == pytest.approx(pearson(y, x), abs=1e-12)

    def test_constant_input_warns_and_returns_zero(self):
        with pytest.warns(RuntimeWarning, match="constant"):
            assert pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) == 0.0

    def test_too_short(self):
        with pytest.raises(ValidationError):
            pearson([1.0], [2.0])

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            pearson([1.0, 2.0], [1.0, 2.0, 3.0])


class TestSpearman:
    def test_monotone_transform_is_one(self):
        x = rng(6).normal(size=25)
        assert spearman(np.exp(x), x) == pytest.approx(1.0, abs=1e-12)

    def test_reversed_is_minus_one(self):
        x = np.arange(10.0)
        assert spearman(x, x[::-1]) == pytest.approx(-1.0, abs=1e-12)

    def test_ties_average_ranks(self):
        a = [1.0, 1.0, 2.0]
        b = [3.0, 5.0, 4.0]
        expected = scipy.stats.spearmanr(a, b).statistic  # 0.0 for this case
        assert expected == pytest.approx(0.0, abs=1e-12)
        assert spearman(a, b) == pytest.approx(expected, abs=1e-12)

    def test_matches_scipy_on_random_data(self):
        for seed in range(10):
            g = rng(seed)
            a = np.round(g.normal(size=30), 1)  # rounded to force ties
            b = np.round(g.normal(size=30), 1)
            expected = scipy.stats.spearmanr(a, b).statistic
            assert spearman(a, b) == pytest.approx(expected, abs=1e-10)

    def test_average_ranks(self):
        assert np.array_equal(average_ranks([10.0, 20.0, 20.0, 30.0]), [1.0, 2.5, 2.5, 4.0])

    @pytest.mark.parametrize("x", [
        [0.0, -0.0, 1.0, 1.0, -0.0],
        [5e-324, -5e-324, 0.0],
        [],
        np.round(rng(7).normal(size=5000), 1),
    ])
    def test_average_ranks_equal_loop(self, x):
        assert np.array_equal(average_ranks(x), loop_average_ranks(x))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(TIE_HEAVY, max_size=40))
    def test_average_ranks_equal_loop_on_ties(self, x):
        assert np.array_equal(average_ranks(x), loop_average_ranks(x))


class TestSelectionOverlap:
    def test_identity(self):
        r = retain(6, [0, 2, 4])
        assert selection_overlap(r, r) == 1.0

    def test_disjoint(self):
        assert selection_overlap(retain(6, [0, 1, 2]), retain(6, [3, 4, 5])) == 0.0

    def test_one_third(self):
        assert selection_overlap(retain(6, [0, 1, 2]), retain(6, [2, 3, 4])) == pytest.approx(1 / 3)

    def test_mean_over_heads(self):
        ra = retain(6, [0, 1], [0, 1])
        rb = retain(6, [0, 1], [2, 3])
        assert selection_overlap(ra, rb) == pytest.approx(0.5)

    def test_budget_mismatch(self):
        with pytest.raises(ValidationError, match="budget"):
            selection_overlap(retain(6, [0, 1]), retain(6, [0, 1, 2]))

    def test_budget_mismatch_names_the_first_pair(self):
        ra = retention(6, [[[0, 1], [0]], [[0], [0, 1, 2]], [[0], [0]]])
        rb = retention(6, [[[2, 3], [1]], [[0], [0, 1]], [[0, 1], [0]]])
        with pytest.raises(ValidationError, match=r"^budget mismatch at \(batch=1, head=1\): 3 vs 2$"):
            selection_overlap(ra, rb)

    def test_frame_mismatch(self):
        with pytest.raises(ValidationError):
            selection_overlap(retain(6, [0, 1]), retain(7, [0, 1]))


class TestScoreAgreementOnScenarios:
    def test_geometric_scorers_agree_more_than_attention(self):
        # on subspace scenarios the two geometric scorers see the same outlier
        # structure, while attention under random queries follows the queries
        for seed in range(5):
            scenario = gen_subspace_scenario(
                n=512, d=64, k=9, sigma=1.0, n_out=8, epsilon=10.0, seed=seed
            )
            queries = gen_queries(scenario, 64, "random", seed=9000 + seed)
            man = manifold_score(scenario.keys).data.ravel()
            kd = keydiff_score(scenario.keys).data.ravel()
            obs = compute_scores(
                ScorerSpec("obs_attention", 64), scenario.keys, queries=queries
            ).data.ravel()
            assert pearson(man, kd) > pearson(man, obs)

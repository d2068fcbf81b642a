import json
import math
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from kvgeom import (
    KeyTensor,
    RetentionSet,
    ScoreTensor,
    ValidationError,
    allocate_head_budgets,
    attention,
    budget,
    compress_cache,
    eviction,
    retention_from_scores,
    topk_select,
)
from kvgeom.tensor import freeze

from conftest import random_tensor, retention, rng


def brute_force_topk(scores, m):
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    return sorted(order[:m])


class TestBudget:
    @pytest.mark.parametrize(
        "n,rho,expected",
        [
            (100, 0.20, 80),  # retain 80% at 20% compression
            (10, 0.25, 7),
            (5, 0.0, 5),
            (10, 0.3, 7),  # float repr of 0.3 must not round the floor down
            (3, 0.9, 1),   # clamp: floor gives 0, at least one token retained
        ],
    )
    def test_cases(self, n, rho, expected):
        assert budget(n, rho) == expected

    def test_matches_exact_arithmetic_on_grid(self):
        for n in [1, 2, 3, 7, 10, 17, 64, 100, 1000, 16384]:
            for rho in [0.0, 0.1, 0.2, 0.25, 0.3, 1 / 3, 0.5, 0.6, 0.75, 0.9]:
                exact = math.floor((1 - Fraction(str(rho))) * n)
                assert budget(n, rho) == max(1, exact), (n, rho)

    @pytest.mark.parametrize("n,rho", [(10, 1.0), (10, -0.1), (0, 0.5), (10, 1.5)])
    def test_domain_errors(self, n, rho):
        with pytest.raises(ValidationError):
            budget(n, rho)


class TestTopkSelect:
    def test_all_indices(self):
        assert np.array_equal(topk_select([0.3, 0.1, 0.2], 3), [0, 1, 2])

    def test_forced_ordering(self):
        assert np.array_equal(topk_select([0.1, 0.9, 0.5], 2), [1, 2])

    def test_tie_break_lower_index(self):
        assert np.array_equal(topk_select(np.ones(5), 3), [0, 1, 2])

    def test_min_selected_ge_max_unselected(self):
        for seed in range(50):
            scores = rng(seed).integers(0, 5, size=20).astype(float)
            m = int(rng(seed + 1000).integers(1, 21))
            chosen = topk_select(scores, m)
            rest = np.setdiff1d(np.arange(20), chosen)
            if rest.size:
                assert scores[chosen].min() >= scores[rest].max()

    def test_matches_brute_force_with_ties(self):
        for seed in range(200):
            g = rng(seed)
            n = int(g.integers(1, 30))
            scores = np.round(g.normal(size=n), 1)  # one decimal forces ties
            m = int(g.integers(1, n + 1))
            assert np.array_equal(topk_select(scores, m), brute_force_topk(list(scores), m))

    def test_prefix_property(self):
        # larger budgets select supersets, so retention is monotone in budget
        scores = np.round(rng(42).normal(size=40), 1)
        prev = set()
        for m in range(1, 41):
            cur = set(topk_select(scores, m).tolist())
            assert prev <= cur
            prev = cur

    def test_signed_zeros_tie(self):
        # -0.0 == 0.0: the lower index wins, whichever sign it carries
        assert np.array_equal(topk_select([0.0, -0.0, -1.0, 0.0], 2), [0, 1])
        assert np.array_equal(topk_select([-0.0, 0.0, 0.0], 1), [0])
        assert np.array_equal(topk_select([-1.0, 0.0, -0.0, 2.0], 3), [1, 2, 3])

    def test_domain_errors(self):
        with pytest.raises(ValidationError):
            topk_select([1.0, 2.0], 0)
        with pytest.raises(ValidationError):
            topk_select([1.0, 2.0], 3)
        with pytest.raises(ValidationError):
            topk_select([1.0, np.nan], 1)


class TestRetentionSet:
    def test_validation(self):
        with pytest.raises(ValidationError):
            RetentionSet(np.ones((1, 1, 4, 1), dtype=bool))
        with pytest.raises(ValidationError):
            RetentionSet(np.zeros((2, 3, 4), dtype=bool))
        with pytest.raises(ValidationError):
            RetentionSet([[[1, 0]]])  # a 0/1 int list is not a mask either
        assert RetentionSet([[[True, False]]]).keep.tolist() == [[[True, False]]]

    # every frame check's exact message, from the base they share and from each
    # type's own dtype and content check
    @pytest.mark.parametrize("make, data, message", [
        (RetentionSet, np.array([[[0, 2]]]), "keep must be a bool mask, got dtype int64"),
        (RetentionSet, np.array([[[0.0, 1.0]]]), "keep must be a bool mask, got dtype float64"),
        (RetentionSet, np.ones((2, 3), dtype=bool), "expected 3 axes (batch, heads, seq), got 2"),
        (RetentionSet, np.ones((1, 2, 0), dtype=bool),
         "all axes must be >= 1, got shape (1, 2, 0)"),
        (RetentionSet, np.array([[[True, False], [False, False]]]),
         "each head must retain at least one token"),
        (KeyTensor, np.ones((1, 2, 3)), "expected 4 axes (batch, heads, seq, dim), got 3"),
        (KeyTensor, np.ones((1, 1, 1, 1, 1)), "expected 4 axes (batch, heads, seq, dim), got 5"),
        (KeyTensor, np.ones((1, 2, 0, 4)), "all axes must be >= 1, got shape (1, 2, 0, 4)"),
        (KeyTensor, [[[[1.0, np.nan]]]], "tensor contains NaN or Inf"),
        (KeyTensor, [[[[-np.inf]]]], "tensor contains NaN or Inf"),
        (ScoreTensor, np.ones((2, 3)), "expected 3 axes (batch, heads, seq), got 2"),
        (ScoreTensor, np.ones((1, 2, 3, 4)), "expected 3 axes (batch, heads, seq), got 4"),
        (ScoreTensor, np.ones((0, 2, 3)), "all axes must be >= 1, got shape (0, 2, 3)"),
        (ScoreTensor, [[[0.0, -np.inf]]], "score tensor contains NaN or Inf"),
        (lambda data: ScoreTensor(data).to_key_tensor(), [[[1.0, -3e38, 4e38]]],
         "scores exceed the float32 range of a KVT1 tensor (|score| <= 3.402823e+38)"),
    ], ids=["int", "float", "two-axes", "empty-axis", "empty-head",
            "key-three-axes", "key-five-axes", "key-empty-axis", "key-nan", "key-inf",
            "score-two-axes", "score-four-axes", "score-empty-axis", "score-inf",
            "score-beyond-float32"])
    def test_rejections_name_the_fault(self, make, data, message):
        with pytest.raises(ValidationError) as err:
            make(data)
        assert str(err.value) == message

    def test_never_aliases_or_freezes_the_callers_array(self):
        given = np.array([[[True, False, True], [False, True, False]]])
        r = RetentionSet(given)
        assert given.flags.writeable and not np.shares_memory(r.keep, given)
        given[0, 0] = False
        assert r.keep[0, 0].tolist() == [True, False, True]
        with pytest.raises(ValueError):
            r.keep[0, 0, 1] = True
        base = np.ones((1, 2, 3), dtype=bool)
        view = base[:, ::-1]  # a read-only view is copied too
        view.flags.writeable = False
        assert not np.shares_memory(RetentionSet(view).keep, base)

    def test_shape_counts_and_indices(self):
        r = retention(6, [[[1, 3, 5], [2]], [[0], [0, 1, 2, 3, 4, 5]]])
        assert (r.batch, r.heads, r.seq_len) == (2, 2, 6)
        assert r.counts.dtype == np.int64 and r.counts.tolist() == [[3, 1], [1, 6]]
        assert r.indices[0][0].dtype == np.int64
        assert [[i.tolist() for i in row] for row in r.indices] == [
            [[1, 3, 5], [2]], [[0], [0, 1, 2, 3, 4, 5]]
        ]

    def test_to_json_obj(self):
        r = retention(6, [[[1, 0], [2, 3]], [[4, 5], [1, 2]]])
        obj = r.to_json_obj()
        assert obj == [
            {"batch": 0, "head": 0, "indices": [0, 1]},
            {"batch": 0, "head": 1, "indices": [2, 3]},
            {"batch": 1, "head": 0, "indices": [4, 5]},
            {"batch": 1, "head": 1, "indices": [1, 2]},
        ]
        assert all(type(i) is int for row in obj for i in row["indices"])

    def test_from_scores(self):
        scores = ScoreTensor(np.array([[[0.1, 0.9, 0.5], [0.7, 0.2, 0.3]]]))
        r = retention_from_scores(scores, 2)
        assert np.array_equal(r.indices[0][0], [1, 2])
        assert np.array_equal(r.indices[0][1], [0, 2])


class TestCompressCache:
    def _full_retention(self, t):
        return RetentionSet(np.ones(t.shape[:3], dtype=bool))

    def test_retain_all_is_identity(self):
        k = random_tensor(0, batch=2, heads=2, seq=6, dim=3)
        v = random_tensor(1, batch=2, heads=2, seq=6, dim=3)
        out = compress_cache(k, v, self._full_retention(k))
        assert out.keys == k and out.values == v
        assert out.mask.all()

    def test_retain_single_row(self):
        k = random_tensor(2, seq=5)
        v = random_tensor(3, seq=5)
        r = retention(5, [[[0]]])
        out = compress_cache(k, v, r)
        assert out.keys.seq_len == 1
        assert np.array_equal(out.keys.data[0, 0, 0], k.data[0, 0, 0])

    def test_original_order_preserved(self):
        k = random_tensor(4, seq=5)
        v = random_tensor(5, seq=5)
        r = retention(5, [[[2, 0]]])
        out = compress_cache(k, v, r)
        assert np.array_equal(out.keys.data[0, 0, 0], k.data[0, 0, 0])
        assert np.array_equal(out.keys.data[0, 0, 1], k.data[0, 0, 2])

    def test_uneven_budgets_padded_and_masked(self):
        k = random_tensor(6, heads=2, seq=6)
        v = random_tensor(7, heads=2, seq=6)
        r = retention(6, [[[1, 3, 5], [2]]])
        out = compress_cache(k, v, r)
        assert out.keys.seq_len == 3
        assert out.mask[0, 0].tolist() == [True, True, True]
        assert out.mask[0, 1].tolist() == [True, False, False]
        assert np.array_equal(out.keys.data[0, 1, 1:], np.zeros((2, k.head_dim), np.float32))
        obj = out.mask_json_obj()
        assert obj == {"max_budget": 3, "valid_counts": [[3, 1]]}

    def test_shape_mismatch(self):
        k = random_tensor(8, seq=5)
        v = random_tensor(9, seq=4)
        with pytest.raises(ValidationError):
            compress_cache(k, v, self._full_retention(k))

    def test_compressed_attention_matches_filtered_oracle(self):
        # attention on the compressed cache == attention on hand-filtered matrices
        for seed in range(10):
            g = rng(seed)
            n = int(g.integers(2, 17))
            m = int(g.integers(1, n + 1))
            k = random_tensor(seed + 100, heads=2, seq=n, dim=4)
            v = random_tensor(seed + 200, heads=2, seq=n, dim=4)
            q = random_tensor(seed + 300, heads=2, seq=3, dim=4)
            scores = ScoreTensor(g.normal(size=(1, 2, n)))
            r = retention_from_scores(scores, m)
            out = compress_cache(k, v, r)
            via_cache = attention(q, out.keys, out.values).values
            for h in range(2):
                idx = r.indices[0][h]
                kf = k.data[0, h, idx].astype(np.float64)
                vf = v.data[0, h, idx].astype(np.float64)
                logits = q.data[0, h].astype(np.float64) @ kf.T / np.sqrt(4)
                w = np.exp(logits - logits.max(axis=1, keepdims=True))
                w /= w.sum(axis=1, keepdims=True)
                assert via_cache[0, h] == pytest.approx(w @ vf, rel=1e-5, abs=1e-8)

    @pytest.mark.skipif(sys.version_info < (3, 11),
                         reason="before 3.11 the caller's stack keeps call arguments alive")
    def test_peak_is_three_tensors_given_the_only_references(self):
        # keeping every token makes each output as large as its input
        shape = (1, 4, 4096, 32)
        retained = RetentionSet(np.ones(shape[:3], dtype=bool))
        tracemalloc.start()
        try:
            cache = [KeyTensor(freeze(rng(seed).standard_normal(shape, dtype=np.float32)))
                     for seed in (0, 1)]
            held = tracemalloc.get_traced_memory()[0]  # keys and values, 2 tensors
            tracemalloc.reset_peak()
            out = compress_cache(cache.pop(0), cache.pop(), retained)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.values.shape == shape
        # 3.25 tensors in all; keys, values and both outputs at once would be 4
        assert peak - held <= 1.25 * 4 * math.prod(shape)


def one_at_a_time_apportion(quotas, total, upper):
    """Reference largest-remainder apportionment: one token per loop step."""
    k = quotas.size
    base = np.floor(quotas).astype(np.int64)
    alloc = np.clip(base, 1, upper)
    priority = np.lexsort((np.arange(k), -(quotas - base)))
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


@st.composite
def apportion_cases(draw):
    """Quotas in quarters, so remainders tie, reaching below 1 and above the
    cap, and any feasible total: the difference to hand out can be negative."""
    k = draw(st.integers(1, 12))
    upper = draw(st.integers(1, 300))
    quotas = draw(st.lists(st.integers(0, 4 * upper + 12), min_size=k, max_size=k))
    return np.array(quotas) / 4.0, draw(st.integers(k, k * upper)), upper


class TestApportion:
    @given(apportion_cases())
    @example((np.array([0.25, 0.25, 0.25, 3.5]), 4, 4))  # every head clipped up: claw back 2
    @example((np.array([9.5, 9.5, 0.5, 0.5, 3.0]), 30, 8))  # two capped heads, tied remainders
    @settings(max_examples=200, deadline=None)
    def test_equals_one_token_at_a_time(self, case):
        quotas, total, upper = case
        alloc = eviction._apportion(quotas, total, upper)
        assert alloc.tolist() == one_at_a_time_apportion(quotas, total, upper).tolist()
        assert alloc.sum() == total and alloc.min() >= 1 and alloc.max() <= upper


class TestAllocateHeadBudgets:
    def _scores(self, masses, n):
        data = np.zeros((1, len(masses), n))
        for h, m in enumerate(masses):
            data[0, h, 0] = m
        return ScoreTensor(data)

    def test_uniform(self):
        budgets = allocate_head_budgets(self._scores([1, 2, 3, 4], 100), 0.2, "uniform")
        assert budgets.dtype == np.int64
        assert budgets.tolist() == [80, 80, 80, 80]

    def test_proportional_largest_remainder(self):
        budgets = allocate_head_budgets(self._scores([3, 1], 100), 0.5, "proportional")
        assert budgets.dtype == np.int64
        assert budgets.tolist() == [75, 25]

    def test_proportional_equal_masses_matches_uniform(self):
        scores = self._scores([2, 2, 2, 2], 100)
        uni = allocate_head_budgets(scores, 0.2, "uniform")
        prop = allocate_head_budgets(scores, 0.2, "proportional")
        assert prop.tolist() == uni.tolist()

    def test_total_exact_and_bounds(self):
        for seed in range(30):
            g = rng(seed)
            heads = int(g.integers(1, 9))
            n = int(g.integers(2, 60))
            rho = float(g.uniform(0.0, 0.95))
            scores = ScoreTensor(np.abs(g.normal(size=(1, heads, n))))
            budgets = allocate_head_budgets(scores, rho, "proportional")
            expected_total = max(heads, min(heads * n, math.floor(heads * (1 - rho) * n + 1e-9)))
            assert budgets.sum() == expected_total
            assert (budgets >= 1).all() and (budgets <= n).all()

    def test_zero_mass_head_still_gets_one(self):
        budgets = allocate_head_budgets(self._scores([5, 0], 10), 0.5, "proportional")
        assert budgets.tolist() == [9, 1]

    @pytest.mark.parametrize("heads, n, rho", [(5, 7, 0.3), (3, 10, 0.0), (4, 2, 0.9)])
    def test_all_zero_scores_split_evenly(self, heads, n, rho):
        # no score mass: the clamped total goes out evenly, the extra tokens to the lowest heads
        budgets = allocate_head_budgets(ScoreTensor(np.zeros((2, heads, n))), rho, "proportional")
        total = max(heads, min(heads * n, math.floor(heads * (1 - rho) * n + 1e-9)))
        q, r = divmod(total, heads)
        assert budgets.tolist() == [q + 1] * r + [q] * (heads - r)
        assert budgets.sum() == total and (np.abs(budgets - total / heads) < 1).all()

    @pytest.mark.parametrize("mode", ["uniform", "proportional"])
    def test_rho_message(self, mode):
        with pytest.raises(ValidationError) as err:
            allocate_head_budgets(self._scores([1, 2], 4), 1.0, mode)
        assert str(err.value) == "rho must be in [0, 1), got 1.0"

    def test_mode_validation(self):
        with pytest.raises(ValidationError):
            allocate_head_budgets(self._scores([1], 4), 0.5, "bogus")

    def test_plan_drives_retention(self):
        scores = ScoreTensor(np.array([[[0.9, 0.5, 0.1, 0.7], [0.1, 0.2, 0.3, 0.4]]]))
        r = retention_from_scores(scores, np.array([2, 2]))  # one budget per head
        assert np.array_equal(r.indices[0][0], [0, 3])
        assert np.array_equal(r.indices[0][1], [2, 3])


class TestDeterminism:
    def test_identical_inputs_identical_retention(self):
        scores = ScoreTensor(rng(0).normal(size=(2, 3, 50)))
        a = retention_from_scores(scores, 20)
        b = retention_from_scores(scores, 20)
        for bi in range(2):
            for hi in range(3):
                assert np.array_equal(a.indices[bi][hi], b.indices[bi][hi])

    def test_mask_json_round_trip(self, tmp_path):
        k = random_tensor(1, heads=2, seq=8)
        v = random_tensor(2, heads=2, seq=8)
        scores = ScoreTensor(rng(3).normal(size=(1, 2, 8)))
        out = compress_cache(k, v, retention_from_scores(scores, np.array([[3, 5]])))
        path = tmp_path / "mask.json"
        path.write_text(json.dumps(out.mask_json_obj()))
        obj = json.loads(path.read_text())
        assert obj["max_budget"] == 5
        assert obj["valid_counts"] == [[3, 5]]

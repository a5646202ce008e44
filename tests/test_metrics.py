"""Regret and ranking metrics against brute-force references."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from duelrank.errors import ConfigError
from duelrank.games import TrueRatings
from duelrank.metrics import (
    RankScorer,
    hit_ratio_at_k,
    instant_regret,
    ndcg_at_k,
    ranking,
    reciprocal_rank,
)
from duelrank.ratings import RatingState


def truth_from(r_star):
    r_star = np.asarray(r_star, dtype=float)
    n = len(r_star)
    return TrueRatings(r_star=r_star, rot=np.zeros((n, n)),
                       best=int(np.argmax(r_star)))


def ref_ranking(values):
    """Reference: explicit stable sort by (-value, index)."""
    return sorted(range(len(values)), key=lambda i: (-values[i], i))


def ref_metrics(truth, est, k):
    """Independent reference for RR / HR@k / NDCG@k."""
    pred = ref_ranking(list(est.r))
    true = ref_ranking(list(truth.r_star))
    rr = 1.0 / (pred.index(truth.best) + 1)
    true_top = set(true[:k])
    hr = len(true_top & set(pred[:k])) / k
    norm = sum(1.0 / math.log2(i + 2) for i in range(k))
    dcg = sum((1.0 if pred[i] in true_top else 0.0) / math.log2(i + 2)
              for i in range(k))
    return rr, hr, dcg / norm


class TestInstantRegret:
    def test_best_self_pair(self):
        t = truth_from([1.0, 0.5, 0.0])
        assert instant_regret(t, 0, 0) == 0.0

    def test_arithmetic(self):
        t = truth_from([1.0, 0.5, 0.0])
        assert instant_regret(t, 1, 2) == pytest.approx(0.75)

    def test_best_against_other(self):
        t = truth_from([1.0, 0.5, 0.0])
        assert instant_regret(t, 0, 2) == pytest.approx(0.5)

    def test_nonnegative(self):
        rng = np.random.default_rng(0)
        t = truth_from(rng.normal(size=6))
        for x in range(6):
            for y in range(6):
                assert instant_regret(t, x, y) >= 0.0


class TestReciprocalRank:
    def test_perfect(self):
        t = truth_from([0.0, 2.0, 1.0])
        est = RatingState(r=np.array([-1.0, 5.0, 0.0]))
        assert reciprocal_rank(t, est) == 1.0

    def test_third_place(self):
        t = truth_from([2.0, 1.0, 0.0])
        est = RatingState(r=np.array([0.0, 2.0, 1.0]))
        assert reciprocal_rank(t, est) == pytest.approx(1 / 3)

    def test_all_ties_lowest_index(self):
        t = truth_from([2.0, 1.0, 0.0])
        est = RatingState(r=np.zeros(3))
        assert reciprocal_rank(t, est) == 1.0


class TestHitRatio:
    def test_perfect(self):
        t = truth_from([3.0, 2.0, 1.0, 0.0])
        est = RatingState(r=t.r_star.copy())
        assert hit_ratio_at_k(t, est, 2) == 1.0

    def test_k_equals_n(self):
        t = truth_from([3.0, 2.0, 1.0])
        est = RatingState(r=np.array([0.0, 5.0, 1.0]))
        assert hit_ratio_at_k(t, est, 3) == 1.0

    def test_half_hit(self):
        t = truth_from([3.0, 2.0, 1.0, 0.0])  # true top-2 = {0, 1}
        est = RatingState(r=np.array([5.0, 0.0, 4.0, 1.0]))  # predicted {0, 2}
        assert hit_ratio_at_k(t, est, 2) == 0.5

    def test_k_out_of_range(self):
        t = truth_from([1.0, 0.0])
        with pytest.raises(ConfigError, match=r"k must be in \[1, 2\], got 3"):
            hit_ratio_at_k(t, RatingState(r=np.zeros(2)), 3)


class TestNdcg:
    def test_perfect(self):
        t = truth_from([3.0, 2.0, 1.0, 0.0])
        est = RatingState(r=t.r_star.copy())
        assert ndcg_at_k(t, est, 2) == 1.0

    def test_relevant_pushed_out(self):
        # true top-2 = {0, 1}; predicted order [0, 2, 1]
        t = truth_from([3.0, 2.0, 1.0])
        est = RatingState(r=np.array([5.0, 1.0, 2.0]))
        expected = 1.0 / (1.0 + 1.0 / math.log2(3))
        assert ndcg_at_k(t, est, 2) == pytest.approx(expected, abs=1e-4)
        assert ndcg_at_k(t, est, 2) == pytest.approx(0.6131, abs=1e-4)

    def test_all_misses(self):
        t = truth_from([3.0, 2.0, 1.0, 0.0])
        est = RatingState(r=np.array([0.0, 1.0, 2.0, 3.0]))
        assert ndcg_at_k(t, est, 2) == 0.0

    def test_one_iff_hit_ratio_one(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            t = truth_from(rng.normal(size=5))
            est = RatingState(r=rng.normal(size=5))
            k = int(rng.integers(1, 6))
            ndcg = ndcg_at_k(t, est, k)
            hr = hit_ratio_at_k(t, est, k)
            assert (ndcg == 1.0) == (hr == 1.0)


class TestBruteForceOracle:
    def test_all_permutations_small_n(self):
        for n in (2, 3, 4, 5, 6):
            truth = truth_from(np.arange(n, 0.0, -1.0))
            for perm in itertools.permutations(range(n)):
                est = RatingState(r=np.array(perm, dtype=float))
                for k in range(1, n + 1):
                    rr, hr, ndcg = ref_metrics(truth, est, k)
                    assert abs(reciprocal_rank(truth, est) - rr) <= 1e-12
                    assert abs(hit_ratio_at_k(truth, est, k) - hr) <= 1e-12
                    assert abs(ndcg_at_k(truth, est, k) - ndcg) <= 1e-12

    def test_random_estimates(self):
        rng = np.random.default_rng(4)
        truth = truth_from(rng.normal(size=6))
        for _ in range(1000):
            est = RatingState(r=rng.normal(size=6))
            k = int(rng.integers(1, 7))
            rr, hr, ndcg = ref_metrics(truth, est, k)
            assert abs(reciprocal_rank(truth, est) - rr) <= 1e-12
            assert abs(hit_ratio_at_k(truth, est, k) - hr) <= 1e-12
            assert abs(ndcg_at_k(truth, est, k) - ndcg) <= 1e-12

    @staticmethod
    def tie_heavy_estimates(n, rng):
        """Estimates whose ranking is decided by the low-index tie-break."""
        yield np.zeros(n)    # the warmup estimate every pre-tau row uses
        for _ in range(30):
            yield rng.integers(-2, 3, size=n).astype(float)
        for _ in range(30):
            yield rng.choice([0.0, -0.0], size=n)
        for _ in range(30):
            yield rng.choice([0.0, -0.0, 1.0, -1.0], size=n)

    @pytest.mark.parametrize("n", [2, 5, 8, 20])
    def test_tie_heavy_estimates(self, n):
        rng = np.random.default_rng(n)
        truths = [truth_from(rng.normal(size=n)),
                  truth_from(rng.integers(0, 3, size=n).astype(float))]
        for truth in truths:
            for r in self.tie_heavy_estimates(n, rng):
                est = RatingState(r=r)
                for k in range(1, n + 1):
                    rr, hr, ndcg = ref_metrics(truth, est, k)
                    assert reciprocal_rank(truth, est) == rr
                    assert hit_ratio_at_k(truth, est, k) == hr
                    assert abs(ndcg_at_k(truth, est, k) - ndcg) <= 1e-12


@pytest.mark.xfail(strict=True, reason="sequential DCG and numpy's pairwise "
                   "normalizer round differently for k >= 8")
def test_perfect_ndcg_is_exactly_one():
    truth = truth_from(np.arange(20, 0.0, -1.0))
    est = RatingState(r=truth.r_star.copy())
    assert [ndcg_at_k(truth, est, k) for k in range(8, 21)] == [1.0] * 13


@given(shift=st.floats(-100, 100), seed=st.integers(0, 100))
@settings(max_examples=50, deadline=None)
def test_metrics_invariant_to_estimate_shift(shift, seed):
    rng = np.random.default_rng(seed)
    truth = truth_from(rng.normal(size=5))
    base = rng.normal(size=5)
    a = RatingState(r=base)
    b = RatingState(r=base + shift)
    assert reciprocal_rank(truth, a) == reciprocal_rank(truth, b)
    for k in range(1, 6):
        assert hit_ratio_at_k(truth, a, k) == hit_ratio_at_k(truth, b, k)
        assert ndcg_at_k(truth, a, k) == ndcg_at_k(truth, b, k)


@given(seed=st.integers(0, 1000))
@settings(max_examples=100, deadline=None)
def test_metric_ranges(seed):
    rng = np.random.default_rng(seed)
    truth = truth_from(rng.normal(size=6))
    est = RatingState(r=rng.normal(size=6))
    assert 0.0 < reciprocal_rank(truth, est) <= 1.0
    for k in range(1, 7):
        assert 0.0 <= hit_ratio_at_k(truth, est, k) <= 1.0
        assert 0.0 <= ndcg_at_k(truth, est, k) <= 1.0


# The block scorer against a pure-Python reference, bit for bit. The pool
# makes ties common, -0.0 and 0.0 among them, so the low-index tie-break
# decides many rankings.
TIE_POOL = [0.0, -0.0, 1.0, -1.0, 2.0, 0.5, float("inf"), float("-inf")]


def ref_block_metrics(R, truth, ks):
    """Per row: (rr, [hr@k], [ndcg@k]) by a stable sort on (-value,
    index), with the DCG added left to right. A row holding NaN has no
    such order; it takes `ranking`'s (NaN last, by index) instead."""
    n = len(truth.r_star)
    true = ref_ranking(truth.r_star.tolist())
    out = []
    for row in R.tolist():
        if any(math.isnan(v) for v in row):
            pred = ranking(np.array(row))
        else:
            pred = sorted(range(n), key=lambda i: (-row[i], i))
        hr, ndcg = [], []
        for k in ks:
            top = set(true[:k])
            disc = 1.0 / np.log2(np.arange(2, k + 2))
            dcg = 0.0
            for i, p in enumerate(pred[:k]):
                if p in top:
                    dcg += disc[i].item()
            hr.append(sum(p in top for p in pred[:k]) / k)
            ndcg.append(dcg / disc.sum().item())
        out.append((1.0 / (pred.index(truth.best) + 1), hr, ndcg))
    return out


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def scored_blocks(draw):
    n = draw(st.integers(2, 12))
    m = draw(st.integers(1, 70))
    values = st.sampled_from(TIE_POOL) | st.floats(-3, 3, width=16)
    if draw(st.booleans()):
        values |= st.just(float("nan"))
    R = draw(arrays(np.float64, (m, n), elements=values))
    r_star = draw(arrays(np.float64, n, elements=st.sampled_from(TIE_POOL[:6])
                         | st.floats(-3, 3)))
    ks = draw(st.lists(st.integers(1, n), unique=True, max_size=3))
    return R, r_star, tuple(ks)


class TestBlockScorer:
    @given(case=scored_blocks())
    @example(case=(np.array([[0.0, -0.0, 0.0]]), np.array([1.0, 2.0, 0.0]),
                   (3,)))
    @example(case=(np.array([[-0.0, 0.0, 1.0, 1.0]] * 70),
                   np.array([0.0, 1.0, -0.0, 1.0]), ()))
    @settings(max_examples=200, deadline=None)
    def test_matches_pure_python_reference(self, case):
        R, r_star, ks = case
        truth = truth_from(r_star)
        rr, hr, ndcg = RankScorer(truth, ks).score(R)
        ref = ref_block_metrics(R, truth, ks)
        assert same_bits(rr, [row[0] for row in ref])
        assert same_bits(hr, np.array([row[1] for row in ref]).reshape(
            len(R), len(ks)))
        assert same_bits(ndcg, np.array([row[2] for row in ref]).reshape(
            len(R), len(ks)))

"""Regret accounting and ranking-quality metrics against true ratings."""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .games import TrueRatings
from .ratings import RatingState


def instant_regret(truth: TrueRatings, x, y):
    """Best player's rating minus the average rating of the matched pair.

    ``x`` and ``y`` are player indices or equal-length index arrays.
    """
    r = truth.r_star
    return r[truth.best] - 0.5 * (r[x] + r[y])


def ranking(values: np.ndarray) -> list[int]:
    """Player indices in descending value order, ties broken by low index."""
    return np.argsort(-np.asarray(values), kind="stable").tolist()


def _check_k(k: int, n: int) -> None:
    if not 1 <= k <= n:
        raise ConfigError(f"k must be in [1, {n}], got {k}", key="ks")


class RankScorer:
    """RR, HR@k and NDCG@k of estimates against one fixed truth.

    The truth side (best player, true top-k sets, discounts and NDCG
    normalizers) is computed once; each ``score`` call ranks the
    estimate once and reads every metric off that ranking.
    """

    def __init__(self, truth: TrueRatings, ks=()):
        n = len(truth.r_star)
        for k in ks:
            _check_k(k, n)
        self.best = truth.best
        self.ks = tuple(ks)
        true_order = ranking(truth.r_star) if self.ks else []
        self.true_tops = [set(true_order[:k]) for k in self.ks]
        discounts = [1.0 / np.log2(np.arange(2, k + 2)) for k in self.ks]
        self.discounts = [d.tolist() for d in discounts]
        self.norms = [float(d.sum()) for d in discounts]

    def score(self, r) -> tuple[float, tuple[float, ...], tuple[float, ...]]:
        """(rr, hr@ks, ndcg@ks) of the estimate ``r``.

        NDCG uses binary relevance (a predicted player is relevant iff it
        is in the true top-k) and base-2 log discounts, normalized by the
        DCG of a perfect ranking.
        """
        order = ranking(r)
        rr = 1.0 / (order.index(self.best) + 1)
        hr, ndcg = [], []
        for k, top, disc, norm in zip(self.ks, self.true_tops,
                                      self.discounts, self.norms):
            head = order[:k]
            hr.append(len(top.intersection(head)) / k)
            dcg = sum(disc[i] for i, p in enumerate(head) if p in top)
            ndcg.append(float(dcg / norm))
        return rr, tuple(hr), tuple(ndcg)


def reciprocal_rank(truth: TrueRatings, est: RatingState) -> float:
    return RankScorer(truth).score(est.r)[0]


def hit_ratio_at_k(truth: TrueRatings, est: RatingState, k: int) -> float:
    """Fraction of the predicted top-k inside the true top-k."""
    return RankScorer(truth, (k,)).score(est.r)[1][0]


def ndcg_at_k(truth: TrueRatings, est: RatingState, k: int) -> float:
    """Discounted top-k quality with binary relevance, base-2 logs.

    A perfect top-k is meant to score exactly 1; for k >= 8 the
    sequential DCG and numpy's pairwise normalizer still differ by an ulp.
    """
    return RankScorer(truth, (k,)).score(est.r)[2][0]

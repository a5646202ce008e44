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

    The truth side (best player, true top-k relevance, discounts and NDCG
    normalizers) is computed once; each ``score`` call ranks a whole
    stack of estimates with one row-wise argsort and reads every metric
    off those rankings.
    """

    def __init__(self, truth: TrueRatings, ks=()):
        n = len(truth.r_star)
        for k in ks:
            _check_k(k, n)
        self.best = truth.best
        self.ks = tuple(ks)
        true_order = ranking(truth.r_star) if self.ks else []
        self.relevant = np.zeros((len(self.ks), n), dtype=bool)
        for row, k in zip(self.relevant, self.ks):
            row[true_order[:k]] = True
        self.discounts = [1.0 / np.log2(np.arange(2, k + 2)) for k in self.ks]
        self.norms = [float(d.sum()) for d in self.discounts]

    def score(self, R: np.ndarray):
        """(rr, hr, ndcg) of each row of the m x n stack ``R``, shaped
        (m,), (m, len(ks)) and (m, len(ks)).

        Rows rank as `ranking` does. NDCG uses binary relevance (a
        predicted player is relevant iff it is in the true top-k) and
        base-2 log discounts, normalized by the DCG of a perfect ranking;
        the DCG adds each position's discount, or 0.0, left to right.
        """
        order = np.argsort(-R, axis=1, kind="stable")
        rr = 1.0 / ((order == self.best).argmax(axis=1) + 1)
        hr = np.empty((len(order), len(self.ks)))
        ndcg = np.empty_like(hr)
        for i, (k, rel, disc, norm) in enumerate(zip(
                self.ks, self.relevant, self.discounts, self.norms)):
            hit = rel[order[:, :k]]
            hr[:, i] = hit.sum(axis=1) / k
            # cumsum adds in column order; a row sum would add pairwise
            ndcg[:, i] = np.cumsum(hit * disc, axis=1)[:, -1] / norm
        return rr, hr, ndcg


def _score_one(truth: TrueRatings, est: RatingState, ks=()):
    return RankScorer(truth, ks).score(np.asarray(est.r)[None, :])


def reciprocal_rank(truth: TrueRatings, est: RatingState) -> float:
    return float(_score_one(truth, est)[0][0])


def hit_ratio_at_k(truth: TrueRatings, est: RatingState, k: int) -> float:
    """Fraction of the predicted top-k inside the true top-k."""
    return float(_score_one(truth, est, (k,))[1][0, 0])


def ndcg_at_k(truth: TrueRatings, est: RatingState, k: int) -> float:
    """Discounted top-k quality with binary relevance, base-2 logs.

    A perfect top-k is meant to score exactly 1; for k >= 8 the
    sequential DCG and numpy's pairwise normalizer still differ by an ulp.
    """
    return float(_score_one(truth, est, (k,))[2][0, 0])

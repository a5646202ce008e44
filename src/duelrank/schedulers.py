"""Match-scheduling policies: the UCB/SGD schedulers and four baselines.

Every policy exposes the same surface: step(env) plays one match and
returns (x, y, outcome); play(env, k, m) plays up to k and also returns
the new estimates' ratings; estimate() returns the current RatingState.
MatchEnv draws the outcomes: once per play call for an online baseline,
once per SGD batch (or held tail) for MaxIn and once per round for MaxInP.
Pairs are unordered with the canonical ordering x < y, and outcomes are
always recorded from the first-listed player's perspective.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import NamedTuple

import numpy as np

from .config import RunConfig
from .errors import ContractViolationError
from .games import WinMatrix, sample_outcome
from .ratings import (
    RatingState,
    SgdState,
    batch_update,
    cyclic_matrix,
    initial_features,
    mle_fit,
    sgd_rows,
)
# Looked up here by perfbench/tracer.py, which times them by these names.
from .ratings import sgd_step_elo, sgd_step_melo  # noqa: F401
from .thresholds import pass_thresholds
from .tracker import DesignTracker


def g1(t: int, n: int, T: int, c1: float) -> float:
    """Confidence width of the warm MLE estimate after t rounds."""
    return (1.0 / (2.0 * c1)) * math.sqrt(
        (n / 2.0) * math.log(1.0 + 2.0 * t / n) + 2.0 * math.log(T))


def g2(j: int, tau: int, alpha: float) -> float:
    """SGD-to-MLE gap factor after j batches."""
    return (tau / alpha) * math.sqrt(1.0 + math.log(j))


# The warmup batch has ~0.7n records over n(n-1)/2 pairs and is almost
# always linearly separable, so a weak ridge lets the center estimate
# blow up far outside the region the projection ball must cover. A
# strong ridge shrinks the center toward zero, keeping the true
# ratings within reach of the fixed-radius projection ball.
WARMUP_RIDGE = 2.0


def warm_start(records, cfg: RunConfig, rng: np.random.Generator) -> SgdState:
    """MaxIn's first learner state from its warmup records and a resolved
    config: the MLE center (ridge at least WARMUP_RIDGE) as iterate and
    average, plus mElo features drawn from rng when cfg.melo."""
    r_hat = mle_fit(records, cfg.n, ridge=max(cfg.ridge, WARMUP_RIDGE)).r
    c = initial_features(rng, cfg.n, cfg.k) if cfg.melo else None
    return SgdState(r_tilde=r_hat.copy(), r_bar=r_hat.copy(), center=r_hat,
                    eta0=cfg.eta0, alpha=cfg.alpha, c_tilde=c,
                    c_bar=None if c is None else c.copy())


class MatchEnv:
    """A win matrix plus the random stream its outcomes are drawn from.

    Each outcome is int(u < p[x, y]) of the stream's next uniform u:
    ``play`` draws one (MaxInP's rounds), ``plays(k)`` k at once for a
    baseline's block of matches, and ``play_many`` k at once for pairs
    known in advance (MaxIn's segments, random's block). numpy's
    Generator gives one k-vector draw the values of k scalar draws, and
    leaves its stream in the same state, so every outcome is the same
    whichever of the three plays it.
    """

    def __init__(self, matrix: WinMatrix, rng: np.random.Generator):
        self.matrix = matrix
        self.rng = rng

    def play(self, x: int, y: int) -> int:
        return sample_outcome(self.matrix, x, y, self.rng)

    def plays(self, k: int):
        """A play function for the next k matches: outcome i is
        int(u[i] < p[x, y]) of one draw u of k uniforms."""
        u, p = iter(self.rng.random(k).tolist()), self.matrix.p
        return lambda x, y: int(next(u) < p[x, y])

    def play_many(self, x, y, k: int) -> np.ndarray:
        """k outcomes, as int64, from one draw: of k plays of (x, y), or
        of the pairs (x[i], y[i]) if x and y are arrays of k players."""
        return (self.rng.random(k) < self.matrix.p[x, y]).astype(np.int64)


class Scheduler:
    """Common bookkeeping for all policies; pair i is (_iu[i], _ju[i]).

    A policy defines step or play: each is made here of the other."""

    _reported: RatingState | None = None  # the estimate play last returned

    def __init__(self, config: RunConfig, rng: np.random.Generator):
        self.config = config.resolve()
        self.n = self.config.n
        self.rng = rng
        self.t = 0
        self._iu, self._ju = np.triu_indices(self.n, 1)
        self._estimate = RatingState(r=np.zeros(self.n))

    def _pair(self, i) -> tuple[int, int]:
        return int(self._iu[i]), int(self._ju[i])

    def uniform_pair(self) -> tuple[int, int]:
        return self._pair(self.rng.integers(len(self._iu)))

    def step(self, env: MatchEnv) -> tuple[int, int, int]:
        """One round, play(env, 1, 1), as the ints (x, y, outcome)."""
        x, y, o = self.play(env, 1, 1)[:3]
        return int(x[0]), int(y[0]), int(o[0])

    def play(self, env: MatchEnv, k: int, m: int):
        """Play k rounds, or fewer: stop after the round that gives the m-th
        new estimate (see estimate). Returns the rounds' x, y and outcomes
        as int64 arrays, the new estimates' ratings as the rows of an array
        (at most m rows, one per round at most), and the round (0, 1, ...)
        after which each appeared.

        Here a step per round (MaxInP's, one MatchEnv.play draw each), its
        (x, y, o) kept in a list made int64 once.
        """
        played, rows, at = [], [], []
        for _ in range(k):
            played.append(self.step(env))
            est = self.estimate()
            if est is not self._reported:
                self._reported = est
                rows.append(est.r)
                at.append(len(played) - 1)
                if len(at) == m:
                    break
        x, y, o = np.array(played, dtype=np.int64).reshape(-1, 3).T
        return (x, y, o, np.array(rows).reshape(len(at), self.n),
                np.array(at, dtype=np.intp))

    def estimate(self) -> RatingState:
        """The current estimate, zero ratings until the policy has learned:
        the same object for as long as it is unchanged, and a new object
        whenever it may have changed."""
        return self._estimate


class _OnlineBaseline(Scheduler):
    """Baselines that apply a constant-step SGD update every round.

    None of them picks a pair from its ratings, and each round gives a new
    estimate, so play(env, k, m) makes min(k, m) matches first, as
    _matches(env, k)'s x, y and outcome arrays, then runs the SGD
    recurrence over them (ratings.sgd_rows).
    """

    def __init__(self, config, rng):
        super().__init__(config, rng)
        if self.config.melo:
            c = initial_features(rng, self.n, self.config.k)
            self._estimate = RatingState(r=np.zeros(self.n), c=c)

    def play(self, env, k, m):
        k = min(k, m)
        x, y, o = self._matches(env, k)
        rows, c = sgd_rows(self._estimate, x, y, o, self.config.eta0)
        self._estimate = RatingState(r=rows[-1], c=c)
        self.t += k
        return x, y, o, rows, np.arange(k)


class RandomScheduler(_OnlineBaseline):
    """Uniform pair from all n(n-1)/2 unordered pairs, with replacement."""

    def _matches(self, env, k):
        i = self.rng.integers(len(self._iu), size=k)
        x, y = self._iu[i], self._ju[i]
        return x, y, env.play_many(x, y, k)


class RgUcbScheduler(_OnlineBaseline):
    """Pure exploration: sample uniformly among still-unresolved pairs.

    A pair is resolved once its Hoeffding interval around the empirical
    win rate excludes 0.5, or once it has hit the per-pair sample cap
    (which guarantees termination on exactly-even matchups). A pair's
    status depends only on its own count and wins, so `_open`, the open
    pair indices in ascending order, is kept up to date by re-checking
    just the pair played each round. `counts` and `wins` hold one entry
    per pair index; `wins` counts wins by the first-listed player. When no
    pair is open, the draw is uniform over all pairs.
    """

    N_MAX_PER_PAIR = 200  # per-pair sample cap

    def __init__(self, config, rng):
        super().__init__(config, rng)
        self.counts = np.zeros(len(self._iu), dtype=int)
        self.wins = np.zeros(len(self._iu), dtype=float)
        self._log_term = math.log(2.0 / self.config.delta)
        self._open = list(range(len(self._iu)))

    def _unresolved(self, idx: int) -> bool:
        n_xy = self.counts[idx]
        if n_xy == 0:
            return True
        if n_xy >= self.N_MAX_PER_PAIR:
            return False
        half_width = math.sqrt(self._log_term / (2.0 * n_xy))
        p_hat = self.wins[idx] / n_xy
        return abs(p_hat - 0.5) <= half_width

    def _matches(self, env, k):
        play, open_, matches = env.plays(k), self._open, []
        for _ in range(k):
            if open_:
                idx = open_[self.rng.integers(len(open_))]
            else:
                idx = int(self.rng.integers(len(self._iu)))
            x, y = self._pair(idx)
            o = play(x, y)
            self.counts[idx] += 1
            self.wins[idx] += o
            i = bisect_left(open_, idx)
            if i < len(open_) and open_[i] == idx:
                if not self._unresolved(idx):
                    del open_[i]
            elif self._unresolved(idx):
                open_.insert(i, idx)
            matches.append((x, y, o))
        return np.array(matches, dtype=np.int64).T


class DbgdScheduler(_OnlineBaseline):
    """Keeps a champion and duels it against a random opponent."""

    def __init__(self, config, rng):
        super().__init__(config, rng)
        self.champion = int(rng.integers(self.n))

    def _matches(self, env, k):
        play, champ, matches = env.plays(k), self.champion, []
        for opponent in self.rng.integers(self.n - 1, size=k).tolist():
            opponent += opponent >= champ
            x, y = (champ, opponent) if champ < opponent else (opponent, champ)
            o = play(x, y)
            matches.append((x, y, o))
            if (o if x == champ else 1 - o) == 0:
                champ = opponent
        self.champion = champ
        return np.array(matches, dtype=np.int64).T


class Gap(NamedTuple):
    """A rating gap, held transposed as the candidate test reads it: d is
    r_j - r_i at [i, j] with an inf diagonal, c the cyclic term
    (c Omega c')' or None. `q_min`, when not None, holds the thresholds
    pass_thresholds(d, c, gamma) for this `gamma`: under it, the test
    h > 0 of pair [i, j] is q > q_min[i, j], q its squared uncertainty."""
    d: np.ndarray
    c: np.ndarray | None
    gamma: float | None = None
    q_min: np.ndarray | None = None


def _root_argmax(q: np.ndarray) -> int:
    """The first flat index of the largest sqrt(max(q, 0)), read from q:
    the first index of the largest q, unless a smaller q has the same
    square root; then the first index of a q at or above the least such
    q. Only a few doubles share one correctly rounded square root."""
    i = int(q.argmax())
    top = q.item(i)
    if top <= 0.0:
        return 0  # every root is 0
    root, low = math.sqrt(top), top
    while math.sqrt(below := math.nextafter(low, -math.inf)) == root:
        low = below
    return i if low == top else int((q >= low).argmax())


class Selection(NamedTuple):
    """A post-warmup round's mask S (|S| is `size`), gamma_t and pair's u;
    built when read, a threshold round's u from its pair's q."""
    mask: np.ndarray
    gamma: float
    u: float
    size = property(lambda self: int(np.count_nonzero(self.mask)))


class _WarmupScheduler(Scheduler):
    """Shared warmup: tau uniform matches, then an MLE initial estimate.

    The match log holds the (x, y, o) records the next fit reads. MaxIn
    empties it at each fit, so it never outgrows its first tau rows;
    MaxInP keeps every match, and the log doubles whenever it is full.
    """

    _sel: tuple | None = None  # (mask, gamma, the pair's u or q, is it q)
    _full = False  # whether the last round's S was every player

    def __init__(self, config, rng):
        super().__init__(config, rng)
        self.tracker = DesignTracker(self.n, self.config.lambda_ridge)
        self._log = np.empty((self.config.tau, 3), dtype=np.int64)
        self._logged = 0
        self._h = np.empty((self.n, self.n))
        self._passed = np.empty((self.n, self.n), dtype=bool)
        self._every = np.ones(self.n, dtype=bool)  # copied: faster than ones

    @property
    def selection(self) -> Selection | None:
        """The last selecting round's record, or None before the first."""
        if self._sel is None:
            return None
        mask, gamma, value, is_q = self._sel
        return Selection(mask, gamma,
                         math.sqrt(max(value, 0.0)) if is_q else value)

    @property
    def history(self) -> np.ndarray:
        """The logged records as an m x 3 (x, y, o) view."""
        return self._log[:self._logged]

    def _rating_gap(self, r: np.ndarray, c: np.ndarray | None) -> Gap:
        """The Gap of ratings r and features c, without thresholds."""
        d = r[None, :] - r[:, None]
        np.fill_diagonal(d, np.inf)
        return Gap(d, None if c is None
                   else np.ascontiguousarray(cyclic_matrix(c).T))

    def _candidate_mask(self, u: np.ndarray, gap: Gap,
                        gamma: float) -> np.ndarray:
        """A new mask S of the players with the fewest confident dominators
        under the score h = d + gamma * u [+ c], held transposed; u is
        symmetric with a 0 diagonal. That is the undominated players
        whenever there are any, as Elo's transitive dominance guarantees;
        mElo's cyclic term can close a cycle through every player. Only a
        NaN in h can leave S empty. The reference test: it reads neither
        q_min nor gap.gamma."""
        h = np.multiply(gamma, u, out=self._h)
        np.add(gap.d, h, out=h)
        if gap.c is not None:
            np.add(h, gap.c, out=h)
        mask = np.minimum.reduce(h, axis=0) > 0.0
        if np.count_nonzero(mask) or np.isnan(h).any():  # cheaper than any()
            return mask
        beaten = np.count_nonzero(h <= 0.0, axis=0)
        return beaten == beaten.min()

    def _select_pair(self, u: np.ndarray, mask: np.ndarray,
                     argmax=lambda a: int(a.argmax()),
                     size: int | None = None) -> tuple[int, int]:
        """The candidate pair x < y of largest u[x, y], lowest pair on ties:
        the first argmax of u on S x S in row-major order, since u is
        symmetric with a zero diagonal. A single candidate x gives (x, x).
        With argmax=_root_argmax, u may be q, read as its clamped root.
        `size`, if given, is |S|; _full notes if it is n. For n/2 < |S| < n
        the pick is made on S's rows, held with -inf outside S, without an
        S x S copy: S is sorted, so it is S x S's first pick, unless it is
        <= 0: then every root on S x S is 0 and the pair is (S[0], S[0])."""
        n = self.n
        size = np.count_nonzero(mask) if size is None else size
        self._full = size == n
        if size == 0:
            raise ContractViolationError(
                "empty candidate set: the ratings are not finite")
        if size == 1:
            x = int(mask.argmax())
            return x, x
        if size == n:
            return divmod(argmax(u), n)
        idx = mask.nonzero()[0]
        if 2 * size <= n:  # faster here, and both copies fit in n x n
            i, j = divmod(argmax(u.take(idx, 0).take(idx, 1)), size)
            return int(idx[i]), int(idx[j])
        rows = u.take(idx, 0, out=self._h[:size], mode="clip")
        rows[:, ~mask] = -np.inf
        i, j = divmod(argmax(rows), n)
        if rows.item(i, j) <= 0.0:
            i, j = 0, int(idx[0])
        return int(idx[i]), j

    def _select(self, gap: Gap, gamma: float) -> tuple[int, int]:
        """One round's pair; keeps its record. Under the gamma the gap's
        thresholds were built for, from q alone: S is the columns where
        q > q_min holds throughout, or else where it holds most often, and
        the pair reads q as its clamped root (_root_argmax); after a round
        whose S was every player, a count of q > q_min tests that first.
        Otherwise from one uncertainty matrix, by _candidate_mask: the
        reference, and the path of a gamma or gap that changes every round."""
        if gap.q_min is None or gamma != gap.gamma:
            u = self.tracker.uncertainty_matrix()
            mask = self._candidate_mask(u, gap, gamma)
            x, y = self._select_pair(u, mask)
            self._sel = mask, gamma, u.item(x, y), False
            return x, y
        q = self.tracker.squared_uncertainty_matrix()
        passed = np.greater(q, gap.q_min, out=self._passed)
        n = self.n
        if self._full and np.count_nonzero(passed) == n * n:
            mask, size = self._every.copy(), n
        else:
            mask = passed.all(axis=0)
            size = np.count_nonzero(mask)
            if size == 0:
                wins = np.count_nonzero(passed, axis=0)
                mask = wins == wins.max()
                size = None
        x, y = self._select_pair(q, mask, _root_argmax, size)
        self._sel = mask, gamma, q.item(x, y), True
        return x, y

    def _gamma(self) -> float:
        cfg = self.config
        if cfg.gamma_mode == "theoretical":
            return 2.0 * g1(self.t, self.n, cfg.T, cfg.c1)
        return cfg.gamma


class MaxInScheduler(_WarmupScheduler):
    """UCB candidate set + max-uncertainty pair, learning by batch SGD.

    The warmup plays tau uniform pairs, never self-pairs, so the first
    full log is its batch: it gives the MLE center. Each later batch of
    tau informative records is one projected SGD step, eta0/(alpha*j) at
    batch j; the estimate is the average of SGD iterates. With config.melo,
    cyclic feature vectors are learned by the same gradients, unprojected.

    The estimate and rating gap change only per batch (see _fit_batch).
    A self-pair round under a fixed gamma is absorbing: it changes no
    input of the next selection (tracker, log, SGD state, gap, gamma),
    so it becomes `held`: every later round replays that pair without
    selecting, and `selection` stays the record of the round that froze.
    Outcomes reach only the next fit, so play draws them a batch at once.
    """

    sgd: SgdState | None = None  # None until the warmup fit
    held: tuple[int, int] | None = None  # a pair every later round replays

    def _fit_batch(self):
        """The warm start from the first full log, an SGD step from every
        later one; then empty the log and set the estimate and rating gap.
        Every caller shares the estimate, whose arrays are made read-only.

        Under a fixed gamma the gap also gets its thresholds q_min (see
        _select), unless it is not finite off the diagonal: only there can
        h be NaN, and the reference test keeps the empty-S rule for it. A
        theoretical gamma grows every round, so its gap has none."""
        if self.sgd is None:
            self.sgd = warm_start(self.history, self.config, self.rng)
        else:
            self.sgd = batch_update(self.sgd, self.history)
        self._logged = 0
        r, c = self.sgd.r_bar, self.sgd.c_bar
        for a in (r, c) if c is not None else (r,):
            a.flags.writeable = False
        self._estimate = RatingState(r=r, c=c)
        gap = self._rating_gap(r, c)
        if (self.config.gamma_mode == "fixed"
                and np.isfinite(gap.d).sum() == self.n * (self.n - 1)
                and (gap.c is None or np.isfinite(gap.c).all())):
            gamma = self.config.gamma
            gap = gap._replace(gamma=gamma,
                               q_min=pass_thresholds(gap.d, gap.c, gamma))
        self._gap = gap

    def play(self, env, k, m):
        """Scheduler.play a segment at a time: pairs, selected round by round
        (the warmup's drawn at once; the run's first round alone), up to the
        batch's tau-th informative record, round k or a hold, which runs to
        k; then one env.play_many draw, the non-self records logged as one
        block and, if the log is full, a fit, which ends the segment."""
        cfg, t0 = self.config, self.t
        theoretical = cfg.gamma_mode == "theoretical"
        x, y, o = xyo = np.empty((3, k), dtype=np.int64)
        rows, at, i = [], [], 0
        while i < k:
            start, need = i, cfg.tau - self._logged
            if self.sgd is None:  # warmup pairs are never self-pairs
                i += min(k - i, need) if self.t else 1
                pick = self.rng.integers(len(self._iu), size=i - start)
                x[start:i], y[start:i] = self._iu[pick], self._ju[pick]
                for a, b in zip(x[start:i].tolist(), y[start:i].tolist()):
                    self.tracker.update(a, b)
            else:
                gamma = cfg.gamma
                while need and i < k and self.held is None:
                    self.t += 1
                    if theoretical:
                        gamma = self._gamma()
                    a, b = self._select(self._gap, gamma)
                    x[i], y[i] = a, b
                    i += 1
                    if a != b:  # self-pairs carry zero information
                        self.tracker.update(a, b)
                        need -= 1
                    elif not theoretical:
                        self.held = a, b
                if self.held is not None:
                    x[i:], y[i:] = self.held
                    i = k
            self.t = t0 + i
            o[start:i] = env.play_many(x[start:i], y[start:i], i - start)
            new = xyo[:, start:i][:, x[start:i] != y[start:i]].T
            self._log[self._logged:self._logged + len(new)] = new
            self._logged += len(new)
            if self._logged == cfg.tau:
                self._fit_batch()
            if self._estimate is not self._reported:
                self._reported = self._estimate
                rows.append(self._estimate.r)
                at.append(i - 1)
                if len(at) == m:
                    break
        return (x[:i], y[:i], o[:i], np.array(rows).reshape(len(at), self.n),
                np.array(at, dtype=np.intp))


class MaxInPScheduler(_WarmupScheduler):
    """Full-history MLE refit per round, same candidate/pair rule.

    The tau warmup rounds play uniform pairs and end with one fit, which
    round tau + 1 selects from; every later round refits first. Kept
    deliberately O(t) per round: every refit starts from zero and each of
    its Newton iterations passes over the whole match log, which is the
    cost profile this baseline is meant to exhibit.
    """

    def _record(self, x: int, y: int, o: int) -> None:
        if self._logged == len(self._log):
            self._log = np.concatenate((self._log, np.empty_like(self._log)))
        self._log[self._logged] = x, y, o
        self._logged += 1

    def step(self, env):
        self.t += 1
        if self.t <= self.config.tau:
            x, y = self.uniform_pair()
        else:
            if self.t > self.config.tau + 1:  # the log grew since the fit
                self._estimate = mle_fit(self.history, self.n, ridge=self.config.ridge)
            x, y = self._select(self._rating_gap(self._estimate.r, None),
                                self._gamma())
        o = env.play(x, y)
        self._record(x, y, o)  # the fit passes over self-pairs too
        if x != y:  # their tracker term is +0.0 everywhere
            self.tracker.update(x, y)
        if self.t == self.config.tau:
            self._estimate = mle_fit(self.history, self.n, ridge=self.config.ridge)
        return x, y, o


_SCHEDULERS = {"random": RandomScheduler, "rg_ucb": RgUcbScheduler,
               "dbgd": DbgdScheduler, "maxinp": MaxInPScheduler}


def make_scheduler(config: RunConfig, rng: np.random.Generator) -> Scheduler:
    """The policy of config.algo; both MaxIn variants are MaxInScheduler.
    An unknown algo raises ConfigError from the scheduler's config.resolve."""
    return _SCHEDULERS.get(config.algo, MaxInScheduler)(config, rng)

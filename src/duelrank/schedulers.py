"""Match-scheduling policies: the UCB/SGD schedulers and five baselines.

Every policy exposes the same surface: step(env) plays one match and
returns (x, y, outcome); play(env, k, m) plays up to k and also returns
the new estimates' ratings; estimate() returns the current RatingState.
Pairs are unordered with the canonical ordering x < y, and outcomes are
always recorded from the first-listed player's perspective.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import partial
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


# Values per block of a _Blocks stream. numpy's Generator returns the
# same values from k scalar draws as from one k-vector draw, and leaves
# its stream in the same state, so a stream with a single consumer can be
# drawn B at a time without changing a bit.
B = 256


class _Blocks:
    """``draw()``'s values served one per call, drawn ``draw(size=B)`` at a
    time; only for a stream that nothing else reads from the first call on."""

    def __init__(self, draw):
        self._draw = draw
        self._vals, self._next = [], 0

    def __call__(self):
        if self._next == len(self._vals):
            self._vals, self._next = self._draw(size=B).tolist(), 0
        self._next += 1
        return self._vals[self._next - 1]

    def take(self, k: int) -> np.ndarray:
        """The next k values at once: the buffered rest, then one draw."""
        rest = self._vals[self._next:self._next + k]
        self._next += len(rest)
        if not rest:  # an empty list would make an int stream float
            return self._draw(size=k)
        if len(rest) == k:
            return np.array(rest)
        return np.concatenate((rest, self._draw(size=k - len(rest))))


class MatchEnv:
    """A win matrix plus the random stream its outcomes are drawn from.

    ``random()`` serves the stream's uniforms from blocks of B, and ``play``
    passes the env itself as ``sample_outcome``'s rng, so every outcome is
    the scalar ``int(rng.random() < p[x, y])`` of the same stream, in the
    same order. Nothing else may draw from ``rng`` once play has begun.
    """

    def __init__(self, matrix: WinMatrix, rng: np.random.Generator):
        self.matrix = matrix
        self.random = _Blocks(rng.random)

    def play(self, x: int, y: int) -> int:
        return sample_outcome(self.matrix, x, y, self)

    def plays(self, k: int):
        """A play function for the next k matches: outcome i is
        int(u[i] < p[x, y]) of one draw u of k uniforms, as play's is."""
        u, p = iter(self.random.take(k).tolist()), self.matrix.p
        return lambda x, y: int(next(u) < p[x, y])

    def play_many(self, x, y, k: int) -> np.ndarray:
        """k outcomes, as int64, from one draw: of k plays of (x, y), or
        of the pairs (x[i], y[i]) if x and y are arrays of k players."""
        return (self.random.take(k) < self.matrix.p[x, y]).astype(np.int64)


class Scheduler:
    """Common bookkeeping for all policies; pair i is (_iu[i], _ju[i])."""

    held: tuple[int, int] | None = None  # a pair every later round replays
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
        raise NotImplementedError

    def play(self, env: MatchEnv, k: int, m: int):
        """Play k rounds, or fewer: stop after the round that gives the m-th
        new estimate (see estimate). Returns the rounds' x, y and outcomes
        as int64 arrays, the new estimates' ratings as the rows of an array
        (at most m rows, one per round at most), and the round (0, 1, ...)
        after which each appeared.

        Here a step per round; once a pair is held, the rest of the rounds
        are its outcomes from one MatchEnv.play_many draw.
        """
        x, y, o = (np.empty(k, dtype=np.int64) for _ in range(3))
        rows, at = [], []
        for i in range(k):
            if self.held is not None:
                x[i:], y[i:] = self.held
                o[i:] = env.play_many(*self.held, k - i)
                self.t += k - i
                break
            x[i], y[i], o[i] = self.step(env)
            est = self.estimate()
            if est is not self._reported:
                self._reported = est
                rows.append(est.r)
                at.append(i)
                if len(at) == m:
                    x, y, o = x[:i + 1], y[:i + 1], o[:i + 1]
                    break
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
    estimate, so play(env, k, m) makes min(k, m) matches first, then runs
    the SGD recurrence over them (ratings.sgd_rows). A match is
    _match(play), whose outcome is play(x, y): env.play in step, the
    one-round case, and MatchEnv.plays(k) in a block.
    """

    def __init__(self, config, rng):
        super().__init__(config, rng)
        if self.config.melo:
            c = initial_features(rng, self.n, self.config.k)
            self._estimate = RatingState(r=np.zeros(self.n), c=c)

    def _matches(self, env: MatchEnv, k: int):
        play = env.plays(k)
        return np.array([self._match(play) for _ in range(k)],
                        dtype=np.int64).reshape(k, 3).T

    def _learn(self, x, y, o) -> np.ndarray:
        rows, c = sgd_rows(self._estimate, x, y, o, self.config.eta0)
        self._estimate = RatingState(r=rows[-1], c=c)
        self.t += len(rows)
        return rows

    def step(self, env):
        match = self._match(env.play)
        self._learn(*np.array([match]).T)
        return match

    def play(self, env, k, m):
        k = min(k, m)
        x, y, o = self._matches(env, k)
        return x, y, o, self._learn(x, y, o), np.arange(k)


class RandomScheduler(_OnlineBaseline):
    """Uniform pair from all n(n-1)/2 unordered pairs, with replacement."""

    def __init__(self, config, rng):
        super().__init__(config, rng)
        self._pair_index = _Blocks(partial(rng.integers, len(self._iu)))

    def _match(self, play):
        x, y = self._pair(self._pair_index())
        return x, y, play(x, y)

    def _matches(self, env, k):
        i = self._pair_index.take(k)
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

    def _match(self, play):
        open_ = self._open
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
        return x, y, o


class DbgdScheduler(_OnlineBaseline):
    """Keeps a champion and duels it against a random opponent."""

    def __init__(self, config, rng):
        super().__init__(config, rng)
        self.champion = int(rng.integers(self.n))
        self._opponent = _Blocks(partial(rng.integers, self.n - 1))

    def _match(self, play):
        opponent = self._opponent()
        if opponent >= self.champion:
            opponent += 1
        champ = self.champion
        x, y = (champ, opponent) if champ < opponent else (opponent, champ)
        o = play(x, y)
        champ_won = o if x == champ else 1 - o
        if not champ_won:
            self.champion = opponent
        return x, y, o


class Selection(NamedTuple):
    """A post-warmup round's mask S (|S| is `size`), gamma_t and pair's u."""
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

    selection: Selection | None = None  # the last selecting round's, or None

    def __init__(self, config, rng):
        super().__init__(config, rng)
        self.tracker = DesignTracker(self.n, self.config.lambda_ridge)
        self._log = np.empty((self.config.tau, 3), dtype=np.int64)
        self._logged = 0
        self._h = np.empty((self.n, self.n))

    @property
    def history(self) -> np.ndarray:
        """The logged records as an m x 3 (x, y, o) view."""
        return self._log[:self._logged]

    def _record(self, x: int, y: int, o: int) -> None:
        if self._logged == len(self._log):
            self._log = np.concatenate((self._log, np.empty_like(self._log)))
        self._log[self._logged] = x, y, o
        self._logged += 1

    def _rating_gap(self, r: np.ndarray, c: np.ndarray | None):
        """Transposed (D, C): r_j - r_i with an inf diagonal; (c Omega c')' or None."""
        d = r[None, :] - r[:, None]
        np.fill_diagonal(d, np.inf)
        return d, None if c is None else np.ascontiguousarray(cyclic_matrix(c).T)

    def _candidate_mask(self, u: np.ndarray, gap, gamma: float) -> np.ndarray:
        """A new mask S of the players with the fewest confident dominators
        under the score h, held transposed; u is symmetric with a 0 diagonal.
        That is the undominated players whenever there are any, as Elo's
        transitive dominance guarantees; mElo's cyclic term can close a
        cycle through every player. Only a NaN in h can leave S empty."""
        d, c_term = gap
        h = np.multiply(gamma, u, out=self._h)
        np.add(d, h, out=h)
        if c_term is not None:
            np.add(h, c_term, out=h)
        mask = np.minimum.reduce(h, axis=0) > 0.0
        if np.count_nonzero(mask) or np.isnan(h).any():  # cheaper than any()
            return mask
        beaten = np.count_nonzero(h <= 0.0, axis=0)
        return beaten == beaten.min()

    def _select_pair(self, u: np.ndarray,
                     mask: np.ndarray) -> tuple[int, int]:
        """The candidate pair x < y of largest u[x, y], lowest pair on ties:
        the first argmax of u on S x S in row-major order, since u is
        symmetric with a zero diagonal. A single candidate x gives (x, x)."""
        size = np.count_nonzero(mask)
        if size == 0:
            raise ContractViolationError(
                "empty candidate set: the ratings are not finite")
        if size == 1:
            x = int(mask.argmax())
            return x, x
        if size == self.n:
            return divmod(int(u.argmax()), self.n)
        idx = np.flatnonzero(mask)
        i, j = divmod(int(u.take(idx, 0).take(idx, 1).argmax()), size)
        return int(idx[i]), int(idx[j])

    def _select(self, gap, gamma: float) -> tuple[int, int]:
        """One round's pair from one uncertainty matrix; keeps its record."""
        u = self.tracker.uncertainty_matrix()
        mask = self._candidate_mask(u, gap, gamma)
        x, y = self._select_pair(u, mask)
        self.selection = Selection(mask, gamma, u.item(x, y))
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
    """

    sgd: SgdState | None = None  # None until the warmup fit

    def _fit_batch(self):
        """The warm start from the first full log, an SGD step from every
        later one; then empty the log and set the estimate and rating gap.
        Every caller shares the estimate, whose arrays are made read-only."""
        if self.sgd is None:
            self.sgd = warm_start(self.history, self.config, self.rng)
        else:
            self.sgd = batch_update(self.sgd, self.history)
        self._logged = 0
        r, c = self.sgd.r_bar, self.sgd.c_bar
        for a in (r, c) if c is not None else (r,):
            a.flags.writeable = False
        self._estimate = RatingState(r=r, c=c)
        self._gap = self._rating_gap(r, c)

    def step(self, env):
        self.t += 1
        if self.held is not None:
            x, y = self.held
        elif self.sgd is None:
            x, y = self.uniform_pair()
        else:
            x, y = self._select(self._gap, self._gamma())
            if x == y and self.config.gamma_mode == "fixed":
                self.held = x, y
        o = env.play(x, y)
        if x != y:  # self-pairs carry zero information
            self._record(x, y, o)
            self.tracker.update(x, y)
            if self._logged == self.config.tau:
                self._fit_batch()
        return x, y, o


class MaxInPScheduler(_WarmupScheduler):
    """Full-history MLE refit per round, same candidate/pair rule.

    The tau warmup rounds play uniform pairs and end with one fit, which
    round tau + 1 selects from; every later round refits first. Kept
    deliberately O(t) per round: every refit starts from zero and each of
    its Newton iterations passes over the whole match log, which is the
    cost profile this baseline is meant to exhibit.
    """

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
        self._record(x, y, o)
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

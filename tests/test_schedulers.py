"""Policy behavior: exploration schedule, candidate sets, baselines."""

import collections
import copy
import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duelrank import games, schedulers
from duelrank.config import ALGORITHMS, BASELINES, RunConfig
from duelrank.errors import ConfigError, ContractViolationError, MatrixLoadError
from duelrank.harness import simulate
from duelrank.ratings import (
    initial_features,
    mle_fit,
    sgd_step_elo,
    sgd_step_melo,
)
from duelrank.schedulers import (
    DbgdScheduler,
    Gap,
    MatchEnv,
    MaxInPScheduler,
    MaxInScheduler,
    RandomScheduler,
    RgUcbScheduler,
    g1,
    g2,
    make_scheduler,
    warm_start,
)
from duelrank.tracker import DesignTracker


def build(algo, n, T=500, seed=0, **kw):
    cfg = RunConfig(algo=algo, n=n, T=T, **kw)
    return make_scheduler(cfg, np.random.default_rng(seed))


def env_for(matrix, seed=0):
    return MatchEnv(matrix, np.random.default_rng(seed))


class TestTheorySchedule:
    def test_g1_hand_value(self):
        expected = 2.0 * math.sqrt(math.log(2.0) + 2.0)
        assert g1(1, 2, math.e, 0.25) == pytest.approx(expected)
        assert g1(1, 2, math.e, 0.25) == pytest.approx(3.2822, abs=1e-4)

    def test_g1_increasing_in_t(self):
        vals = [g1(t, 10, 1000, 0.25) for t in range(1, 50)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_g1_inverse_in_c1(self):
        assert g1(5, 4, 100, 0.125) == pytest.approx(
            2.0 * g1(5, 4, 100, 0.25))

    def test_g2_values(self):
        assert g2(1, 14, 14.0) == pytest.approx(1.0)
        j = math.exp(3.0)
        assert g2(j, 14, 14.0) == pytest.approx(2.0)
        assert g2(5, 28, 14.0) == pytest.approx(2.0 * g2(5, 14, 14.0))


class TestConfig:
    def test_tau_default(self):
        cfg = RunConfig(algo="maxin_elo", n=20, T=100).resolve()
        assert cfg.tau == 14
        assert cfg.alpha == 14.0

    def test_tau_must_fit_horizon(self):
        # only the warmup algorithms play tau rounds; the baselines have none
        for algo in ALGORITHMS:
            for kw in (dict(n=20, T=10, tau=10), dict(n=100, T=50)):
                cfg = RunConfig(algo=algo, **kw)
                if algo in BASELINES:
                    assert cfg.resolve().tau >= cfg.T
                    continue
                with pytest.raises(ConfigError) as err:
                    cfg.resolve()
                assert err.value.key == "tau"

    def test_unknown_algo(self):
        with pytest.raises(ConfigError):
            RunConfig(algo="alpha_ig", n=5).resolve()

    def test_make_scheduler_rejects_unknown_algo(self):
        with pytest.raises(ConfigError,
                           match="unknown algorithm: alpha_ig") as err:
            build("alpha_ig", 5)
        assert err.value.key == "algo"

    def test_bad_delta(self):
        with pytest.raises(ConfigError):
            RunConfig(algo="rg_ucb", n=5, delta=1.5).resolve()

    def test_melo_needs_k_before_the_matrix_is_read(self, tmp_path):
        from duelrank.harness import simulate
        missing = str(tmp_path / "missing.csv")
        # MaxIn takes mElo from algo, the three online baselines from melo
        for kw in (dict(algo="maxin_melo"), dict(algo="random", melo=True),
                   dict(algo="rg_ucb", melo=True), dict(algo="dbgd", melo=True)):
            with pytest.raises(ConfigError) as err:
                RunConfig(n=5, k=0, **kw).resolve()
            assert err.value.key == "k"
            # resolve() runs first, so the missing matrix file is never opened
            with pytest.raises(ConfigError):
                simulate(RunConfig(n=5, k=0, matrix=missing, **kw))
            with pytest.raises(MatrixLoadError):
                simulate(RunConfig(n=5, k=1, matrix=missing, **kw))


class TestWarmup:
    def test_tracker_and_buffer_after_warmup(self):
        n, tau = 20, 14
        sched = build("maxin_elo", n, T=100, tau=tau)
        env = env_for(games.gen_elo_game(n, 1.0, 0))
        ref = DesignTracker(n, sched.config.lambda_ridge)
        for _ in range(tau):
            ref.update(*sched.step(env)[:2])
        np.testing.assert_array_equal(sched.tracker.v_inv, ref.v_inv)
        assert sched.history.shape == (0, 3)  # the warmup fit consumed it
        assert sched.sgd is not None

    @pytest.mark.parametrize("algo", ["maxin_elo", "maxin_melo"])
    def test_first_sgd_state_is_warm_start(self, algo):
        """The state after tau rounds is warm_start of the records played,
        with the scheduler's stream as it stood when the last one was."""
        sched = build(algo, 10, T=100, tau=7, k=2, seed=3)
        env = env_for(games.gen_elo_game(10, 1.0, 4))
        records, play_many = [], env.play_many

        def spy(x, y, k):
            o = play_many(x, y, k)
            records.extend(zip(x.tolist(), y.tolist(), o.tolist()))
            spy.rng = copy.deepcopy(sched.rng)
            return o

        env.play_many = spy
        for _ in range(7):
            sched.step(env)
        ref = warm_start(np.array(records), sched.config, spy.rng)
        for f in dataclasses.fields(ref):
            got, want = getattr(sched.sgd, f.name), getattr(ref, f.name)
            if isinstance(want, np.ndarray):
                assert got.tobytes() == want.tobytes(), f.name
            else:
                assert got == want, f.name
        assert (sched.sgd.c_bar is None) == (algo == "maxin_elo")

    def test_deterministic_initial_estimate(self):
        n = 10
        results = []
        for _ in range(2):
            sched = build("maxin_elo", n, T=100, tau=7, seed=42)
            env = env_for(games.gen_triangular(n), seed=5)
            for _ in range(7):
                sched.step(env)
            results.append(sched.estimate().r.copy())
        np.testing.assert_array_equal(results[0], results[1])

    def test_estimate_before_warmup(self):
        for algo in ("maxin_elo", "maxin_melo", "maxinp"):
            sched = build(algo, 10, T=100, tau=7, k=2)
            env = env_for(games.gen_elo_game(10, 1.0, 0))
            first = sched.estimate()
            np.testing.assert_array_equal(first.r, np.zeros(10))
            assert first.c is None
            for _ in range(6):
                sched.step(env)
                assert sched.estimate() is first  # scored once by the run loop
            sched.step(env)
            assert sched.estimate() is not first

    def test_estimate_right_after_warmup_is_mle_center(self):
        sched = build("maxin_elo", 10, T=100, tau=7)
        env = env_for(games.gen_elo_game(10, 1.0, 0))
        for _ in range(7):
            sched.step(env)
        np.testing.assert_array_equal(sched.estimate().r, sched.sgd.center)


def mask_of(members, n):
    mask = np.zeros(n, dtype=bool)
    mask[list(members)] = True
    return mask


def candidates(sched, r, c, gamma):
    """The candidate set S as a sorted list of players."""
    u = sched.tracker.uncertainty_matrix()
    gap = sched._rating_gap(r, c)
    return [int(x) for x in np.flatnonzero(sched._candidate_mask(u, gap, gamma))]


# mElo at a small alpha, replayed by the run oracles with build(seed=3)
# and outcome seed 4: in rounds 25-36 every player is confidently
# dominated, and those rounds select from the fallback S
FALLBACK_RUN = dict(algo="maxin_melo", n=8, T=200, tau=6, alpha=0.1,
                    gamma=1.8, rating_scale=2.0, k=2)


class TestCandidateSet:
    def _warm(self, n, **kw):
        sched = build("maxin_elo", n, T=1000, tau=kw.pop("tau", 3), **kw)
        env = env_for(games.gen_elo_game(n, 1.0, 0))
        for _ in range(sched.config.tau):
            sched.step(env)
        return sched

    def test_tiny_gamma_excludes_weak(self):
        sched = self._warm(2)
        cand = candidates(sched, np.array([1.0, 0.0]), None, gamma=1e-9)
        assert cand == [0]

    def test_large_gamma_includes_all(self):
        sched = self._warm(4)
        r = np.array([3.0, 0.0, -1.0, -2.0])
        u_min = sched.tracker.uncertainty_matrix()
        u_min = u_min[u_min > 0].min()
        gamma = (r.max() - r.min()) / u_min + 1.0
        assert candidates(sched, r, None, gamma) == [0, 1, 2, 3]

    def test_all_equal_ratings(self):
        sched = self._warm(5)
        cand = candidates(sched, np.zeros(5), None, gamma=0.3)
        assert cand == [0, 1, 2, 3, 4]

    def test_argmax_always_inside(self):
        rng = np.random.default_rng(8)
        sched = self._warm(6)
        for _ in range(100):
            r = rng.normal(size=6)
            cand = candidates(sched, r, None, gamma=float(rng.uniform(0.05, 2)))
            assert cand, "candidate set must never be empty"
            assert int(np.argmax(r)) in cand

    def test_melo_cyclic_term_cancels_pairwise(self):
        # h(x,y) + h(y,x) = 2*gamma*u regardless of the cyclic term
        sched = build("maxin_melo", 4, T=1000, tau=3, k=2)
        env = env_for(games.gen_cyclic(4))
        for _ in range(3):
            sched.step(env)
        rng = np.random.default_rng(0)
        r = rng.normal(size=4)
        c = rng.normal(size=(4, 4))
        u = sched.tracker.uncertainty_matrix()
        gamma = 0.7
        h = r[:, None] - r[None, :] + c @ omega(2) @ c.T + gamma * u
        np.testing.assert_allclose(h + h.T, 2 * gamma * u, atol=1e-12)

    def test_nan_ratings_are_a_contract_violation(self):
        sched = self._warm(5)
        with pytest.raises(ContractViolationError):
            sched._select(sched._rating_gap(np.full(5, np.nan), None), 1.0)

    def test_melo_candidate_set_is_never_empty(self):
        simulate(RunConfig(algo="maxin_melo", n=20, gamma=1.8, alpha=0.2,
                           seed=1))

    def test_cycle_of_confident_wins_keeps_the_least_dominated(self):
        """Three players 120 degrees apart in mElo's feature plane beat
        each other in a cycle by more than gamma * u, so each has one
        confident dominator; player 3, rated far below, has three. No
        player is undominated, and S is the cycle."""
        sched = build("maxin_melo", 4, T=100, tau=3, k=1)
        angles = np.deg2rad([0.0, 120.0, 240.0])
        c = np.zeros((4, 2))
        c[:3] = 2.0 * np.column_stack((np.cos(angles), np.sin(angles)))
        r = np.array([0.0, 0.0, 0.0, -10.0])
        u = sched.tracker.uncertainty_matrix()
        h = r[:, None] - r[None, :] + u + c @ omega(1) @ c.T
        np.fill_diagonal(h, np.inf)
        assert (h <= 0.0).sum(axis=1).tolist() == [1, 1, 1, 3]
        assert candidates(sched, r, c, 1.0) == [0, 1, 2]
        expected = reference_pair(u, r, c, omega(1), 1.0)
        assert sched._select(sched._rating_gap(r, c), 1.0) == expected == (0, 1)

    def test_fallback_run_reaches_a_dominated_round(self):
        """FALLBACK_RUN, which the run oracles below replay, selects from
        the fallback S in some rounds: there no player is undominated."""
        sched = build(seed=3, **FALLBACK_RUN)
        cfg = sched.config
        env = env_for(games.gen_elo_game(cfg.n, cfg.rating_scale, 2), seed=4)
        fallback = 0
        for _ in range(cfg.T):
            if sched.sgd is not None:
                r, c = sched.sgd.r_bar, sched.sgd.c_bar
                u = sched.tracker.uncertainty_matrix()
                h = (r[:, None] - r[None, :] + cfg.gamma * u
                     + c @ omega(cfg.k) @ c.T)
                np.fill_diagonal(h, np.inf)
                fallback += not (h.min(axis=1) > 0.0).any()
            sched.step(env)
        assert fallback >= 5


class TestSelectPair:
    def _warm_even(self, n):
        # warm up with a deterministic rotation so every pair count is equal
        sched = build("maxin_elo", n, T=1000, tau=3)
        sched.tracker.__init__(n, 1.0)
        return sched

    def _pair(self, sched, members):
        u = sched.tracker.uncertainty_matrix()
        return sched._select_pair(u, mask_of(members, sched.n))

    def test_fresh_tie_break(self):
        sched = self._warm_even(3)
        assert self._pair(sched, [0, 1, 2]) == (0, 1)

    def test_singleton_returns_self_pair(self):
        sched = self._warm_even(6)
        assert self._pair(sched, [5]) == (5, 5)

    def test_heavily_sampled_pair_avoided(self):
        sched = self._warm_even(3)
        for _ in range(25):
            sched.tracker.update(0, 1)
        x, y = self._pair(sched, [0, 1, 2])
        assert 2 in (x, y)

    def test_empty_mask_is_a_contract_violation(self):
        sched = self._warm_even(4)
        with pytest.raises(ContractViolationError):
            self._pair(sched, [])

    @staticmethod
    def _take_pick(u, mask, argmax):
        """The pick as the sub-matrix u[S][:, S] gives it, copied out."""
        idx = np.flatnonzero(mask)
        i, j = divmod(argmax(u.take(idx, 0).take(idx, 1)), len(idx))
        return int(idx[i]), int(idx[j])

    @staticmethod
    def _random_q(rng, n, idx, kind):
        """A symmetric q with a zero diagonal. kind 1 plants, inside S x S,
        two adjacent doubles with one rounded root, the smaller first in
        row-major order; kind 2 makes S x S <= 0 while the rest is
        positive; kind 3 adds entries just below 0."""
        q = np.triu(rng.uniform(0.0, 1.0, size=(n, n)), 1)
        if kind == 1 and len(idx) >= 3:
            while True:
                base = float(rng.uniform(2.0, 3.0))
                low = math.nextafter(base, -math.inf)
                if math.sqrt(low) == math.sqrt(base):
                    break
            a, b, c = idx[0], idx[1], idx[-1]
            q[a, b], q[b, c] = low, base
        q += q.T
        if kind == 2:
            q[np.ix_(idx, idx)] = -rng.uniform(0.0, 1e-17, (len(idx),) * 2)
        elif kind == 3:
            q[rng.random((n, n)) < 0.2] = -1e-17
            q = np.minimum(q, q.T)
        np.fill_diagonal(q, 0.0)
        return q

    @pytest.mark.parametrize("n", [5, 20, 101])
    @pytest.mark.parametrize("argmax", [schedulers._root_argmax,
                                        lambda a: int(a.argmax())],
                             ids=["root", "plain"])
    def test_pick_equals_the_sub_matrix_pick(self, n, argmax):
        """For every |S| from 2 to n, the pick _select_pair makes without
        copying S x S out is the pick of the copied sub-matrix."""
        rng = np.random.default_rng(n)
        sched = self._warm_even(n)
        for size in range(2, n + 1):
            for kind in range(4):
                mask = mask_of(rng.choice(n, size, replace=False), n)
                q = self._random_q(rng, n, np.flatnonzero(mask), kind)
                want = self._take_pick(q, mask, argmax)
                assert sched._select_pair(q, mask, argmax) == want
                assert sched._select_pair(q, mask, argmax, size) == want
                assert sched._full == (size == n)
                if kind == 2:  # S x S's largest entry is its first, 0
                    first = int(np.flatnonzero(mask)[0])
                    assert want == (first, first)

    def test_all_pass_count_then_one_failing_entry(self):
        """After a round whose S was every player, a passed matrix with one
        failing entry still gives the column reduction's mask."""
        n = 30
        rng = np.random.default_rng(4)
        q = np.triu(rng.uniform(0.1, 1.0, size=(n, n)), 1)
        q += q.T
        sched = build("maxin_elo", n, T=50, tau=4)
        sched.tracker.squared_uncertainty_matrix = lambda: q
        q_min = np.full((n, n), -np.inf)
        sched._select(Gap(np.zeros((n, n)), None, 1.0, q_min), 1.0)
        assert sched._full and sched.selection.mask.all()
        for i, j in [(3, 17), (17, 3), (0, n - 1), (5, 5)]:
            sched._select(Gap(np.zeros((n, n)), None, 1.0, q_min), 1.0)
            assert sched._full
            fails = q_min.copy()
            fails[i, j] = q[i, j]  # q > q is False: this one entry fails
            want = (q > fails).all(axis=0)
            assert np.count_nonzero(want) == n - 1 and not want[j]
            x, y = sched._select(Gap(np.zeros((n, n)), None, 1.0, fails),
                                 1.0)
            assert np.array_equal(sched.selection.mask, want)
            assert not sched._full and want[x] and want[y]


def omega(k):
    """mElo's 2k x 2k block-antisymmetric pairing matrix, built entry by
    entry, independently of the code under test."""
    w = np.zeros((2 * k, 2 * k))
    for i in range(k):
        w[2 * i, 2 * i + 1] = 1.0
        w[2 * i + 1, 2 * i] = -1.0
    return w


def reference_pair(u, r, c, omega_k, gamma):
    """The candidate list and strict-`>` double loop the selection replaced.

    When every player is confidently dominated, the candidates are those
    with the fewest dominators, counted one by one. Returns None for an
    empty candidate set, which only a NaN score leaves.
    """
    n = len(r)
    h = r[:, None] - r[None, :] + gamma * u
    if c is not None:
        h = h + c @ omega_k @ c.T
    np.fill_diagonal(h, np.inf)
    cand = [int(x) for x in np.nonzero(h.min(axis=1) > 0.0)[0]]
    if not cand and not np.isnan(h).any():
        dominators = [sum(1 for y in range(n) if h[x, y] <= 0.0)
                      for x in range(n)]
        cand = [x for x in range(n) if dominators[x] == min(dominators)]
    if not cand:
        return None
    if len(cand) == 1:
        return cand[0], cand[0]
    best_pair, best_val = None, -1.0
    for i, x in enumerate(cand):
        for y in cand[i + 1:]:
            if u[x, y] > best_val:
                best_pair, best_val = (x, y), u[x, y]
    return best_pair


class TestSelectionOracle:
    TRIALS = 60

    @pytest.mark.parametrize("algo", ["maxin_elo", "maxin_melo"])
    @pytest.mark.parametrize("n", [2, 3, 5, 20, 100])
    def test_matches_reference_loop(self, n, algo):
        rng = np.random.default_rng(1000 * n + len(algo))
        sched = build(algo, n, T=1000, tau=1, k=2)
        omega_k = omega(sched.config.k)
        sizes = set()
        for trial in range(self.TRIALS):
            # trial 0 keeps a fresh tracker, where every uncertainty ties
            sched.tracker.__init__(n, 1.0)
            for _ in range(0 if trial == 0 else int(rng.integers(1, 3 * n))):
                x, y = rng.choice(n, size=2, replace=False)
                sched.tracker.update(int(x), int(y))
            r = rng.normal(size=n) * rng.choice([0.1, 1.0, 5.0])
            if trial % 10 == 1:
                r = np.round(r)  # tied ratings
            c = None
            if algo == "maxin_melo":
                c = rng.normal(size=(n, 2 * sched.config.k)) * rng.choice([0.05, 0.5])
            # gamma spans |S| = 1 (tiny) to |S| = n (huge)
            gamma = float(10.0 ** rng.uniform(-6, 3))
            u = sched.tracker.uncertainty_matrix()
            expected = reference_pair(u, r, c, omega_k, gamma)
            gap = sched._rating_gap(r, c)
            if expected is None:
                with pytest.raises(ContractViolationError):
                    sched._select(gap, gamma)
                continue
            assert sched._select(gap, gamma) == expected
            sizes.add(int(sched._candidate_mask(u, gap, gamma).sum()))
        assert 1 in sizes and n in sizes

    @staticmethod
    def _tied_u(n, seed):
        """A symmetric u with a zero diagonal, entries in (0.1, 1), whose
        maximum 1.9 is tied between (1, 7) and (2, 5), and whose runner-up
        1.5 is tied between (4, 6) and (3, 9)."""
        rng = np.random.default_rng(seed)
        u = np.triu(rng.uniform(0.1, 1.0, size=(n, n)), 1)
        u += u.T
        for (x, y), v in {(1, 7): 1.9, (2, 5): 1.9,
                          (4, 6): 1.5, (3, 9): 1.5}.items():
            u[x, y] = u[y, x] = v
        return u

    @pytest.mark.parametrize("members,pair", [
        (range(10), (1, 7)),           # |S| = n: the global tie
        ([1, 2, 5, 7, 8], (1, 7)),     # the global tie inside S
        ([3, 4, 6, 9], (3, 9)),        # a tie only among candidates
        ([0, 3, 4, 6, 9], (3, 9)),     # non-candidates hold the maximum
        ([0, 3, 7], None),             # non-candidate 1 holds (1, 7)
        ([2, 7], (2, 7)),
        ([6], (6, 6)),
    ])
    def test_ties_and_non_candidate_maxima(self, members, pair):
        """Candidates are rated 0 and the rest -10, so gamma = 1 makes S
        exactly `members`; the pair must match the reference loop."""
        n = 10
        sched = build("maxin_elo", n, T=100, tau=1)
        for seed in range(5):
            u = self._tied_u(n, seed)
            r = np.where(mask_of(members, n), 0.0, -10.0)
            mask = sched._candidate_mask(u, sched._rating_gap(r, None), 1.0)
            assert np.array_equal(mask, mask_of(members, n))
            expected = reference_pair(u, r, None, None, 1.0)
            assert sched._select_pair(u, mask) == expected
            if pair is not None:
                assert expected == pair


@st.composite
def round_cases(draw):
    """A small MaxIn or MaxInP run: its config keywords (the matrix seed is
    `seed`) and the seed of its outcome stream."""
    algo = draw(st.sampled_from(["maxin_elo", "maxin_melo", "maxinp"]))
    n = draw(st.integers(3, 16))
    tau = draw(st.integers(1, 2 * n))
    T = tau + draw(st.integers(1, 25 if algo == "maxinp" else 80))
    kw = dict(algo=algo, n=n, T=T, tau=tau, k=draw(st.integers(1, 3)),
              game=draw(st.sampled_from(["elo", "noisy_elo", "triangular",
                                         "cyclic"])),
              rating_scale=draw(st.sampled_from([0.5, 1.0, 3.0])),
              noise=0.1, seed=draw(st.integers(0, 1000)))
    if draw(st.booleans()):
        kw["gamma_mode"] = "theoretical"
    else:
        kw["gamma"] = draw(st.sampled_from([0.2, 1.0, 1.8, 10.0]))
    return kw, draw(st.integers(0, 1000))


class TestRunSelectionOracle:
    """Whole runs: every post-warmup pair equals reference_pair on u, the
    learner's current estimate and gamma, all recomputed that round."""

    # (config, whether the run plays self-pairs)
    CASES = [
        (dict(algo="maxin_elo", n=12, T=400, tau=8, gamma=1.0,
              rating_scale=2.0), True),
        (dict(algo="maxin_elo", n=8, T=300, tau=6, gamma=1.8), False),
        (dict(algo="maxin_elo", n=8, T=300, tau=6,
              gamma_mode="theoretical"), False),
        (dict(algo="maxin_melo", n=8, T=300, tau=6, gamma=1.0, k=2), True),
        (dict(algo="maxin_melo", n=8, T=300, tau=6, gamma_mode="theoretical",
              k=2), False),
        (FALLBACK_RUN, True),
        (dict(algo="maxinp", n=6, T=80, tau=5, gamma=1.8), True),
        (dict(algo="maxinp", n=6, T=60, tau=5, gamma_mode="theoretical"),
         False),
        # n = 100: the two gamma = 0.5 runs hold a pair from round
        # 150-210, after two SGD batches; gamma = 8 keeps |S| = n
        (dict(algo="maxin_elo", n=100, T=300, tau=70, gamma=0.5), False),
        (dict(algo="maxin_melo", n=100, T=300, tau=50, gamma=0.5, k=2),
         False),
        (dict(algo="maxin_elo", n=100, T=300, tau=70, gamma=8.0), False),
        (dict(algo="maxin_melo", n=100, T=300, tau=70, gamma=8.0, k=2),
         False),
        # reaches the fewest-dominators fallback at n = 100
        (dict(algo="maxin_melo", n=100, T=300, tau=70, gamma=1.5, k=2,
              alpha=0.1, rating_scale=2.0), False),
    ]

    @pytest.mark.parametrize("kw,plays_self_pairs", CASES, ids=[
        "-".join(str(kw.get(k, "")) for k in ("algo", "gamma", "gamma_mode"))
        for kw, _ in CASES])
    def test_every_pair_matches_reference(self, kw, plays_self_pairs):
        sched = build(seed=3, **kw)
        cfg = sched.config
        omega_k = omega(cfg.k)
        env = env_for(games.gen_elo_game(cfg.n, cfg.rating_scale, 2), seed=4)
        self_pairs = 0
        for _ in range(cfg.T):
            if sched.t < cfg.tau:
                sched.step(env)
                continue
            if cfg.algo == "maxinp":
                r = mle_fit(sched.history, cfg.n, ridge=cfg.ridge).r
                c = None
            else:
                r, c = sched.sgd.r_bar, sched.sgd.c_bar
            gamma = cfg.gamma
            if cfg.gamma_mode == "theoretical":
                gamma = 2.0 * g1(sched.t + 1, cfg.n, cfg.T, cfg.c1)
            u = sched.tracker.uncertainty_matrix().copy()
            expected = reference_pair(u, r, c, omega_k, gamma)
            x, y, _ = sched.step(env)
            assert (x, y) == expected
            self_pairs += x == y
        if cfg.algo != "maxinp":
            assert sched.sgd.j >= 2
        assert (self_pairs > cfg.T // 2) == plays_self_pairs

    def test_n100_cases_take_every_path(self):
        """Across the n = 100 cases, a threshold round reads S in each of
        its ways at least once: the all-pass count after an |S| = n round,
        the fewest-dominators fallback, and a pick for n/2 < |S| < n,
        2 <= |S| <= n/2 and |S| = 1."""
        paths = collections.Counter()
        for kw, _ in self.CASES:
            if kw["n"] != 100:
                continue
            sched = build(seed=3, **kw)
            n = sched.n
            env = env_for(games.gen_elo_game(n, sched.config.rating_scale, 2),
                          seed=4)
            for _ in range(sched.config.T):
                if sched.sgd is None or sched.held is not None:
                    sched.step(env)
                    continue
                full = sched._full
                passed = (sched.tracker.squared_uncertainty_matrix()
                          > sched._gap.q_min)
                fallback = not passed.all(axis=0).any()
                sched.step(env)
                size = sched.selection.size
                paths["fallback" if fallback
                      else "shortcut" if full and size == n
                      else "all" if size == n
                      else "large" if 2 * size > n
                      else "small" if size > 1 else "one"] += 1
        assert {"shortcut", "fallback", "large", "small", "one"} <= set(paths)

    @given(case=round_cases())
    @settings(max_examples=200, deadline=None)
    def test_random_runs(self, case):
        """Random small runs, round by round: also the warmup fit lands in
        round tau, estimate() keeps its identity rule, and instant regret
        is >= 0."""
        from duelrank.harness import build_matrix
        from duelrank.metrics import instant_regret
        kw, env_seed = case
        sched = build(**kw)
        cfg = sched.config
        matrix = build_matrix(cfg)
        truth = games.true_ratings(matrix, clip_eps=cfg.clip_eps)
        env = env_for(matrix, seed=env_seed)
        omega_k = omega(cfg.k)
        last = sched.estimate()
        bits = last.r.tobytes()
        fits = 0  # learner updates so far: the warmup fit, then batches
        for t in range(1, cfg.T + 1):
            if t > cfg.tau:
                if cfg.algo == "maxinp":
                    r, c = mle_fit(sched.history, cfg.n, ridge=cfg.ridge).r, None
                else:
                    r, c = sched.sgd.r_bar, sched.sgd.c_bar
                gamma = cfg.gamma
                if cfg.gamma_mode == "theoretical":
                    gamma = 2.0 * g1(t, cfg.n, cfg.T, cfg.c1)
                u = sched.tracker.uncertainty_matrix().copy()
                expected = reference_pair(u, r, c, omega_k, gamma)
            x, y, _ = sched.step(env)
            assert sched.t == t
            if t <= cfg.tau:
                assert x < y  # a uniform warmup pair
            else:
                assert (x, y) == expected
            assert instant_regret(truth, x, y) >= 0.0
            if cfg.algo == "maxinp":  # round tau + 1 keeps the round-tau fit
                refit = t == cfg.tau or t > cfg.tau + 1
            else:
                assert (sched.sgd is None) == (t < cfg.tau)
                now = 0 if sched.sgd is None else 1 + sched.sgd.j
                refit, fits = now > fits, now
            est = sched.estimate()
            assert (est is not last) == refit
            if est is last:
                assert est.r.tobytes() == bits
            last, bits = est, est.r.tobytes()


@st.composite
def batch_cases(draw):
    """A small MaxIn run with a fixed gamma: its config keywords and the
    seed of its outcome stream."""
    n = draw(st.integers(3, 30))
    tau = draw(st.integers(1, 2 * n))
    kw = dict(algo=draw(st.sampled_from(["maxin_elo", "maxin_melo"])), n=n,
              T=tau + draw(st.integers(1, 150)), tau=tau,
              k=draw(st.integers(1, 3)),
              game=draw(st.sampled_from(["elo", "noisy_elo", "triangular",
                                         "cyclic"])),
              rating_scale=draw(st.sampled_from([0.5, 1.0, 3.0])),
              noise=0.1, gamma=draw(st.sampled_from([0.2, 1.0, 1.8, 10.0])),
              seed=draw(st.integers(0, 1000)))
    return kw, draw(st.integers(0, 1000))


class TestBatchInvariant:
    """Within one SGD batch the rating gap and gamma are fixed and the
    tracker only gains matches, so S can only shrink and u only fall."""

    # bound on an entry of u's rise within a batch, relative to the entry
    # (rounding only; about 45 ulp). Random runs like these stayed below
    # 3e-15 over 1500 runs and 100k within-batch rounds.
    U_RISE = 1e-14

    @given(case=batch_cases())
    @settings(max_examples=300, deadline=None)
    def test_candidates_never_grow_within_a_batch(self, case):
        from duelrank.harness import build_matrix
        kw, env_seed = case
        sched = build(**kw)
        cfg = sched.config
        env = env_for(build_matrix(cfg), seed=env_seed)
        last = None  # (sgd state, u, S) of the previous post-warmup round
        for _ in range(cfg.T):
            if sched.sgd is not None:
                u = sched.tracker.uncertainty_matrix().copy()
                mask = sched._candidate_mask(u, sched._gap, cfg.gamma)
                if last is not None and last[0] is sched.sgd:
                    _, u_prev, mask_prev = last
                    assert not (mask & ~mask_prev).any()
                    assert (u <= u_prev * (1.0 + self.U_RISE)).all()
                last = sched.sgd, u, mask
            sched.step(env)


class TestMaxInStep:
    def test_melo_batch_exp_overflow_does_not_warn(self):
        # c_tilde grows at alpha = 0.1 until exp(-z) overflows in the
        # batch gradient of round 40; exp -> inf is sigmoid 0.0 all the same
        sched = build("maxin_melo", 12, T=200, seed=3, alpha=0.1, gamma=1.0,
                      k=2)
        env = env_for(games.gen_elo_game(12, 1.0, 2), seed=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(60):
                sched.step(env)
        assert sched.sgd.j >= 2
        assert np.isfinite(sched.estimate().r).all()

    def test_batch_count(self):
        n, tau = 6, 4
        T = tau + 3 * tau
        sched = build("maxin_elo", n, T=T, tau=tau, gamma=50.0)
        env = env_for(games.gen_elo_game(n, 1.0, 1))
        for _ in range(T):
            sched.step(env)
        # gamma large keeps |S| > 1, so no self-pairs stall the buffer
        assert sched.sgd.j == 3

    def test_pairs_come_from_candidate_set(self):
        # S recomputed by the reference test before each round; the round
        # itself selects from q and the batch's thresholds
        sched = build("maxin_elo", 8, T=300, tau=6)
        env = env_for(games.gen_elo_game(8, 1.0, 2))
        active = 0
        for _ in range(100):
            cand = None
            if sched.sgd is not None:
                u = sched.tracker.uncertainty_matrix()
                cand = np.flatnonzero(
                    sched._candidate_mask(u, sched._gap, sched._gamma()))
            x, y, _ = sched.step(env)
            if cand is not None:
                active += 1
                assert x in cand and y in cand
        assert active == 94

    @pytest.mark.parametrize("algo,mode", [
        ("maxin_elo", "fixed"),
        ("maxin_elo", "theoretical"),
        ("maxinp", "fixed"),
    ])
    def test_selects_after_self_pair(self, monkeypatch, algo, mode):
        # force a self-pair on every other selection; the round after it
        # must still select afresh, except under MaxIn's fixed gamma, where
        # the first self-pair is held for the rest of the run
        calls = []
        cls = MaxInPScheduler if algo == "maxinp" else MaxInScheduler
        original = cls._select

        def spy(self, gap, gamma):
            calls.append(gamma)
            x, y = original(self, gap, gamma)
            return (x, x) if len(calls) % 2 else (x, y)

        monkeypatch.setattr(cls, "_select", spy)
        tau, T = 4, 40
        sched = build(algo, 6, T=T, tau=tau, gamma_mode=mode)
        env = env_for(games.gen_elo_game(6, 1.0, 1))
        played = [sched.step(env)[:2] for _ in range(T)]
        if (algo, mode) == ("maxin_elo", "fixed"):
            x, y = played[tau]
            assert len(calls) == 1 and x == y
            assert played[tau:] == [(x, x)] * (T - tau)
        else:
            assert len(calls) == T - tau

    @pytest.mark.parametrize("algo", ["maxin_elo", "maxin_melo"])
    @pytest.mark.parametrize("seed", [1, 2, 6, 7])
    def test_held_pair_is_what_selection_picks(self, algo, seed):
        self._check_hold(build(algo, 20, T=500, tau=80, gamma=1.8, k=1,
                               seed=seed), seed)

    @pytest.mark.parametrize("algo", ["maxin_elo", "maxin_melo"])
    def test_held_pair_is_what_selection_picks_at_n100(self, algo):
        # gamma = 0.5 holds from about round 210; at gamma = 8 no n = 100
        # run short enough for a test holds a pair
        self._check_hold(build(algo, 100, T=300, tau=70, gamma=0.5, k=2,
                               seed=3), 2)

    @staticmethod
    def _check_hold(sched, seed):
        # the oracle for the hold: in every held round, selecting afresh
        # from a copy of the scheduler gives the held pair and a record
        # equal to the frozen one, bit for bit; and so does the reference
        # test, from the uncertainty matrix, on a second copy
        cfg = sched.config
        env = env_for(games.gen_elo_game(cfg.n, 1.0, seed), seed=seed + 100)
        held = 0
        for _ in range(cfg.T):
            if sched.held is not None:
                held += 1
                fresh, ref = copy.deepcopy(sched), copy.deepcopy(sched)
                assert fresh._gap.q_min is not None
                assert fresh._select(fresh._gap, fresh._gamma()) == sched.held
                got, want = fresh.selection, sched.selection
                assert np.array_equal(got.mask, want.mask)
                for a, b in ((got.gamma, want.gamma), (got.u, want.u)):
                    assert np.float64(a).tobytes() == np.float64(b).tobytes()
                u = ref.tracker.uncertainty_matrix()
                mask = ref._candidate_mask(u, ref._gap, cfg.gamma)
                assert np.array_equal(mask, want.mask)
                assert ref._select_pair(u, mask) == sched.held
                assert u.tobytes() == np.sqrt(np.maximum(
                    fresh.tracker.squared_uncertainty_matrix(), 0.0)).tobytes()
                assert np.float64(u.item(*sched.held)).tobytes() == \
                    np.float64(want.u).tobytes()
            sched.step(env)
        assert held > 0  # the run froze

    def test_melo_requires_k(self):
        with pytest.raises(ConfigError):
            build("maxin_melo", 5, k=0)
        for algo in ("random", "rg_ucb", "dbgd"):
            with pytest.raises(ConfigError):
                build(algo, 5, k=0, melo=True)
            build(algo, 5, k=0)  # Elo baselines do not read k

    @pytest.mark.parametrize("algo", ["maxin_elo", "maxin_melo"])
    def test_each_batch_is_tau_informative_records(self, monkeypatch, algo):
        # gamma 1.0 on a spread-out game plays self-pairs, which must not
        # reach a batch
        n, tau, T = 8, 6, 400
        sched = build(algo, n, T=T, tau=tau, gamma=1.0, k=2, seed=3)
        env = env_for(games.gen_elo_game(n, 2.0, 2), seed=4)
        batches = []
        original = schedulers.batch_update

        def spy(sgd, records):
            batches.append(np.array(records).tolist())
            return original(sgd, records)

        monkeypatch.setattr(schedulers, "batch_update", spy)
        played = [sched.step(env) for _ in range(T)]
        informative = [list(m) for m in played[tau:] if m[0] != m[1]]
        assert len(informative) < T - tau  # self-pairs were played
        assert len(batches) == len(informative) // tau >= 2
        assert batches == [informative[i * tau:(i + 1) * tau]
                           for i in range(len(batches))]
        assert sched.sgd.j == len(batches)
        # the log never grew past the batch it holds
        assert len(sched._log) == tau
        assert len(sched.history) == len(informative) % tau

    def test_estimate_mean_tracks_center_when_unprojected(self):
        n = 8
        sched = build("maxin_elo", n, T=400, tau=5, alpha=50.0)
        env = env_for(games.gen_elo_game(n, 1.0, 3))
        for _ in range(400):
            sched.step(env)
        # alpha large keeps steps small; no projection, sum conserved
        assert sched.estimate().r.sum() == pytest.approx(
            sched.sgd.center.sum(), abs=1e-9)


class TestRandomBaseline:
    def test_two_players(self):
        sched = build("random", 2, T=50)
        env = env_for(games.gen_elo_game(2, 1.0, 0))
        assert all(sched.step(env)[:2] == (0, 1) for _ in range(20))

    def test_uniform_pair_frequencies(self):
        n = 5
        sched = build("random", n, T=10)
        counts = {}
        draws = 100_000
        for _ in range(draws):
            pair = sched.uniform_pair()
            counts[pair] = counts.get(pair, 0) + 1
        m = n * (n - 1) // 2
        p = 1.0 / m
        bound = 3 * math.sqrt(draws * p * (1 - p))
        assert len(counts) == m
        for c in counts.values():
            assert abs(c - draws * p) <= bound

    def test_rating_sum_conserved(self):
        sched = build("random", 6, T=200)
        env = env_for(games.gen_elo_game(6, 1.0, 1))
        for _ in range(200):
            sched.step(env)
        assert sched.estimate().r.sum() == pytest.approx(0.0, abs=1e-10)


def pair_index(sched, x, y):
    """Index of pair (x, y) in the scheduler's pair table."""
    return int(np.flatnonzero((sched._iu == x) & (sched._ju == y))[0])


def oracle_learn(sched, x, y, o):
    """One round's SGD step by ratings' scalar step functions, kept as the
    reference scheduler's estimate."""
    step = sgd_step_melo if sched.config.melo else sgd_step_elo
    sched._estimate = step(sched._estimate, x, y, o, sched.config.eta0)


def reference_rg_ucb_step(sched, env):
    """The rg_ucb step the open-pair mask replaced: scan every pair."""
    sched.t += 1
    every = range(len(sched._iu))
    open_idx = [i for i in every if sched._unresolved(i)]
    pool = open_idx if open_idx else every
    idx = pool[int(sched.rng.integers(len(pool)))]
    x, y = int(sched._iu[idx]), int(sched._ju[idx])
    o = env.play(x, y)
    sched.counts[idx] += 1
    sched.wins[idx] += o
    oracle_learn(sched, x, y, o)
    return x, y, o


class TestRgUcb:
    @pytest.mark.parametrize("game", ["triangular", "elo", "even"])
    @pytest.mark.parametrize("n", [2, 3, 5, 12, 30])
    def test_mask_matches_reference_scan(self, n, game):
        matrix = {"triangular": games.gen_triangular(n),
                  "elo": games.gen_elo_game(n, 2.0, 5),
                  "even": games.gen_elo_game(n, 0.0, 5)}[game]
        n_pairs = n * (n - 1) // 2
        # with cap 3 every pair is resolved within 3 * n_pairs rounds, so
        # each n but 30 reaches the all-pairs fallback; n = 30 runs fewer
        # rounds because the reference scan costs O(n^2) a round
        rounds = 100 if n == 30 else min(12 * n_pairs + 50, 400)
        fallback = reopened = 0
        for cap in (3, 10, 200):
            for delta in (0.05, 0.2, 0.5):
                kw = dict(T=rounds + 1, seed=cap, delta=delta)
                sched, ref = build("rg_ucb", n, **kw), build("rg_ucb", n, **kw)
                sched.N_MAX_PER_PAIR = ref.N_MAX_PER_PAIR = cap
                env, ref_env = env_for(matrix, 7), env_for(matrix, 7)
                for _ in range(rounds):
                    before = set(sched._open)
                    fallback += not before
                    assert sched.step(env) == reference_rg_ucb_step(ref,
                                                                     ref_env)
                    assert sched._open == [i for i in range(n_pairs)
                                           if sched._unresolved(i)]
                    reopened += bool(set(sched._open) - before)
                assert (sched.estimate().r.tobytes()
                        == ref.estimate().r.tobytes())
        if n < 30:
            assert fallback > 0
        # Hoeffding-resolved pairs reopen when fallback draws them again
        if game == "even" and n <= 5:
            assert reopened > 0

    def test_unseen_pair_unresolved(self):
        sched = build("rg_ucb", 4)
        assert sched._unresolved(pair_index(sched, 0, 1))

    def test_hoeffding_hand_value(self):
        sched = build("rg_ucb", 4, delta=0.2)
        idx = pair_index(sched, 0, 1)
        sched.counts[idx] = 20
        sched.wins[idx] = 20.0
        half_width = math.sqrt(math.log(10.0) / 40.0)
        assert half_width == pytest.approx(0.2399, abs=1e-4)
        assert not sched._unresolved(idx)  # [0.760, 1] excludes 0.5

    def test_borderline_stays_unresolved(self):
        sched = build("rg_ucb", 4, delta=0.2)
        idx = pair_index(sched, 0, 1)
        sched.counts[idx] = 20
        sched.wins[idx] = 11.0  # p_hat 0.55, inside the interval
        assert sched._unresolved(idx)

    def test_deterministic_game_resolves_all_pairs(self):
        n = 4
        sched = build("rg_ucb", n, T=5000, delta=0.2)
        env = env_for(games.gen_triangular(n))
        # ceil(ln(2/delta) / (2 * 0.25)) samples suffice per pair
        needed = math.ceil(math.log(2 / 0.2) / 0.5)
        for _ in range(needed * n * (n - 1)):
            sched.step(env)
        assert sched.counts.shape == (n * (n - 1) // 2,)
        assert not any(sched._unresolved(i) for i in range(len(sched._iu)))

    def test_cap_forces_resolution(self):
        sched = build("rg_ucb", 3)
        sched.N_MAX_PER_PAIR = 10
        idx = pair_index(sched, 0, 1)
        sched.counts[idx] = 10
        sched.wins[idx] = 5.0  # p_hat exactly 0.5, only the cap resolves it
        assert not sched._unresolved(idx)


class TestDbgd:
    def test_triangular_champion_stable(self):
        sched = build("dbgd", 5, T=100)
        sched.champion = 0
        env = env_for(games.gen_triangular(5))
        for _ in range(60):
            sched.step(env)
            assert sched.champion == 0

    def test_two_players_always_full_pair(self):
        sched = build("dbgd", 2, T=50)
        env = env_for(games.gen_elo_game(2, 1.0, 0))
        assert all(sched.step(env)[:2] == (0, 1) for _ in range(20))

    def test_champion_in_previous_pair(self):
        sched = build("dbgd", 6, T=200, seed=3)
        env = env_for(games.gen_elo_game(6, 1.0, 2), seed=4)
        for _ in range(100):
            x, y, _ = sched.step(env)
            assert sched.champion in (x, y)

    def test_initial_estimate_zero(self):
        sched = build("dbgd", 4)
        np.testing.assert_allclose(sched.estimate().r, 0.0)


class ScalarEnv:
    """MatchEnv's outcomes as one scalar draw per play, the reference for
    its block draws."""

    def __init__(self, matrix, rng):
        self.matrix, self.rng = matrix, rng

    def play(self, x, y):
        return int(self.rng.random() < self.matrix.p[x, y])


def reference_baseline(algo, seed, **kw):
    """An online baseline whose stream is replayed from seed by scalar
    draws: the mElo features, then dbgd's champion, as __init__ draws
    them, and then one draw per step (reference_baseline_step)."""
    sched = build(algo, seed=seed, **kw)
    rng = sched.rng = np.random.default_rng(seed)
    if sched.config.melo:
        initial_features(rng, sched.n, sched.config.k)
    if algo == "dbgd":
        sched.champion = int(rng.integers(sched.n))
    return sched


def reference_baseline_step(sched, env):
    """The baseline step before block draws and block learning: one
    scalar rng.integers call for the pair index, the opponent or rg_ucb's
    open pair, then one ratings.sgd_step_elo or sgd_step_melo."""
    if isinstance(sched, RgUcbScheduler):
        return reference_rg_ucb_step(sched, env)
    sched.t += 1
    if isinstance(sched, DbgdScheduler):
        champ = sched.champion
        opponent = int(sched.rng.integers(sched.n - 1))
        opponent += opponent >= champ
        x, y = min(champ, opponent), max(champ, opponent)
        o = env.play(x, y)
        if (o if x == champ else 1 - o) == 0:
            sched.champion = opponent
    else:
        x, y = sched._pair(int(sched.rng.integers(len(sched._iu))))
        o = env.play(x, y)
    oracle_learn(sched, x, y, o)
    return x, y, o


class TestBlockDraws:
    """A block of k draws gives the values of k scalar draws."""

    # rng.integers(b) for b = n - 1 (dbgd's opponents) and n(n-1)/2 (the
    # random pair index) at n = 9 and n = 100; skip scalar draws come
    # first, so an odd skip starts integers' block inside a 64-bit word
    @pytest.mark.parametrize("skip", [0, 1])
    @pytest.mark.parametrize("k", [0, 1, 63, 64, 65, 785])
    @pytest.mark.parametrize("bound", [None, 8, 36, 99, 4950],
                             ids=["random", "8", "36", "99", "4950"])
    def test_vector_draw_is_scalar_draws(self, bound, k, skip):
        def draw(rng, **size):
            if bound is None:
                return rng.random(**size)
            return rng.integers(bound, **size)

        vector, scalar = np.random.default_rng(2), np.random.default_rng(2)
        for _ in range(skip):
            assert draw(vector) == draw(scalar)
        got = draw(vector, size=k)
        want = [draw(scalar) for _ in range(k)]
        assert got.dtype == np.asarray(draw(np.random.default_rng(0))).dtype
        assert got.shape == (k,) and got.tolist() == want
        assert vector.bit_generator.state == scalar.bit_generator.state

    def test_outcome_stream_matches_scalar_draws(self):
        n = 7
        m = games.gen_elo_game(n, 2.0, 1)
        env, ref = env_for(m, seed=5), ScalarEnv(m, np.random.default_rng(5))
        pick = np.random.default_rng(9)

        def pairs(k):  # k pairs as index arrays, self-pairs included
            return pick.integers(n, size=k), pick.integers(n, size=k)

        # (how, k, pairs): "play" plays each match by env.play, "plays"
        # by one env.plays(k), "many" by one env.play_many, on one pair or
        # on index arrays; "draw" takes k uniforms from env.rng itself,
        # which the scalar side takes from its stream too
        script = [("play", 1, (0, 1)), ("many", 0, (2, 2)),
                  ("plays", 64, (1, 4)), ("many", 1, (3, 3)),
                  ("many", 785, pairs(785)), ("play", 64, (6, 5)),
                  ("plays", 0, (0, 2)), ("many", 64, (4, 4)),
                  ("draw", 3, (0, 0)), ("plays", 785, pairs(785)),
                  ("many", 0, pairs(0)), ("play", 1, (1, 2)),
                  ("plays", 1, (5, 5)), ("many", 64, pairs(64)),
                  ("many", 785, (0, 6)), ("plays", 64, pairs(64))]
        for how, k, (x, y) in script:
            xs, ys = (np.broadcast_to(a, k).tolist() for a in (x, y))
            if how == "draw":
                got = env.rng.random(k).tolist()
                assert got == [ref.rng.random() for _ in range(k)]
                continue
            want = [ref.play(a, b) for a, b in zip(xs, ys)]
            if how == "play":
                got = [env.play(a, b) for a, b in zip(xs, ys)]
            elif how == "plays":
                play = env.plays(k)
                got = [play(a, b) for a, b in zip(xs, ys)]
            else:
                got = env.play_many(x, y, k)
                assert got.dtype == np.int64 and got.shape == (k,)
                got = got.tolist()
            assert got == want
        assert env.rng.bit_generator.state == ref.rng.bit_generator.state

    @pytest.mark.parametrize("melo", [False, True])
    @pytest.mark.parametrize("algo", ["random", "dbgd"])
    def test_baseline_pairs_match_scalar_draws(self, algo, melo):
        n, T = 9, 785
        kw = dict(n=n, T=T, melo=melo, k=2)
        m = games.gen_elo_game(n, 1.0, 4)
        sched, ref = build(algo, seed=8, **kw), reference_baseline(
            algo, 8, **kw)
        if algo == "dbgd":
            assert sched.champion == ref.champion
        env, ref_env = env_for(m, seed=6), ScalarEnv(
            m, np.random.default_rng(6))
        for _ in range(T):
            assert sched.step(env) == reference_baseline_step(ref, ref_env)
        est, ref_est = sched.estimate(), ref.estimate()
        assert est.r.tobytes() == ref_est.r.tobytes()
        if melo:
            assert est.c.tobytes() == ref_est.c.tobytes()


class TestBlockPlay:
    """An online baseline's play(env, k, m) gives, bit for bit, the matches
    and per-round ratings of a scalar oracle: one draw per round and one
    ratings.sgd_step_elo or sgd_step_melo per round."""

    # calls: all T rounds in one, or as run_replicate makes them, stopping
    # at 64 new estimates, or a step before each call of at most 40
    @pytest.mark.parametrize("calls", ["one", "blocks", "mixed"])
    @pytest.mark.parametrize("T", [2, 63, 64, 65, 785])
    @pytest.mark.parametrize("melo", [False, True], ids=["elo", "melo"])
    @pytest.mark.parametrize("algo", ["random", "dbgd", "rg_ucb"])
    def test_rows_match_scalar_oracle(self, algo, melo, T, calls):
        n = 9
        kw = dict(n=n, T=T, melo=melo, k=2)
        matrix = games.gen_noisy_elo_game(n, 1.0, 0.1, 4)
        sched, ref = build(algo, seed=8, **kw), reference_baseline(
            algo, 8, **kw)
        env, ref_env = env_for(matrix, seed=6), ScalarEnv(
            matrix, np.random.default_rng(6))
        want, want_rows = [], []
        for _ in range(T):
            want.append(reference_baseline_step(ref, ref_env))
            want_rows.append(ref.estimate().r.tobytes())
        m = {"one": T, "blocks": 64, "mixed": 40}[calls]
        got, got_rows = [], []
        while len(got) < T:
            if calls == "mixed":
                got.append(sched.step(env))
                got_rows.append(sched.estimate().r.tobytes())
                if len(got) == T:
                    break
            x, y, o, rows, at = sched.play(env, T - len(got), m)
            k = min(T - len(got), m)
            assert all(a.dtype == np.int64 and a.shape == (k,)
                       for a in (x, y, o))
            assert rows.shape == (k, n) and at.tolist() == list(range(k))
            got += zip(x.tolist(), y.tolist(), o.tolist())
            got_rows += [row.tobytes() for row in rows]
            assert sched.estimate().r.tobytes() == got_rows[-1]
        assert got == want
        assert got_rows == want_rows
        if melo:
            assert sched.estimate().c.tobytes() == ref.estimate().c.tobytes()

    @pytest.mark.parametrize("algo", ["random", "dbgd", "rg_ucb"])
    def test_play_leaves_earlier_estimates_alone(self, algo):
        sched = build(algo, 6, T=200, melo=True, k=2)
        env = env_for(games.gen_elo_game(6, 1.0, 1))
        sched.play(env, 1, 1)
        est = sched.estimate()
        kept = est.r.copy(), est.c.copy()
        rows = sched.play(env, 70, 100)[3]
        assert sched.estimate() is not est
        assert not np.shares_memory(rows, est.r)
        assert est.r.tobytes() == kept[0].tobytes()
        assert est.c.tobytes() == kept[1].tobytes()


def reference_maxin_step(sched, env):
    """MaxIn's round before play drew a segment at a time: one scalar
    rng.integers call for a warmup pair, one scalar outcome draw, and the
    record logged, the tracker updated and a full log fitted per round."""
    sched.t += 1
    if sched.held is not None:
        x, y = sched.held
    elif sched.sgd is None:
        x, y = sched.uniform_pair()
    else:
        x, y = sched._select(sched._gap, sched._gamma())
        if x == y and sched.config.gamma_mode == "fixed":
            sched.held = x, y
    o = env.play(x, y)
    if x != y:  # self-pairs carry zero information
        sched._log[sched._logged] = x, y, o
        sched._logged += 1
        sched.tracker.update(x, y)
        if sched._logged == sched.config.tau:
            sched._fit_batch()
    return x, y, o


class TestMaxInBlockPlay:
    """MaxIn's play(env, k, m) gives, bit for bit, the matches, the new
    estimates and their rounds, both random streams after every call, and
    the final tracker, log and learner of a scalar oracle: a
    reference_maxin_step per round, reporting each round's estimate if it
    is not the one reported last."""

    # (config, the round whose self-pair is held, or None)
    CASES = [
        (dict(algo="maxin_elo", n=12, T=400, tau=8, gamma=1.0,
              rating_scale=2.0), 81),
        (dict(algo="maxin_melo", n=8, T=400, tau=6, gamma=1.0, k=2), 25),
        (dict(algo="maxin_elo", n=8, T=300, tau=6, gamma=1.8), None),
        (dict(algo="maxin_elo", n=8, T=300, tau=6,
              gamma_mode="theoretical"), None),
        (dict(algo="maxin_melo", n=8, T=300, tau=6, gamma_mode="theoretical",
              k=2), None),
        # every round fits a batch of one; "blocks" ends calls at round 64
        (dict(algo="maxin_elo", n=4, T=131, tau=1, gamma_mode="theoretical"),
         None),
        (dict(algo="maxin_melo", n=6, T=200, tau=1, gamma=1.0, k=2), 50),
    ]

    # calls: all T rounds in one; as run_replicate makes them, stopping at
    # 64 new estimates; stopping at the 3rd, so every call after the first
    # ends on a batch's fit; or a step before each call of at most 40
    @pytest.mark.parametrize("calls", ["one", "blocks", "m3", "mixed"])
    @pytest.mark.parametrize("kw,freeze", CASES, ids=[
        "-".join(str(kw.get(k, "")) for k in ("algo", "tau", "gamma_mode"))
        for kw, _ in CASES])
    def test_matches_scalar_oracle(self, kw, freeze, calls):
        kw = dict(kw, seed=3)
        matrix = games.gen_elo_game(kw["n"], kw.get("rating_scale", 1.0), 2)
        sched, ref = build(**kw), build(**kw)
        env = env_for(matrix, seed=4)
        ref_env = ScalarEnv(matrix, np.random.default_rng(4))
        T = sched.config.T
        want, states, reported, last = [], [], {}, None
        for t in range(T):
            want.append(reference_maxin_step(ref, ref_env))
            states.append((ref.rng.bit_generator.state,
                           ref_env.rng.bit_generator.state))
            if ref.estimate() is not last:
                last = ref.estimate()
                reported[t] = last.r.tobytes()
        m = {"one": T, "blocks": 64, "m3": 3, "mixed": 40}[calls]
        got, got_rows = [], {}
        while len(got) < T:
            if calls == "mixed":
                got.append(sched.step(env))
                reported.pop(len(got) - 1, None)  # step returns no rows
                if len(got) == T:
                    break
            x, y, o, rows, at = sched.play(env, T - len(got), m)
            assert all(a.dtype == np.int64 and a.shape == x.shape
                       for a in (x, y, o))
            assert len(rows) == len(at) <= m and at.dtype == np.intp
            if len(at) == m:  # the call stopped at its m-th estimate
                assert at[-1] == len(x) - 1
            got_rows.update((len(got) + int(i), row.tobytes())
                            for i, row in zip(at, rows))
            got += zip(x.tolist(), y.tolist(), o.tolist())
            assert (sched.rng.bit_generator.state,
                    env.rng.bit_generator.state) == states[len(got) - 1]
        assert got == want
        assert got_rows == reported
        assert sched.t == ref.t == T
        assert sched.held == ref.held
        assert (sched.held is None) == (freeze is None)
        if freeze is not None:
            x, y = np.array(want).T[:2]
            assert (x[freeze - 1:] == y[freeze - 1:]).all()
            assert x[freeze - 2] != y[freeze - 2]
        assert sched.tracker.v_inv.tobytes() == ref.tracker.v_inv.tobytes()
        assert sched.history.tobytes() == ref.history.tobytes()
        assert sched.sgd.j >= 1
        for f in dataclasses.fields(ref.sgd):
            a, b = getattr(sched.sgd, f.name), getattr(ref.sgd, f.name)
            if isinstance(b, np.ndarray):
                assert a.tobytes() == b.tobytes(), f.name
            else:
                assert a == b, f.name


class TestMaxInP:
    def test_history_length_equals_rounds(self):
        n, T = 6, 60
        sched = build("maxinp", n, T=T, tau=4)
        env = env_for(games.gen_elo_game(n, 1.0, 5))
        played = []
        # past T, the log outgrows its first allocation twice
        for t in range(1, 2 * T + 2):
            played.append(sched.step(env))
            assert len(sched.history) == t
        assert sched.history.tolist() == [list(m) for m in played]

    def test_same_estimate_gives_same_candidates(self):
        elo = build("maxin_elo", 6, T=100, tau=4, seed=1)
        mip = build("maxinp", 6, T=100, tau=4, seed=1)
        env_a = env_for(games.gen_elo_game(6, 1.0, 0), seed=2)
        env_b = env_for(games.gen_elo_game(6, 1.0, 0), seed=2)
        for _ in range(4):
            elo.step(env_a)
            mip.step(env_b)
        r = np.array([0.5, 0.1, -0.2, 0.0, 0.3, -0.7])
        assert candidates(elo, r, None, 0.8) == candidates(mip, r, None, 0.8)

    def test_estimate_is_latest_mle(self):
        sched = build("maxinp", 5, T=50, tau=3)
        env = env_for(games.gen_elo_game(5, 1.0, 1))
        for _ in range(10):
            sched.step(env)
        # the last step refit before it logged its own match
        ref = mle_fit(sched.history[:-1], 5, ridge=sched.config.ridge)
        assert sched.estimate().r.tobytes() == ref.r.tobytes()

    def test_fits_only_a_grown_log(self, monkeypatch):
        # one fit ends the warmup and serves round tau + 1; every later
        # round refits the log, one match longer than at the last fit
        fitted = []

        def spy(history, n, **kw):
            fitted.append(len(history))
            return mle_fit(history, n, **kw)

        monkeypatch.setattr(schedulers, "mle_fit", spy)
        sched = build("maxinp", 20, T=200, tau=14)
        env = env_for(games.gen_elo_game(20, 1.0, 3))
        for _ in range(200):
            sched.step(env)
        assert len(fitted) == 200 - 14
        assert fitted == [14, *range(15, 200)]


# between them these runs select with |S| = 1, 1 < |S| < n and |S| = n
SELECTION_RUNS = [
    dict(algo="maxin_elo", n=12, T=300, tau=8, gamma=1.0, rating_scale=2.0),
    dict(algo="maxin_elo", n=8, T=200, tau=6, gamma_mode="theoretical"),
    dict(algo="maxin_melo", n=8, T=200, tau=6, gamma=1.0, k=2),
    FALLBACK_RUN,
    dict(algo="maxinp", n=6, T=60, tau=5, gamma=1.8),
    dict(algo="maxinp", n=6, T=40, tau=5, gamma_mode="theoretical"),
    *[dict(algo=algo, n=100, T=300, tau=70, gamma=gamma, k=2)
      for algo in ("maxin_elo", "maxin_melo") for gamma in (0.5, 8.0)],
]


class TestSelectionRecord:
    """`selection` holds what each post-warmup round chose: its mask
    equals `_candidate_mask` recomputed from the state before the round,
    and its gamma and u are that round's, bit for bit. Fixed-gamma MaxIn
    rounds select from q and the batch's thresholds; the rest from u."""

    @pytest.mark.parametrize("kw", SELECTION_RUNS, ids=[
        "-".join(str(kw.get(k, "")) for k in ("algo", "gamma", "gamma_mode"))
        for kw in SELECTION_RUNS])
    def test_record_matches_recomputed_mask(self, kw):
        sched = build(seed=3, **kw)
        cfg = sched.config
        env = env_for(games.gen_elo_game(cfg.n, cfg.rating_scale, 2), seed=4)
        kept, thresholded = [], 0
        for t in range(1, cfg.T + 1):
            if t <= cfg.tau:
                assert sched.selection is None
                sched.step(env)
                assert sched.selection is None
                continue
            if cfg.algo == "maxinp":
                r = mle_fit(sched.history, cfg.n, ridge=cfg.ridge).r
                gap = sched._rating_gap(r, None)
            else:
                gap = sched._gap
                thresholded += gap.q_min is not None
            gamma = cfg.gamma
            if cfg.gamma_mode == "theoretical":
                gamma = 2.0 * g1(t, cfg.n, cfg.T, cfg.c1)
            u = sched.tracker.uncertainty_matrix().copy()
            mask = sched._candidate_mask(u, gap, gamma).copy()
            x, y, _ = sched.step(env)
            rec = sched.selection
            assert np.array_equal(rec.mask, mask)
            assert rec.size == np.count_nonzero(mask)
            assert rec.gamma == gamma
            assert rec.u == u[x, y]
            assert np.float64(rec.u).tobytes() == u[x, y].tobytes()
            assert rec.mask[x] and rec.mask[y]
            kept.append((rec, mask))
        fixed_maxin = cfg.algo != "maxinp" and cfg.gamma_mode == "fixed"
        assert thresholded == (cfg.T - cfg.tau if fixed_maxin else 0)
        # records stay as they were made: no later round writes into them
        assert all(np.array_equal(rec.mask, mask) for rec, mask in kept)


class TestNoHeldBufferEscapes:
    """The held work buffers never reach a caller or another scheduler."""

    def test_candidate_mask_is_a_new_array(self):
        sched = build("maxin_elo", 6, T=100, tau=4)
        env = env_for(games.gen_elo_game(6, 1.0, 0))
        for _ in range(4):
            sched.step(env)
        u = sched.tracker.uncertainty_matrix()
        gap = sched._rating_gap(np.array([3.0, 1.0, 0.5, 0.0, -1.0, -2.0]),
                                None)
        first = sched._candidate_mask(u, gap, 1e-9)
        kept = first.copy()
        second = sched._candidate_mask(u, gap, 1e3)
        assert first is not second
        assert not np.shares_memory(first, second)
        assert np.array_equal(first, kept)
        assert kept.tolist() == [True] + [False] * 5
        assert second.all()

    @staticmethod
    def _runs(configs, interleave):
        """Each config's (x, y, o) per round and the selection records it
        left, stepping the schedulers in turn or one whole run at a time."""
        scheds = [build(seed=seed, **kw) for seed, kw in configs]
        envs = [env_for(games.gen_elo_game(kw["n"], 1.0, seed), seed=seed)
                for seed, kw in configs]
        played = [[] for _ in scheds]
        records = [[] for _ in scheds]
        order = ([range(len(scheds))] * scheds[0].config.T if interleave
                 else [[i] * s.config.T for i, s in enumerate(scheds)])
        for turn in order:
            for i in turn:
                played[i].append(scheds[i].step(envs[i]))
                records[i].append(scheds[i].selection)
        return played, records

    @pytest.mark.parametrize("configs", [
        [(1, dict(algo="maxin_elo", n=10, T=150, tau=7, gamma=1.0)),
         (2, dict(algo="maxin_elo", n=10, T=150, tau=5, gamma=1.8))],
        [(1, dict(algo="maxin_melo", n=10, T=150, tau=7, gamma=1.0, k=2)),
         (2, dict(algo="maxinp", n=7, T=150, tau=5, gamma=1.8))],
    ], ids=["same-n", "mixed"])
    def test_schedulers_in_turn_play_as_each_alone(self, configs):
        alone = [self._runs([c], interleave=False) for c in configs]
        played, records = self._runs(configs, interleave=True)
        for i, (alone_played, alone_records) in enumerate(alone):
            assert played[i] == alone_played[0]
            assert len(records[i]) == len(alone_records[0])
            for rec, ref in zip(records[i], alone_records[0]):
                assert (rec is None) == (ref is None)
                if rec is not None:
                    assert np.array_equal(rec.mask, ref.mask)
                    assert (rec.gamma, rec.u) == (ref.gamma, ref.u)


class TestRoundAllocation:
    """A fixed-gamma threshold round at n = 100 makes no n x n temporary:
    its tracemalloc peak stays below one n x n float64 array (80 kB) for
    |S| = n, n/2 < |S| < n and |S| <= n/2. At numpy's default buffer size
    each broadcast op's ufunc buffers add about 128 kB, so the test
    shrinks them."""

    def test_threshold_round_peak_is_below_one_matrix(self):
        n, peaks = 100, {}
        old = np.setbufsize(16)
        try:
            sched = build("maxin_melo", n, T=300, tau=70, gamma=1.5, k=2,
                          alpha=0.1, rating_scale=2.0, seed=3)
            env = env_for(games.gen_elo_game(n, 2.0, 2), seed=4)
            for _ in range(sched.config.T):
                if sched.sgd is None or sched._logged + 1 == sched.config.tau:
                    sched.step(env)  # the warmup, or a round ending a batch
                    continue
                assert sched._gap.q_min is not None
                tracemalloc.start()
                try:
                    sched.step(env)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                if sched.held is not None:
                    break
                size = sched.selection.size
                key = "all" if size == n else "large" if 2 * size > n else "small"
                peaks[key] = max(peaks.get(key, 0), peak)
        finally:
            np.setbufsize(old)
        assert set(peaks) == {"all", "large", "small"}
        assert max(peaks.values()) < n * n * 8, peaks


class TestDeterminism:
    @pytest.mark.parametrize("algo", ["maxin_elo", "maxin_melo", "random",
                                      "rg_ucb", "dbgd", "maxinp"])
    def test_identical_runs(self, algo):
        m = games.gen_elo_game(8, 1.0, 0)
        seqs = []
        for _ in range(2):
            sched = build(algo, 8, T=80, tau=5, seed=7)
            env = env_for(m, seed=9)
            seqs.append([sched.step(env) for _ in range(80)])
        assert seqs[0] == seqs[1]

"""Policy behavior: exploration schedule, candidate sets, baselines."""

import copy
import dataclasses
import math
import warnings
from functools import partial

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
        records, play = [], env.play

        def spy(x, y):
            o = play(x, y)
            records.append((x, y, o))
            spy.rng = copy.deepcopy(sched.rng)
            return o

        env.play = spy
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

    def test_pairs_come_from_candidate_set(self, monkeypatch):
        sched = build("maxin_elo", 8, T=300, tau=6)
        env = env_for(games.gen_elo_game(8, 1.0, 2))
        seen = []
        original = MaxInScheduler._candidate_mask

        def spy(self, u, gap, gamma):
            mask = original(self, u, gap, gamma)
            seen.append([int(x) for x in np.flatnonzero(mask)])
            return mask

        monkeypatch.setattr(MaxInScheduler, "_candidate_mask", spy)
        played = []
        for _ in range(100):
            played.append(sched.step(env))
        active = played[6:]
        assert len(seen) == len(active)
        for (x, y, _), cand in zip(active, seen):
            assert x in cand and y in cand

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
        # the oracle for the hold: in every held round, selecting afresh
        # from a copy of the scheduler gives the held pair and a record
        # equal to the frozen one, bit for bit
        T = 500
        sched = build(algo, 20, T=T, tau=80, gamma=1.8, k=1, seed=seed)
        env = env_for(games.gen_elo_game(20, 1.0, seed), seed=seed + 100)
        held = 0
        for _ in range(T):
            if sched.held is not None:
                held += 1
                fresh = copy.deepcopy(sched)
                assert fresh._select(fresh._gap, fresh._gamma()) == sched.held
                got, want = fresh.selection, sched.selection
                assert np.array_equal(got.mask, want.mask)
                for a, b in ((got.gamma, want.gamma), (got.u, want.u)):
                    assert np.float64(a).tobytes() == np.float64(b).tobytes()
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
    """Streams drawn B values at a time give the scalar draws' values."""

    @pytest.mark.parametrize("kind", ["integers", "random"])
    def test_take_keeps_the_stream_dtype_and_values(self, kind):
        def stream(seed):
            rng = np.random.default_rng(seed)
            return rng.random if kind == "random" else partial(rng.integers, 10)

        blocks, scalar = schedulers._Blocks(stream(2)), stream(2)
        dtype = scalar(size=0).dtype
        B = schedulers.B

        def buffered():
            return len(blocks._vals) - blocks._next

        # (how many values, taken at once or one call each); None takes
        # exactly what the current block has left
        script = [(3, True),           # nothing buffered
                  (1, False), (5, True),   # a partial block
                  (None, True),        # the exact rest of a block
                  (4, True),           # nothing buffered after a drained block
                  (2, False), (2 * B + 3, True),  # more than B values
                  (1, False), (B + 1, True), (B, False), (B - 1, True)]
        seen = []
        for k, at_once in script:
            if k is None:
                k = buffered()
            seen.append(buffered())
            want = [scalar() for _ in range(k)]
            if at_once:
                got = blocks.take(k)
                assert got.dtype == dtype and got.shape == (k,)
                assert got.tolist() == want
            else:
                assert [blocks() for _ in range(k)] == want
        assert seen[:6] == [0, 0, B - 1, B - 6, 0, 0]
        assert [blocks() for _ in range(B)] == [scalar() for _ in range(B)]

    def test_outcome_stream_matches_scalar_draws(self):
        m = games.gen_elo_game(7, 2.0, 1)
        env, ref = env_for(m, seed=5), ScalarEnv(m, np.random.default_rng(5))
        B = schedulers.B

        def rest():  # what is left of the env's current block
            return len(env.random._vals) - env.random._next

        # (pair, plays, whether they are one play_many); a None count is
        # the rest of the current block
        script = [((0, 1), 3, False), ((2, 2), 0, True), ((1, 4), 1, False),
                  ((3, 3), 1, True), ((5, 6), None, True), ((6, 5), 2, False),
                  ((4, 4), 2 * B + 7, True), ((0, 6), B + 1, False),
                  ((2, 2), None, True), ((1, 1), 0, True), ((1, 2), 1, False),
                  ((3, 3), B - 1, True), ((3, 3), 1, True)]
        seen_rest = set()
        for (x, y), k, many in script:
            if k is None:
                k = rest()
                seen_rest.add(k)
            want = [ref.play(x, y) for _ in range(k)]
            if many:
                got = env.play_many(x, y, k)
                assert got.dtype == np.int64 and got.shape == (k,)
                assert got.tolist() == want
            else:
                assert [env.play(x, y) for _ in range(k)] == want
        assert 0 not in seen_rest and B not in seen_rest
        assert ([env.play(0, 3) for _ in range(3 * B)]
                == [ref.play(0, 3) for _ in range(3 * B)])

    @pytest.mark.parametrize("melo", [False, True])
    @pytest.mark.parametrize("algo", ["random", "dbgd"])
    def test_baseline_pairs_match_scalar_draws(self, algo, melo):
        n, T = 9, 3 * schedulers.B + 17
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
    @pytest.mark.parametrize("T", [2, 63, 64, 65, 3 * schedulers.B + 17])
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
]


class TestSelectionRecord:
    """`selection` holds what each post-warmup round chose: its mask
    equals `_candidate_mask` recomputed from the state before the round."""

    @pytest.mark.parametrize("kw", SELECTION_RUNS, ids=[
        "-".join(str(kw.get(k, "")) for k in ("algo", "gamma", "gamma_mode"))
        for kw in SELECTION_RUNS])
    def test_record_matches_recomputed_mask(self, kw):
        sched = build(seed=3, **kw)
        cfg = sched.config
        env = env_for(games.gen_elo_game(cfg.n, cfg.rating_scale, 2), seed=4)
        kept = []
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
            assert rec.mask[x] and rec.mask[y]
            kept.append((rec, mask))
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

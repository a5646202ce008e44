"""MaxIn's per-batch thresholds: q > Q is the candidate sign test, and the
pair read from q is the pair read from its square root."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from duelrank import games, schedulers
from duelrank.config import RunConfig
from duelrank.errors import ContractViolationError
from duelrank.schedulers import Gap, MatchEnv, _root_argmax, make_scheduler
from duelrank.thresholds import _least, pass_thresholds

GAMMAS = [0.3, 0.5, 1.0, 1.8, 8.0, 21.7, 33.0]
TINY = 5e-324


def sign_test(q, d, c, gamma):
    """h > 0 entry by entry, by the operations _candidate_mask makes:
    u = sqrt(q) clamped at 0, gamma * u, + d, then + c."""
    u = np.sqrt(np.maximum(q, 0.0))
    h = np.multiply(gamma, u)
    np.add(d, h, out=h)
    if c is not None:
        np.add(h, c, out=h)
    return h > 0.0


@st.composite
def gaps(draw):
    """A gap d (inf diagonal) with zeros of both signs, ties and values from
    subnormal to large; with or without a cyclic term c, which may cancel
    d to within a few ulps; and a gamma."""
    n = draw(st.integers(2, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-310, 1e-8, 0.01, 1.0, 30.0, 1e150]))
    d = rng.normal(size=(n, n)) * scale
    pick = rng.random((n, n))
    d[pick < 0.1] = 0.0
    d[(pick >= 0.1) & (pick < 0.2)] = -0.0
    d[(pick >= 0.2) & (pick < 0.3)] = d.flat[0]  # ties
    np.fill_diagonal(d, np.inf)
    kind = draw(st.sampled_from(["none", "random", "cancel"]))
    c = None
    if kind == "random":
        c = rng.normal(size=(n, n)) * scale
    elif kind == "cancel":
        off = np.where(np.isfinite(d), d, 0.0)
        c = -off
        for _ in range(3):  # a few ulps either way
            step = rng.integers(-1, 2, size=(n, n))
            c = np.where(step == 0, c, np.nextafter(c, np.copysign(np.inf,
                                                                   step)))
    return d, c, draw(st.sampled_from(GAMMAS))


@given(case=gaps(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
@example(case=(np.array([[np.inf, -0.0], [0.0, np.inf]]), None, 0.3), seed=0)
def test_threshold_is_the_sign_test(case, seed):
    d, c, gamma = case
    q_min = pass_thresholds(d, c, gamma)
    assert q_min.shape == d.shape
    assert (np.diagonal(q_min) == -np.inf).all()
    rng = np.random.default_rng(seed)
    finite = np.isfinite(q_min)
    top = q_min[finite].max() if finite.any() else 1.0
    assert_threshold(q_min, d, c, gamma, [
        rng.uniform(0.0, min(2.0 * top + 1.0, 1e308), d.shape),
        rng.uniform(0.0, 1e-300, d.shape), np.zeros(d.shape),
        np.full(d.shape, -0.0), np.full(d.shape, -TINY),
        np.full(d.shape, -1e-300)])


def assert_threshold(q_min, d, c, gamma, probes):
    """q > q_min is the sign test at q_min, next to it on either side, and
    at every probe; a q that is NaN or -inf is replaced by 0.5."""
    with np.errstate(over="ignore"):
        for q in [q_min, np.nextafter(q_min, np.inf),
                  np.nextafter(q_min, -np.inf), *probes]:
            q = np.where(np.isfinite(q), q, 0.5)
            assert np.array_equal(q > q_min, sign_test(q, d, c, gamma))


def test_large_gamma_overflow_and_huge_gaps():
    """Entries that need q near the top of the double range, and gaps
    that pass or fail whatever q is (no q can make -1e300 pass)."""
    d = np.array([[np.inf, -1e300, -1.0], [1e300, np.inf, -1e-300],
                  [1.0, 1e-300, np.inf]])
    for gamma in (1e-300, 1e-3, 1.0, 1e300):
        for c in (None, -d.T):
            c = None if c is None else np.where(np.isfinite(c), c, 0.0)
            q_min = pass_thresholds(d, c, gamma)
            assert_threshold(q_min, d, c, gamma, [np.full((3, 3), 1e308)])


def test_a_window_that_misses_falls_back_to_bisection():
    """Guesses far below, near and far above the least passing pattern."""
    v = np.array([0.0, TINY, 1e-310, 1.0, 3.5, 1e300, np.inf])
    want = v.view(np.int64)
    for shift in (-10**15, -1000, -3, 0, 2, 5000, 10**15):
        guess = np.maximum(want + shift, 0)
        got = _least(lambda b, v: b.view(np.float64) >= v, guess, v,
                     below=1, width=2)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("algo", ["maxin_elo", "maxin_melo"])
def test_nan_gap_is_a_contract_violation_on_the_batch_path(monkeypatch,
                                                           algo):
    """A warm start with NaN ratings (or features) gives no thresholds, and
    the round after it raises, as the direct test does."""
    def nan_start(*args):
        state = start(*args)
        if state.c_bar is None:
            return dataclasses.replace(state, r_bar=np.full_like(state.r_bar,
                                                                 np.nan))
        return dataclasses.replace(state, c_bar=np.full_like(state.c_bar,
                                                             np.nan))

    start = schedulers.warm_start
    monkeypatch.setattr(schedulers, "warm_start", nan_start)
    sched = make_scheduler(RunConfig(algo=algo, n=6, T=50, tau=4, k=1),
                           np.random.default_rng(0))
    env = MatchEnv(games.gen_elo_game(6, 1.0, 0), np.random.default_rng(0))
    for _ in range(4):
        sched.step(env)
    assert sched.sgd is not None and sched._gap.q_min is None
    with pytest.raises(ContractViolationError):
        sched.step(env)


def tied_roots(rng, n):
    """A symmetric q with a zero diagonal whose two largest entries share
    one square root, the smaller one first in row-major order."""
    base = float(rng.uniform(0.5, 3.0))
    while True:
        low = math.nextafter(base, -math.inf)
        if math.sqrt(low) == math.sqrt(base):
            break
        base = float(rng.uniform(0.5, 3.0))
    q = np.triu(rng.uniform(0.0, 0.4, size=(n, n)), 1)
    q[0, 1 + n // 3], q[1, n - 1] = low, base
    q += q.T
    return q


def root_select(q, mask):
    """Selection from q with thresholds that make S exactly mask."""
    n = len(mask)
    sched = make_scheduler(RunConfig(algo="maxin_elo", n=n, T=50, tau=4),
                           np.random.default_rng(0))
    q_min = np.where(mask[None, :], -np.inf, np.inf) * np.ones((n, 1))
    sched.tracker.squared_uncertainty_matrix = lambda: q
    x, y = sched._select(Gap(np.zeros((n, n)), None, 1.0, q_min), 1.0)
    return sched, (x, y)


@pytest.mark.parametrize("n", [3, 8, 20])
@pytest.mark.parametrize("members", ["all", "ties", "one"])
def test_pair_read_from_q_is_the_pair_read_from_its_root(n, members):
    rng = np.random.default_rng(n)
    for trial in range(20):
        q = tied_roots(rng, n)
        if trial % 5 == 4:
            q = np.where(q > 0.1, q, -rng.uniform(0, 1e-17, (n, n)))
        if trial % 10 == 9:
            q = -np.abs(q)  # every root is 0
        np.fill_diagonal(q, 0.0)
        mask = np.ones(n, dtype=bool)
        if members == "ties":
            mask[rng.random(n) < 0.3] = False
            mask[[0, 1, 1 + n // 3, n - 1]] = True
        elif members == "one":
            mask[:] = False
            mask[rng.integers(n)] = True
        sched, pair = root_select(q, mask)
        u = np.sqrt(np.maximum(q, 0.0))
        want = sched._select_pair(u, mask)
        assert pair == want
        got, ref = sched.selection.u, u.item(*want)
        assert np.float64(got).tobytes() == np.float64(ref).tobytes()
        assert np.array_equal(sched.selection.mask, mask)
        if members == "all" and trial % 5 < 4:
            assert pair == (0, 1 + n // 3)  # the smaller q, first


def test_root_argmax_of_ties_and_non_positive_q():
    q = np.array([0.0, 2.0, math.nextafter(2.0, 3.0), 1.0])
    assert math.sqrt(q[1]) == math.sqrt(q[2])
    assert _root_argmax(q) == 1
    assert _root_argmax(np.array([-1e-300, -0.0, -2.0])) == 0
    assert _root_argmax(np.array([1.0, 4.0])) == 1

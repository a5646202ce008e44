"""Sherman-Morrison inverse maintenance and pairwise uncertainties."""

import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duelrank.errors import ConfigError
from duelrank.tracker import DesignTracker


def direct_inverse(n, lam, updates):
    v = lam * np.eye(n)
    for x, y in updates:
        u = np.zeros(n)
        u[x], u[y] = 1.0, -1.0
        v += np.outer(u, u)
    return np.linalg.inv(v)


class TestInit:
    def test_identity(self):
        tr = DesignTracker(2, 1.0)
        np.testing.assert_allclose(tr.v_inv, np.eye(2))

    def test_scaled(self):
        tr = DesignTracker(3, 2.0)
        np.testing.assert_allclose(tr.v_inv, 0.5 * np.eye(3))

    def test_symmetric(self):
        tr = DesignTracker(7, 0.3)
        np.testing.assert_allclose(tr.v_inv, tr.v_inv.T)

    def test_bad_params(self):
        with pytest.raises(ConfigError, match="lambda_ridge must be positive"):
            DesignTracker(3, 0.0)
        with pytest.raises(ConfigError, match="need at least 2 players, got 1"):
            DesignTracker(1, 1.0)


class TestUpdate:
    def test_single_update_closed_form(self):
        tr = DesignTracker(2, 1.0)
        tr.update(0, 1)
        # inverse of [[2, -1], [-1, 2]]
        np.testing.assert_allclose(
            tr.v_inv, [[2 / 3, 1 / 3], [1 / 3, 2 / 3]], atol=1e-12)

    @pytest.mark.parametrize("n,seed", [(5, 0), (12, 1), (20, 2)])
    def test_matches_direct_inverse(self, n, seed):
        rng = np.random.default_rng(seed)
        tr = DesignTracker(n, 1.0)
        updates = []
        for _ in range(500):
            x, y = rng.choice(n, size=2, replace=False)
            tr.update(int(x), int(y))
            updates.append((int(x), int(y)))
        ref = direct_inverse(n, 1.0, updates)
        assert np.max(np.abs(tr.v_inv - ref)) < 1e-8

    def test_no_drift_after_many_updates(self):
        # the inverse is never re-inverted, so rank-1 rounding must not pile up
        n, count = 20, 100_000
        rng = np.random.default_rng(3)
        xs = rng.integers(n, size=count)
        ys = rng.integers(n - 1, size=count)
        ys += ys >= xs
        tr = DesignTracker(n, 1.0)
        for x, y in zip(xs.tolist(), ys.tolist()):
            tr.update(x, y)
        v = np.eye(n)
        np.add.at(v, (xs, xs), 1.0)
        np.add.at(v, (ys, ys), 1.0)
        np.add.at(v, (xs, ys), -1.0)
        np.add.at(v, (ys, xs), -1.0)
        ref = np.linalg.inv(v)
        assert np.max(np.abs(tr.v_inv - ref)) <= 1e-10 * np.max(np.abs(ref))

    def test_self_pair_is_a_bitwise_noop(self):
        """u = e_x - e_x is zero, so the rank-1 term is +0.0 everywhere;
        the suite's filterwarnings = error also rules out a warning."""
        rng = np.random.default_rng(0)
        tr = DesignTracker(5, 0.7)
        for updates in (0, 40):
            for _ in range(updates):
                tr.update(*(int(v) for v in rng.choice(5, size=2,
                                                       replace=False)))
            before = tr.v_inv.tobytes()
            for x in range(5):
                tr.update(x, x)
                assert tr.v_inv.tobytes() == before

    def test_update_shrinks_own_uncertainty(self):
        tr = DesignTracker(4, 1.0)
        before = tr.pair_uncertainty(0, 1)
        tr.update(0, 1)
        assert tr.pair_uncertainty(0, 1) < before


class TestPairUncertainty:
    def test_fresh_tracker(self):
        tr = DesignTracker(5, 1.0)
        for x in range(5):
            for y in range(5):
                expected = 0.0 if x == y else np.sqrt(2.0)
                assert tr.pair_uncertainty(x, y) == pytest.approx(expected)

    def test_symmetry(self):
        tr = DesignTracker(6, 1.0)
        rng = np.random.default_rng(3)
        for _ in range(50):
            x, y = rng.choice(6, size=2, replace=False)
            tr.update(int(x), int(y))
        for x in range(6):
            for y in range(6):
                assert tr.pair_uncertainty(x, y) == tr.pair_uncertainty(y, x)
            # d + d - 2d cancels exactly, without a self-pair branch
            got = tr.pair_uncertainty(x, x)
            assert got == 0.0 and not np.signbit(got)

    def test_monotone_under_any_update(self):
        rng = np.random.default_rng(5)
        tr = DesignTracker(6, 1.0)
        for _ in range(200):
            before = tr.uncertainty_matrix().copy()
            x, y = rng.choice(6, size=2, replace=False)
            tr.update(int(x), int(y))
            after = tr.uncertainty_matrix()
            assert np.all(after <= before + 1e-10)

    def test_repeated_pair_sequence_matches_direct(self):
        tr = DesignTracker(3, 1.0)
        updates = []
        prev = np.inf
        for _ in range(30):
            tr.update(0, 1)
            updates.append((0, 1))
            ref = direct_inverse(3, 1.0, updates)
            expected = np.sqrt(ref[0, 0] + ref[1, 1] - 2 * ref[0, 1])
            got = tr.pair_uncertainty(0, 1)
            assert got == pytest.approx(expected, abs=1e-10)
            assert got < prev
            prev = got

    def test_uncertainty_matrix_matches_scalar(self):
        tr = DesignTracker(5, 1.0)
        rng = np.random.default_rng(9)
        for _ in range(40):
            x, y = rng.choice(5, size=2, replace=False)
            tr.update(int(x), int(y))
        u = tr.uncertainty_matrix()
        for x in range(5):
            for y in range(5):
                assert u[x, y] == pytest.approx(tr.pair_uncertainty(x, y))


def reference_update(v_inv, x, y):
    """The allocating Sherman-Morrison step the in-place update replaced."""
    vu = v_inv[:, x] - v_inv[:, y]
    denom = 1.0 + (vu[x] - vu[y])
    term = np.outer(vu, vu)
    term /= denom
    return v_inv - term


def reference_uncertainty(v_inv):
    """The allocating uncertainty matrix the buffered one replaced."""
    d = np.diag(v_inv)
    q = d[:, None] + d[None, :] - 2.0 * v_inv
    np.fill_diagonal(q, 0.0)
    return np.sqrt(np.maximum(q, 0.0))


class TestBuffersMatchReference:
    @pytest.mark.parametrize("n", [2, 5, 100])
    def test_bit_equal_to_allocating_reference(self, n):
        rng = np.random.default_rng(40 + n)
        for lam in (0.3, 1.0, 2.0):
            tr = DesignTracker(n, lam)
            ref = tr.v_inv.copy()
            for step in range(200):
                x, y = (int(v) for v in rng.choice(n, size=2, replace=False))
                tr.update(x, y)
                ref = reference_update(ref, x, y)
                assert tr.v_inv.tobytes() == ref.tobytes()
                if step % 7 == 0:
                    u = tr.uncertainty_matrix()
                    assert u.tobytes() == reference_uncertainty(ref).tobytes()
                    # +0.0 exactly, without the reference's fill_diagonal
                    assert not np.signbit(np.diag(u)).any()
                    assert not np.diag(u).any()

    @pytest.mark.parametrize("updates", [0, 40])
    def test_negative_q_is_clamped_to_zero(self, updates):
        """Rounding that drives an off-diagonal q below 0 still reads 0.0,
        as the unconditional clamp gave, and sqrt never sees it."""
        rng = np.random.default_rng(updates)
        tr = DesignTracker(6, 1.0)
        for _ in range(updates):
            tr.update(*(int(v) for v in rng.choice(6, size=2, replace=False)))
        vi = tr.v_inv
        # q[1, 4] = d_1 + d_4 - 2 v_14 becomes a few ulp below zero
        vi[1, 4] = vi[4, 1] = np.nextafter(0.5 * (vi[1, 1] + vi[4, 4]), 9.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u = tr.uncertainty_matrix()
        assert (vi[1, 1] + vi[4, 4]) - 2.0 * vi[1, 4] < 0.0
        assert u[1, 4] == 0.0 and u[4, 1] == 0.0
        assert not np.signbit(u[1, 4])
        assert u.tobytes() == reference_uncertainty(vi).tobytes()
        # the scalar lookup clamps the same q, without a warning either
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = tr.pair_uncertainty(1, 4)
        assert got == 0.0 and not np.signbit(got)
        assert np.float64(got).tobytes() == u[1, 4].tobytes()

    def test_nan_passes_through_without_warning(self):
        tr = DesignTracker(4, 1.0)
        tr.update(0, 2)
        tr.v_inv[0, 3] = tr.v_inv[3, 0] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u = tr.uncertainty_matrix()
        assert np.isnan(u[0, 3]) and np.isnan(u[3, 0])
        assert np.array_equal(u, reference_uncertainty(tr.v_inv),
                              equal_nan=True)

    @pytest.mark.parametrize("n,count", [(3, 100_000), (50, 10_000)])
    def test_off_diagonal_q_stays_positive(self, n, count):
        """q >= 2 / (lambda + 2t) > 0, so the clamp never fires in a run:
        one pair over and over at n=3, random pairs at n=50."""
        rng = np.random.default_rng(n)
        if n == 3:
            pairs = [(0, 1)] * count
        else:
            xs = rng.integers(n, size=count)
            ys = rng.integers(n - 1, size=count)
            pairs = zip(xs.tolist(), (ys + (ys >= xs)).tolist())
        tr = DesignTracker(n, 1.0)
        off = ~np.eye(n, dtype=bool)
        for t, (x, y) in enumerate(pairs, start=1):
            tr.update(x, y)
            if t % 1000 == 0:
                d = np.diag(tr.v_inv)
                q = d[:, None] + d[None, :] - 2.0 * tr.v_inv
                assert q[off].min() > 0.0, t
        assert (tr.uncertainty_matrix()[off] > 0.0).all()

    def test_uncertainty_matrix_reuses_its_buffer(self):
        tr = DesignTracker(4, 1.0)
        first = tr.uncertainty_matrix()
        tr.update(0, 1)
        assert tr.uncertainty_matrix() is first


@st.composite
def pair_sequences(draw):
    n = draw(st.integers(2, 30))
    pair = st.tuples(st.integers(0, n - 1), st.integers(1, n - 1)).map(
        lambda p: (p[0], (p[0] + p[1]) % n))  # never a self-pair
    pairs = draw(st.lists(pair, max_size=60))
    return n, draw(st.sampled_from([0.1, 0.5, 1.0, 3.0])), pairs


@given(case=pair_sequences())
@settings(max_examples=60, deadline=None)
def test_v_inv_symmetric_and_zero_uncertainty_diagonal(case):
    n, lam, pairs = case
    tr = DesignTracker(n, lam)
    for x, y in pairs:
        tr.update(x, y)
        assert np.array_equal(tr.v_inv, tr.v_inv.T)
        u = tr.uncertainty_matrix()
        assert np.array_equal(np.diag(u), np.zeros(n))


def _time_updates(n, count):
    tr = DesignTracker(n, 1.0)
    rng = np.random.default_rng(0)
    pairs = [tuple(rng.choice(n, size=2, replace=False)) for _ in range(count)]
    best = np.inf
    for _ in range(5):
        tr = DesignTracker(n, 1.0)
        start = time.perf_counter()
        for x, y in pairs:
            tr.update(int(x), int(y))
        best = min(best, time.perf_counter() - start)
    return best


def test_update_cost_scales_quadratically_at_most():
    # coarse: doubling n should not blow past the O(n^2) budget
    t_small = _time_updates(64, 300)
    t_large = _time_updates(128, 300)
    assert t_large <= 4.5 * t_small

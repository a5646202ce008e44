"""Sherman-Morrison inverse maintenance and pairwise uncertainties."""

import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from numpy._core.multiarray import c_einsum

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

    @pytest.mark.parametrize("lam", [
        -1.0, -0.0, np.nan, np.inf, -np.inf, 1e-320, np.float64(1e-320),
        5e-324, 1e-200, 9.9e-151])
    def test_ridge_must_keep_v_inv_finite(self, lam):
        """1 / lambda is V^{-1}'s diagonal: inf there (a subnormal ridge)
        fills V^{-1} with NaN, a NaN or infinite ridge gives a NaN or an
        all-zero V^{-1}, and below about 1.5e-154 the first rank-1 term,
        up to (2 / lambda)^2, overflows. Each is a ConfigError, raised
        without a warning."""
        with pytest.raises(ConfigError, match="lambda_ridge must be positive,"
                           " finite and at least 1e-150") as exc:
            DesignTracker(4, lam)
        assert exc.value.key == "lambda_ridge"

    @pytest.mark.parametrize("lam", [1e-150, np.float64(1e-150), 1e300])
    def test_extreme_ridges_keep_v_inv_finite(self, lam):
        rng = np.random.default_rng(1)
        tr = DesignTracker(6, lam)
        for _ in range(30):
            tr.update(*(int(v) for v in rng.choice(6, size=2, replace=False)))
            assert np.isfinite(tr.v_inv).all()
            assert np.isfinite(tr.squared_uncertainty_matrix()).all()


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


def has_negative_zero(a):
    return bool(np.signbit(a[a == 0.0]).any())


class TestBuffersMatchReference:
    @pytest.mark.parametrize("n", [2, 5, 20, 100])
    def test_bit_equal_to_allocating_reference(self, n):
        """Bit for bit against the broadcast reference, V^{-1} after every
        update and q with it. The sequences open with disjoint pairs, as a
        warmup's first uniform pairs mostly are: their vu mixes exact zeros
        with negative entries, so the broadcast's term holds -0.0 products
        where einsum's holds +0.0. V^{-1} never holds -0.0, which is why
        the two terms subtract to the same bits. The second sequence grows
        one chain, so vu's support is the chain's players: exactly n/2 (the
        last update that writes vu's rows alone), then n/2 + 1 (the first
        full update); a pair of two other players then writes two rows."""
        rng = np.random.default_rng(40 + n)
        half = n // 2
        negative_zero_terms = 0
        for lam, start in ((0.3, "disjoint"), (1.0, "disjoint"),
                           (2.0, "disjoint"), (0.3, "chain"), (1.0, "chain")):
            tr = DesignTracker(n, lam)
            ref = tr.v_inv.copy()
            if start == "disjoint":
                pairs = [(x, x + 1) for x in range(0, n - 1, 2)]
            else:  # supports 2, 3, ..., half + 1, then a pair off the chain
                pairs = [(x, x + 1) for x in range(half)] + [(n - 2, n - 1)]
            pairs += [
                tuple(int(v) for v in rng.choice(n, size=2, replace=False))
                for _ in range(200)]
            for step, (x, y) in enumerate(pairs):
                vu = ref[:, x] - ref[:, y]
                negative_zero_terms += has_negative_zero(np.outer(vu, vu))
                tr.update(x, y)
                ref = reference_update(ref, x, y)
                assert tr.v_inv.tobytes() == ref.tobytes()
                assert not has_negative_zero(tr.v_inv)
                d = np.diag(ref)
                assert tr.squared_uncertainty_matrix().tobytes() == (
                    d[:, None] + d[None, :] - 2.0 * ref).tobytes()
                if step % 7 == 0:
                    u = tr.uncertainty_matrix()
                    assert u.tobytes() == reference_uncertainty(ref).tobytes()
                    # +0.0 exactly, without the reference's fill_diagonal
                    assert not np.signbit(np.diag(u)).any()
                    assert not np.diag(u).any()
        # at n = 2 every vu is (a, -a), with no zero to sign
        assert (negative_zero_terms > 0) == (n > 2)

    def test_rows_written_follow_vu_support(self, monkeypatch):
        """The rank-1 term's shape tells the path: |k| x n rows while vu's
        support k is at most n/2 long, n x n otherwise, and n x n only once
        a vu has had no zero, even for a V^{-1} written back
        block-diagonal. Every step keeps the reference's bits."""
        import duelrank.tracker as tracker_module
        shapes = []

        def spy(subscripts, *operands, out):
            if subscripts == "i,j->ij":
                shapes.append(out.shape)
            return c_einsum(subscripts, *operands, out=out)

        monkeypatch.setattr(tracker_module, "c_einsum", spy)
        n = 20
        tr = DesignTracker(n, 1.0)
        ref = tr.v_inv.copy()

        def update(x, y):
            nonlocal ref
            before = len(shapes)
            tr.update(x, y)
            ref = reference_update(ref, x, y)
            assert tr.v_inv.tobytes() == ref.tobytes()
            assert len(shapes) == before + 1
            return shapes[-1]

        before = tr.v_inv.tobytes()
        assert update(3, 3) == (0, n)  # a self-pair: no row to write
        assert tr.v_inv.tobytes() == before
        assert update(0, 1) == (2, n)
        assert update(5, 6) == (2, n)  # disjoint from (0, 1)
        assert update(1, 5) == (4, n)  # joins the two: support 4
        for x in range(6, 12):  # the chain 0, 1, 5, 6, ... reaches n/2
            assert update(x, x + 1) == (x - 1, n)
        assert update(12, 13) == (n, n)  # |k| = n/2 + 1: the full term
        assert update(15, 16) == (2, n)  # rows again: a zero was left
        before = tr.v_inv.tobytes()
        assert update(4, 4) == (0, n)
        assert tr.v_inv.tobytes() == before
        # each vu has a zero entry until the last player joins
        chain = [13, 14, 15, 16, 17, 18, 19, 2, 3]
        assert all(update(a, b) == (n, n) for a, b in zip(chain, chain[1:]))
        assert update(3, 4) == (n, n)  # reaches every player
        for x, y in ((0, 1), (2, 9), (7, 7)):
            assert update(x, y) == (n, n)
        # written back block-diagonal, V^{-1}'s vu is sparse again, but
        # the graph it came from is connected, so the test stays off
        tr.v_inv[...] = ref = np.eye(n)
        assert update(0, 1) == (n, n)

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

    def test_uncertainty_matrix_is_the_clamped_root_of_q(self):
        """q is d_i + d_j - 2 V^{-1}_ij bit for bit, in the same buffer as
        u, and u is sqrt(max(q, 0)) bit for bit."""
        rng = np.random.default_rng(4)
        tr = DesignTracker(30, 1.0)
        for _ in range(300):
            x, y = rng.choice(30, size=2, replace=False)
            tr.update(int(x), int(y))
            d = np.diag(tr.v_inv)
            q = tr.squared_uncertainty_matrix()
            assert q.tobytes() == (d[:, None] + d[None, :]
                                   - 2.0 * tr.v_inv).tobytes()
            root = np.sqrt(np.maximum(q, 0.0))
            assert tr.uncertainty_matrix() is q
            assert q.tobytes() == root.tobytes()


def test_update_and_q_make_no_matrix_temporary():
    """At n = 100, update and squared_uncertainty_matrix each peak below
    one n x n float64 array (80 kB) in tracemalloc, as TestRoundAllocation
    asks of a whole round: einsum's iterator allocates no n x n buffer.
    numpy's default ufunc buffers alone would add about 128 kB, so the
    test shrinks them. A chain of n/2 players on a disconnected graph ends
    in the largest update that writes vu's rows alone: n/2 of them, read
    into and written back from held buffers."""
    n, peaks = 100, {"update": 0, "q": 0, "update |k| = n/2": 0}
    rng = np.random.default_rng(7)
    random_pairs = [tuple(int(v) for v in rng.choice(n, size=2, replace=False))
                    for _ in range(50)]
    chain = [(x, x + 1) for x in range(n // 2 - 1)]  # |k| = 2, ..., n/2
    old = np.setbufsize(16)
    try:
        for pairs in (random_pairs, chain):
            tr = DesignTracker(n, 1.0)
            for x, y in pairs:
                support = np.count_nonzero(tr.v_inv[x] - tr.v_inv[y])
                for name, call in (("update", lambda: tr.update(x, y)),
                                   ("q", tr.squared_uncertainty_matrix)):
                    tracemalloc.start()
                    try:
                        call()
                        peak = tracemalloc.get_traced_memory()[1]
                    finally:
                        tracemalloc.stop()
                    if name == "update" and 2 * support == n:
                        name = "update |k| = n/2"
                    peaks[name] = max(peaks[name], peak)
    finally:
        np.setbufsize(old)
    assert peaks["update |k| = n/2"] > 0
    assert max(peaks.values()) < n * n * 8, peaks


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

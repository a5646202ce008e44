"""Prediction, loss, gradient steps, projection, batch SGD, and MLE."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duelrank import harness, ratings, schedulers
from duelrank.config import RunConfig
from duelrank.errors import ConfigError, ContractViolationError, SolverError
from duelrank.ratings import (
    RatingState,
    SgdState,
    batch_update,
    elo_loss,
    mle_fit,
    predict_elo,
    predict_melo,
    project,
    sgd_step_elo,
    sgd_step_melo,
)


def melo_state(r, c):
    return RatingState(r=np.asarray(r, dtype=float),
                       c=np.asarray(c, dtype=float))


class TestPredict:
    def test_equal_ratings(self):
        s = RatingState(r=np.array([1.3, 1.3]))
        assert predict_elo(s, 0, 1) == 0.5

    def test_sigma_two(self):
        s = RatingState(r=np.array([2.0, 0.0]))
        assert predict_elo(s, 0, 1) == pytest.approx(0.880797, abs=1e-6)

    @given(st.lists(st.floats(-5, 5), min_size=2, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_antisymmetry(self, rs):
        s = RatingState(r=np.array(rs))
        for x in range(len(rs)):
            for y in range(len(rs)):
                assert predict_elo(s, x, y) + predict_elo(s, y, x) == \
                    pytest.approx(1.0, abs=1e-12)

    def test_melo_zero_features_reduce_to_elo(self):
        s = melo_state([0.7, -0.2], np.zeros((2, 4)))
        assert predict_melo(s, 0, 1) == predict_elo(s, 0, 1)

    def test_melo_unit_cyclic_term(self):
        s = melo_state([0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]])
        assert predict_melo(s, 0, 1) == pytest.approx(0.731059, abs=1e-6)

    def test_melo_self_pair(self):
        rng = np.random.default_rng(0)
        s = melo_state(rng.normal(size=3), rng.normal(size=(3, 4)))
        for x in range(3):
            assert predict_melo(s, x, x) == 0.5

    def test_melo_antisymmetry(self):
        rng = np.random.default_rng(1)
        s = melo_state(rng.normal(size=4), rng.normal(size=(4, 8)))
        for x in range(4):
            for y in range(4):
                assert predict_melo(s, x, y) + predict_melo(s, y, x) == \
                    pytest.approx(1.0, abs=1e-12)

    def test_missing_features(self):
        with pytest.raises(ConfigError):
            predict_melo(RatingState(r=np.zeros(2)), 0, 1)


class TestLoss:
    def test_confident_correct(self):
        assert elo_loss(1, 1 - 1e-12) == pytest.approx(0.0, abs=1e-9)

    def test_coin_flip(self):
        assert elo_loss(1, 0.5) == pytest.approx(math.log(2))

    def test_symmetric_continuous(self):
        assert elo_loss(0.5, 0.5) == pytest.approx(math.log(2))


class TestSgdStepElo:
    def test_forced_step(self):
        s = RatingState(r=np.zeros(2))
        out = sgd_step_elo(s, 0, 1, o=1, eta=0.1)
        np.testing.assert_allclose(out.r, [0.05, -0.05])

    def test_zero_gradient(self):
        s = RatingState(r=np.array([0.4, -0.1]))
        p = predict_elo(s, 0, 1)
        out = sgd_step_elo(s, 0, 1, o=p, eta=0.5)
        np.testing.assert_allclose(out.r, s.r)

    @given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 1),
           st.floats(0.01, 2.0))
    @settings(max_examples=50, deadline=None)
    def test_sum_conserved(self, x, y, o, eta):
        rng = np.random.default_rng(0)
        s = RatingState(r=rng.normal(size=4))
        out = sgd_step_elo(s, x, y, o, eta)
        assert out.r.sum() == pytest.approx(s.r.sum(), abs=1e-12)


def numeric_gradient(f, v, h=1e-6):
    """Central finite differences of f at vector v."""
    g = np.zeros_like(v)
    for i in range(len(v)):
        up, dn = v.copy(), v.copy()
        up[i] += h
        dn[i] -= h
        g[i] = (f(up) - f(dn)) / (2 * h)
    return g


def melo_loss_at(r, c, x, y, o):
    s = melo_state(r, c)
    return elo_loss(o, predict_melo(s, x, y))


class TestGradientOracle:
    """Analytic updates must match finite differences of the composed loss."""

    @pytest.mark.parametrize("seed", range(5))
    def test_elo_gradient(self, seed):
        rng = np.random.default_rng(seed)
        r = rng.normal(size=5)
        x, y = rng.choice(5, size=2, replace=False)
        o = int(rng.integers(2))
        eta = 1.0
        stepped = sgd_step_elo(RatingState(r=r), x, y, o, eta)
        analytic = (stepped.r - r) / -eta  # gradient = -(update)/eta
        numeric = numeric_gradient(
            lambda v: elo_loss(o, predict_elo(RatingState(r=v), x, y)), r)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-8)

    @pytest.mark.parametrize("seed,k", [(0, 1), (1, 2), (2, 4)])
    def test_melo_gradients(self, seed, k):
        rng = np.random.default_rng(seed)
        n = 4
        r = rng.normal(size=n)
        c = rng.normal(size=(n, 2 * k))
        x, y = rng.choice(n, size=2, replace=False)
        o = int(rng.integers(2))
        eta = 1.0
        stepped = sgd_step_melo(melo_state(r, c), x, y, o, eta)
        grad_r = (stepped.r - r) / -eta
        grad_c = (stepped.c - c) / -eta
        num_r = numeric_gradient(lambda v: melo_loss_at(v, c, x, y, o), r)
        np.testing.assert_allclose(grad_r, num_r, rtol=1e-4, atol=1e-8)
        for player in (x, y):
            def loss_wrt_row(row, player=player):
                cc = c.copy()
                cc[player] = row
                return melo_loss_at(r, cc, x, y, o)
            num = numeric_gradient(loss_wrt_row, c[player].copy())
            np.testing.assert_allclose(grad_c[player], num,
                                       rtol=1e-4, atol=1e-8)

    def test_zero_delta_no_change(self):
        rng = np.random.default_rng(3)
        s = melo_state(rng.normal(size=3), rng.normal(size=(3, 2)))
        p = predict_melo(s, 0, 2)
        out = sgd_step_melo(s, 0, 2, o=p, eta=0.7)
        np.testing.assert_allclose(out.r, s.r)
        np.testing.assert_allclose(out.c, s.c)

    def test_melo_zero_features_match_elo(self):
        s = melo_state([0.5, -0.5], np.zeros((2, 2)))
        melo_out = sgd_step_melo(s, 0, 1, o=1, eta=0.2)
        elo_out = sgd_step_elo(s, 0, 1, o=1, eta=0.2)
        np.testing.assert_allclose(melo_out.r, elo_out.r)
        np.testing.assert_allclose(melo_out.c, 0.0)


class TestProject:
    def test_interior_unchanged(self):
        r = np.array([0.5, 0.5])
        np.testing.assert_allclose(project(r, np.zeros(2), 2.0), r)

    def test_boundary_scaling(self):
        out = project(np.array([3.0, 4.0]), np.zeros(2), 2.0)
        np.testing.assert_allclose(out, [1.2, 1.6])

    def test_center_itself(self):
        c = np.array([1.0, -1.0])
        np.testing.assert_allclose(project(c.copy(), c, 2.0), c)

    @given(st.lists(st.floats(-50, 50), min_size=3, max_size=3),
           st.floats(0.1, 5.0))
    @settings(max_examples=50, deadline=None)
    def test_idempotent_and_inside(self, vals, radius):
        r = np.array(vals)
        center = np.array([1.0, 0.0, -1.0])
        once = project(r, center, radius)
        twice = project(once, center, radius)
        assert np.linalg.norm(once - center) <= radius + 1e-12
        np.testing.assert_allclose(twice, once, atol=1e-12)


def fresh_sgd(n, center=None, alpha=1.0, eta0=1.0, melo_k=0, seed=0):
    center = np.zeros(n) if center is None else np.asarray(center, float)
    c = None
    if melo_k:
        c = np.random.default_rng(seed).uniform(-0.1, 0.1, (n, 2 * melo_k))
    return SgdState(r_tilde=center.copy(), r_bar=center.copy(),
                    center=center.copy(), alpha=alpha, eta0=eta0,
                    c_tilde=c, c_bar=None if c is None else c.copy())


class TestBatchUpdate:
    def test_zero_gradient_batch(self):
        sgd = fresh_sgd(2, center=[0.3, -0.3])
        p = float(1 / (1 + np.exp(-0.6)))
        out = batch_update(sgd, [(0, 1, p), (0, 1, p)])
        np.testing.assert_allclose(out.r_tilde, sgd.r_tilde, atol=1e-12)

    def test_single_record_step(self):
        sgd = fresh_sgd(2, alpha=1.0, eta0=1.0)
        out = batch_update(sgd, [(0, 1, 1)])
        np.testing.assert_allclose(out.r_tilde, [0.5, -0.5])
        np.testing.assert_allclose(out.r_bar, [0.5, -0.5])
        assert out.j == 1

    def test_projection_safety(self):
        sgd = fresh_sgd(2, alpha=0.01, eta0=1.0)  # huge step forces projection
        out = batch_update(sgd, [(0, 1, 1)] * 4)
        assert np.linalg.norm(out.r_tilde - out.center) <= 2.0 + 1e-12

    def test_sum_conserved_without_projection(self):
        rng = np.random.default_rng(4)
        sgd = fresh_sgd(5, center=rng.normal(scale=0.1, size=5), alpha=10.0)
        batch = []
        for _ in range(3):
            x, y = rng.choice(5, size=2, replace=False)
            batch.append((int(x), int(y), int(rng.integers(2))))
        out = batch_update(sgd, batch)
        assert out.r_tilde.sum() == pytest.approx(sgd.r_tilde.sum(), abs=1e-12)

    def test_converges_toward_mle(self):
        """Averaged SGD approaches the MLE fit of the same records."""
        from duelrank import games
        n, tau, batches = 20, 14, 200
        m = games.gen_elo_game(n, 1.0, seed=11)
        rng = np.random.default_rng(11)
        history = []
        sgd = fresh_sgd(n, alpha=float(tau))
        gaps = {}
        for j in range(1, batches + 1):
            for _ in range(tau):
                x, y = sorted(rng.choice(n, size=2, replace=False))
                o = games.sample_outcome(m, int(x), int(y), rng)
                history.append((int(x), int(y), o))
            sgd = batch_update(sgd, history[-tau:])
            if j in (10, batches):
                ref = mle_fit(history, n).r
                gaps[j] = float(np.linalg.norm(sgd.r_bar - ref))
        assert gaps[batches] < gaps[10]


class TestMleFit:
    def test_empty_history(self):
        np.testing.assert_allclose(mle_fit([], 3).r, 0.0)

    def test_symmetric_history(self):
        out = mle_fit([(0, 1, 1), (1, 0, 1)], 2)
        np.testing.assert_allclose(out.r, 0.0, atol=1e-8)

    def test_single_win_matches_scalar_oracle(self):
        ridge = 0.01
        out = mle_fit([(0, 1, 1)], 2, ridge=ridge)
        # restriction to mean-zero r = (d/2, -d/2): minimize
        # loss(1, sigma(d)) + ridge/2 * d^2/2 by fine grid + refinement
        def obj(d):
            return elo_loss(1, float(1 / (1 + np.exp(-d)))) + \
                0.25 * ridge * d * d
        grid = np.linspace(0.0, 20.0, 200001)
        d_star = grid[np.argmin([obj(d) for d in grid])]
        assert out.r[0] - out.r[1] == pytest.approx(d_star, abs=1e-3)
        np.testing.assert_allclose(out.r, [d_star / 2, -d_star / 2], atol=1e-3)

    def test_optimality_conditions(self):
        rng = np.random.default_rng(7)
        n = 8
        history = [(int(x), int(y), int(rng.integers(2)))
                   for x, y in rng.integers(0, n, size=(60, 2)) if x != y]
        out = mle_fit(history, n, ridge=1e-4)
        xs = np.array([h[0] for h in history])
        ys = np.array([h[1] for h in history])
        os_ = np.array([h[2] for h in history], dtype=float)

        def objective(r):
            z = r[xs] - r[ys]
            return float(np.sum(os_ * np.logaddexp(0, -z)
                                + (1 - os_) * np.logaddexp(0, z))
                         + 0.5e-4 * np.dot(r, r))

        delta = os_ - 1 / (1 + np.exp(-(out.r[xs] - out.r[ys])))
        g = np.zeros(n)
        np.subtract.at(g, xs, delta)
        np.add.at(g, ys, delta)
        g += 1e-4 * out.r
        assert np.linalg.norm(g) <= 1e-8
        f0 = objective(out.r)
        for _ in range(100):
            u = rng.normal(size=n)
            u /= np.linalg.norm(u)
            assert objective(out.r + 1e-3 * u) >= f0 - 1e-12

    def test_mean_centered(self):
        out = mle_fit([(0, 1, 1), (1, 2, 1), (0, 2, 1)], 3)
        assert out.r.mean() == pytest.approx(0.0, abs=1e-12)

    def test_ridge_required(self):
        with pytest.raises(ConfigError):
            mle_fit([(0, 1, 1)], 2, ridge=0.0)

    # Warmup history of MaxIn on the elo game with matrix seed
    # 2027067442001 (n=20, tau=80, replicate 1). Newton's remaining
    # predicted decrease there is below one ulp of the objective, so the
    # line search cannot move and |g| stalls near 7e-8, above the 1e-8
    # tolerance.
    STALL_HISTORY = [
        (8, 9, 1), (5, 10, 1), (11, 17, 1), (9, 16, 0), (0, 19, 1),
        (11, 18, 1), (0, 5, 0), (5, 13, 1), (13, 14, 0), (1, 16, 1),
        (8, 10, 1), (0, 12, 0), (6, 11, 0), (5, 14, 1), (2, 12, 0),
        (2, 16, 1), (2, 15, 1), (1, 7, 0), (9, 16, 0), (2, 8, 0),
        (3, 6, 1), (4, 8, 0), (4, 18, 1), (2, 11, 0), (2, 13, 1),
        (5, 19, 1), (11, 17, 1), (1, 16, 0), (15, 17, 0), (3, 18, 0),
        (18, 19, 0), (4, 12, 1), (0, 11, 1), (6, 16, 1), (3, 14, 0),
        (9, 17, 0), (0, 19, 0), (4, 16, 1), (1, 18, 0), (11, 15, 0),
        (2, 7, 0), (13, 15, 0), (12, 19, 1), (10, 18, 1), (8, 19, 1),
        (15, 17, 1), (1, 6, 0), (11, 18, 1), (1, 3, 1), (11, 14, 1),
        (15, 16, 1), (1, 18, 1), (6, 16, 0), (0, 6, 1), (3, 9, 0),
        (6, 11, 0), (11, 18, 0), (2, 4, 1), (7, 18, 1), (6, 17, 1),
        (4, 16, 0), (4, 16, 1), (13, 19, 1), (13, 17, 0), (2, 19, 1),
        (4, 18, 0), (3, 8, 0), (4, 12, 0), (8, 19, 1), (1, 10, 1),
        (1, 17, 1), (0, 3, 1), (0, 12, 0), (2, 9, 1), (7, 13, 1),
        (6, 12, 0), (3, 13, 0), (0, 12, 1), (0, 17, 0), (17, 18, 1),
    ]

    def test_accepts_optimum_below_objective_rounding(self):
        h = self.STALL_HISTORY
        out = mle_fit(h, 20, ridge=2.0)
        xs, ys = np.array(h)[:, 0], np.array(h)[:, 1]
        delta = np.array(h)[:, 2] - 1 / (1 + np.exp(-(out.r[xs] - out.r[ys])))
        g = np.zeros(20)
        np.subtract.at(g, xs, delta)
        np.add.at(g, ys, delta)
        g += 2.0 * out.r
        # the ridge makes the objective 2-strongly convex, so this puts
        # out.r within 5e-8 of the optimum
        assert np.linalg.norm(g) <= 1e-7
        assert out.r.mean() == pytest.approx(0.0, abs=1e-12)

    def test_still_raises_far_from_optimum(self, monkeypatch):
        monkeypatch.setattr(ratings, "MLE_MAX_ITER", 1)
        with pytest.raises(SolverError):
            mle_fit(self.STALL_HISTORY, 20, ridge=2.0)

    def test_array_history_matches_list(self):
        h = self.STALL_HISTORY
        out = mle_fit(np.array(h, dtype=np.int64), 20, ridge=2.0)
        assert out.r.tobytes() == mle_fit(h, 20, ridge=2.0).r.tobytes()

    def test_empty_array_history(self):
        assert mle_fit(np.empty((0, 3), dtype=np.int64), 4).r.tobytes() \
            == np.zeros(4).tobytes()

    def test_results_share_no_memory(self, monkeypatch):
        h = np.array(self.STALL_HISTORY, dtype=np.int64)
        h_bytes = h.tobytes()
        first = mle_fit(h, 20, ridge=2.0).r
        first_bytes = first.tobytes()
        monkeypatch.setattr(ratings, "MLE_MAX_ITER", 1)
        with pytest.raises(SolverError) as exc:
            mle_fit(h, 20, ridge=2.0)
        last = exc.value.last_iterate
        for r in (first, last):  # no view of a work buffer or of h
            assert r.flags.owndata and not np.shares_memory(r, h)
        assert first.tobytes() == first_bytes
        assert h.tobytes() == h_bytes

    @pytest.mark.parametrize("history", [
        [(0, 1, 0.5)],             # would truncate to 0 as an integer
        [(0, 1, 1), (1, 2, 2)],
        [(0, 1, -1)],
        [(0, 1)],
    ])
    def test_non_binary_outcome_is_a_contract_violation(self, history):
        with pytest.raises(ContractViolationError):
            mle_fit(history, 3)

    @pytest.mark.parametrize("history", [
        [(0.5, 1, 1), (1, 2, 0)],  # would truncate to (0, 1, 1)
        [(0, 1.5, 0)],
        [(3, 1, 1)],               # x = n
        [(0, 3, 0)],
        [(-1, 1, 0)],
        [(1, -1, 1)],
        [(float("nan"), 1, 1)],
        [(0, float("inf"), 0)],
    ])
    def test_bad_player_index_is_a_contract_violation(self, history):
        with pytest.raises(ContractViolationError):
            mle_fit(history, 3)

    def test_integral_float_players_fit_as_ints(self):
        h = [(0, 1, 1), (1, 2, 0), (2, 0, 1), (1, 1, 0)]
        as_float = [tuple(float(v) for v in rec) for rec in h]
        assert mle_fit(as_float, 3).r.tobytes() == mle_fit(h, 3).r.tobytes()


# The loop implementations these functions had before they were
# vectorised, kept as the references their results must equal bit for bit.

def reference_batch_gradients(r, c, records):
    n = len(r)
    grad_r = np.zeros(n)
    grad_c = np.zeros_like(c) if c is not None else None
    for x, y, o in records:
        z = r[x] - r[y]
        if c is not None:
            z += ratings.cyclic_term(c, x, y)
        delta = o - float(1.0 / (1.0 + np.exp(-np.asarray(z, dtype=float))))
        grad_r[x] -= delta
        grad_r[y] += delta
        if grad_c is not None:
            grad_c[x] -= delta * ratings._omega_dot(c[y])
            grad_c[y] += delta * ratings._omega_dot(c[x])
    return grad_r, grad_c


def reference_mle_fit(history, n, ridge=1e-4, tol=1e-8, max_iter=100):
    sigmoid = ratings.sigmoid
    records = list(history)
    if not records:
        return np.zeros(n)
    xs = np.array([rec[0] for rec in records])
    ys = np.array([rec[1] for rec in records])
    os_ = np.array([rec[2] for rec in records], dtype=float)

    def objective(r):
        z = r[xs] - r[ys]
        return float(np.sum(os_ * np.logaddexp(0.0, -z)
                            + (1.0 - os_) * np.logaddexp(0.0, z))
                     + 0.5 * ridge * np.dot(r, r))

    def gradient(r):
        delta = os_ - sigmoid(r[xs] - r[ys])
        g = np.zeros(n)
        np.subtract.at(g, xs, delta)
        np.add.at(g, ys, delta)
        return g + ridge * r

    def hessian(r):
        w = sigmoid(r[xs] - r[ys])
        w = w * (1.0 - w)
        hess = ridge * np.eye(n)
        np.add.at(hess, (xs, xs), w)
        np.add.at(hess, (ys, ys), w)
        np.add.at(hess, (xs, ys), -w)
        np.add.at(hess, (ys, xs), -w)
        return hess

    r = np.zeros(n)
    for _ in range(max_iter):
        r = r - r.mean()
        g = gradient(r)
        if np.linalg.norm(g) <= tol:
            return r
        step = np.linalg.solve(hessian(r), g)
        f0 = objective(r)
        scale = 1.0
        while objective(r - scale * step) > f0 and scale > 1e-12:
            scale *= 0.5
        r = r - scale * step
    r = r - r.mean()
    g = gradient(r)
    if np.linalg.norm(g) <= tol:
        return r
    decrement = 0.5 * float(g @ np.linalg.solve(hessian(r), g))
    if decrement <= 4.0 * np.finfo(float).eps * abs(objective(r)):
        return r
    raise SolverError("MLE did not converge", last_iterate=r)


def _fit_bytes(fit, *args, **kw):
    """The fitted ratings' bytes, or the failed fit's last iterate's."""
    try:
        out = fit(*args, **kw)
    except SolverError as exc:
        return "SolverError", exc.last_iterate.tobytes()
    return "ok", getattr(out, "r", out).tobytes()


class TestMatchesReference:
    @pytest.mark.parametrize("ridge", [1e-4, 0.1, 2.0])
    def test_mle_fit_random_histories(self, ridge, monkeypatch):
        rng = np.random.default_rng(int(ridge * 1e4) + 17)
        outcomes = set()
        for _ in range(100):
            n = int(rng.integers(2, 31))
            m = int(rng.integers(1, 401))
            xy = rng.integers(0, n, size=(m, 2))
            # a share of self-pairs, as a MaxInP log has
            self_pair = rng.random(m) < 0.2
            xy[self_pair, 1] = xy[self_pair, 0]
            history = [(int(x), int(y), int(rng.integers(2))) for x, y in xy]
            # few iterations also reach the post-loop checks and SolverError
            max_iter = int(rng.choice([1, 3, 100]))
            monkeypatch.setattr(ratings, "MLE_MAX_ITER", max_iter)
            got = _fit_bytes(mle_fit, history, n, ridge=ridge)
            assert got == _fit_bytes(reference_mle_fit, history, n,
                                     ridge=ridge, max_iter=max_iter)
            outcomes.add(got[0])
        assert outcomes == {"ok", "SolverError"}

    def test_mle_fit_maxinp_histories(self, monkeypatch):
        # the logs a maxinp run refits: tau = 14 warmup pairs, then over
        # 90 % self-pairs, against 20 % in the random histories
        (trace,), _ = harness.simulate(
            RunConfig(algo="maxinp", n=20, tau=14, T=2000, seed=1))
        log = np.stack((trace.x, trace.y, trace.outcome), axis=1)
        assert (log[:, 0] == log[:, 1]).mean() >= 0.9
        outcomes = set()
        for m in (15, 100, 500, 2000):
            for max_iter in (1, 3, 100):
                monkeypatch.setattr(ratings, "MLE_MAX_ITER", max_iter)
                got = _fit_bytes(mle_fit, log[:m], 20)
                assert got == _fit_bytes(reference_mle_fit, log[:m], 20,
                                         max_iter=max_iter)
                outcomes.add(got[0])
        assert outcomes == {"ok", "SolverError"}

    def test_mle_fit_maxin_warm_start_n100(self, monkeypatch):
        # the warm-start fit of a maxin-n100 replicate: tau = 70 uniform
        # non-self pairs at n = 100, under WARMUP_RIDGE
        rng = np.random.default_rng(100)
        iu, ju = np.triu_indices(100, 1)
        outcomes = set()
        for _ in range(8):
            pick = rng.integers(len(iu), size=70)
            history = np.stack((iu[pick], ju[pick], rng.integers(2, size=70)),
                               axis=1)
            for max_iter in (1, 3, 100):
                monkeypatch.setattr(ratings, "MLE_MAX_ITER", max_iter)
                got = _fit_bytes(mle_fit, history, 100,
                                 ridge=schedulers.WARMUP_RIDGE)
                assert got == _fit_bytes(reference_mle_fit, history, 100,
                                         ridge=schedulers.WARMUP_RIDGE,
                                         max_iter=max_iter)
                outcomes.add(got[0])
        assert outcomes == {"ok", "SolverError"}

    def test_mle_fit_long_maxinp_log(self, monkeypatch):
        # a maxinp log to m = 5000 for the cost of a few refits: a long
        # uniform warmup, then maxinp's own picks (here they end on a
        # self-pair), refitting every round
        (trace,), _ = harness.simulate(
            RunConfig(algo="maxinp", n=20, tau=4990, T=5000, seed=2))
        log = np.stack((trace.x, trace.y, trace.outcome), axis=1)
        assert log[-1, 0] == log[-1, 1]
        outcomes = set()
        for m in (4990, 5000):
            for max_iter in (1, 3, 100):
                monkeypatch.setattr(ratings, "MLE_MAX_ITER", max_iter)
                got = _fit_bytes(mle_fit, log[:m], 20)
                assert got == _fit_bytes(reference_mle_fit, log[:m], 20,
                                         max_iter=max_iter)
                outcomes.add(got[0])
        assert outcomes == {"ok", "SolverError"}

    def test_mle_fit_stall_history(self):
        h = TestMleFit.STALL_HISTORY
        got = _fit_bytes(mle_fit, h, 20, ridge=2.0)
        assert got == ("ok", reference_mle_fit(h, 20, ridge=2.0).tobytes())

    def test_mle_fit_solver_error_last_iterate(self, monkeypatch):
        h = TestMleFit.STALL_HISTORY
        monkeypatch.setattr(ratings, "MLE_MAX_ITER", 1)
        got = _fit_bytes(mle_fit, h, 20, ridge=2.0)
        assert got[0] == "SolverError"
        assert got == _fit_bytes(reference_mle_fit, h, 20, ridge=2.0, max_iter=1)

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 5, 8, 12])
    def test_batch_gradients(self, k):
        rng = np.random.default_rng(300 + k)
        for _ in range(40):
            n = int(rng.integers(2, 121))
            r = rng.normal(scale=1.5, size=n)
            c = rng.normal(scale=0.7, size=(n, 2 * k)) if k else None
            records = [(int(x), int(y), int(rng.integers(2)))
                       for x, y in (rng.choice(n, size=2, replace=False)
                                    for _ in range(int(rng.integers(1, 90))))]
            got_r, got_c = ratings._batch_gradients(r, c, records)
            ref_r, ref_c = reference_batch_gradients(r, c, records)
            assert got_r.tobytes() == ref_r.tobytes()
            if k:
                assert got_c.tobytes() == ref_c.tobytes()
            else:
                assert got_c is None

"""Win prediction, loss, gradient steps, and estimators for Elo and mElo.

The scalar model predicts sigma(r_x - r_y). The multidimensional variant
adds an antisymmetric bilinear term c_x' Omega c_y built from per-player
2k-dimensional feature vectors, capturing cyclic (intransitive) relations.
Update operations never write into their arguments: each returns new
arrays, and sgd_rows updates only its own copies as it goes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import numpy.typing as npt
from numpy.linalg import _umath_linalg

from .errors import ConfigError, ContractViolationError, SolverError
from .games import sigmoid

RADIUS = 2.0  # of the Euclidean ball that SGD iterates are projected onto
# mle_fit's Newton steps stop at |gradient| <= MLE_TOL or after MLE_MAX_ITER
MLE_TOL, MLE_MAX_ITER = 1e-8, 100


@dataclass(frozen=True)
class RatingState:
    """Per-player ratings r, plus optional n x 2k cyclic feature matrix c."""

    r: npt.NDArray[np.float64]
    c: npt.NDArray[np.float64] | None = None


@dataclass
class SgdState:
    """Projected batch-SGD iterate and its running average.

    r_tilde is the current iterate, r_bar the average of iterates over
    batches 1..j. The iterate is kept inside the ball of radius RADIUS
    around the warmup estimate (center; see schedulers.warm_start).
    c_tilde/c_bar are the unprojected mElo counterparts.
    """

    r_tilde: npt.NDArray[np.float64]
    r_bar: npt.NDArray[np.float64]
    center: npt.NDArray[np.float64]
    eta0: float = 1.0
    alpha: float = 1.0
    j: int = 0
    c_tilde: npt.NDArray[np.float64] | None = None
    c_bar: npt.NDArray[np.float64] | None = None


def initial_features(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """The n x 2k mElo start; zero would be a saddle of the cyclic term."""
    return rng.uniform(-0.1, 0.1, size=(n, 2 * k))


def cyclic_term(c: np.ndarray, x, y):
    """c_x' Omega c_y, elementwise if x and y are index arrays."""
    cx, cy = c[x], c[y]
    return (cx[..., 0::2] * cy[..., 1::2]
            - cx[..., 1::2] * cy[..., 0::2]).sum(axis=-1)


def _omega_dot(v: np.ndarray) -> np.ndarray:
    """Omega @ v, row by row if v is 2-D. mElo's 2k x 2k pairing matrix
    Omega is block-diagonal in [[0, 1], [-1, 0]] and is never built."""
    out = np.empty_like(v)
    out[..., 0::2] = v[..., 1::2]
    out[..., 1::2] = -v[..., 0::2]
    return out


def cyclic_matrix(c: np.ndarray) -> np.ndarray:
    """C = c Omega c', all cyclic terms at once (c Omega = -(Omega c')')."""
    return -_omega_dot(c) @ c.T


# Both predictions are sigmoid(z) on one scalar gap z, computed without
# sigmoid's array conversion: -z is exact, and r[y] - r[x] == -(r[x] - r[y]).
def predict_elo(state: RatingState, x: int, y: int) -> float:
    return float(1.0 / (1.0 + np.exp(state.r[y] - state.r[x])))


def predict_melo(state: RatingState, x: int, y: int) -> float:
    if state.c is None:
        raise ConfigError("state has no cyclic features; use predict_elo")
    z = state.r[x] - state.r[y] + cyclic_term(state.c, x, y)
    return float(1.0 / (1.0 + np.exp(-z)))


def elo_loss(o: float, p_hat: float) -> float:
    """Cross-entropy of an outcome against a predicted win probability."""
    return float(-o * np.log(p_hat) - (1.0 - o) * np.log(1.0 - p_hat))


def sgd_step_elo(state: RatingState, x: int, y: int, o, eta: float) -> RatingState:
    """One online gradient step on the scalar ratings."""
    delta = o - predict_elo(state, x, y)
    r = state.r.copy()
    r[x] += eta * delta
    r[y] -= eta * delta
    return RatingState(r=r, c=state.c)


def sgd_step_melo(state: RatingState, x: int, y: int, o, eta: float) -> RatingState:
    """One online gradient step on ratings and cyclic features.

    Both feature rows are updated from their pre-step values; the c_y
    update is the analytic mirror of the c_x one (Omega is antisymmetric).
    """
    delta = o - predict_melo(state, x, y)
    r = state.r.copy()
    r[x] += eta * delta
    r[y] -= eta * delta
    c = state.c.copy()
    c[x] = state.c[x] + eta * delta * _omega_dot(state.c[y])
    c[y] = state.c[y] - eta * delta * _omega_dot(state.c[x])
    return RatingState(r=r, c=c)


def sgd_rows(state: RatingState, x, y, o, eta: float):
    """k online gradient steps from state on the matches (x[i], y[i], o[i]),
    x[i] != y[i]: bit for bit sgd_step_elo's, or sgd_step_melo's when state
    has features. Returns the k x n ratings after each step and the last
    features (None for Elo). The scalars are Python floats and np.exp,
    which round as 0-d numpy does. The rows are one cumsum over the steps'
    increments, +d at x[i], -d at y[i] (r - d == r + -d) and -0.0, which
    leaves any float as it is, elsewhere.
    """
    r, c = state.r.tolist(), state.c
    c = None if c is None else c.copy()
    steps = []
    for a, b, w in zip(x.tolist(), y.tolist(), o.tolist()):
        if c is None:
            d = eta * (w - float(1.0 / (1.0 + np.exp(r[b] - r[a]))))
        else:
            z = r[a] - r[b] + cyclic_term(c, a, b)
            d = eta * (w - float(1.0 / (1.0 + np.exp(-z))))
            c_a = c[a] + d * _omega_dot(c[b])
            c[b] = c[b] - d * _omega_dot(c[a])
            c[a] = c_a
        r[a] += d
        r[b] -= d
        steps.append(d)
    k = len(steps)
    rows = np.full((k + 1, len(r)), -0.0)
    rows[0] = state.r
    step, i = np.array(steps), np.arange(1, k + 1)
    rows[i, x] = step
    rows[i, y] = -step
    return np.cumsum(rows, axis=0, out=rows)[1:], c


def project(r: np.ndarray, center: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection onto the ball of given radius around center."""
    diff = r - center
    norm = float(np.linalg.norm(diff))
    if norm <= radius:
        return r.copy()
    return center + diff * (radius / norm)


def _batch_gradients(r: np.ndarray, c: np.ndarray | None,
                     records) -> tuple[np.ndarray, np.ndarray | None]:
    """Summed loss gradients over a batch, evaluated at (r, c).

    Each record adds -delta to its x row and +delta to its y row, in
    record order, so the sums round exactly as a per-record loop would.
    """
    recs = np.array(records, dtype=float).reshape(-1, 3)
    xy = recs[:, :2].astype(np.intp)
    xs, ys = xy[:, 0], xy[:, 1]
    z = r[xs] - r[ys]
    if c is not None:
        z = z + cyclic_term(c, xs, ys)
    with np.errstate(over="ignore"):  # exp(-z) -> inf is sigmoid 0.0
        delta = recs[:, 2] - sigmoid(z)
    # rows x1, y1, x2, y2, ... with weights -delta1, delta1, -delta2, ...
    rows = xy.ravel()
    w = np.stack((-delta, delta), axis=1).ravel()
    grad_r = np.bincount(rows, weights=w, minlength=len(r))
    grad_c = None
    if c is not None:
        grad_c = np.zeros_like(c)
        # x's row takes -delta * Omega c_y, y's row delta * Omega c_x
        np.add.at(grad_c, rows, w[:, None] * _omega_dot(c)[xy[:, ::-1].ravel()])
    return grad_r, grad_c


def batch_update(sgd: SgdState, records) -> SgdState:
    """Projected SGD step on one batch of (x, y, o) records (a sequence or
    an m x 3 array), with running-average refresh."""
    j = sgd.j + 1
    eta_j = sgd.eta0 / (sgd.alpha * j)
    grad_r, grad_c = _batch_gradients(sgd.r_tilde, sgd.c_tilde, records)
    r_tilde = project(sgd.r_tilde - eta_j * grad_r, sgd.center, RADIUS)
    r_bar = (sgd.r_bar * (j - 1) + r_tilde) / j
    c_tilde = c_bar = None
    if sgd.c_tilde is not None:
        c_tilde = sgd.c_tilde - eta_j * grad_c
        c_bar = (sgd.c_bar * (j - 1) + c_tilde) / j
    return replace(sgd, r_tilde=r_tilde, r_bar=r_bar, j=j, c_tilde=c_tilde,
                   c_bar=c_bar)


def mle_fit(history, n: int, ridge: float = 1e-4) -> RatingState:
    """Ridge-regularized pairwise-logistic maximum likelihood.

    history is a sequence of (x, y, o) records or an m x 3 integer array,
    with players x, y integers in [0, n) and outcomes o in {0, 1}. Newton
    iteration with step halving. The ridge makes the optimum unique and
    finite on any history (including disconnected comparison graphs); the
    solution is mean-centered, which the shift-invariant data term plus
    ridge already forces at the optimum. Each iteration makes about eight
    passes over the whole history, self-pairs included: the gathers, the
    sigmoid, two bincounts and two logaddexps. The records' index arrays,
    in the sign-folded order below, are built once per fit, and each
    iteration writes z, the sigmoids and the gradient and Hessian weights
    into buffers held for the fit; the result shares no memory with them
    or with history.

    H = ridge I + sum of w (e_x - e_y)(e_x - e_y)' with w in [0, 1/4], so
    H - ridge I is PSD. Its systems go straight to LAPACK gesv via numpy's
    solve1 gufunc, the call np.linalg.solve makes on the same C-contiguous
    float64 arrays, so the steps have its bits without its wrapper. A
    singular H, impossible with ridge > 0, would give a NaN step (and a
    RuntimeWarning) and end in SolverError, not LinAlgError.
    """
    if ridge <= 0:
        raise ConfigError("ridge must be positive", key="ridge")
    h = np.asarray(history)
    if h.size == 0:
        return RatingState(r=np.zeros(n))
    if h.ndim != 2 or h.shape[1] != 3 or not ((h[:, 2] == 0) | (h[:, 2] == 1)).all():
        raise ContractViolationError(
            "history must be (x, y, o) rows with o in {0, 1}")
    xy = h[:, :2]
    if not (xy.min() >= 0 and xy.max() < n
            and (h.dtype.kind in "biu" or (xy == np.trunc(xy)).all())):
        raise ContractViolationError("history's players must be integers in [0, n)")
    h = h.astype(np.int64, copy=False)
    m, xs, ys, os_ = len(h), h[:, 0], h[:, 1], h[:, 2].astype(float)
    # -log sigma of the outcome is softplus(sign z), sign = 1 - 2o and
    # z = r[x] - r[y]. In the sign-folded order (a, b), (x, y) if o = 0 and
    # (y, x) if o = 1, sign z is r[a] - r[b] bit for bit, since fp(u - v) =
    # -fp(v - u), and -z is (2o - 1)(r[a] - r[b])
    won = h[:, 2] == 1
    a, b = np.where(won, ys, xs), np.where(won, xs, ys)
    flip = 2.0 * os_ - 1.0
    # gradient: all -delta at x, then all +delta at y; Hessian, flattened:
    # ridge on the diagonal, then w at (x, x), (y, y), -w at (x, y), (y, x)
    g_idx = np.concatenate((xs, ys))
    h_idx = np.concatenate((np.arange(n) * (n + 1), xs * (n + 1), ys * (n + 1),
                            xs * n + ys, ys * n + xs))
    z, s, gw, hw = np.empty(m), np.empty(m), np.empty((2, m)), np.empty(n + 4 * m)
    hw[:n] = ridge
    w, w_copy, nw = hw[n:n + m], hw[n + m:n + 2 * m], hw[n + 2 * m:]

    def gaps(r):
        return np.subtract(r[a], r[b], out=z)

    def objective(r, z):  # from z = gaps(r), which it overwrites
        return float(np.add.reduce(np.logaddexp(0.0, z, out=z))
                     + 0.5 * ridge * np.dot(r, r))

    def hessian():
        np.multiply(s, np.subtract(1.0, s, out=w_copy), out=w)
        w_copy[:] = w
        np.negative(hw[n:n + 2 * m], out=nw)
        return np.bincount(h_idx, weights=hw, minlength=n * n).reshape(n, n)

    r = np.zeros(n)
    for it in range(MLE_MAX_ITER + 1):
        # centering never increases the objective (data term is
        # shift-invariant, ridge shrinks) and keeps the output canonical
        r -= np.add.reduce(r) / n
        np.multiply(flip, gaps(r), out=s)  # s = sigmoid(z) = 1 / (1 + exp(-z))
        np.exp(s, out=s)
        s += 1.0
        np.divide(1.0, s, out=s)
        np.negative(np.subtract(os_, s, out=gw[1]), out=gw[0])  # -delta, delta
        g = np.bincount(g_idx, weights=gw.reshape(-1), minlength=n)
        g += ridge * r
        if math.sqrt(g.dot(g)) <= MLE_TOL:  # np.linalg.norm(g), bit for bit
            return RatingState(r=r)
        if it == MLE_MAX_ITER:
            break
        step = _umath_linalg.solve1(hessian(), g, signature="dd->d")
        f0 = objective(r, z)
        scale = 1.0
        while objective(trial := r - scale * step, gaps(trial)) > f0 and scale > 1e-12:
            scale *= 0.5
        r = trial
    # Near the optimum the decrease Newton still predicts, g'H^-1 g / 2,
    # can fall below the objective's rounding; the line search then sees
    # no change and |g| stalls just above MLE_TOL. Such r is as good as the
    # objective can tell apart.
    decrement = 0.5 * float(g @ _umath_linalg.solve1(hessian(), g, signature="dd->d"))
    if decrement <= 4.0 * np.finfo(float).eps * abs(objective(r, z)):
        return RatingState(r=r)
    raise SolverError("MLE did not converge", last_iterate=r)

"""Win prediction, loss, gradient steps, and estimators for Elo and mElo.

The scalar model predicts sigma(r_x - r_y). The multidimensional variant
adds an antisymmetric bilinear term c_x' Omega c_y built from per-player
2k-dimensional feature vectors, capturing cyclic (intransitive) relations.
All update operations return new states; nothing is mutated in place.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import numpy.typing as npt

from .errors import ConfigError, ContractViolationError, SolverError
from .games import sigmoid


@dataclass(frozen=True)
class RatingState:
    """Per-player ratings r, plus optional n x 2k cyclic feature matrix c."""

    r: npt.NDArray[np.float64]
    c: npt.NDArray[np.float64] | None = None
    k: int = 0

    @property
    def n(self) -> int:
        return len(self.r)


@dataclass
class BatchBuffer:
    """Match records accumulated for the current SGD batch."""

    tau: int
    records: list[tuple[int, int, int]] = field(default_factory=list)

    def append(self, x: int, y: int, o) -> None:
        if len(self.records) >= self.tau:
            raise ContractViolationError("batch buffer already full")
        self.records.append((x, y, o))

    def full(self) -> bool:
        return len(self.records) == self.tau

    def clear(self) -> None:
        self.records = []


@dataclass
class SgdState:
    """Projected batch-SGD iterate and its running average.

    r_tilde is the current iterate, r_bar the average of iterates over
    batches 1..j. The iterate is kept inside a Euclidean ball around the
    warmup estimate (center) of the given radius. c_tilde/c_bar are the
    unprojected mElo counterparts.
    """

    r_tilde: npt.NDArray[np.float64]
    r_bar: npt.NDArray[np.float64]
    center: npt.NDArray[np.float64]
    radius: float = 2.0
    eta0: float = 1.0
    alpha: float = 1.0
    j: int = 0
    c_tilde: npt.NDArray[np.float64] | None = None
    c_bar: npt.NDArray[np.float64] | None = None


def omega(k: int) -> np.ndarray:
    """2k x 2k block-antisymmetric pairing matrix."""
    w = np.zeros((2 * k, 2 * k))
    for i in range(k):
        w[2 * i, 2 * i + 1] = 1.0
        w[2 * i + 1, 2 * i] = -1.0
    return w


def cyclic_term(c: np.ndarray, x: int, y: int) -> float:
    """c_x' Omega c_y without materializing Omega."""
    cx, cy = c[x], c[y]
    return float(np.sum(cx[0::2] * cy[1::2] - cx[1::2] * cy[0::2]))


def predict_elo(state: RatingState, x: int, y: int) -> float:
    return float(sigmoid(state.r[x] - state.r[y]))


def predict_melo(state: RatingState, x: int, y: int) -> float:
    if state.c is None:
        raise ConfigError("state has no cyclic features; use predict_elo")
    return float(sigmoid(state.r[x] - state.r[y] + cyclic_term(state.c, x, y)))


def elo_loss(o: float, p_hat: float) -> float:
    """Cross-entropy of an outcome against a predicted win probability."""
    return float(-o * np.log(p_hat) - (1.0 - o) * np.log(1.0 - p_hat))


def _omega_dot(v: np.ndarray) -> np.ndarray:
    """Omega @ v for the block pairing matrix."""
    out = np.empty_like(v)
    out[0::2] = v[1::2]
    out[1::2] = -v[0::2]
    return out


def sgd_step_elo(state: RatingState, x: int, y: int, o, eta: float) -> RatingState:
    """One online gradient step on the scalar ratings."""
    delta = o - predict_elo(state, x, y)
    r = state.r.copy()
    r[x] += eta * delta
    r[y] -= eta * delta
    return replace(state, r=r)


def sgd_step_melo(state: RatingState, x: int, y: int, o, eta: float) -> RatingState:
    """One online gradient step on ratings and cyclic features.

    Both feature rows are updated from their pre-step values; the c_y
    update is the analytic mirror of the c_x one (Omega is antisymmetric).
    """
    if state.c is None:
        raise ConfigError("state has no cyclic features")
    delta = o - predict_melo(state, x, y)
    r = state.r.copy()
    r[x] += eta * delta
    r[y] -= eta * delta
    c = state.c.copy()
    cx_old, cy_old = state.c[x].copy(), state.c[y].copy()
    c[x] = cx_old + eta * delta * _omega_dot(cy_old)
    c[y] = cy_old - eta * delta * _omega_dot(cx_old)
    return replace(state, r=r, c=c)


def project(r: np.ndarray, center: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection onto the ball of given radius around center."""
    diff = r - center
    norm = float(np.linalg.norm(diff))
    if norm <= radius:
        return r.copy()
    return center + diff * (radius / norm)


def _batch_gradients(r: np.ndarray, c: np.ndarray | None,
                     records) -> tuple[np.ndarray, np.ndarray | None]:
    """Summed loss gradients over a batch, evaluated at (r, c)."""
    n = len(r)
    grad_r = np.zeros(n)
    grad_c = np.zeros_like(c) if c is not None else None
    for x, y, o in records:
        z = r[x] - r[y]
        if c is not None:
            z += cyclic_term(c, x, y)
        delta = o - float(sigmoid(z))
        grad_r[x] -= delta
        grad_r[y] += delta
        if grad_c is not None:
            grad_c[x] -= delta * _omega_dot(c[y])
            grad_c[y] += delta * _omega_dot(c[x])
    return grad_r, grad_c


def batch_update(sgd: SgdState, buf: BatchBuffer) -> SgdState:
    """Projected SGD step on a full batch, with running-average refresh."""
    if not buf.full():
        raise ContractViolationError(
            f"batch has {len(buf.records)} of {buf.tau} records")
    j = sgd.j + 1
    eta_j = sgd.eta0 / (sgd.alpha * j)
    grad_r, grad_c = _batch_gradients(sgd.r_tilde, sgd.c_tilde, buf.records)
    r_tilde = project(sgd.r_tilde - eta_j * grad_r, sgd.center, sgd.radius)
    r_bar = (sgd.r_bar * (j - 1) + r_tilde) / j
    c_tilde = c_bar = None
    if sgd.c_tilde is not None:
        c_tilde = sgd.c_tilde - eta_j * grad_c
        c_bar = (sgd.c_bar * (j - 1) + c_tilde) / j
    return SgdState(r_tilde=r_tilde, r_bar=r_bar, center=sgd.center,
                    radius=sgd.radius, eta0=sgd.eta0, alpha=sgd.alpha, j=j,
                    c_tilde=c_tilde, c_bar=c_bar)


def mle_fit(history, n: int, ridge: float = 1e-4,
            tol: float = 1e-8, max_iter: int = 100) -> RatingState:
    """Ridge-regularized pairwise-logistic maximum likelihood.

    Newton iteration with step halving. The ridge makes the optimum
    unique and finite on any history (including disconnected comparison
    graphs); the solution is mean-centered, which the shift-invariant
    data term plus ridge already forces at the optimum.
    """
    if ridge <= 0:
        raise ConfigError("ridge must be positive", key="ridge")
    records = list(history)
    if not records:
        return RatingState(r=np.zeros(n))
    xs = np.array([rec[0] for rec in records])
    ys = np.array([rec[1] for rec in records])
    os_ = np.array([rec[2] for rec in records], dtype=float)

    def objective(r):
        z = r[xs] - r[ys]
        # stable -log sigma(z) terms: softplus(-z) and softplus(z)
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
        # centering never increases the objective (data term is
        # shift-invariant, ridge shrinks) and keeps the output canonical
        r = r - r.mean()
        g = gradient(r)
        if np.linalg.norm(g) <= tol:
            return RatingState(r=r)
        step = np.linalg.solve(hessian(r), g)
        f0 = objective(r)
        scale = 1.0
        while objective(r - scale * step) > f0 and scale > 1e-12:
            scale *= 0.5
        r = r - scale * step
    r = r - r.mean()
    g = gradient(r)
    if np.linalg.norm(g) <= tol:
        return RatingState(r=r)
    # Near the optimum the decrease Newton still predicts, g'H^-1 g / 2,
    # can fall below the objective's rounding; the line search then sees
    # no change and |g| stalls just above tol. Such r is as good as the
    # objective can tell apart.
    decrement = 0.5 * float(g @ np.linalg.solve(hessian(r), g))
    if decrement <= 4.0 * np.finfo(float).eps * abs(objective(r)):
        return RatingState(r=r)
    raise SolverError("MLE did not converge", last_iterate=r)

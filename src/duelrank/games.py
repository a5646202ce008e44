"""Ground-truth win-probability matrices and their transitive/cyclic split.

A game environment is an n x n matrix of win probabilities. Its logit
matrix is antisymmetric and decomposes into a transitive part grad(r)
(difference of per-player ratings) and a divergence-free cyclic part.
The divergence vector is the "true rating" used for regret accounting.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from .errors import ConfigError, MatrixLoadError

DEFAULT_CLIP_EPS = 1e-3

_GEN_TOL = 1e-9
_LOAD_TOL = 1e-6


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-np.asarray(z, dtype=float)))


@dataclass(frozen=True)
class WinMatrix:
    """n x n matrix of ground-truth win probabilities."""

    n: int
    p: npt.NDArray[np.float64]

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        object.__setattr__(self, "p", p)
        _validate(self.n, p, tol=_GEN_TOL)


@dataclass(frozen=True)
class TrueRatings:
    """Transitive ratings and cyclic remainder of a game's logit matrix."""

    r_star: npt.NDArray[np.float64]
    rot: npt.NDArray[np.float64]
    best: int


def _validate(n: int, p: np.ndarray, tol: float) -> None:
    if n < 2:
        raise ConfigError(f"need at least 2 players, got {n}", key="n")
    if p.shape != (n, n):
        raise MatrixLoadError(f"expected {n}x{n} matrix, got {p.shape}")
    if not np.all((p >= 0.0) & (p <= 1.0)):  # false for NaN too
        raise MatrixLoadError("entries must lie in [0, 1]")
    # diagonal first: a bad diagonal would also trip the pairwise check
    if np.max(np.abs(np.diag(p) - 0.5)) > tol:
        raise MatrixLoadError("diagonal entries must equal 0.5")
    if np.max(np.abs(p + p.T - 1.0)) > tol:
        raise MatrixLoadError("p[i][j] + p[j][i] != 1 beyond tolerance")


def gen_elo_game(n: int, rating_scale: float, seed: int) -> WinMatrix:
    """Synthetic transitive game from i.i.d. uniform latent ratings."""
    if n < 2:
        raise ConfigError(f"need at least 2 players, got {n}", key="n")
    if rating_scale < 0:
        raise ConfigError("rating_scale must be non-negative",
                          key="rating_scale")
    rng = np.random.default_rng(seed)
    latent = rng.uniform(-rating_scale, rating_scale, size=n)
    p = sigmoid(latent[:, None] - latent[None, :])
    # exact antisymmetry despite floating-point sigmoid asymmetry
    p = 0.5 * (p + (1.0 - p.T))
    np.fill_diagonal(p, 0.5)
    return WinMatrix(n=n, p=p)


def gen_noisy_elo_game(n: int, rating_scale: float, eps: float, seed: int,
                       clip_eps: float = DEFAULT_CLIP_EPS) -> WinMatrix:
    """Elo game with Gaussian noise on the upper triangle, mirrored below."""
    if eps < 0:
        raise ConfigError("eps must be non-negative", key="noise")
    p = gen_elo_game(n, rating_scale, seed).p.copy()
    noise_rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    iu = np.triu_indices(n, k=1)
    noisy = p[iu] + eps * noise_rng.standard_normal(len(iu[0]))
    noisy = np.clip(noisy, clip_eps, 1.0 - clip_eps)
    p[iu] = noisy
    p.T[iu] = 1.0 - noisy
    return WinMatrix(n=n, p=p)


def gen_triangular(n: int) -> WinMatrix:
    """Deterministic game: lower index always beats higher index."""
    p = np.where(np.arange(n)[:, None] < np.arange(n)[None, :], 1.0, 0.0)
    np.fill_diagonal(p, 0.5)
    return WinMatrix(n=n, p=p)


def gen_cyclic(n: int) -> WinMatrix:
    """Rock-paper-scissors-style ring; every player's divergence is zero."""
    if n < 3:
        raise ConfigError(f"cyclic game needs at least 3 players, got {n}",
                          key="n")
    p = np.full((n, n), 0.5)
    idx = np.arange(n)
    p[idx, (idx + 1) % n] = 0.9
    p[(idx + 1) % n, idx] = 0.1
    return WinMatrix(n=n, p=p)


def gen_triangular_rev(n: int) -> WinMatrix:
    """``gen_triangular`` with its players in reverse order: higher index
    always wins, so the best player is n - 1, last in the tie-break order
    of an all-zero estimate rather than first."""
    return WinMatrix(n=n, p=gen_triangular(n).p[::-1, ::-1])


def gen_cyclic_dominant(n: int) -> WinMatrix:
    """Acceptance test 7's game for any n >= 4: the ring
    ``gen_cyclic(n - 1)`` plus a last player who beats each of the others
    with probability 0.8, and so is the best."""
    if n < 4:
        raise ConfigError(
            f"cyclic_dominant game needs at least 4 players, got {n}", key="n")
    p = np.full((n, n), 0.5)
    p[:-1, :-1] = gen_cyclic(n - 1).p
    p[-1, :-1], p[:-1, -1] = 0.8, 0.2
    return WinMatrix(n=n, p=p)


def load_matrix(path) -> WinMatrix:
    """Read a headerless CSV of win probabilities and validate it.

    Entries are kept as-is (logits clip them later). The tolerance, 1e-6,
    is looser than for generated matrices: files hold rounded decimals.
    """
    try:
        with warnings.catch_warnings():  # an empty file warns; see below
            warnings.simplefilter("ignore", UserWarning)
            p = np.loadtxt(path, delimiter=",", dtype=float, ndmin=2)
    except (ValueError, OSError) as exc:
        raise MatrixLoadError(f"cannot parse {path}: {exc}") from exc
    n = p.shape[0]
    if p.shape[1] != n:
        raise MatrixLoadError(f"matrix in {path} is {n}x{p.shape[1]}")
    if n < 2:
        raise MatrixLoadError(
            f"matrix in {path} is {n}x{n}; need at least 2 players")
    try:
        _validate(n, p, tol=_LOAD_TOL)
    except MatrixLoadError as exc:
        raise MatrixLoadError(f"matrix in {path}: {exc}") from exc
    # bypass the 1e-9 constructor check; the file passed at 1e-6
    m = object.__new__(WinMatrix)
    object.__setattr__(m, "n", n)
    object.__setattr__(m, "p", p)
    return m


def logit_matrix(m: WinMatrix, clip_eps: float = DEFAULT_CLIP_EPS) -> np.ndarray:
    """Antisymmetrized logits of the clipped win matrix."""
    if not 0.0 < clip_eps < 0.5:
        raise ConfigError("clip_eps must lie in (0, 0.5)", key="clip_eps")
    q = np.clip(m.p, clip_eps, 1.0 - clip_eps)
    a = np.log(q) - np.log1p(-q)
    a = 0.5 * (a - a.T)  # exact antisymmetry
    np.fill_diagonal(a, 0.0)
    return a


def true_ratings(m: WinMatrix, clip_eps: float = DEFAULT_CLIP_EPS) -> TrueRatings:
    """Split the logit matrix into ratings (divergence) plus cyclic part."""
    a = logit_matrix(m, clip_eps)
    r_star = a.mean(axis=1)
    rot = a - (r_star[:, None] - r_star[None, :])
    best = int(np.argmax(r_star))  # argmax takes the lowest index on ties
    return TrueRatings(r_star=r_star, rot=rot, best=best)


def sample_outcome(m: WinMatrix, x: int, y: int, rng) -> int:
    """Bernoulli draw from one ``rng.random()``: 1 if x beats y.
    Self-pairs draw Bern(0.5)."""
    if not (0 <= x < m.n and 0 <= y < m.n):
        raise IndexError(f"player index out of range: ({x}, {y})")
    return int(rng.random() < m.p[x, y])

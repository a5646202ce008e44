"""Incremental inverse of the ridge-regularized pair design matrix.

V = lambda*I + sum of (e_x - e_y)(e_x - e_y)' over observed pairs. The
inverse is maintained by rank-1 (Sherman-Morrison) updates in O(n^2) per
pair, and the pairwise uncertainty ||e_x - e_y|| in the V^{-1} norm is an
O(1) lookup. The ridge is required: every difference vector is orthogonal
to the all-ones vector, so the unregularized design matrix is singular.
V itself is not stored and V^{-1} is never re-inverted: after 10^5
updates the rank-1 rounding drift is below 1e-13 relative.

Both n x n broadcasts (the rank-1 term and q's d_i + d_j) run through
numpy's einsum C kernel, c_einsum (the outer product 2x faster from n = 100
on); its bits are the broadcast's but for a -0.0 product, which is +0.0.
V^{-1} is block-diagonal over the pair graph's components, so the term's
rows off those of x and y are +0.0: update writes only vu's nonzero rows
while they are at most n/2 (exact for a finite V^{-1}: 0 * inf is NaN).
After a vu with no zero the graph is connected for good: every update is full.
"""

from __future__ import annotations

import numpy as np
from numpy._core.multiarray import c_einsum

from .errors import ConfigError


class DesignTracker:
    """Maintains V^{-1} for selected player pairs."""

    def __init__(self, n: int, lambda_ridge: float = 1.0):
        if n < 2:
            raise ConfigError(f"need at least 2 players, got {n}", key="n")
        if not 1e-150 <= lambda_ridge < np.inf:  # (2/lambda)^2 bounds a term
            raise ConfigError("lambda_ridge must be positive, finite and at "
                              "least 1e-150", key="lambda_ridge")
        self.v_inv = (1.0 / lambda_ridge) * np.eye(n)
        self._diag = self.v_inv.reshape(-1)[::n + 1]  # a view of V^{-1}
        # n x n work buffers, reused by every call; fresh 80 kB arrays at
        # n=100 make run time depend on when glibc trims the heap
        self._term = np.empty((n, n))
        self._q = np.empty((n, n))
        self._two_v = np.empty((n, n))
        d1 = np.ones((3, n))  # rows 1, d, 1: q's einsum operands, held
        self._d, self._d_one, self._one_d = d1[1], d1[1:], d1[:2]
        self._dense = False  # set by the first vu with no zero entry

    def update(self, x: int, y: int) -> None:
        """Add the rank-1 term for pair (x, y). einsum's term is +0.0 where a
        product is -0.0, and V^{-1} holds no -0.0 (x - x = +0.0), so rows off
        vu's support k keep their bits (x - (+0.0) = x), as does every row of
        a self-pair (k empty); rows k get the full update's exact steps."""
        vi = self.v_inv
        # Sherman-Morrison with u = e_x - e_y; rows = columns, V^{-1} is symmetric
        vu = vi[x] - vi[y]
        denom = 1.0 + (vu.item(x) - vu.item(y))
        if not self._dense:
            k = vu.nonzero()[0]
            if 2 * k.size <= vu.size:  # rows k, read without an n x n copy
                rows = vi.take(k, 0, out=self._two_v[:k.size], mode="clip")
                term = c_einsum("i,j->ij", vu[k], vu, out=self._term[:k.size])
                term /= denom
                vi[k] = np.subtract(rows, term, out=rows)
                return
            self._dense = k.size == vu.size
        term = c_einsum("i,j->ij", vu, vu, out=self._term)
        term /= denom
        vi -= term

    def pair_uncertainty(self, x: int, y: int) -> float:
        """uncertainty_matrix()[x, y], bit for bit: 0.0 when x == y, and q
        clamped at 0.0 when rounding pushes it below."""
        vi = self.v_inv
        return float(np.sqrt(max(vi[x, x] + vi[y, y] - 2.0 * vi[x, y], 0.0)))

    def squared_uncertainty_matrix(self) -> np.ndarray:
        """All pairwise squared uncertainties at once, unclamped: q = d_i +
        d_j - 2 V^{-1}_ij, d the diagonal of V^{-1}. uncertainty_matrix()
        is sqrt(max(q, 0)).

        The result is a buffer the tracker owns: the next call of either
        method overwrites it, so copy it to keep it, and never write into
        it. The diagonal is exactly zero, since d_i + d_i - 2 d_i cancels
        without rounding. Off it, q >= 2 / (lambda + 2t) > 0 after t
        updates, so only rounding can make q < 0. d_i + d_j is einsum's
        sum over k of [d; 1]_ki [1; d]_kj: fp(d_i + d_j), as d > 0."""
        self._d[...] = self._diag
        q = c_einsum("ki,kj->ij", self._d_one, self._one_d, out=self._q)
        q -= np.multiply(2.0, self.v_inv, out=self._two_v)
        return q

    def uncertainty_matrix(self) -> np.ndarray:
        """All pairwise uncertainties at once (zero diagonal): the square
        root of squared_uncertainty_matrix(), clamped at 0, in the same
        buffer. A min(), cheaper than the clamp at n = 100, gates it."""
        q = self.squared_uncertainty_matrix()
        if q.min() < 0.0:
            np.maximum(q, 0.0, out=q)
        return np.sqrt(q, out=q)

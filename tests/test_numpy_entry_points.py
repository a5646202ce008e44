"""numpy's private entry points that the program calls directly, checked
against the public functions whose bits they stand in for: the einsum C
kernel (tracker.DesignTracker) and LAPACK's solve gufunc
(ratings.mle_fit). A numpy release that moves or changes either one
fails here instead of silently changing traces."""

import numpy as np
import pytest

from duelrank.ratings import _umath_linalg
from duelrank.tracker import c_einsum


def _vectors(n, seed):
    """A vector with exact zeros, signed entries and a tiny pair whose
    product underflows, so every sign-of-zero case occurs."""
    v = np.random.default_rng(seed).standard_normal(n)
    v[::3] = 0.0
    v[1], v[-1] = -1e-200, 1e-200
    return v


@pytest.mark.parametrize("n", [3, 4, 7, 20])
def test_c_einsum_outer_product(n):
    vu = _vectors(n, n)
    out = np.full((n, n), np.nan)
    got = c_einsum("i,j->ij", vu, vu, out=out)
    assert got is out
    assert got.tobytes() == np.einsum("i,j->ij", vu, vu).tobytes()
    # the broadcast's bits, but for -0.0 products, which read +0.0
    outer = np.multiply(vu[:, None], vu)
    assert np.signbit(outer[outer == 0.0]).any()
    assert got.tobytes() == (outer + 0.0).tobytes()


@pytest.mark.parametrize("n", [2, 3, 7, 20])
def test_c_einsum_pair_sum(n):
    d = np.random.default_rng(n).random(n) + 1e-3
    d[0] = 1e-300
    rows = np.ones((3, n))  # 1, d, 1: [d; 1] and [1; d], as the tracker
    rows[1] = d
    out = np.full((n, n), np.nan)
    got = c_einsum("ki,kj->ij", rows[1:], rows[:2], out=out)
    assert got is out
    assert got.tobytes() == np.einsum("ki,kj->ij", rows[1:],
                                      rows[:2]).tobytes()
    assert got.tobytes() == np.add(d[:, None], d).tobytes()


@pytest.mark.parametrize("n,seed", [(2, 0), (5, 1), (20, 2), (100, 3)])
def test_solve1_matches_linalg_solve(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    h = a @ a.T + 1e-4 * np.eye(n)
    g = rng.standard_normal(n)
    got = _umath_linalg.solve1(h, g, signature="dd->d")
    assert got.tobytes() == np.linalg.solve(h, g).tobytes()

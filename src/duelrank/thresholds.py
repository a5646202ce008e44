"""Exact thresholds for MaxIn's candidate test on squared uncertainty.

Under a fixed gamma, a MaxIn round tests, for every pair, whether

    h = fp(fp(d + fp(gamma * fp(sqrt(max(q, 0))))) [+ c]) > 0,

where q is the pair's squared uncertainty and d and c are the batch's
rating gap and cyclic term (see MaxInScheduler). Each step is a
correctly rounded, monotone operation on a single varying input, so the
test is monotone in q: each pair has one double Q with h > 0 exactly
when q > Q. `pass_thresholds` finds every Q once per batch, so a round
needs only q and one comparison, with no square root.

Each Q comes from three searches, each for the least passing value: of
v, the value gamma * u takes; of u, for gamma * u to reach that v; and of
q, for its square root to reach that u. Q is the double below that q.
For nonnegative doubles the order of the values is the order of their
int64 bit patterns, so the next double is the next integer. A
closed-form guess is checked over a few patterns around it; an entry
whose window misses the boundary is bisected over every pattern.
"""

from __future__ import annotations

import numpy as np

_INF = int(np.float64(np.inf).view(np.int64))  # every larger pattern is NaN
_ABS = (1 << 63) - 1  # the bits of |x|


def _f(bits: np.ndarray) -> np.ndarray:
    return bits.view(np.float64)


def _bisect(test, *args) -> np.ndarray:
    """Per entry, the least pattern in [0, _INF] that passes test(bits,
    *args); the test must be monotone and pass at _INF. Pattern -1 is a
    NaN, which fails every test, so it is the lower end."""
    lo = np.full(len(args[0]), -1, dtype=np.int64)
    hi = np.full(len(args[0]), _INF, dtype=np.int64)
    while (hi - lo > 1).any():
        mid = lo + (hi - lo) // 2
        passed = test(mid, *args)
        hi = np.where(passed, mid, hi)
        lo = np.where(passed, lo, mid)
    return hi


def _least(test, guess: np.ndarray, *args, below: int,
           width: int) -> np.ndarray:
    """Per entry, the least pattern in [0, _INF] that passes test(bits,
    *args), as _bisect finds it, from a guess: count the passing patterns
    among `width` from guess - below on, and check that the one before
    them fails and that the last of them passes."""
    start = np.minimum(np.maximum(guess - below, 0), _INF - (width - 1))
    miss = test(start - 1, *args)  # start - 1 == -1 is a NaN: it fails
    passes = np.zeros_like(start)
    for k in range(width):
        passes += test(start + k, *args)
    least = start + (width - passes)
    miss |= passes == 0
    if miss.any():
        miss = np.flatnonzero(miss)
        least[miss] = _bisect(test, *(a[miss] for a in args))
    return least


def pass_thresholds(d: np.ndarray, c: np.ndarray | None,
                    gamma: float) -> np.ndarray:
    """Q with h > 0 exactly when q > Q, entry by entry, for every q but NaN
    and -inf (h as in the module doc). d must be finite off its diagonal
    and +inf on it, and c, if given, finite; gamma is positive and finite.
    Q is -inf where every q passes: where d [+ c] alone is positive, as on
    the diagonal."""
    q_min = np.full(d.shape, -np.inf)
    d = d.reshape(-1)
    fails = np.flatnonzero(d <= 0.0 if c is None else d + c.reshape(-1) <= 0.0)
    d = d[fails]
    with np.errstate(over="ignore"):  # gamma * u and d + v may overflow
        if c is None:
            # fp(d + v) > 0 iff d + v > 0, so v passes from next_up(-d) on
            v = (d.view(np.int64) & _ABS) + 1
        else:
            c = c.reshape(-1)[fails]
            # fp(d + v) + c > 0 iff fp(d + v) > -c: about -c - d, plus half
            # the gap from -c to the next double, since d + v rounds
            guess = (-c - d + np.abs(np.spacing(c)) * 0.5).view(np.int64)
            v = _least(lambda b, d, c: (d + _f(b)) + c > 0.0, guess, d, c,
                       below=1, width=4)
        v = _f(v)
        u = _f(_least(lambda b, v: gamma * _f(b) >= v,
                      (v / gamma).view(np.int64), v, below=1, width=3))
        least_q = _least(lambda b, u: np.sqrt(_f(b)) >= u,
                         (u * u).view(np.int64), u, below=1, width=2)
    q_min.reshape(-1)[fails] = _f(least_q - 1)
    return q_min

"""x's own level recursion and its step-by-step inversion, run on a series,
kept only as test oracles.

The library builds x_n from the telescoped identity
1 + 2^n x_n = ((1 + t)/(1 - t))^(2^(n-1)), checks it against that identity's
binomial expansion, and certifies h_n against it by the two series'
differential equations, so no library code runs the recursion
x_1 = t/(1-t), x_(k+1) = x_k + 2^(k-1) x_k^2 that defines x_n, or undoes it;
the tests compare ``build_x`` with the first and ``build_h`` with the second.
"""

import operator

from gwinv.series import _square


def _level_chain(u: list[int], n: int) -> list[int]:
    """x_n o u for an integer series u with zero constant term: x_1 o u =
    u/(1-u), then x_(k+1) = x_k + 2^(k-1) x_k^2 for k = 1..n-1."""
    y = list(u)
    for d in range(2, len(y)):
        y[d] += sum(map(operator.mul, u[1:d], y[d - 1 : 0 : -1]))
    for k in range(1, n):
        s = 1 << (k - 1)
        y = [c + s * _square(y, d) for d, c in enumerate(y)]
    return y


def _invert_step(v: list[int], c: int) -> list[int]:
    """The w with w + c w^2 = v, solved degree by degree (v(0) = 0)."""
    w = [0] * len(v)
    for d in range(1, len(v)):
        w[d] = v[d] - c * _square(w, d)
    return w


def _inverse_chain(v: list[int], n: int) -> list[int]:
    """h_n o v for an integer series v with zero constant term: undo
    p_(n-1), ..., p_1 one step at a time, where p_k(t) = t + 2^(k-1) t^2,
    then undo x_1 with v/(1+v)."""
    for k in range(n - 1, 0, -1):
        v = _invert_step(v, 1 << (k - 1))
    h = list(v)
    for d in range(2, len(h)):
        h[d] -= sum(map(operator.mul, v[1:d], h[d - 1 : 0 : -1]))
    return h

"""x's own level recursion run on a series, kept only as a test oracle.

The library builds x_n from the telescoped identity
1 + 2^n x_n = ((1 + t)/(1 - t))^(2^(n-1)) and certifies h_n against it by
the two series' differential equations, so no library code runs the
recursion x_1 = t/(1-t), x_(k+1) = x_k + 2^(k-1) x_k^2 that defines x_n;
the tests compare ``build_x`` with it.
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

"""The table of the powers of h_n, kept only as a test oracle.

The library reads the level-n divided powers off a closed-form binomial
row (``divided.eval_pi_coeffs``).  The route it replaced composed the
exterior-power row (1 + u)^p (1 - u)^q of each character value with
u = h_n through a table of every power of h_n; ``table_pi_coeffs`` runs
that route through the same character kernel, and the tests compare the
two.
"""

import operator
from functools import lru_cache

from gwinv import witt
from gwinv.series import build_h


@lru_cache(maxsize=64)
def h_power_columns(n: int, precision: int) -> tuple[tuple[int, ...], ...]:
    """The powers of ``build_h(n, precision)`` read by degree: column d
    lists [t^d] h_n^k for k = 0..d (h_n^k starts at degree k), so an
    integer series a composed with h_n has degree-d coefficient
    sum_k a_k column[d][k]."""
    h = build_h(n, precision)
    cols = [[1]] + [[0] for _ in range(precision)]
    power = [1] + [0] * precision
    for k in range(1, precision + 1):
        # h^k = h^(k-1) h from degree k on; h^(k-1) starts at degree k - 1
        power = [0] * k + [
            sum(map(operator.mul, power[k - 1 : d], h[d - k + 1 : 0 : -1]))
            for d in range(k, precision + 1)
        ]
        for d in range(k, precision + 1):
            cols[d].append(power[d])
    return tuple(map(tuple, cols))


def table_pi_coeffs(n, degrees, x):
    """The level-n divided powers of x at ``degrees`` through the table:
    chi_s sends them to (1 + h_n)^p (1 - h_n)^q with p + q = dim x and
    p - q = chi_s(x), one dot product per degree."""
    dim, top = x.dim, max(degrees, default=0)
    columns = h_power_columns(n, top)

    def row(chi):
        a = witt._plus_minus_series(chi, dim, top)
        return [sum(map(operator.mul, a, columns[d])) for d in degrees]

    return witt.character_series(x, degrees, row)

"""Exact truncated integer power series: the level series and their inverses.

A series is a plain list of integers, its coefficients in degrees 0..P;
degrees above the truncation order P are unknown, not zero.  ``cauchy``
multiplies two series and ``compose`` substitutes one into another by
Horner's rule, each truncated to the shorter length.  Series with GW
coefficients are not multiplied out in the library: ``witt.character_series``
reduces a product prod (1 + a t)^c over the terms of a form (its
exterior-power series, its Stiefel-Whitney-style series) to one integer
series per character of the square-class group and transforms the values
back.  The level recursion x_(k+1) = x_k + 2^(k-1) x_k^2 telescopes to
1 + 2^n x_n = ((1 + t)/(1 - t))^(2^(n-1)), so x_n comes from the two-term
recurrence of (1 + t)^p (1 - t)^q and its inverse h_n from the Riccati
equation (1 + 2^n t) h' = 1 - h^2.  Building h_n checks x_n against the
binomial expansion of (1 + 2t/(1 - t))^(2^(n-1)), in O(P min(P, 2^(n-1)))
additions, and then x_n o h_n = t from the two series' differential
equations, in O(P^2); the verify ``series`` suite checks both round trips
again by Horner ``compose``.  Everything is exact: no floats and no coercion.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache
from itertools import accumulate


class ConsistencyError(RuntimeError):
    """An internal exact-arithmetic identity failed; this signals a bug."""


def cauchy(a: list[int], b: list[int]) -> list[int]:
    """The product of two series, truncated to the shorter length."""
    return [sum(map(operator.mul, a[: d + 1], b[d::-1])) for d in range(min(len(a), len(b)))]


def compose(f: list[int], g: list[int]) -> list[int]:
    """f o g by Horner's rule, truncated to the shorter length; ``g`` must
    have zero constant coefficient so the result is well-defined degreewise."""
    if g and g[0] != 0:
        raise ValueError("inner series must have zero constant coefficient")
    n = min(len(f), len(g))
    if not n:
        return []
    acc = [f[n - 1]] + [0] * (n - 1)
    for c in reversed(f[: n - 1]):
        acc = cauchy(acc, g)
        acc[0] += c
    return acc


def even_odd_split(f: list[int]) -> tuple[list[int], list[int]]:
    """(even part, odd part); the two add back to the input."""
    even = [0 if d % 2 else c for d, c in enumerate(f)]
    odd = [c if d % 2 else 0 for d, c in enumerate(f)]
    return even, odd


def _plus_minus_series(chi: int, dim: int, precision: int) -> list[int]:
    """(1 + t)^p (1 - t)^q with p - q = chi and p + q = dim, from
    (1 - t^2) f' = (chi - dim t) f, i.e.
    (k + 1) a_(k+1) = chi a_k + (k - 1 - dim) a_(k-1)."""
    a = [1] + [0] * precision
    for k in range(precision):
        a[k + 1], r = divmod(chi * a[k] + (k - 1 - dim) * (a[k - 1] if k else 0), k + 1)
        if r:
            raise ConsistencyError(f"binomial recurrence is not integral at degree {k + 1}")
    return a


def _square(y: list[int], d: int) -> int:
    """Degree d of y^2 for y(0) = 0, each unordered pair y_i y_(d-i) once."""
    m = d // 2
    return 2 * sum(map(operator.mul, y[1 : d - m], y[d - 1 : m : -1])) + (0 if d % 2 else y[m] * y[m])


def _identity(precision: int) -> list[int]:
    return [0, 1, *[0] * precision][: precision + 1]


@lru_cache(maxsize=None)
def _x_coeffs(n: int, precision: int) -> tuple[int, ...]:
    """x_n from 1 + 2^n x_n = ((1 + t)/(1 - t))^(2^(n-1)), divided exactly
    by 2^n: (d + 1) x_(d+1) = 2^n x_d + (d - 1) x_(d-1)."""
    if n < 1:
        raise ValueError("series level must be >= 1")
    a = _plus_minus_series(1 << n, 0, precision)
    if any(c & ((1 << n) - 1) for c in a[1:]):
        raise ConsistencyError(f"level series x_{n} is not divisible by 2^{n}")
    return (0, *(c >> n for c in a[1:]))


def build_x(n: int, precision: int) -> list[int]:
    """Integer series whose level-n exterior-power transform of a generator
    is 1 + (generator) * series; level 1 is the geometric series t/(1-t).
    O(P) integer operations, by a two-term recurrence."""
    return list(_x_coeffs(n, precision))


def _binomial_x(n: int, precision: int) -> list[int]:
    """2^n x_n from ((1 + t)/(1 - t))^N = (1 + 2t/(1 - t))^N, N = 2^(n-1):
    2^n x_d = sum_(k=1..min(d, N)) C(N, k) 2^k C(d-1, k-1), by Horner's rule
    on C(m, s) = sum_(j<m) C(j, s-1), one running sum per k (as ``to_values``)."""
    N = 1 << (n - 1)
    c, terms = 1, []
    for k in range(1, min(N, precision) + 1):
        c = c * (N + 1 - k) // k
        terms.append(c << k)
    v = [0] * precision
    for a in reversed(terms):
        v = list(accumulate(v[:-1], initial=a))
    return [0, *v]


def _h_series(n: int, precision: int) -> list[int]:
    """h_n from (1 + 2^n t) h' = 1 - h^2, the log-derivative of
    1 + 2^n t = ((1 + h_n)/(1 - h_n))^(2^(n-1)):
    (d + 1) h_(d+1) = [d = 0] - 2^n d h_d - sum_(i=1..d-1) h_i h_(d-i)."""
    h = _identity(precision)
    for d in range(1, precision):
        h[d + 1], r = divmod(-(d << n) * h[d] - _square(h, d), d + 1)
        if r:
            raise ConsistencyError(f"Riccati recurrence for h_{n} is not integral at degree {d + 1}")
    return h


@lru_cache(maxsize=None)
def _h_coeffs(n: int, precision: int) -> tuple[int, ...]:
    x = _x_coeffs(n, precision)
    h = _h_series(n, precision)
    # the anchor ties x to the telescoped level recursion by a route that
    # shares no step with x's builder
    if _binomial_x(n, precision) != [c << n for c in x]:
        raise ConsistencyError(f"level series x_{n} does not match its binomial expansion")
    if x[0] or h[0]:
        raise ConsistencyError(f"substitution series x_n o h_n has a nonzero constant term at level {n}")
    # (1 - t^2) x' = 1 + c x and (1 + c t) h' = 1 - h^2, with one c, give
    # z = x o h - t the equation (1 - h^2) z' = c h' z and z(0) = 0, so the
    # lowest nonzero z_k would have k z_k = 0: x o h = t to degree P.  h^2
    # comes from ``cauchy``, not from the builder's ``_square``.
    c, h2 = 1 << n, cauchy(h, h)
    for d in range(precision):
        x_rel = (d + 1) * x[d + 1] - (d - 1) * (x[d - 1] if d else 0) - c * x[d]
        h_rel = (d + 1) * h[d + 1] + c * d * h[d] + h2[d]
        if x_rel != (d == 0) or h_rel != (d == 0):
            raise ConsistencyError(f"substitution series round trip x_n o h_n failed at level {n}")
    for coeff in h:
        if not isinstance(coeff, int):
            raise ConsistencyError("substitution series has a non-integer coefficient")
    return tuple(h)


def build_h(n: int, precision: int) -> list[int]:
    """Compositional inverse of ``build_x(n, .)``, from the Riccati
    equation (1 + 2^n t) h' = 1 - h^2 in O(P^2) integer products.  Before
    returning, x_n is checked against the binomial expansion of
    1 + 2^n x_n = ((1 + t)/(1 - t))^(2^(n-1)), in O(P min(P, 2^(n-1)))
    additions, and x_n o h_n = t by checking (1 - t^2) x' = 1 + 2^n x on
    x_n and (1 + 2^n t) h' = 1 - h^2 on h_n with h^2 from ``cauchy``, in
    O(P^2); both, a nonzero constant term and a non-integer coefficient
    raise ``ConsistencyError``."""
    return list(_h_coeffs(n, precision))


def catalan(precision: int) -> list[int]:
    """Catalan generating function, by the convolution recurrence."""
    c = [1] + [0] * precision
    for m in range(precision):
        c[m + 1] = sum(c[i] * c[m - i] for i in range(m + 1))
    return c


def ext_binom(a: int, b: int) -> int:
    """Binomial coefficient extended to all integer pairs.

    Zero for b < 0, the usual value for 0 <= b <= a, and the upper-negation
    value (-1)^b * C(b-a-1, b) for a < 0; this is the unique extension
    satisfying Pascal's identity on all of ZxZ.
    """
    if b < 0:
        return 0
    if a >= 0:
        return math.comb(a, b) if b <= a else 0
    return (-1 if b % 2 else 1) * math.comb(b - a - 1, b)


def multinomial_C(d: int, p: int, q: int) -> int:
    """Trinomial coefficient d! / (p! q! (d-p-q)!)."""
    if p < 0 or q < 0 or p + q > d:
        raise ValueError(f"need 0 <= p, q and p + q <= d, got d={d}, p={p}, q={q}")
    return math.comb(d, p) * math.comb(d - p, q)

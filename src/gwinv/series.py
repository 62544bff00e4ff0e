"""Exact truncated formal power series over a commutative coefficient ring.

Coefficients are plain Python objects supporting ``+``, ``-`` (unary and
binary), ``*`` and ``==``.  Every coefficient ring (``ZZ`` here,
``witt.GwRing``, ``divided.ValueRing``) follows one small protocol: the
constants ``zero``/``one``, the embedding ``from_int`` and the test
``is_zero``.  Series with GW coefficients are not multiplied out in the
library: ``witt.character_series`` reduces a product prod (1 + a t)^c over
the terms of a form (its exterior-power series, its Stiefel-Whitney-style
series) to one integer series per character of the square-class group
and transforms the values back.  The level series x_n comes from the
quadratic recursion x_{k+1} = x_k + 2^(k-1) x_k^2, and its inverse h_n
from undoing those steps one at a time, each solved degree by degree.
Building h_n checks x_n o h_n = t with x's own recursion and h_n o x_n = t
with the inversion steps, in O(n P^2) integer products; the verify
``series`` suite checks both again by Horner ``compose``.
Everything is exact: no floats, no coercion, and every series carries an
explicit truncation order.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache
from typing import Sequence


class RingMismatchError(TypeError):
    """Two series with different coefficient rings were combined."""


class CompositionDomainError(ValueError):
    """Inner series of a composition has a nonzero constant coefficient."""


class ConsistencyError(RuntimeError):
    """An internal exact-arithmetic identity failed; this signals a bug."""


class IntRing:
    """Coefficient adapter for plain Python integers; also the universal
    scalar ring of Witt-mode invariants, where eps = {-1} acts as 2."""

    zero = 0
    one = 1

    @staticmethod
    def from_int(n: int) -> int:
        return n

    @staticmethod
    def eps_pow(j: int) -> int:
        return 1 << j

    @staticmethod
    def is_zero(x) -> bool:
        return x == 0

    def __eq__(self, other) -> bool:
        return isinstance(other, IntRing)

    def __hash__(self) -> int:
        return hash("IntRing")

    def __repr__(self) -> str:
        return "IntRing"


ZZ = IntRing()


class TruncSeries:
    """A formal power series known exactly up to a fixed degree.

    ``coeffs`` has length ``precision + 1``; degrees above the precision are
    unknown, not zero.  Instances are never mutated after construction.
    """

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs: Sequence, precision: int | None = None):
        coeffs = list(coeffs)
        if precision is not None:
            if len(coeffs) > precision + 1:
                coeffs = coeffs[: precision + 1]
            while len(coeffs) < precision + 1:
                coeffs.append(ring.zero)
        if not coeffs:
            raise ValueError("a series needs at least the degree-0 coefficient")
        self.ring = ring
        self.coeffs = coeffs

    @property
    def precision(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def zero(cls, ring, precision: int) -> "TruncSeries":
        return cls(ring, [ring.zero] * (precision + 1))

    @classmethod
    def one(cls, ring, precision: int) -> "TruncSeries":
        return cls(ring, [ring.one] + [ring.zero] * precision)

    @classmethod
    def identity(cls, ring, precision: int) -> "TruncSeries":
        """The series t (requires precision >= 1)."""
        if precision < 1:
            raise ValueError("precision must be >= 1 for the identity series")
        return cls(ring, [ring.zero, ring.one] + [ring.zero] * (precision - 1))

    def _check(self, other: "TruncSeries") -> None:
        if self.ring != other.ring:
            raise RingMismatchError(
                f"coefficient rings differ: {self.ring!r} vs {other.ring!r}"
            )

    def coeff(self, d: int):
        if d < 0 or d > self.precision:
            raise IndexError(f"degree {d} outside known precision {self.precision}")
        return self.coeffs[d]

    def truncate(self, precision: int) -> "TruncSeries":
        if precision > self.precision:
            raise ValueError("cannot extend a truncated series")
        return TruncSeries(self.ring, self.coeffs[: precision + 1])

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.precision == other.precision
            and all(a == b for a, b in zip(self.coeffs, other.coeffs))
        )

    __hash__ = None

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        self._check(other)
        prec = min(self.precision, other.precision)
        return TruncSeries(
            self.ring,
            [self.coeffs[i] + other.coeffs[i] for i in range(prec + 1)],
        )

    def __sub__(self, other: "TruncSeries") -> "TruncSeries":
        self._check(other)
        prec = min(self.precision, other.precision)
        return TruncSeries(
            self.ring,
            [self.coeffs[i] - other.coeffs[i] for i in range(prec + 1)],
        )

    def __neg__(self) -> "TruncSeries":
        return TruncSeries(self.ring, [-c for c in self.coeffs])

    def scale(self, c) -> "TruncSeries":
        return TruncSeries(self.ring, [c * a for a in self.coeffs])

    def add_const(self, c) -> "TruncSeries":
        return TruncSeries(self.ring, [self.coeffs[0] + c] + self.coeffs[1:])

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        self._check(other)
        ring = self.ring
        prec = min(self.precision, other.precision)
        out = [ring.zero] * (prec + 1)
        for i, a in enumerate(self.coeffs[: prec + 1]):
            if ring.is_zero(a):
                continue
            for j in range(prec + 1 - i):
                b = other.coeffs[j]
                if ring.is_zero(b):
                    continue
                out[i + j] = out[i + j] + a * b
        return TruncSeries(ring, out)

    def compose(self, inner: "TruncSeries") -> "TruncSeries":
        """self o inner, truncated at the smaller precision.

        Horner evaluation in the series ring; ``inner`` must have zero
        constant coefficient so the result is well-defined degreewise.
        """
        self._check(inner)
        ring = self.ring
        if not ring.is_zero(inner.coeffs[0]):
            raise CompositionDomainError(
                "inner series must have zero constant coefficient"
            )
        prec = min(self.precision, inner.precision)
        inner = inner.truncate(prec) if inner.precision > prec else inner
        acc = TruncSeries(ring, [self.coeffs[prec]], precision=prec)
        for d in range(prec - 1, -1, -1):
            acc = (acc * inner).add_const(self.coeffs[d])
        return acc

    def __repr__(self) -> str:
        return f"TruncSeries({self.ring!r}, {self.coeffs!r})"


def even_odd_split(f: TruncSeries) -> tuple[TruncSeries, TruncSeries]:
    """(even part, odd part); the two add back to the input."""
    zero = f.ring.zero
    even = [zero if d % 2 else c for d, c in enumerate(f.coeffs)]
    odd = [c if d % 2 else zero for d, c in enumerate(f.coeffs)]
    return TruncSeries(f.ring, even), TruncSeries(f.ring, odd)


def _level_chain(u: list[int], n: int) -> list[int]:
    """x_n o u for an integer series u with zero constant term: x_1 o u =
    u/(1-u), then x_(k+1) = x_k + 2^(k-1) x_k^2 for k = 1..n-1."""
    y = list(u)
    for d in range(2, len(y)):
        y[d] += sum(map(operator.mul, u[1:d], y[d - 1 : 0 : -1]))
    for k in range(1, n):
        s = 1 << (k - 1)
        y = [c + s * sum(map(operator.mul, y[1:d], y[d - 1 : 0 : -1])) for d, c in enumerate(y)]
    return y


def _identity(precision: int) -> list[int]:
    return [0, 1, *[0] * precision][: precision + 1]


@lru_cache(maxsize=None)
def _x_coeffs(n: int, precision: int) -> tuple[int, ...]:
    if n < 1:
        raise ValueError("series level must be >= 1")
    return tuple(_level_chain(_identity(precision), n))


def build_x(n: int, precision: int) -> TruncSeries:
    """Integer series whose level-n exterior-power transform of a generator
    is 1 + (generator) * series; level 1 is the geometric series t/(1-t)."""
    return TruncSeries(ZZ, list(_x_coeffs(n, precision)))


def _invert_step(v: list[int], c: int) -> list[int]:
    """The w with w + c w^2 = v, solved degree by degree (v(0) = 0)."""
    w = [0] * len(v)
    for d in range(1, len(v)):
        w[d] = v[d] - c * sum(map(operator.mul, w[1:d], w[d - 1 : 0 : -1]))
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


@lru_cache(maxsize=None)
def _h_coeffs(n: int, precision: int) -> tuple[int, ...]:
    x = _x_coeffs(n, precision)
    t = _identity(precision)
    h = _inverse_chain(t, n)
    # x_n o h by x's own recursion shares no step with the inversion
    if _level_chain(h, n) != t:
        raise ConsistencyError(f"substitution series round trip x_n o h_n failed at level {n}")
    if _inverse_chain(x, n) != t:
        raise ConsistencyError(f"substitution series round trip h_n o x_n failed at level {n}")
    for c in h:
        if not isinstance(c, int):
            raise ConsistencyError("substitution series has a non-integer coefficient")
    return tuple(h)


def build_h(n: int, precision: int) -> TruncSeries:
    """Compositional inverse of ``build_x(n, .)``.  x_n = p_(n-1) o ... o
    p_1 o x_1 with x_1 = t/(1-t) and p_k(t) = t + 2^(k-1) t^2, so h_n is
    built by inverting one step at a time from the outside in: start from
    t, solve w + 2^(k-1) w^2 = v degree by degree for k = n-1 down to 1,
    and finish with v/(1+v); O(n P^2) integer products.  Before returning,
    x_n o h_n = t is checked by running x's own recursion on h_n, and
    h_n o x_n = t by running the same inversion steps on x_n; both and the
    integrality of every coefficient raise ``ConsistencyError`` on failure."""
    return TruncSeries(ZZ, list(_h_coeffs(n, precision)))


def catalan(precision: int) -> TruncSeries:
    """Catalan generating function, by the convolution recurrence."""
    c = [1] + [0] * precision
    for m in range(precision):
        c[m + 1] = sum(c[i] * c[m - i] for i in range(m + 1))
    return TruncSeries(ZZ, c)


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

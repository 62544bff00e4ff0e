"""Exact truncated formal power series over a commutative coefficient ring.

Coefficients are plain Python objects supporting ``+``, ``-`` (unary and
binary), ``*`` and ``==``.  Every coefficient ring (``ZZ`` here,
``witt.GwRing``, ``divided.ValueRing``) follows one small protocol: the
constants ``zero``/``one``, the embedding ``from_int`` and the test
``is_zero``.  ``group_law`` is the one routine that multiplies out a
series of the form prod (1 + a t)^c; the Stiefel-Whitney-style images of
a form come from it.  Series with GW coefficients are not multiplied out
in the library: ``witt.lambda_series`` reduces them to integer series
under the characters of the square-class group.  The level series x_n
comes from the quadratic recursion x_{k+1} = x_k + 2^(k-1) x_k^2, its
inverse h_n from the Catalan chain that inverts each step in closed form,
and ``h_power_columns`` tabulates the powers of h_n for composition.
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


class SeriesInversionError(ValueError):
    """Series is not invertible for the requested operation."""


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

    def pow(self, n: int) -> "TruncSeries":
        if n < 0:
            raise ValueError("negative powers are not defined; invert first")
        result = TruncSeries.one(self.ring, self.precision)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def mul_inverse(self) -> "TruncSeries":
        """Inverse for multiplication; the constant coefficient must be 1."""
        ring = self.ring
        if not self.coeffs[0] == ring.one:
            raise SeriesInversionError("multiplicative inverse needs constant term 1")
        prec = self.precision
        out = [ring.one] + [ring.zero] * prec
        for d in range(1, prec + 1):
            acc = ring.zero
            for i in range(1, d + 1):
                acc = acc + self.coeffs[i] * out[d - i]
            out[d] = -acc
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


def group_law(ring, atoms, precision: int) -> TruncSeries:
    """The product of (1 + a t)^c over the pairs (a, c) of ``atoms``,
    truncated: the group morphism from formal sums of atoms to
    1 + t ring[[t]], multiplied out in ``ring``.  Positive and negative
    multiplicities are multiplied up separately, in the order given, and
    the negative part is inverted once at the end.  ``atoms`` is not read
    at precision 0.  The library calls it for the Stiefel-Whitney-style
    series over a value ring; exterior-power series of GW elements go
    through the character kernel ``witt.lambda_series`` instead, and the
    tests keep the multiplied-out GW route as its oracle."""
    if precision == 0:
        return TruncSeries.one(ring, 0)
    num = TruncSeries.one(ring, precision)
    den = TruncSeries.one(ring, precision)
    for a, c in atoms:
        binomial = TruncSeries(ring, [ring.one, a], precision=precision)
        if c > 0:
            num = num * binomial.pow(c)
        else:
            den = den * binomial.pow(-c)
    return num * den.mul_inverse()


@lru_cache(maxsize=None)
def _x_coeffs(n: int, precision: int) -> tuple[int, ...]:
    if n < 1:
        raise ValueError("series level must be >= 1")
    x = TruncSeries(ZZ, [0] + [1] * precision)
    for k in range(1, n):
        x = x + (x * x).scale(2 ** (k - 1))
    return tuple(x.coeffs)


def build_x(n: int, precision: int) -> TruncSeries:
    """Integer series whose level-n exterior-power transform of a generator
    is 1 + (generator) * series; level 1 is the geometric series t/(1-t)."""
    return TruncSeries(ZZ, list(_x_coeffs(n, precision)))


@lru_cache(maxsize=None)
def _h_coeffs(n: int, precision: int) -> tuple[int, ...]:
    x = build_x(n, precision)
    if precision == 0:
        return (0,)
    # h_1 = t/(1+t) inverts x_1, and p_k(t) = t + 2^(k-1) t^2 inverts in
    # closed form to t C(-2^(k-1) t), so h_{k+1} = h_k o t C(-2^(k-1) t).
    h = TruncSeries(ZZ, [0] + [(-1) ** (d - 1) for d in range(1, precision + 1)])
    cat = catalan(precision).coeffs
    for k in range(1, n):
        s = -(2 ** (k - 1))
        h = h.compose(
            TruncSeries(ZZ, [0] + [c * s**d for d, c in enumerate(cat)], precision)
        )
    t = TruncSeries.identity(ZZ, precision)
    if not (x.compose(h) == t and h.compose(x) == t):
        raise ConsistencyError(f"substitution series round trip failed at level {n}")
    for c in h.coeffs:
        if not isinstance(c, int):
            raise ConsistencyError("substitution series has a non-integer coefficient")
    return tuple(h.coeffs)


def build_h(n: int, precision: int) -> TruncSeries:
    """Compositional inverse of ``build_x(n, .)``, composed from the closed-form
    inverses of the quadratic steps: t/(1+t), then t C(-2^(k-1) t) for
    k = 1..n-1 with C the Catalan series.  Integral by construction; the
    round trip with ``build_x`` is verified before returning."""
    return TruncSeries(ZZ, list(_h_coeffs(n, precision)))


# A table holds about P^2/2 integers (about 2 MB at P = 256), so unlike
# h_n itself only the most recent tables are kept; one pass of the verify
# gate or of the benchmark's eval stream reads about twenty.
@lru_cache(maxsize=64)
def h_power_columns(n: int, precision: int) -> tuple[tuple[int, ...], ...]:
    """The powers of ``build_h(n, precision)`` read by degree: column d
    lists [t^d] h_n^k for k = 0..d (h_n^k starts at degree k), so an
    integer series a composed with h_n has degree-d coefficient
    sum_k a_k column[d][k]."""
    h = build_h(n, precision).coeffs
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

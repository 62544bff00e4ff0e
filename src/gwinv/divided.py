"""Divided-power operations on GW and the invariant families they induce.

The level-n divided powers arise by substituting the level-n inverse series
into the exterior-power transform; they vanish in degrees >= 2 on n-fold
Pfister lifts and act as elementary symmetric functions on sums of them.
Composing with the Witt projection (mode W) or the degree-nd cohomological
invariant (mode H) yields the f-family; the g-family is the balanced
rebasing of it with bounded support on every fixed class.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cohomology import CohClass, e_n, minus_one_power, symbol
from .fields import FieldDescriptor, SquareClass
from .series import TruncSeries, ext_binom, group_law, h_power_columns
from .witt import (
    GwElement,
    GwRing,
    MembershipError,
    WittClass,
    hat_lift,
    is_in_In,
    lambda_series,
    pfister,
    witt_canonical,
    witt_one,
    witt_zero,
)


@dataclass(frozen=True)
class InvariantTarget:
    """The value functor: Witt classes (mode W) or cohomology (mode H)."""

    mode: str

    def __post_init__(self):
        if self.mode not in ("W", "H"):
            raise ValueError("target mode must be 'W' or 'H'")

    def ring(self, field: FieldDescriptor) -> "ValueRing":
        return ValueRing(field, self.mode)


W_TARGET = InvariantTarget("W")
H_TARGET = InvariantTarget("H")


@dataclass(frozen=True)
class ValueRing:
    """The value ring A(K) over one field: W(K) in mode W, H*(K, Z/2) in
    mode H.  Besides the series-ring protocol (``zero``, ``one``,
    ``from_int``, ``is_zero``) it sends the universal scalar ring in:
    ``eps_pow(j)`` is the image of eps^j = {-1}^j, ``symbol`` the image of
    {a_1,...,a_t}, and ``times(x, c)`` is c.x for a universal coefficient c
    (an integer in mode W, an F2-polynomial in eps in mode H)."""

    field: FieldDescriptor
    mode: str

    @property
    def zero(self):
        return witt_zero(self.field) if self.mode == "W" else CohClass.zero(self.field)

    @property
    def one(self):
        return witt_one(self.field) if self.mode == "W" else CohClass.one(self.field)

    def from_int(self, n: int):
        if self.mode == "W":
            return self.one.int_mul(n)
        return self.one if n % 2 else self.zero

    @staticmethod
    def is_zero(x) -> bool:
        return x.is_zero

    def eps_pow(self, j: int):
        """{-1}^j; in W this is 2^j, since <<-1>> = <1,1> = 2."""
        if self.mode == "W":
            return self.from_int(1 << j)
        return minus_one_power(self.field, j)

    def symbol(self, classes: list[SquareClass] | tuple[SquareClass, ...]):
        """{a_1,...,a_t}: the Pfister Witt class or the Galois symbol."""
        if self.mode == "W":
            return witt_canonical(pfister(classes))
        return symbol(classes)

    def times(self, x, c):
        if self.mode == "W":
            return x.int_mul(c)
        out = self.zero
        for j in range(c.bits.bit_length()):
            if c.bits >> j & 1:
                out = out + self.eps_pow(j) * x
        return out


# -- the divided powers themselves


def eval_pi_series(n: int, precision: int, x: GwElement) -> TruncSeries:
    """Generating series of the level-n divided powers of x, exact to the
    requested degree: the exterior-power series composed with the level-n
    substitution series h_n, in one pass of the character kernel."""
    if n < 1:
        raise ValueError("the level n must be >= 1")
    if precision == 0 or x.is_formal_zero:
        return TruncSeries.one(GwRing(x.field), precision)
    return lambda_series(x, precision, h_power_columns(n, precision))


def eval_pi(n: int, d: int, x: GwElement) -> GwElement:
    """Degree-d divided power of x at level n."""
    return eval_pi_series(n, d, x).coeff(d)


# -- the f and g families on concrete Witt classes


def eval_f_all(
    n: int, q: WittClass, target: InvariantTarget, d_max: int
) -> list:
    """Values of the degree-0..d_max f-family members on q, sharing one
    divided-power series; the one membership check of an evaluation."""
    if not is_in_In(q, n):
        raise MembershipError(f"class is not in I^{n}")
    series = eval_pi_series(n, d_max, hat_lift(q)) if d_max else None
    out = []
    for d in range(d_max + 1):
        if d == 0:
            w = witt_one(q.field)
        else:
            w = witt_canonical(series.coeff(d))
        if target.mode == "W":
            out.append(w)
        else:
            out.append(e_n(w, n * d))
    return out


def eval_f(n: int, d: int, q: WittClass, target: InvariantTarget):
    """The degree-nd invariant of q in I^n obtained from the level-n
    divided power of degree d."""
    return eval_f_all(n, q, target, d)[d]


def g_transition_terms(n: int, d: int) -> list[tuple[int, int, int]]:
    """The g-to-f rebasing of a single g generator, as triples
    (integer coefficient, eps exponent, f degree)."""
    if d == 0:
        return [(1, 0, 0)]
    lo = d // 2 + 1
    top = (d - 1) // 2
    return [
        (ext_binom(top, k - lo), n * (d - k), k)
        for k in range(lo, d + 1)
        if ext_binom(top, k - lo) != 0
    ]


def eval_g(n: int, d: int, q: WittClass, target: InvariantTarget):
    """The balanced invariant family, through the f-basis rebasing."""
    fvals = eval_f_all(n, q, target, d)
    ring = target.ring(q.field)
    out = ring.zero
    for c, j, k in g_transition_terms(n, d):
        out = out + ring.from_int(c) * ring.eps_pow(j) * fvals[k]
    return out


# -- total Stiefel-Whitney-style maps on GW


def sw_series(x: GwElement, precision: int, target: InvariantTarget) -> TruncSeries:
    """The unique group morphism GW -> 1 + t A[[t]] sending <a> to
    1 + {a} t, truncated."""
    ring = target.ring(x.field)
    return group_law(ring, ((ring.symbol([a]), c) for a, c in x.entries()), precision)


def eval_sw(d: int, x: GwElement, target: InvariantTarget):
    """Degree-d coefficient of ``sw_series``; over cohomology this is the
    d-th Stiefel-Whitney class of a diagonal form."""
    return sw_series(x, d, target).coeff(d)


def p_fixed(d: int, x: GwElement) -> GwElement:
    """GW-level expansion of the Witt-valued Stiefel-Whitney analogue on a
    fixed dimension: an alternating binomial combination of exterior
    powers of a nonnegative diagonal form."""
    if not x.is_nonneg_diagonal():
        raise ValueError("the fixed-dimension expansion needs a nonnegative diagonal")
    m = x.dim
    lam = lambda_series(x, d)
    out = GwElement.zero(x.field)
    for k in range(d + 1):
        c = ext_binom(m - k, d - k)
        if c == 0:
            continue
        term = lam.coeff(k) if k else GwElement.unit(x.field)
        out = out + term.scale(c if k % 2 == 0 else -c)
    return out


def eval_fixed_dim(
    d: int, x: GwElement, target: InvariantTarget, basis: str = "f"
):
    """Evaluate the degree-d member of the f- or g-family on an
    even-dimensional diagonal form through its Stiefel-Whitney expansion."""
    if basis not in ("f", "g"):
        raise ValueError("basis must be 'f' or 'g'")
    if not x.is_nonneg_diagonal():
        raise ValueError("fixed-dimension evaluation needs a nonnegative diagonal")
    m = x.dim
    if m % 2:
        raise ValueError("fixed-dimension evaluation needs even dimension")
    r = m // 2
    ring = target.ring(x.field)
    sw = sw_series(x, d, target)
    out = ring.zero
    for i in range(d + 1):
        if basis == "f":
            c = ext_binom(r - i, d - i)
        else:
            c = ext_binom(r - i - 1 + (d + 1) // 2, d - i)
        if c == 0:
            continue
        sign = c if i % 2 == 0 else -c
        out = out + ring.from_int(sign) * ring.eps_pow(d - i) * sw.coeff(i)
    return out

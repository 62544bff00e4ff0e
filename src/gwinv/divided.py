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

from .cohomology import CohClass, CohRing, e_n, minus_one_power
from .fields import FieldDescriptor, minus_one
from .series import TruncSeries, ext_binom
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
    """The value functor: Witt classes (delta = 1) or cohomology (delta = 0)."""

    mode: str

    def __post_init__(self):
        if self.mode not in ("W", "H"):
            raise ValueError("target mode must be 'W' or 'H'")

    @property
    def delta(self) -> int:
        return 1 if self.mode == "W" else 0


W_TARGET = InvariantTarget("W")
H_TARGET = InvariantTarget("H")


# -- value-side helpers (A(K) arithmetic uniform over the two modes)


def unit_value(field: FieldDescriptor, target: InvariantTarget):
    return witt_one(field) if target.mode == "W" else CohClass.one(field)


def zero_value(field: FieldDescriptor, target: InvariantTarget):
    return witt_zero(field) if target.mode == "W" else CohClass.zero(field)


def int_times(value, c: int, target: InvariantTarget):
    if target.mode == "W":
        return value.int_mul(c)
    return value if c % 2 else CohClass.zero(value.field)


def eps_value(field: FieldDescriptor, j: int, target: InvariantTarget):
    """{-1}^j in the target: a (-1)-Pfister power, or a power of (-1)."""
    if target.mode == "H":
        return minus_one_power(field, j)
    out = witt_one(field)
    if j:
        e = witt_canonical(pfister([minus_one(field)]))
        for _ in range(j):
            out = out * e
    return out


def f1_of(classes, target: InvariantTarget):
    """{a_1,...,a_t}: the Pfister Witt class or the Galois symbol."""
    from .cohomology import symbol

    if target.mode == "W":
        return witt_canonical(pfister(list(classes)))
    return symbol(list(classes))


# -- the divided powers themselves


def eval_pi_series(n: int, precision: int, x: GwElement) -> TruncSeries:
    """Generating series of the level-n divided powers of x, exact to the
    requested degree: the exterior-power series composed with the level-n
    substitution series."""
    if n < 1:
        raise ValueError("the level n must be >= 1")
    ring = GwRing(x.field)
    if precision == 0:
        return TruncSeries.one(ring, 0)
    lam = lambda_series(x, precision)
    from .series import build_h

    h = build_h(n, precision)
    h_lift = TruncSeries(ring, [ring.from_int(c) for c in h.coeffs])
    return lam.compose(h_lift)


def eval_pi(n: int, d: int, x: GwElement) -> GwElement:
    """Degree-d divided power of x at level n."""
    return eval_pi_series(n, d, x).coeff(d)


# -- the f and g families on concrete Witt classes


def eval_f_all(
    n: int, q: WittClass, target: InvariantTarget, d_max: int
) -> list:
    """Values of the degree-0..d_max f-family members on q, sharing one
    divided-power series."""
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
    if not is_in_In(q, n):
        raise MembershipError(f"class is not in I^{n}")
    if d == 0:
        return unit_value(q.field, target)
    fvals = eval_f_all(n, q, target, d)
    out = zero_value(q.field, target)
    for c, j, k in g_transition_terms(n, d):
        term = int_times(eps_value(q.field, j, target) * fvals[k], c, target)
        out = out + term
    return out


# -- total Stiefel-Whitney-style maps on GW


def sw_series(x: GwElement, precision: int, target: InvariantTarget) -> TruncSeries:
    """The unique group morphism GW -> 1 + t A[[t]] sending <a> to
    1 + {a} t, truncated."""
    field = x.field
    ring = _value_ring(field, target)
    if precision == 0:
        return TruncSeries.one(ring, 0)
    num = TruncSeries.one(ring, precision)
    den = TruncSeries.one(ring, precision)
    for a, c in x.entries():
        binom = TruncSeries(
            ring, [ring.one, f1_of([a], target)], precision=precision
        )
        if c > 0:
            num = num * binom.pow(c)
        else:
            den = den * binom.pow(-c)
    return num * den.mul_inverse()


def eval_sw(d: int, x: GwElement, target: InvariantTarget):
    """Degree-d coefficient of ``sw_series``; over cohomology this is the
    d-th Stiefel-Whitney class of a diagonal form."""
    if d == 0:
        return unit_value(x.field, target)
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
    field = x.field
    sw = sw_series(x, d, target) if d else None
    out = zero_value(field, target)
    for i in range(d + 1):
        if basis == "f":
            c = ext_binom(r - i, d - i)
        else:
            c = ext_binom(r - i - 1 + (d + 1) // 2, d - i)
        if c == 0:
            continue
        h_i = sw.coeff(i) if i else unit_value(field, target)
        term = eps_value(field, d - i, target) * h_i
        out = out + int_times(term, c if i % 2 == 0 else -c, target)
    return out


def _value_ring(field: FieldDescriptor, target: InvariantTarget):
    return WittRing(field) if target.mode == "W" else CohRing(field)


@dataclass(frozen=True)
class WittRing:
    """Coefficient adapter for series with Witt-class coefficients."""

    field: FieldDescriptor

    @property
    def zero(self) -> WittClass:
        return witt_zero(self.field)

    @property
    def one(self) -> WittClass:
        return witt_one(self.field)

    def from_int(self, n: int) -> WittClass:
        return witt_one(self.field).int_mul(n)

    @staticmethod
    def is_zero(x: WittClass) -> bool:
        return x.is_zero

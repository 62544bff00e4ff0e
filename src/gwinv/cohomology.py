"""Mod-2 cohomology of the field towers as an explicit graded F2-algebra.

Classes are F2-sets of basis monomials.  A monomial is a pair
(base exponent, variable bitmask): the base part is a power of (-1) over a
real-closed base, at most one factor (u) over a finite base, and trivial
over a quadratically closed base; the variable part is a squarefree product
of degree-1 classes of tower variables.  The grade of a monomial is the
base exponent plus the number of variables.  ``e_n`` takes the filtration
level and the monomials of e at that level from ``witt.filtration_level``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import (
    FINITE_ODD,
    FieldDescriptor,
    FieldMismatchError,
    SquareClass,
    minus_one_mask,
)
from .witt import MembershipError, WittClass, filtration_level


@dataclass(frozen=True)
class CohClass:
    """An F2-combination of cohomology basis monomials."""

    field: FieldDescriptor
    monos: frozenset  # of (base_exp: int, var_mask: int)

    @classmethod
    def zero(cls, field: FieldDescriptor) -> "CohClass":
        return cls(field, frozenset())

    @classmethod
    def one(cls, field: FieldDescriptor) -> "CohClass":
        return cls(field, frozenset({(0, 0)}))

    @property
    def is_zero(self) -> bool:
        return not self.monos

    def _check(self, other: "CohClass") -> None:
        if self.field != other.field:
            raise FieldMismatchError("cohomology classes over different fields")

    def __add__(self, other: "CohClass") -> "CohClass":
        self._check(other)
        return CohClass(self.field, self.monos ^ other.monos)

    __sub__ = __add__

    def __neg__(self) -> "CohClass":
        return self

    def __mul__(self, other: "CohClass") -> "CohClass":
        """Cup product, monomial by monomial.  Each shared variable turns
        (t).(t) into (-1).(t): the product vanishes when -1 is a square,
        and otherwise the overlap adds to the base exponent.  Over F_q the
        product also vanishes once that exponent reaches 2, since the base
        has no cohomology above degree 1."""
        self._check(other)
        field = self.field
        minus_one_square = not minus_one_mask(field)
        finite = field.kind == FINITE_ODD
        acc: set = set()
        for b1, v1 in self.monos:
            for b2, v2 in other.monos:
                overlap = (v1 & v2).bit_count()
                if overlap and minus_one_square:
                    continue
                b = b1 + b2 + overlap
                if b < 2 or not finite:
                    acc ^= {(b, v1 | v2)}
        return CohClass(field, frozenset(acc))

    def __str__(self) -> str:
        """Sorted cup-products of degree-1 symbols, e.g. '(-1)^2.(t1)'."""
        if self.is_zero:
            return "0"
        field = self.field
        rendered = []
        for b, v in sorted(self.monos, key=lambda mv: (mv[0] + mv[1].bit_count(), mv)):
            factors = []
            if b:
                gen = "u" if field.kind == FINITE_ODD else "-1"
                factors.append(f"({gen})" if b == 1 else f"({gen})^{b}")
            for i, name in enumerate(field.vars):
                if v >> i & 1:
                    factors.append(f"({name})")
            rendered.append(".".join(factors) if factors else "1")
        return " + ".join(rendered)

    def __repr__(self) -> str:
        return f"CohClass({self.field}, {sorted(self.monos)!r})"


def degree1(a: SquareClass) -> CohClass:
    """The degree-1 class of a square-class monomial, expanded over the
    generators (additivity of symbols in each slot)."""
    v = a.var_mask
    monos = {(0, 1 << i) for i in range(v.bit_length()) if v >> i & 1}
    if a.base_mask:
        monos.add((1, 0))
    return CohClass(a.field, frozenset(monos))


def symbol(classes: list[SquareClass] | tuple[SquareClass, ...]) -> CohClass:
    """Cup product of the degree-1 classes of the arguments; the empty
    product is 1."""
    if not classes:
        raise ValueError("symbol needs a field; use CohClass.one for degree 0")
    out = CohClass.one(classes[0].field)
    for a in classes:
        out = out * degree1(a)
    return out


def minus_one_power(field: FieldDescriptor, j: int) -> CohClass:
    """(-1)^j as a cohomology class (1 for j = 0), in closed form: the
    monomial (j, 0) over a real-closed base, (u) for j = 1 over F_q with
    q = 3 mod 4 and 0 there for j >= 2 (the base has no cohomology above
    degree 1), and 0 for j >= 1 wherever -1 is a square."""
    if j < 0:
        raise ValueError(f"negative power {j} of (-1)")
    if j and (not minus_one_mask(field) or (field.kind == FINITE_ODD and j > 1)):
        return CohClass.zero(field)
    return CohClass(field, frozenset({(j, 0)}))


def coh_residue(x: CohClass) -> CohClass:
    """Residue for the top variable: delete (t) where present, kill the
    rest; lands over the one-shorter tower."""
    field = x.field
    if field.depth == 0:
        raise ValueError("residue needs a tower of depth >= 1")
    sub = field.parent()
    top = 1 << (field.depth - 1)  # top-variable bit inside the var mask
    monos = frozenset((b, v ^ top) for b, v in x.monos if v & top)
    return CohClass(sub, monos)


def e_n(q: WittClass, n: int) -> CohClass:
    """The degree-n cohomological invariant of a class in I^n; zero on
    I^(n+1)."""
    level, monos = filtration_level(q)
    if level is not None and level < n:
        raise MembershipError(f"class is not in I^{n}")
    return CohClass(q.field, monos if level == n else frozenset())

"""Grothendieck-Witt and Witt ring arithmetic over the field towers.

A ``GwElement`` is a formal ZZ-combination of one-dimensional diagonal
forms <a> with square-class entries.  A ``WittClass`` is the canonical form
of its image in the Witt ring.  Iterating Springer's theorem,
W(K((t))) = W(K) + <t> W(K), over a tower K0((t1))...((tk)) makes the Witt
ring the group ring W(K0)[(Z/2)^k]; a class is stored flat as its 2^k
leaves, one base payload (dimension parity / signature / parity plus signed
discriminant) per variable mask.  Two inverse routines, ``_base_terms``
(payload to a small diagonal form) and ``_base_payload`` (diagonal form to
payload), alone know the payload format: a leaf operation is the payload
of an operation on the small representatives.  ``filtration_level`` reads
the filtration level and the invariant e at that level off the leaves in
one Springer pass.
Equality in GW is decided through the pair (dimension, Witt class), which
determines an element uniquely.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import combinations

from .fields import (
    QUAD_CLOSED,
    REAL_CLOSED,
    FieldDescriptor,
    FieldMismatchError,
    FieldSyntaxError,
    SquareClass,
    minus_one_mask,
    parse_sc,
    sc_one,
    split_signed_sum,
)
from .series import TruncSeries, group_law


class MembershipError(ValueError):
    """A Witt class is outside the required power of the fundamental ideal."""


# ---------------------------------------------------------------------------
# formal diagonal forms


class GwElement:
    """Formal ZZ-combination of diagonal one-dimensional forms."""

    __slots__ = ("field", "terms")

    def __init__(self, field: FieldDescriptor, terms: dict[int, int] | None = None):
        self.field = field
        self.terms = {m: c for m, c in (terms or {}).items() if c != 0}

    # -- constructors

    @classmethod
    def zero(cls, field: FieldDescriptor) -> "GwElement":
        return cls(field, {})

    @classmethod
    def unit(cls, field: FieldDescriptor) -> "GwElement":
        return cls(field, {0: 1})

    @classmethod
    def from_int(cls, field: FieldDescriptor, n: int) -> "GwElement":
        return cls(field, {0: n})

    @classmethod
    def diag(cls, *classes: SquareClass) -> "GwElement":
        if not classes:
            raise ValueError("a diagonal form needs at least one entry")
        field = classes[0].field
        terms: dict[int, int] = {}
        for a in classes:
            if a.field != field:
                raise FieldMismatchError("diagonal entries over different fields")
            terms[a.mask] = terms.get(a.mask, 0) + 1
        return cls(field, terms)

    # -- ring structure

    def _check(self, other: "GwElement") -> None:
        if self.field != other.field:
            raise FieldMismatchError("forms over different fields")

    def __add__(self, other: "GwElement") -> "GwElement":
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return GwElement(self.field, out)

    def __sub__(self, other: "GwElement") -> "GwElement":
        return self + (-other)

    def __neg__(self) -> "GwElement":
        return GwElement(self.field, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other: "GwElement") -> "GwElement":
        self._check(other)
        out: dict[int, int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = m1 ^ m2
                out[m] = out.get(m, 0) + c1 * c2
        return GwElement(self.field, out)

    def scale(self, n: int) -> "GwElement":
        return GwElement(self.field, {m: n * c for m, c in self.terms.items()})

    @property
    def dim(self) -> int:
        return sum(self.terms.values())

    @property
    def is_formal_zero(self) -> bool:
        return not self.terms

    def entries(self) -> list[tuple[SquareClass, int]]:
        return [
            (SquareClass(self.field, m), c) for m, c in sorted(self.terms.items())
        ]

    def is_nonneg_diagonal(self) -> bool:
        return all(c > 0 for c in self.terms.values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, GwElement):
            return NotImplemented
        return gw_equal(self, other)

    __hash__ = None

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for a, c in self.entries():
            atom = f"<{a}>"
            if c == 1:
                parts.append(f"+ {atom}")
            elif c == -1:
                parts.append(f"- {atom}")
            else:
                parts.append(f"{'+' if c > 0 else '-'} {abs(c)}*{atom}")
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]

    def __repr__(self) -> str:
        return f"GwElement({self.field}, {self.terms!r})"


def pfister(classes: list[SquareClass] | tuple[SquareClass, ...]) -> GwElement:
    """The 2^n-dimensional form <1,-a_1> x ... x <1,-a_n>."""
    if not classes:
        raise ValueError("a Pfister form needs at least one slot")
    out = GwElement.unit(classes[0].field)
    for a in classes:
        out = out * GwElement.diag(sc_one(a.field), -a)
    return out


def gpfister(classes: list[SquareClass] | tuple[SquareClass, ...]) -> GwElement:
    """The dimension-0 lift (<1> - <a_1>) x ... x (<1> - <a_n>)."""
    if not classes:
        raise ValueError("a Pfister lift needs at least one slot")
    field = classes[0].field
    out = GwElement.unit(field)
    for a in classes:
        out = out * (GwElement.unit(field) - GwElement.diag(a))
    return out


# ---------------------------------------------------------------------------
# Witt canonical forms


@dataclass(frozen=True)
class WittClass:
    """Canonical form of a Witt class; structural equality is Witt equality.

    ``leaves[v]`` is the base payload of the Springer component at variable
    mask v, for 0 <= v < 2^depth, with the top variable as the top bit.
    """

    field: FieldDescriptor
    leaves: tuple

    @property
    def is_zero(self) -> bool:
        return all(x == 0 for p in self.leaves for x in p)

    @property
    def dim_parity(self) -> int:
        return sum(p[0] for p in self.leaves) % 2

    def _check(self, other: "WittClass") -> None:
        if self.field != other.field:
            raise FieldMismatchError("Witt classes over different fields")

    def _leafwise(self, leaves, op) -> "WittClass":
        """Apply ``op`` to every (mask, count) pair of each of ``leaves``."""
        f = self.field
        return WittClass(
            f, tuple(_base_payload(f, [op(m, c) for m, c in _base_terms(f, p)]) for p in leaves)
        )

    def __add__(self, other: "WittClass") -> "WittClass":
        self._check(other)
        return WittClass(self.field, _add_leaves(self.field, self.leaves, other.leaves))

    def __sub__(self, other: "WittClass") -> "WittClass":
        return self + (-other)

    def __neg__(self) -> "WittClass":
        return self._leafwise(self.leaves, lambda m, c: (m, -c))

    def __mul__(self, other: "WittClass") -> "WittClass":
        """XOR convolution of the leaves, since <t><t> = <1>, with the base
        classes of each pair of leaves multiplied pairwise."""
        self._check(other)
        f = self.field
        right = [(v, _base_terms(f, p)) for v, p in enumerate(other.leaves)]
        out: list[list] = [[] for _ in self.leaves]
        for v1, p1 in enumerate(self.leaves):
            for a, c1 in _base_terms(f, p1):
                for v2, t2 in right:
                    out[v1 ^ v2].extend((a ^ b, c1 * c2) for b, c2 in t2)
        return WittClass(f, tuple(_base_payload(f, t) for t in out))

    def int_mul(self, n: int) -> "WittClass":
        return self._leafwise(self.leaves, lambda m, c: (m, n * c))

    def scale_sq(self, a: SquareClass) -> "WittClass":
        """Pointwise multiplication by the scalar a: its variable part
        permutes the leaves, its base part scales each of them."""
        if self.field != a.field:
            raise FieldMismatchError("scalar over a different field")
        v, b = a.var_mask, a.base_mask
        permuted = [self.leaves[w ^ v] for w in range(len(self.leaves))]
        return self._leafwise(permuted, lambda m, c: (m ^ b, c))

    def diag_rep(self) -> list[SquareClass]:
        """A small diagonal form with this Witt class."""
        return [SquareClass(self.field, m) for m, c in _rep_terms(self) for _ in range(c)]

    def __str__(self) -> str:
        rep = self.diag_rep()
        if not rep:
            return "0"
        return "<" + ",".join(str(a) for a in rep) + ">"


# The base payload codec.  Only ``field.kind`` and the mask of -1 are read,
# so any tower over the base may be passed as ``field``.


def _base_terms(field: FieldDescriptor, p: tuple) -> tuple:
    """A small nonnegative diagonal form with base payload p, as
    (mask, count) pairs; a mask may repeat."""
    if field.kind == QUAD_CLOSED:
        return ((0, p[0]),)
    if field.kind == REAL_CLOSED:
        return ((0, p[0]),) if p[0] >= 0 else ((1, -p[0]),)
    par, d = p
    if par:
        return ((d, 1),)
    return ((0, 1), (d ^ minus_one_mask(field), 1)) if d else ()


def _base_payload(field: FieldDescriptor, terms) -> tuple:
    """Canonical base data of the formal ZZ-combination of base classes
    given as (mask, count) pairs, in which a mask may repeat."""
    if field.kind == QUAD_CLOSED:
        return (sum(c for _, c in terms) % 2,)
    if field.kind == REAL_CLOSED:
        return (sum(-c if m else c for m, c in terms),)
    dim, disc = _signed_det(minus_one_mask(field), terms)
    return (dim % 2, disc)


def _signed_det(m1: int, terms) -> tuple[int, int]:
    """Dimension and mask of the signed discriminant (-1)^(d(d-1)/2) det
    of the diagonal form given as (mask, count) pairs, where a negative
    count is read through -c<m> = c<-m> in the Witt ring."""
    dim = det = 0
    for m, c in terms:
        if c < 0:
            m, c = m ^ m1, -c
        dim += c
        if c % 2:
            det ^= m
    return dim, det ^ (m1 if dim % 4 > 1 else 0)


def _add_leaves(field: FieldDescriptor, xs, ys) -> tuple:
    return tuple(
        _base_payload(field, _base_terms(field, x) + _base_terms(field, y))
        for x, y in zip(xs, ys)
    )


def _rep_terms(w: WittClass) -> list[tuple[int, int]]:
    """(mask, count) pairs of a small nonnegative diagonal form with Witt
    class w, leaf by leaf in ascending mask order."""
    f, bits = w.field, w.field.base_bits
    return [(m | v << bits, c) for v, p in enumerate(w.leaves) for m, c in _base_terms(f, p)]


def witt_zero(field: FieldDescriptor) -> WittClass:
    return WittClass(field, (_base_payload(field, ()),) * (1 << field.depth))


def witt_one(field: FieldDescriptor) -> WittClass:
    return witt_canonical(GwElement.unit(field))


def witt_canonical(x: GwElement) -> WittClass:
    """Springer normal form: bucket the entries by their variable mask and
    reduce each bucket to base data."""
    field = x.field
    bits = field.base_bits
    buckets: list[dict[int, int]] = [{} for _ in range(1 << field.depth)]
    for m, c in x.terms.items():
        buckets[m >> bits][m & ((1 << bits) - 1)] = c
    return WittClass(field, tuple(_base_payload(field, b.items()) for b in buckets))


def gw_equal(x: GwElement, y: GwElement) -> bool:
    """Equality in GW: equal dimensions and equal Witt classes."""
    if x.field != y.field:
        raise FieldMismatchError("forms over different fields")
    return x.dim == y.dim and witt_canonical(x) == witt_canonical(y)


def second_residue(q: WittClass) -> WittClass:
    """The ramified component of the Springer splitting for the top
    variable (the upper half of the leaves); vanishes exactly on
    unramified classes."""
    if q.field.depth == 0:
        raise ValueError("second residue needs a tower of depth >= 1")
    return WittClass(q.field.parent(), q.leaves[len(q.leaves) // 2 :])


def unramified_part(q: WittClass) -> WittClass:
    if q.field.depth == 0:
        raise ValueError("unramified part needs a tower of depth >= 1")
    return WittClass(q.field.parent(), q.leaves[: len(q.leaves) // 2])


def hat_lift(q: WittClass) -> GwElement:
    """The unique dimension-0 GW element whose Witt class is q."""
    if q.dim_parity != 0:
        raise MembershipError("only even-dimensional classes lift to dimension 0")
    field = q.field
    terms: dict[int, int] = {}
    for m, c in _rep_terms(q):
        terms[m] = terms.get(m, 0) + c
    x = GwElement(field, terms)
    return x - GwElement.diag(sc_one(field), -sc_one(field)).scale(x.dim // 2)


def filtration_level(q: WittClass) -> tuple[int | None, frozenset]:
    """The largest n with q in I^n, None for the zero class (in every I^n),
    and the monomials (base exponent, variable mask) of e_n(q) at that n.

    A nonzero base payload has level 0 over C, v_2(signature) over R and
    0 or 1 by dimension parity over F_q; its e is the monomial (level, 0).
    With the top variable t splitting the leaves as q = u + <t> r,
    q = a + <<t>> b with a = u + r and b = -r (from <t> r = r - <<t>> r).
    By Springer's theorem q is in I^n iff a is in I^n and b in I^(n-1), so
    level(q) = min(level(a), level(b) + 1), and e(q) = e(a) + (t) cup e(b)
    over the branches attaining the minimum; the cup only sets t's bit.
    I^n is a subgroup and e(-r) = e(r) mod 2, so the pass walks r for b.
    """
    field = q.field

    def walk(leaves: tuple) -> tuple[int | None, frozenset]:
        half = len(leaves) // 2
        if not half:
            p = leaves[0]
            if not any(p):
                return None, frozenset()
            n = (p[0] & -p[0]).bit_length() - 1 if field.kind == REAL_CLOSED else 1 - p[0]
            return n, frozenset({(n, 0)})
        u, r = leaves[:half], leaves[half:]
        la, ma = walk(_add_leaves(field, u, r))
        lb, mb = walk(r)
        if lb is None or (la is not None and la <= lb):
            return la, ma
        mb = frozenset((e, v | half) for e, v in mb)
        return lb + 1, (ma | mb if la == lb + 1 else mb)

    return walk(q.leaves)


def is_in_In(q: WittClass, n: int) -> bool:
    """Membership in the n-th power of the fundamental ideal."""
    level = filtration_level(q)[0]
    return level is None or level >= n


# ---------------------------------------------------------------------------
# exterior powers


@dataclass(frozen=True)
class GwRing:
    """Coefficient adapter for series with GW coefficients."""

    field: FieldDescriptor

    @property
    def zero(self) -> GwElement:
        return GwElement.zero(self.field)

    @property
    def one(self) -> GwElement:
        return GwElement.unit(self.field)

    def from_int(self, n: int) -> GwElement:
        return GwElement.from_int(self.field, n)

    @staticmethod
    def is_zero(x: GwElement) -> bool:
        return not x.terms


def lambda_series(x: GwElement, precision: int) -> TruncSeries:
    """The exterior-power generating series of x, truncated: the group law
    sends each generator <a> to 1 + <a> t."""
    atoms = ((GwElement(x.field, {m: 1}), c) for m, c in sorted(x.terms.items()))
    return group_law(GwRing(x.field), atoms, precision)


def lambda_power(d: int, x: GwElement) -> GwElement:
    """The d-th exterior power; for a nonnegative diagonal form this is the
    elementary symmetric expression in the entries."""
    if d == 0:
        return GwElement.unit(x.field)
    return lambda_series(x, d).coeff(d)


def lambda_power_direct(d: int, x: GwElement) -> GwElement:
    """Combinatorial exterior power of a nonnegative diagonal form; used as
    an independent cross-check of the series route."""
    if not x.is_nonneg_diagonal():
        raise ValueError("direct exterior powers need a nonnegative diagonal form")
    if d == 0:
        return GwElement.unit(x.field)
    masks = [m for m, c in sorted(x.terms.items()) for _ in range(c)]
    terms: dict[int, int] = {}
    for combo in combinations(masks, d):
        m = 0
        for a in combo:
            m ^= a
        terms[m] = terms.get(m, 0) + 1
    return GwElement(x.field, terms)


def signed_disc(x: GwElement) -> SquareClass:
    """Signed discriminant (-1)^(m(m-1)/2) det of a nonnegative diagonal."""
    if not x.is_nonneg_diagonal():
        raise ValueError("signed discriminant needs a nonnegative diagonal form")
    return SquareClass(x.field, _signed_det(minus_one_mask(x.field), x.terms.items())[1])


# ---------------------------------------------------------------------------
# form-expression grammar:  form := term (('+'|'-') term)*
#                           term := [int '*'] atom
#                           atom := 'diag(' sc {',' sc} ')'
#                                 | 'pf(' sc {',' sc} ')' | 'H'

_TERM_RE = re.compile(r"^(?:(\d+)\*)?(.*)$")


def parse_form(text: str, field: FieldDescriptor) -> GwElement:
    out = GwElement.zero(field)
    for sign, term in split_signed_sum(text, "form expression"):
        out = out + _parse_term(term, field).scale(sign)
    return out


def _parse_term(text: str, field: FieldDescriptor) -> GwElement:
    m = _TERM_RE.match(text)
    if not m:
        raise FieldSyntaxError(f"bad form term {text!r}")
    coeff = int(m.group(1)) if m.group(1) else 1
    atom = m.group(2).strip()
    if atom == "H":
        return GwElement.diag(sc_one(field), -sc_one(field)).scale(coeff)
    for head, maker in (("diag(", GwElement.diag), ("pf(", None)):
        if atom.startswith(head) and atom.endswith(")"):
            inner = atom[len(head) : -1]
            classes = [parse_sc(tok, field) for tok in inner.split(",")]
            if maker is not None:
                return maker(*classes).scale(coeff)
            return pfister(classes).scale(coeff)
    raise FieldSyntaxError(f"bad form atom {atom!r}")

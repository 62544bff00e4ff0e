"""Grothendieck-Witt and Witt ring arithmetic over the field towers.

A ``GwElement`` is a formal ZZ-combination of one-dimensional diagonal
forms <a> with square-class entries.  A ``WittClass`` is the canonical form
of its image in the Witt ring.  Iterating Springer's theorem,
W(K((t))) = W(K) + <t> W(K), over a tower K0((t1))...((tk)) makes the Witt
ring the group ring W(K0)[(Z/2)^k]; a class is stored flat as its 2^k
leaves, one base payload (dimension parity / signature / parity plus signed
discriminant) per variable mask.  ``filtration_level`` reads the
filtration level and the invariant e at that level off the leaves in one
Springer pass; this module alone knows the payload format.
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

    def __add__(self, other: "WittClass") -> "WittClass":
        self._check(other)
        f = self.field
        return WittClass(
            f, tuple(_base_add(f, p1, p2) for p1, p2 in zip(self.leaves, other.leaves))
        )

    def __sub__(self, other: "WittClass") -> "WittClass":
        return self + (-other)

    def __neg__(self) -> "WittClass":
        f = self.field
        return WittClass(f, tuple(_base_neg(f, p) for p in self.leaves))

    def __mul__(self, other: "WittClass") -> "WittClass":
        """XOR convolution of the leaves, since <t><t> = <1>."""
        self._check(other)
        f = self.field
        out = [_base_payload(f, {})] * len(self.leaves)
        for v1, p1 in enumerate(self.leaves):
            for v2, p2 in enumerate(other.leaves):
                out[v1 ^ v2] = _base_add(f, out[v1 ^ v2], _base_mul(f, p1, p2))
        return WittClass(f, tuple(out))

    def int_mul(self, n: int) -> "WittClass":
        f = self.field
        if f.kind == REAL_CLOSED:
            return WittClass(f, tuple((n * p[0],) for p in self.leaves))
        # W(C) and W(F_q) have exponent 2 or 4, so n acts as n mod 4
        out = witt_zero(f)
        for _ in range(n % 4):
            out = out + self
        return out

    def scale_sq(self, a: SquareClass) -> "WittClass":
        """Pointwise multiplication by the scalar a: its variable part
        permutes the leaves, its base part scales each of them."""
        if self.field != a.field:
            raise FieldMismatchError("scalar over a different field")
        f, v, b = self.field, a.var_mask, a.base_mask
        return WittClass(
            f, tuple(_base_scale(f, self.leaves[w ^ v], b) for w in range(len(self.leaves)))
        )

    def diag_rep(self) -> list[SquareClass]:
        """A small diagonal form with this Witt class."""
        return [SquareClass(self.field, m) for m in _rep_masks(self)]

    def __str__(self) -> str:
        rep = self.diag_rep()
        if not rep:
            return "0"
        return "<" + ",".join(str(a) for a in rep) + ">"


# Base payloads, the leaves of a WittClass.  Only ``field.kind`` and the mask
# of -1 are read, so any tower over the base may be passed as ``field``.


def _base_add(field: FieldDescriptor, p1: tuple, p2: tuple) -> tuple:
    if field.kind == QUAD_CLOSED:
        return ((p1[0] + p2[0]) % 2,)
    if field.kind == REAL_CLOSED:
        return (p1[0] + p2[0],)
    par1, d1 = p1
    par2, d2 = p2
    m1 = minus_one_mask(field)
    disc = d1 ^ d2 ^ (m1 if par1 and par2 else 0)
    return ((par1 + par2) % 2, disc)


def _base_neg(field: FieldDescriptor, p: tuple) -> tuple:
    if field.kind == QUAD_CLOSED:
        return p
    if field.kind == REAL_CLOSED:
        return (-p[0],)
    par, d = p
    return (par, d ^ (minus_one_mask(field) if par else 0))


def _base_scale(field: FieldDescriptor, p: tuple, mask: int) -> tuple:
    if field.kind == QUAD_CLOSED:
        return p
    if field.kind == REAL_CLOSED:
        return (-p[0],) if mask & 1 else p
    par, d = p
    return (par, d ^ (mask if par else 0))


def _base_mul(field: FieldDescriptor, p1: tuple, p2: tuple) -> tuple:
    if field.kind == QUAD_CLOSED:
        return (p1[0] * p2[0],)
    if field.kind == REAL_CLOSED:
        return (p1[0] * p2[0],)
    counts: dict[int, int] = {}
    for a in _base_rep_masks(field, p1):
        for b in _base_rep_masks(field, p2):
            m = a ^ b
            counts[m] = counts.get(m, 0) + 1
    return _base_payload(field, counts)


def _base_payload(field: FieldDescriptor, counts: dict[int, int]) -> tuple:
    """Canonical base data of a formal ZZ-combination of base classes."""
    if field.kind == QUAD_CLOSED:
        return (sum(counts.values()) % 2,)
    if field.kind == REAL_CLOSED:
        return (sum(c if m == 0 else -c for m, c in counts.items()),)
    m1 = minus_one_mask(field)
    dim = 0
    det = 0
    for m, c in counts.items():
        if c < 0:
            m, c = m ^ m1, -c
        dim += c
        if c % 2:
            det ^= m
    disc = det ^ (m1 if (dim * (dim - 1) // 2) % 2 else 0)
    return (dim % 2, disc)


def _base_rep_masks(field: FieldDescriptor, p: tuple) -> list[int]:
    if field.kind == QUAD_CLOSED:
        return [0] * p[0]
    if field.kind == REAL_CLOSED:
        sig = p[0]
        return [0] * sig if sig >= 0 else [1] * (-sig)
    par, d = p
    if par:
        return [d]
    if d == 0:
        return []
    return [0, d ^ minus_one_mask(field)]


def _rep_masks(w: WittClass) -> list[int]:
    """Diagonal entries of ``diag_rep``, leaf by leaf in ascending mask order."""
    bits = w.field.base_bits
    return [
        m | v << bits for v, p in enumerate(w.leaves) for m in _base_rep_masks(w.field, p)
    ]


def witt_zero(field: FieldDescriptor) -> WittClass:
    return WittClass(field, (_base_payload(field, {}),) * (1 << field.depth))


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
    return WittClass(field, tuple(_base_payload(field, b) for b in buckets))


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
    rep = _rep_masks(q)
    terms: dict[int, int] = {}
    for m in rep:
        terms[m] = terms.get(m, 0) + 1
    x = GwElement(field, terms)
    half = len(rep) // 2
    hyp = GwElement.diag(sc_one(field), -sc_one(field)).scale(half)
    return x - hyp


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
        la, ma = walk(tuple(_base_add(field, x, y) for x, y in zip(u, r)))
        lb, mb = walk(tuple(_base_neg(field, y) for y in r))
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
    det = 0
    for m, c in x.terms.items():
        if c % 2:
            det ^= m
    dim = x.dim
    if (dim * (dim - 1) // 2) % 2:
        det ^= minus_one_mask(x.field)
    return SquareClass(x.field, det)


# ---------------------------------------------------------------------------
# form-expression grammar:  form := term (('+'|'-') term)*
#                           term := [int '*'] atom
#                           atom := 'diag(' sc {',' sc} ')'
#                                 | 'pf(' sc {',' sc} ')' | 'H'

_TERM_RE = re.compile(r"^(?:(\d+)\*)?(.*)$")


def parse_form(text: str, field: FieldDescriptor) -> GwElement:
    text = text.strip()
    if not text:
        raise FieldSyntaxError("empty form expression")
    out = GwElement.zero(field)
    pos = 0
    sign = 1
    if text[0] in "+-":
        sign = -1 if text[0] == "-" else 1
        pos = 1
    while True:
        depth = 0
        end = pos
        while end < len(text):
            ch = text[end]
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch in "+-" and depth == 0:
                break
            end += 1
        term = text[pos:end].strip()
        if not term:
            raise FieldSyntaxError("empty term in form expression")
        out = out + _parse_term(term, field).scale(sign)
        if end == len(text):
            return out
        sign = -1 if text[end] == "-" else 1
        pos = end + 1


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

"""Computable ground fields: iterated Laurent towers over three base kinds.

A field is a base (quadratically closed, real closed, or finite of odd
order) together with an ordered list of Laurent variables.  Elements are
only ever tracked up to squares, so the square-class group -- an elementary
abelian 2-group -- is represented by bitmasks: bit 0 is the base generator
(the sign for a real-closed base, the fixed non-square u for a finite base)
and the remaining bits are the tower variables in order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass


QUAD_CLOSED = "C"
REAL_CLOSED = "R"
FINITE_ODD = "F"

# Towers may have at most this many Laurent variables.  Square classes,
# Witt leaves and factorization searches all grow as 2^depth, so the cap
# keeps the cost of every command bounded.
MAX_TOWER_DEPTH = 6

# Finite base orders must be below this bound.  Checking that q is an odd
# prime power trial-divides up to sqrt(q); the bound keeps that under about
# 0.1 s.  Only q mod 4 enters the arithmetic, so no field kind is lost.
MAX_FINITE_ORDER = 2**40


class FieldMismatchError(ValueError):
    """Operands live over different fields."""


class FieldSyntaxError(ValueError):
    """A field or square-class literal failed to parse."""


def _is_odd_prime_power(q: int) -> bool:
    if q < 3 or q % 2 == 0:
        return False
    p = 3
    while p * p <= q:
        if q % p == 0:
            while q % p == 0:
                q //= p
            return q == 1
        p += 2
    return True  # no odd divisor up to sqrt(q): q is prime


@dataclass(frozen=True)
class FieldDescriptor:
    """A base-field kind plus an ordered tower of Laurent variables."""

    kind: str
    q: int | None = None
    vars: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in (QUAD_CLOSED, REAL_CLOSED, FINITE_ODD):
            raise ValueError(f"unknown base kind {self.kind!r}")
        if self.kind == FINITE_ODD:
            if self.q is not None and self.q >= MAX_FINITE_ORDER:
                raise ValueError("finite base order must be below 2^40")
            if self.q is None or not _is_odd_prime_power(self.q):
                raise ValueError(f"finite base needs an odd prime power, got {self.q}")
        elif self.q is not None:
            raise ValueError("only finite bases carry an order q")
        if len(set(self.vars)) != len(self.vars):
            raise ValueError("tower variable names must be distinct")
        if len(self.vars) > MAX_TOWER_DEPTH:
            raise ValueError(
                f"tower depth {len(self.vars)} exceeds the cap of {MAX_TOWER_DEPTH}"
            )

    @property
    def depth(self) -> int:
        return len(self.vars)

    @property
    def base_bits(self) -> int:
        return 0 if self.kind == QUAD_CLOSED else 1

    @property
    def num_gens(self) -> int:
        return self.base_bits + len(self.vars)

    @property
    def top_var(self) -> str:
        if not self.vars:
            raise ValueError("field has no Laurent variables")
        return self.vars[-1]

    @property
    def top_bit(self) -> int:
        return 1 << (self.num_gens - 1)

    def parent(self) -> "FieldDescriptor":
        """The one-shorter tower (drop the top variable)."""
        if not self.vars:
            raise ValueError("base field has no parent tower")
        return FieldDescriptor(self.kind, self.q, self.vars[:-1])

    def var_bit(self, name: str) -> int:
        return 1 << (self.base_bits + self.vars.index(name))

    def __str__(self) -> str:
        base = self.kind if self.kind != FINITE_ODD else f"F{self.q}"
        return base + "".join(f"(({v}))" for v in self.vars)


@dataclass(frozen=True)
class SquareClass:
    """A square-class monomial, i.e. an element of K*/(K*)^2."""

    field: FieldDescriptor
    mask: int

    def __post_init__(self):
        if not 0 <= self.mask < (1 << self.field.num_gens):
            raise ValueError("square-class mask out of range for the field")

    def __mul__(self, other: "SquareClass") -> "SquareClass":
        if self.field != other.field:
            raise FieldMismatchError("square classes over different fields")
        return SquareClass(self.field, self.mask ^ other.mask)

    def __neg__(self) -> "SquareClass":
        return self * minus_one(self.field)

    @property
    def is_one(self) -> bool:
        return self.mask == 0

    @property
    def var_mask(self) -> int:
        return self.mask >> self.field.base_bits

    @property
    def base_mask(self) -> int:
        return self.mask & ((1 << self.field.base_bits) - 1)

    def __str__(self) -> str:
        F = self.field
        parts = []
        sign = ""
        if self.mask & 1 and F.base_bits:
            if F.kind == REAL_CLOSED:
                sign = "-"
            else:
                parts.append("u")
        for i, v in enumerate(F.vars):
            if self.mask >> (F.base_bits + i) & 1:
                parts.append(v)
        if not parts:
            return sign + "1"
        return sign + "*".join(parts)


def sc_one(field: FieldDescriptor) -> SquareClass:
    return SquareClass(field, 0)


def sc_gen(field: FieldDescriptor, name: str) -> SquareClass:
    """The class of a named generator: a tower variable, or 'u'."""
    if name == "u":
        if field.kind != FINITE_ODD:
            raise FieldSyntaxError("'u' only exists over a finite base")
        return SquareClass(field, 1)
    return SquareClass(field, field.var_bit(name))


def minus_one_mask(field: FieldDescriptor) -> int:
    """Mask of the class of -1: trivial, the sign flip, or u when q = 3 mod 4."""
    if field.kind == REAL_CLOSED or (field.kind == FINITE_ODD and field.q % 4 == 3):
        return 1
    return 0


def minus_one(field: FieldDescriptor) -> SquareClass:
    return SquareClass(field, minus_one_mask(field))


def represented_by_binary(c: SquareClass, a: SquareClass, b: SquareClass) -> bool:
    """Certified test that c is represented by the binary form <1, -ab>.

    Sound but incomplete: True is only returned when a representation is
    guaranteed (c in {1, -ab}, or everything lives in the base of a finite
    tower, where every nondegenerate binary form is universal).
    """
    if not (c.field == a.field == b.field):
        raise FieldMismatchError("square classes over different fields")
    ab = a * b
    if c.is_one or c == -ab:
        return True
    if (
        c.field.kind == FINITE_ODD
        and a.var_mask == 0
        and b.var_mask == 0
        and c.var_mask == 0
    ):
        return True
    return False


def enumerate_sc(field: FieldDescriptor) -> list[SquareClass]:
    """All square classes, in mask order."""
    return [SquareClass(field, m) for m in range(1 << field.num_gens)]


_FIELD_RE = re.compile(r"^(C|R|F(\d+))((?:\(\(\w+\)\))*)$")
_VAR_RE = re.compile(r"\(\((\w+)\)\)")


def parse_field(text: str) -> FieldDescriptor:
    """Parse e.g. 'R((t1))((t2))' or 'F7((t1))'."""
    m = _FIELD_RE.match(text.strip())
    if not m:
        raise FieldSyntaxError(f"bad field descriptor {text!r}")
    head = m.group(1)
    vars_ = tuple(_VAR_RE.findall(m.group(3)))
    try:
        if head == "C":
            return FieldDescriptor(QUAD_CLOSED, None, vars_)
        if head == "R":
            return FieldDescriptor(REAL_CLOSED, None, vars_)
        return FieldDescriptor(FINITE_ODD, int(m.group(2)), vars_)
    except ValueError as exc:
        raise FieldSyntaxError(str(exc)) from exc


def parse_sc(text: str, field: FieldDescriptor) -> SquareClass:
    """Parse a square-class literal: optional '-', then '1' or '*'-separated
    generators, e.g. '-u*t1'."""
    text = text.strip()
    out = sc_one(field)
    if text.startswith("-"):
        out = out * minus_one(field)
        text = text[1:]
    if not text:
        raise FieldSyntaxError("empty square-class literal")
    for token in text.split("*"):
        token = token.strip()
        if token == "1":
            continue
        if token == "u":
            out = out * sc_gen(field, "u")
        elif token in field.vars:
            out = out * sc_gen(field, token)
        else:
            raise FieldSyntaxError(f"unknown generator {token!r} over {field}")
    return out


def parse_int(text: str, noun: str, error: type = FieldSyntaxError) -> int:
    """``int(text)``; text that int() rejects (not an integer, or longer than
    the interpreter converts) raises ``error`` naming ``noun``."""
    try:
        return int(text)
    except ValueError:
        shown = text if len(text) <= 40 else text[:40] + "..."
        raise error(f"bad {noun} {shown!r}") from None


def split_signed_sum(text: str, noun: str, error: type = FieldSyntaxError):
    """Yield (sign, term) for each term of a sum joined by '+' and '-'
    outside parentheses, with an optional leading sign; ``noun`` names the
    input in the errors, which are raised as ``error``."""
    text = text.strip()
    if not text:
        raise error(f"empty {noun}")
    sign, start, depth = 1, 0, 0
    if text[0] in "+-":
        sign, start = (-1 if text[0] == "-" else 1), 1
    for end in range(start, len(text) + 1):
        ch = text[end : end + 1]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif end == len(text) or (ch in "+-" and depth == 0):
            term = text[start:end].strip()
            if not term:
                raise error(f"empty term in {noun}")
            yield sign, term
            sign, start = (-1 if ch == "-" else 1), end + 1

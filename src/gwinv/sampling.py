"""Deterministic sample generators for the verification suites.

Everything takes an explicit ``random.Random``; no ambient randomness.
"""

from __future__ import annotations

from random import Random

from .fields import FieldDescriptor, SquareClass, parse_field
from .invariants import SymbolicInvariant, from_g
from .witt import GwElement, WittClass, pfister, witt_canonical


BASE_HEADS = ("C", "R", "F3", "F5")


def standard_fields(max_depth: int = 2) -> list[FieldDescriptor]:
    """The reference family: each base kind with towers up to max_depth."""
    out = []
    for head in BASE_HEADS:
        for depth in range(max_depth + 1):
            tower = "".join(f"((t{i + 1}))" for i in range(depth))
            out.append(parse_field(head + tower))
    return out


def rand_sc(rng: Random, field: FieldDescriptor) -> SquareClass:
    return SquareClass(field, rng.randrange(1 << field.num_gens))


def rand_unit_sc(rng: Random, field: FieldDescriptor) -> SquareClass:
    """A class not involving the top variable (a unit of the valuation)."""
    mask = rng.randrange(1 << field.num_gens)
    return SquareClass(field, mask & ~field.top_bit)


def rand_pfister_slots(
    rng: Random, field: FieldDescriptor, n: int, unit: bool = False
) -> tuple[SquareClass, ...]:
    pick = rand_unit_sc if unit else rand_sc
    return tuple(pick(rng, field) for _ in range(n))


def rand_in_In_data(
    rng: Random,
    field: FieldDescriptor,
    n: int,
    pos: int,
    neg: int,
    unit: bool = False,
) -> tuple[WittClass, list[tuple[int, tuple[SquareClass, ...]]]]:
    """A random class of I^n as a signed sum of n-fold Pfister classes, and
    its summands; the sum is taken in GW, as Springer's form is additive."""
    data, terms = [], {}
    for sign in (1,) * pos + (-1,) * neg:
        slots = rand_pfister_slots(rng, field, n, unit)
        data.append((sign, slots))
        for m, c in pfister(slots).terms.items():
            terms[m] = terms.get(m, 0) + sign * c
    return witt_canonical(GwElement._of(field, {m: c for m, c in terms.items() if c})), data

def rand_in_In(
    rng: Random, field: FieldDescriptor, n: int, max_terms: int = 2
) -> WittClass:
    pos = rng.randint(0, max_terms)
    neg = rng.randint(0, max_terms - pos) if pos < max_terms else 0
    return rand_in_In_data(rng, field, n, pos, neg)[0]


def rand_gw(rng: Random, field: FieldDescriptor, dim: int) -> GwElement:
    terms: dict[int, int] = {}
    for _ in range(dim):
        m = rng.randrange(1 << field.num_gens)
        terms[m] = terms.get(m, 0) + rng.choice((1, -1))
    return GwElement._of(field, {m: c for m, c in terms.items() if c})


def rand_diag(rng: Random, field: FieldDescriptor, dim: int) -> GwElement:
    return GwElement.diag(*(rand_sc(rng, field) for _ in range(dim)))


def rand_coeff(rng: Random, mode: str) -> int:
    """A universal coefficient: an integer in -4..4 (W), or an F2-polynomial
    in eps of degree < 4, as its bits (H)."""
    if mode == "W":
        return rng.randint(-4, 4)
    return rng.randrange(16)


def rand_symbolic(
    rng: Random,
    n: int,
    mode: str,
    basis: str,
    d_max: int,
    support: int,
) -> SymbolicInvariant:
    """Up to ``support`` random coefficients of degree <= d_max in the
    f- or g-basis (``basis``)."""
    coeffs = {}
    for _ in range(support):
        coeffs[rng.randint(0, d_max)] = rand_coeff(rng, mode)
    return from_g(n, mode, coeffs) if basis == "g" else SymbolicInvariant(n, mode, coeffs)

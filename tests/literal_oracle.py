"""The literal parsers as they were before they built flat data, kept only
as a test oracle.

``split_signed_sum`` scans the text character by character, ``parse_form``
builds one ``GwElement`` per term and scales it, and ``parse_invariant``
sums its terms in the g-basis when every generator is a g one and in the
f-basis otherwise, and converts the sum to the f-basis at the end, with
one checked ``SymbolicInvariant`` per generator and per product.  The
library parses the same grammars straight to a {mask: count} dict and to
one dict of packed f-coefficients, a product of generators read off its
integer values on sums of Pfister forms; the tests compare the two,
results and errors alike.
"""

import re

from gwinv.fields import FieldSyntaxError, parse_int, parse_sc, sc_one
from gwinv.invariants import (
    MAX_TOTAL_DEGREE,
    InvariantSyntaxError,
    SymbolicInvariant,
    coeff_ops,
    from_g,
    g_coeffs,
    product,
)
from gwinv.witt import GwElement, pfister


def split_signed_sum(text, noun, error=FieldSyntaxError):
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


_TERM_RE = re.compile(r"^(?:(\d+)\*)?(.*)$")


def parse_form(text, field):
    terms = {}
    for sign, term in split_signed_sum(text, "form expression"):
        for m, c in _parse_term(term, field).terms.items():
            terms[m] = terms.get(m, 0) + sign * c
            if not terms[m]:
                del terms[m]
    return GwElement(field, terms)


def _parse_term(text, field):
    m = _TERM_RE.match(text)
    if not m:
        raise FieldSyntaxError(f"bad form term {text!r}")
    coeff = parse_int(m.group(1), "form coefficient") if m.group(1) else 1
    atom = m.group(2).strip()
    if atom == "H":
        return GwElement.diag(sc_one(field), -sc_one(field)).scale(coeff)
    for head, maker in (("diag(", lambda classes: GwElement.diag(*classes)), ("pf(", pfister)):
        if atom.startswith(head) and atom.endswith(")"):
            inner = atom[len(head) : -1]
            return maker([parse_sc(tok, field) for tok in inner.split(",")]).scale(coeff)
    raise FieldSyntaxError(f"bad form atom {atom!r}")


_GEN_RE = re.compile(r"^([fg])\[(\d+),(\d+)\]$")
_EPS_RE = re.compile(r"^eps(?:\^(\d+))?$")


def parse_invariant(text, mode):
    ops = coeff_ops(mode)
    terms = []
    for sign, body in list(split_signed_sum(text, "invariant literal", InvariantSyntaxError)):
        coeff = ops.from_int(sign)
        gens = []
        for factor in body.split("*"):
            factor = factor.strip()
            if not factor:
                raise InvariantSyntaxError(f"empty factor in {body!r}")
            m = _GEN_RE.match(factor)
            if m:
                n, d = (parse_int(k, "index", InvariantSyntaxError) for k in m.group(2, 3))
                gens.append((m.group(1), n, d))
                continue
            m = _EPS_RE.match(factor)
            if m:
                k = m.group(1) or "1"
                coeff = coeff << parse_int(k, "eps exponent", InvariantSyntaxError)
                continue
            coeff = ops.mul(coeff, ops.from_int(parse_int(factor, "factor", InvariantSyntaxError)))
        degree = sum(n * d for _, n, d in gens)
        if degree > MAX_TOTAL_DEGREE:
            raise InvariantSyntaxError(
                f"the total degree of {body.strip()[:40]!r} exceeds the cap of {MAX_TOTAL_DEGREE}"
            )
        terms.append((coeff, gens))
    levels = {n for _, gens in terms for _, n, _ in gens}
    if not levels:
        raise InvariantSyntaxError("an invariant needs at least one f[...] or g[...]")
    if len(levels) > 1:
        raise InvariantSyntaxError(f"mixed levels {sorted(levels)} in one invariant")
    n = levels.pop()
    if n < 1:
        raise InvariantSyntaxError(f"the level n must be >= 1, got {n}")
    bases = {b for _, gens in terms for b, _, _ in gens}
    basis = "g" if bases == {"g"} else "f"
    total = {}
    for coeff, gens in terms:
        if not gens:
            term = {0: coeff}
        else:
            term = SymbolicInvariant.generator(n, mode, gens[0][0], gens[0][2])
            for b, _, d in gens[1:]:
                term = product(term, SymbolicInvariant.generator(n, mode, b, d))
            term = {d: ops.mul(coeff, c) for d, c in (g_coeffs(term) if basis == "g" else term.coeffs).items()}
        for d, c in term.items():
            total[d] = ops.add(total.get(d, 0), c)
    return from_g(n, mode, total) if basis == "g" else SymbolicInvariant(n, mode, total)

"""An exhaustive certificate for the filtration level on three finite Witt
rings of 256 classes: W(F3((t1))((t2))) = Z/4[(Z/2)^2],
W(F5((t1))((t2))) = F2[Z/2 x (Z/2)^2] and W(C((t1))((t2))((t3))) =
F2[(Z/2)^3].  For every n, the subgroup generated by the n-fold Pfister
forms <<a_1,...,a_n>> (for n = 0 by the forms <a>, since I^0 = W) must be
exactly the set of classes that ``filtration_level`` puts in I^n.  The
generators come from the ring product alone: the n-fold forms are the
products of the (n-1)-fold ones with the <<a>>.

On the same rings, e_n is certified exhaustively for n = 1..4 against
those spans: it is additive on all pairs in I^n, vanishes exactly on
I^(n+1), and takes |I^n / I^(n+1)| = |H^n(K)| = 2^C(3,n) distinct values,
so it induces a bijection I^n / I^(n+1) -> H^n(K) (over these fields the
elementary case of the Milnor conjecture)."""

from functools import cache
from itertools import product

import pytest

from gwinv.cohomology import CohClass, e_n
from gwinv.fields import QUAD_CLOSED, SquareClass, parse_field
from gwinv.witt import GwElement, WittClass, filtration_level, pfister, witt_canonical, witt_zero


def span(gens, zero):
    """The closure of {zero} under adding any of gens: in a finite group,
    the subgroup they generate."""
    group, frontier = {zero}, [zero]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = x + g
                if y not in group:
                    group.add(y)
                    new.append(y)
        frontier = new
    return group


# |I^n| for n = 0, 1, ... until I^n = 0, and once more; each ring has the
# same sizes, as |I^n(K((t)))| = |I^n(K)| * |I^(n-1)(K)|
SIZES = [256, 128, 16, 2, 1, 1]
RINGS = ["F3((t1))((t2))", "F5((t1))((t2))", "C((t1))((t2))((t3))"]


@cache
def pfister_spans(text):
    """The field, its classes listed leaf by leaf, and for each n < 6 the
    span of the n-fold Pfister forms."""
    field = parse_field(text)
    codes = range(2 if field.kind == QUAD_CLOSED else 4)
    classes = [WittClass(field, leaves) for leaves in product(codes, repeat=1 << field.depth)]
    square_classes = [SquareClass(field, m) for m in range(1 << field.num_gens)]
    folds = {witt_canonical(pfister([a])) for a in square_classes}
    pfisters = {witt_canonical(GwElement.unit(field))}  # the 0-fold form <1>
    spans = []
    for n in range(len(SIZES)):
        gens = pfisters if n else {witt_canonical(GwElement.diag(a)) for a in square_classes}
        spans.append(span(gens, witt_zero(field)))
        pfisters = {p * f for p in pfisters for f in folds}
    return field, classes, spans


@pytest.mark.parametrize("text", RINGS)
def test_ideal_powers_are_spans_of_pfister_forms(text):
    field, classes, spans = pfister_spans(text)
    assert len(set(classes)) == 256
    levels = {q: filtration_level(q)[0] for q in classes}
    for n, size in enumerate(SIZES):
        ideal = {q for q, level in levels.items() if level is None or level >= n}
        assert spans[n] == ideal
        assert len(ideal) == size


@pytest.mark.parametrize("text", RINGS)
def test_e_n_induces_a_bijection_onto_cohomology(text):
    field, _, spans = pfister_spans(text)
    zero = CohClass.zero(field)
    for n in range(1, 5):
        e = {q: e_n(q, n) for q in spans[n]}
        assert all(e[x + y] == e[x] + e[y] for x in spans[n] for y in spans[n])
        assert {q for q, x in e.items() if x == zero} == spans[n + 1]
        assert len(set(e.values())) == len(spans[n]) // len(spans[n + 1]) == 2 ** (3, 3, 1, 0)[n - 1]

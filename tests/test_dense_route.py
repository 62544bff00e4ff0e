"""The f-family's dense route against the GW-dict route it replaced, and the
order of its checks.

``divided._pi_of_lift`` builds hat q as one list of 2^g counts
(``witt._dense_lift``), runs ``witt.character_kernel`` on it, and turns
each read degree into leaves with the base table's ``fold``; the mode-W sum
of ``eval_f_sum`` is folded once.  The dense lift must be ``hat_lift``'s
terms placed by mask, and the fold must be ``_springer_leaves`` of the same
terms, over C, R, F3 and F5 towers of depth 0 to 6: on every class of the
depth-0 and depth-1 rings that ``test_base_codec`` enumerates, on seeded
classes, and on seeded vectors with negative, zero-sum and above-2^64
counts.  The checks of an evaluation run in a fixed order: the level, then
membership, then a negative degree (also on the zero class, which skips the
kernel), then each read degree's divisibility, before the mode-W sum."""

from itertools import product
from random import Random

import pytest

from gwinv import divided, witt
from gwinv.divided import H_TARGET, W_TARGET, eval_f, eval_f_all, eval_f_sum
from gwinv.fields import parse_field
from gwinv.invariants import evaluate, parse_invariant
from gwinv.sampling import rand_in_In
from gwinv.series import ConsistencyError
from gwinv.witt import (
    GwElement,
    MembershipError,
    WittClass,
    hat_lift,
    parse_form,
    witt_canonical,
    witt_one,
    witt_zero,
)

HEADS = ("C", "R", "F3", "F5")
TARGETS = (W_TARGET, H_TARGET)


def tower(head, depth):
    return parse_field(head + "".join(f"((t{i}))" for i in range(1, depth + 1)))


def leaf_codes(field, sig):
    """Every leaf code of the base, R signatures in [-sig, sig]."""
    if field.kind == "C":
        return range(2)
    return range(-sig, sig + 1) if field.kind == "R" else range(4)


def enumerated_classes(head):
    """Every class of the base ring (R signatures up to 8) and of its
    depth-1 tower (up to 3), as ``test_base_codec`` enumerates them."""
    base, t1 = tower(head, 0), tower(head, 1)
    yield from (WittClass(base, (x,)) for x in leaf_codes(base, 8))
    yield from (WittClass(t1, pair) for pair in product(leaf_codes(t1, 3), repeat=2))


def seeded_classes(head, depth, count=12):
    """Random leaves (R signatures up to 3 * 2^70, so that lift counts pass
    2^64) and seeded classes in I^1..I^3."""
    F, rng = tower(head, depth), Random(f"dense/{head}{depth}")
    for _ in range(count):
        if F.kind == "R":
            yield WittClass(F, tuple(rng.randint(-3, 3) << rng.choice((0, 5, 70)) for _ in range(1 << depth)))
        else:
            yield WittClass(F, tuple(rng.choice(leaf_codes(F, 0)) for _ in range(1 << depth)))
        yield rand_in_In(rng, F, rng.randint(1, 3), max_terms=3)


def seeded_vectors(head, depth, count=12):
    """Dense int vectors of 2^g counts: sparse and full, with negative,
    zero-sum and above-2^64 entries."""
    F, rng = tower(head, depth), Random(f"fold/{head}{depth}")
    size = 1 << F.num_gens
    for _ in range(count):
        v = [rng.choice((0, 0, 1, -1, 2, -3, 5, 2**64 + 1, -(3**45))) for _ in range(size)]
        yield F, v
        v = v[:]
        v[rng.randrange(size)] -= sum(v)
        yield F, v
    yield F, [0] * size


def dict_route_lift(q):
    terms = hat_lift(q).terms
    return [terms.get(m, 0) for m in range(1 << q.field.num_gens)]


@pytest.mark.parametrize("head", HEADS)
def test_dense_lift_is_the_hat_lift_on_enumerated_classes(head):
    seen = 0
    for q in enumerated_classes(head):
        if q.dim_parity:
            with pytest.raises(MembershipError):
                hat_lift(q)
            continue
        lift = witt._dense_lift(q)
        assert lift == dict_route_lift(q)
        assert witt._base(q.field).fold(lift) == q.leaves == witt._springer_leaves(hat_lift(q))
        seen += 1
    assert seen


@pytest.mark.parametrize("head", HEADS)
@pytest.mark.parametrize("depth", range(7))
def test_dense_lift_is_the_hat_lift_on_seeded_classes(head, depth):
    big = 0
    for q in seeded_classes(head, depth):
        if q.dim_parity:
            continue
        lift = witt._dense_lift(q)
        assert lift == dict_route_lift(q)
        assert witt._base(q.field).fold(lift) == q.leaves
        big += any(abs(c) > 2**64 for c in lift)
    assert big or head != "R"


@pytest.mark.parametrize("head", HEADS)
@pytest.mark.parametrize("depth", range(7))
def test_fold_is_the_springer_loop(head, depth):
    big = 0
    for F, v in seeded_vectors(head, depth):
        terms = {m: c for m, c in enumerate(v) if c}
        leaves = witt._base(F).fold(v)
        assert leaves == witt._springer_leaves(GwElement(F, terms))
        assert leaves == witt_canonical(GwElement(F, terms)).leaves
        big += any(abs(c) > 2**64 for c in v)
    assert big


def test_fold_reads_the_base_part_off_the_low_bit():
    # <t1> + c<b t1> lands in leaf 1 as <1> + c<b>: <1> + <-1> = 0 over R,
    # <1> - <u> = 1 - 3 = 2 in Z/4 over F3, <1> + <u> = 3 in F2[<u>] over F5
    want = {"R": (0, 0), "F3": (0, 2), "F5": (0, 3)}
    for head, leaves in want.items():
        F = tower(head, 1)
        v = [0, 0, 1, 1 if head != "F3" else -1]
        assert witt._base(F).fold(v) == leaves == witt._springer_leaves(GwElement(F, {2: 1, 3: v[3]}))
    C = tower("C", 2)
    assert witt._base(C).fold([3, -1, 2, 0]) == (1, 1, 0, 0)


# ---------------------------------------------------------------------------
# the order of the checks

F3T = parse_field("F3((t1))")
PF = witt_canonical(parse_form("pf(t1)", F3T))  # in I^1, not in I^2
ODD = witt_one(F3T)  # outside I^1


@pytest.mark.parametrize("target", TARGETS, ids=repr)
@pytest.mark.parametrize("q", [witt_zero(F3T), PF], ids=["zero", "pfister"])
def test_negative_degree_raises_on_a_class_in_In(target, q):
    # the zero class skips the kernel, but only after the degree check
    with pytest.raises(ValueError, match="series degree -1 is negative"):
        eval_f(1, -1, q, target)
    for degrees in ((-1,), (0, -1), (2, -1), (-2, 3)):
        with pytest.raises(ValueError, match=f"series degree {min(degrees)} is negative"):
            eval_f_all(1, q, target, degrees)
    with pytest.raises(ValueError, match="series degree -1 is negative"):
        eval_f_sum(1, q, target, {0: 1, -1: 1})


@pytest.mark.parametrize("target", TARGETS, ids=repr)
def test_membership_is_checked_before_the_degree(target):
    for n, q in ((1, ODD), (2, PF)):
        with pytest.raises(MembershipError, match=f"not in I\\^{n}"):
            eval_f(n, -1, q, target)
        with pytest.raises(MembershipError, match=f"not in I\\^{n}"):
            eval_f_all(n, q, target, (2, -1))
        with pytest.raises(MembershipError):
            eval_f_all(n, q, target, ())


@pytest.mark.parametrize("target", TARGETS, ids=repr)
@pytest.mark.parametrize("n", (0, -1))
def test_level_is_checked_before_anything_else(target, n):
    for q in (ODD, witt_zero(F3T), PF):
        with pytest.raises(ValueError, match="the level n must be >= 1"):
            eval_f(n, -1, q, target)
        with pytest.raises(ValueError, match="the level n must be >= 1"):
            eval_f_all(n, q, target, (2, -1))


@pytest.mark.parametrize("mode", "WH")
@pytest.mark.parametrize("head", HEADS)
def test_every_read_degree_is_checked_before_the_sum(monkeypatch, mode, head):
    # The binomial row of the character value 0 gains +3 at degree 2 and -2
    # at degree 3.  Each read degree is then off by a vector that is not
    # divisible by 2^g, but the mode-W sum 2 f[2,2] + 3 f[2,3] weighs the
    # two changes to 2 * 3 - 3 * 2 = 0, so only a per-degree check sees it.
    exact = divided._binomial_row
    bump = {2: 3, 3: -2}
    monkeypatch.setattr(
        divided,
        "_binomial_row",
        lambda n, two_p, top: [c + (two_p == 0) * bump.get(k, 0) for k, c in enumerate(exact(n, two_p, top))],
    )
    F = tower(head, 2)
    q = witt_canonical(parse_form("pf(t1,t2) + pf(-1,t1)", F))
    alpha = parse_invariant("2*f[2,2] + 3*f[2,3]", mode)
    with pytest.raises(ConsistencyError, match="at degree [23] is not divisible by 2\\^"):
        evaluate(alpha, q)
    monkeypatch.setattr(divided, "_binomial_row", exact)
    evaluate(alpha, q)

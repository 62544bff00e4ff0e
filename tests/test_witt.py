"""Grothendieck-Witt arithmetic: canonical forms, equality, Pfister
constructors, exterior powers, filtration membership, residues."""

import random
import re
from itertools import product

import pytest

from gwinv import witt
from gwinv.cohomology import CohClass
from gwinv.fields import (
    FieldMismatchError,
    FieldSyntaxError,
    enumerate_sc,
    minus_one,
    parse_field,
    parse_sc,
    represented_by_binary,
    sc_one,
)
from gwinv.sampling import rand_diag, rand_gw, rand_in_In, rand_in_In_data, rand_sc, standard_fields
from gwinv.witt import (
    MAX_COUNT_DIGITS,
    MAX_LISTED_COUNT,
    GwElement,
    MembershipError,
    RenderLimitError,
    WittClass,
    gpfister,
    hat_lift,
    is_in_In,
    lambda_power,
    lambda_power_direct,
    parse_form,
    pfister,
    second_residue,
    signed_disc,
    witt_canonical,
    witt_one,
    witt_zero,
)

R = parse_field("R")
RT = parse_field("R((t1))")
F3T = parse_field("F3((t1))")


class TestCanonical:
    def test_hyperbolic_zero_everywhere(self):
        for F in standard_fields(2):
            h = GwElement.diag(sc_one(F), -sc_one(F))
            assert witt_canonical(h).is_zero

    def test_ramified_hyperbolic(self):
        t = parse_sc("t1", RT)
        assert witt_canonical(GwElement.diag(t, -t)).is_zero

    def test_definite_form_nonzero(self):
        two = GwElement.diag(sc_one(R), sc_one(R))
        w = witt_canonical(two)
        assert not w.is_zero
        assert w.leaves == (2,)

    def test_fixpoint(self):
        rng = random.Random(7)
        for F in standard_fields(2):
            for _ in range(20):
                q = witt_canonical(rand_gw(rng, F, rng.randint(0, 6)))
                rep = q.diag_rep()
                again = (
                    witt_canonical(GwElement.diag(*rep)) if rep else witt_zero(F)
                )
                assert again == q

    def test_finite_base_orders(self):
        # W(F_3) is cyclic of order 4: <1,1> is nonzero, <1,1,1,1> is zero
        F = parse_field("F3")
        one = sc_one(F)
        assert not witt_canonical(GwElement.diag(one, one)).is_zero
        assert witt_canonical(GwElement.diag(one, one, one, one)).is_zero
        # W(F_5) has exponent 2
        F5 = parse_field("F5")
        one5 = sc_one(F5)
        assert witt_canonical(GwElement.diag(one5, one5)).is_zero


class TestLeafCheck:
    def test_code_out_of_range_is_rejected(self):
        # 5 = 1 mod 4 was once kept as a class unequal to <1> whose str()
        # raised IndexError
        F = parse_field("F3")
        with pytest.raises(ValueError, match="not a leaf tuple"):
            WittClass(F, (5,))
        assert WittClass(F, (1,)) == witt_one(F)
        assert str(WittClass(F, (1,))) == "<1>"

    @pytest.mark.parametrize(
        "text, leaves",
        [
            ("F3", (4,)), ("F3", (-1,)), ("F5((t1))", (0, 7)), ("C", (2,)),
            ("C((t1))", (1, -1)), ("R", (1.5,)), ("R((t1))", (2, None)),
            ("F3((t1))", (1,)), ("C", ()), ("R", (1, 0)), ("F5((t1))((t2))", (0,) * 5),
        ],
    )
    def test_bad_leaf_tuples_are_rejected(self, text, leaves):
        with pytest.raises(ValueError, match="not a leaf tuple"):
            WittClass(parse_field(text), leaves)

    @pytest.mark.parametrize("leaves", [(1.0,), (True,)], ids=["float", "bool"])
    @pytest.mark.parametrize("text", ["C", "F3", "F5"])
    def test_non_int_code_equal_to_a_valid_one_is_rejected(self, text, leaves):
        # 1.0 == True == 1 passed the range test alone, and str() of the
        # float class raised TypeError
        with pytest.raises(ValueError, match="not a leaf tuple"):
            WittClass(parse_field(text), leaves)

    @pytest.mark.parametrize("text", ["C((t1))", "F3((t1))", "F5((t1))", "R((t1))"])
    def test_every_code_is_accepted(self, text):
        F = parse_field(text)
        codes = range(-6, 7) if F.kind == "R" else range(2 if F.kind == "C" else 4)
        for leaves in product(codes, repeat=2):
            q = WittClass(F, leaves)
            rep = q.diag_rep()
            assert (witt_canonical(GwElement.diag(*rep)) if rep else witt_zero(F)) == q
        big = WittClass(parse_field("R"), (-(10**60),))
        assert big + big == big.int_mul(2)


class TestClosure:
    """The certificate behind building library results unchecked (``_of``):
    every leaf operation maps codes to ``int`` codes in range, and so does
    ``witt_canonical`` on int terms.  The finite tables are checked
    exhaustively, the real one on a sampled range."""

    @pytest.mark.parametrize("head", ["C", "F3", "F5"])
    def test_finite_leaf_tables_are_closed(self, head):
        table = witt._base(parse_field(head))
        codes = range(2 if head == "C" else 4)
        out = [table.neg(x) for x in codes] + [table.flip(x) for x in codes]
        out += [op(x, y) for op in (table.add, table.mul) for x, y in product(codes, repeat=2)]
        out += [table.times(x, n) for x in codes for n in range(-9, 10)]
        assert all(type(y) is int and y in codes for y in out)

    def test_real_leaf_table_maps_ints_to_ints(self):
        table = witt._base(R)
        ints = [*range(-40, 41), 10**30, -(3**50)]
        out = [table.neg(x) for x in ints] + [table.flip(x) for x in ints]
        out += [op(x, y) for op in (table.add, table.mul) for x, y in product(ints, repeat=2)]
        out += [table.times(x, n) for x in ints for n in range(-9, 10)]
        assert {type(y) for y in out} == {int}

    @pytest.mark.parametrize("F", standard_fields(2), ids=str)
    def test_springer_leaves_of_int_terms_are_codes(self, F):
        rng = random.Random(str(F))
        for _ in range(20):
            masks = rng.sample(range(1 << F.num_gens), min(3, 1 << F.num_gens))
            terms = {m: rng.choice((1, -1, 2, -3, 7, 10**20)) for m in masks}
            leaves = witt._springer_leaves(GwElement(F, terms))
            assert len(leaves) == 1 << F.depth and witt._base(F).codes(leaves)

    @pytest.mark.parametrize("F", standard_fields(2), ids=str)
    def test_folds_of_int_vectors_are_codes(self, F):
        rng = random.Random(f"fold/{F}")
        for _ in range(20):
            vector = [rng.choice((0, 1, -1, 2, -3, 7, 10**20)) for _ in range(1 << F.num_gens)]
            leaves = witt._base(F).fold(vector)
            assert len(leaves) == 1 << F.depth and witt._base(F).codes(leaves)


class TestScalarType:
    """A scalar or GW coefficient that is not an ``int`` (``bool`` among
    them) raises ``TypeError`` wherever it enters."""

    @pytest.mark.parametrize("bad", [1.5, 2.0, True, None, "2"], ids=repr)
    @pytest.mark.parametrize("head", ["C", "R", "F3", "F5"])
    def test_non_int_scalar_is_rejected(self, head, bad):
        F = parse_field(head)
        with pytest.raises(TypeError):
            witt_one(F).int_mul(bad)
        with pytest.raises(TypeError):
            GwElement.unit(F).scale(bad)
        with pytest.raises(TypeError):
            GwElement(F, {0: bad})

    @pytest.mark.parametrize("head", ["C", "R", "F3", "F5"])
    def test_int_scalars_are_accepted(self, head):
        F = parse_field(head)
        assert witt_one(F).int_mul(3) == witt_canonical(GwElement(F, {0: 3}))
        assert GwElement.unit(F).scale(-2).terms == {0: -2} and GwElement(F, {0: 0}).is_formal_zero

    def test_float_term_is_caught_before_canonical_form(self):
        # it fails where it enters, not at a later leaf check
        with pytest.raises(TypeError, match="expected an int, got float"):
            witt_canonical(GwElement(R, {0: 1.5}))


class TestMaskCheck:
    """``GwElement`` raises ``ValueError`` for a term mask outside
    [0, 2^num_gens); a mask was once read as a negative or out-of-range
    index into the Springer leaves."""

    TOWERS = ["C((t1))", "R((t1))", "F3((t1))((t2))", "F5", "R"]

    @pytest.mark.parametrize("text", TOWERS)
    def test_mask_outside_the_range_is_rejected(self, text):
        F = parse_field(text)
        for mask in (-1, -2, 1 << F.num_gens, 9 << F.num_gens):
            with pytest.raises(ValueError, match="mask out of range"):
                GwElement(F, {mask: 1})
            with pytest.raises(ValueError, match="mask out of range"):
                GwElement(F, {0: 1, mask: 0})  # a zero term is checked too

    @pytest.mark.parametrize("text", TOWERS)
    def test_top_mask_is_accepted(self, text):
        F = parse_field(text)
        top = (1 << F.num_gens) - 1
        q = GwElement(F, {top: 1, 0: 2})
        assert q.terms == {top: 1, 0: 2}
        assert q == GwElement.diag(enumerate_sc(F)[top], sc_one(F), sc_one(F))


class TestGwEqual:
    def test_multiset_identity(self):
        a = parse_sc("t1", RT)
        assert GwElement.diag(a, a) == GwElement.diag(a).scale(2)

    def test_signature_distinguishes(self):
        one = sc_one(R)
        assert GwElement.diag(one, one) != GwElement.diag(one, -one)

    def test_pfister_square_relation(self):
        for F in standard_fields(1):
            for a in enumerate_sc(F):
                assert gpfister([a, a]) == gpfister([minus_one(F), a])

    def test_dim_matters(self):
        one = sc_one(R)
        hyp = GwElement.diag(one, -one)
        assert hyp != GwElement.zero(R)

    @staticmethod
    def _pairs(rng, F):
        """Seeded pairs of three kinds: identical Z[G] terms, GW-equal but
        Z[G]-different, and of equal dimension but different in GW."""
        one, m1 = sc_one(F), minus_one(F)
        for _ in range(8):
            x = rand_gw(rng, F, rng.randint(0, 6))
            yield "same terms", x, GwElement(F, dict(x.terms))
            a, b = rand_sc(rng, F), rand_sc(rng, F)
            if a not in (one, m1):
                k = rng.choice((1, 2, -3))
                hyp_a, hyp_1 = GwElement.diag(a, -a), GwElement.diag(one, m1)
                yield "GW-equal", x, x + (hyp_a - hyp_1).scale(k)
                yield "GW-equal", gpfister([a, a]), gpfister([m1, a])
            if a != b:
                yield "GW-different", x, x + GwElement.diag(a) - GwElement.diag(b)

    def test_matches_dimension_and_witt_class_oracle(self):
        rng, seen = random.Random(11), set()
        for F in standard_fields(2):
            for kind, x, y in self._pairs(rng, F):
                oracle = x.dim == y.dim and witt_canonical(x) == witt_canonical(y)
                assert (x == y) == (y == x) == oracle
                same_terms = x.terms == y.terms
                assert (same_terms, oracle) == {
                    "same terms": (True, True),
                    "GW-equal": (False, True),
                    "GW-different": (False, False),
                }[kind], (kind, F, x.terms, y.terms)
                seen.add(kind)
        assert seen == {"same terms", "GW-equal", "GW-different"}

    def test_field_check_precedes_the_identity_test(self):
        # two formal zeros have identical (empty) terms over any fields
        with pytest.raises(FieldMismatchError):
            GwElement.zero(R) == GwElement.zero(F3T)
        with pytest.raises(FieldMismatchError):
            GwElement.unit(RT) == GwElement.unit(R)

    @pytest.mark.parametrize(
        "call",
        [
            lambda x, y: CohClass.one(x.field) + CohClass.one(y.field),
            lambda x, y: CohClass.one(x.field) * CohClass.one(y.field),
            lambda x, y: GwElement.diag(x, y),
            lambda x, y: GwElement.diag(x) + GwElement.diag(y),
            lambda x, y: GwElement.diag(x) * GwElement.diag(y),
            lambda x, y: witt_one(x.field).scale_sq(y),
            lambda x, y: represented_by_binary(y, x, x),
        ],
        ids=["coh-add", "coh-mul", "diag", "gw-add", "gw-mul", "scale_sq", "represented_by_binary"],
    )
    def test_operands_over_two_fields_raise(self, call):
        # the unit class over R((t1)) and over R: every operation reads
        # both as the unit, so only the field check can fail
        with pytest.raises(FieldMismatchError):
            call(sc_one(RT), sc_one(R))


def oracle_pfister(classes):
    """<1,-a_1> x ... x <1,-a_n> as a product of binary diagonals, the
    construction ``pfister`` used before its subset-XOR table."""
    out = GwElement.unit(classes[0].field)
    for a in classes:
        out = out * GwElement.diag(sc_one(a.field), -a)
    return out


def oracle_gpfister(classes):
    """(<1> - <a_1>) x ... x (<1> - <a_n>) as a product of differences."""
    field = classes[0].field
    out = GwElement.unit(field)
    for a in classes:
        out = out * (GwElement.unit(field) - GwElement.diag(a))
    return out


def pfister_slot_lists():
    """Every slot list of length 1-2 over every standard field of depth <= 2
    and of length 3 at depth <= 1 (so 1, -1 and repeated slots all occur),
    then seeded lists of 4-6 slots with repeats at depth <= 4."""
    for F in standard_fields(2):
        for n in (1, 2, 3) if F.depth <= 1 else (1, 2):
            yield from product(enumerate_sc(F), repeat=n)
    rng = random.Random(12)
    for F in standard_fields(4):
        for _ in range(10):
            slots = [rand_sc(rng, F) for _ in range(rng.randint(4, 6))]
            yield slots + slots[: rng.randint(0, 2)]


class TestPfister:
    def test_constructors_match_products(self):
        for slots in pfister_slot_lists():
            assert pfister(slots).terms == oracle_pfister(slots).terms
            assert gpfister(slots).terms == oracle_gpfister(slots).terms

    @pytest.mark.parametrize("make", [pfister, gpfister])
    def test_slots_over_different_fields(self, make):
        with pytest.raises(FieldMismatchError):
            make([parse_sc("t1", RT), sc_one(R)])
        with pytest.raises(FieldMismatchError):
            make([sc_one(RT), sc_one(F3T)])

    def test_gpfister_of_one_vanishes(self):
        assert gpfister([sc_one(RT)]).is_formal_zero

    def test_square_is_double(self):
        a = parse_sc("-t1", RT)
        p = pfister([a])
        assert witt_canonical(p * p) == witt_canonical(p.scale(2))

    def test_dimension(self):
        a, b = parse_sc("t1", RT), parse_sc("-1", RT)
        assert pfister([a, b]).dim == 4
        assert gpfister([a, b]).dim == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="a Pfister form needs at least one slot"):
            pfister([])
        with pytest.raises(ValueError, match="a Pfister lift needs at least one slot"):
            gpfister([])


class TestLambdaPower:
    def test_rank_two_exterior_square(self):
        a, b = parse_sc("t1", RT), parse_sc("-1", RT)
        got = lambda_power(2, GwElement.diag(a, b))
        assert got == GwElement.diag(a * b)

    def test_degree_zero(self):
        x = rand_gw(random.Random(0), RT, 3)
        assert lambda_power(0, x) == GwElement.unit(RT)

    def test_fixes_binary_pfister_lifts(self):
        for a in enumerate_sc(F3T):
            g = gpfister([a])
            for d in range(1, 6):
                assert lambda_power(d, g) == g

    def test_series_matches_direct_combinatorics(self):
        rng = random.Random(3)
        for F in standard_fields(2):
            x = rand_diag(rng, F, 5)
            for d in range(6):
                assert lambda_power(d, x) == lambda_power_direct(d, x)

    def test_sum_rule_on_virtual_elements(self):
        rng = random.Random(5)
        for _ in range(25):
            x = rand_gw(rng, RT, rng.randint(0, 4))
            y = rand_gw(rng, RT, rng.randint(0, 4))
            for d in range(5):
                rhs = GwElement.zero(RT)
                for k in range(d + 1):
                    rhs = rhs + lambda_power(k, x) * lambda_power(d - k, y)
                assert lambda_power(d, x + y) == rhs


class TestFiltration:
    def test_pfister_in_I2(self):
        a, b = parse_sc("t1", RT), parse_sc("-1", RT)
        assert is_in_In(witt_canonical(pfister([a, b])), 2)

    def test_two_not_in_I2_over_R(self):
        q = witt_canonical(GwElement.diag(sc_one(R), sc_one(R)))
        assert is_in_In(q, 1)
        assert not is_in_In(q, 2)

    def test_zero_in_all(self):
        for n in range(8):
            assert is_in_In(witt_zero(RT), n)

    def test_signature_criterion_oracle(self):
        # over a real-closed base, membership in I^n is divisibility of the
        # signature by 2^n
        rng = random.Random(11)
        for _ in range(50):
            sig = rng.randint(-16, 16)
            one = sc_one(R)
            terms = GwElement(R, {0: sig})
            q = witt_canonical(terms)
            for n in range(5):
                assert is_in_In(q, n) == (sig % 2**n == 0)

    def test_odd_dim_not_in_I(self):
        assert not is_in_In(witt_one(R), 1)


class TestHatLift:
    def test_binary_pfister(self):
        a = parse_sc("t1", RT)
        lift = hat_lift(witt_canonical(pfister([a])))
        assert lift.dim == 0
        assert lift == gpfister([a])

    def test_zero(self):
        assert hat_lift(witt_zero(RT)).is_formal_zero

    def test_round_trip_random(self):
        rng = random.Random(13)
        for F in standard_fields(2):
            for _ in range(25):
                q = rand_in_In(rng, F, 1)
                lift = hat_lift(q)
                assert lift.dim == 0
                assert witt_canonical(lift) == q

    def test_odd_dimension_rejected(self):
        with pytest.raises(MembershipError):
            hat_lift(witt_one(R))

    def test_large_multiple_is_closed_form(self):
        # the lift reads the signature, never one entry per unit of it
        q = witt_canonical(pfister([parse_sc("t1", RT)])).int_mul(10**12)
        lift = hat_lift(q)
        assert lift.dim == 0
        assert witt_canonical(lift) == q


class TestRender:
    def test_lists_up_to_the_cap_then_counts(self):
        one = witt_one(R)
        assert str(one.int_mul(MAX_LISTED_COUNT)) == "<" + ",".join(["1"] * MAX_LISTED_COUNT) + ">"
        assert str(one.int_mul(MAX_LISTED_COUNT + 1)) == f"{MAX_LISTED_COUNT + 1}*<1>"
        assert str(one.int_mul(-MAX_LISTED_COUNT - 1)) == f"{MAX_LISTED_COUNT + 1}*<-1>"
        assert str(witt_zero(R)) == "0"

    def test_listed_entries_come_before_counted_ones(self):
        t1 = witt_canonical(GwElement.diag(parse_sc("t1", RT)))
        q = witt_one(RT).int_mul(3 * MAX_LISTED_COUNT) + t1
        assert str(q) == f"<t1> + {3 * MAX_LISTED_COUNT}*<1>"

    def test_multiplicity_digits_are_capped(self):
        widest = 10**MAX_COUNT_DIGITS - 1
        one, t1 = witt_one(RT), witt_canonical(GwElement.diag(parse_sc("t1", RT)))
        assert str(one.int_mul(-widest)) == f"{widest}*<-1>"
        assert str(one.int_mul(widest) + t1) == f"<t1> + {widest}*<1>"
        for q in (one.int_mul(widest + 1), t1 - one.int_mul(widest + 1)):
            with pytest.raises(RenderLimitError, match=f"more than {MAX_COUNT_DIGITS} digits"):
                str(q)


class TestSecondResidue:
    def test_defining_case(self):
        t = parse_sc("t1", RT)
        q = witt_canonical(GwElement.diag(t))
        assert second_residue(q) == witt_one(R)

    def test_unramified_dies(self):
        q = witt_canonical(GwElement.diag(parse_sc("-1", RT)))
        assert second_residue(q).is_zero

    def test_twisted_pfister(self):
        rng = random.Random(17)
        t = parse_sc("t1", RT)
        for _ in range(20):
            q_unram = rand_diag(rng, R, 3)
            lifted = GwElement(RT, {m: c for m, c in q_unram.terms.items()})
            prod = pfister([t]) * lifted
            got = second_residue(witt_canonical(prod))
            assert got == -witt_canonical(q_unram)

    def test_depth_zero_rejected(self):
        with pytest.raises(ValueError):
            second_residue(witt_zero(R))

    def test_springer_reassembly(self):
        rng = random.Random(19)
        t = parse_sc("t1", RT)
        for _ in range(20):
            q = witt_canonical(rand_gw(rng, RT, 4))
            u, r = WittClass(q.field.parent(), q.leaves[: len(q.leaves) // 2]), second_residue(q)
            back = GwElement.diag(*u.diag_rep()) if u.diag_rep() else GwElement.zero(R)
            ramified = (
                GwElement.diag(*r.diag_rep()) if r.diag_rep() else GwElement.zero(R)
            )
            total = GwElement(RT, dict(back.terms)) + GwElement.diag(t) * GwElement(
                RT, dict(ramified.terms)
            )
            assert witt_canonical(total) == q


class TestWittRingOps:
    def test_one_is_the_class_of_the_unit_form(self):
        for F in standard_fields(4):
            assert witt_one(F) == witt_canonical(GwElement.unit(F))

    def test_sub_is_add_of_the_negative(self):
        rng = random.Random(41)
        for F in standard_fields(3):
            for _ in range(10):
                a = witt_canonical(rand_gw(rng, F, rng.randint(0, 6)))
                b = witt_canonical(rand_gw(rng, F, rng.randint(0, 6)))
                assert a - b == a + (-b)
        with pytest.raises(FieldMismatchError):
            witt_one(R) - witt_one(RT)

    def test_sampled_class_is_the_sum_of_its_pfister_classes(self):
        rng = random.Random(43)
        for F in standard_fields(2):
            for n in (1, 2, 3):
                q, data = rand_in_In_data(rng, F, n, rng.randint(0, 3), rng.randint(0, 3))
                want = witt_zero(F)
                for sign, slots in data:
                    want = want + witt_canonical(pfister(slots)).int_mul(sign)
                assert q == want

    def test_mul_matches_form_mul(self):
        rng = random.Random(23)
        for F in standard_fields(2):
            for _ in range(15):
                x = rand_gw(rng, F, rng.randint(0, 4))
                y = rand_gw(rng, F, rng.randint(0, 4))
                assert witt_canonical(x * y) == witt_canonical(x) * witt_canonical(y)

    def test_scale_sq_matches(self):
        rng = random.Random(29)
        for F in standard_fields(2):
            classes = enumerate_sc(F)
            for _ in range(15):
                x = rand_gw(rng, F, rng.randint(0, 4))
                a = rng.choice(classes)
                assert witt_canonical(GwElement.diag(a) * x) == (
                    witt_canonical(x).scale_sq(a)
                )

    def test_int_mul_is_repeated_addition(self):
        rng = random.Random(37)
        for F in standard_fields(2):
            for _ in range(3):
                q = witt_canonical(rand_gw(rng, F, rng.randint(1, 5)))
                for n in range(-9, 10):
                    want = witt_zero(F)
                    for _ in range(abs(n)):
                        want = want + (q if n > 0 else -q)
                    assert q.int_mul(n) == want

    def test_two_q_is_minus_one_pfister_times_q(self):
        rng = random.Random(31)
        for F in standard_fields(2):
            for _ in range(10):
                q = rand_gw(rng, F, rng.randint(0, 5))
                assert witt_canonical(q.scale(2)) == witt_canonical(
                    pfister([minus_one(F)]) * q
                )


class TestSignedDisc:
    def test_binary(self):
        a = parse_sc("t1", RT)
        # (-1)^1 * t1 for <1, t1>
        x = GwElement.diag(sc_one(RT), a)
        assert signed_disc(x) == -a

    def test_pfister_disc_trivial_rank4(self):
        a, b = parse_sc("t1", RT), parse_sc("-1", RT)
        assert signed_disc(pfister([a, b])).is_one


class TestArgumentChecks:
    """Each argument check of the public GW functions raises through a
    public call."""

    def test_empty_diagonal(self):
        with pytest.raises(ValueError, match="a diagonal form needs at least one entry"):
            GwElement.diag()

    @pytest.mark.parametrize("x", [parse_form("H - diag(t1)", RT), parse_form("-diag(1)", RT)])
    def test_not_a_nonnegative_diagonal(self, x):
        with pytest.raises(ValueError, match="direct exterior powers need a nonnegative diagonal form"):
            lambda_power_direct(2, x)
        with pytest.raises(ValueError, match="signed discriminant needs a nonnegative diagonal form"):
            signed_disc(x)


class TestFormGrammar:
    @pytest.mark.parametrize("text", ["pf(t1)\nH", "2*\npf(t1)", "diag(1,\nt1)"])
    def test_newline_inside_a_term_is_a_bad_term(self, text):
        """``.`` in the term pattern stops at a newline, so a term with one
        inside matches no term at all (a newline at either end is stripped)."""
        with pytest.raises(FieldSyntaxError, match=f"bad form term {re.escape(repr(text))}$"):
            parse_form(text, RT)
        assert parse_form("\npf(t1)\n", RT).terms == pfister([parse_sc("t1", RT)]).terms

    def test_diag(self):
        got = parse_form("diag(1,-t1)", RT)
        assert got == pfister([parse_sc("t1", RT)])

    def test_pf_and_sum(self):
        got = parse_form("pf(t1)+pf(-1)", RT)
        want = pfister([parse_sc("t1", RT)]) + pfister([parse_sc("-1", RT)])
        assert got == want

    def test_hyperbolic_and_coefficient(self):
        got = parse_form("2*H - diag(1,1)", R)
        assert got.dim == 2
        assert witt_canonical(got) == witt_canonical(
            GwElement.diag(sc_one(R), sc_one(R)).scale(-1)
        )

    def test_pf_multi_slot(self):
        got = parse_form("pf(t1,-1)", RT)
        assert got.dim == 4

    def test_leading_sign(self):
        got = parse_form("-pf(t1)+H", RT)
        want = parse_form("H", RT) - pfister([parse_sc("t1", RT)])
        assert got.terms == want.terms

    @pytest.mark.parametrize("text", ["-", "+", " - ", "H-", "H+", "pf(t1) + ", "pf(1)+-H"])
    def test_empty_term_rejected(self, text):
        with pytest.raises(FieldSyntaxError):
            parse_form(text, RT)

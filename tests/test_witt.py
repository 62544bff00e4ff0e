"""Grothendieck-Witt arithmetic: canonical forms, equality, Pfister
constructors, exterior powers, filtration membership, residues."""

import random

import pytest

from gwinv.fields import (
    FieldSyntaxError,
    enumerate_sc,
    minus_one,
    parse_field,
    parse_sc,
    sc_one,
)
from gwinv.sampling import rand_diag, rand_gw, rand_in_In, standard_fields
from gwinv.witt import (
    MAX_LISTED_COUNT,
    GwElement,
    MembershipError,
    gpfister,
    gw_equal,
    hat_lift,
    is_in_In,
    lambda_power,
    lambda_power_direct,
    parse_form,
    pfister,
    second_residue,
    signed_disc,
    unramified_part,
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
        assert w.leaves == ((2,),)

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


class TestGwEqual:
    def test_multiset_identity(self):
        a = parse_sc("t1", RT)
        assert gw_equal(GwElement.diag(a, a), GwElement.diag(a).scale(2))

    def test_signature_distinguishes(self):
        one = sc_one(R)
        assert not gw_equal(GwElement.diag(one, one), GwElement.diag(one, -one))

    def test_pfister_square_relation(self):
        for F in standard_fields(1):
            for a in enumerate_sc(F):
                assert gw_equal(gpfister([a, a]), gpfister([minus_one(F), a]))

    def test_dim_matters(self):
        one = sc_one(R)
        hyp = GwElement.diag(one, -one)
        assert not gw_equal(hyp, GwElement.zero(R))


class TestPfister:
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
        with pytest.raises(ValueError):
            pfister([])


class TestLambdaPower:
    def test_rank_two_exterior_square(self):
        a, b = parse_sc("t1", RT), parse_sc("-1", RT)
        got = lambda_power(2, GwElement.diag(a, b))
        assert gw_equal(got, GwElement.diag(a * b))

    def test_degree_zero(self):
        x = rand_gw(random.Random(0), RT, 3)
        assert gw_equal(lambda_power(0, x), GwElement.unit(RT))

    def test_fixes_binary_pfister_lifts(self):
        for a in enumerate_sc(F3T):
            g = gpfister([a])
            for d in range(1, 6):
                assert gw_equal(lambda_power(d, g), g)

    def test_series_matches_direct_combinatorics(self):
        rng = random.Random(3)
        for F in standard_fields(2):
            x = rand_diag(rng, F, 5)
            for d in range(6):
                assert gw_equal(lambda_power(d, x), lambda_power_direct(d, x))

    def test_sum_rule_on_virtual_elements(self):
        rng = random.Random(5)
        for _ in range(25):
            x = rand_gw(rng, RT, rng.randint(0, 4))
            y = rand_gw(rng, RT, rng.randint(0, 4))
            for d in range(5):
                rhs = GwElement.zero(RT)
                for k in range(d + 1):
                    rhs = rhs + lambda_power(k, x) * lambda_power(d - k, y)
                assert gw_equal(lambda_power(d, x + y), rhs)


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
        assert gw_equal(lift, gpfister([a]))

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
            u, r = unramified_part(q), second_residue(q)
            back = GwElement.diag(*u.diag_rep()) if u.diag_rep() else GwElement.zero(R)
            ramified = (
                GwElement.diag(*r.diag_rep()) if r.diag_rep() else GwElement.zero(R)
            )
            total = GwElement(RT, dict(back.terms)) + GwElement.diag(t) * GwElement(
                RT, dict(ramified.terms)
            )
            assert witt_canonical(total) == q


class TestWittRingOps:
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


class TestFormGrammar:
    def test_diag(self):
        got = parse_form("diag(1,-t1)", RT)
        assert gw_equal(got, pfister([parse_sc("t1", RT)]))

    def test_pf_and_sum(self):
        got = parse_form("pf(t1)+pf(-1)", RT)
        want = pfister([parse_sc("t1", RT)]) + pfister([parse_sc("-1", RT)])
        assert gw_equal(got, want)

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

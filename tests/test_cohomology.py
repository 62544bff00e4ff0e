"""Mod-2 cohomology: symbols, cup products, the degree-n invariants of the
filtration, and residues."""

import random
import time

import pytest

from gwinv.cli import main
from gwinv.cohomology import (
    CohClass,
    coh_residue,
    degree1,
    e_n,
    minus_one_power,
    symbol,
)
from gwinv.fields import (
    QUAD_CLOSED,
    REAL_CLOSED,
    enumerate_sc,
    minus_one,
    parse_field,
    parse_sc,
    sc_gen,
    sc_one,
)
from gwinv.sampling import (
    rand_in_In,
    rand_in_In_data,
    rand_pfister_slots,
    rand_sc,
    standard_fields,
)
from gwinv.witt import (
    GwElement,
    MembershipError,
    pfister,
    second_residue,
    witt_canonical,
    witt_one,
)

R = parse_field("R")
RT = parse_field("R((t1))")
RTT = parse_field("R((t1))((t2))")


ORACLE_FIELDS = standard_fields(3) + [
    parse_field(head + "".join(f"((t{i + 1}))" for i in range(depth)))
    for head in ("F7", "F9")
    for depth in range(4)
]


def _monomials(F):
    bases = {QUAD_CLOSED: (0,), REAL_CLOSED: (0, 1, 2)}.get(F.kind, (0, 1))
    return [(b, v) for b in bases for v in range(1 << F.depth)]


def oracle_mono_mul(field, b1, v1, b2, v2):
    """The cup product of two basis monomials, one rule per base kind (the
    library's rule before it was read off the class of -1); None when the
    product vanishes."""
    overlap = (v1 & v2).bit_count()
    if field.kind == QUAD_CLOSED:
        # (-1) = 0, so any square among the variables kills the product.
        return None if overlap else (0, v1 | v2)
    if field.kind == REAL_CLOSED:
        return (b1 + b2 + overlap, v1 | v2)
    if field.q % 4 == 1:
        if overlap:
            return None
        b = b1 + b2
    else:
        b = b1 + b2 + overlap
    # (u) cup (u) lands in degree-2 base cohomology, which is trivial.
    return None if b >= 2 else (b, v1 | v2)


class TestSymbol:
    def test_empty_symbol_needs_a_field(self):
        with pytest.raises(ValueError, match="symbol needs a field"):
            symbol([])

    def test_one_kills(self):
        assert symbol([sc_one(RT)]).is_zero

    def test_square_rewrite(self):
        t = parse_sc("t1", RT)
        assert symbol([t, t]) == minus_one_power(RT, 1) * symbol([t])

    def test_finite_square_vanishes(self):
        # over F_5 (where -1 is a square) the square of the base symbol dies
        F = parse_field("F5((t1))")
        u = sc_gen(F, "u")
        assert symbol([u, u]).is_zero
        # over F_3 it dies too: base cohomology stops in degree 1
        F3 = parse_field("F3((t1))")
        u3 = sc_gen(F3, "u")
        assert symbol([u3, u3]).is_zero

    def test_additivity_in_each_slot(self):
        for F in standard_fields(2):
            if len(enumerate_sc(F)) > 16:
                continue
            for a in enumerate_sc(F):
                for b in enumerate_sc(F):
                    assert symbol([a * b]) == symbol([a]) + symbol([b])

    def test_quad_closed_minus_one_trivial(self):
        F = parse_field("C((t1))")
        assert minus_one_power(F, 1).is_zero
        assert symbol([-sc_gen(F, "t1")]) == symbol([sc_gen(F, "t1")])


class TestCup:
    def test_basis_monomial(self):
        t1, t2 = parse_sc("t1", RTT), parse_sc("t2", RTT)
        got = symbol([t1]) * symbol([t2])
        assert got == symbol([t1, t2])
        assert str(got) == "(t1).(t2)"

    def test_real_polynomial_ring(self):
        for a in range(4):
            for b in range(4):
                assert minus_one_power(R, a) * minus_one_power(R, b) == (
                    minus_one_power(R, a + b)
                )
                assert not minus_one_power(R, a + b).is_zero

    def test_self_cup_rewrites(self):
        t = parse_sc("t1", RT)
        assert symbol([t]) * symbol([t]) == minus_one_power(RT, 1) * symbol([t])

    def test_commutative(self):
        rng = random.Random(3)
        for F in standard_fields(2):
            for _ in range(10):
                x = symbol([rand_sc(rng, F)]) + minus_one_power(F, rng.randint(0, 2))
                y = symbol([rand_sc(rng, F)])
                assert x * y == y * x

    @pytest.mark.parametrize("F", ORACLE_FIELDS, ids=str)
    def test_matches_per_kind_oracle(self, F):
        """Every pair of basis monomials (base exponents 0..2 over R), and
        seeded sums of them, against the per-base-kind monomial rule."""
        monos = _monomials(F)
        for m1 in monos:
            for m2 in monos:
                want = oracle_mono_mul(F, *m1, *m2)
                got = CohClass(F, frozenset({m1})) * CohClass(F, frozenset({m2}))
                assert got.monos == (frozenset() if want is None else frozenset({want}))
        rng = random.Random(17)
        for _ in range(20):
            x, y = (frozenset(rng.sample(monos, rng.randint(0, len(monos)))) for _ in range(2))
            want: set = set()
            for m1 in x:
                for m2 in y:
                    mono = oracle_mono_mul(F, *m1, *m2)
                    if mono is not None:
                        want ^= {mono}
            assert (CohClass(F, x) * CohClass(F, y)).monos == want


def cup_power(field, j):
    """(-1)^j as j cup products of the degree-1 class of -1: the loop
    ``minus_one_power`` ran before its closed form, kept as the oracle."""
    out = CohClass.one(field)
    m1 = degree1(minus_one(field))
    for _ in range(j):
        out = out * m1
    return out


class TestMinusOnePower:
    @pytest.mark.parametrize("F", ORACLE_FIELDS, ids=str)
    def test_closed_form_matches_cup_products(self, F):
        for j in range(9):
            assert minus_one_power(F, j) == cup_power(F, j)

    @pytest.mark.parametrize(
        "field, nonzero", [("R((t1))", range(9)), ("F3", (0, 1)), ("F7((t1))", (0, 1)), ("F5", (0,)), ("C((t1))", (0,))]
    )
    def test_vanishing_powers(self, field, nonzero):
        F = parse_field(field)
        assert [j for j in range(9) if not minus_one_power(F, j).is_zero] == list(nonzero)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError, match="negative power"):
            minus_one_power(R, -1)

    def test_high_power_evaluates_fast(self, capsys):
        start = time.perf_counter()
        argv = ["eval", "--inv=eps^400000*f[1,1]", "--form=pf(-1)", "--field=R", "--mode=H"]
        assert main(argv) == 0
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().out == "(-1)^400001\n"


class TestEn:
    def test_normalizes_pfister_to_symbol(self):
        rng = random.Random(5)
        for F in standard_fields(2):
            for n in (1, 2, 3):
                slots = rand_pfister_slots(rng, F, n)
                q = witt_canonical(pfister(slots))
                assert e_n(q, n) == symbol(list(slots))

    def test_pfister_sums_on_deep_towers(self):
        rng = random.Random(41)
        fields = standard_fields(4)
        for F in [F for F in fields if F.depth >= 3]:
            for n in (1, 2, 3):
                pos = rng.randint(1, 3)
                q, data = rand_in_In_data(rng, F, n, pos, 3 - pos)
                want = CohClass.zero(F)
                for _, slots in data:
                    want = want + symbol(list(slots))
                assert e_n(q, n) == want

    def test_e2_of_quaternionic_class_over_R(self):
        m1 = minus_one(R)
        q = witt_canonical(pfister([m1, m1]))
        got = e_n(q, 2)
        assert got == minus_one_power(R, 2)
        assert not got.is_zero

    def test_additive_on_I_n(self):
        rng = random.Random(7)
        for F in standard_fields(2):
            for n in (1, 2):
                q1 = rand_in_In(rng, F, n, max_terms=1)
                q2 = rand_in_In(rng, F, n, max_terms=1)
                assert e_n(q1 + q2, n) == e_n(q1, n) + e_n(q2, n)

    def test_e0_is_dim_parity(self):
        assert e_n(witt_one(R), 0) == CohClass.one(R)

    def test_membership_guard(self):
        with pytest.raises(MembershipError):
            e_n(witt_one(R), 1)

    def test_e1_is_signed_discriminant_over_finite(self):
        F = parse_field("F3")
        one = sc_one(F)
        q = witt_canonical(GwElement.diag(one, one))
        # d(<1,1>) = -1 = u over F_3
        assert e_n(q, 1) == symbol([minus_one(F)])
        assert not e_n(q, 1).is_zero


class TestResidue:
    def test_defining_case(self):
        F = parse_field("F3((t1))")
        t, u = sc_gen(F, "t1"), sc_gen(F, "u")
        got = coh_residue(symbol([t, u]))
        assert got == symbol([sc_gen(parse_field("F3"), "u")])

    def test_unramified_dies(self):
        F = parse_field("F3((t1))")
        assert coh_residue(symbol([sc_gen(F, "u")])).is_zero

    def test_depth_zero_rejected(self):
        with pytest.raises(ValueError):
            coh_residue(CohClass.one(R))

    def test_commutes_with_witt_residue(self):
        rng = random.Random(11)
        fields = [F for F in standard_fields(2) if F.depth >= 1]
        for _ in range(60):
            F = rng.choice(fields)
            d = rng.randint(1, 3)
            q = rand_in_In(rng, F, d, max_terms=2)
            assert coh_residue(e_n(q, d)) == e_n(second_residue(q), d - 1)


class TestRendering:
    def test_zero_and_one(self):
        assert str(CohClass.zero(R)) == "0"
        assert str(CohClass.one(R)) == "1"

    def test_power_notation(self):
        assert str(minus_one_power(R, 2)) == "(-1)^2"
        x = minus_one_power(RT, 2) * symbol([parse_sc("t1", RT)])
        assert str(x) == "(-1)^2.(t1)"

"""Symbolic invariant algebra: basis changes, operators, and agreement of
every symbolic action with its pointwise contract."""

import operator
import random
import time
from fractions import Fraction
from math import comb

import pytest

from gwinv.divided import H_TARGET, W_TARGET, eval_f
from gwinv.fields import parse_field, parse_sc
from gwinv.invariants import (
    MAX_COEFF_BITS,
    MAX_EPS_EXPONENT,
    MAX_TOTAL_DEGREE,
    InvariantSyntaxError,
    SymbolicInvariant,
    clmul,
    coeff_at_zero,
    coeff_ops,
    eval_g,
    evaluate,
    extract_coeffs,
    from_g,
    from_values,
    g_coeffs,
    is_normalized,
    omega_t,
    parse_invariant,
    phi,
    product,
    psi_tilde,
    psi_tilde_closed_f,
    restrict,
    shift,
    to_values,
)
from gwinv.sampling import (
    rand_diag,
    rand_in_In,
    rand_pfister_slots,
    rand_sc,
    rand_symbolic,
    standard_fields,
)
from gwinv.series import ConsistencyError, ext_binom
from gwinv.witt import (
    GwElement,
    MembershipError,
    pfister,
    signed_disc,
    witt_canonical,
    witt_zero,
)
import literal_oracle
from product_oracle import trinomial_product

R = parse_field("R")
RTT = parse_field("R((t1))((t2))")


def gen(n, mode, family, d):
    """The degree-d generator f_n^d (family 'f') or g_n^d (family 'g')."""
    return {"f": SymbolicInvariant, "g": from_g}[family](n, mode, {d: 1})


class TestHScalars:
    """``coeff_ops("H")`` on packed F2[eps] coefficients, bit j the
    coefficient of eps^j."""

    ops = coeff_ops("H")

    def test_char_two(self):
        assert self.ops.add(0b101, 0b101) == 0
        assert self.ops.sub(0, 0b101) == 0b101

    def test_carryless_product(self):
        # (1 + eps)(1 + eps) = 1 + eps^2
        assert self.ops.mul(0b11, 0b11) == 0b101

    def test_render(self):
        show = self.ops.show
        assert (show(0b110), show(0b1011), show(1), show(0)) == ("eps+eps^2", "1+eps+eps^3", "1", "0")

    def test_product_matches_bitwise_oracle(self):
        rng = random.Random(5)
        mul, add = self.ops.mul, self.ops.add
        for _ in range(300):
            a = rng.getrandbits(rng.randint(0, 70)) << rng.randint(0, 40)
            b = rng.getrandbits(rng.randint(0, 70))
            c = rng.getrandbits(rng.randint(0, 70))
            assert mul(a, b) == _shift_and_add(a, b)
            assert mul(b, a) == _shift_and_add(a, b)
            assert mul(a, add(b, c)) == _shift_and_add(a, b) ^ _shift_and_add(a, c)

    @pytest.mark.cpu_budget
    def test_high_eps_power_parses_fast(self):
        start = time.perf_counter()
        inv = parse_invariant("eps^200000*f[1,1]", "H")
        assert time.perf_counter() - start < 0.5
        assert inv.coeffs == {1: 1 << 200000}


def _shift_and_add(a, b):
    """Carry-less product through every bit of a: the original mode-H
    product, kept as the oracle."""
    out = 0
    while a:
        if a & 1:
            out ^= b
        a >>= 1
        b <<= 1
    return out


class TestCoefficientRing:
    @pytest.mark.parametrize(
        "mode, coeff",
        [
            ("H", "3"),
            ("H", -1),
            ("W", Fraction(1)),
            ("W", 2.0),
            ("W", "1"),
            ("H", None),
            ("H", True),
            ("H", Fraction(1)),
        ],
    )
    def test_wrong_scalar_ring_is_rejected(self, mode, coeff):
        with pytest.raises(TypeError, match=f"mode-{mode} coefficient"):
            SymbolicInvariant(1, mode, {1: coeff})
        with pytest.raises(TypeError, match=f"mode-{mode} coefficient"):
            from_g(1, mode, {1: coeff})

    @pytest.mark.parametrize("coeffs", [{1: True, 2: 3}, {1: False}, {2: 3, 1: True}])
    def test_bool_is_not_a_mode_w_scalar(self, coeffs):
        # bool subclasses int, but True is no more a scalar here than a Witt leaf code
        with pytest.raises(TypeError, match="mode-W coefficient"):
            SymbolicInvariant(1, "W", coeffs)
        with pytest.raises(TypeError, match="mode-W coefficient"):
            from_g(1, "W", coeffs)

    @pytest.mark.parametrize(
        "mode, coeffs",
        [
            ("W", {-1: 1, 2: 1}),
            ("H", {-3: 1}),
            ("W", {"x": 1}),
            ("W", {1.0: 1}),
            ("W", {True: 1}),
            ("H", {False: 1}),
            ("W", {None: 0}),
        ],
    )
    def test_bad_degree_key_is_rejected(self, mode, coeffs):
        with pytest.raises(ValueError, match="degree must be an int >= 0"):
            SymbolicInvariant(1, mode, coeffs)

    @pytest.mark.parametrize("mode", ["W", "H"])
    def test_packed_table_agrees_with_the_coefficients(self, mode):
        """The table against Z[eps] on integer coefficient lists, sent to a
        mode's ring by eps -> 2 (W) or by reducing mod 2 (H)."""
        ops = coeff_ops(mode)

        def image(poly):
            return sum((c if mode == "W" else c & 1) << j for j, c in enumerate(poly))

        for c in range(-9, 10):
            assert ops.from_int(c) == image([c])
        rng = random.Random(f"packed {mode}")
        for _ in range(200):
            a, b = ([rng.randint(-40, 40) for _ in range(9)] for _ in range(2))
            product_ab = [sum(a[i] * b[k - i] for i in range(max(0, k - 8), min(k, 8) + 1)) for k in range(17)]
            assert ops.add(image(a), image(b)) == image(list(map(operator.add, a, b)))
            assert ops.sub(image(a), image(b)) == image(list(map(operator.sub, a, b)))
            assert ops.mul(image(a), image(b)) == image(product_ab)

    @pytest.mark.parametrize("mode", ["w", "", None])
    def test_unknown_mode_is_rejected(self, mode):
        with pytest.raises(ValueError, match="^mode must be 'W' or 'H', got "):
            coeff_ops(mode)
        with pytest.raises(ValueError, match="^mode must be 'W' or 'H', got "):
            SymbolicInvariant(1, mode, {})

    def test_mode_scalars_are_accepted(self):
        assert SymbolicInvariant(1, "W", {1: 3, 2: 0}).coeffs == {1: 3}
        assert SymbolicInvariant(1, "H", {1: 3, 2: 0}).coeffs == {1: 3}
        assert g_coeffs(from_g(1, "H", {1: 0b11, 2: 0})) == {1: 0b11}

    @pytest.mark.parametrize("mode, c", [("H", -1), ("H", True), ("W", True), ("W", 2.0)])
    def test_scale_rejects_a_non_coefficient(self, mode, c):
        # a negative int would never end the carry-less product's loop
        with pytest.raises(TypeError, match=f"mode-{mode} coefficient"):
            gen(1, mode, "f", 2).scale(c)


class TestBasisChange:
    @pytest.mark.parametrize("mode", ["W", "H"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_round_trip_generators(self, mode, n):
        for d in range(10):
            f = gen(n, mode, "f", d)
            g = gen(n, mode, "g", d)
            assert from_g(n, mode, g_coeffs(f)) == f
            assert g_coeffs(g) == {d: 1}

    def test_degree_one_agree(self):
        assert gen(2, "W", "g", 1) == gen(2, "W", "f", 1)

    def test_degree_three(self):
        got = gen(2, "W", "g", 3)
        want = SymbolicInvariant(2, "W", {3: 1, 2: 1 << 2})
        assert got == want

    def test_round_trip_random(self):
        rng = random.Random(0)
        for mode in ("W", "H"):
            for _ in range(100):
                alpha = rand_symbolic(rng, rng.randint(1, 3), mode, "f", 9, 4)
                assert from_g(alpha.n, mode, g_coeffs(alpha)) == alpha

    def test_unipotent_triangular(self):
        # g^d = f^d + (lower f-degrees)
        for n in (1, 2):
            for d in range(1, 9):
                coeffs = gen(n, "W", "g", d).coeffs
                assert coeffs.get(d) == 1
                assert max(coeffs) == d


class TestPhi:
    def test_plus_shifts_f(self):
        assert phi(gen(1, "W", "f", 4), 1) == gen(1, "W", "f", 3)
        assert not phi(gen(1, "W", "f", 0), 1).coeffs

    def test_minus_on_f2(self):
        got = phi(gen(3, "W", "f", 2), -1)
        want = SymbolicInvariant(3, "W", {0: -(1 << 3), 1: 1})
        assert got == want

    def test_g_actions_match_defining_parity(self):
        # odd degree: the minus shift steps down; even degree: the plus one
        for n in (1, 2):
            for m in range(0, 4):
                assert phi(gen(n, "W", "g", 2 * m + 1), -1) == gen(n, "W", "g", 2 * m)
                if m >= 1:
                    assert phi(gen(n, "W", "g", 2 * m), 1) == gen(
                        n, "W", "g", 2 * m - 1
                    )

    def test_g_cross_actions(self):
        # the non-defining shifts pick up an eps^n correction
        got = phi(gen(2, "W", "g", 4), -1)
        want = from_g(2, "W", {3: 1, 2: -(1 << 2)})
        assert got == want
        got_plus = phi(gen(2, "W", "g", 3), 1)
        want_plus = from_g(2, "W", {2: 1, 1: 1 << 2})
        assert got_plus == want_plus

    def test_double_shift_steps_two(self):
        for n in (1, 2):
            for d in range(2, 8):
                assert shift(gen(n, "W", "g", d), plus=1, minus=1) == gen(
                    n, "W", "g", d - 2
                )

    def test_negative_shift_counts_raise(self):
        alpha = gen(2, "W", "f", 3)
        for plus, minus in ((-2, 0), (0, -1), (-1, -1), (1, -2)):
            with pytest.raises(ValueError, match="shift counts"):
                shift(alpha, plus=plus, minus=minus)

    def test_commutation_and_difference(self):
        rng = random.Random(1)
        for mode in ("W", "H"):
            for _ in range(60):
                n = rng.randint(1, 3)
                alpha = rand_symbolic(rng, n, mode, "f", 8, 4)
                pm = phi(phi(alpha, 1), -1)
                assert pm == phi(phi(alpha, -1), 1)
                assert phi(alpha, 1) - phi(alpha, -1) == pm.scale(1 << n)

    def test_kernel_is_constants(self):
        for mode in ("W", "H"):
            const = from_g(2, mode, {0: 1})
            assert not phi(const, 1).coeffs
            assert not phi(const, -1).coeffs
            probe = gen(2, mode, "g", 3)
            assert phi(probe, 1).coeffs and phi(probe, -1).coeffs

    def test_pointwise_contract(self):
        rng = random.Random(2)
        for F in standard_fields(2):
            for target in (W_TARGET, H_TARGET):
                n = rng.randint(1, 2)
                d = rng.randint(0, 4)
                alpha = gen(n, target.mode, "f", d)
                q = rand_in_In(rng, F, n, max_terms=1)
                slots = rand_pfister_slots(rng, F, n)
                pw = witt_canonical(pfister(slots))
                for sign in (1, -1):
                    shifted_q = q + pw if sign == 1 else q - pw
                    corr = target.symbol(slots) * evaluate(phi(alpha, sign), q)
                    want = evaluate(alpha, q)
                    want = (
                        want + corr
                        if sign == 1 or target.mode == "H"
                        else want - corr
                    )
                    assert evaluate(alpha, shifted_q) == want


class TestClassification:
    def test_extracts_g_coefficients(self):
        rng = random.Random(3)
        for mode in ("W", "H"):
            for _ in range(60):
                n = rng.randint(1, 3)
                alpha = rand_symbolic(rng, n, mode, "g", 6, 4)
                got = extract_coeffs(alpha, 6)
                g = g_coeffs(alpha)
                for d in range(7):
                    assert got[d] == g.get(d, 0)

    def test_pointwise_at_zero(self):
        rng = random.Random(4)
        F = parse_field("R((t1))")
        for mode, target in (("W", W_TARGET), ("H", H_TARGET)):
            for _ in range(20):
                alpha = rand_symbolic(rng, 2, mode, "g", 5, 3)
                d = rng.randint(0, 5)
                m = d // 2
                shifted = shift(alpha, plus=m + d % 2, minus=m)
                assert evaluate(shifted, witt_zero(F)) == target.times(
                    target.one(F), coeff_at_zero(shifted)
                )

    def test_normalization_split(self):
        alpha = from_g(1, "W", {0: 5, 2: 1})
        assert not is_normalized(alpha)
        assert is_normalized(from_g(1, "W", {2: 1}))

    def test_normalized_matches_rebasing_definition(self):
        # the constant is read from the f-coefficients; the definition reads g
        rng = random.Random(21)
        for mode in ("W", "H"):
            for basis in "fg":
                for _ in range(40):
                    alpha = rand_symbolic(rng, rng.randint(1, 3), mode, basis, 6, rng.randint(0, 4))
                    want = 0 not in g_coeffs(alpha)
                    assert is_normalized(alpha) == want

    def test_extract_coeffs_matches_shift_definition(self):
        rng = random.Random(22)
        for mode in ("W", "H"):
            for basis in "fg":
                for _ in range(15):
                    alpha = rand_symbolic(rng, rng.randint(1, 3), mode, basis, 8, 4)
                    want = [
                        coeff_at_zero(shift(alpha, plus=d // 2 + d % 2, minus=d // 2))
                        for d in range(9)
                    ]
                    assert extract_coeffs(alpha, 8) == want


class TestProduct:
    def test_f11_squared(self):
        got = product(gen(1, "W", "f", 1), gen(1, "W", "f", 1))
        want = SymbolicInvariant(1, "W", {1: 1 << 1, 2: 2})
        assert got == want

    def test_cohomology_single_term(self):
        for n in (1, 2, 3):
            for s in range(5):
                for t in range(5):
                    got = product(gen(n, "H", "f", s), gen(n, "H", "f", t))
                    want = SymbolicInvariant(n, "H", {s | t: 1 << n * (s & t)})
                    assert got == want

    def test_pointwise(self):
        rng = random.Random(5)
        for F in standard_fields(2):
            for target in (W_TARGET, H_TARGET):
                n = rng.randint(1, 2)
                a = rand_symbolic(rng, n, target.mode, "f", 3, 2)
                b = rand_symbolic(rng, n, target.mode, "f", 3, 2)
                q = rand_in_In(rng, F, n, max_terms=1)
                assert evaluate(product(a, b), q) == evaluate(a, q) * evaluate(b, q)

    def test_unit(self):
        a = SymbolicInvariant(2, "W", {0: 1, 3: -2})
        assert product(a, gen(2, "W", "f", 0)) == a

    @pytest.mark.parametrize("mode", ["W", "H"])
    def test_one_factor_is_itself(self, mode):
        rng = random.Random(f"one factor {mode}")
        for _ in range(40):
            a = rand_symbolic(rng, rng.randint(1, 3), mode, rng.choice("fg"), 8, 4)
            assert product(a) == a
        assert product(SymbolicInvariant(2, mode)) == SymbolicInvariant(2, mode)

    def test_no_factors_rejected(self):
        with pytest.raises(ValueError, match="product needs at least one factor"):
            product()


class TestProductOracle:
    """``product`` against the trinomial oracle, which reads every
    trinomial and reduces it in the mode's scalar ring: in mode H the one
    odd trinomial of each pair (s, t) must carry the whole product."""

    @staticmethod
    def check(a, b):
        got, want = product(a, b), trinomial_product(a, b)
        assert (got.n, got.coeffs) == (want.n, want.coeffs), (a, b)

    @pytest.mark.parametrize("mode", ["W", "H"])
    def test_seeded_products(self, mode):
        rng = random.Random(41)
        for n in (1, 2, 3):
            for ba in "fg":
                for bb in "fg":
                    for _ in range(8):
                        a = rand_symbolic(rng, n, mode, ba, 16, 3)
                        b = rand_symbolic(rng, n, mode, bb, 16, 3)
                        self.check(a, b)

    @pytest.mark.parametrize("mode", ["W", "H"])
    def test_cap_edge(self, mode):
        """Every split s + t of the largest total degree into two f
        generators, and products with g factors up to the cap.  The
        oracle takes 1.7-2.2 s on g[1,128]*g[1,128] in mode H, so the two
        g factors at the cap are checked at n = 2 and 3."""
        for n in (1, 2, 3):
            top = MAX_TOTAL_DEGREE // n
            for s in range(top + 1):
                self.check(gen(n, mode, "f", s), gen(n, mode, "f", top - s))
            for s in (0, 1, top // 4, top // 2 - 1):
                self.check(gen(n, mode, "f", top - s), gen(n, mode, "g", s))
            if n > 1:
                self.check(gen(n, mode, "g", top // 2), gen(n, mode, "g", top - top // 2))

    @pytest.mark.cpu_budget
    def test_cap_product_is_fast_in_mode_h(self):
        """The trinomial route takes 1.7-2.2 s of CPU on this product, the
        value-space product about 0.01 s."""
        start = time.process_time()
        parse_invariant("g[1,128]*g[1,128]", "H")
        assert time.process_time() - start < 0.5


def direct_values(alpha, top):
    """ev(alpha)(m) = sum_s a_s eps^(ns) C(m, s) for m = 0..top, term by
    term from ``math.comb``."""
    out = []
    for m in range(top + 1):
        v = 0
        for s, c in alpha.coeffs.items():
            if alpha.mode == "W":
                v += c * comb(m, s) << alpha.n * s
            elif comb(m, s) % 2:
                v ^= c << alpha.n * s
        out.append(v)
    return out


class TestValueSpace:
    """The two halves of ``product``: ``to_values`` reads an invariant on
    the sums of m n-fold Pfister forms, and ``from_values`` takes Newton's
    forward differences back to f-coefficients."""

    @pytest.mark.parametrize("mode", ["W", "H"])
    def test_values_are_binomial_sums(self, mode):
        rng = random.Random(71)
        for n in (1, 2, 3):
            for basis in "fg":
                for _ in range(5):
                    a = rand_symbolic(rng, n, mode, basis, 12, 4)
                    assert to_values(a, 20) == direct_values(a, 20)

    @pytest.mark.parametrize("mode", ["W", "H"])
    def test_round_trip_up_to_the_cap(self, mode):
        rng = random.Random(72)
        for top in (0, 1, 2, 7, 31, 128, 255, MAX_TOTAL_DEGREE):
            n = rng.randint(1, 3)
            a = rand_symbolic(rng, n, mode, rng.choice("fg"), top, 8)
            vals = to_values(a, top)
            back = from_values(vals, n, mode)
            assert back.coeffs == a.coeffs
            assert to_values(back, top) == vals

    @pytest.mark.parametrize("mode", ["W", "H"])
    def test_values_of_a_product_are_products_of_values(self, mode):
        """ev(a b) = ev(a) ev(b) pointwise, also past the D + 1 points
        ``product`` reads, and a product of three is one of pairs."""
        rng = random.Random(73)
        mul = operator.mul if mode == "W" else clmul
        for _ in range(30):
            n = rng.randint(1, 3)
            a, b, c = (rand_symbolic(rng, n, mode, rng.choice("fg"), 8, 3) for _ in range(3))
            want = list(map(mul, direct_values(a, 20), direct_values(b, 20)))
            assert direct_values(product(a, b), 20) == want
            assert product(a, b, c) == product(product(a, b), c)

    @pytest.mark.parametrize("mode", ["W", "H"])
    def test_values_outside_the_image_raise(self, mode):
        """Flipping the low bit of the value at m = k changes the degree-k
        difference by a unit, which eps^(nk) does not divide."""
        rng = random.Random(74)
        for n in (1, 2, 3):
            for k in (1, 4, 8):
                vals = to_values(rand_symbolic(rng, n, mode, "f", 8, 3), 8)
                vals[k] ^= 1
                with pytest.raises(ConsistencyError, match=f"degree-{k} difference"):
                    from_values(vals, n, mode)

    @pytest.mark.parametrize("mode", ["W", "H"])
    def test_phi_plus_is_the_forward_difference(self, mode):
        """Adding one Pfister form: ev(phi(a, +1))(m) = (ev(a)(m + 1) -
        ev(a)(m)) / eps^n, an oracle for ``phi`` independent of its table."""
        rng = random.Random(75)
        for n in (1, 2, 3):
            for basis in "fg":
                for _ in range(10):
                    a = rand_symbolic(rng, n, mode, basis, 10, 4)
                    vals = direct_values(a, 13)
                    diffs = [w - v if mode == "W" else w ^ v for v, w in zip(vals, vals[1:])]
                    assert all(d & ((1 << n) - 1) == 0 for d in diffs)
                    assert direct_values(phi(a, 1), 12) == [d >> n for d in diffs]


class TestPsiTilde:
    def test_even_steps_down(self):
        got = psi_tilde(gen(2, "W", "g", 4))
        assert got == from_g(2, "W", {3: 1 << 1})

    def test_odd_negates_in_witt_mode(self):
        assert psi_tilde(gen(2, "W", "g", 5)) == gen(2, "W", "g", 5).scale(-1)

    def test_odd_dies_in_cohomology_mode(self):
        assert not psi_tilde(gen(2, "H", "g", 5)).coeffs

    def test_involution_relation(self):
        rng = random.Random(6)
        for mode, delta in (("W", 1), ("H", 0)):
            for _ in range(40):
                alpha = rand_symbolic(rng, rng.randint(1, 3), mode, "g", 8, 4)
                lhs = psi_tilde(psi_tilde(alpha))
                rhs = psi_tilde(alpha).scale(alpha.ops.from_int(-delta))
                assert lhs == rhs

    def test_closed_form_cross_check(self):
        rng = random.Random(7)
        for mode in ("W", "H"):
            for _ in range(60):
                alpha = rand_symbolic(rng, rng.randint(1, 3), mode, "f", 8, 4)
                assert psi_tilde_closed_f(alpha) == psi_tilde(alpha)

    def test_pointwise_similitude(self):
        rng = random.Random(8)
        for F in standard_fields(2):
            for target in (W_TARGET, H_TARGET):
                n = rng.randint(1, 2)
                d = rng.randint(0, 5)
                alpha = gen(n, target.mode, "g", d)
                q = rand_in_In(rng, F, n, max_terms=1)
                lam = rand_sc(rng, F)
                want = evaluate(alpha, q) + target.symbol([lam]) * evaluate(
                    psi_tilde(alpha), q
                )
                assert evaluate(alpha, q.scale_sq(lam)) == want

    def test_similarity_class_criterion(self):
        rng = random.Random(9)
        for mode, delta in (("W", 1), ("H", 0)):
            ops = coeff_ops(mode)
            for _ in range(60):
                n = rng.randint(1, 3)
                alpha = rand_symbolic(rng, n, mode, "g", 7, 4)
                g = g_coeffs(alpha)
                crit = all(
                    ops.mul(1 << n - 1, g.get(2 * i + 2, 0)) == ops.mul(ops.from_int(delta), g.get(2 * i + 1, 0))
                    for i in range(5)
                )
                assert crit == (not psi_tilde(alpha).coeffs)


class TestRestrict:
    def test_witt_mode_formula_instance(self):
        # degree 2 at level 1: binomial weights 1, 1 and trivial eps powers
        got = restrict(gen(1, "W", "f", 2))
        assert got == SymbolicInvariant(2, "W", {1: 1, 2: 1})

    def test_cohomology_even_survives(self):
        for d in range(5):
            assert restrict(gen(1, "H", "f", 2 * d)) == gen(2, "H", "f", d)

    def test_cohomology_odd_dies(self):
        for d in (1, 3, 5):
            assert not restrict(gen(1, "H", "f", d)).coeffs

    def test_pointwise(self):
        rng = random.Random(10)
        for F in standard_fields(2):
            for target in (W_TARGET, H_TARGET):
                n = rng.randint(1, 2)
                d = rng.randint(0, 5)
                alpha = gen(n, target.mode, "f", d)
                q = rand_in_In(rng, F, n + 1, max_terms=1)
                assert evaluate(alpha, q) == evaluate(restrict(alpha), q)


class TestOmega:
    def test_degree_one_untwisted(self):
        assert omega_t(gen(3, "W", "f", 1), 2) == gen(1, "W", "f", 1)

    def test_degree_two_picks_up_eps(self):
        got = omega_t(gen(2, "W", "f", 2), 1)
        assert got == SymbolicInvariant(1, "W", {2: 1 << 1})

    def test_constants_untouched(self):
        const = SymbolicInvariant(3, "W", {0: 7})
        assert omega_t(const, 2) == SymbolicInvariant(1, "W", {0: 7})

    def test_depth_guard(self):
        with pytest.raises(ValueError):
            omega_t(gen(2, "W", "f", 1), 2)

    def test_composes(self):
        alpha = gen(3, "W", "f", 4)
        assert omega_t(omega_t(alpha, 1), 1) == omega_t(alpha, 2)


class TestEvaluate:
    def test_unit_invariant(self):
        q = witt_zero(RTT)
        assert evaluate(gen(2, "W", "f", 0), q) == W_TARGET.one(RTT)

    def test_matches_direct_family_values(self):
        rng = random.Random(11)
        for F in standard_fields(2):
            for target in (W_TARGET, H_TARGET):
                n = rng.randint(1, 2)
                d = rng.randint(0, 4)
                q = rand_in_In(rng, F, n, max_terms=1)
                assert evaluate(gen(n, target.mode, "f", d), q) == eval_f(
                    n, d, q, target
                )
                assert evaluate(gen(n, target.mode, "g", d), q) == eval_g(
                    n, d, q, target
                )

    def test_membership_guard(self):
        q = witt_canonical(pfister([parse_sc("t1", RTT)]))
        with pytest.raises(MembershipError):
            evaluate(gen(2, "W", "f", 1), q)

    def test_disc_example_over_nonreal_towers(self):
        # the alternating f-sum stabilizes to the signed-discriminant class
        rng = random.Random(12)
        for F in (parse_field("C((t1))"), parse_field("F5((t1))"), parse_field("F3")):
            for _ in range(10):
                x = rand_diag(rng, F, rng.choice((2, 4)))
                q = witt_canonical(x)
                total = witt_zero(F)
                for d in range(x.dim + 2):
                    v = eval_f(1, d, q, W_TARGET)
                    total = total + (v if d % 2 == 0 else -v)
                assert total == witt_canonical(GwElement.diag(signed_disc(x)))


class TestLiterals:
    def test_basic_generator(self):
        assert parse_invariant("f[2,3]", "W") == gen(2, "W", "f", 3)

    def test_sum_with_eps(self):
        got = parse_invariant("g[2,3] + eps^2*f[2,1]", "W")
        want = gen(2, "W", "g", 3) + gen(2, "W", "f", 1).scale(4)
        assert got == want

    def test_pure_g_stays_g(self):
        got = parse_invariant("g[1,2] + 3*g[1,0]", "W")
        assert g_coeffs(got) == {2: 1, 0: 3}

    def test_product_literal(self):
        got = parse_invariant("f[1,1]*f[1,1]", "W")
        assert got == product(gen(1, "W", "f", 1), gen(1, "W", "f", 1))

    def test_negative_coefficient(self):
        got = parse_invariant("-2*f[1,1]", "W")
        assert got == gen(1, "W", "f", 1).scale(-2)

    def test_h_mode_coefficients(self):
        got = parse_invariant("eps*f[1,2] + f[1,2]", "H")
        assert got == SymbolicInvariant(1, "H", {2: 0b11})

    def test_errors(self):
        with pytest.raises(InvariantSyntaxError):
            parse_invariant("eps", "W")
        with pytest.raises(InvariantSyntaxError):
            parse_invariant("f[1,1] + g[2,1]", "W")
        with pytest.raises(InvariantSyntaxError):
            parse_invariant("spam[1,1]", "W")

    def test_render_round_trip(self):
        alpha = parse_invariant("g[2,3] + eps^2*f[2,1]", "W")
        again = parse_invariant(str(alpha).replace("(", "").replace(")", ""), "W")
        assert again == alpha


class TestArgumentChecks:
    """Each argument check of the symbolic algebra raises through a public
    call."""

    @pytest.mark.parametrize("other", [gen(2, "W", "f", 1), gen(1, "H", "f", 1)])
    def test_operands_at_different_levels_or_modes(self, other):
        alpha = gen(1, "W", "f", 1)
        for op in (operator.add, operator.sub, product):
            with pytest.raises(ValueError, match="invariants at different levels or modes"):
                op(alpha, other)

    @pytest.mark.parametrize("sign", [0, 2, -2])
    def test_phi_sign(self, sign):
        with pytest.raises(ValueError, match="sign must be"):
            phi(gen(1, "W", "f", 2), sign)


def _parsed(parse, text, mode):
    """What ``parse`` makes of a literal, as plain data, or the type and
    message of what it raises."""
    try:
        alpha = parse(text, mode)
    except Exception as exc:
        return type(exc), str(exc)
    return alpha.n, alpha.mode, alpha.coeffs


# the largest mode-W coefficient the cap admits, -2^(MAX_COEFF_BITS - 1), as
# factors of at most 4,000 bits each (below the digit limit of int())
_CAP_BITS = MAX_COEFF_BITS - 1
CAP_COEFF = "-" + "*".join(str(1 << c) for c in [4000] * (_CAP_BITS // 4000) + [_CAP_BITS % 4000] if c)


def edge_literal(rng, n):
    """A seeded literal at level n made of the shapes noise seldom draws:
    products with g factors, a product added twice or with both signs (so
    that mode H, or both modes, cancel it), even coefficients, and terms
    at the W coefficient cap and at the eps cap."""

    def prod_text():
        factors = [f"{rng.choice('fg')}[{n},{rng.randint(0, 4)}]" for _ in range(rng.randint(1, 3))]
        return "*".join(factors + [f"g[{n},{rng.randint(0, 3)}]"])

    terms = []
    for _ in range(rng.randint(1, 3)):
        p, shape = prod_text(), rng.randrange(6)
        if shape == 0:
            terms += [p, p]
        elif shape == 1:
            terms += [p, "-" + p]
        elif shape == 2:
            terms.append(f"{2 * rng.randint(-3, 3)}*{p}")
        elif shape == 3:
            terms.append(f"{CAP_COEFF}*{p}")
        elif shape == 4:
            terms.append(f"eps^{MAX_EPS_EXPONENT}*{p}")
        else:
            terms.append(f"{rng.randint(-5, 5)}*eps^{rng.randint(0, 3)}*{p}")
    rng.shuffle(terms)
    return "+".join(terms).replace("+-", "-")


class TestPackedParse:
    """``parse_invariant`` against the per-term oracle on the edges of the
    packed parse."""

    EXAMPLES = [
        "f[1,2]*g[1,3] + g[1,1]*g[1,2]*f[1,0]",
        "g[2,2]*g[2,3] + g[2,2]*g[2,3]",  # 0 in mode H
        "2*g[1,3] - 4*eps*g[1,1]*g[1,1]",  # 0 in mode H
        "g[1,4]*f[1,1] - g[1,4]*f[1,1] + 1",  # the constant alone
        f"{CAP_COEFF}*g[1,2]*f[1,1]",
        f"eps^{MAX_EPS_EXPONENT}*g[1,1]*g[1,2] - {MAX_EPS_EXPONENT}*f[1,1]",
    ]

    def test_cap_literals_are_at_the_caps(self):
        value = literal_oracle.parse_invariant(f"{CAP_COEFF}*f[1,1]", "W").coeffs[1]
        assert value.bit_length() == MAX_COEFF_BITS
        assert value == -(1 << MAX_COEFF_BITS - 1)

    @pytest.mark.parametrize("mode", ["W", "H"])
    def test_examples_match_literal_oracle(self, mode):
        for text in self.EXAMPLES:
            got = _parsed(parse_invariant, text, mode)
            assert got == _parsed(literal_oracle.parse_invariant, text, mode), text
            assert len(got) == 3, text

    @pytest.mark.parametrize("mode", ["W", "H"])
    def test_seeded_edges_match_literal_oracle(self, mode):
        rng = random.Random(38)
        empty = 0
        for _ in range(120):
            text = edge_literal(rng, rng.randint(1, 3))
            got = _parsed(parse_invariant, text, mode)
            assert got == _parsed(literal_oracle.parse_invariant, text, mode), text
            empty += not got[2]
        assert empty >= (20 if mode == "H" else 1)

    @pytest.mark.parametrize("mode", ["W", "H"])
    def test_g_values_closed_form(self, mode):
        """g^d takes the value C(m + (d - 1) // 2, d) eps^(nd) on m n-fold
        Pfister forms, the identity ``parse_invariant`` multiplies by."""
        from_int = coeff_ops(mode).from_int
        for n in (1, 2):
            for d in range(40):
                want = [from_int(ext_binom(m + (d - 1) // 2, d)) << n * d for m in range(45)]
                assert to_values(gen(n, mode, "g", d), 44) == want, (n, d)

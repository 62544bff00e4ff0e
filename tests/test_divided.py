"""Divided powers on GW and the concrete f/g invariant families."""

import random
from itertools import combinations

import pytest

from gwinv.cohomology import minus_one_power, symbol
from gwinv.divided import (
    H_TARGET,
    W_TARGET,
    RunConfig,
    eval_f,
    eval_f_all,
    eval_fixed_dim,
    eval_pi,
    eval_pi_coeffs,
    eval_sw,
    p_fixed,
)
from gwinv.fields import minus_one, parse_field, parse_sc, sc_one
from gwinv.invariants import coeff_ops, eval_g
from gwinv.sampling import (
    rand_coeff,
    rand_diag,
    rand_gw,
    rand_in_In,
    rand_in_In_data,
    rand_pfister_slots,
    rand_sc,
    standard_fields,
)
from gwinv.witt import (
    GwElement,
    MembershipError,
    gpfister,
    gw_equal,
    pfister,
    witt_canonical,
    witt_one,
    witt_zero,
)
from group_law_oracle import INT_RING, group_law, gw_ring, mul, value_ring

R = parse_field("R")
RTT = parse_field("R((t1))((t2))")
T1, T2 = parse_sc("t1", RTT), parse_sc("t2", RTT)
BOTH = (W_TARGET, H_TARGET)


class TestPi:
    def test_degree_one_is_identity(self):
        rng = random.Random(0)
        for F in standard_fields(2):
            x = GwElement.diag(rand_sc(rng, F), rand_sc(rng, F)) - GwElement.diag(
                rand_sc(rng, F)
            )
            for n in (1, 2, 3):
                assert gw_equal(eval_pi(n, 1, x), x)

    def test_kills_pfister_lifts(self):
        rng = random.Random(1)
        for F in standard_fields(2):
            for n in (1, 2, 3):
                g = gpfister(list(rand_pfister_slots(rng, F, n)))
                pis = eval_pi_coeffs(n, range(5), g)
                for d in (2, 3, 4):
                    v = pis[d]
                    assert v.dim == 0 and witt_canonical(v).is_zero

    def test_pairwise_product_on_sums(self):
        g1, g2 = gpfister([T1]), gpfister([T2])
        assert gw_equal(eval_pi(1, 2, g1 + g2), g1 * g2)

    def test_elementary_symmetric_brute_force(self):
        rng = random.Random(2)
        for F in standard_fields(2):
            for n in (1, 2):
                lifts = [
                    gpfister(list(rand_pfister_slots(rng, F, n))) for _ in range(3)
                ]
                total = lifts[0] + lifts[1] + lifts[2]
                pis = eval_pi_coeffs(n, range(4), total)
                for d in (2, 3):
                    sym = GwElement.zero(F)
                    for combo in combinations(range(3), d):
                        term = GwElement.unit(F)
                        for i in combo:
                            term = term * lifts[i]
                        sym = sym + term
                    assert gw_equal(pis[d], sym)

    def test_not_a_lambda_structure(self):
        # the divided powers do not kill the unit in degrees >= 2
        one = GwElement.unit(R)
        assert not witt_canonical(eval_pi(1, 2, one)).is_zero


class TestEvalF:
    def test_pfister_vanishing(self):
        rng = random.Random(3)
        for F in standard_fields(2):
            for n in (1, 2, 3):
                q = witt_canonical(pfister(rand_pfister_slots(rng, F, n)))
                for d in (2, 3):
                    for target in BOTH:
                        assert eval_f(n, d, q, target).is_zero

    def test_opposite_pfister_formula(self):
        rng = random.Random(4)
        for F in standard_fields(2):
            for n in (1, 2):
                slots = rand_pfister_slots(rng, F, n)
                q = witt_canonical(pfister(slots))
                for d in range(1, 5):
                    for target in BOTH:
                        want = target.eps_pow(F, n * (d - 1)) * target.symbol(slots)
                        if d % 2 and target.mode == "W":
                            want = -want
                        assert eval_f(n, d, -q, target) == want

    def test_two_pfister_sum_in_cohomology(self):
        q = witt_canonical(pfister([T1])) + witt_canonical(pfister([T2]))
        assert eval_f(1, 2, q, H_TARGET) == symbol([T1, T2])

    def test_degree_zero_unit(self):
        q = witt_zero(RTT)
        assert eval_f(2, 0, q, W_TARGET) == witt_one(RTT)
        assert eval_f(2, 0, q, H_TARGET) == H_TARGET.one(RTT)

    def test_membership_guard(self):
        with pytest.raises(MembershipError):
            eval_f(2, 1, witt_canonical(pfister([T1])), W_TARGET)

    def test_sum_rule(self):
        rng = random.Random(5)
        for F in standard_fields(2):
            for target in BOTH:
                n = rng.randint(1, 2)
                d = rng.randint(0, 4)
                q1 = rand_in_In(rng, F, n)
                q2 = rand_in_In(rng, F, n)
                f1 = eval_f_all(n, q1, target, range(d + 1))
                f2 = eval_f_all(n, q2, target, range(d + 1))
                want = target.zero(F)
                for k in range(d + 1):
                    want = want + f1[k] * f2[d - k]
                assert eval_f(n, d, q1 + q2, target) == want


class TestEvalG:
    def test_degree_one_is_f(self):
        rng = random.Random(6)
        for F in standard_fields(2):
            q = rand_in_In(rng, F, 2)
            for target in BOTH:
                assert eval_g(2, 1, q, target) == eval_f(2, 1, q, target)

    def test_pfister_dies_at_three(self):
        q = witt_canonical(pfister([T1, T2]))
        for target in BOTH:
            assert eval_g(2, 3, q, target).is_zero

    def test_bounded_support(self):
        rng = random.Random(7)
        for F in standard_fields(2):
            for target in BOTH:
                n = rng.randint(1, 2)
                s, t = rng.randint(0, 2), rng.randint(0, 2)
                q, _ = rand_in_In_data(rng, F, n, s, t)
                bound = 2 * max(s, t)
                assert eval_g(n, bound + 1, q, target).is_zero
                assert eval_g(n, bound + 2, q, target).is_zero

    def test_bound_attained_over_real_tower(self):
        q = -witt_canonical(pfister([minus_one(R)]))
        for target in BOTH:
            assert not eval_g(1, 2, q, target).is_zero


class TestStiefelWhitney:
    def test_single_entry(self):
        x = GwElement.diag(T1)
        assert eval_sw(1, x, H_TARGET) == symbol([T1])
        assert eval_sw(1, x, W_TARGET) == witt_canonical(pfister([T1]))

    def test_elementary_symmetric_expansion(self):
        rng = random.Random(8)
        for F in standard_fields(2):
            entries = [rand_sc(rng, F) for _ in range(4)]
            x = GwElement.diag(*entries)
            for d in range(5):
                want = H_TARGET.zero(F)
                for combo in combinations(range(4), d):
                    term = H_TARGET.one(F)
                    for i in combo:
                        term = term * symbol([entries[i]])
                    want = want + term
                assert eval_sw(d, x, H_TARGET) == want

    def test_group_morphism_on_differences(self):
        rng = random.Random(9)
        for F in standard_fields(1):
            x = rand_diag(rng, F, 3)
            y = rand_diag(rng, F, 2)
            for target in BOTH:
                sx = eval_sw(1, x - y, target)
                # degree-1 coefficient subtracts
                assert sx == eval_sw(1, x, target) - eval_sw(1, y, target)

    def test_fixed_dim_expansion_matches_group_law(self):
        # eq-p route, cross-checked against the series route
        a, b = T1, parse_sc("-1", RTT)
        x = GwElement.diag(a, b)
        got = p_fixed(2, x)
        want = (
            GwElement.unit(RTT) - GwElement.diag(a, b) + GwElement.diag(a * b)
        )
        assert gw_equal(got, want)
        assert witt_canonical(got) == eval_sw(2, x, W_TARGET)


class TestFixedDim:
    def test_binary_degree_one(self):
        # eps - sw_1(<a,b>) realizes the Witt class itself / the class (-ab)
        a, b = T1, parse_sc("-t2", RTT)
        x = GwElement.diag(a, b)
        q = witt_canonical(x)
        assert eval_fixed_dim(1, x, W_TARGET, "f") == q
        assert eval_fixed_dim(1, x, H_TARGET, "f") == symbol([-(a * b)])

    def test_matches_direct_evaluation(self):
        rng = random.Random(10)
        for F in standard_fields(2):
            for m in (2, 4, 6):
                x = rand_diag(rng, F, m)
                q = witt_canonical(x)
                for d in range(0, 9, 2):
                    for target in BOTH:
                        assert eval_fixed_dim(d, x, target, "f") == eval_f(
                            1, d, q, target
                        )
                        assert eval_fixed_dim(d, x, target, "g") == eval_g(
                            1, d, q, target
                        )

    def test_g_vanishes_beyond_dimension(self):
        rng = random.Random(11)
        x = rand_diag(rng, RTT, 4)
        for d in (5, 6, 7):
            for target in BOTH:
                assert eval_fixed_dim(d, x, target, "g").is_zero

    def test_hyperbolic_normalized(self):
        hyp = GwElement.diag(sc_one(RTT), -sc_one(RTT))
        for d in range(1, 5):
            for target in BOTH:
                assert eval_fixed_dim(d, hyp, target, "f").is_zero

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError):
            eval_fixed_dim(1, GwElement.diag(T1), W_TARGET)


def _group_law_cases(rng):
    """(ring, atoms) pairs over Z, GW and both value rings."""
    yield INT_RING, [rng.randint(-5, 5) for _ in range(4)]
    for F in standard_fields(1):
        yield gw_ring(F), [rand_gw(rng, F, rng.randint(1, 3)) for _ in range(3)]
        for target in BOTH:
            yield value_ring(target, F), [target.symbol([rand_sc(rng, F)]) for _ in range(3)]


class TestTargetRing:
    def test_witt_eps_pow_is_minus_one_pfister_power(self):
        # <<-1>> = <1,1> = 2 in W; F3 (-1 a non-square) and F5 are included
        for F in standard_fields(2):
            e = witt_canonical(pfister([minus_one(F)]))
            want = witt_one(F)
            for j in range(7):
                assert W_TARGET.eps_pow(F, j) == want
                want = want * e

    def test_cohomology_times_is_per_bit_sum(self):
        rng = random.Random(12)
        for F in standard_fields(2):
            for _ in range(5):
                x = symbol([rand_sc(rng, F), rand_sc(rng, F)]) + symbol([rand_sc(rng, F)])
                c = rng.getrandbits(6)
                want = H_TARGET.zero(F)
                for j in range(c.bit_length()):
                    if c >> j & 1:
                        want = want + minus_one_power(F, j) * x
                assert H_TARGET.times(x, c) == want

    @pytest.mark.parametrize("target", BOTH, ids=lambda t: t.mode)
    def test_times_is_a_module_action_of_the_universal_scalars(self, target):
        rng = random.Random(14)
        ops = coeff_ops(target.mode)
        for F in standard_fields(2):

            def element():
                a, b, c = (rand_sc(rng, F) for _ in range(3))
                return target.symbol([a]) + target.symbol([b, c])

            for _ in range(4):
                x, y = element(), element()
                a, b = rand_coeff(rng, target.mode), rand_coeff(rng, target.mode)
                assert target.times(x, ops.add(a, b)) == target.times(x, a) + target.times(x, b)
                assert target.times(x + y, a) == target.times(x, a) + target.times(y, a)
                assert target.times(target.times(x, a), b) == target.times(x, ops.mul(a, b))
            for j in range(7):
                assert target.times(target.one(F), 1 << j) == target.eps_pow(F, j)

    def test_run_config_selects_the_two_records(self):
        both = RunConfig().targets()
        assert len(both) == 2 and both[0] is W_TARGET and both[1] is H_TARGET
        for target in BOTH:
            (only,) = RunConfig(mode=target.mode).targets()
            assert only is target

    @pytest.mark.parametrize("target", BOTH, ids=lambda t: t.mode)
    def test_repr_names_the_mode(self, target):
        assert repr(target) == f"{target.mode}_TARGET"
        assert "0x" not in repr(target)

    def test_group_law_of_negated_atoms_inverts(self):
        rng = random.Random(13)
        for ring, atoms in _group_law_cases(rng):
            pairs = [(a, rng.choice((-3, -2, -1, 1, 2, 3))) for a in atoms]
            negated = [(a, -c) for a, c in pairs]
            got = mul(ring, group_law(ring, pairs, 5), group_law(ring, negated, 5), 6)
            assert got == [ring.one] + [ring.zero] * 5


class TestArgumentChecks:
    """Each argument check of the divided powers and the fixed-dimension
    evaluation raises through a public call."""

    @pytest.mark.parametrize("n", [0, -1])
    def test_pi_level_below_one(self, n):
        with pytest.raises(ValueError, match="^the level n must be >= 1$"):
            eval_pi_coeffs(n, range(3), gpfister([T1]))

    @pytest.mark.parametrize("x", [-GwElement.diag(T1, T2), GwElement.diag(T1, T1) - GwElement.diag(T2)])
    def test_fixed_dim_needs_a_nonnegative_diagonal(self, x):
        with pytest.raises(ValueError, match="^the fixed-dimension expansion needs a nonnegative diagonal$"):
            p_fixed(2, x)
        for target in BOTH:
            for basis in ("f", "g"):
                with pytest.raises(ValueError, match="^fixed-dimension evaluation needs a nonnegative diagonal$"):
                    eval_fixed_dim(2, x, target, basis)

    @pytest.mark.parametrize("basis", ["h", "F", ""])
    def test_fixed_dim_basis(self, basis):
        for target in BOTH:
            with pytest.raises(ValueError, match="^basis must be 'f' or 'g'$"):
                eval_fixed_dim(2, GwElement.diag(T1, T2), target, basis)

"""Semi-factorized classes, descent evaluation, and the certified
alternative-factorization generator."""

import random

import pytest

from gwinv import factorized
from gwinv.divided import H_TARGET, W_TARGET
from gwinv.factorized import (
    FactorizedForm,
    alt_factorizations,
    delta_t_eval,
    lemma_factor_check,
    make_factorized,
)
from gwinv.fields import FieldMismatchError, enumerate_sc, parse_field, parse_sc, sc_one
from gwinv.invariants import SymbolicInvariant, evaluate, from_g, omega_t
from gwinv.sampling import rand_in_In, rand_pfister_slots, rand_sc, standard_fields
from gwinv.series import ConsistencyError
from gwinv.witt import (
    GwElement,
    MembershipError,
    gpfister,
    is_in_In,
    pfister,
    witt_canonical,
    witt_zero,
)

RTT = parse_field("R((t1))((t2))")
T1, T2 = parse_sc("t1", RTT), parse_sc("t2", RTT)


def gen(n, mode, d):
    return SymbolicInvariant(n, mode, {d: 1})


class TestMakeFactorized:
    def test_product_membership_checked(self):
        q = witt_canonical(pfister([T2]))
        x = make_factorized([T1], q, 2)
        assert is_in_In(x.product(), 2)

    def test_cofactor_level_enforced(self):
        q = witt_canonical(GwElement.diag(sc_one(RTT)))  # odd dimension
        with pytest.raises(MembershipError):
            make_factorized([T1], q, 2)

    def test_zero_cofactor(self):
        x = make_factorized([T1], witt_zero(RTT), 2)
        assert x.product().is_zero


class TestDeltaEval:
    def test_depth_zero_is_plain_evaluate(self):
        q = witt_canonical(pfister([T2]))
        x = make_factorized([T1], q, 2)
        alpha = gen(2, "W", 1)
        assert delta_t_eval(x, alpha, 0) == evaluate(alpha, x.product())

    def test_depth_one_factors_out_symbol(self):
        rng = random.Random(0)
        for F in standard_fields(2):
            for target in (W_TARGET, H_TARGET):
                c = rand_sc(rng, F)
                q = rand_in_In(rng, F, 1, max_terms=1)
                x = make_factorized([c], q, 2)
                alpha = gen(1, target.mode, 2)
                got = delta_t_eval(x, alpha, 1)
                assert got == target.symbol([c]) * evaluate(alpha, q)

    def test_zero_cofactor_gives_zero(self):
        x = make_factorized([T1], witt_zero(RTT), 2)
        for target in (W_TARGET, H_TARGET):
            assert delta_t_eval(x, gen(1, target.mode, 1), 1).is_zero

    def test_normalization_required(self):
        x = make_factorized([T1], witt_zero(RTT), 2)
        const = from_g(1, "W", {0: 1})
        with pytest.raises(ValueError):
            delta_t_eval(x, const, 1)

    def test_level_mismatch_rejected(self):
        x = make_factorized([T1], witt_zero(RTT), 2)
        with pytest.raises(ValueError):
            delta_t_eval(x, gen(2, "W", 1), 1)


class TestAltFactorizations:
    def test_identity_included(self):
        x = make_factorized([T1], witt_canonical(pfister([T2])), 2)
        alts = alt_factorizations(x, budget=3, rng=random.Random(0))
        assert alts[0] is x

    def test_cofactor_perturbation_keeps_product(self):
        # <<a>> <<-a>> = 0, so shifting the cofactor by <<-a>> psi is safe
        a = T1
        psi = witt_canonical(pfister([T2]))
        base = make_factorized([a], psi, 2)
        shifted = witt_canonical(pfister([-a]) * pfister([T2]))
        cand = FactorizedForm((a,), psi + shifted, 2)
        assert cand.product() == base.product()

    def test_certified_scalar_swap(self):
        # cofactor sum(<x_i> <<c_i>>) with c_i in {1, -ab} multiplies equally
        # with <<a>> and <<b>>
        rng = random.Random(1)
        for F in standard_fields(2):
            a, b = rand_sc(rng, F), rand_sc(rng, F)
            ab = a * b
            cof = GwElement.diag(rand_sc(rng, F)) * gpfister([-ab])
            ca = witt_canonical(pfister([a]) * cof)
            cb = witt_canonical(pfister([b]) * cof)
            assert ca == cb

    def test_generated_alternatives_verified(self):
        rng = random.Random(2)
        for F in standard_fields(1):
            a = rand_sc(rng, F)
            q = rand_in_In(rng, F, 1, max_terms=1)
            x = make_factorized([a], q, 2)
            alts = alt_factorizations(x, budget=4, rng=rng)
            assert len(alts) >= 2
            for alt in alts:
                assert alt.product() == x.product()

    def test_descent_well_defined_across_alternatives(self):
        rng = random.Random(3)
        hits = 0
        for F in standard_fields(1):
            for _ in range(8):
                a, b = rand_sc(rng, F), rand_sc(rng, F)
                ab = a * b
                blocks = [(rand_sc(rng, F), rng.choice((sc_one(F), -ab)))]
                cof = GwElement.diag(blocks[0][0]) * gpfister([blocks[0][1]])
                cof_w = witt_canonical(cof)
                x = make_factorized([a], cof_w, 2, terms=blocks)
                alts = alt_factorizations(x, budget=5, rng=rng)
                for target in (W_TARGET, H_TARGET):
                    alpha = gen(1, target.mode, 2)
                    base_val = delta_t_eval(x, alpha, 1)
                    for alt in alts[1:]:
                        hits += 1
                        assert delta_t_eval(alt, alpha, 1) == base_val
        assert hits >= 30

    def test_uncertified_cofactor_move_is_caught(self, monkeypatch):
        # with every square class taken as represented by <<a>>, some move
        # shifts the cofactor by a class that <<a>> does not kill
        monkeypatch.setattr(factorized, "_certified_scalars", lambda a: enumerate_sc(a.field))
        x = make_factorized([T1], witt_canonical(pfister([T2])), 2)
        with pytest.raises(ConsistencyError, match="certified cofactor move changed the product"):
            alt_factorizations(x, budget=40, rng=random.Random(0))

    def test_uncertified_scalar_swap_is_caught(self, monkeypatch):
        # no cofactor move, and every block taken as represented by <<ab>>:
        # some swap of t1 changes <<t1>> <<t2>>
        monkeypatch.setattr(factorized, "_certified_scalars", lambda a: [])
        monkeypatch.setattr(factorized, "represented_by_binary", lambda c, a, b: True)
        x = make_factorized([T1], witt_canonical(pfister([T2])), 2, terms=[(sc_one(RTT), T2)])
        with pytest.raises(ConsistencyError, match="certified scalar swap changed the product"):
            alt_factorizations(x, budget=40, rng=random.Random(0))

    def test_requires_unary_factor(self):
        x = make_factorized([T1, T2], witt_zero(RTT), 3)
        with pytest.raises(ValueError):
            alt_factorizations(x, budget=2, rng=random.Random(0))


class TestLemmaFactorCheck:
    def test_trivial_block(self):
        assert lemma_factor_check(T1, T2, [(T2, sc_one(RTT))], 2)

    def test_certified_blocks_random(self):
        rng = random.Random(4)
        for F in standard_fields(2):
            a, b = rand_sc(rng, F), rand_sc(rng, F)
            terms = [
                (rand_sc(rng, F), rng.choice((sc_one(F), -(a * b))))
                for _ in range(rng.randint(1, 3))
            ]
            for k in range(1, 5):
                assert lemma_factor_check(a, b, terms, k)

    def test_equal_scalars_trivial(self):
        rng = random.Random(5)
        a = rand_sc(rng, RTT)
        terms = [(rand_sc(rng, RTT), sc_one(RTT))]
        assert lemma_factor_check(a, a, terms, 3)

    def test_uncertified_rejected(self):
        u = parse_sc("t1", RTT)
        with pytest.raises(ValueError):
            lemma_factor_check(T2, sc_one(RTT), [(T1, u)], 1)


class TestDivisibility:
    def test_value_on_multiples(self):
        rng = random.Random(6)
        for F in standard_fields(2):
            for target in (W_TARGET, H_TARGET):
                n = rng.randint(2, 3)
                t = rng.randint(1, n - 1)
                d = rng.randint(1, 4)
                slots = rand_pfister_slots(rng, F, t)
                qp = rand_in_In(rng, F, n - t, max_terms=1)
                q = witt_canonical(pfister(slots)) * qp
                alpha = gen(n, target.mode, d)
                from gwinv.divided import eval_f

                want = target.times(target.symbol(slots) * eval_f(n - t, d, qp, target), 1 << t * (d - 1))
                assert eval_f(n, d, q, target) == want
                # the symbolic descent operator computes the same thing
                assert target.symbol(slots) * evaluate(
                    omega_t(alpha, t), qp
                ) == eval_f(n, d, q, target)


class TestArgumentChecks:
    """Each argument check of the factorized forms raises through a public
    call."""

    def test_no_factor_slot(self):
        with pytest.raises(ValueError, match="^a factorized form needs at least one Pfister slot$"):
            make_factorized([], witt_canonical(pfister([T2])), 1)

    @pytest.mark.parametrize("factor, n", [([T1, T2], 1), ([T1], 0)])
    def test_factor_longer_than_the_level(self, factor, n):
        with pytest.raises(ValueError, match="^factor length exceeds the filtration level$"):
            make_factorized(factor, witt_zero(RTT), n)

    @pytest.mark.parametrize(
        "factor, cofactor",
        [
            ([parse_sc("t1", parse_field("R((t1))"))], witt_zero(parse_field("C((t1))"))),
            ([T1, parse_sc("t1", parse_field("R((t1))"))], witt_zero(RTT)),
            ([T1], witt_canonical(pfister([parse_sc("t1", parse_field("R((t1))"))]))),
        ],
        ids=["zero-cofactor", "mixed-slots", "cofactor"],
    )
    def test_factor_over_another_field(self, factor, cofactor):
        # the cofactor is in I^(n - r) in each case, so only the field check rejects it
        with pytest.raises(FieldMismatchError, match="^factor and cofactor over different fields$"):
            make_factorized(factor, cofactor, 2)

    @pytest.mark.parametrize("t", [2, 3])
    def test_descent_deeper_than_the_factor(self, t):
        x = make_factorized([T1], witt_canonical(pfister([T2])), 2)
        with pytest.raises(ValueError, match=f"^descent depth {t} exceeds factor length 1$"):
            delta_t_eval(x, gen(1, "W", 1), t)

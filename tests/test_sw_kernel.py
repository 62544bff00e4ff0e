"""The Stiefel-Whitney-style series through the character kernel against
the routes it replaced: ``sw_coeffs`` against the group law
prod (1 + {a} t)^c multiplied out over the value ring, and the one-pass
``eval_fixed_dim`` against the product loop over those series.  Both
oracles are kept here only as the reference; every value must agree."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gwinv import divided, witt
from gwinv.divided import (
    H_TARGET,
    W_TARGET,
    eval_f,
    eval_f_all,
    eval_f_sum,
    eval_fixed_dim,
    eval_pi,
    eval_pi_coeffs,
    eval_sw,
    p_fixed,
    sw_coeffs,
)
from gwinv.fields import REAL_CLOSED, SquareClass, parse_field
from gwinv.invariants import coeff_ops, eval_g
from gwinv.sampling import standard_fields
from gwinv.series import ConsistencyError, ext_binom
from gwinv.witt import GwElement, parse_form, witt_canonical
from group_law_oracle import group_law, value_ring

FIELDS = standard_fields(4)
TARGETS = (W_TARGET, H_TARGET)
BIG = 3 << 10


def oracle_sw_series(x, precision, target):
    atoms = ((target.symbol([a]), c) for a, c in x.entries())
    return group_law(value_ring(target, x.field), atoms, precision)


def oracle_eval_fixed_dim(d, x, target, basis):
    r = x.dim // 2
    ops = coeff_ops(target.mode)
    sw = oracle_sw_series(x, d, target)
    out = target.zero(x.field)
    for i in range(d + 1):
        if basis == "f":
            c = ext_binom(r - i, d - i)
        else:
            c = ext_binom(r - i - 1 + (d + 1) // 2, d - i)
        if c == 0:
            continue
        sign = c if i % 2 == 0 else -c
        out = out + target.times(target.eps_pow(x.field, d - i) * sw[i], ops.from_int(sign))
    return out


@st.composite
def signed_forms(draw):
    """Signed GW elements, with multiplicities up to 3 * 2^10 over R."""
    F = draw(st.sampled_from(FIELDS))
    masks = st.integers(0, (1 << F.num_gens) - 1)
    counts = st.integers(-3, 3)
    if F.kind == REAL_CLOSED:
        counts = counts | st.integers(-BIG, BIG)
    return GwElement(F, draw(st.dictionaries(masks, counts, max_size=4)))


@st.composite
def diagonals(draw, dims=st.integers(1, 6)):
    F = draw(st.sampled_from(FIELDS))
    m = draw(dims)
    masks = draw(st.lists(st.integers(0, (1 << F.num_gens) - 1), min_size=m, max_size=m))
    return GwElement.diag(*(SquareClass(F, mk) for mk in masks))


@given(signed_forms() | diagonals(), st.integers(0, 8))
@example(parse_form(f"{BIG}*diag(t1) - {BIG}*diag(-1,t2)", parse_field("R((t1))((t2))")), 8)
@example(parse_form("pf(u,t1) - 3*diag(t1)", parse_field("F3((t1))")), 6)
@example(GwElement.zero(parse_field("F5((t1))((t2))((t3))((t4))")), 8)
@settings(max_examples=120, derandomize=True, database=None, deadline=None)
def test_sw_series_matches_group_law(x, precision):
    for target in TARGETS:
        got = sw_coeffs(x, range(precision + 1), target)
        assert list(got) == list(range(precision + 1))
        assert list(got.values()) == oracle_sw_series(x, precision, target)
        assert eval_sw(precision, x, target) == got[precision]


@given(diagonals(st.sampled_from((2, 4, 6))), st.integers(0, 8))
@example(parse_form("diag(1,-1)", parse_field("R((t1))")), 8)
@example(parse_form("diag(t1,u,t2,u*t1)", parse_field("F3((t1))((t2))")), 7)
@settings(max_examples=80, derandomize=True, database=None, deadline=None)
def test_fixed_dim_fold_matches_product_loop(x, d):
    for target in TARGETS:
        for basis in "fg":
            assert eval_fixed_dim(d, x, target, basis) == oracle_eval_fixed_dim(d, x, target, basis)


@pytest.mark.parametrize("d", (-1, -2, -3))
def test_negative_degrees_are_rejected(d):
    F = parse_field("F3((t1))")
    x = parse_form("diag(t1,u)", F)
    for target in TARGETS:
        with pytest.raises(ValueError, match=f"degree {d} is negative"):
            sw_coeffs(x, (2, d), target)
        with pytest.raises(ValueError, match=f"degree {d} is negative"):
            eval_sw(d, x, target)
        for basis in "fg":
            with pytest.raises(ValueError, match=f"degree {d} is negative"):
                eval_fixed_dim(d, x, target, basis)
        # the divided-power API: the check comes before the degree-0 and
        # formal-zero shortcuts, and before the membership check
        with pytest.raises(ValueError, match=f"degree {d} is negative"):
            eval_pi(1, d, x)
        with pytest.raises(ValueError, match=f"degree {d} is negative"):
            eval_pi_coeffs(1, (2, d), x)
        with pytest.raises(ValueError, match=f"degree {d} is negative"):
            eval_g(1, d, witt_canonical(parse_form("pf(t1)", F)), target)
    with pytest.raises(ValueError, match=f"degree {d} is negative"):
        p_fixed(d, x)


@pytest.mark.parametrize("n", (0, -1))
@pytest.mark.parametrize("d", (0, 1))
def test_levels_below_one_are_rejected(n, d):
    # the level check comes before the degree-0 shortcut and the membership
    # check, so degree 0 raises as degree 1 does
    q = witt_canonical(parse_form("pf(t1)", parse_field("F3((t1))")))
    for target in TARGETS:
        calls = (
            lambda: eval_f(n, d, q, target),
            lambda: eval_f_all(n, q, target, (d,)),
            lambda: eval_f_sum(n, q, target, {d: 1}),
            lambda: eval_g(n, d, q, target),
        )
        for call in calls:
            with pytest.raises(ValueError, match="the level n must be >= 1"):
                call()


def test_indivisible_character_sum_is_caught(monkeypatch):
    # One more in the row of the trivial character alone: every
    # transformed value is off by one, so the exact 2^g division must fail
    # on the series, on one degree and on the fixed-dimension fold.
    exact = witt.character_series
    monkeypatch.setattr(
        divided,
        "character_series",
        lambda x, degrees, row: exact(x, degrees, lambda chi: [v + (chi == x.dim) for v in row(chi)]),
    )
    for head in ("C", "R", "F3", "F5"):
        x = parse_form("diag(1,t1)", parse_field(head + "((t1))"))
        for target in TARGETS:
            with pytest.raises(ConsistencyError, match="not divisible by 2"):
                sw_coeffs(x, range(4), target)
            with pytest.raises(ConsistencyError, match="not divisible by 2"):
                eval_sw(2, x, target)
            with pytest.raises(ConsistencyError, match="not divisible by 2"):
                eval_fixed_dim(2, x, target)

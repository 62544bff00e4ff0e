"""The character kernel behind ``lambda_series`` and ``eval_pi_coeffs``
against the GW-coefficient series routes it replaced: the group law
prod (1 + <a> t)^c multiplied out over GW, and its composition with
the lifted level-n substitution series.  The oracle below is kept here only
as the reference; every coefficient's terms must agree.  The kernel's own
contract (row lengths, the first indivisible sum it names, the order and
repetition of the degrees) is checked against a per-column oracle that
transforms each read degree alone with the pairwise butterfly."""

from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gwinv import divided, witt
from gwinv.divided import eval_pi_coeffs
from gwinv.fields import parse_field
from gwinv.series import ConsistencyError, build_h
from gwinv.witt import GwElement, lambda_series, parse_form
from butterfly_oracle import _butterfly as pairwise
from group_law_oracle import compose, group_law, gw_ring

# ---------------------------------------------------------------------------
# the GW-coefficient series routes


def oracle_lambda_series(x, precision):
    atoms = ((GwElement(x.field, {m: 1}), c) for m, c in sorted(x.terms.items()))
    return group_law(gw_ring(x.field), atoms, precision)


def oracle_eval_pi_series(n, precision, x):
    lam = oracle_lambda_series(x, precision)
    h_lift = [GwElement(x.field, {0: c}) for c in build_h(n, precision)]
    return compose(gw_ring(x.field), lam, h_lift, precision + 1)


# ---------------------------------------------------------------------------

BIG = 99999999999
PRECISIONS = (0, 1, 2, 6, 10, 16)


def field(head, depth):
    return parse_field(head + "".join(f"((t{i}))" for i in range(1, depth + 1)))


@st.composite
def forms(draw):
    F = field(draw(st.sampled_from(("C", "R", "F3", "F5"))), draw(st.integers(0, 4)))
    masks = st.integers(0, (1 << F.num_gens) - 1)
    counts = st.integers(-4, 4) | st.sampled_from((BIG, -BIG))
    return GwElement(F, draw(st.dictionaries(masks, counts, max_size=3)))


def terms(series):
    return [c.terms for c in series]


def dict_terms(coeffs, precision):
    assert list(coeffs) == list(range(precision + 1))
    return [c.terms for c in coeffs.values()]


def full_lambda(x, precision):
    return dict_terms(lambda_series(x, range(precision + 1)), precision)


def assert_matches(x, n, precision):
    assert full_lambda(x, precision) == terms(oracle_lambda_series(x, precision))
    got = eval_pi_coeffs(n, range(precision + 1), x)
    assert dict_terms(got, precision) == terms(oracle_eval_pi_series(n, precision, x))


@given(forms(), st.integers(1, 3), st.sampled_from(PRECISIONS))
@example(parse_form(f"{BIG}*pf(t1)", field("R", 1)), 2, 16)
@example(parse_form(f"H - {BIG}*diag(t1)", field("F3", 1)), 3, 10)
@example(parse_form("pf(-1,t1) - 3*diag(1,t1)", field("F5", 2)), 1, 6)
@example(GwElement.zero(field("C", 4)), 3, 16)
@settings(max_examples=150, derandomize=True, database=None, deadline=None)
def test_kernel_matches_group_law_route(x, n, precision):
    assert_matches(x, n, precision)


def test_off_by_one_character_sum_is_caught(monkeypatch):
    exact = witt._plus_minus_series
    monkeypatch.setattr(
        witt, "_plus_minus_series", lambda chi, dim, precision: exact(chi + 1, dim, precision)
    )
    caught = 0
    for head in ("C", "R", "F3", "F5"):
        x = parse_form("pf(t1) + diag(t1)", field(head, 1))
        try:
            got = full_lambda(x, 6)
        except ConsistencyError:
            caught += 1
        else:
            assert got != terms(oracle_lambda_series(x, 6))
    assert caught


def test_indivisible_character_sum_is_caught_on_degree_subsets(monkeypatch):
    # One more from degree 5 on in the row of the trivial character alone:
    # the rows stay integral, so the recurrence check passes, but every
    # transformed value at those degrees is off by one and the exact 2^g
    # division must fail there, on the full series and on any degree set
    # that reads them, also behind a clean first degree.  The divided
    # powers get the same tamper in their binomial row, whose trivial
    # character chi = dim x has 2p = 2 dim x; that row's degree-5 change
    # reaches the divided power at degree 5 times the constant 1 of
    # (1 - h_n)^(dim x).
    exact = witt._plus_minus_series
    monkeypatch.setattr(
        witt,
        "_plus_minus_series",
        lambda chi, dim, precision: [
            c + (k >= 5 and chi == dim) for k, c in enumerate(exact(chi, dim, precision))
        ],
    )
    exact_row = divided._binomial_row
    for head in ("C", "R", "F3", "F5"):
        x = parse_form("pf(t1) + diag(t1)", field(head, 1))
        monkeypatch.setattr(
            divided,
            "_binomial_row",
            lambda n, two_p, top: [
                c + (k >= 5 and two_p == 2 * x.dim) for k, c in enumerate(exact_row(n, two_p, top))
            ],
        )
        lambda_series(x, (1, 4))
        for degrees in (range(7), (5,), (6,), (1, 5)):
            with pytest.raises(ConsistencyError, match="not divisible by 2"):
                lambda_series(x, degrees)
        for degrees in (range(6), (5,), (1, 5)):
            with pytest.raises(ConsistencyError, match="not divisible by 2"):
                eval_pi_coeffs(2, degrees, x)


# ---------------------------------------------------------------------------
# the kernel's contract, against a per-column oracle


def oracle_kernel(x, degrees, row):
    """``character_series`` by its definition, one read degree at a time:
    each character's value on x from the character sum, its row, and the
    column of each degree, in the caller's order, transformed alone; the
    first indivisible sum of the first indivisible column is raised."""
    g = x.field.num_gens
    chis = [sum(-c if (s & m).bit_count() & 1 else c for m, c in x.terms.items()) for s in range(1 << g)]
    rows = [row(chi) for chi in chis]
    out = {}
    for j, d in enumerate(degrees):
        column = [r[j] for r in rows]
        pairwise(column, lambda a, b: (a + b, a - b))
        odd = [v for v in column if v % (1 << g)]
        if odd:
            raise ConsistencyError(f"character sum {odd[0]} at degree {d} is not divisible by 2^{g}")
        out[d] = GwElement(x.field, {m: v >> g for m, v in enumerate(column) if v})
    return out


def outcome(kernel, x, degrees, row):
    """The terms of every returned coefficient, or the error text."""
    try:
        return {d: c.terms for d, c in kernel(x, degrees, row).items()}
    except ConsistencyError as e:
        return str(e)


def lambda_row(x, degrees, bump=lambda chi, d: 0):
    """The exterior-power row of x at ``degrees``, plus bump(chi, d)."""
    top = max(degrees, default=0)
    return lambda chi: [witt._plus_minus_series(chi, x.dim, top)[d] + bump(chi, d) for d in degrees]


CONTRACT_FORMS = [
    ("C", 1, "diag(t1)"),
    ("R", 1, "pf(t1) + diag(t1)"),
    ("F3", 2, "pf(u, t2) - diag(t1)"),
    ("F5", 2, "3*diag(u) + pf(t1)"),
    ("R", 3, "pf(-1, t3) + 2*diag(t1, t2)"),
]


@pytest.mark.parametrize("head, depth, text", CONTRACT_FORMS)
def test_rows_of_the_wrong_length_raise(head, depth, text):
    x = parse_form(text, field(head, depth))
    dim = x.dim
    for degrees in ((), (0,), (2, 0, 5)):
        n = len(degrees)
        # all rows short, all long, and the trivial character's row alone
        # (chi = dim x) one longer or one shorter than the others
        lengths = [lambda chi: n + 1, lambda chi: n + (chi == dim)]
        if n:
            lengths += [lambda chi: n - 1, lambda chi: n - (chi == dim)]
        for length in lengths:
            with pytest.raises(ValueError):
                witt.character_series(x, degrees, lambda chi: [0] * length(chi))


@pytest.mark.parametrize("head, depth, text", CONTRACT_FORMS)
def test_first_indivisible_sum_is_named_as_before(head, depth, text):
    # one more in the trivial character's row at the bumped degrees only:
    # the first indivisible column in the caller's order is named, with
    # its first indivisible sum, also behind clean degrees and in
    # descending, permuted and repeated degree sequences
    x = parse_form(text, field(head, depth))
    dim = x.dim
    orders = [range(8), range(7, -1, -1), (3, 6, 1, 5, 0), (2, 5, 2, 7, 5), (6,), (1, 2)]
    caught = 0
    for bumped in ({5}, {4, 7}, {6, 2}):
        bump = lambda chi, d: d in bumped and chi == dim
        for degrees in orders:
            row = lambda_row(x, degrees, bump)
            want = outcome(oracle_kernel, x, degrees, row)
            assert outcome(witt.character_series, x, degrees, row) == want
            caught += isinstance(want, str)
    assert caught == 13


@pytest.mark.parametrize("head, depth", [("C", 0), ("C", 1), ("R", 1), ("R", 2)])
def test_no_degrees_give_no_coefficients(head, depth):
    F = field(head, depth)
    for text in ("H", "diag(1)", "2*pf(-1)"):
        x = parse_form(text, F)
        assert witt.character_series(x, (), lambda chi: []) == {}
        assert lambda_series(x, ()) == {}
        assert eval_pi_coeffs(2, (), x) == {}
    assert witt.character_series(GwElement.zero(F), (), lambda chi: []) == {}


@pytest.mark.parametrize("head, depth, text", CONTRACT_FORMS)
def test_degree_order_and_repetition_do_not_change_a_coefficient(head, depth, text):
    x = parse_form(text, field(head, depth))
    lift = witt.hat_lift(witt.witt_canonical(x - GwElement(x.field, {0: x.dim})))
    ascending = range(10)
    want_lambda = {d: c.terms for d, c in lambda_series(x, ascending).items()}
    want_pi = {d: c.terms for d, c in eval_pi_coeffs(2, ascending, lift).items()}
    rng = Random(depth)
    orders = [range(9, -1, -1), (3, 3, 3), (9, 0, 9, 4, 0)]
    for _ in range(6):
        orders.append(rng.choices(ascending, k=rng.randint(1, 14)))
    for degrees in orders:
        got = lambda_series(x, degrees)
        assert set(got) == set(degrees)
        assert all(got[d].terms == want_lambda[d] for d in degrees)
        assert outcome(witt.character_series, x, degrees, lambda_row(x, degrees)) == {
            d: c.terms for d, c in oracle_kernel(x, degrees, lambda_row(x, degrees)).items()
        }
        got = eval_pi_coeffs(2, degrees, lift)
        assert set(got) == set(degrees)
        assert all(got[d].terms == want_pi[d] for d in degrees)

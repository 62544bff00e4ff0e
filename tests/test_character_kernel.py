"""The character kernel behind ``lambda_series`` and ``eval_pi_series``
against the GW-coefficient series routes it replaced: the group law
prod (1 + <a> t)^c multiplied out over ``GwRing``, and its composition with
the lifted level-n substitution series.  The oracle below is kept here only
as the reference; every coefficient's terms must agree."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from gwinv import witt
from gwinv.divided import eval_pi_series
from gwinv.fields import parse_field
from gwinv.series import ConsistencyError, TruncSeries, build_h, group_law
from gwinv.witt import GwElement, GwRing, lambda_series, parse_form

# ---------------------------------------------------------------------------
# the GW-coefficient series routes


def oracle_lambda_series(x, precision):
    atoms = ((GwElement(x.field, {m: 1}), c) for m, c in sorted(x.terms.items()))
    return group_law(GwRing(x.field), atoms, precision)


def oracle_eval_pi_series(n, precision, x):
    ring = GwRing(x.field)
    if precision == 0:
        return TruncSeries.one(ring, 0)
    lam = oracle_lambda_series(x, precision)
    h = build_h(n, precision)
    h_lift = TruncSeries(ring, [ring.from_int(c) for c in h.coeffs])
    return lam.compose(h_lift)


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
    return [c.terms for c in series.coeffs]


def assert_matches(x, n, precision):
    assert terms(lambda_series(x, precision)) == terms(oracle_lambda_series(x, precision))
    got = eval_pi_series(n, precision, x)
    assert got.ring == GwRing(x.field) and got.precision == precision
    assert terms(got) == terms(oracle_eval_pi_series(n, precision, x))


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
            got = terms(lambda_series(x, 6))
        except ConsistencyError:
            caught += 1
        else:
            assert got != terms(oracle_lambda_series(x, 6))
    assert caught

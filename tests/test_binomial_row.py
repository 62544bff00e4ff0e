"""The binomial route of the level-n divided powers against the power table
of h_n (``power_table_oracle``), on sparse degree sets up to the
``MAX_TOTAL_DEGREE`` edge, and the exact checks of its two recurrences:
the row (1 + 2^n t)^(2p/2^n) of each character value and the power
(1 - h_n)^(dim x) that every row of a form of nonzero dimension is
multiplied by."""

from fractions import Fraction
from random import Random

import pytest

from gwinv import divided
from gwinv.divided import eval_pi_coeffs
from gwinv.fields import parse_field
from gwinv.invariants import MAX_TOTAL_DEGREE
from gwinv.sampling import rand_diag, rand_gw, rand_in_In
from gwinv.series import ConsistencyError, ext_binom
from gwinv.witt import GwElement, hat_lift, parse_form, witt_canonical
from group_law_oracle import INT_RING, mul, series_pow
from power_table_oracle import table_pi_coeffs

BIG = 99999999999


def terms(coeffs):
    return {d: c.terms for d, c in coeffs.items()}


def deep_forms(rng, F):
    """A dimension-0 lift and its BIG multiple, odd and negative
    dimensions, and a BIG multiple of a form of nonzero dimension."""
    lift = hat_lift(rand_in_In(rng, F, rng.randint(1, 3), max_terms=3))
    odd = rand_diag(rng, F, rng.choice((1, 3)))
    return [lift, lift.scale(BIG), odd, odd.scale(-3), rand_gw(rng, F, 4).scale(-1), rand_gw(rng, F, 3).scale(BIG)]


@pytest.mark.parametrize("n", range(1, 7))
def test_binomial_route_matches_power_table_to_the_degree_cap(n):
    rng = Random(n)
    top = MAX_TOTAL_DEGREE // n
    for text in ("F3((t1))((t2))", "R((t1))", "C((t1))((t2))((t3))", "F5((t1))"):
        F = parse_field(text)
        for x in [GwElement.zero(F), *deep_forms(rng, F)]:
            for degrees in ((1, top), (top,), (0, 2, top // 2)):
                assert terms(eval_pi_coeffs(n, degrees, x)) == terms(table_pi_coeffs(n, degrees, x))


@pytest.mark.parametrize("n", range(1, 7))
def test_binomial_row_is_the_binomial_series(n):
    # where 2^n divides 2p the row is (1 + 2^n t)^(2p/2^n) with an
    # integer exponent, whose coefficients are binomials
    for e in range(-5, 6):
        row = divided._binomial_row(n, e << n, 12)
        assert row == [ext_binom(e, k) << n * k for k in range(13)]


@pytest.mark.parametrize("a", (0, 1, 2, 5, -1, -3))
def test_power_recurrence_matches_repeated_products(a):
    f = [1, -1, 3, 0, -2, 7, 1, -4]
    got, n = divided._power(f, a), len(f)
    want = series_pow(INT_RING, f, abs(a), n)
    if a >= 0:
        # the oracle's polynomial may stop short of degree n - 1
        assert got == want + [0] * (n - len(want))
    else:
        assert mul(INT_RING, got, want, n) == [1] + [0] * (n - 1)


def test_power_recurrence_checks_its_exact_division():
    # Miller's recurrence for (1 + t)^(1/2) gives 1 * g_1 = 1/2, not an integer
    with pytest.raises(ConsistencyError, match="series power is not integral at degree 1"):
        divided._power([1, 1], Fraction(1, 2))


def tamper_cases():
    """Forms of dimension 0, odd and negative dimension, with the degree
    sets each is read at."""
    F = parse_field("F3((t1))((t2))")
    lift = hat_lift(witt_canonical(parse_form("pf(t1,t2) - pf(u)", F)))
    for x in (lift, parse_form("diag(1,t1,u*t2)", F), parse_form("pf(t1) - 3*diag(t2)", F)):
        for n in (1, 2, 3):
            for degrees in ((1, 2), (3,), range(7), (2, 40)):
                yield n, degrees, x


def caught(n, degrees, x):
    try:
        got = eval_pi_coeffs(n, degrees, x)
    except ConsistencyError:
        return True
    return terms(got) != terms(table_pi_coeffs(n, degrees, x))


def test_odd_binomial_row_is_caught_by_its_exact_division(monkeypatch):
    # 2p + 1 is odd, so 2 b_2 = (2p + 1 - 2^n)(2p + 1) is odd and the row's
    # own check must fail at degree 2, on every form and every level
    exact = divided._binomial_row
    monkeypatch.setattr(divided, "_binomial_row", lambda n, two_p, top: exact(n, two_p + 1, top))
    for n, degrees, x in tamper_cases():
        with pytest.raises(ConsistencyError, match="binomial row is not integral at degree 2"):
            eval_pi_coeffs(n, degrees, x)


@pytest.mark.parametrize(
    "tamper",
    [
        lambda exact: lambda n, two_p, top: exact(n, two_p + 2, top),
        lambda exact: lambda n, two_p, top: exact(n + 1, two_p, top),
        lambda exact: lambda n, two_p, top: [1, *exact(n, two_p, top)[:-1]],
    ],
    ids=["p+1", "level+1", "degree+1"],
)
def test_off_by_one_binomial_row_is_caught(monkeypatch, tamper):
    monkeypatch.setattr(divided, "_binomial_row", tamper(divided._binomial_row))
    assert all(caught(*case) for case in tamper_cases())


@pytest.mark.parametrize(
    "tamper",
    [
        lambda exact: lambda f, a: exact(f, a + 1),
        lambda exact: lambda f, a: exact([1, f[1] + 1, *f[2:]], a),
        lambda exact: lambda f, a: [1, *exact(f, a)[:-1]],
    ],
    ids=["exponent+1", "series+1", "degree+1"],
)
def test_off_by_one_power_recurrence_is_caught(monkeypatch, tamper):
    # dimension-0 forms never read the power; every other case must see it
    monkeypatch.setattr(divided, "_power", tamper(divided._power))
    cases = [case for case in tamper_cases() if case[2].dim]
    assert cases and all(caught(*case) for case in cases)

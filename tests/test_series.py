"""Series kernel: exact truncated arithmetic, the level series, the
substitution series, and the integer combinatorics helpers."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwinv import series
from gwinv.series import (
    ConsistencyError,
    build_h,
    build_x,
    catalan,
    cauchy,
    compose,
    even_odd_split,
    ext_binom,
    multinomial_C,
)
from group_law_oracle import INT_RING, SeriesInversionError, mul_inverse
from level_chain_oracle import _inverse_chain, _level_chain


def convolve(a, b):
    """Independent Cauchy-product oracle."""
    n = min(len(a), len(b))
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(n)]


def power_sum(f, g):
    """Independent composition oracle: sum_k f_k g^k, the powers of g by
    ``convolve``, truncated to the shorter length."""
    n = min(len(f), len(g))
    out, power = [0] * n, [1] + [0] * (n - 1)
    for k in range(n):
        out = [o + f[k] * p for o, p in zip(out, power)]
        power = convolve(power, g)
    return out


def identity(precision):
    return [0, 1] + [0] * (precision - 1)


def bump(coeffs, d=3):
    """The series with its degree-d coefficient off by one."""
    return [*coeffs[:d], coeffs[d] + 1, *coeffs[d + 1 :]]


class TestMul:
    def test_difference_of_squares(self):
        a, b = [1, 1, 0, 0, 0], [1, -1, 0, 0, 0]
        assert cauchy(a, b) == convolve(a, b) == [1, 0, -1, 0, 0]

    def test_geometric_squared(self):
        # oracle: convolution of the all-ones sequence, frozen
        ones = [0, 1, 1, 1, 1, 1]
        assert convolve(ones, ones) == [0, 0, 1, 2, 3, 4]
        assert cauchy(ones, ones) == [0, 0, 1, 2, 3, 4]

    @pytest.mark.parametrize(
        "a",
        [[], [5], [-3, 2], [1, 2, 3, 4, 5], [2, -1, 0, 7, -4, 9], [0, 1, 1, 1, 1, 1],
         [-(10**30), 3, -(7**40), 0, 11, -(2**90), 5]],
        ids=["len0", "len1", "len2", "odd", "even", "a0_zero", "large_negative"],
    )
    def test_square_matches_oracle(self, a):
        # cauchy(a, a) takes each unordered pair once; a_0 may be nonzero
        assert cauchy(a, a) == convolve(a, a) == cauchy(a, list(a))

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(st.lists(st.integers(min_value=-(10**12), max_value=10**12), max_size=12))
    def test_square_matches_oracle_on_random_series(self, a):
        assert cauchy(a, a) == convolve(a, a)

    def test_one_is_identity(self):
        s = [3, -1, 4, 1, -5]
        assert cauchy(s, [1, 0, 0, 0, 0]) == s

    def test_inverse_needs_unit_constant(self):
        assert mul_inverse(INT_RING, [1, 1, 0, 0], 4) == [1, -1, 1, -1]
        for const in (0, 2, -1):
            with pytest.raises(SeriesInversionError):
                mul_inverse(INT_RING, [const, 1, 1], 3)

    def test_min_precision(self):
        assert cauchy([1, 1, 1], [1, 1]) == [1, 2]


class TestCompose:
    def test_identity_inner(self):
        f = [1, 2, 3, 4]
        assert compose(f, identity(3)) == f

    def test_geometric_composed(self):
        # p_1 o x_1 = x_1 + x_1^2 = t/(1-t)^2; closed-form oracle: coeff d is d
        p1 = [0, 1, 1, 0, 0]
        x1 = [0, 1, 1, 1, 1]
        assert compose(p1, x1) == power_sum(p1, x1) == [0, 1, 2, 3, 4]

    def test_x1_of_h1_is_t(self):
        assert compose(build_x(1, 6), build_h(1, 6)) == [0, 1, 0, 0, 0, 0, 0]

    def test_min_precision(self):
        # 1 + 2 (t + t^2) + 3 (t + t^2)^2 = 1 + 2 t + 5 t^2 + ...
        f, g = [1, 2, 3, 4, 5], [0, 1, 1]
        assert compose(f, g) == power_sum(f, g) == [1, 2, 5]

    def test_nonzero_constant_rejected(self):
        with pytest.raises(ValueError, match="zero constant coefficient"):
            compose([1, 1], [1, 1])

    @pytest.mark.parametrize("f, g", [([], [0, 1]), ([1, 2], []), ([], [])])
    def test_empty_operand(self, f, g):
        # truncated to the shorter length, as ``cauchy`` is
        assert compose(f, g) == cauchy(f, g) == []


def brute_comp_inverse(coeffs, prec):
    """Independent oracle: solve f(g(t)) = t degree by degree over Q."""
    f = [Fraction(c) for c in coeffs]
    g = [Fraction(0), 1 / f[1]]
    for d in range(2, prec + 1):
        g.append(Fraction(0))
        # expand f(g) up to degree d by exact polynomial powers
        comp = [Fraction(0)] * (d + 1)
        power = [Fraction(1)] + [Fraction(0)] * d  # g^0
        for k, fk in enumerate(f[: d + 1]):
            if k > 0:
                power = convolve(power + [Fraction(0)], g + [Fraction(0)] * d)[: d + 1]
            for j, pj in enumerate(power):
                comp[j] += fk * pj
        g[d] = -comp[d] / f[1]
    return g


def catalan_chain_h(n, prec):
    """Independent oracle for h_n: the closed-form inverses composed by
    Horner.  h_1 = t/(1+t) inverts x_1, and p_k(t) = t + 2^(k-1) t^2
    inverts to t C(-2^(k-1) t), so h_(k+1) = h_k o t C(-2^(k-1) t); the
    round trip with x_n is checked by two more Horner compositions."""
    if prec == 0:
        return [0]
    h = [0] + [(-1) ** (d - 1) for d in range(1, prec + 1)]
    cat = catalan(prec)
    for k in range(1, n):
        s = -(2 ** (k - 1))
        h = compose(h, [0] + [c * s**d for d, c in enumerate(cat[:prec])])
    x, t = build_x(n, prec), identity(prec)
    assert compose(x, h) == t and compose(h, x) == t
    assert all(isinstance(c, int) for c in h)
    return h


class TestLevelSeries:
    def test_level_one_is_geometric(self):
        assert build_x(1, 4) == [0, 1, 1, 1, 1]

    def test_level_two_closed_form(self):
        # oracle: t/(1-t)^2 has coefficient d in degree d
        assert build_x(2, 4) == [0, 1, 2, 3, 4]

    def test_level_three_by_hand(self):
        # recursion by hand: x_3 = x_2 + 2 x_2^2 with x_2 = [0,1,2,3]
        x2 = [0, 1, 2, 3]
        sq = convolve(x2, x2)
        want = [a + 2 * b for a, b in zip(x2, sq)]
        assert want == [0, 1, 4, 11]
        assert build_x(3, 3) == want

    def test_level_zero_rejected(self):
        with pytest.raises(ValueError):
            build_x(0, 3)
        with pytest.raises(ValueError):
            build_h(0, 0)

    @pytest.mark.parametrize("build", [build_x, build_h])
    @pytest.mark.parametrize("prec", [-1, -2])
    def test_negative_precision_rejected(self, build, prec):
        with pytest.raises(ValueError, match="series precision must be >= 0"):
            build(2, prec)


class TestSubstitutionSeries:
    def test_level_one(self):
        assert build_h(1, 4) == [0, 1, -1, 1, -1]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_rational_oracle(self, n):
        for prec in range(1, 11):
            oracle = brute_comp_inverse(build_x(n, prec), prec)
            assert all(f.denominator == 1 for f in oracle)
            assert build_h(n, prec) == [int(f) for f in oracle]

    def test_level_two_is_signed_catalan(self):
        assert build_h(2, 4) == [0, 1, -2, 5, -14]

    def test_precision_zero(self):
        assert build_h(3, 0) == [0]

    @pytest.fixture
    def cold_caches(self):
        caches = series._x_coeffs, series._h_coeffs
        for cache in caches:
            cache.cache_clear()
        yield
        for cache in caches:
            cache.cache_clear()

    # the function to wrap, how to wrap it, and the check that must catch it
    TAMPERS = {
        "off_by_one": ("_h_series", lambda h: lambda n, p: bump(h(n, p)), "x_n o h_n"),
        "not_int": ("_h_series", lambda h: lambda n, p: [Fraction(c) for c in h(n, p)], "non-integer"),
        "x_off_by_one": ("_x_coeffs", lambda x: lambda n, p: bump(x(n, p)), "binomial expansion"),
        "binomial_off_by_one": ("_binomial_x", lambda f: lambda n, p: bump(f(n, p)), "binomial expansion"),
        "x_not_exact": ("_plus_minus_series", lambda f: lambda *args: bump(f(*args)), r"x_3 is not divisible by 2\^3"),
        "lower_level": ("_h_series", lambda h: lambda n, p: h(n - 1, p), "x_n o h_n"),
        "h0_nonzero": ("_h_series", lambda h: lambda n, p: [1] + [0] * p, "x_n o h_n has a nonzero constant term"),
        "x_lower_level": ("_x_coeffs", lambda x: lambda n, p: x(n - 1, p), "binomial expansion"),
        "riccati_not_int": ("_square", lambda f: lambda h, d: f(h, d) + 1, "Riccati recurrence"),
    }

    @pytest.mark.parametrize("tamper", TAMPERS)
    def test_checks_guard_the_chain(self, monkeypatch, cold_caches, tamper):
        # each builder is checked by a route that shares no step with it: a
        # wrong coefficient of h, or h_(n-1), which is integral and solves
        # its own Riccati equation, breaks x_n o h_n; one of x, x_(n-1) or
        # the binomial expansion breaks x's anchor; exact values of the
        # wrong type pass both and must be caught by the integer check;
        # h = 1 solves every Riccati equation and must be caught by its
        # constant term; x's division by 2^n and each Riccati step's
        # division by d + 1 must be exact
        name, wrap, message = self.TAMPERS[tamper]
        monkeypatch.setattr(series, name, wrap(getattr(series, name)))
        with pytest.raises(ConsistencyError, match=message):
            build_h(3, 6)

    @pytest.mark.parametrize("n", [1, 2, 5])
    @pytest.mark.parametrize("prec", [1, 2, 9])
    def test_every_degree_is_checked(self, monkeypatch, cold_caches, n, prec):
        # a wrong coefficient of h at any degree 1..P, the top one included,
        # breaks x_n o h_n
        h_series = series._h_series
        for d in range(1, prec + 1):
            monkeypatch.setattr(series, "_h_series", lambda n, p, d=d: bump(h_series(n, p), d))
            with pytest.raises(ConsistencyError, match="x_n o h_n"):
                build_h(n, prec)

    @pytest.mark.parametrize("n", [1, 2, 5])
    @pytest.mark.parametrize("prec", [1, 2, 9])
    def test_every_degree_of_the_anchor_is_checked(self, monkeypatch, cold_caches, n, prec):
        # a wrong value of the binomial expansion at any degree 1..P, the
        # top one included, breaks x's anchor
        binomial_x = series._binomial_x
        for d in range(1, prec + 1):
            monkeypatch.setattr(series, "_binomial_x", lambda n, p, d=d: bump(binomial_x(n, p), d))
            with pytest.raises(ConsistencyError, match="binomial expansion"):
                build_h(n, prec)

    @pytest.mark.parametrize(
        "n, prec", [(n, prec) for n in range(1, 9) for prec in (0, 1, 2, 31, 64)] + [(2, 511), (3, 340)]
    )
    def test_recurrences_match_the_chains(self, n, prec):
        # the recurrences against x's recursion and its step-by-step
        # inversion, both run on t
        t = identity(prec)[: prec + 1]
        assert build_x(n, prec) == _level_chain(t, n)
        assert build_h(n, prec) == _inverse_chain(t, n)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_catalan_chain(self, n):
        # the chain's coefficients up to degree P do not depend on its
        # truncation order, so one oracle build covers every P
        oracle = catalan_chain_h(n, 40)
        for prec in range(41):
            assert build_h(n, prec) == oracle[: prec + 1]

    @pytest.mark.parametrize("n, prec", [(1, 128), (3, 96), (6, 64)])
    def test_matches_catalan_chain_high_precision(self, n, prec):
        assert build_h(n, prec) == catalan_chain_h(n, prec)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_round_trip_high_precision(self, n):
        D = 32
        t = identity(D)
        x, h = build_x(n, D), build_h(n, D)
        assert compose(x, h) == power_sum(x, h) == t
        assert compose(h, x) == power_sum(h, x) == t
        assert all(isinstance(c, int) for c in h)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_binomial_identity(self, n):
        # x's recursion is (1 + 2^k x_k)^2 = 1 + 2^(k+1) x_(k+1), so
        # ((1 + h_n)/(1 - h_n))^(2^(n-1)) = 1 + 2^n t: the identity behind
        # a two-term recurrence for the character rows of a divided power
        D = 64
        h = build_h(n, D)
        plus, minus = [1, *h[1:]], [1, *(-c for c in h[1:])]
        for _ in range(n - 1):
            plus, minus = cauchy(plus, plus), cauchy(minus, minus)
        assert plus == cauchy([1, 1 << n] + [0] * (D - 1), minus)


class TestEvenOddSplit:
    def test_level_one_parts(self):
        a, b = even_odd_split(build_x(1, 6))
        # t^2/(1-t^2) and t/(1-t^2)
        assert a == [0, 0, 1, 0, 1, 0, 1]
        assert b == [0, 1, 0, 1, 0, 1, 0]

    def test_pure_odd(self):
        a, b = even_odd_split(identity(3))
        assert a == [0, 0, 0, 0]
        assert b == [0, 1, 0, 0]

    def test_parts_sum_back(self):
        s = [5, -3, 7, 2, -8]
        a, b = even_odd_split(s)
        assert [x + y for x, y in zip(a, b)] == s

    @pytest.mark.parametrize("n", range(1, 6))
    def test_even_odd_recursion(self, n):
        D = 32
        a_n, b_n = even_odd_split(build_x(n, D))
        a_next, b_next = even_odd_split(build_x(n + 1, D))
        s = 2**n
        assert a_next == [s * c for c in convolve(b_n, b_n)]
        assert a_next == [2 * a + s * c for a, c in zip(a_n, convolve(a_n, a_n))]
        assert b_next == [b + s * c for b, c in zip(b_n, convolve(a_n, b_n))]


class TestCatalan:
    def test_recurrence_values(self):
        # oracle: the stated convolution recurrence, computed independently
        want = [1]
        for m in range(4):
            want.append(sum(want[i] * want[m - i] for i in range(m + 1)))
        assert want == [1, 1, 2, 5, 14]
        assert catalan(4) == want

    def test_alternating_substitution(self):
        c = catalan(4)
        tc = [0] + [c[d] * (-1) ** d for d in range(4)]
        assert tc == [0, 1, -1, 2, -5]

    @pytest.mark.parametrize("n", range(1, 6))
    def test_inverts_quadratic_shift(self, n):
        D = 32
        c = catalan(D)
        tc = [0] + [c[d] * (-(2 ** (n - 1))) ** d for d in range(D)]
        p_n = [0, 1, 2 ** (n - 1)] + [0] * (D - 2)
        assert compose(p_n, tc) == identity(D)


class TestExtBinom:
    def test_classical(self):
        assert ext_binom(5, 2) == 10

    def test_negative_lower(self):
        assert ext_binom(3, -1) == 0

    def test_negative_upper(self):
        # oracle: Pascal recursion from row 0 gives (-1)^b on the diagonal
        assert ext_binom(-1, 3) == -1
        assert ext_binom(-2, 3) == -4

    def test_matches_comb_on_naturals(self):
        for a in range(8):
            for b in range(8):
                want = math.comb(a, b) if b <= a else 0
                assert ext_binom(a, b) == want

    @given(st.integers(-20, 20), st.integers(-20, 20))
    @settings(max_examples=300, deadline=None)
    def test_pascal_identity(self, a, b):
        assert ext_binom(a, b) == ext_binom(a - 1, b) + ext_binom(a - 1, b - 1)


class TestMultinomial:
    def test_small_values(self):
        assert multinomial_C(2, 1, 1) == 2
        assert multinomial_C(3, 2, 1) == 3

    def test_empty_choice(self):
        for d in range(6):
            assert multinomial_C(d, 0, 0) == 1

    def test_factorial_oracle(self):
        for d in range(8):
            for p in range(d + 1):
                for q in range(d - p + 1):
                    want = math.factorial(d) // (
                        math.factorial(p) * math.factorial(q) * math.factorial(d - p - q)
                    )
                    assert multinomial_C(d, p, q) == want

    def test_domain_error(self):
        with pytest.raises(ValueError):
            multinomial_C(2, 2, 1)


@given(
    st.lists(st.integers(-9, 9), min_size=4, max_size=4),
    st.lists(st.integers(-9, 9), min_size=4, max_size=4),
    st.lists(st.integers(-9, 9), min_size=4, max_size=4),
)
@settings(max_examples=200, deadline=None)
def test_ring_axioms(a, b, c):
    def add(x, y):
        return [u + v for u, v in zip(x, y)]

    assert cauchy(a, b) == convolve(a, b) == cauchy(b, a)
    assert cauchy(cauchy(a, b), c) == cauchy(a, cauchy(b, c))
    assert cauchy(a, add(b, c)) == add(cauchy(a, b), cauchy(a, c))
    g = [0, *b[1:]]
    assert compose(a, g) == power_sum(a, g)
    assert compose(cauchy(a, c), g) == cauchy(compose(a, g), compose(c, g))

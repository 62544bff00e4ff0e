"""The symbolic operators, each applied as one term table, against the
hand-written accumulation loops they replaced.  The loops are kept here
only as the reference.

The loops act on a coefficient dict in either basis, so the g-basis
formulas the library no longer stores (the shift recursion of the
g-family among them) stay checked: an operator's output is read back in
the basis of the loop's output, through ``g_coeffs`` for the g-basis."""

from typing import NamedTuple

from hypothesis import given, settings
from hypothesis import strategies as st

from gwinv.invariants import (
    F2Poly,
    SymbolicInvariant,
    coeff_ops,
    f_transition_terms,
    from_g,
    g_coeffs,
    g_transition_terms,
    omega_t,
    phi,
    product,
    psi_tilde,
    psi_tilde_closed_f,
    restrict,
)
from gwinv.series import ext_binom, multinomial_C


class Coeffs(NamedTuple):
    """An invariant as the loops see it: its coefficients in one basis."""

    n: int
    mode: str
    basis: str
    coeffs: dict

    @property
    def ops(self):
        return coeff_ops(self.mode)

    @classmethod
    def nonzero(cls, n, mode, basis, coeffs):
        zero = coeff_ops(mode).zero
        return cls(n, mode, basis, {d: c for d, c in coeffs.items() if c != zero})


def library(x):
    """The library invariant with the coefficients of ``x``."""
    return from_g(x.n, x.mode, x.coeffs) if x.basis == "g" else SymbolicInvariant(x.n, x.mode, x.coeffs)


def oracle_to_basis(alpha, basis):
    if alpha.basis == basis:
        return alpha
    ops = alpha.ops
    terms = g_transition_terms if basis == "f" else f_transition_terms
    out: dict = {}
    for d, coeff in alpha.coeffs.items():
        for c, j, k in terms(alpha.n, d):
            add = coeff * ops.from_int(c) * ops.eps_pow(j)
            out[k] = out.get(k, ops.zero) + add
    return Coeffs.nonzero(alpha.n, alpha.mode, basis, out)


def oracle_phi(alpha, sign):
    ops = alpha.ops
    n = alpha.n
    out: dict = {}

    def acc(d, c):
        if c != ops.zero:
            out[d] = out.get(d, ops.zero) + c

    for d, coeff in alpha.coeffs.items():
        if d == 0:
            continue
        if alpha.basis == "f":
            if sign == 1:
                acc(d - 1, coeff)
            else:
                for k in range(d):
                    c = coeff * ops.eps_pow(n * (d - k - 1))
                    acc(k, c if (d - k - 1) % 2 == 0 else -c)
        else:
            if sign == 1:
                if d % 2 == 0:
                    acc(d - 1, coeff)
                else:
                    acc(d - 1, coeff)
                    if d >= 2:
                        acc(d - 2, coeff * ops.eps_pow(n))
            else:
                if d % 2 == 1:
                    acc(d - 1, coeff)
                else:
                    acc(d - 1, coeff)
                    acc(d - 2, -(coeff * ops.eps_pow(n)))
    return Coeffs.nonzero(alpha.n, alpha.mode, alpha.basis, out)


def oracle_product(alpha, beta):
    a, b = oracle_to_basis(alpha, "f"), oracle_to_basis(beta, "f")
    ops = a.ops
    n = a.n
    out: dict = {}
    for s, cs in a.coeffs.items():
        for t, ct in b.coeffs.items():
            base = cs * ct
            for d in range(max(s, t), s + t + 1):
                c = multinomial_C(d, d - s, d - t)
                add = base * ops.from_int(c) * ops.eps_pow(n * (s + t - d))
                out[d] = out.get(d, ops.zero) + add
    return Coeffs.nonzero(a.n, a.mode, "f", out)


def oracle_psi_tilde(alpha):
    g = oracle_to_basis(alpha, "g")
    ops = g.ops
    delta = 1 if g.mode == "W" else 0
    out: dict = {}
    for d, coeff in g.coeffs.items():
        if d == 0:
            continue
        if d % 2 == 1:
            if delta:
                out[d] = out.get(d, ops.zero) + (-coeff)
        else:
            c = coeff * ops.eps_pow(g.n - 1)
            out[d - 1] = out.get(d - 1, ops.zero) + c
    return Coeffs.nonzero(g.n, g.mode, "g", out)


def oracle_psi_tilde_closed_f(alpha):
    f = oracle_to_basis(alpha, "f")
    ops = f.ops
    n = f.n
    delta = 1 if f.mode == "W" else 0
    out: dict = {}

    def acc(d, c):
        if c != ops.zero:
            out[d] = out.get(d, ops.zero) + c

    for d, coeff in f.coeffs.items():
        if d == 0:
            continue
        for k in range(1, d):
            c = (
                coeff
                * ops.from_int(ext_binom(d - 1, k - 1))
                * ops.eps_pow(n * (d - k) - 1)
            )
            acc(k, c if d % 2 == 0 else -c)
        if d % 2 == 1 and delta:
            acc(d, -coeff)
    return Coeffs.nonzero(f.n, f.mode, "f", out)


def oracle_restrict(alpha):
    f = oracle_to_basis(alpha, "f")
    ops = f.ops
    n = f.n
    out: dict = {}
    for d, coeff in f.coeffs.items():
        if d == 0:
            out[0] = out.get(0, ops.zero) + coeff
            continue
        if f.mode == "W":
            for k in range((d + 1) // 2, d + 1):
                c = ext_binom(k, d - k)
                if c == 0:
                    continue
                add = coeff * ops.from_int(c) * ops.eps_pow((d - k) * (n - 1))
                out[k] = out.get(k, ops.zero) + add
        else:
            if d % 2:
                continue
            m = d // 2
            add = coeff * ops.eps_pow(m * (n - 1))
            out[m] = out.get(m, ops.zero) + add
    return Coeffs.nonzero(n + 1, f.mode, "f", out)


def oracle_omega_t(alpha, t):
    f = oracle_to_basis(alpha, "f")
    if t == 0:
        return f
    ops = f.ops
    out: dict = {}
    for d, coeff in f.coeffs.items():
        if d == 0:
            out[0] = out.get(0, ops.zero) + coeff
        else:
            c = coeff * ops.eps_pow(t * (d - 1))
            out[d] = out.get(d, ops.zero) + c
    return Coeffs.nonzero(f.n - t, f.mode, "f", out)


def same(got, want):
    """The library's ``got`` read in the basis of the loop's ``want``."""
    coeffs = g_coeffs(got) if want.basis == "g" else got.coeffs
    return (got.n, coeffs) == (want.n, want.coeffs)


def invariants(n, mode):
    """Invariants at level n with up to four support degrees in 0..8, in
    either basis; coefficients in -4..4 (W) or F2-polynomials below 16 (H)."""
    coeff = st.integers(-4, 4) if mode == "W" else st.builds(F2Poly, st.integers(0, 15))
    return st.builds(
        Coeffs.nonzero,
        st.just(n),
        st.just(mode),
        st.sampled_from(["f", "g"]),
        st.dictionaries(st.integers(0, 8), coeff, max_size=4),
    )


@st.composite
def invariant_pairs(draw):
    n = draw(st.integers(1, 4))
    mode = draw(st.sampled_from(["W", "H"]))
    return draw(invariants(n, mode)), draw(invariants(n, mode))


@given(invariant_pairs())
@settings(max_examples=150, derandomize=True, database=None, deadline=None)
def test_operators_match_loops(pair):
    x, y = pair
    alpha, beta = library(x), library(y)
    for basis in ("f", "g"):
        assert same(alpha, oracle_to_basis(x, basis))
    for sign in (1, -1):
        assert same(phi(alpha, sign), oracle_phi(x, sign))
    assert same(product(alpha, beta), oracle_product(x, y))
    assert same(psi_tilde(alpha), oracle_psi_tilde(x))
    assert same(psi_tilde_closed_f(alpha), oracle_psi_tilde_closed_f(x))
    assert same(restrict(alpha), oracle_restrict(x))
    for t in range(alpha.n):
        assert same(omega_t(alpha, t), oracle_omega_t(x, t))


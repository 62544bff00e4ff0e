"""Symbolic algebra of invariants of the fundamental-ideal filtration.

An invariant is a finitely supported combination of the f-family
generators f_n^d at a fixed level n, stored as its f-basis coefficients,
in the universal scalar ring generated by eps = {-1}.  A coefficient is an
``int`` in both modes, and eps^j is 1 << j: an integer in Witt mode, where
eps is identified with 2, and in cohomology mode an F2-polynomial in eps
packed into the bits of an int >= 0, bit j the coefficient of eps^j.
``coeff_ops(mode)`` is the one table of a mode's ring on these ints, which
the operators, ``product``, the parser and the rendering compute on.  The
g-family is a second basis, a triangular unipotent change of the first:
``from_g`` builds an invariant from g-basis coefficients and ``g_coeffs``
reads them back.  The rebasing, shifting, similitude, restriction and
descent operators are term tables: for a generator of degree d a table
lists the triples (c, j, k) meaning c * eps^j times the degree-k generator
of the target, and ``_apply`` applies it to a coefficient dict.
``product`` multiplies values on sums of Pfister forms instead
(``to_values``).  ``parse_invariant`` reads a literal onto one dict of
f-coefficients: a term's scalar is its sign times its integer factors
(``from_int``) shifted by its eps exponent, and it adds that scalar times
the ``_expand`` of the term's generators, so only the result is an
object.  ``evaluate`` sends an invariant to a concrete value on a
Witt class, and ``eval_g`` is ``evaluate`` on one g generator.
"""

from __future__ import annotations

import operator
import re
from collections import Counter, namedtuple
from itertools import accumulate

from .divided import TARGETS, InvariantTarget, eval_f_sum
from .fields import parse_int, split_signed_sum
from .series import ConsistencyError, ext_binom
from .witt import MAX_COUNT_DIGITS, WittClass, _check_degree


class InvariantSyntaxError(ValueError):
    """An invariant literal failed to parse."""


def clmul(a: int, b: int) -> int:
    """Carry-less product of packed F2-polynomials, over the set bits of the sparser one."""
    out = 0
    if a.bit_count() > b.bit_count():
        a, b = b, a
    while a:
        low = a & -a
        out ^= b << (low.bit_length() - 1)
        a ^= low
    return out


def _show_h(c: int) -> str:
    """A packed F2[eps] coefficient as text: its eps powers, lowest first."""
    powers = [j for j in range(c.bit_length()) if c >> j & 1]
    return "+".join("1" if j == 0 else "eps" if j == 1 else f"eps^{j}" for j in powers) or "0"


# The universal scalar ring of each mode on its coefficients, ints where
# eps^j is 1 << j: Z with eps = 2 (W), or F2[eps] with bit j the
# coefficient of eps^j (H).  ``from_int`` is the image of an integer and
# ``show`` the text of a coefficient.
_Scalars = namedtuple("_Scalars", "add sub mul from_int show")
_SCALARS = {
    "W": _Scalars(operator.add, operator.sub, operator.mul, int, str),
    "H": _Scalars(operator.xor, operator.xor, clmul, (1).__and__, _show_h),
}


def coeff_ops(mode: str) -> _Scalars:
    """The universal scalar ring of a mode; an unknown mode raises ``ValueError``."""
    try:
        return _SCALARS[mode]
    except (KeyError, TypeError):
        raise ValueError(f"mode must be 'W' or 'H', got {mode!r}") from None


def _check_coeffs(mode: str, values) -> None:
    """Raise ``TypeError`` unless every value is a mode coefficient: an
    ``int``, not a ``bool``, and in mode H also >= 0, as a packed
    polynomial has no sign."""
    if not all(type(c) is int for c in values):
        raise TypeError(f"a mode-{mode} coefficient must be of type int")
    if mode == "H" and not all(c >= 0 for c in values):
        raise TypeError("a mode-H coefficient must be an int >= 0, bit j the coefficient of eps^j")


class SymbolicInvariant:
    """Finitely supported coefficient sequence in the f-basis, with
    coefficients in the mode's scalar ring, ints in both modes (module
    docstring); any other value raises ``TypeError`` (``_check_coeffs``).
    A degree key must be an ``int`` >= 0 (not a ``bool``), or ``ValueError``
    is raised.  The constructor checks; the operator tables' results are
    valid by closure and are built unchecked (``_of``)."""

    __slots__ = ("n", "mode", "coeffs")

    def __init__(self, n: int, mode: str, coeffs: dict | None = None):
        if n < 1:
            raise ValueError("the level n must be >= 1")
        coeff_ops(mode)  # an unknown mode raises first
        coeffs = coeffs or {}
        _check_coeffs(mode, coeffs.values())
        if not all(type(d) is int and d >= 0 for d in coeffs):
            raise ValueError("a degree must be an int >= 0")
        self.n, self.mode = n, mode
        self.coeffs = {d: c for d, c in coeffs.items() if c}

    @classmethod
    def _of(cls, n: int, mode: str, coeffs: dict) -> "SymbolicInvariant":
        """An invariant on zero-free coefficients of the mode's type, unchecked."""
        self = object.__new__(cls)
        self.n, self.mode, self.coeffs = n, mode, coeffs
        return self

    @property
    def ops(self):
        return coeff_ops(self.mode)

    def _check(self, other: "SymbolicInvariant") -> None:
        if (self.n, self.mode) != (other.n, other.mode):
            raise ValueError("invariants at different levels or modes")

    def __add__(self, other: "SymbolicInvariant") -> "SymbolicInvariant":
        self._check(other)
        add, out = self.ops.add, dict(self.coeffs)
        for d, c in other.coeffs.items():
            out[d] = add(out.get(d, 0), c)
        return SymbolicInvariant._of(self.n, self.mode, {d: c for d, c in out.items() if c})

    def __sub__(self, other: "SymbolicInvariant") -> "SymbolicInvariant":
        return self + (-other)

    def __neg__(self) -> "SymbolicInvariant":
        sub = self.ops.sub
        return SymbolicInvariant._of(self.n, self.mode, {d: sub(0, c) for d, c in self.coeffs.items()})

    def scale(self, c: int) -> "SymbolicInvariant":
        _check_coeffs(self.mode, (c,))
        mul = self.ops.mul
        coeffs = {d: mul(c, v) for d, v in self.coeffs.items()} if c else {}
        return SymbolicInvariant._of(self.n, self.mode, coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymbolicInvariant):
            return NotImplemented
        return (self.n, self.mode, self.coeffs) == (other.n, other.mode, other.coeffs)

    __hash__ = None

    def __str__(self) -> str:
        show = self.ops.show
        parts = [(f"f[{self.n},{d}]", show(self.coeffs[d])) for d in sorted(self.coeffs)]
        return " + ".join(gen if c == "1" else f"({c})*{gen}" for gen, c in parts) or "0"

    def __repr__(self) -> str:
        return f"SymbolicInvariant(n={self.n}, mode={self.mode!r}, coeffs={self.coeffs!r})"


def f_transition_terms(n: int, d: int) -> list[tuple[int, int, int]]:
    """The f-to-g rebasing of one f generator, as triples
    (integer coefficient, eps exponent, g degree)."""
    if d == 0:
        return [(1, 0, 0)]
    if d == 1:
        # f^1 and g^1 are both the fundamental invariant; the closed-form
        # coefficient for this cell is binom(-1, -1), which the Pascal
        # extension sends to 0, so the cell is pinned by hand.
        return [(1, 0, 1)]
    # k = 1 reads binom(., -1) = 0, and from k = 2 on every binomial is nonzero
    return [
        ((-1) ** (d - k) * ext_binom(d - (k + 1) // 2 - 1, k // 2 - 1), n * (d - k), k)
        for k in range(2, d + 1)
    ]


def g_transition_terms(n: int, d: int) -> list[tuple[int, int, int]]:
    """The g-to-f rebasing of one g generator, as triples (integer
    coefficient, eps exponent, f degree): with t = (d - 1) // 2, g^d takes
    the value C(m + t, d) eps^(nd) on m n-fold Pfister forms, so by
    Vandermonde's identity its f^k coefficient is C(t, d - k) eps^(n(d - k)),
    nonzero for d - t <= k <= d (k = 0 alone at d = 0)."""
    t = (d - 1) // 2
    return [(ext_binom(t, d - k), n * (d - k), k) for k in range(d - max(t, 0), d + 1)]


def _apply(mode: str, coeffs: dict, terms) -> dict:
    """The coefficient dict of the linear map sending the degree-d
    generator to the sum of c * eps^j times the degree-k generator over
    the triples (c, j, k) of ``terms(d)``, applied to ``coeffs``; zeros
    are dropped."""
    ops = coeff_ops(mode)
    add, mul, from_int = ops.add, ops.mul, ops.from_int
    out: dict = {}
    for d, coeff in coeffs.items():
        for c, j, k in terms(d):
            out[k] = add(out.get(k, 0), mul(coeff, from_int(c)) << j)
    return {k: v for k, v in out.items() if v}


def _linear(alpha: SymbolicInvariant, n: int, terms) -> SymbolicInvariant:
    """``_apply`` on the f-coefficients of ``alpha``, as an invariant at level n."""
    return SymbolicInvariant._of(n, alpha.mode, _apply(alpha.mode, alpha.coeffs, terms))


def from_g(n: int, mode: str, g: dict) -> SymbolicInvariant:
    """The invariant whose g-basis coefficients are ``g``."""
    return _linear(SymbolicInvariant(n, mode, g), n, lambda d: g_transition_terms(n, d))


def g_coeffs(alpha: SymbolicInvariant) -> dict:
    """The g-basis coefficients of ``alpha``, without zeros."""
    return _apply(alpha.mode, alpha.coeffs, lambda d: f_transition_terms(alpha.n, d))


def is_normalized(alpha: SymbolicInvariant) -> bool:
    """Normalized means vanishing at 0: no constant f-coefficient.  Both
    rebasing tables send degree 0 to degree 0 alone and every degree
    d >= 1 to degrees >= 1, so the g-basis constant is the same one."""
    return 0 not in alpha.coeffs


def phi(alpha: SymbolicInvariant, sign: int) -> SymbolicInvariant:
    """The shifting operator measuring addition (+1) or subtraction (-1)
    of an n-fold Pfister form."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    n = alpha.n

    def terms(d):
        if sign == 1:
            return [(1, 0, d - 1)] if d else []
        return [((-1) ** (d - k - 1), n * (d - k - 1), k) for k in range(d)]

    return _linear(alpha, n, terms)


def shift(alpha: SymbolicInvariant, plus: int = 0, minus: int = 0) -> SymbolicInvariant:
    """Iterated shifting; plus and minus applications commute.  A negative
    count raises ``ValueError``."""
    if plus < 0 or minus < 0:
        raise ValueError("shift counts must be >= 0")
    for sign in [1] * plus + [-1] * minus:
        alpha = phi(alpha, sign)
    return alpha


def coeff_at_zero(alpha: SymbolicInvariant):
    """The value of the invariant at q = 0, as a universal coefficient."""
    return alpha.coeffs.get(0, 0)


def extract_coeffs(alpha: SymbolicInvariant, d_max: int) -> list:
    """Classification read-out: the g-basis coefficients of degrees
    0..d_max (those of ``g_coeffs``), recovered by evaluating iterated
    shifts at 0.  Degree d reads
    ``shift(alpha, plus=d // 2 + d % 2, minus=d // 2)``; the shifts
    commute, so each degree applies one more phi to the last, +1 at odd d
    and -1 at even d."""
    shifted, out = alpha, []
    for d in range(d_max + 1):
        if d:
            shifted = phi(shifted, 1 if d % 2 else -1)
        out.append(coeff_at_zero(shifted))
    return out


def to_values(alpha: SymbolicInvariant, top: int) -> list[int]:
    """ev(alpha)(m) = sum_s a_s eps^(ns) C(m, s) for m = 0..top, the
    value on m n-fold Pfister forms, as f^s(m phi) = C(m, s) phi^s; Horner's
    rule on C(m, s) = sum_{j<m} C(j, s - 1), one running sum per degree."""
    add = alpha.ops.add
    vals = [0] * (top + 1)
    for s in range(max(alpha.coeffs, default=-1), -1, -1):
        vals = list(accumulate(vals[:-1], add, initial=alpha.coeffs.get(s, 0) << alpha.n * s))
    return vals


def from_values(vals: list[int], n: int, mode: str) -> SymbolicInvariant:
    """The f-basis invariant with values ``vals`` at m = 0..D, by
    Newton's forward differences Delta^d ev(0) = a_d eps^(nd); one that
    eps^(nd) does not divide exactly raises ``ConsistencyError``."""
    sub = coeff_ops(mode).sub
    out = {}
    for d in range(len(vals)):
        c, j = vals[0], n * d
        if c & ((1 << j) - 1):
            raise ConsistencyError(f"the degree-{d} difference is not divisible by eps^{j}")
        out[d] = c >> j
        vals = list(map(sub, vals[1:], vals[:-1]))
    return SymbolicInvariant(n, mode, out)


def product(*factors: SymbolicInvariant) -> SymbolicInvariant:
    """Product of invariants, in the f-basis: their values at m = 0..D, D the
    sum of their top f-degrees, multiplied pointwise."""
    if not factors:
        raise ValueError("product needs at least one factor")
    first = factors[0]
    top = sum(max(f.coeffs, default=0) for f in factors)
    mul = first.ops.mul
    vals = to_values(first, top)
    for f in factors[1:]:
        first._check(f)
        vals = list(map(mul, vals, to_values(f, top)))
    return from_values(vals, first.n, first.mode)


def psi_tilde(alpha: SymbolicInvariant) -> SymbolicInvariant:
    """The similitude operator: the coefficient of {lambda} in the value on
    <lambda> q.  Acts diagonally on the g-basis."""
    n, mode = alpha.n, alpha.mode

    def terms(d):
        if d % 2:
            return [(-1, 0, d)] if mode == "W" else []
        return [(1, n - 1, d - 1)] if d else []

    return from_g(n, mode, _apply(mode, g_coeffs(alpha), terms))


def psi_tilde_closed_f(alpha: SymbolicInvariant) -> SymbolicInvariant:
    """Closed f-basis form of the similitude operator, kept as an
    independent cross-check of ``psi_tilde``."""
    n = alpha.n

    def terms(d):
        sign = -1 if d % 2 else 1
        out = [(sign * ext_binom(d - 1, k - 1), n * (d - k) - 1, k) for k in range(1, d)]
        if sign == -1 and alpha.mode == "W":
            out.append((-1, 0, d))
        return out

    return _linear(alpha, n, terms)


def restrict(alpha: SymbolicInvariant) -> SymbolicInvariant:
    """Re-express an invariant of level n as one of level n + 1 (its
    restriction along the inclusion of the filtration)."""
    n = alpha.n

    def terms(d):
        if alpha.mode == "W":
            return [(ext_binom(k, d - k), (d - k) * (n - 1), k) for k in range((d + 1) // 2, d + 1)]
        return [] if d % 2 else [(1, d // 2 * (n - 1), d // 2)]

    return _linear(alpha, n + 1, terms)


def omega_t(alpha: SymbolicInvariant, t: int) -> SymbolicInvariant:
    """Descent along a t-fold Pfister factor: level n to level n - t, with
    constants untouched."""
    if not 0 <= t < alpha.n:
        raise ValueError("need 0 <= t < n for descent")
    return _linear(alpha, alpha.n - t, lambda d: [(1, t * (d - 1) if d else 0, d)])


def evaluate(alpha: SymbolicInvariant, q: WittClass):
    """Value of a symbolic invariant on a concrete Witt class in I^n: the
    combination of its f-basis coefficients, through ``eval_f_sum``."""
    return eval_f_sum(alpha.n, q, TARGETS[alpha.mode], alpha.coeffs)


def eval_g(n: int, d: int, q: WittClass, target: InvariantTarget):
    """The degree-d member of the balanced g-family on q, through its
    f-basis expansion (``from_g``).  A negative degree raises
    ``ValueError``."""
    _check_degree(d)
    return evaluate(from_g(n, target.mode, {d: 1}), q)


# ---------------------------------------------------------------------------
# invariant literals:  sum of '*'-separated factors, each an integer, 'eps',
# 'eps^k', 'f[n,d]' or 'g[n,d]'; each term is the product of its generators,
# and the terms are summed in the f-basis.

# The largest total degree a literal may ask for: n*d for a generator f[n,d]
# or g[n,d], and n*(d_1 + ... + d_k) for a product of them.  It bounds the
# size of one request.  On a 2-core x86 machine at tower depth 6, the cold
# in-process CPU of `gwinv eval` on three 1-fold Pfister forms, in either
# mode, is about 3 ms for f[1,256], 12-16 ms for g[1,256] and 7-26 ms for
# a product at the cap (256 g[1,1]).
MAX_TOTAL_DEGREE = 256

# The largest total eps exponent of one term: eps^j is 2^j in mode W, a
# j-bit integer, and a j-bit F2-polynomial in mode H, so the cap bounds the
# memory of one scalar.  On a 2-core x86 machine `gwinv eval` of
# eps^1000000*f[1,1] on pf(-1) over R takes about 5 ms in either mode.
MAX_EPS_EXPONENT = 1_000_000

# The largest integer coefficient of one term in mode W, in bits, checked
# after each factor: 4 bits per digit a rendered multiplicity may have.
MAX_COEFF_BITS = 4 * MAX_COUNT_DIGITS

_GEN_RE = re.compile(r"^([fg])\[(\d+),(\d+)\]$")
_EPS_RE = re.compile(r"^eps(?:\^(\d+))?$")


def _check_cap(body: str, noun: str, value: int, cap: int, unit: str = "") -> None:
    if value > cap:
        raise InvariantSyntaxError(f"the {noun} of {body.strip()[:40]!r} exceeds the cap of {cap}{unit}")


def _expand(n: int, from_int, gens: list) -> dict:
    """The f-coefficients of a product of generators (family, level,
    degree) at level n.  A product of total degree D takes the value
    P(m) eps^(nD) on m n-fold Pfister forms, P the product of C(m, d) over
    its f^d and C(m + (d - 1) // 2, d) over its g^d (``g_transition_terms``),
    so its f^k coefficient is Delta^k P(0) eps^(n(D - k))."""
    if len(gens) == 1:
        b, _, d = gens[0]
        return {d: 1} if b == "f" else {k: from_int(c) << j for c, j, k in g_transition_terms(n, d)}
    top = sum(d for _, _, d in gens)
    vals = [1] * (top + 1)
    for (t, d), e in Counter(((d - 1) // 2 if b == "g" else 0, d) for b, _, d in gens).items():
        vals = [v * ext_binom(m + t, d) ** e for m, v in enumerate(vals)]
    out = {}
    for k in range(top + 1):
        out[k], vals = from_int(vals[0]) << n * (top - k), list(map(operator.sub, vals[1:], vals[:-1]))
    return out


def parse_invariant(text: str, mode: str) -> SymbolicInvariant:
    """A literal on one dict of f-coefficients (module docstring)."""
    ops = coeff_ops(mode)
    add, mul, from_int = ops.add, ops.mul, ops.from_int
    terms, levels = [], set()
    # split the whole literal first, so an empty term wins over a bad factor
    for sign, body in list(split_signed_sum(text, "invariant literal", InvariantSyntaxError)):
        coeff, eps, degree = from_int(sign), 0, 0
        gens: list[tuple[str, int, int]] = []
        for factor in body.split("*"):
            factor = factor.strip()
            if not factor:
                raise InvariantSyntaxError(f"empty factor in {body!r}")
            m = _GEN_RE.match(factor)
            if m:
                n, d = parse_int(m[2], "index", InvariantSyntaxError), parse_int(m[3], "index", InvariantSyntaxError)
                gens.append((m[1], n, d))
                levels.add(n)
                degree += n * d
                continue
            m = _EPS_RE.match(factor)
            if m:
                eps += parse_int(m[1] or "1", "eps exponent", InvariantSyntaxError)
                continue
            coeff = mul(coeff, from_int(parse_int(factor, "factor", InvariantSyntaxError)))
            if mode == "W" and coeff.bit_length() > MAX_COEFF_BITS:
                _check_cap(body, "coefficient", coeff.bit_length(), MAX_COEFF_BITS, " bits")
        if eps > MAX_EPS_EXPONENT or degree > MAX_TOTAL_DEGREE:  # the eps cap is reported first
            _check_cap(body, "eps exponent", eps, MAX_EPS_EXPONENT)
            _check_cap(body, "total degree", degree, MAX_TOTAL_DEGREE)
        terms.append((coeff << eps, gens))
    if not levels:
        raise InvariantSyntaxError("an invariant needs at least one f[...] or g[...]")
    if len(levels) > 1:
        raise InvariantSyntaxError(f"mixed levels {sorted(levels)} in one invariant")
    n = levels.pop()
    if n < 1:
        raise InvariantSyntaxError(f"the level n must be >= 1, got {n}")
    out: dict = {}
    for scalar, gens in terms:
        for d, c in _expand(n, from_int, gens).items():
            out[d] = add(out.get(d, 0), mul(scalar, c))
    return SymbolicInvariant._of(n, mode, {d: c for d, c in out.items() if c})

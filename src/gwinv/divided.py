"""Divided-power operations on GW and the invariant families they induce.

The level-n divided powers arise by substituting the level-n inverse series
into the exterior-power transform; they vanish in degrees >= 2 on n-fold
Pfister lifts and act as elementary symmetric functions on sums of them.
Composing with the Witt projection (mode W) or the degree-nd cohomological
invariant (mode H) yields the f-family, and ``eval_f_sum`` evaluates a
combination of it with universal coefficients.  A mode's value map and
value ring A(K) form one record, ``InvariantTarget``, with two values,
``W_TARGET`` and ``H_TARGET`` (``TARGETS`` by mode).  This module computes
values only: the universal scalars, the g-family and the basis changes
between the two families live in ``invariants``.  A universal scalar acts
on a value only through the target's ``times``, and eps^j is ``1 << j``:
2^j in W, as <<-1>> = 2, and (-1)^j in H.  ``RunConfig``, the
settings of one identity-suite run, sits beside the targets it selects,
so that the CLI reads its flags without loading the suites.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from operator import mul
from typing import Callable, ClassVar, Collection

from .cohomology import CohClass, e_n, minus_one_power, symbol
from .fields import FieldDescriptor, SquareClass
from .series import ConsistencyError, build_h, ext_binom
from .witt import (
    GwElement,
    MembershipError,
    WittClass,
    _check_degree,
    character_series,
    hat_lift,
    is_in_In,
    lambda_series,
    pfister,
    witt_canonical,
    witt_one,
    witt_zero,
)


@dataclass(frozen=True, repr=False)
class InvariantTarget:
    """The value map of a mode and its ring A(K), W(K) or H*(K, Z/2), into
    which the universal scalar ring maps: ``value(w, k)`` is w in I^k as a
    value (w, or ``e_n(w, k)``), ``symbol(classes)`` the image of
    {a_1,...,a_t}, and ``times(x, c)`` is c.x for a universal coefficient
    c, an int (in mode H, bit j is the coefficient of eps^j).  So eps^j
    acts as ``times(x, 1 << j)``: by 2^j in W, as <<-1>> = 2, and by
    (-1)^j in H.  Its only values are ``W_TARGET`` and ``H_TARGET``."""

    mode: str
    value: Callable
    zero: Callable
    one: Callable
    symbol: Callable
    times: Callable

    def __repr__(self) -> str:
        return f"{self.mode}_TARGET"


def _cohomology_times(x: CohClass, c) -> CohClass:
    """c.x in H*: the sum of {-1}^j x over the set bits j of c, lowest first."""
    out = CohClass.zero(x.field)
    while c:
        low = c & -c
        out = out + minus_one_power(x.field, low.bit_length() - 1) * x
        c ^= low
    return out


# each entry calls the module functions it uses by name, so that wrappers
# bound to those names, as bench/tracing.py binds them, see the calls
W_TARGET = InvariantTarget(
    "W", value=lambda w, k: w, zero=lambda field: witt_zero(field), one=lambda field: witt_one(field),
    symbol=lambda classes: witt_canonical(pfister(classes)), times=lambda x, c: x.int_mul(c),
)
H_TARGET = InvariantTarget(
    "H", value=lambda w, k: e_n(w, k), zero=CohClass.zero, one=CohClass.one,
    symbol=lambda classes: symbol(classes), times=lambda x, c: _cohomology_times(x, c),
)
TARGETS = {"W": W_TARGET, "H": H_TARGET}


@dataclass
class RunConfig:
    """Knobs shared by every suite; the seed makes reports reproducible."""

    field: str | None = None
    prec: int = 32  # read by the series suite only
    n_max: int = 3
    d_max: int = 6
    samples: int = 100
    seed: int = 0
    mode: str | None = None  # None means both W and H

    # the smallest accepted value of each integer field
    MINIMUMS: ClassVar[dict[str, int]] = {"n_max": 1, "d_max": 1, "prec": 1, "samples": 0}

    def __post_init__(self):
        if self.mode not in (None, *TARGETS):
            raise ValueError(f"mode must be None, 'W' or 'H', got {self.mode!r}")
        for name, low in self.MINIMUMS.items():
            value = getattr(self, name)
            if value < low:
                raise ValueError(f"{name} must be >= {low}, got {value}")

    def to_dict(self) -> dict:
        return asdict(self)

    def targets(self) -> list[InvariantTarget]:
        return list(TARGETS.values()) if self.mode is None else [TARGETS[self.mode]]


# -- the divided powers themselves


def _binomial_row(n: int, two_p: int, top: int) -> list[int]:
    """(1 + 2^n t)^(2p/2^n) to degree ``top``: (k + 1) b_(k+1) = (2p - 2^n k) b_k."""
    b = [1] * (top + 1)
    for k in range(top):
        b[k + 1], r = divmod((two_p - (k << n)) * b[k], k + 1)
        if r:
            raise ConsistencyError(f"binomial row is not integral at degree {k + 1}")
    return b


def _power(f: list[int], a: int) -> list[int]:
    """f^a for f_0 = 1 by J.C.P. Miller's k g_k = sum_(j=1..k) ((a + 1) j - k) f_j g_(k-j)."""
    g = [1] * len(f)
    for k in range(1, len(f)):
        g[k], r = divmod(sum(((a + 1) * j - k) * f[j] * g[k - j] for j in range(1, k + 1)), k)
        if r:
            raise ConsistencyError(f"series power is not integral at degree {k}")
    return g


def eval_pi_coeffs(n: int, degrees: Collection[int], x: GwElement) -> dict[int, GwElement]:
    """The level-n divided powers of x at ``degrees``, in one pass of the
    character kernel: the row of chi is (1 + h_n)^p (1 - h_n)^(dim x - p)
    with 2p = dim x + chi, which ((1 + h_n)/(1 - h_n))^(2^(n-1)) = 1 + 2^n t
    makes (1 + 2^n t)^(2p/2^n) (1 - h_n)^(dim x); the second factor is 1 in
    dimension 0.  A negative degree raises ``ValueError``.

    The formal zero, and a request for degree 0 alone, return without a
    kernel pass.  The zero class lifts to the formal zero, and it is
    common in evaluation traffic: 1,322 of the 3,600 in-I^n requests of
    ``bench/run.py --workload eval`` have a formally zero lift, and that
    workload ran 4.5% slower without this shortcut (2-core x86, Python
    3.11.7)."""
    if n < 1:
        raise ValueError("the level n must be >= 1")
    _check_degree(min(degrees, default=0))
    if x.is_formal_zero or not any(degrees):
        one, zero = GwElement.unit(x.field), GwElement.zero(x.field)
        return {d: zero if d else one for d in degrees}
    dim, top = x.dim, max(degrees)
    g = _power([1] + [-c for c in build_h(n, top)[1:]], dim) if dim else None

    def row(chi):
        b = _binomial_row(n, dim + chi, top)
        return [sum(map(mul, b[: d + 1], g[d::-1])) if dim else b[d] for d in degrees]

    return character_series(x, degrees, row)


def eval_pi(n: int, d: int, x: GwElement) -> GwElement:
    """Degree-d divided power of x at level n."""
    return eval_pi_coeffs(n, (d,), x)[d]


# -- the f and g families on concrete Witt classes


def _pi_of_lift(n: int, q: WittClass, degrees: Collection[int]) -> dict[int, GwElement]:
    """The level-n divided powers of hat q at the nonzero ``degrees``, after
    the level and membership checks of an evaluation, which run even when
    no degree is read."""
    if n < 1:
        raise ValueError("the level n must be >= 1")
    if not is_in_In(q, n):
        raise MembershipError(f"class is not in I^{n}")
    wanted = [d for d in degrees if d]
    return eval_pi_coeffs(n, wanted, hat_lift(q)) if wanted else {}


def eval_f_all(n: int, q: WittClass, target: InvariantTarget, degrees: Collection[int]) -> dict:
    """Values of the f-family members of the given degrees on q, keyed by
    degree: one divided-power pass computes only the requested degrees
    (every degree up to D is ``range(D + 1)``)."""
    pis = _pi_of_lift(n, q, degrees)
    return {
        d: target.value(witt_canonical(pis[d]) if d else witt_one(q.field), n * d)
        for d in degrees
    }


def eval_f(n: int, d: int, q: WittClass, target: InvariantTarget):
    """The degree-nd invariant of q in I^n obtained from the level-n
    divided power of degree d."""
    return eval_f_all(n, q, target, (d,))[d]


def eval_f_sum(n: int, q: WittClass, target: InvariantTarget, coeffs: dict):
    """The value on q of sum_d c_d f_n^d for the universal coefficients
    ``coeffs`` = {d: c_d}, ints (in mode H, F2-polynomials in eps with bit
    j the coefficient of eps^j).  The Witt projection is additive, so in
    mode W the sum c_0<1> + sum_d c_d pi_d(hat q) is formed in GW and
    canonicalized once; in mode H each degree goes through e_n and is
    scaled by its coefficient.  The membership check runs first, even for
    no degree."""
    if target.mode == "H":
        fvals = eval_f_all(n, q, target, coeffs)
        out = target.zero(q.field)
        for d, c in coeffs.items():
            out = out + target.times(fvals[d], c)
        return out
    terms = {0: coeffs.get(0, 0)}
    for d, pi in _pi_of_lift(n, q, coeffs).items():
        c = coeffs[d]
        for m, v in pi.terms.items():
            terms[m] = terms.get(m, 0) + c * v
    return witt_canonical(GwElement._of(q.field, {m: c for m, c in terms.items() if c}))


# -- total Stiefel-Whitney-style maps on GW


def _sw_lift(x: GwElement, degrees: Collection[int]) -> dict[int, GwElement]:
    """The coefficients at ``degrees`` of prod (1 + <<m>> t)^c over the
    terms c<m> of x, with <<m>> lifted to 1 - <m> in Z[G] inside GW: a GW
    element whose Witt class is the W-mode value.  Under the character
    chi_s, 1 - <m> goes to 0 or 2, so the product goes to (1 + 2t)^q with
    q = (dim x - chi_s(x))/2, whose degree-d coefficient is C(q, d) 2^d."""
    dim = x.dim
    return character_series(x, degrees, lambda chi: [ext_binom((dim - chi) >> 1, d) << d for d in degrees])


def sw_coeffs(x: GwElement, degrees: Collection[int], target: InvariantTarget) -> dict:
    """The coefficients at ``degrees`` of the unique group morphism
    GW -> 1 + t A[[t]] sending <a> to 1 + {a} t, in one pass of the
    character kernel.  Coefficient d lies in I^d; in mode H it is e_d of
    the W-mode one, since e_d is additive on I^d and multiplicative across
    degrees, and ``e_n`` checks membership.  A negative degree raises
    ``ValueError``."""
    return {d: target.value(witt_canonical(c), d) for d, c in _sw_lift(x, degrees).items()}


def eval_sw(d: int, x: GwElement, target: InvariantTarget):
    """Degree-d coefficient of ``sw_coeffs``, computed alone; over
    cohomology this is the d-th Stiefel-Whitney class of a diagonal form."""
    return sw_coeffs(x, (d,), target)[d]


def p_fixed(d: int, x: GwElement) -> GwElement:
    """GW-level expansion of the Witt-valued Stiefel-Whitney analogue on a
    fixed dimension: an alternating binomial combination of exterior
    powers of a nonnegative diagonal form.  A negative degree raises
    ``ValueError``."""
    _check_degree(d)
    if not x.is_nonneg_diagonal():
        raise ValueError("the fixed-dimension expansion needs a nonnegative diagonal")
    m = x.dim
    lam = lambda_series(x, range(d + 1))
    out = GwElement.zero(x.field)
    for k in range(d + 1):
        c = ext_binom(m - k, d - k)
        if c == 0:
            continue
        out = out + lam[k].scale(c if k % 2 == 0 else -c)
    return out


def eval_fixed_dim(
    d: int, x: GwElement, target: InvariantTarget, basis: str = "f"
):
    """Evaluate the degree-d member of the f- or g-family on an
    even-dimensional diagonal form through its Stiefel-Whitney expansion
    sum_i (-1)^i c_i eps^(d-i) sw_i.  In GW, eps = <<-1>> is 2, so the sum
    is formed once from the GW lifts of the ``sw_coeffs`` coefficients at the
    degrees with c_i != 0, then canonicalized (and in mode H sent through
    e_d: every term lies in I^d, and the terms with c_i even in I^(d+1)).
    A negative degree raises ``ValueError``."""
    _check_degree(d)
    if basis not in ("f", "g"):
        raise ValueError("basis must be 'f' or 'g'")
    if not x.is_nonneg_diagonal():
        raise ValueError("fixed-dimension evaluation needs a nonnegative diagonal")
    m = x.dim
    if m % 2:
        raise ValueError("fixed-dimension evaluation needs even dimension")
    r = m // 2
    weights = {}
    for i in range(d + 1):
        c = ext_binom(r - i + (0 if basis == "f" else (d - 1) // 2), d - i)
        if c:
            weights[i] = (c if i % 2 == 0 else -c) << (d - i)
    y = GwElement.zero(x.field)
    for i, c in _sw_lift(x, list(weights)).items():
        y = y + c.scale(weights[i])
    return target.value(witt_canonical(y), d)

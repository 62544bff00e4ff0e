"""Identity-suite verification harness.

Each identity family is declared once, with ``@family(suite, key, ...)``,
as a case function ``(cfg, rng, F, target)`` that yields the
``(detail, expected, got)`` triples of one case; a boolean identity yields
``(detail, True, <bool>)``.  A family that walks a fixed table is a
field-free family of one case (the default ``count``); only
``pi/kills-deep-lifts`` (depth-3 towers, not the run's fields) and
``coh-ops/residue`` (the first tower of depth >= 1 over each base of the
run's fields) of those draw.

``run_suite`` is the one driver.  It resolves ``fields`` from ``cfg.field``
and walks a suite's families in declaration order, each on its own stream
``Random(f"{cfg.seed}/{suite}/{key}")`` (a ``str`` seed is hashed by
SHA-512, not ``hash()``), so no family's cases depend on another's.  A
``per_target`` family is walked once per target of ``cfg``, W then H, and
the target is also the value ring A(F) (``target.zero(F)``).  A family
has ``count(cfg)`` cases that cycle through the fields ``applies``
accepts, none when no field does; ``applies=None`` makes it field-free
(``F`` is None).  The tally is a machine-readable report::

    {suite, config, cases_total, cases_failed, first_failure | null}

A case passes when ``expected == got``.  Reports are deterministic functions
of the configuration, including the seed.  A first failure carries both
sides as text (``"true"``/``"false"`` for a boolean identity) and, built
only then, the inputs ``suite/key: detail over F (mode, case i)``, without
the field or mode a family has not got.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import accumulate, combinations, combinations_with_replacement, cycle, product
from operator import add, mul, sub
from random import Random
from typing import Callable

from . import invariants as inv
from .cohomology import CohClass, coh_residue, e_n, symbol
from .divided import (
    H_TARGET,
    W_TARGET,
    RunConfig,
    eval_f,
    eval_f_all,
    eval_fixed_dim,
    eval_pi_coeffs,
    eval_sw,
    p_fixed,
)
from .factorized import alt_factorizations, delta_t_eval, lemma_factor_check, make_factorized
from .fields import SquareClass, enumerate_sc, minus_one, parse_field, sc_one
from .invariants import eval_g
from .sampling import (
    rand_coeff,
    rand_diag,
    rand_gw,
    rand_in_In,
    rand_in_In_data,
    rand_pfister_slots,
    rand_sc,
    rand_symbolic,
    rand_unit_sc,
    standard_fields,
)
from .series import build_h, build_x, catalan, cauchy, compose, even_odd_split, ext_binom, multinomial_C
from .witt import (
    GwElement,
    gpfister,
    hat_lift,
    is_in_In,
    lambda_power_direct,
    lambda_series,
    pfister,
    second_residue,
    signed_disc,
    witt_canonical,
    witt_zero,
)


def _fields(cfg: RunConfig):
    if cfg.field is not None:
        return [parse_field(cfg.field)]
    return standard_fields()


@dataclass(frozen=True)
class Family:
    """One identity family of a suite; see the module docstring."""

    key: str
    run: Callable
    count: Callable
    per_target: bool
    applies: Callable | None  # None: a field-free family


def _every(F) -> bool:
    return True


def _once(cfg) -> int:
    return 1


# suite name -> its families in declaration order
SUITES: dict[str, list[Family]] = {}


def family(suite: str, key: str, count=_once, per_target: bool = False, applies=_every):
    """Register the decorated function as family ``key`` of ``suite``."""

    def register(run):
        SUITES.setdefault(suite, []).append(Family(key, run, count, per_target, applies))
        return run

    return register


def _cases(name: str, cfg: RunConfig):
    """Every case of suite ``name`` as ``(context, expected, got)``; the
    context tuple is turned into text by ``_label`` only on a failure."""
    fields = _fields(cfg)
    for fam in SUITES[name]:
        rng = Random(f"{cfg.seed}/{name}/{fam.key}")
        applicable = [F for F in fields if fam.applies(F)] if fam.applies else [None]
        for target in cfg.targets() if fam.per_target else (None,):
            for i, F in zip(range(fam.count(cfg)), cycle(applicable)):
                for detail, expected, got in fam.run(cfg, rng, F, target):
                    yield (fam.key, detail, F, target, i), expected, got


def _label(suite: str, key: str, detail: str, F, target, i) -> str:
    text = f"{suite}/{key}: {detail}"
    if F is not None:
        text += f" over {F}"
    return text + (f" ({target.mode}, case {i})" if target else f" (case {i})")


def _elementary(factors: list, d: int, zero, one):
    """The degree-d elementary symmetric sum of ``factors``, as a brute force:
    the products of every d of them, summed in combination order."""
    return sum((reduce(mul, combo, one) for combo in combinations(factors, d)), zero)


def _text(value) -> str:
    return str(value).lower() if isinstance(value, bool) else str(value)


def _report(suite: str, cfg: RunConfig, cases) -> dict:
    """Tally ``(context, expected, got)`` triples of ``_cases`` into a suite
    report."""
    total = failed = 0
    first_failure = None
    for context, expected, got in cases:
        total += 1
        if expected == got:
            continue
        failed += 1
        if first_failure is None:
            first_failure = {
                "inputs": _label(suite, *context),
                "expected": _text(expected),
                "got": _text(got),
            }
    return {
        "suite": suite,
        "config": cfg.to_dict(),
        "cases_total": total,
        "cases_failed": failed,
        "first_failure": first_failure,
    }


# ---------------------------------------------------------------------------
# series


@family("series", "compositional-inverse", applies=None)
def series_inverse(cfg, rng, F, target):
    D = cfg.prec
    t = [0, 1] + [0] * (D - 1)
    for n in range(1, 7):
        x = build_x(n, D)
        h = build_h(n, D)  # integrality is asserted inside the builder
        yield f"x_{n} o h_{n}, D={D}", t, compose(x, h)
        yield f"h_{n} o x_{n}, D={D}", t, compose(h, x)
        yield f"h_{n} integral, D={D}", True, all(isinstance(c, int) for c in h)


@family("series", "parity-split", applies=None)
def series_parity_split(cfg, rng, F, target):
    D = cfg.prec
    t = [0, 1] + [0] * (D - 1)
    c = catalan(D)
    for n in range(1, 6):
        a_n, b_n = even_odd_split(build_x(n, D))
        a_next, b_next = even_odd_split(build_x(n + 1, D))
        s = 2**n
        yield f"even part recursion, n={n}", a_next, [s * v for v in cauchy(b_n, b_n)]
        yield (
            f"even part alternate, n={n}",
            a_next,
            [2 * a + s * v for a, v in zip(a_n, cauchy(a_n, a_n))],
        )
        yield (
            f"odd part recursion, n={n}",
            b_next,
            [b + s * v for b, v in zip(b_n, cauchy(a_n, b_n))],
        )
        p_n = [0, 1, 2 ** (n - 1), *[0] * D][: D + 1]
        tc = [0] + [c[d] * (-(2 ** (n - 1))) ** d for d in range(D)]
        yield f"inverse of p_{n} is t*C(-2^(n-1) t)", t, compose(p_n, tc)


# products whose factors both have constant term 1, so every a_d b_0 term
# of ``cauchy`` is read, against closed forms
@family("series", "unit-products", applies=None)
def series_unit_products(cfg, rng, F, target):
    D = cfg.prec
    one_minus_t = [1, -1] + [0] * (D - 1)
    yield f"(1 + x_1)(1 - t) = 1, D={D}", [1] + [0] * D, cauchy([1, *build_x(1, D)[1:]], one_minus_t)
    for n in range(1, 7):
        h = build_h(n, D)
        plus, minus = [1, *h[1:]], [1, *(-c for c in h[1:])]
        for _ in range(n - 1):
            plus, minus = cauchy(plus, plus), cauchy(minus, minus)
        # ((1 + h_n)/(1 - h_n))^(2^(n-1)) = 1 + 2^n t
        yield f"binomial identity n={n}, D={D}", cauchy([1, 1 << n] + [0] * (D - 1), minus), plus


@family("series", "pascal", applies=None)
def series_pascal(cfg, rng, F, target):
    for a in range(-20, 21):
        for b in range(-20, 21):
            yield (
                f"Pascal at ({a},{b})",
                ext_binom(a, b),
                ext_binom(a - 1, b) + ext_binom(a - 1, b - 1),
            )


# ---------------------------------------------------------------------------
# exterior powers and GW plumbing


# samples counts pairs per base-kind family; each family has three depths
@family("lambda", "exterior-powers", lambda cfg: max(1, cfg.samples // 3) * len(_fields(cfg)))
def lambda_exterior_powers(cfg, rng, F, target):
    prec = 8
    x = rand_gw(rng, F, rng.randint(0, 4))
    y = rand_gw(rng, F, rng.randint(0, 4))
    sx = lambda_series(x, range(prec + 1))
    yield "lambda^0 = 1", GwElement.unit(F), sx[0]
    yield "lambda^1 = id", x, sx[1]
    sy = lambda_series(y, range(prec + 1))
    sxy = lambda_series(x + y, range(prec + 1))
    for d in range(prec + 1):
        # the XOR convolution sum_k lambda^k(x) lambda^(d-k)(y), term by term
        rhs: dict[int, int] = {}
        for k in range(d + 1):
            for (m1, c1), (m2, c2) in product(sx[k].terms.items(), sy[d - k].terms.items()):
                rhs[m1 ^ m2] = rhs.get(m1 ^ m2, 0) + c1 * c2
        yield f"lambda sum rule d={d}", GwElement(F, rhs), sxy[d]
    diag = rand_diag(rng, F, rng.randint(1, 5))
    for d, power in lambda_series(diag, range(4)).items():
        yield f"series vs direct d={d}", lambda_power_direct(d, diag), power
    a = rand_sc(rng, F)
    g = gpfister([a])
    for d, power in lambda_series(g, range(1, 6)).items():
        yield f"lambda^{d} fixes <<{a}>>-hat", g, power


@family("lambda", "pfister-squares", applies=None)
def lambda_pfister_squares(cfg, rng, F, target):
    for F in standard_fields():
        m1 = minus_one(F)
        for a in enumerate_sc(F):
            yield f"pf(a,a) = pf(-1,a) over {F}, a={a}", pfister([m1, a]), pfister([a, a])
            yield f"pf(a,a) = 2 pf(a) over {F}, a={a}", pfister([a]).scale(2), pfister([a, a])
            yield (
                f"gpf(1) = 0 over {F}" if a.is_one else f"dim gpf over {F}",
                True,
                gpfister([sc_one(F)]).is_formal_zero if a.is_one else gpfister([a]).dim == 0,
            )


@family(
    "lambda",
    "gw-relations",
    lambda cfg: max(1, cfg.samples // (2 * len(_fields(cfg)))) * len(_fields(cfg)),
)
def lambda_gw_relations(cfg, rng, F, target):
    q = rand_gw(rng, F, rng.randint(0, 5))
    yield "2q = <<-1>> q", witt_canonical(q.scale(2)), witt_canonical(pfister([minus_one(F)]) * q)
    # GW injectivity proxy: hyperbolic planes written with different
    # scalars, and <a,a> vs 2<a>, are all identified
    a = rand_sc(rng, F)
    k = rng.randint(1, 2)
    left = q + GwElement.diag(a, -a).scale(k)
    right = q + GwElement.diag(sc_one(F), -sc_one(F)).scale(k)
    yield "hyperbolic rewrite", right, left
    yield "<a,a> = 2<a>", GwElement.diag(a).scale(2), GwElement.diag(a, a)
    qe = rand_in_In(rng, F, 1)
    lift = hat_lift(qe)
    yield "witt(hat(q)) = q", qe, witt_canonical(lift)
    yield "dim(hat(q)) = 0", 0, lift.dim
    rep = qe.diag_rep()
    fixpoint = witt_canonical(GwElement.diag(*rep)) if rep else witt_zero(F)
    yield "recanonicalization fixpoint", qe, fixpoint


# ---------------------------------------------------------------------------
# divided powers


@family("pi", "kills-pfister-lifts", applies=None)
def pi_kills_pfister_lifts(cfg, rng, F, target):
    d_hi = max(2, min(cfg.d_max, 5))
    for F in standard_fields():
        classes = enumerate_sc(F)
        for n in range(1, cfg.n_max + 1):
            for slots in combinations_with_replacement(classes, n):
                pis = eval_pi_coeffs(n, range(2, d_hi + 1), gpfister(list(slots)))
                for d, pi in pis.items():
                    yield (
                        f"pi_{n}^{d} kills <<{','.join(map(str, slots))}>>-hat over {F}",
                        True,
                        pi.dim == 0 and witt_canonical(pi).is_zero,
                    )


@family("pi", "kills-deep-lifts", applies=None)
def pi_kills_deep_lifts(cfg, rng, F, target):
    d_hi = max(2, min(cfg.d_max, 5))
    deep = [F for F in standard_fields(3) if F.depth == 3]
    for F in deep:
        for _ in range(max(1, cfg.samples // len(deep))):
            n = rng.randint(1, cfg.n_max)
            slots = rand_pfister_slots(rng, F, n)
            pis = eval_pi_coeffs(n, range(2, d_hi + 1), gpfister(list(slots)))
            for d, pi in pis.items():
                yield f"pi_{n}^{d} kills a random lift over {F}", True, witt_canonical(pi).is_zero


# divided-sum formula against an elementary symmetric brute force
@family("pi", "divided-sum", lambda cfg: cfg.samples)
def pi_divided_sum(cfg, rng, F, target):
    d_top = min(cfg.d_max, 4)
    n = rng.randint(1, min(cfg.n_max, 2))
    r = rng.randint(1, 4)
    lifts = [gpfister(list(rand_pfister_slots(rng, F, n))) for _ in range(r)]
    total = GwElement.zero(F)
    for g in lifts:
        total = total + g
    pis = eval_pi_coeffs(n, range(1, d_top + 1), total)
    yield f"pi_{n}^1 = id on a sum of {r} lifts", total, pis[1]
    for d in range(2, d_top + 1):
        sym = _elementary(lifts, d, GwElement.zero(F), GwElement.unit(F))
        yield f"pi_{n}^{d} elementary symmetric, r={r}", sym, pis[d]


# ---------------------------------------------------------------------------
# f-family axioms


@family("f-axioms", "axioms", lambda cfg: cfg.samples, per_target=True)
def f_axioms(cfg, rng, F, target):
    n = rng.randint(1, cfg.n_max)
    d = rng.randint(0, cfg.d_max)
    q1 = rand_in_In(rng, F, n)
    q2 = rand_in_In(rng, F, n)
    f1 = eval_f_all(n, q1, target, range(d + 1))
    f2 = eval_f_all(n, q2, target, range(d + 1))
    total = target.zero(F)
    for k in range(d + 1):
        total = total + f1[k] * f2[d - k]
    yield f"sum rule n={n} d={d}", eval_f(n, d, q1 + q2, target), total
    slots = rand_pfister_slots(rng, F, n)
    phi_w = witt_canonical(pfister(slots))
    d2 = rng.randint(2, max(2, cfg.d_max))
    yield (
        f"f_{n}^{d2} kills pf({','.join(map(str, slots))})",
        target.zero(F),
        eval_f(n, d2, phi_w, target),
    )
    d3 = rng.randint(1, cfg.d_max)
    want = target.times(target.symbol(slots), 1 << n * (d3 - 1))
    if d3 % 2:
        want = -want
    yield f"f_{n}^{d3}(-phi) formula", want, eval_f(n, d3, -phi_w, target)


# Pfister-sum expansion against a brute-force product sum in A
@family("f-axioms", "pfister-sum", lambda cfg: max(1, cfg.samples // 4), per_target=True)
def f_pfister_sum(cfg, rng, F, target):
    n = rng.randint(1, min(cfg.n_max, 2))
    r = rng.randint(1, 3)
    tuples = [rand_pfister_slots(rng, F, n) for _ in range(r)]
    total = witt_zero(F)
    for slots in tuples:
        total = total + witt_canonical(pfister(slots))
    symbols = [target.symbol(slots) for slots in tuples]
    for d in range(1, min(cfg.d_max, 3) + 1):
        want = _elementary(symbols, d, target.zero(F), target.one(F))
        yield f"n={n} d={d} r={r}", want, eval_f(n, d, total, target)


# ---------------------------------------------------------------------------
# g-family boundedness


@family("g-bounds", "beyond-bound", lambda cfg: cfg.samples, per_target=True)
def g_beyond_bound(cfg, rng, F, target):
    n = rng.randint(1, cfg.n_max)
    s = rng.randint(0, 2)
    t = rng.randint(0, 2)
    q, _ = rand_in_In_data(rng, F, n, s, t)
    bound = 2 * max(s, t)
    for d in (bound + 1, bound + 2):
        yield f"g_{n}^{d} = 0 beyond 2max(s,t)={bound}", target.zero(F), eval_g(n, d, q, target)


# the bound is attained over real-closed towers (depth 0 and 1)
@family("g-bounds", "attained", per_target=True, applies=None)
def g_attained(cfg, rng, F, target):
    for K in (parse_field("R"), parse_field("R((t1))")):
        q = -witt_canonical(pfister([minus_one(K)]))
        yield f"witness g_1^2(-pf(-1)) != 0 over {K}", True, not eval_g(1, 2, q, target).is_zero


@family("g-bounds", "fixed-dim", lambda cfg: max(1, cfg.samples // 4), per_target=True)
def g_fixed_dim(cfg, rng, F, target):
    m = rng.choice((2, 4, 6))
    q = witt_canonical(rand_diag(rng, F, m))
    for d in (m + 1, m + 2):
        yield f"g_1^{d} = 0 on a dim-{m} class", target.zero(F), eval_g(1, d, q, target)


# f-boundedness fails over a real-closed base ...
@family("g-bounds", "f-unbounded", applies=None)
def g_f_unbounded(cfg, rng, F, target):
    q_w = -witt_canonical(pfister([minus_one(parse_field("R"))]))
    for d in range(1, 9):
        yield (
            f"f_1^{d}(-pf(-1)) != 0 over R",
            True,
            not eval_f(1, d, q_w, W_TARGET).is_zero,
        )


# ... and holds over quadratically closed towers, where f = g
@family(
    "g-bounds",
    "f-bounded",
    lambda cfg: max(1, cfg.samples // 4),
    per_target=True,
    applies=lambda F: F.kind == "C",
)
def g_f_bounded(cfg, rng, F, target):
    n = rng.randint(1, cfg.n_max)
    s = rng.randint(0, 2)
    t = rng.randint(0, 2)
    q, _ = rand_in_In_data(rng, F, n, s, t)
    for d in (2 * max(s, t) + 1, 2 * max(s, t) + 2):
        yield f"f_{n}^{d} = 0", target.zero(F), eval_f(n, d, q, target)
    d = rng.randint(0, cfg.d_max)
    yield f"f = g: n={n} d={d}", eval_f(n, d, q, target), eval_g(n, d, q, target)


# ---------------------------------------------------------------------------
# classification read-out

# the fields over which the read-out of each mode is faithful
_FAITHFUL = {"W": parse_field("R"), "H": parse_field("R((t1))")}


@family("classify", "read-out", lambda cfg: cfg.samples, per_target=True, applies=None)
def classify_read_out(cfg, rng, F, target):
    mode = target.mode
    F = _FAITHFUL[mode]
    n = rng.randint(1, cfg.n_max)
    alpha = rand_symbolic(rng, n, mode, "g", min(cfg.d_max, 6), 4)
    coeffs = inv.extract_coeffs(alpha, min(cfg.d_max, 6))
    g = inv.g_coeffs(alpha)
    show = alpha.ops.show
    for d, got in enumerate(coeffs):
        yield f"coefficient d={d}, n={n}", show(g.get(d, 0)), show(got)
    d = rng.randint(0, min(cfg.d_max, 4))
    m = d // 2
    shifted = inv.shift(alpha, plus=m + d % 2, minus=m)
    want = target.times(target.one(F), coeffs[d])
    yield f"pointwise at 0 over {F}, d={d}", want, inv.evaluate(shifted, witt_zero(F))


@family("classify", "shift-kernel", lambda cfg: 10, per_target=True, applies=None)
def classify_shift_kernel(cfg, rng, F, target):
    mode = target.mode
    n = rng.randint(1, cfg.n_max)
    const = inv.SymbolicInvariant(n, mode, {0: rand_coeff(rng, mode)})
    # both rebasing tables keep degree 0 apart, so dropping the f-constant
    # drops the g-constant
    nonconst = inv.SymbolicInvariant(
        n, mode, {d: c for d, c in rand_symbolic(rng, n, mode, "g", 5, 3).coeffs.items() if d > 0}
    )
    for sign in (1, -1):
        yield f"shift kills constants, n={n} sign={sign}", True, not inv.phi(const, sign).coeffs
        if nonconst.coeffs:
            yield (
                f"shift faithful off constants, n={n} sign={sign}",
                True,
                bool(inv.phi(nonconst, sign).coeffs),
            )


@family("classify", "shift-relations", lambda cfg: 20, per_target=True, applies=None)
def classify_shift_relations(cfg, rng, F, target):
    n = rng.randint(1, cfg.n_max)
    alpha = rand_symbolic(rng, n, target.mode, "f", 8, 4)
    pm = inv.phi(inv.phi(alpha, 1), -1)
    mp = inv.phi(inv.phi(alpha, -1), 1)
    yield "shifts commute", True, pm == mp
    difference = inv.phi(alpha, 1) - inv.phi(alpha, -1)
    yield "plus-minus difference", True, difference == pm.scale(1 << n)
    # basis-change round trip
    yield "basis round trip", True, inv.from_g(n, target.mode, inv.g_coeffs(alpha)) == alpha


# pointwise shift contract, exercised on both bases so the defining
# recursion of the g-family is replayed on concrete classes
@family("classify", "pointwise-shift", lambda cfg: max(1, cfg.samples // 4), per_target=True)
def classify_pointwise_shift(cfg, rng, F, target):
    n = rng.randint(1, min(cfg.n_max, 2))
    d = rng.randint(0, min(cfg.d_max, 4))
    q = rand_in_In(rng, F, n, max_terms=1)
    slots = rand_pfister_slots(rng, F, n)
    phi_w = witt_canonical(pfister(slots))
    for basis, make in (("f", inv.SymbolicInvariant), ("g", inv.from_g)):
        alpha = make(n, target.mode, {d: 1})
        at_q = inv.evaluate(alpha, q)
        for sign, step in ((1, add), (-1, sub)):
            correction = target.symbol(slots) * inv.evaluate(inv.phi(alpha, sign), q)
            yield f"{basis}_{n}^{d} sign={sign}", step(at_q, correction), inv.evaluate(alpha, step(q, phi_w))


# discriminant example: the alternating f-series stabilizes to the
# signed-discriminant class over non-real towers
@family("classify", "discriminant", lambda cfg: max(1, cfg.samples // 4), applies=lambda F: F.kind in ("C", "F"))
def classify_discriminant(cfg, rng, F, target):
    m = rng.choice((2, 4, 6))
    x = rand_diag(rng, F, m)
    q = witt_canonical(x)
    vals = eval_f_all(1, q, W_TARGET, range(m + 3))
    partials = list(accumulate(v if d % 2 == 0 else -v for d, v in vals.items()))
    yield "disc series stabilizes", True, partials[-1] == partials[-2]
    yield "disc series value", witt_canonical(GwElement.diag(signed_disc(x))), partials[-1]


# over a real-closed tower, only the truncated congruence holds
@family("classify", "disc-truncation", lambda cfg: 10, applies=None)
def classify_disc_truncation(cfg, rng, F, target):
    R1 = parse_field("R((t1))")
    slots = rand_pfister_slots(rng, R1, 1)
    q = witt_canonical(pfister(slots)) - witt_canonical(
        pfister(rand_pfister_slots(rng, R1, 1))
    )
    x = GwElement.diag(*q.diag_rep()) if q.diag_rep() else GwElement.zero(R1)
    if x.dim % 2 or x.dim == 0:
        return
    D = 5
    vals = eval_f_all(1, q, W_TARGET, range(D + 1))
    acc = sum((v if d % 2 == 0 else -v for d, v in vals.items()), witt_zero(R1))
    tail = acc - witt_canonical(GwElement.diag(signed_disc(x)))
    yield f"disc truncation lands in I^{D + 1} over {R1}", True, is_in_In(tail, D + 1)


# ---------------------------------------------------------------------------
# products


@family("product", "binomial-parity", applies=None)
def product_binomial_parity(cfg, rng, F, target):
    for s in range(17):
        for t in range(17):
            for d in range(max(s, t), s + t + 1):
                yield (
                    f"C^{d}({d - s},{d - t}) parity",
                    1 if d == (s | t) else 0,
                    multinomial_C(d, d - s, d - t) % 2,
                )


@family("product", "pointwise", lambda cfg: cfg.samples, per_target=True)
def product_pointwise(cfg, rng, F, target):
    n = rng.randint(1, cfg.n_max)
    a = rand_symbolic(rng, n, target.mode, "f", min(cfg.d_max, 4), 2)
    b = rand_symbolic(rng, n, target.mode, "f", min(cfg.d_max, 4), 2)
    q = rand_in_In(rng, F, n, max_terms=1)
    want = inv.evaluate(a, q) * inv.evaluate(b, q)
    yield f"symbolic product, n={n}", want, inv.evaluate(inv.product(a, b), q)


@family("product", "single-term", lambda cfg: 30, applies=None)
def product_single_term(cfg, rng, F, target):
    n = rng.randint(1, cfg.n_max)
    s = rng.randint(0, 6)
    t = rng.randint(0, 6)
    got = inv.product(inv.SymbolicInvariant(n, "H", {s: 1}), inv.SymbolicInvariant(n, "H", {t: 1}))
    want = inv.SymbolicInvariant(n, "H", {s | t: 1 << n * (s & t)})
    yield f"H product s={s} t={t} n={n}", True, got == want


@family("product", "eps-zero", lambda cfg: 20, per_target=True, applies=lambda F: F.kind == "C")
def product_eps_zero(cfg, rng, F, target):
    n = rng.randint(1, 2)
    s = rng.randint(0, 3)
    t = rng.randint(0, 3)
    q = rand_in_In(rng, F, n, max_terms=2)
    want = eval_f(n, s + t, q, target) if s & t == 0 else target.zero(F)
    yield f"s={s} t={t}", want, eval_f(n, s, q, target) * eval_f(n, t, q, target)


@family("product", "shift-of-product", lambda cfg: 20, per_target=True, applies=None)
def product_shift(cfg, rng, F, target):
    mode = target.mode
    n = rng.randint(1, cfg.n_max)
    a = rand_symbolic(rng, n, mode, "f", 4, 2)
    b = rand_symbolic(rng, n, mode, "f", 4, 2)
    for sign in (1, -1):
        pa, pb = inv.phi(a, sign), inv.phi(b, sign)
        eps_n = 1 << n
        cross = inv.product(pa, pb).scale(eps_n if sign == 1 else a.ops.sub(0, eps_n))
        want = inv.product(pa, b) + inv.product(a, pb) + cross
        yield f"sign={sign}", True, inv.phi(inv.product(a, b), sign) == want


# ---------------------------------------------------------------------------
# restriction to the next filtration level


@family("restrict", "pointwise", lambda cfg: cfg.samples, per_target=True)
def restrict_pointwise(cfg, rng, F, target):
    n = rng.randint(1, min(cfg.n_max, 2))
    d = rng.randint(0, cfg.d_max)
    alpha = inv.SymbolicInvariant(n, target.mode, {d: 1})
    q = rand_in_In(rng, F, n + 1, max_terms=1)
    yield f"n={n} d={d}", inv.evaluate(alpha, q), inv.evaluate(inv.restrict(alpha), q)


@family("restrict", "level-1-in-H", applies=None)
def restrict_level_1_in_H(cfg, rng, F, target):
    for d in range(0, cfg.d_max + 1):
        got = inv.restrict(inv.SymbolicInvariant(1, "H", {2 * d: 1}))
        yield f"level-1 to level-2 H restriction at 2d={2 * d}", True, got == inv.SymbolicInvariant(2, "H", {d: 1})
        if d >= 1:
            odd = inv.restrict(inv.SymbolicInvariant(1, "H", {2 * d - 1: 1}))
            yield f"odd-degree H restriction vanishes at {2 * d - 1}", True, not odd.coeffs


# ---------------------------------------------------------------------------
# similitudes


@family("simil", "contract", lambda cfg: cfg.samples, per_target=True)
def simil_contract(cfg, rng, F, target):
    n = rng.randint(1, min(cfg.n_max, 2))
    d = rng.randint(0, cfg.d_max)
    alpha = inv.from_g(n, target.mode, {d: 1})
    q = rand_in_In(rng, F, n, max_terms=1)
    lam = rand_sc(rng, F)
    rhs = inv.evaluate(alpha, q) + target.symbol([lam]) * inv.evaluate(inv.psi_tilde(alpha), q)
    yield f"n={n} d={d}", rhs, inv.evaluate(alpha, q.scale_sq(lam))


@family("simil", "psi-relations", lambda cfg: 20, per_target=True, applies=None)
def simil_psi_relations(cfg, rng, F, target):
    delta = 1 if target.mode == "W" else 0
    n = rng.randint(1, cfg.n_max)
    alpha = rand_symbolic(rng, n, target.mode, "g", 8, 4)
    ops, tilde, g = alpha.ops, inv.psi_tilde(alpha), inv.g_coeffs(alpha)
    yield "Psi^2 = -delta Psi", True, inv.psi_tilde(tilde) == tilde.scale(ops.from_int(-delta))
    yield "closed f-form of Psi", True, inv.psi_tilde_closed_f(alpha) == tilde
    crit = all(
        ops.mul(1 << n - 1, g.get(2 * j + 2, 0)) == ops.mul(ops.from_int(delta), g.get(2 * j + 1, 0))
        for j in range(6)
    )
    yield "similarity criterion iff", True, crit == (not tilde.coeffs)


@family("simil", "scaled-pfister", lambda cfg: max(1, cfg.samples // 2), per_target=True)
def simil_scaled_pfister(cfg, rng, F, target):
    n = rng.randint(1, min(cfg.n_max, 2))
    d = rng.randint(2, max(2, cfg.d_max))
    slots = rand_pfister_slots(rng, F, n)
    lam = rand_sc(rng, F)
    q = witt_canonical(pfister(slots)).scale_sq(lam)
    want = target.times(target.symbol([lam]) * target.symbol(slots), 1 << n * (d - 1) - 1)
    if d % 2:
        want = -want
    yield f"n={n} d={d}", want, eval_f(n, d, q, target)


# ---------------------------------------------------------------------------
# ramification


def _ramified(F) -> bool:
    return F.depth >= 1


@family("ram", "unramified", lambda cfg: cfg.samples, per_target=True, applies=_ramified)
def ram_unramified(cfg, rng, F, target):
    n = rng.randint(1, min(cfg.n_max, 2))
    d = rng.randint(0, min(cfg.d_max, 4))
    pos = rng.randint(0, 2)
    q, _ = rand_in_In_data(rng, F, n, pos, 2 - pos, unit=True)
    yield "sample is unramified", True, second_residue(q).is_zero
    for fam, value in (("f", eval_f(n, d, q, target)), ("g", eval_g(n, d, q, target))):
        res = second_residue(value) if target.mode == "W" else coh_residue(value)
        yield f"{fam}_{n}^{d} stays unramified", True, res.is_zero


@family("ram", "residue-square", lambda cfg: cfg.samples, applies=_ramified)
def ram_residue_square(cfg, rng, F, target):
    d = rng.randint(1, 3)
    q = rand_in_In(rng, F, d, max_terms=2)
    yield f"d={d}", e_n(second_residue(q), d - 1), coh_residue(e_n(q, d))


# ---------------------------------------------------------------------------
# fixed dimension


@family("fixed-dim", "expansion", lambda cfg: cfg.samples, per_target=True)
def fixed_dim_expansion(cfg, rng, F, target):
    m = rng.choice((2, 4, 6))
    x = rand_diag(rng, F, m)
    q = witt_canonical(x)
    d = rng.randint(0, max(cfg.d_max, 8))
    yield f"f m={m} d={d}", eval_f(1, d, q, target), eval_fixed_dim(d, x, target, "f")
    yield f"g m={m} d={d}", eval_g(1, d, q, target), eval_fixed_dim(d, x, target, "g")


@family("fixed-dim", "group-law", lambda cfg: max(1, cfg.samples // 2))
def fixed_dim_group_law(cfg, rng, F, target):
    m = rng.randint(1, 5)
    x = rand_diag(rng, F, m)
    d = rng.randint(0, 4)
    yield f"vs group law m={m} d={d}", eval_sw(d, x, W_TARGET), witt_canonical(p_fixed(d, x))
    masks = [mk for mk, c in sorted(x.terms.items()) for _ in range(c)]
    symbols = [symbol([SquareClass(F, mk)]) for mk in masks]
    want = _elementary(symbols, d, CohClass.zero(F), CohClass.one(F))
    yield f"SW elementary symmetric m={m} d={d}", want, eval_sw(d, x, H_TARGET)


# on the first field only
@family("fixed-dim", "normalized", per_target=True)
def fixed_dim_normalized(cfg, rng, F, target):
    hyp = GwElement.diag(sc_one(F), -sc_one(F))
    for d in range(1, 5):
        yield f"hyperbolic d={d}", target.zero(F), eval_f(1, d, witt_canonical(hyp), target)


# ---------------------------------------------------------------------------
# cohomology operations


@family("coh-ops", "symbol-relations", applies=None)
def coh_symbol_relations(cfg, rng, F, target):
    for F in standard_fields():
        classes = enumerate_sc(F)
        for a in classes:
            for b in classes:
                yield (
                    f"symbol additivity {a},{b} over {F}",
                    symbol([a]) + symbol([b]),
                    symbol([a * b]),
                )
        for a in classes:
            yield (
                f"square rewrite (a).(a) over {F}, a={a}",
                symbol([minus_one(F), a]),
                symbol([a, a]),
            )


@family("coh-ops", "e_n-pfister", lambda cfg: cfg.samples)
def coh_e_n_pfister(cfg, rng, F, target):
    n = rng.randint(1, min(cfg.n_max, 3))
    slots = rand_pfister_slots(rng, F, n)
    yield f"n={n}", symbol(list(slots)), e_n(witt_canonical(pfister(slots)), n)


@family("coh-ops", "e_n-additivity", lambda cfg: max(1, cfg.samples // 2))
def coh_e_n_additivity(cfg, rng, F, target):
    n = rng.randint(1, 2)
    q1 = rand_in_In(rng, F, n, max_terms=1)
    q2 = rand_in_In(rng, F, n, max_terms=1)
    yield f"n={n}", e_n(q1, n) + e_n(q2, n), e_n(q1 + q2, n)


@family("coh-ops", "residue", applies=None)
def coh_residue_symbols(cfg, rng, F, target):
    towers = {}  # the first tower of depth >= 1 over each base
    for K in _fields(cfg):
        if K.depth >= 1:
            towers.setdefault((K.kind, K.q), K)
    for F in towers.values():
        t_sym = symbol([SquareClass(F, F.top_bit)])
        for _ in range(3):
            u = rand_unit_sc(rng, F)
            u_sub = SquareClass(F.parent(), u.mask & ~F.top_bit)
            yield (
                f"residue of (t).(u) over {F}",
                symbol([u_sub]) if not u.is_one else CohClass.zero(F.parent()),
                coh_residue(t_sym * symbol([u])),
            )
            yield (
                f"residue kills unramified over {F}",
                CohClass.zero(F.parent()),
                coh_residue(symbol([u])),
            )


# adding a level-(n+1) Pfister class changes a level-n value by
# (-1)^(n-1) . e_{n+1}(phi) . (double shift)
@family("coh-ops", "level-up", lambda cfg: cfg.samples)
def coh_level_up(cfg, rng, F, target):
    n = rng.randint(1, min(cfg.n_max, 2))
    d = rng.randint(0, cfg.d_max)
    alpha = inv.SymbolicInvariant(n, "H", {d: 1})
    q = rand_in_In(rng, F, n, max_terms=1)
    phi_w = witt_canonical(pfister(rand_pfister_slots(rng, F, n + 1)))
    shifted = inv.evaluate(inv.shift(alpha, plus=2), q)
    want = inv.evaluate(alpha, q) + H_TARGET.times(e_n(phi_w, n + 1) * shifted, 1 << n - 1)
    yield f"Pfister correction n={n} d={d}", want, inv.evaluate(alpha, q + phi_w)
    stable = inv.SymbolicInvariant(n, "H", {1: 1})
    yield "stable invariant unchanged", inv.evaluate(stable, q), inv.evaluate(stable, q + phi_w)


# ---------------------------------------------------------------------------
# descent along Pfister factors


# the descent value of x is the same on each alternative factorization of x
@family("delta1", "descent-well-defined", lambda cfg: max(1, cfg.samples // 4), per_target=True)
def delta1_well_defined(cfg, rng, F, target):
    level = rng.randint(1, min(cfg.n_max, 3))  # cofactor lives in I^level
    a = rand_sc(rng, F)
    b = rand_sc(rng, F)
    ab = a * b
    blocks = []
    cof = GwElement.zero(F)
    for _ in range(rng.randint(1, 2)):
        xi = rand_sc(rng, F)
        ci = rng.choice((sc_one(F), -ab))
        blocks.append((xi, ci))
        cof = cof + GwElement.diag(xi) * gpfister([ci])
    if level >= 2:
        extra = pfister(rand_pfister_slots(rng, F, level - 1))
        cof = cof * extra
        blocks = [
            (xi * e, ci)
            for xi, ci in blocks
            for e, cnt in extra.entries()
            for _ in range(cnt)
        ]
    x = make_factorized([a], witt_canonical(cof), level + 1, terms=blocks)
    alts = alt_factorizations(x, budget=4, rng=rng)
    d = rng.randint(1, min(cfg.d_max, 4))
    alpha = inv.SymbolicInvariant(level, target.mode, {d: 1})
    base_val = delta_t_eval(x, alpha, 1)
    for alt in alts[1:]:
        yield f"level={level} d={d}", base_val, delta_t_eval(alt, alpha, 1)


# divisibility along a t-fold factor
@family("delta1", "divisibility", lambda cfg: max(1, cfg.samples // 2), per_target=True)
def delta1_divisibility(cfg, rng, F, target):
    n = rng.randint(2, max(2, min(cfg.n_max, 3)))
    t = rng.randint(1, n - 1)
    d = rng.randint(1, min(cfg.d_max, 4))
    slots = rand_pfister_slots(rng, F, t)
    qp = rand_in_In(rng, F, n - t, max_terms=1)
    q = witt_canonical(pfister(slots)) * qp
    if is_in_In(q, n):
        want = target.times(target.symbol(slots) * eval_f(n - t, d, qp, target), 1 << t * (d - 1))
        yield f"n={n} t={t} d={d}", want, eval_f(n, d, q, target)


# exterior-power factor swap on certified blocks
@family("delta1", "factor-swap", lambda cfg: max(1, cfg.samples // 2))
def delta1_factor_swap(cfg, rng, F, target):
    a = rand_sc(rng, F)
    b = rand_sc(rng, F)
    terms = [
        (rand_sc(rng, F), rng.choice((sc_one(F), -(a * b))))
        for _ in range(rng.randint(1, 3))
    ]
    k = rng.randint(1, 4)
    yield f"k={k}", True, lemma_factor_check(a, b, terms, k)


# composite descent routes agree pointwise and with the similitude
@family("delta1", "descent-routes", lambda cfg: max(1, cfg.samples // 2), per_target=True)
def delta1_descent_routes(cfg, rng, F, target):
    n = rng.randint(2, max(2, min(cfg.n_max, 3)))
    d = rng.randint(1, min(cfg.d_max, 4))
    alpha = inv.SymbolicInvariant(n, target.mode, {d: 1})
    c = rand_sc(rng, F)
    q = rand_in_In(rng, F, n, max_terms=1)
    x_w = witt_canonical(pfister([c])) * q
    direct = inv.evaluate(alpha, x_w)
    via_desc = target.symbol([c]) * inv.evaluate(inv.omega_t(alpha, 1), q)
    yield f"descent n={n} d={d}", direct, via_desc
    via_restr = target.symbol([c]) * inv.evaluate(inv.omega_t(inv.restrict(alpha), 1), q)
    yield f"restrict-then-descend n={n} d={d}", direct, via_restr
    tilde = inv.psi_tilde(alpha)
    commutes = inv.psi_tilde(inv.omega_t(alpha, 1)) == inv.omega_t(tilde, 1)
    yield "descent commutes with similitude", True, commutes
    # pointwise: scaling before or after the factorization agrees
    lam = rand_sc(rng, F)
    scaled = inv.evaluate(alpha, x_w.scale_sq(lam)) - direct
    via = target.symbol([lam]) * target.symbol([c]) * inv.evaluate(inv.omega_t(tilde, 1), q)
    yield f"similitude of a factorized class n={n} d={d}", via, scaled


def run_suite(name: str, cfg: RunConfig) -> dict:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return _report(name, cfg, _cases(name, cfg))

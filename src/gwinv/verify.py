"""Identity-suite verification harness.

Each suite is a generator ``verify_<suite>(cfg, rng, fields)`` that replays
a family of exact identities on enumerated or seeded samples.  It yields one
``(inputs, expected, got)`` triple per case; a boolean identity yields
``(inputs, True, <bool>)``.  ``run_suite`` is the one driver: it seeds
``rng`` from ``cfg.seed``, resolves ``fields`` from ``cfg.field``, and tallies
the cases into a machine-readable report::

    {suite, config, cases_total, cases_failed, first_failure | null}

A case passes when ``expected == got``.  Reports are deterministic functions
of the configuration, including the seed.  A first failure carries the
inputs and both sides of the identity as text (``"true"``/``"false"`` for a
boolean identity).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import reduce
from itertools import combinations, combinations_with_replacement, cycle
from operator import mul
from random import Random

from . import invariants as inv
from .cohomology import CohClass, coh_residue, e_n, minus_one_power, symbol
from .divided import (
    H_TARGET,
    W_TARGET,
    eval_f,
    eval_f_all,
    eval_fixed_dim,
    eval_g,
    eval_pi_series,
    eval_sw,
    p_fixed,
)
from .factorized import alt_factorizations, delta_t_eval, lemma_factor_check, make_factorized
from .fields import SquareClass, enumerate_sc, minus_one, parse_field, sc_gen, sc_one
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
    small_fields_exhaustive,
    standard_fields,
)
from .series import TruncSeries, ZZ, build_h, build_x, catalan, even_odd_split, ext_binom, multinomial_C
from .witt import (
    GwElement,
    gpfister,
    gw_equal,
    hat_lift,
    is_in_In,
    lambda_power,
    lambda_power_direct,
    lambda_series,
    pfister,
    second_residue,
    signed_disc,
    witt_canonical,
    witt_zero,
)


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

    def to_dict(self) -> dict:
        return asdict(self)

    def targets(self):
        if self.mode == "W":
            return [W_TARGET]
        if self.mode == "H":
            return [H_TARGET]
        return [W_TARGET, H_TARGET]


def _fields(cfg: RunConfig):
    if cfg.field:
        return [parse_field(cfg.field)]
    return standard_fields()


def _cycle(fields: list, count: int):
    """``count`` (case index, field) pairs cycling through ``fields``; none
    when no field applies, so that the family is skipped."""
    return zip(range(count), cycle(fields))


def _target_cycle(cfg: RunConfig, fields: list, count: int):
    """(target, case index, field) triples: ``_cycle(fields, count)`` once
    per target of ``cfg``."""
    for target in cfg.targets():
        for i, F in _cycle(fields, count):
            yield target, i, F


def _elementary(factors: list, d: int, zero, one):
    """The degree-d elementary symmetric sum of ``factors``, as a brute force:
    the products of every d of them, summed in combination order."""
    return sum((reduce(mul, combo, one) for combo in combinations(factors, d)), zero)


def _text(value) -> str:
    return str(value).lower() if isinstance(value, bool) else str(value)


def _report(suite: str, cfg: RunConfig, cases) -> dict:
    """Tally ``(inputs, expected, got)`` triples into a suite report."""
    total = failed = 0
    first_failure = None
    for inputs, expected, got in cases:
        total += 1
        if expected == got:
            continue
        failed += 1
        if first_failure is None:
            first_failure = {
                "inputs": inputs,
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


def verify_series(cfg: RunConfig, rng: Random, fields: list):
    D = cfg.prec
    t = TruncSeries.identity(ZZ, D)
    for n in range(1, 7):
        x = build_x(n, D)
        h = build_h(n, D)  # integrality is asserted inside the builder
        yield f"x_{n} o h_{n}, D={D}", t.coeffs, x.compose(h).coeffs
        yield f"h_{n} o x_{n}, D={D}", t.coeffs, h.compose(x).coeffs
        yield f"h_{n} integral, D={D}", True, all(isinstance(c, int) for c in h.coeffs)
    for n in range(1, 6):
        a_n, b_n = even_odd_split(build_x(n, D))
        a_next, b_next = even_odd_split(build_x(n + 1, D))
        yield (
            f"even part recursion, n={n}",
            a_next.coeffs,
            (b_n * b_n).scale(2**n).coeffs,
        )
        yield (
            f"even part alternate, n={n}",
            a_next.coeffs,
            (a_n.scale(2) + (a_n * a_n).scale(2**n)).coeffs,
        )
        yield (
            f"odd part recursion, n={n}",
            b_next.coeffs,
            (b_n + (a_n * b_n).scale(2**n)).coeffs,
        )
        p_n = TruncSeries(ZZ, [0, 1, 2 ** (n - 1)], precision=D)
        c = catalan(D)
        tc = TruncSeries(
            ZZ, [0] + [c.coeffs[d] * (-(2 ** (n - 1))) ** d for d in range(D)]
        )
        yield f"inverse of p_{n} is t*C(-2^(n-1) t)", t.coeffs, p_n.compose(tc).coeffs
    for a in range(-20, 21):
        for b in range(-20, 21):
            yield (
                f"Pascal at ({a},{b})",
                ext_binom(a, b),
                ext_binom(a - 1, b) + ext_binom(a - 1, b - 1),
            )


# ---------------------------------------------------------------------------
# exterior powers and GW plumbing


def verify_lambda(cfg: RunConfig, rng: Random, fields: list):
    prec = 8
    # samples counts pairs per base-kind family; each family has three depths
    per = max(1, cfg.samples // 3)
    for F in fields:
        for _ in range(per):
            x = rand_gw(rng, F, rng.randint(0, 4))
            y = rand_gw(rng, F, rng.randint(0, 4))
            yield (
                f"lambda^0 = 1 over {F}",
                True,
                gw_equal(lambda_power(0, x), GwElement.unit(F)),
            )
            yield f"lambda^1 = id over {F}", True, gw_equal(lambda_power(1, x), x)
            sx = lambda_series(x, prec)
            sy = lambda_series(y, prec)
            sxy = lambda_series(x + y, prec)
            for d in range(prec + 1):
                rhs = GwElement.zero(F)
                for k in range(d + 1):
                    rhs = rhs + sx.coeff(k) * sy.coeff(d - k)
                yield (
                    f"lambda sum rule d={d} over {F}",
                    True,
                    gw_equal(sxy.coeff(d), rhs),
                )
            diag = rand_diag(rng, F, rng.randint(1, 5))
            for d in range(4):
                yield (
                    f"series vs direct exterior power d={d} over {F}",
                    True,
                    gw_equal(lambda_power(d, diag), lambda_power_direct(d, diag)),
                )
            a = rand_sc(rng, F)
            g = gpfister([a])
            for d in range(1, 6):
                yield (
                    f"lambda^{d} fixes <<{a}>>-hat over {F}",
                    True,
                    gw_equal(lambda_power(d, g), g),
                )
    for F in small_fields_exhaustive(2):
        m1 = minus_one(F)
        for a in enumerate_sc(F):
            yield (
                f"pf(a,a) = pf(-1,a) over {F}, a={a}",
                True,
                gw_equal(pfister([a, a]), pfister([m1, a])),
            )
            yield (
                f"pf(a,a) = 2 pf(a) over {F}, a={a}",
                True,
                gw_equal(pfister([a, a]), pfister([a]).scale(2)),
            )
            yield (
                f"gpf(1) = 0 over {F}" if a.is_one else f"dim gpf over {F}",
                True,
                gpfister([sc_one(F)]).is_formal_zero if a.is_one else gpfister([a]).dim == 0,
            )
    for F in fields:
        for _ in range(max(1, cfg.samples // (2 * len(fields)))):
            q = rand_gw(rng, F, rng.randint(0, 5))
            yield (
                f"2q = <<-1>> q over {F}",
                witt_canonical(q.scale(2)),
                witt_canonical(pfister([minus_one(F)]) * q),
            )
            # GW injectivity proxy: hyperbolic planes written with different
            # scalars, and <a,a> vs 2<a>, are all identified
            a = rand_sc(rng, F)
            k = rng.randint(1, 2)
            left = q + GwElement.diag(a, -a).scale(k)
            right = q + GwElement.diag(sc_one(F), -sc_one(F)).scale(k)
            yield f"hyperbolic rewrite over {F}", True, gw_equal(left, right)
            yield (
                f"<a,a> = 2<a> over {F}",
                True,
                gw_equal(GwElement.diag(a, a), GwElement.diag(a).scale(2)),
            )
            qe = rand_in_In(rng, F, 1)
            lift = hat_lift(qe)
            yield f"witt(hat(q)) = q over {F}", qe, witt_canonical(lift)
            yield f"dim(hat(q)) = 0 over {F}", 0, lift.dim
            yield (
                f"recanonicalization fixpoint over {F}",
                qe,
                witt_canonical(GwElement.diag(*qe.diag_rep()))
                if qe.diag_rep()
                else witt_zero(F),
            )


# ---------------------------------------------------------------------------
# divided powers


def verify_pi(cfg: RunConfig, rng: Random, fields: list):
    d_hi = max(2, min(cfg.d_max, 5))
    for F in small_fields_exhaustive(2):
        classes = enumerate_sc(F)
        for n in range(1, cfg.n_max + 1):
            for slots in combinations_with_replacement(classes, n):
                series = eval_pi_series(n, d_hi, gpfister(list(slots)))
                for d in range(2, d_hi + 1):
                    yield (
                        f"pi_{n}^{d} kills <<{','.join(map(str, slots))}>>-hat over {F}",
                        True,
                        series.coeff(d).dim == 0
                        and witt_canonical(series.coeff(d)).is_zero,
                    )
    deep = [F for F in standard_fields(3) if F.depth == 3]
    per = max(1, cfg.samples // max(1, len(deep)))
    for F in deep:
        for _ in range(per):
            n = rng.randint(1, cfg.n_max)
            slots = rand_pfister_slots(rng, F, n)
            series = eval_pi_series(n, d_hi, gpfister(list(slots)))
            for d in range(2, d_hi + 1):
                yield (
                    f"pi_{n}^{d} kills a random lift over {F}",
                    True,
                    witt_canonical(series.coeff(d)).is_zero,
                )
    # divided-sum formula against an elementary symmetric brute force
    d_top = min(cfg.d_max, 4)
    for i, F in _cycle(fields, cfg.samples):
        n = rng.randint(1, min(cfg.n_max, 2))
        r = rng.randint(1, 4)
        lifts = [gpfister(list(rand_pfister_slots(rng, F, n))) for _ in range(r)]
        total = GwElement.zero(F)
        for g in lifts:
            total = total + g
        series = eval_pi_series(n, d_top, total)
        yield (
            f"pi_{n}^1 = id on a sum of {r} lifts (case {i})",
            True,
            gw_equal(series.coeff(1), total),
        )
        for d in range(2, d_top + 1):
            sym = _elementary(lifts, d, GwElement.zero(F), GwElement.unit(F))
            yield (
                f"pi_{n}^{d} elementary symmetric, r={r} (case {i})",
                True,
                gw_equal(series.coeff(d), sym),
            )


# ---------------------------------------------------------------------------
# f-family axioms


def verify_f_axioms(cfg: RunConfig, rng: Random, fields: list):
    for target in cfg.targets():
        for i, F in _cycle(fields, cfg.samples):
            ring = target.ring(F)
            n = rng.randint(1, cfg.n_max)
            d = rng.randint(0, cfg.d_max)
            q1 = rand_in_In(rng, F, n)
            q2 = rand_in_In(rng, F, n)
            f1 = eval_f_all(n, q1, target, d)
            f2 = eval_f_all(n, q2, target, d)
            total = ring.zero
            for k in range(d + 1):
                total = total + f1[k] * f2[d - k]
            yield (
                f"sum rule n={n} d={d} over {F} ({target.mode}, case {i})",
                eval_f(n, d, q1 + q2, target),
                total,
            )
            slots = rand_pfister_slots(rng, F, n)
            phi_w = witt_canonical(pfister(slots))
            d2 = rng.randint(2, max(2, cfg.d_max))
            yield (
                f"f_{n}^{d2} kills pf({','.join(map(str, slots))}) ({target.mode})",
                ring.zero,
                eval_f(n, d2, phi_w, target),
            )
            d3 = rng.randint(1, cfg.d_max)
            want = ring.eps_pow(n * (d3 - 1)) * ring.symbol(slots)
            if d3 % 2 and target.mode == "W":
                want = -want
            yield (
                f"f_{n}^{d3}(-phi) formula over {F} ({target.mode})",
                want,
                eval_f(n, d3, -phi_w, target),
            )
        # Pfister-sum expansion against a brute-force product sum in A
        for i, F in _cycle(fields, max(1, cfg.samples // 4)):
            n = rng.randint(1, min(cfg.n_max, 2))
            r = rng.randint(1, 3)
            tuples = [rand_pfister_slots(rng, F, n) for _ in range(r)]
            total = witt_zero(F)
            for slots in tuples:
                total = total + witt_canonical(pfister(slots))
            ring = target.ring(F)
            symbols = [ring.symbol(slots) for slots in tuples]
            for d in range(1, min(cfg.d_max, 3) + 1):
                yield (
                    f"Pfister-sum expansion n={n} d={d} r={r} over {F} "
                    f"({target.mode}, case {i})",
                    _elementary(symbols, d, ring.zero, ring.one),
                    eval_f(n, d, total, target),
                )


# ---------------------------------------------------------------------------
# g-family boundedness


def verify_g_bounds(cfg: RunConfig, rng: Random, fields: list):
    for target, i, F in _target_cycle(cfg, fields, cfg.samples):
        n = rng.randint(1, cfg.n_max)
        s = rng.randint(0, 2)
        t = rng.randint(0, 2)
        q, _ = rand_in_In_data(rng, F, n, s, t)
        bound = 2 * max(s, t)
        for d in (bound + 1, bound + 2):
            yield (
                f"g_{n}^{d} = 0 beyond 2max(s,t)={bound} over {F} "
                f"({target.mode}, case {i})",
                target.ring(F).zero,
                eval_g(n, d, q, target),
            )
    # the bound is attained over real-closed towers (depth 0 and 1)
    for target in cfg.targets():
        for K in (parse_field("R"), parse_field("R((t1))")):
            q = -witt_canonical(pfister([minus_one(K)]))
            yield (
                f"witness g_1^2(-pf(-1)) != 0 over {K} ({target.mode})",
                True,
                not eval_g(1, 2, q, target).is_zero,
            )
    # fixed-dimension vanishing
    for target, i, F in _target_cycle(cfg, fields, max(1, cfg.samples // 4)):
        m = rng.choice((2, 4, 6))
        q = witt_canonical(rand_diag(rng, F, m))
        for d in (m + 1, m + 2):
            yield (
                f"g_1^{d} = 0 on a dim-{m} class over {F} ({target.mode})",
                target.ring(F).zero,
                eval_g(1, d, q, target),
            )
    # f-boundedness fails over a real-closed base ...
    q_w = -witt_canonical(pfister([minus_one(parse_field("R"))]))
    for d in range(1, 9):
        yield (
            f"f_1^{d}(-pf(-1)) != 0 over R",
            True,
            not eval_f(1, d, q_w, W_TARGET).is_zero,
        )
    # ... and holds over quadratically closed towers, where f = g
    cf = [F for F in fields if F.kind == "C"]
    for target, i, F in _target_cycle(cfg, cf, max(1, cfg.samples // 4)):
        n = rng.randint(1, cfg.n_max)
        s = rng.randint(0, 2)
        t = rng.randint(0, 2)
        q, _ = rand_in_In_data(rng, F, n, s, t)
        for d in (2 * max(s, t) + 1, 2 * max(s, t) + 2):
            yield (
                f"f bounded over {F}: f_{n}^{d} = 0 ({target.mode})",
                target.ring(F).zero,
                eval_f(n, d, q, target),
            )
        d = rng.randint(0, cfg.d_max)
        yield (
            f"f = g over {F}: n={n} d={d} ({target.mode})",
            eval_f(n, d, q, target),
            eval_g(n, d, q, target),
        )


# ---------------------------------------------------------------------------
# classification read-out


def verify_classify(cfg: RunConfig, rng: Random, fields: list):
    faithful = {"W": parse_field("R"), "H": parse_field("R((t1))")}
    for target in cfg.targets():
        mode = target.mode
        F = faithful[mode]
        ring = target.ring(F)
        for i in range(cfg.samples):
            n = rng.randint(1, cfg.n_max)
            alpha = rand_symbolic(rng, n, mode, "g", min(cfg.d_max, 6), 4)
            coeffs = inv.extract_coeffs(alpha, min(cfg.d_max, 6))
            for d, got in enumerate(coeffs):
                yield (
                    f"coefficient read-out d={d} (case {i}, {mode}, n={n})",
                    alpha.coeffs.get(d, alpha.ops.zero),
                    got,
                )
            d = rng.randint(0, min(cfg.d_max, 4))
            m = d // 2
            shifted = inv.shift(alpha, plus=m + d % 2, minus=m)
            yield (
                f"pointwise read-out at 0, d={d} ({mode}, case {i})",
                ring.times(ring.one, coeffs[d]),
                inv.evaluate(shifted, witt_zero(F)),
            )
        for i in range(10):
            n = rng.randint(1, cfg.n_max)
            const = inv.SymbolicInvariant(n, mode, "g", {0: rand_coeff(rng, mode)})
            nonconst = inv.SymbolicInvariant(
                n,
                mode,
                "g",
                {d: c for d, c in rand_symbolic(rng, n, mode, "g", 5, 3).coeffs.items() if d > 0},
            )
            for sign in (1, -1):
                yield (
                    f"shift kills constants ({mode}, n={n}, sign={sign})",
                    True,
                    not inv.phi(const, sign).coeffs,
                )
                if nonconst.coeffs:
                    yield (
                        f"shift faithful off constants ({mode}, n={n}, sign={sign})",
                        True,
                        bool(inv.phi(nonconst, sign).coeffs),
                    )
        for i in range(20):
            n = rng.randint(1, cfg.n_max)
            alpha = rand_symbolic(rng, n, mode, "f", 8, 4)
            pm = inv.phi(inv.phi(alpha, 1), -1)
            mp = inv.phi(inv.phi(alpha, -1), 1)
            yield f"shifts commute (case {i}, {mode})", True, pm == mp
            yield (
                f"plus-minus difference (case {i}, {mode})",
                True,
                inv.phi(alpha, 1) - inv.phi(alpha, -1) == pm.scale(alpha.ops.eps_pow(n)),
            )
            # basis-change round trip
            yield (
                f"basis round trip (case {i}, {mode})",
                True,
                inv.change_basis(inv.change_basis(alpha)) == alpha,
            )
    # pointwise shift contract, exercised on both bases so the defining
    # recursion of the g-family is replayed on concrete classes
    rng2 = Random(cfg.seed + 1)
    for target, i, F in _target_cycle(cfg, fields, max(1, cfg.samples // 4)):
        n = rng2.randint(1, min(cfg.n_max, 2))
        d = rng2.randint(0, min(cfg.d_max, 4))
        basis = "f" if i % 2 == 0 else "g"
        alpha = inv.SymbolicInvariant.generator(n, target.mode, basis, d)
        q = rand_in_In(rng2, F, n, max_terms=1)
        slots = rand_pfister_slots(rng2, F, n)
        phi_w = witt_canonical(pfister(slots))
        for sign in (1, -1):
            q_shift = q + phi_w if sign == 1 else q - phi_w
            correction = target.ring(F).symbol(slots) * inv.evaluate(inv.phi(alpha, sign), q)
            rhs = inv.evaluate(alpha, q)
            rhs = rhs + correction if (sign == 1 or target.mode == "H") else rhs - correction
            yield (
                f"pointwise shift n={n} d={d} sign={sign} over {F} ({target.mode})",
                rhs,
                inv.evaluate(alpha, q_shift),
            )
    # discriminant example: the alternating f-series stabilizes to the
    # signed-discriminant class over non-real towers
    rng3 = Random(cfg.seed + 2)
    disc_fields = [F for F in fields if F.kind in ("C", "F")]
    for i, F in _cycle(disc_fields, max(1, cfg.samples // 4)):
        m = rng3.choice((2, 4, 6))
        x = rand_diag(rng3, F, m)
        q = witt_canonical(x)
        vals = eval_f_all(1, q, W_TARGET, m + 2)
        acc = witt_zero(F)
        partials = []
        for d, v in enumerate(vals):
            acc = acc + (v if d % 2 == 0 else -v)
            partials.append(acc)
        yield (
            f"disc series stabilizes over {F} (case {i})",
            True,
            partials[-1] == partials[-2],
        )
        yield (
            f"disc series value over {F} (case {i})",
            witt_canonical(GwElement.diag(signed_disc(x))),
            partials[-1],
        )
    # over a real-closed tower, only the truncated congruence holds
    R1 = parse_field("R((t1))")
    for i in range(10):
        slots = rand_pfister_slots(rng3, R1, 1)
        q = witt_canonical(pfister(slots)) - witt_canonical(
            pfister(rand_pfister_slots(rng3, R1, 1))
        )
        x = GwElement.diag(*q.diag_rep()) if q.diag_rep() else GwElement.zero(R1)
        if x.dim % 2 or x.dim == 0:
            continue
        D = 5
        vals = eval_f_all(1, q, W_TARGET, D)
        acc = witt_zero(R1)
        for d, v in enumerate(vals):
            acc = acc + (v if d % 2 == 0 else -v)
        tail = acc - witt_canonical(GwElement.diag(signed_disc(x)))
        yield (
            f"disc truncation lands in I^{D + 1} over {R1} (case {i})",
            True,
            is_in_In(tail, D + 1),
        )


# ---------------------------------------------------------------------------
# products


def verify_product(cfg: RunConfig, rng: Random, fields: list):
    for s in range(17):
        for t in range(17):
            for d in range(max(s, t), s + t + 1):
                yield (
                    f"C^{d}({d - s},{d - t}) parity",
                    1 if d == (s | t) else 0,
                    multinomial_C(d, d - s, d - t) % 2,
                )
    for target, i, F in _target_cycle(cfg, fields, cfg.samples):
        n = rng.randint(1, cfg.n_max)
        a = rand_symbolic(rng, n, target.mode, "f", min(cfg.d_max, 4), 2)
        b = rand_symbolic(rng, n, target.mode, "f", min(cfg.d_max, 4), 2)
        q = rand_in_In(rng, F, n, max_terms=1)
        yield (
            f"symbolic product pointwise (case {i}, {target.mode}, n={n})",
            inv.evaluate(a, q) * inv.evaluate(b, q),
            inv.evaluate(inv.product(a, b), q),
        )
    for i in range(30):
        n = rng.randint(1, cfg.n_max)
        s = rng.randint(0, 6)
        t = rng.randint(0, 6)
        got = inv.product(
            inv.SymbolicInvariant.generator(n, "H", "f", s),
            inv.SymbolicInvariant.generator(n, "H", "f", t),
        )
        want = inv.SymbolicInvariant(
            n, "H", "f", {s | t: inv.coeff_ops("H").eps_pow(n * (s & t))}
        )
        yield f"H product single term s={s} t={t} n={n}", True, got == want
    cf = [F for F in fields if F.kind == "C"]
    for i, F in _cycle(cf, 20):
        n = rng.randint(1, 2)
        s = rng.randint(0, 3)
        t = rng.randint(0, 3)
        q = rand_in_In(rng, F, n, max_terms=2)
        for target in cfg.targets():
            want = (
                eval_f(n, s + t, q, target)
                if s & t == 0
                else target.ring(F).zero
            )
            yield (
                f"eps=0 product over {F}: s={s} t={t} ({target.mode})",
                want,
                eval_f(n, s, q, target) * eval_f(n, t, q, target),
            )
    for mode in [t.mode for t in cfg.targets()]:
        for i in range(20):
            n = rng.randint(1, cfg.n_max)
            a = rand_symbolic(rng, n, mode, "f", 4, 2)
            b = rand_symbolic(rng, n, mode, "f", 4, 2)
            for sign in (1, -1):
                pa, pb = inv.phi(a, sign), inv.phi(b, sign)
                eps_n = a.ops.eps_pow(n)
                cross = inv.product(pa, pb).scale(
                    eps_n if sign == 1 or mode == "H" else -eps_n
                )
                yield (
                    f"shift of a product (case {i}, {mode}, sign={sign})",
                    True,
                    inv.phi(inv.product(a, b), sign)
                    == inv.product(pa, b) + inv.product(a, pb) + cross,
                )


# ---------------------------------------------------------------------------
# restriction to the next filtration level


def verify_restrict(cfg: RunConfig, rng: Random, fields: list):
    for target, i, F in _target_cycle(cfg, fields, cfg.samples):
        n = rng.randint(1, min(cfg.n_max, 2))
        d = rng.randint(0, cfg.d_max)
        alpha = inv.SymbolicInvariant.generator(n, target.mode, "f", d)
        q = rand_in_In(rng, F, n + 1, max_terms=1)
        yield (
            f"restriction pointwise n={n} d={d} over {F} ({target.mode})",
            inv.evaluate(alpha, q),
            inv.evaluate(inv.restrict(alpha), q),
        )
    for d in range(0, cfg.d_max + 1):
        got = inv.restrict(inv.SymbolicInvariant.generator(1, "H", "f", 2 * d))
        yield (
            f"level-1 to level-2 H restriction at 2d={2 * d}",
            True,
            got == inv.SymbolicInvariant.generator(2, "H", "f", d),
        )
        if d >= 1:
            yield (
                f"odd-degree H restriction vanishes at {2 * d - 1}",
                True,
                not inv.restrict(
                    inv.SymbolicInvariant.generator(1, "H", "f", 2 * d - 1)
                ).coeffs,
            )


# ---------------------------------------------------------------------------
# similitudes


def verify_simil(cfg: RunConfig, rng: Random, fields: list):
    for target, i, F in _target_cycle(cfg, fields, cfg.samples):
        n = rng.randint(1, min(cfg.n_max, 2))
        d = rng.randint(0, cfg.d_max)
        alpha = inv.SymbolicInvariant.generator(n, target.mode, "g", d)
        q = rand_in_In(rng, F, n, max_terms=1)
        lam = rand_sc(rng, F)
        rhs = inv.evaluate(alpha, q) + target.ring(F).symbol([lam]) * inv.evaluate(
            inv.psi_tilde(alpha), q
        )
        yield (
            f"similitude contract n={n} d={d} over {F} ({target.mode}, case {i})",
            rhs,
            inv.evaluate(alpha, q.scale_sq(lam)),
        )
    for mode in [t.mode for t in cfg.targets()]:
        delta = 1 if mode == "W" else 0
        for i in range(20):
            n = rng.randint(1, cfg.n_max)
            alpha = rand_symbolic(rng, n, mode, "g", 8, 4)
            yield (
                f"Psi^2 = -delta Psi (case {i}, {mode})",
                True,
                inv.psi_tilde(inv.psi_tilde(alpha))
                == inv.psi_tilde(alpha).scale(alpha.ops.from_int(-delta)),
            )
            yield (
                f"closed f-form of Psi (case {i}, {mode})",
                True,
                inv.psi_tilde_closed_f(alpha) == inv.psi_tilde(alpha),
            )
            tilde = inv.psi_tilde(alpha)
            crit = all(
                alpha.ops.eps_pow(n - 1) * alpha.coeffs.get(2 * j + 2, alpha.ops.zero)
                == alpha.ops.from_int(delta) * alpha.coeffs.get(2 * j + 1, alpha.ops.zero)
                for j in range(6)
            )
            yield (
                f"similarity criterion iff (case {i}, {mode})",
                True,
                crit == (not tilde.coeffs),
            )
    for target, i, F in _target_cycle(cfg, fields, max(1, cfg.samples // 2)):
        n = rng.randint(1, min(cfg.n_max, 2))
        d = rng.randint(2, max(2, cfg.d_max))
        slots = rand_pfister_slots(rng, F, n)
        lam = rand_sc(rng, F)
        q = witt_canonical(pfister(slots)).scale_sq(lam)
        ring = target.ring(F)
        want = ring.eps_pow(n * (d - 1) - 1) * ring.symbol([lam]) * ring.symbol(slots)
        if d % 2 and target.mode == "W":
            want = -want
        yield (
            f"scaled Pfister value n={n} d={d} over {F} ({target.mode})",
            want,
            eval_f(n, d, q, target),
        )


# ---------------------------------------------------------------------------
# ramification


def verify_ram(cfg: RunConfig, rng: Random, fields: list):
    fields = [F for F in fields if F.depth >= 1]
    for target, i, F in _target_cycle(cfg, fields, cfg.samples):
        n = rng.randint(1, min(cfg.n_max, 2))
        d = rng.randint(0, min(cfg.d_max, 4))
        pos = rng.randint(0, 2)
        q, _ = rand_in_In_data(rng, F, n, pos, 2 - pos, unit=True)
        yield f"sample is unramified over {F}", True, second_residue(q).is_zero
        for fam, value in (
            ("f", eval_f(n, d, q, target)),
            ("g", eval_g(n, d, q, target)),
        ):
            res = second_residue(value) if target.mode == "W" else coh_residue(value)
            yield (
                f"{fam}_{n}^{d} stays unramified over {F} ({target.mode}, case {i})",
                True,
                res.is_zero,
            )
    for i, F in _cycle(fields, cfg.samples):
        d = rng.randint(1, 3)
        q = rand_in_In(rng, F, d, max_terms=2)
        yield (
            f"residue square d={d} over {F} (case {i})",
            e_n(second_residue(q), d - 1),
            coh_residue(e_n(q, d)),
        )


# ---------------------------------------------------------------------------
# fixed dimension


def verify_fixed_dim(cfg: RunConfig, rng: Random, fields: list):
    d_hi = max(cfg.d_max, 8)
    for target, i, F in _target_cycle(cfg, fields, cfg.samples):
        m = rng.choice((2, 4, 6))
        x = rand_diag(rng, F, m)
        q = witt_canonical(x)
        d = rng.randint(0, d_hi)
        yield (
            f"f-expansion m={m} d={d} over {F} ({target.mode}, case {i})",
            eval_f(1, d, q, target),
            eval_fixed_dim(d, x, target, "f"),
        )
        yield (
            f"g-expansion m={m} d={d} over {F} ({target.mode}, case {i})",
            eval_g(1, d, q, target),
            eval_fixed_dim(d, x, target, "g"),
        )
    for i, F in _cycle(fields, max(1, cfg.samples // 2)):
        m = rng.randint(1, 5)
        x = rand_diag(rng, F, m)
        d = rng.randint(0, 4)
        yield (
            f"fixed-dim expansion vs group law m={m} d={d} over {F} (case {i})",
            eval_sw(d, x, W_TARGET),
            witt_canonical(p_fixed(d, x)),
        )
        masks = [mk for mk, c in sorted(x.terms.items()) for _ in range(c)]
        symbols = [symbol([SquareClass(F, mk)]) for mk in masks]
        yield (
            f"SW elementary symmetric m={m} d={d} over {F} (case {i})",
            _elementary(symbols, d, CohClass.zero(F), CohClass.one(F)),
            eval_sw(d, x, H_TARGET),
        )
    for target in cfg.targets():
        F = fields[0]
        hyp = GwElement.diag(sc_one(F), -sc_one(F))
        for d in range(1, 5):
            yield (
                f"normalized on hyperbolic d={d} ({target.mode})",
                target.ring(F).zero,
                eval_f(1, d, witt_canonical(hyp), target),
            )


# ---------------------------------------------------------------------------
# cohomology operations


def verify_coh_ops(cfg: RunConfig, rng: Random, fields: list):
    for F in small_fields_exhaustive(2):
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
    for i, F in _cycle(fields, cfg.samples):
        n = rng.randint(1, min(cfg.n_max, 3))
        slots = rand_pfister_slots(rng, F, n)
        yield (
            f"e_{n} of a Pfister class over {F} (case {i})",
            symbol(list(slots)),
            e_n(witt_canonical(pfister(slots)), n),
        )
    for i, F in _cycle(fields, max(1, cfg.samples // 2)):
        n = rng.randint(1, 2)
        q1 = rand_in_In(rng, F, n, max_terms=1)
        q2 = rand_in_In(rng, F, n, max_terms=1)
        yield (
            f"e_{n} additivity over {F} (case {i})",
            e_n(q1, n) + e_n(q2, n),
            e_n(q1 + q2, n),
        )
    for F in [f for f in fields if f.depth >= 1][:4]:
        t_sym = symbol([sc_gen(F, F.top_var)])
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
    for i, F in _cycle(fields, cfg.samples):
        n = rng.randint(1, min(cfg.n_max, 2))
        d = rng.randint(0, cfg.d_max)
        alpha = inv.SymbolicInvariant.generator(n, "H", "f", d)
        q = rand_in_In(rng, F, n, max_terms=1)
        phi_w = witt_canonical(pfister(rand_pfister_slots(rng, F, n + 1)))
        correction = (
            minus_one_power(F, n - 1)
            * e_n(phi_w, n + 1)
            * inv.evaluate(inv.shift(alpha, plus=2), q)
        )
        yield (
            f"level-up Pfister correction n={n} d={d} over {F} (case {i})",
            inv.evaluate(alpha, q) + correction,
            inv.evaluate(alpha, q + phi_w),
        )
        stable = inv.SymbolicInvariant.generator(n, "H", "f", 1)
        yield (
            f"stable invariant unchanged (case {i})",
            inv.evaluate(stable, q),
            inv.evaluate(stable, q + phi_w),
        )


# ---------------------------------------------------------------------------
# descent along Pfister factors


def verify_delta1(cfg: RunConfig, rng: Random, fields: list):
    pairs_checked = 0
    # attempt i + 1 draws over the field after the i-th one
    for i, F in _cycle(fields[1:] + fields[:1], cfg.samples * 6):
        if pairs_checked >= cfg.samples:
            break
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
        cof_w = witt_canonical(cof)
        if not is_in_In(cof_w, level):
            continue
        x = make_factorized([a], cof_w, level + 1, terms=blocks)
        alts = alt_factorizations(x, budget=4, rng=rng)
        d = rng.randint(1, min(cfg.d_max, 4))
        for target in cfg.targets():
            alpha = inv.SymbolicInvariant.generator(level, target.mode, "f", d)
            base_val = delta_t_eval(x, alpha, 1)
            for alt in alts[1:]:
                pairs_checked += 1
                yield (
                    f"descent well-defined level={level} d={d} over {F} "
                    f"({target.mode}, case {i + 1})",
                    base_val,
                    delta_t_eval(alt, alpha, 1),
                )
    yield (
        f"collected {pairs_checked} factorization pairs",
        True,
        pairs_checked >= cfg.samples,
    )
    # divisibility along a t-fold factor
    for target, i, F in _target_cycle(cfg, fields, max(1, cfg.samples // 2)):
        n = rng.randint(2, max(2, min(cfg.n_max, 3)))
        t = rng.randint(1, n - 1)
        d = rng.randint(1, min(cfg.d_max, 4))
        slots = rand_pfister_slots(rng, F, t)
        qp = rand_in_In(rng, F, n - t, max_terms=1)
        q = witt_canonical(pfister(slots)) * qp
        if not is_in_In(q, n):
            continue
        ring = target.ring(F)
        want = ring.eps_pow(t * (d - 1)) * ring.symbol(slots) * eval_f(n - t, d, qp, target)
        yield (
            f"divisibility n={n} t={t} d={d} over {F} ({target.mode}, case {i})",
            want,
            eval_f(n, d, q, target),
        )
    # exterior-power factor swap on certified blocks
    for i, F in _cycle(fields, max(1, cfg.samples // 2)):
        a = rand_sc(rng, F)
        b = rand_sc(rng, F)
        terms = [
            (rand_sc(rng, F), rng.choice((sc_one(F), -(a * b))))
            for _ in range(rng.randint(1, 3))
        ]
        k = rng.randint(1, 4)
        yield (
            f"factor swap k={k} over {F} (case {i})",
            True,
            lemma_factor_check(a, b, terms, k),
        )
    # composite descent routes agree pointwise and with the similitude
    for target, i, F in _target_cycle(cfg, fields, max(1, cfg.samples // 2)):
        ring = target.ring(F)
        n = rng.randint(2, max(2, min(cfg.n_max, 3)))
        d = rng.randint(1, min(cfg.d_max, 4))
        alpha = inv.SymbolicInvariant.generator(n, target.mode, "f", d)
        c = rand_sc(rng, F)
        q = rand_in_In(rng, F, n, max_terms=1)
        x_w = witt_canonical(pfister([c])) * q
        direct = inv.evaluate(alpha, x_w)
        via_desc = ring.symbol([c]) * inv.evaluate(inv.omega_t(alpha, 1), q)
        yield (
            f"descent route n={n} d={d} over {F} ({target.mode}, case {i})",
            direct,
            via_desc,
        )
        via_restr = ring.symbol([c]) * inv.evaluate(
            inv.omega_t(inv.restrict(alpha), 1), q
        )
        yield (
            f"restrict-then-descend route n={n} d={d} over {F} "
            f"({target.mode}, case {i})",
            direct,
            via_restr,
        )
        yield (
            f"descent commutes with similitude (case {i}, {target.mode})",
            True,
            inv.psi_tilde(inv.omega_t(alpha, 1))
            == inv.omega_t(inv.psi_tilde(alpha), 1),
        )
        # pointwise: scaling before or after the factorization agrees
        lam = rand_sc(rng, F)
        scaled = inv.evaluate(alpha, x_w.scale_sq(lam)) - inv.evaluate(
            alpha, x_w
        )
        via = (
            ring.symbol([lam])
            * ring.symbol([c])
            * inv.evaluate(inv.omega_t(inv.psi_tilde(alpha), 1), q)
        )
        yield (
            f"similitude of a factorized class n={n} d={d} over {F} "
            f"({target.mode}, case {i})",
            via,
            scaled,
        )


SUITES = {
    "series": verify_series,
    "lambda": verify_lambda,
    "pi": verify_pi,
    "f-axioms": verify_f_axioms,
    "g-bounds": verify_g_bounds,
    "classify": verify_classify,
    "product": verify_product,
    "restrict": verify_restrict,
    "simil": verify_simil,
    "ram": verify_ram,
    "fixed-dim": verify_fixed_dim,
    "coh-ops": verify_coh_ops,
    "delta1": verify_delta1,
}


def run_suite(name: str, cfg: RunConfig) -> dict:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return _report(name, cfg, SUITES[name](cfg, Random(cfg.seed), _fields(cfg)))

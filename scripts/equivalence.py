"""Print the SHA-256 fingerprints that a behaviour-preserving change must keep.

    python3 scripts/equivalence.py

Run it from the root of a checkout; it imports that checkout's ``src``,
``bench`` and ``tests/pinned_inputs.py`` and changes nothing, and it needs
neither pytest nor hypothesis.  Each line is ``<name> <hex>``:

* ``verify``: the concatenated ``json.dumps(report, sort_keys=True)`` of
  the 14 ``bench/workloads.py`` ``VERIFY_CONFIGS`` reports, in that order;
* ``moderate``: the same over the 13 ``MODERATE`` configs of
  ``tests/pinned_inputs.py``, in sorted suite order;
* ``eval``: the concatenated ``repr((rc, stdout, stderr))`` of the 3,780
  ``workloads.eval_ops(7)`` requests sent through ``cli.main``;
* ``demos``: the concatenated stdout of ``demos/*.py`` in sorted order;
* ``series-gw``: the coefficient terms of ``lambda_series`` and
  ``eval_pi_coeffs`` (n = 1..3) on the degrees 0..P for P = 0, 1, 6, 10
  and 16, over every base with depths 0 to 4, on the formal zero and on
  seeded forms with small, negative and large multiplicities;
* ``pi-deep``: the coefficient terms of ``eval_pi_coeffs`` for n = 1..6
  on the sparse degree sets {D}, {1, D} and {0, 2, D // 2} with
  D = 256 // n, over F3 and R towers of depth 0 to 4, on seeded
  dimension-0 lifts and on seeded forms of odd, negative and large
  dimension;
* ``kernel-wide``: the coefficient terms of ``lambda_series``,
  ``eval_pi_coeffs`` (n = 1..3) and ``sw_coeffs`` (mode W, as the
  (mask, count) pairs of each small diagonal form) on the dense degree
  set 0..12, over R, F3 and F5 towers of depth 5 and 6 (6 or 7 square-class
  generators), on seeded forms of small, negative and large multiplicity
  and on seeded dimension-0 lifts;
* ``series-dump``: the concatenated stdout of ``gwinv series --n N --prec P
  --format json`` sent through ``cli.main``, over the 72 (N, P) of
  ``workloads.series_ops(1)`` and then (6, 128);
* ``series-cap``: the same over the six (N, P) of ``SERIES_CAP_LINE`` on
  the cap line N * (P + 1) <= 1024;
* ``witt-level``: the level and sorted monomials of ``filtration_level``
  on every class of W(F3((t1))((t2))) and W(C((t1))((t2))((t3))),
  enumerated leaf by leaf, then on seeded classes over R and F5 towers of
  depth 0 to 6: random leaves (R signatures up to 3 * 2^10) and signed
  sums of Pfister forms;
* ``f-values``: the rendered value, or ``membership``, of ``evaluate`` on
  every f[n,d] and g[n,d] with n <= 3 and d <= 6 and on seeded sums and
  products of them, over every class of W(F3((t1))((t2))) and over
  seeded classes of W(R((t1))), in both modes;
* ``g-values``: the rendered value, or ``membership``, of ``eval_g(n, d,
  q, target)`` for n <= 3 and d <= 8, in both modes, over the classes
  ``f-values`` uses (with their own seed);
* ``sw-values``: the ``sw_coeffs`` coefficients on the degrees 0..P for
  P = 0 to 6 and the ``eval_fixed_dim`` f and g values at degrees 0 to 8,
  in both modes, on every nonnegative diagonal form of dimension <= 4 over
  F3((t1))((t2)) (``eval_fixed_dim`` on the even dimensions), then the
  series on seeded signed GW elements and the values on seeded even
  diagonal forms over R and F5 towers of depth 0 to 3;
* ``cli-errors``: the concatenated ``repr((rc, stdout, stderr))`` of the
  ``USAGE_ERRORS`` argument lists of ``tests/pinned_inputs.py`` sent through
  ``cli.main``, then of ``gwinv eval`` requests with each of the
  ``PHRASES`` of ``tests/pinned_inputs.py`` as the invariant, the form or
  the field (the other two valid), in both modes; help and usage text is
  formatted at 80 columns.

The last four build each Witt class from small base forms, leaf by leaf,
through ``witt_canonical`` and show it as the (mask, count) pairs of its
small diagonal form (``witt._rep_terms``), so their digests do not depend
on how a leaf is stored.

Compare two checkouts by running it in each.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from itertools import combinations_with_replacement, product
from pathlib import Path
from random import Random

ROOT = Path(__file__).resolve().parent.parent
for sub in ("src", "bench", "tests"):
    sys.path.insert(0, str(ROOT / sub))

import workloads  # noqa: E402
from pinned_inputs import MODERATE, PHRASES, USAGE_ERRORS  # noqa: E402
from gwinv import eval_g  # noqa: E402
from gwinv.divided import H_TARGET, W_TARGET, eval_fixed_dim, eval_pi_coeffs, sw_coeffs  # noqa: E402
from gwinv.fields import parse_field  # noqa: E402
from gwinv.invariants import evaluate, parse_invariant  # noqa: E402
from gwinv.sampling import rand_diag, rand_gw, rand_in_In, rand_pfister_slots, standard_fields  # noqa: E402
from gwinv.verify import RunConfig, run_suite  # noqa: E402
from gwinv.witt import (  # noqa: E402
    GwElement,
    MembershipError,
    WittClass,
    _rep_terms,
    filtration_level,
    gpfister,
    hat_lift,
    lambda_series,
    pfister,
    witt_canonical,
    witt_zero,
)


def _digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk.encode())
    return h.hexdigest()


def _reports(configs):
    for name, cfg in configs:
        yield json.dumps(run_suite(name, cfg), sort_keys=True)


def verify_hash() -> str:
    return _digest(_reports((name, RunConfig(**kw)) for name, kw in workloads.VERIFY_CONFIGS))


def moderate_hash() -> str:
    return _digest(_reports(sorted(MODERATE.items())))


def eval_hash() -> str:
    def answers():
        for req in workloads.eval_ops(7):
            _, rc, out, err = workloads.call_cli(req.argv)
            yield repr((rc, out, err))

    return _digest(answers())


def demos_hash() -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def outputs():
        for demo in sorted((ROOT / "demos").glob("*.py")):
            run = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True, text=True, check=True)
            yield run.stdout

    return _digest(outputs())


def series_gw_hash() -> str:
    rng = Random(10)

    def coefficients():
        for F in standard_fields(max_depth=4):
            small = rand_gw(rng, F, rng.randint(1, 5))
            large = rand_gw(rng, F, 3).scale(99999999999)
            for x in (GwElement.zero(F), small, small.scale(-3), large):
                for prec in (0, 1, 6, 10, 16):
                    series = [lambda_series(x, range(prec + 1)).values()]
                    series += [eval_pi_coeffs(n, range(prec + 1), x).values() for n in (1, 2, 3)]
                    terms = [[sorted(c.terms.items()) for c in s] for s in series]
                    yield repr((str(F), sorted(x.terms.items()), prec, terms))

    return _digest(coefficients())


def pi_deep_hash() -> str:
    rng = Random(16)

    def forms(F):
        yield hat_lift(rand_in_In(rng, F, rng.randint(1, 3)))
        yield gpfister(rand_pfister_slots(rng, F, 2)) - gpfister(rand_pfister_slots(rng, F, 1))
        odd = rand_diag(rng, F, rng.choice((1, 3, 5)))
        yield odd
        yield odd.scale(-3)
        yield rand_gw(rng, F, 3).scale(99999999999)

    def coefficients():
        for head in ("F3", "R"):
            for depth in range(5):
                F = parse_field(head + "".join(f"((t{i}))" for i in range(1, depth + 1)))
                for x in forms(F):
                    for n in range(1, 7):
                        top = 256 // n
                        for degrees in ((top,), (1, top), (0, 2, top // 2)):
                            pis = eval_pi_coeffs(n, degrees, x)
                            terms = [(d, sorted(pis[d].terms.items())) for d in degrees]
                            yield repr((str(F), sorted(x.terms.items()), n, terms))

    return _digest(coefficients())


def kernel_wide_hash() -> str:
    rng = Random(17)
    degrees = range(13)

    def forms(F):
        small = rand_gw(rng, F, rng.randint(3, 8))
        yield small
        yield small.scale(-3)
        yield rand_gw(rng, F, 3).scale(99999999999)
        yield hat_lift(rand_in_In(rng, F, rng.randint(1, 3)))

    def coefficients():
        for head in ("R", "F3", "F5"):
            for depth in (5, 6):
                F = parse_field(head + "".join(f"((t{i}))" for i in range(1, depth + 1)))
                for x in forms(F):
                    series = [lambda_series(x, degrees)]
                    series += [eval_pi_coeffs(n, degrees, x) for n in (1, 2, 3)]
                    terms = [[sorted(s[d].terms.items()) for d in degrees] for s in series]
                    sw = [_rep_terms(c) for c in sw_coeffs(x, degrees, W_TARGET).values()]
                    yield repr((str(F), sorted(x.terms.items()), terms, sw))

    return _digest(coefficients())


def series_dump_hash() -> str:
    def dumps():
        for n, prec in [*workloads.series_ops(1), (6, 128)]:
            yield workloads.call_cli(workloads.series_argv(n, prec))[2]

    return _digest(dumps())


SERIES_CAP_LINE = [(1, 1023), (2, 511), (3, 340), (6, 169), (32, 31), (1024, 0)]


def series_cap_hash() -> str:
    return _digest(workloads.call_cli(workloads.series_argv(n, prec))[2] for n, prec in SERIES_CAP_LINE)


# Small base forms, as (base mask, count) pairs, one of each element of
# W(C) = Z/2, of W(F_q) = Z/4 for q = 3 mod 4 and of W(F_q) = F2[Z/2] for
# q = 1 mod 4.
C_FORMS = [(), ((0, 1),)]
F3_FORMS = [(), ((0, 1),), ((0, 2),), ((1, 1),)]
F5_FORMS = [(), ((0, 1),), ((1, 1),), ((0, 1), (1, 1))]


def leaf_class(F, forms) -> WittClass:
    """The Witt class whose leaf at variable mask v is the class of the
    small base form forms[v]."""
    terms: Counter = Counter()
    for v, pairs in enumerate(forms):
        for m, c in pairs:
            terms[m | v << F.base_bits] += c
    return witt_canonical(GwElement(F, terms))


def witt_key(q: WittClass) -> tuple:
    return str(q.field), _rep_terms(q)


def witt_level_hash() -> str:
    rng = Random(12)

    def enumerated():
        for text, forms in (("F3((t1))((t2))", F3_FORMS), ("C((t1))((t2))((t3))", C_FORMS)):
            F = parse_field(text)
            for leaves in product(forms, repeat=1 << F.depth):
                yield leaf_class(F, leaves)

    def leaf(head):
        if rng.random() < 0.5:
            return ()
        if head == "R":
            return ((0, rng.randint(-3, 3) << rng.randint(0, 10)),)
        return rng.choice(F5_FORMS)

    def seeded():
        for head in ("R", "F5"):
            for depth in range(7):
                F = parse_field(head + "".join(f"((t{i}))" for i in range(1, depth + 1)))
                for _ in range(40):
                    yield leaf_class(F, [leaf(head) for _ in range(1 << depth)])
                    q = witt_zero(F)
                    for _ in range(rng.randint(1, 3)):
                        term = witt_canonical(pfister(rand_pfister_slots(rng, F, rng.randint(1, 5))))
                        q = q - term if rng.random() < 0.5 else q + term
                    yield q.int_mul(1 << rng.randint(0, 10)) if head == "R" else q

    def levels():
        for q in (*enumerated(), *seeded()):
            level, monos = filtration_level(q)
            yield repr((witt_key(q), level, sorted(monos)))

    return _digest(levels())


def value_classes(rng: Random) -> list[WittClass]:
    """Every class of W(F3((t1))((t2))), then 40 seeded classes of W(R((t1)))."""
    F3 = parse_field("F3((t1))((t2))")
    classes = [leaf_class(F3, leaves) for leaves in product(F3_FORMS, repeat=4)]
    R1 = parse_field("R((t1))")
    for _ in range(40):
        classes.append(leaf_class(R1, [((0, rng.randint(-3, 3) << rng.randint(0, 4)),) for _ in range(2)]))
    return classes


def shown_value(fn, *args) -> str:
    """The rendered value of fn(*args), or ``membership``."""
    try:
        value = fn(*args)
    except MembershipError:
        return "membership"
    return str(value)


def f_values_hash() -> str:
    rng = Random(13)
    texts = [f"{b}[{n},{d}]" for b in "fg" for n in (1, 2, 3) for d in range(7)]
    for n in (1, 2, 3):
        for _ in range(4):
            gens = [f"{rng.choice('fg')}[{n},{rng.randint(0, 6)}]" for _ in range(rng.randint(2, 3))]
            texts.append("".join(f"{rng.choice('+-')}{rng.randint(1, 3)}*eps^{rng.randint(0, 2)}*{g}" for g in gens))
        for _ in range(2):
            s = rng.randint(1, 3)
            texts.append(f"{rng.choice('fg')}[{n},{s}]*{rng.choice('fg')}[{n},{rng.randint(1, 4 - s)}]")
    classes = value_classes(rng)

    def values():
        for mode in "WH":
            alphas = [(text, parse_invariant(text, mode)) for text in texts]
            for q in classes:
                for text, alpha in alphas:
                    yield repr((mode, text, witt_key(q), shown_value(evaluate, alpha, q)))

    return _digest(values())


def g_values_hash() -> str:
    classes = value_classes(Random(15))

    def values():
        for target in (W_TARGET, H_TARGET):
            for q in classes:
                for n in (1, 2, 3):
                    for d in range(9):
                        yield repr((target.mode, n, d, witt_key(q), shown_value(eval_g, n, d, q, target)))

    return _digest(values())


def sw_values_hash() -> str:
    rng = Random(14)
    F3 = parse_field("F3((t1))((t2))")
    diagonals = [
        GwElement(F3, Counter(masks))
        for dim in range(5)
        for masks in combinations_with_replacement(range(1 << F3.num_gens), dim)
    ]
    signed, even = [], [x for x in diagonals if x.dim % 2 == 0]
    for head in ("R", "F5"):
        for depth in range(4):
            F = parse_field(head + "".join(f"((t{i}))" for i in range(1, depth + 1)))
            for _ in range(10):
                signed.append(rand_gw(rng, F, rng.randint(1, 6)).scale(rng.choice((1, -1, 3, -3 << 10))))
                even.append(rand_diag(rng, F, rng.choice((2, 4, 6))))

    def shown(v):
        return repr(_rep_terms(v)) if isinstance(v, WittClass) else str(v)

    def values():
        for target in (W_TARGET, H_TARGET):
            for x in (*diagonals, *signed):
                for prec in range(7):
                    coeffs = [shown(c) for c in sw_coeffs(x, range(prec + 1), target).values()]
                    yield repr((target.mode, str(x.field), sorted(x.terms.items()), prec, coeffs))
            for x in even:
                for d in range(9):
                    got = [shown(eval_fixed_dim(d, x, target, basis)) for basis in "fg"]
                    yield repr((target.mode, str(x.field), sorted(x.terms.items()), d, got))

    return _digest(values())


def cli_errors_hash() -> str:
    valid = {"inv": "f[1,1]", "form": "pf(t1)", "field": "F3((t1))((t2))"}
    requests = [list(argv) for argv in USAGE_ERRORS]
    for phrase in PHRASES:
        for flag in valid:
            literals = dict(valid, **{flag: phrase})
            for mode in "WH":
                requests.append(["eval", *(f"--{k}={v}" for k, v in literals.items()), f"--mode={mode}"])

    def answers():
        for argv in requests:
            _, rc, out, err = workloads.call_cli(argv)
            yield repr((rc, out, err))

    columns = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    try:
        return _digest(answers())
    finally:
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns


HASHES = {
    "verify": verify_hash,
    "moderate": moderate_hash,
    "eval": eval_hash,
    "demos": demos_hash,
    "series-gw": series_gw_hash,
    "pi-deep": pi_deep_hash,
    "kernel-wide": kernel_wide_hash,
    "series-dump": series_dump_hash,
    "series-cap": series_cap_hash,
    "witt-level": witt_level_hash,
    "f-values": f_values_hash,
    "g-values": g_values_hash,
    "sw-values": sw_values_hash,
    "cli-errors": cli_errors_hash,
}


def main() -> None:
    for name, digest in HASHES.items():
        print(name, digest(), flush=True)


if __name__ == "__main__":
    main()

"""Command-line front end: series dumps, invariant evaluation, and the
identity-verification suites.

Exit codes: 0 success, 1 failed checks, 2 parse/usage errors, 3 membership
failures.

Exact long flags are read directly, by ``_read_flags``; every other argument
list, with every usage error and help text, goes to argparse.

Only the ``verify`` command loads the suites (``verify``, ``sampling`` and
``factorized``): ``cmd_verify`` imports ``SUITES`` and ``run_suite`` from
``verify`` once it has checked ``--prec``.  ``series`` and
``eval`` import nothing beyond this module's own imports, so a one-request
process neither compiles nor holds the suites, and a request pays for no
import once this module is loaded.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from gettext import gettext

from .divided import RunConfig
from .fields import FieldSyntaxError, parse_field
from .invariants import InvariantSyntaxError, evaluate, parse_invariant
from .series import build_h, build_x, even_odd_split
from .witt import MembershipError, RenderLimitError, parse_form, witt_canonical

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_MEMBERSHIP = 3

# The smallest accepted value of each integer flag, per command; verify's
# are the minima of its RunConfig fields.
_MINIMUMS = {
    "series": (("n", "--n", 1), ("prec", "--prec", 0)),
    "verify": tuple(
        (name, "--" + name.replace("_", "-"), low) for name, low in RunConfig.MINIMUMS.items()
    ),
}

# The largest n * (prec + 1) that `series` accepts: building and certifying
# h_n take O(prec^2) products and checking x_n O(prec min(prec, 2^(n-1)))
# additions, of integers of about n * prec bits.  On a 2-core x86 machine
# (Python 3.11, best of nine cold runs) the slowest dumps at the cap, (2, 511)
# and (1, 1023), take 0.05 and 0.03 s of CPU, while (32, 256) takes 0.31 s.
MAX_SERIES_SIZE = 1024

# The largest `verify --prec`: the series suite checks both round trips for
# n = 1..6 by Horner composition, O(prec^3).  On a 2-core x86 machine
# (Python 3.11, median of five cold runs) --prec 64 takes 0.28 s of CPU and
# 128 takes 2.4 s.
MAX_VERIFY_PREC = 128


def _series_rows(n: int, prec: int) -> list[tuple[str, list[int]]]:
    x = build_x(n, prec)
    a, b = even_odd_split(x)
    return [("x", x), ("h", build_h(n, prec)), ("a", a), ("b", b)]


def cmd_series(args) -> int:
    if args.n * (args.prec + 1) > MAX_SERIES_SIZE:
        print(f"error: --n * (--prec + 1) exceeds the cap of {MAX_SERIES_SIZE}", file=sys.stderr)
        return EXIT_PARSE
    try:
        rows = _series_rows(args.n, args.prec)
    except Exception as exc:  # integrality or domain failure
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    if args.format == "json":
        print(json.dumps({name: coeffs for name, coeffs in rows}, sort_keys=True))
    elif args.format == "csv":
        csv.writer(sys.stdout).writerows([name] + coeffs for name, coeffs in rows)
    else:
        for name, coeffs in rows:
            print(f"{name}: " + ",".join(str(c) for c in coeffs))
    return EXIT_OK


def cmd_eval(args) -> int:
    try:
        field = parse_field(args.field)
        alpha = parse_invariant(args.inv, args.mode)
        form = parse_form(args.form, field)
    except (FieldSyntaxError, InvariantSyntaxError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    q = witt_canonical(form)
    try:
        value = evaluate(alpha, q)
    except MembershipError as exc:
        print(f"membership error: {exc}", file=sys.stderr)
        return EXIT_MEMBERSHIP
    try:
        rendered = str(value)
    except RenderLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    if args.format == "json":
        answer = {"invariant": args.inv, "form": args.form, "field": args.field, "mode": args.mode, "value": rendered}
        print(json.dumps(answer, sort_keys=True))
    else:
        print(rendered)
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.prec > MAX_VERIFY_PREC:
        print(f"error: --prec exceeds the cap of {MAX_VERIFY_PREC}", file=sys.stderr)
        return EXIT_PARSE
    from .verify import SUITES, run_suite

    if args.suite not in SUITES:
        print(
            f"unknown suite {args.suite!r}; choose from {', '.join(sorted(SUITES))}",
            file=sys.stderr,
        )
        return EXIT_PARSE
    try:  # each RunConfig field is a flag of the same name (``build_parser``)
        report = run_suite(args.suite, RunConfig(**{name: getattr(args, name) for name in RunConfig().to_dict()}))
    except FieldSyntaxError as exc:  # --field is parsed once, by the suite
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    if report["cases_total"] == 0:
        print(f"suite {args.suite!r} has no case for this config", file=sys.stderr)
        return EXIT_PARSE
    if args.format == "json":
        print(json.dumps(report, sort_keys=True))
    elif args.format == "csv":
        keys = ["suite", "cases_total", "cases_failed", "first_failure"]
        row = [report[k] for k in keys[:3]] + [json.dumps(report["first_failure"], sort_keys=True)]
        csv.writer(sys.stdout).writerows([keys, row])
    else:
        status = "PASS" if report["cases_failed"] == 0 else "FAIL"
        print(
            f"suite={report['suite']} cases={report['cases_total']} "
            f"failed={report['cases_failed']} {status}"
        )
        if report["first_failure"]:
            ff = report["first_failure"]
            print(f"  first failure: {ff['inputs']}")
            print(f"    expected: {ff['expected']}")
            print(f"    got:      {ff['got']}")
    return EXIT_OK if report["cases_failed"] == 0 else EXIT_FAIL


@functools.cache  # parsing leaves the parsers unchanged, so one set serves every call
def build_parser() -> tuple[argparse.ArgumentParser, dict[str, tuple[argparse.ArgumentParser, dict]]]:
    """The top-level parser, and by command name its subparser and flag actions."""
    parser = argparse.ArgumentParser(
        prog="gwinv",
        description="Exact divided-power operations and invariants of "
        "quadratic forms over computable field towers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_series = sub.add_parser("series", help="dump the series family at one level")
    series = [
        p_series.add_argument("--n", type=int, required=True, help="level (>= 1)"),
        p_series.add_argument("--prec", type=int, default=8, help="truncation order"),
        p_series.add_argument("--format", choices=("text", "json", "csv"), default="text"),
    ]
    p_series.set_defaults(func=cmd_series)

    p_eval = sub.add_parser("eval", help="evaluate an invariant on a form")
    evals = [
        p_eval.add_argument("--inv", required=True, help="invariant literal, e.g. f[1,2]"),
        p_eval.add_argument("--form", required=True, help="form literal, e.g. pf(t1)+H"),
        p_eval.add_argument("--field", required=True, help="field descriptor, e.g. R((t1))"),
        p_eval.add_argument("--mode", choices=("W", "H"), default="H"),
        p_eval.add_argument("--format", choices=("text", "json"), default="text"),
    ]
    p_eval.set_defaults(func=cmd_eval)

    p_verify = sub.add_parser("verify", help="run an identity suite")
    verifies = [
        p_verify.add_argument("--suite", required=True),
        p_verify.add_argument("--field"),
        p_verify.add_argument("--prec", type=int, help=f"series truncation order (series suite only, <= {MAX_VERIFY_PREC})"),
        p_verify.add_argument("--n-max", dest="n_max", type=int),
        p_verify.add_argument("--d-max", dest="d_max", type=int),
        p_verify.add_argument("--samples", type=int),
        p_verify.add_argument("--seed", type=int),
        p_verify.add_argument("--mode", choices=("W", "H")),
        p_verify.add_argument("--format", choices=("text", "json", "csv"), default="text"),
    ]
    # each RunConfig field is a flag of the same name, with its default
    p_verify.set_defaults(func=cmd_verify, **RunConfig().to_dict())
    commands = {"series": (p_series, series), "eval": (p_eval, evals), "verify": (p_verify, verifies)}
    return parser, {name: (p, {a.option_strings[0]: a for a in flags}) for name, (p, flags) in commands.items()}


def _read_flags(command: str, argv: list[str]) -> argparse.Namespace | None:
    """What ``command``'s subparser makes of ``argv`` if it holds only exact
    long flags, each once, as ``--flag=value`` or ``--flag value`` (value
    not starting with "-", never "--"), with valid values and every
    required flag; otherwise None, and argparse parses ``argv`` itself."""
    sub, flags = build_parser()[1][command]
    values, rest = {}, iter(argv)
    for arg in rest:
        flag, eq, value = arg.partition("=")
        value, action = value if eq else next(rest, "-"), flags.get(flag)
        if action is None or action.dest in values or value == "--" or (not eq and value[:1] == "-"):
            return None
        try:
            values[action.dest] = value = action.type(value) if action.type else value
        except (TypeError, ValueError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
    if any(a.required and a.dest not in values for a in flags.values()):
        return None
    defaults = {a.dest: a.default for a in flags.values()}
    return argparse.Namespace(**{**defaults, **values}, func=sub.get_default("func"))


def main(argv=None) -> int:
    """Run one command.  A known command's arguments go to ``_read_flags``;
    every argument list it declines, and every list with no known command,
    goes to the top-level parser, and "--flag=--", which argparse parses to
    [], is reported by the command's parser as a missing value."""
    parser, commands = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_flags(argv[0], argv[1:]) if argv and argv[0] in commands else None
    try:
        if args is None:
            args = parser.parse_args(argv)
            sub, flags = commands[args.command]
            for action in flags.values():
                if getattr(args, action.dest) == []:
                    sub.error(str(argparse.ArgumentError(action, gettext("expected one argument"))))
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_PARSE
    for attr, flag, low in _MINIMUMS.get(argv[0], ()):
        if getattr(args, attr) < low:
            print(f"error: {flag} must be >= {low}", file=sys.stderr)
            return EXIT_PARSE
    return args.func(args)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

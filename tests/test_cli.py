"""Command-line interface: output shapes, exit codes, determinism."""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from gwinv import cli, divided, fields, series, verify
from gwinv.cli import (
    EXIT_FAIL,
    EXIT_MEMBERSHIP,
    EXIT_OK,
    EXIT_PARSE,
    MAX_SERIES_SIZE,
    MAX_VERIFY_DEGREE,
    MAX_VERIFY_LEVEL,
    MAX_VERIFY_PREC,
    main,
)
from gwinv.invariants import MAX_COEFF_BITS, MAX_EPS_EXPONENT, MAX_TOTAL_DEGREE
from gwinv.verify import SUITES, RunConfig
from pinned_inputs import USAGE_ERRORS, VALID_EVAL


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def tower(depth):
    return "C" + "".join(f"((t{i}))" for i in range(1, depth + 1))


DEPTH_7_ERROR = "parse error: tower depth 7 exceeds the cap of 6\n"

TOP_LEVEL_EXTRAS = "usage: gwinv [-h] {series,eval,verify} ...\ngwinv: error: unrecognized arguments: "


def top_level_parse(argv):
    """Exit code, stdout and stderr of the top-level parser alone on argv:
    the route ``main`` takes for every list ``_read_flags`` declines."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser()[0].parse_args(argv)
    return exc.value.code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", USAGE_ERRORS, ids=lambda argv: " ".join(argv) or "no-args")
def test_usage_errors_match_top_level_parser(capsys, argv):
    """A list that ``_read_flags`` declines goes to the top-level parser
    as given (it holds no "--flag=--"), so ``main`` prints what that parser
    prints, byte for byte, and leftover arguments are reported by it."""
    want = top_level_parse(list(argv))
    assert want[0] == (EXIT_OK if "-h" in argv else EXIT_PARSE)
    assert run(capsys, *argv) == want
    if argv[-1:] in (("--bogus",), ("extra",)):
        assert want == (EXIT_PARSE, "", TOP_LEVEL_EXTRAS + argv[-1] + "\n")


# a flag given "--" as its value: ``main`` moves "--flag=--" to the end of
# the list as a bare "--flag" before argparse parses it, whatever else the
# list holds
DASH_VALUES = [
    ("series", "--n=--"),
    ("eval", "--inv=--", "--form", "H", "--field", "R"),
    ("verify", "--suite", "series", "--field=--"),
    ("verify", "--suite=--"),
    ("series", "--n", "1", "--format=--"),
    ("series", "--n=--", "--n", "2"),
    ("series", "--n=--", "extra"),
]


@pytest.mark.parametrize("argv", DASH_VALUES, ids=" ".join)
def test_dash_dash_value_is_a_missing_value(capsys, argv):
    """Exit 2 with the subparser's own error for that flag given no value."""
    (dashed,) = [a for a in argv if a.endswith("=--")]
    flag = dashed.partition("=")[0]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_PARSE, "")
    assert err.endswith(f"gwinv {argv[0]}: error: argument {flag}: expected one argument\n")
    assert (code, out, err) == run(capsys, *[a for a in argv if a != dashed], flag)


@pytest.mark.parametrize("argv", [("series", "--n", "1", "--=--"), ("series", "--n=--=--")], ids=" ".join)
def test_other_dash_values_go_to_argparse_as_given(capsys, argv):
    """Only a long flag whose whole value is "--" is moved: an empty flag
    ("ambiguous option") or a longer value ("invalid int value") reaches
    argparse unchanged."""
    assert run(capsys, *argv) == top_level_parse(list(argv))


@pytest.mark.parametrize(
    "argv, rewritten",
    [
        (("series", "--n", "1", "--", "--n=--"), ("series", "--n", "1", "--", "--n=--")),
        (("series", "--n=--", "--", "--n=--"), ("series", "--n", "--", "--n=--")),
        (("series", "--n=--", "--prec", "2", "--"), ("series", "--prec", "2", "--n", "--")),
    ],
    ids=["after", "both sides", "at the end"],
)
def test_dash_dash_rewrite_stops_at_the_first_bare_dash_dash(capsys, argv, rewritten):
    """A "--flag=--" after the first bare "--" reaches argparse as given,
    and one before it moves to just before that "--"."""
    assert run(capsys, *argv) == top_level_parse(list(rewritten))


def test_dash_dash_value_after_bare_dash_dash_is_unrecognized(capsys):
    assert run(capsys, "series", "--n", "1", "--", "--n=--") == (EXIT_PARSE, "", TOP_LEVEL_EXTRAS + "-- --n=--\n")


# the eval path's unchecked constructions: VALID_EVAL in both modes, and a
# literal with a constant, a lone g generator and a product with g factors
GUARDED_EVAL = [VALID_EVAL, (*VALID_EVAL, "--mode", "W")] + [
    ("eval", "--inv", "2*g[1,2]*f[1,1] - eps*g[1,3] + 1", "--form", "pf(t1)+pf(-1)", "--field", "R((t1))", "--mode", m)
    for m in "WH"
]


def test_eval_builds_only_checkable_values(capsys, monkeypatch):
    """``parse_invariant``, the W-mode sum of ``eval_f_sum``, ``hat_lift``
    and the canonical forms build their results through ``_of``.  With
    each ``_of`` replaced by its class's checking constructor, which must
    also keep the value as given (no zero to drop), every ``GUARDED_EVAL``
    request prints the same."""
    from gwinv import invariants, witt

    want = [run(capsys, *argv) for argv in GUARDED_EVAL]
    assert all(code == EXIT_OK for code, _, _ in want)
    slots = {
        witt.WittClass: ("field", "leaves"),
        witt.GwElement: ("field", "terms"),
        invariants.SymbolicInvariant: ("n", "mode", "coeffs"),
    }
    seen = set()

    def checking(cls, *args):
        seen.add(cls)
        value = cls(*args)
        assert [getattr(value, slot) for slot in slots[cls]] == list(args)
        return value

    for cls in slots:
        monkeypatch.setattr(cls, "_of", classmethod(checking))
    assert [run(capsys, *argv) for argv in GUARDED_EVAL] == want
    assert seen == set(slots)


# values for the differential test of ``_read_flags``: valid ones by flag
# kind, then ones argparse reads differently or rejects
VALID_VALUES = {
    "--inv": ["f[1,1]", "f[2,2]*f[2,1]", "1-eps*f[1,3]"],
    "--form": ["pf(t1)", "H", "pf(t1)+2*pf(-1)"],
    "--field": ["R((t1))", "F3", "C((t1))((t2))"],
    "--suite": ["pi", "ram", "nope"],
}
ODD_VALUES = ["", "-3", "--", "a=b", "1_0", " 7", "x", "1.5", "w", "-", "-x"]
# arguments that are not one exact long flag of any command, or not a flag
NOT_FLAGS = ["--fo", "--in", "--n-m", "--pre", "--f", "-h", "--help", "--", "--bogus", "extra", "-n"]


def argparse_reads(command, argv):
    """``vars()`` of the namespace ``command``'s subparser makes of argv, or
    None on a usage error, help text or leftover arguments."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            args, extras = cli.build_parser()[1][command][0].parse_known_args(argv)
        except SystemExit:
            return None
    return None if extras else vars(args)


def random_argv(rng, actions):
    """A seeded argument list over ``actions``: the required flags and some
    others, in either form, with sometimes an odd value, a repeated flag or
    an argument that is not an exact flag; and whether ``_read_flags`` must
    decline it."""
    chosen = [a for a in actions if a.required or rng.random() < 0.5]
    if rng.random() < 0.15:
        chosen.append(rng.choice(actions))  # a repeated flag
    rng.shuffle(chosen)
    argv, declined = [], len(set(chosen)) < len(chosen)
    for a in chosen:
        if rng.random() < 0.2:
            value = rng.choice(ODD_VALUES)
        else:
            value = rng.choice(a.choices or VALID_VALUES.get(a.option_strings[0]) or ["0", "1", "3", "16"])
        if rng.random() < 0.5:
            argv.append(f"{a.option_strings[0]}={value}")
            declined |= value == "--"
        else:
            argv += [a.option_strings[0], value]
            declined |= value.startswith("-")
    if rng.random() < 0.15:
        argv.insert(rng.randrange(len(argv) + 1), rng.choice(NOT_FLAGS))
        declined = True
    if rng.random() < 0.05:  # cut short, a flag may lose its value; no claim then
        return argv[: rng.randrange(len(argv) + 1)], False
    return argv, declined


@pytest.mark.parametrize("command", ["series", "eval", "verify"])
def test_read_flags_matches_argparse(command):
    """``_read_flags`` returns exactly what the subparser would, or None; an
    argument list with a repeated flag, a value "--", a value taken from a
    flag-like argument or an argument that is not an exact long flag is
    always declined and left to argparse."""
    rng = random.Random(f"read-flags {command}")
    actions = list(cli.build_parser()[1][command][1].values())
    read = 0
    for _ in range(4000):
        argv, declined = random_argv(rng, actions)
        got = cli._read_flags(command, argv)
        if got is None:
            continue
        assert not declined, argv
        assert vars(got) == argparse_reads(command, argv), argv
        read += 1
    assert read > 1000


@pytest.mark.parametrize(
    "command, argv",
    [
        ("series", ["--n", "2", "--n", "2"]),
        ("series", ["--n", "2", "--format", "xml"]),
        ("series", ["--prec", "4"]),
        ("series", ["--n=2", "--prec=x"]),
        ("series", ["--n", "-3"]),
        ("series", ["--n", "2", "--"]),
        ("eval", ["--inv=f[1,1]", "--form=H", "--field=--"]),
        ("eval", ["--inv=f[1,1]", "--form=H", "--fi=R"]),
        ("eval", ["--inv=f[1,1]", "--form=H", "--field=R", "-h"]),
        ("verify", ["--suite=pi", "--n-m=2"]),
        ("verify", ["--suite=pi", "extra"]),
        ("verify", ["--suite"]),
    ],
)
def test_read_flags_declines(command, argv):
    assert cli._read_flags(command, argv) is None


@pytest.mark.parametrize(
    "command, argv",
    [
        ("series", ["--n", "2", "--prec=-1", "--format=json"]),
        ("eval", ["--inv=-f[1,1]", "--form", "pf(t1)", "--field=R((t1))", "--mode", "W"]),
        ("verify", ["--suite", "pi", "--field=", "--n-max= 2", "--seed=1_0", "--mode=H"]),
    ],
)
def test_read_flags_reads_exact_long_flags(command, argv):
    got = cli._read_flags(command, argv)
    assert got is not None and vars(got) == argparse_reads(command, argv)


class TestSeries:
    def test_level_one_rows(self, capsys):
        code, out, _ = run(capsys, "series", "--n", "1", "--prec", "4")
        assert code == EXIT_OK
        lines = dict(line.split(": ") for line in out.strip().splitlines())
        assert lines["x"] == "0,1,1,1,1"
        assert lines["h"] == "0,1,-1,1,-1"

    def test_level_two_h_row(self, capsys):
        code, out, _ = run(capsys, "series", "--n", "2", "--prec", "4")
        assert code == EXIT_OK
        assert "h: 0,1,-2,5,-14" in out

    def test_degenerate_precision(self, capsys):
        code, out, _ = run(capsys, "series", "--n", "1", "--prec", "0")
        assert code == EXIT_OK
        assert "x: 0" in out

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "series", "--n", "1", "--prec", "3", "--format", "json")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["h"] == [0, 1, -1, 1]

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "series", "--n", "1", "--prec", "2", "--format", "csv")
        assert code == EXIT_OK
        assert "h,0,1,-1" in out

    def test_bad_level(self, capsys):
        code, _, err = run(capsys, "series", "--n", "0", "--prec", "4")
        assert code == EXIT_PARSE

    def test_negative_precision(self, capsys):
        code, _, err = run(capsys, "series", "--n", "1", "--prec", "-1")
        assert code == EXIT_PARSE
        assert "--prec" in err

    @pytest.mark.parametrize("n, prec", [(1, MAX_SERIES_SIZE), (2, 512), (MAX_SERIES_SIZE + 1, 0), (10**30, 10**30)])
    def test_size_above_cap_exit_2(self, capsys, monkeypatch, n, prec):
        # rejected before anything is built
        monkeypatch.setattr(cli, "build_h", None)
        monkeypatch.setattr(cli, "build_x", None)
        code, out, err = run(capsys, "series", "--n", str(n), "--prec", str(prec))
        assert code == EXIT_PARSE
        assert out == ""
        assert err == f"error: --n * (--prec + 1) exceeds the cap of {MAX_SERIES_SIZE}\n"

    def test_kernel_fault_is_reported_without_traceback(self, capsys, monkeypatch):
        def faulty(n, prec):
            raise series.ConsistencyError("level series x_1 does not match its binomial expansion")

        monkeypatch.setattr(cli, "build_h", faulty)
        code, out, err = run(capsys, "series", "--n", "1")
        assert (code, out) == (EXIT_FAIL, "")
        assert err == "error: level series x_1 does not match its binomial expansion\n"

    @pytest.mark.parametrize("n, prec", [(1, MAX_SERIES_SIZE - 1), (4, 255), (MAX_SERIES_SIZE, 0)])
    def test_size_at_cap_exit_0(self, capsys, n, prec):
        code, out, err = run(capsys, "series", "--n", str(n), "--prec", str(prec), "--format", "json")
        assert (code, err) == (EXIT_OK, "")
        assert len(json.loads(out)["h"]) == prec + 1

    @pytest.mark.cpu_budget
    @pytest.mark.parametrize("n, prec", [(1, 1023), (2, 511), (3, 340), (6, 169), (32, 31), (1024, 0)])
    def test_cap_line_within_cpu_budget(self, capsys, n, prec):
        """A cold dump on the cap line n * (prec + 1) <= 1024 takes at most
        0.25 s of process CPU.  (2, 511), the slowest, takes about 0.05 s
        on a 2-core x86 machine; it took 0.14 s when h_n was built by n - 1
        inversion steps, and 0.06 s when x_n was checked by them."""
        assert n * (prec + 1) <= MAX_SERIES_SIZE
        series._x_coeffs.cache_clear()
        series._h_coeffs.cache_clear()
        start = time.process_time()
        code, out, err = run(capsys, "series", "--n", str(n), "--prec", str(prec), "--format", "json")
        assert time.process_time() - start <= 0.25
        assert (code, err) == (EXIT_OK, "")
        assert len(json.loads(out)["h"]) == prec + 1


class TestEval:
    def test_two_pfister_sum(self, capsys):
        code, out, _ = run(
            capsys,
            "eval",
            "--inv", "f[1,2]",
            "--form", "pf(t1)+pf(t2)",
            "--field", "R((t1))((t2))",
            "--mode", "H",
        )
        assert code == EXIT_OK
        assert out.strip() == "(t1).(t2)"

    def test_pfister_killed(self, capsys):
        code, out, _ = run(
            capsys,
            "eval",
            "--inv", "f[2,3]",
            "--form", "pf(t1,t2)",
            "--field", "R((t1))((t2))",
            "--mode", "H",
        )
        assert code == EXIT_OK
        assert out.strip() == "0"

    def test_unit_invariant_on_hyperbolic(self, capsys):
        code, out, _ = run(
            capsys,
            "eval",
            "--inv", "g[1,0]",
            "--form", "H",
            "--field", "R((t1))",
        )
        assert code == EXIT_OK
        assert out.strip() == "1"

    def test_witt_mode_rendering(self, capsys):
        code, out, _ = run(
            capsys,
            "eval",
            "--inv", "f[1,1]",
            "--form", "pf(t1)",
            "--field", "R((t1))",
            "--mode", "W",
        )
        assert code == EXIT_OK
        assert out.strip() == "<1,-t1>"

    def test_requests_on_one_field_build_one_descriptor(self, capsys, monkeypatch):
        """Every request on one --field text gets the descriptor the first
        one built, so q's primality test runs once for all of them; a
        request that fails to parse keeps it too."""
        fields.parse_field.cache_clear()
        built, post_init = [], fields.FieldDescriptor.__post_init__
        monkeypatch.setattr(fields.FieldDescriptor, "__post_init__", lambda F: built.append(F) or post_init(F))
        requests = [("f[1,1]", "pf(t1)"), ("f[1,2]-eps", "pf(u,t1)+pf(t1)"), ("f[2,1]", "pf(t1)"), ("f[1,1]", "pf(v)")]
        codes = []
        for mode in ("W", "H"):
            for inv, form in requests:
                codes.append(run(capsys, "eval", f"--inv={inv}", f"--form={form}", "--field=F1000000007((t1))", f"--mode={mode}")[0])
        assert codes == [EXIT_OK, EXIT_OK, EXIT_MEMBERSHIP, EXIT_PARSE] * 2
        assert len(built) == 1 and str(built[0]) == "F1000000007((t1))"

    @pytest.mark.cpu_budget
    def test_large_multiplier_over_real_tower(self, capsys):
        # f_t(k pf(t1)) = (1 + {t1} t)^k: C(k, 2) is odd and {t1}^2 = (-1)(t1)
        start = time.perf_counter()
        code, out, _ = run(
            capsys,
            "eval",
            "--inv", "f[1,2]",
            "--form", "99999999999*pf(t1)",
            "--field", "R((t1))",
            "--mode", "H",
        )
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_OK
        assert out.strip() == "(-1).(t1)"

    @pytest.mark.parametrize(
        "inv, form",
        [
            ("f[1,1]", "9" * 5000 + "*pf(t1)"),
            ("f[1," + "9" * 5000 + "]", "pf(t1)"),
            ("eps^" + "9" * 5000 + "*f[1,1]", "pf(t1)"),
            ("9" * 5000 + "*f[1,1]", "pf(t1)"),
        ],
        ids=["form-coefficient", "f-index", "eps-exponent", "bare-factor"],
    )
    def test_overlong_integer_literal_exit_2(self, capsys, inv, form):
        code, out, err = run(capsys, "eval", f"--inv={inv}", f"--form={form}", "--field=R((t1))")
        assert code == EXIT_PARSE
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("parse error:")
        assert len(err) < 200

    # every numeric slot of the invariant, form and field grammars, as
    # (slot, invariant, form, field) with N standing for the integer
    NUMERIC_SLOTS = [
        ("eps-exponent", "eps^N*f[1,1]", "pf(t1)", "C((t1))"),
        ("f-level", "f[N,1]", "pf(t1)", "C((t1))"),
        ("f-degree", "f[1,N]", "pf(t1)", "C((t1))"),
        ("g-level", "g[N,1]", "pf(t1)", "C((t1))"),
        ("g-degree", "g[1,N]", "pf(t1)", "C((t1))"),
        ("factor", "N*f[1,1]", "pf(t1)", "C((t1))"),
        ("form-count", "f[1,1]", "N*pf(t1)", "C((t1))"),
        ("field-order", "f[1,1]", "pf(t1)", "FN((t1))"),
    ]

    @pytest.mark.cpu_budget
    @pytest.mark.parametrize("slot, inv, form, field", NUMERIC_SLOTS, ids=[s[0] for s in NUMERIC_SLOTS])
    @pytest.mark.parametrize("digits", [20, 4000])
    @pytest.mark.parametrize("mode", ["W", "H"])
    def test_huge_integer_in_every_numeric_slot(self, capsys, slot, inv, form, field, digits, mode):
        """Any integer in any slot either evaluates or fails with its exit
        code and one line on stderr, at once: no traceback, no unbounded
        allocation."""
        for number in ("1" + "0" * (digits - 1), "9" * digits):
            argv = [f"--inv={inv}", f"--form={form}", f"--field={field}", f"--mode={mode}"]
            argv = ["eval"] + [arg.replace("N", number) for arg in argv]
            start = time.perf_counter()
            code, out, err = run(capsys, *argv)
            assert time.perf_counter() - start < 1.0, (slot, number[:3])
            assert code in (EXIT_OK, EXIT_PARSE, EXIT_MEMBERSHIP), (slot, number[:3])
            if code == EXIT_OK:
                assert err == ""
            else:
                assert out == "" and len(err.splitlines()) == 1 and err.endswith("\n")

    @pytest.mark.parametrize("mode", ["W", "H"])
    @pytest.mark.parametrize(
        "inv",
        [
            "eps^100000000000000000000*f[1,1]",
            f"eps^{MAX_EPS_EXPONENT + 1}*f[1,1]",
            f"eps*eps^{MAX_EPS_EXPONENT}*f[1,1]",
            f"f[1,1] + eps^{MAX_EPS_EXPONENT // 2 + 1}*eps^{MAX_EPS_EXPONENT // 2}*f[1,2]",
        ],
        ids=["20-digit", "cap-plus-one", "sum-of-factors", "second-term"],
    )
    def test_eps_exponent_above_cap_exit_2(self, capsys, inv, mode):
        code, out, err = run(capsys, "eval", f"--inv={inv}", "--form=pf(-1)", "--field=R", f"--mode={mode}")
        assert code == EXIT_PARSE
        assert out == ""
        assert err.startswith("parse error: the eps exponent of ") and len(err.splitlines()) == 1
        assert err.endswith(f"exceeds the cap of {MAX_EPS_EXPONENT}\n")

    @pytest.mark.cpu_budget
    def test_eps_exponent_at_cap_exit_0(self, capsys):
        start = time.perf_counter()
        inv = f"eps^{MAX_EPS_EXPONENT // 2}*eps^{MAX_EPS_EXPONENT // 2}*f[1,1]"
        code, out, _ = run(capsys, "eval", f"--inv={inv}", "--form=pf(-1)", "--field=R", "--mode=H")
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_OK
        assert out == f"(-1)^{MAX_EPS_EXPONENT + 1}\n"

    @pytest.mark.cpu_budget
    @pytest.mark.parametrize("mode, code", [("W", EXIT_PARSE), ("H", EXIT_OK)])
    def test_coefficient_above_cap_exit_2_at_parse(self, capsys, mode, code):
        """A W-mode term whose integer factors multiply past MAX_COEFF_BITS
        fails before the next factor is multiplied in; without the cap, 100
        factors of 4,000 digits took 0.5-1 s before failing at render.
        Mode H reduces each factor mod 2 and is not capped."""
        inv = "*".join(["9" * 4000] * 100) + "*f[1,1]"
        start = time.process_time()
        got, out, err = run(capsys, "eval", f"--inv={inv}", "--form=pf(t1)", "--field=R((t1))", f"--mode={mode}")
        assert time.process_time() - start < 0.05
        assert got == code
        if code == EXIT_PARSE:
            assert out == "" and len(err.splitlines()) == 1
            assert err.startswith("parse error: the coefficient of '99999")
            assert err.endswith(f"exceeds the cap of {MAX_COEFF_BITS} bits\n")

    # worst-case requests at the total-degree cap: products of g generators,
    # whose f-rebasings are dense, long chains, the widest generator and the
    # sum of every g_1 generator up to it
    CORNERS = [
        "g[1,128]*g[1,128]",
        "*".join(["g[1,64]"] * 4),
        "*".join(["f[1,1]"] * 256),
        "*".join(["g[1,1]"] * 256),
        "f[1,128]*f[1,128]",
        "g[1,256]",
        "+".join(f"g[1,{k}]" for k in range(257)),
    ]

    @pytest.mark.cpu_budget
    @pytest.mark.parametrize("mode", ["W", "H"])
    @pytest.mark.parametrize("inv", CORNERS, ids=["g128^2", "g64^4", "f1^256", "g1^256", "f128^2", "g256", "sum-g1"])
    def test_cap_corner_within_cpu_budget(self, capsys, inv, mode):
        """Each corner takes at most 0.25 s of process CPU over a depth-6
        tower; the trinomial product took 0.6-0.8 s on the first four in
        mode W."""
        field = "F3" + "".join(f"((t{i}))" for i in range(1, 7))
        start = time.process_time()
        code, out, err = run(capsys, "eval", f"--inv={inv}", "--form=pf(t1)+pf(t2)-pf(t3)", f"--field={field}", f"--mode={mode}")
        assert time.process_time() - start <= 0.25
        assert code == EXIT_OK and out and err == ""

    # k*pf(t1) has f_2 = C(k, 2) {pf(t1)}^2 = k(k-1) <1,-t1> in W
    K = 99999999999

    @pytest.mark.cpu_budget
    @pytest.mark.parametrize(
        "inv, form, field, want",
        [
            ("1000000*f[1,1]", "pf(-1)", "R", "2000000*<1>"),
            ("f[1,2]", f"{K}*pf(t1)", "R((t1))", f"{K * (K - 1)}*<1> + {K * (K - 1)}*<-t1>"),
        ],
    )
    def test_large_witt_multiplicity_is_counted(self, capsys, inv, form, field, want):
        start = time.perf_counter()
        argv = ("eval", f"--inv={inv}", f"--form={form}", f"--field={field}", "--mode=W")
        code, out, _ = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_OK
        assert len(out.encode()) < 200
        assert out.strip() == want

    @pytest.mark.parametrize(
        "inv, form",
        [("eps^15000*f[1,1]", "pf(-1)"), ("f[1,256]", "99999999999999999999*pf(-1)")],
        ids=["eps-power", "divided-power"],
    )
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_overlong_witt_multiplicity_exit_2(self, capsys, inv, form, fmt):
        argv = ("eval", f"--inv={inv}", f"--form={form}", "--field=R", "--mode=W", f"--format={fmt}")
        code, out, err = run(capsys, *argv)
        assert code == EXIT_PARSE
        assert out == ""
        assert err == "error: the multiplicity of <1> has more than 4000 digits\n"

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run(
            capsys,
            "eval",
            "--inv", "f[1,1",
            "--form", "pf(t1)",
            "--field", "R((t1))",
        )
        assert code == EXIT_PARSE
        assert "parse error" in err

    def test_level_zero_exit_2(self, capsys):
        code, _, err = run(
            capsys,
            "eval",
            "--inv", "f[0,1]",
            "--form", "pf(t1)",
            "--field", "R((t1))",
        )
        assert code == EXIT_PARSE
        assert "parse error" in err

    def test_usage_error_then_request_in_one_process(self, capsys):
        request = (
            "eval",
            "--inv", "f[1,2]",
            "--form", "pf(t1)+pf(t2)",
            "--field", "R((t1))((t2))",
        )
        first = run(capsys, *request)
        code, _, err = run(capsys, "eval", "--inv", "f[1,2]", "--bogus")
        assert code == EXIT_PARSE
        assert "usage" in err
        assert first[0] == EXIT_OK
        assert run(capsys, *request) == first

    def test_membership_failure_exit_3(self, capsys):
        code, _, err = run(
            capsys,
            "eval",
            "--inv", "f[2,1]",
            "--form", "pf(t1)",
            "--field", "R((t1))",
        )
        assert code == EXIT_MEMBERSHIP
        assert "membership" in err

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys,
            "eval",
            "--inv", "f[1,1]",
            "--form", "pf(t1)",
            "--field", "R((t1))",
            "--format", "json",
        )
        assert code == EXIT_OK
        assert json.loads(out)["value"] == "(t1)"

    @pytest.mark.parametrize("form", ["-", "H-", "pf(t1)+"])
    def test_trailing_sign_exit_2(self, capsys, form):
        code, out, err = run(
            capsys, "eval", "--inv=f[1,1]", f"--form={form}", "--field=R((t1))"
        )
        assert code == EXIT_PARSE
        assert out == "" and "empty term" in err

    def test_field_order_bound_exit_2(self, capsys):
        code, out, err = run(
            capsys,
            "eval",
            "--inv", "f[1,1]",
            "--form", "pf(u)",
            "--field", "F100000000000000000039",
        )
        assert code == EXIT_PARSE
        assert out == "" and "below 2^40" in err

    @pytest.mark.parametrize("field", ["R((u))", "F3((u))", "C((1))"])
    def test_literal_variable_name_exit_2(self, capsys, field):
        code, out, err = run(capsys, "eval", "--inv", "f[1,1]", "--form", "pf(u)", "--field", field)
        assert code == EXIT_PARSE
        assert out == "" and "collides with a square-class literal" in err

    @pytest.mark.parametrize("inv", ["f[2,1]-f[2,1]", "f[2,0]", "3*g[2,0]"])
    @pytest.mark.parametrize("mode", ["W", "H"])
    def test_membership_checked_when_no_degree_is_read(self, capsys, inv, mode):
        code, out, err = run(
            capsys, "eval", f"--inv={inv}", "--form=pf(t1)", "--field=R((t1))", f"--mode={mode}"
        )
        assert (code, out) == (EXIT_MEMBERSHIP, "")
        assert err == "membership error: class is not in I^2\n"

    def test_csv_format_rejected(self, capsys):
        code, out, err = run(
            capsys,
            "eval",
            "--inv", "f[1,1]",
            "--form", "pf(t1)",
            "--field", "R((t1))",
            "--format", "csv",
        )
        assert code == EXIT_PARSE
        assert out == "" and "invalid choice" in err

    @pytest.mark.parametrize("inv", ["f[1,257]", "g[257,1]", "f[2,129]", "f[1,200]*f[1,57]"])
    def test_degree_above_cap_exit_2(self, capsys, inv):
        code, out, err = run(capsys, "eval", f"--inv={inv}", "--form=pf(t1)", "--field=R((t1))")
        assert code == EXIT_PARSE
        assert out == ""
        assert err == f"parse error: the total degree of {inv!r} exceeds the cap of {MAX_TOTAL_DEGREE}\n"

    @pytest.mark.parametrize("inv", ["f[1,256]", "f[256,1]", "2*g[16,16]"])
    @pytest.mark.parametrize("mode", ["W", "H"])
    def test_degree_at_cap_on_zero_class_exit_0(self, capsys, monkeypatch, inv, mode):
        # the formal zero never builds h_n or a row, however high the degree
        monkeypatch.setattr(divided, "build_h", None)
        monkeypatch.setattr(divided, "_binomial_row", None)
        code, out, err = run(
            capsys, "eval", f"--inv={inv}", "--form=H", "--field=F3((t1))", f"--mode={mode}"
        )
        assert (code, out, err) == (EXIT_OK, "0\n", "")

    @pytest.mark.parametrize("depth, code", [(6, EXIT_OK), (7, EXIT_PARSE)])
    def test_tower_depth_cap(self, capsys, depth, code):
        got, out, err = run(
            capsys, "eval", "--inv", "f[1,1]", "--form", "pf(t1)",
            "--field", tower(depth),
        )
        assert got == code
        if code == EXIT_OK:
            assert out.strip() == "(t1)"
        else:
            assert out == "" and err == DEPTH_7_ERROR


class TestVerify:
    def test_vacuous_pass(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "--suite", "pi", "--samples", "0", "--n-max", "1",
            "--d-max", "2", "--format", "json",
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["cases_failed"] == 0

    def test_unknown_suite(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "nope")
        assert code == EXIT_PARSE
        assert "unknown suite" in err

    def test_series_suite_passes(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "series", "--prec", "16",
            "--format", "json",
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["cases_failed"] == 0
        assert report["first_failure"] is None

    def test_defaults_are_run_config_defaults(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "series", "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out)["config"] == RunConfig().to_dict()

    def test_prec_at_cap_runs(self, capsys, monkeypatch):
        # the stub stands in for the O(prec^3) series suite
        seen = []

        def stub(name, cfg):
            seen.append((name, cfg.prec))
            return {"suite": name, "cases_total": 1, "cases_failed": 0, "first_failure": None}

        monkeypatch.setattr(verify, "run_suite", stub)
        code, out, err = run(capsys, "verify", "--suite", "series", "--prec", str(MAX_VERIFY_PREC))
        assert (code, err) == (EXIT_OK, "")
        assert seen == [("series", MAX_VERIFY_PREC)]
        assert "PASS" in out

    @pytest.mark.parametrize("prec", [MAX_VERIFY_PREC + 1, 10**30])
    @pytest.mark.parametrize("suite", ["series", "pi", "nope"])
    def test_prec_above_cap_exits_2(self, capsys, monkeypatch, suite, prec):
        # rejected before any suite runs
        monkeypatch.setattr(verify, "run_suite", None)
        code, out, err = run(capsys, "verify", "--suite", suite, "--prec", str(prec))
        assert code == EXIT_PARSE
        assert out == ""
        assert err == f"error: --prec exceeds the cap of {MAX_VERIFY_PREC}\n"

    @pytest.mark.parametrize("d_max", [MAX_VERIFY_DEGREE + 1, 10**30])
    @pytest.mark.parametrize("suite", ["simil", "fixed-dim", "nope"])
    def test_d_max_above_cap_exits_2(self, capsys, monkeypatch, suite, d_max):
        # rejected before any suite runs
        monkeypatch.setattr(verify, "run_suite", None)
        code, out, err = run(capsys, "verify", "--suite", suite, "--d-max", str(d_max))
        assert code == EXIT_PARSE
        assert out == ""
        assert err == f"error: --d-max exceeds the cap of {MAX_VERIFY_DEGREE}\n"

    @pytest.mark.cpu_budget
    def test_d_max_at_cap_within_cpu_budget(self, capsys):
        """At the cap, 20 samples of ``simil``, the suite whose cost grows
        fastest with --d-max, take under 1 s of process CPU (about 0.25 s
        on a 2-core x86 machine)."""
        start = time.process_time()
        code, out, err = run(capsys, "verify", "--suite", "simil", "--samples", "20", "--d-max", str(MAX_VERIFY_DEGREE))
        assert time.process_time() - start < 1.0
        assert (code, err) == (EXIT_OK, "") and "PASS" in out

    @pytest.mark.parametrize("n_max", [MAX_VERIFY_LEVEL + 1, 10**30])
    @pytest.mark.parametrize("suite", ["pi", "f-axioms", "nope"])
    def test_n_max_above_cap_exits_2(self, capsys, monkeypatch, suite, n_max):
        # rejected before any suite runs
        monkeypatch.setattr(verify, "run_suite", None)
        code, out, err = run(capsys, "verify", "--suite", suite, "--n-max", str(n_max))
        assert code == EXIT_PARSE
        assert out == ""
        assert err == f"error: --n-max exceeds the cap of {MAX_VERIFY_LEVEL}\n"

    @pytest.mark.cpu_budget
    def test_n_max_at_cap_within_cpu_budget(self, capsys):
        """At the cap, ``pi``, whose exhaustive family grows like n^7 in
        --n-max, takes under 3 s of process CPU with no sampled case (about
        1.1 s on a 2-core x86 machine)."""
        start = time.process_time()
        code, out, err = run(
            capsys, "verify", "--suite", "pi", "--samples", "0", "--d-max", "1", "--n-max", str(MAX_VERIFY_LEVEL)
        )
        assert time.process_time() - start < 3.0
        assert (code, err) == (EXIT_OK, "") and "PASS" in out

    FAILURE = "g-bounds/beyond-bound: g_1^5 = 0 beyond 2max(s,t)=4 over C (W, case 0)"
    FAILURE_REPORTS = {
        "text": (
            "suite=g-bounds cases=38 failed=22 FAIL\n"
            f"  first failure: {FAILURE}\n"
            "    expected: 0\n"
            "    got:      <1>\n"
        ),
        "json": (
            '{"cases_failed": 22, "cases_total": 38, "config": {"d_max": 6, "field": null, "mode": null, '
            '"n_max": 3, "prec": 32, "samples": 4, "seed": 0}, "first_failure": {"expected": "0", '
            f'"got": "<1>", "inputs": "{FAILURE}"}}, "suite": "g-bounds"}}\n'
        ),
        "csv": (
            "suite,cases_total,cases_failed,first_failure\r\n"
            'g-bounds,38,22,"{""expected"": ""0"", ""got"": ""<1>"", '
            f'""inputs"": ""{FAILURE}""}}"\r\n'
        ),
    }

    @pytest.mark.parametrize("fmt", FAILURE_REPORTS)
    def test_failure_report(self, capsys, monkeypatch, fmt):
        """A suite that fails exits 1 and shows its first failure in every
        format; g_n^d is made <1> everywhere, so the beyond-bound cases fail."""
        monkeypatch.setattr(verify, "eval_g", lambda n, d, q, target: target.one(q.field))
        code, out, err = run(capsys, "verify", "--suite", "g-bounds", "--samples", "4", "--format", fmt)
        assert (code, out, err) == (EXIT_FAIL, self.FAILURE_REPORTS[fmt], "")

    def test_deterministic_reports(self, capsys):
        args = [
            "verify", "--suite", "f-axioms", "--samples", "5", "--seed", "3",
            "--n-max", "2", "--d-max", "3", "--format", "json",
        ]
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == EXIT_OK
        assert out1 == out2

    def test_suite_without_applicable_case_exits_2(self, capsys):
        # the ramification identities need a tower of depth >= 1
        code, out, err = run(
            capsys, "verify", "--suite", "ram", "--field", "C", "--samples", "4",
        )
        assert code == EXIT_PARSE
        assert out == "" and "no case" in err

    def test_g_bounds_over_R_skips_quad_closed_family(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "g-bounds", "--field", "R",
            "--samples", "4", "--n-max", "2", "--d-max", "3", "--format", "json",
        )
        assert code == EXIT_OK
        assert json.loads(out)["cases_total"] > 0

    def test_classify_over_R_skips_disc_family(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "classify", "--field", "R",
            "--samples", "4", "--n-max", "2", "--d-max", "3", "--format", "json",
        )
        assert code == EXIT_OK
        assert json.loads(out)["cases_total"] > 0

    def test_text_report(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "restrict", "--samples", "4",
            "--n-max", "2", "--d-max", "3",
        )
        assert code == EXIT_OK
        assert "suite=restrict" in out and "PASS" in out

    @pytest.mark.parametrize(
        "suite, flag, value",
        [
            ("pi", "--n-max", "0"),
            ("restrict", "--n-max", "0"),
            ("pi", "--d-max", "0"),
            ("f-axioms", "--d-max", "0"),
            ("delta1", "--d-max", "0"),
            ("simil", "--d-max", "-2"),
            ("series", "--prec", "0"),
            ("pi", "--samples", "-1"),
        ],
    )
    def test_flag_below_minimum_exits_2(self, capsys, suite, flag, value):
        code, out, err = run(capsys, "verify", "--suite", suite, flag, value)
        assert code == EXIT_PARSE
        assert out == "" and err.startswith(f"error: {flag} must be >=")

    @pytest.mark.cpu_budget
    @pytest.mark.parametrize("suite", ["ram", "coh-ops"])
    def test_large_q_tower_within_cpu_budget(self, capsys, suite):
        """Over q = 1099511627689, an odd prime power just below the 2^40
        cap, 50 samples take under 1 s of process CPU.  Only q mod 4 enters
        the arithmetic; each derived field once reran the trial-division
        primality test (about 0.07 s for this q), and ``ram`` took 28 s."""
        start = time.process_time()
        code, out, err = run(capsys, "verify", "--suite", suite, "--field", "F1099511627689((t1))((t2))", "--samples", "50")
        assert time.process_time() - start < 1.0
        assert (code, err) == (EXIT_OK, "") and "PASS" in out

    @pytest.mark.parametrize("field", ["Q", "R((t))((t))", "F100000000000000000039"])
    def test_bad_field_exits_2(self, capsys, field):
        code, out, err = run(capsys, "verify", "--suite", "pi", "--field", field)
        assert code == EXIT_PARSE
        assert out == "" and err.startswith("parse error: ")

    @pytest.mark.parametrize("field", ["", "Q", "R((t))((t))", "F100000000000000000039", "F9((t1)", tower(7)])
    @pytest.mark.parametrize("suite", ["pi", "series", "ram"])
    def test_bad_field_error_text(self, capsys, suite, field):
        with pytest.raises(fields.FieldSyntaxError) as exc:
            fields.parse_field(field)
        for form in (("--field", field), (f"--field={field}",)):
            assert run(capsys, "verify", "--suite", suite, *form) == (EXIT_PARSE, "", f"parse error: {exc.value}\n")

    def test_field_is_parsed_once(self, capsys, monkeypatch):
        """The primality test of a large q, most of the command's CPU, runs
        once: the suite parses --field, and the command does not first."""
        fields.parse_field.cache_clear()  # an earlier test may have parsed this text
        calls = []
        prime_power = fields._is_odd_prime_power
        monkeypatch.setattr(fields, "_is_odd_prime_power", lambda q: calls.append(q) or prime_power(q))
        code, out, err = run(capsys, "verify", "--suite", "ram", "--field", "F1099511627689((t1))((t2))", "--samples", "5")
        assert (code, err) == (EXIT_OK, "") and "PASS" in out
        assert calls == [1099511627689]

    @pytest.mark.parametrize("depth, code", [(6, EXIT_OK), (7, EXIT_PARSE)])
    def test_tower_depth_cap(self, capsys, depth, code):
        got, out, err = run(
            capsys, "verify", "--suite", "delta1", "--field", tower(depth),
            "--samples", "1", "--n-max", "1", "--d-max", "1",
        )
        assert got == code
        if code == EXIT_OK:
            assert "PASS" in out
        else:
            assert out == "" and err == DEPTH_7_ERROR

    @pytest.mark.parametrize("field", ["C", "R", "F3", "F5((t1))", "R((t1))"])
    @pytest.mark.parametrize("suite", sorted(SUITES))
    def test_every_suite_runs_on_one_field(self, capsys, suite, field):
        # a family that needs a field kind absent from --field is skipped
        code, _, _ = run(
            capsys, "verify", "--suite", suite, "--field", field, "--samples", "2",
            "--n-max", "1", "--d-max", "2", "--prec", "4",
        )
        depth0 = "((" not in field
        assert code == (EXIT_PARSE if suite == "ram" and depth0 else EXIT_OK)

    @pytest.mark.parametrize("suite", ["series", "pi", "f-axioms", "restrict", "simil", "delta1"])
    def test_flag_minimums_run(self, capsys, suite):
        code, out, _ = run(
            capsys, "verify", "--suite", suite, "--n-max", "1", "--d-max", "1",
            "--prec", "1", "--samples", "0",
        )
        assert code == EXIT_OK
        assert "PASS" in out


# The verify ``product`` suite and the ``bench/workloads.py`` eval requests
# that multiply two generators, printed as reports and (rc, stdout, stderr).
HASH_SEED_DIGEST = """
import contextlib, io, json
import workloads
from gwinv import cli
from gwinv.verify import RunConfig, run_suite

print(json.dumps(run_suite("product", RunConfig()), sort_keys=True))
for req in workloads.eval_ops(7):
    if any(len(degs) == 2 for _, _, degs in req.inv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(req.argv)
        print(repr((rc, out.getvalue(), err.getvalue())))
"""


def test_output_does_not_depend_on_the_hash_seed():
    root = Path(__file__).resolve().parent.parent
    path = os.pathsep.join(str(root / sub) for sub in ("src", "bench"))
    runs = [
        subprocess.Popen(
            [sys.executable, "-c", HASH_SEED_DIGEST],
            env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
            stdout=subprocess.PIPE,
            text=True,
        )
        for seed in ("1", "12345")
    ]
    outs = [proc.communicate(timeout=60)[0] for proc in runs]
    assert [proc.returncode for proc in runs] == [0, 0]
    assert outs[0].count("\n") > 700
    assert outs[0] == outs[1]

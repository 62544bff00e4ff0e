"""Command-line interface: output shapes, exit codes, determinism."""

import json
import time

import pytest

from gwinv import divided
from gwinv.cli import EXIT_MEMBERSHIP, EXIT_OK, EXIT_PARSE, main
from gwinv.invariants import MAX_TOTAL_DEGREE
from gwinv.verify import SUITES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def tower(depth):
    return "C" + "".join(f"((t{i}))" for i in range(1, depth + 1))


DEPTH_7_ERROR = "parse error: tower depth 7 exceeds the cap of 6\n"


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

    # k*pf(t1) has f_2 = C(k, 2) {pf(t1)}^2 = k(k-1) <1,-t1> in W
    K = 99999999999

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
        # the formal zero never builds h_n, however high the degree
        monkeypatch.setattr(divided, "h_power_columns", None)
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

    @pytest.mark.parametrize("field", ["Q", "R((t))((t))", "F100000000000000000039"])
    def test_bad_field_exits_2(self, capsys, field):
        code, out, err = run(capsys, "verify", "--suite", "pi", "--field", field)
        assert code == EXIT_PARSE
        assert out == "" and err.startswith("parse error: ")

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

"""Every identity suite runs clean at moderate parameters, and the report
format honors its contract."""

import json

import pytest

from gwinv.verify import RunConfig, SUITES, _report, run_suite

MODERATE = {
    "series": RunConfig(prec=24),
    "lambda": RunConfig(samples=60, prec=24),
    "pi": RunConfig(samples=40, n_max=3, d_max=5),
    "f-axioms": RunConfig(samples=40, n_max=3, d_max=5),
    "g-bounds": RunConfig(samples=40, n_max=3),
    "classify": RunConfig(samples=40, n_max=3, d_max=6),
    "product": RunConfig(samples=40, n_max=3, d_max=5),
    "restrict": RunConfig(samples=40, n_max=2, d_max=5),
    "simil": RunConfig(samples=40, n_max=3, d_max=5),
    "ram": RunConfig(samples=40, n_max=3, d_max=4),
    "fixed-dim": RunConfig(samples=30, d_max=8),
    "coh-ops": RunConfig(samples=40, n_max=2, d_max=5),
    "delta1": RunConfig(samples=50, n_max=3, d_max=4),
}

# cases_total of each MODERATE run when the suites became case generators;
# a refactor may add cases but must not lose any
MODERATE_FLOORS = {
    "classify": 909,
    "coh-ops": 486,
    "delta1": 326,
    "f-axioms": 300,
    "fixed-dim": 158,
    "g-bounds": 272,
    "lambda": 5091,
    "pi": 2988,
    "product": 2015,
    "ram": 280,
    "restrict": 91,
    "series": 1719,
    "simil": 240,
}


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_passes(name):
    report = run_suite(name, MODERATE[name])
    assert report["cases_failed"] == 0, report["first_failure"]
    assert report["cases_total"] >= MODERATE_FLOORS[name]


def test_report_schema():
    report = run_suite("restrict", RunConfig(samples=3, n_max=1, d_max=2))
    assert set(report) == {
        "suite",
        "config",
        "cases_total",
        "cases_failed",
        "first_failure",
    }
    json.dumps(report)  # must be serializable as-is


def test_reports_are_deterministic():
    cfg = RunConfig(samples=10, n_max=2, d_max=4, seed=5)
    a = run_suite("simil", cfg)
    b = run_suite("simil", RunConfig(samples=10, n_max=2, d_max=4, seed=5))
    assert a == b


def test_seed_changes_sampling():
    a = run_suite("f-axioms", RunConfig(samples=10, seed=0))
    b = run_suite("f-axioms", RunConfig(samples=10, seed=1))
    assert a["cases_failed"] == b["cases_failed"] == 0
    assert a["config"] != b["config"]


def test_unknown_suite_rejected():
    with pytest.raises(KeyError):
        run_suite("nonsense", RunConfig())


def test_failure_reporting_shape():
    # feed failing cases to the driver's tally to pin the failure payload
    report = _report("demo", RunConfig(), [("inputs text", 1, 2), ("later", 3, 4)])
    assert report["cases_failed"] == 2
    assert report["first_failure"] == {
        "inputs": "inputs text",
        "expected": "1",
        "got": "2",
    }


def test_boolean_failure_payload():
    cases = [("holds", True, True), ("fails", True, False), ("also fails", True, False)]
    report = _report("demo", RunConfig(), cases)
    assert (report["cases_total"], report["cases_failed"]) == (3, 2)
    assert report["first_failure"] == {"inputs": "fails", "expected": "true", "got": "false"}


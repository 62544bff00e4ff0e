"""The report of ``scripts/coverage.py`` on a toy package (the script itself
traces a whole pytest run, outside tier-1)."""

import importlib.util
import sys
from pathlib import Path

import pytest

path = Path(__file__).resolve().parent.parent / "scripts" / "coverage.py"
spec = importlib.util.spec_from_file_location("coverage_script", path)
coverage = importlib.util.module_from_spec(spec)
spec.loader.exec_module(coverage)

TOY = '''\
"""A toy module."""


def sign(x):
    if x < 0:
        return -1
    if x == 0:
        return 0
    return 1


@staticmethod
def unused():
    """Never called."""
    return None


def twice():
    return [sign(x) for x in (-1, 0)]
'''


def _load(package: Path):
    spec = importlib.util.spec_from_file_location("toy_sign", package / "sign.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_report_names_the_lines_never_run(tmp_path):
    package = tmp_path / "toy"
    package.mkdir()
    (package / "sign.py").write_text(TOY)
    (package / "empty.py").write_text('"""Nothing but a docstring."""\n')

    def run():
        module = _load(package)
        return module.sign(5), module.sign(-2)

    result, hits = coverage.trace_lines(run, package)
    assert result == (1, -1)
    # the module runs 1, 4, 12, 13 and 18; sign 5-9, unused 15, twice 19
    assert coverage.executable_lines(package / "sign.py") == {1, 4, 5, 6, 7, 8, 9, 12, 13, 15, 18, 19}
    assert coverage.report(package, hits) == [
        "toy/empty.py: 1 of 1 lines unreached: 1",
        "toy/sign.py: 3 of 12 lines unreached: 8, 15, 19",
        "total: 4 of 13 lines unreached",
    ]


def test_ranges_run_over_unexecutable_lines():
    assert coverage._ranges({3, 4, 9, 12}, {1, 3, 4, 7, 9, 12, 15}) == "3-4, 9-12"
    assert coverage._ranges(set(), {1}) == ""


def test_exit_code_needs_both_runs_to_pass():
    assert coverage.exit_code(0, 0) == 0
    assert coverage.exit_code(0, 1) == 1
    assert coverage.exit_code(1, 0) == 1
    assert coverage.exit_code(2, 1) == 2
    # a selection with no budget test, or with nothing else, still passes
    assert coverage.exit_code(0, 5) == 0
    assert coverage.exit_code(5, 0) == 0
    assert coverage.exit_code(5, 1) == 1
    assert coverage.exit_code(5, 5) == 5


@pytest.mark.parametrize("codes, want", [((0, 0), 0), ((0, 1), 1), ((1, 0), 1)])
def test_main_traces_all_but_the_budget_tests_then_runs_those(monkeypatch, capsys, codes, want):
    runs, outer = [], sys.gettrace()

    def fake_main(args, plugins):
        runs.append((args, sys.gettrace() is not outer))
        return codes[len(runs) - 1]

    # main switches off bytecode for the whole process; undo that here
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.setattr(pytest, "main", fake_main)
    assert coverage.main(["tests/test_demos.py"]) == want
    assert runs == [
        (["-p", "no:cacheprovider", "tests/test_demos.py", "-m", "not cpu_budget"], True),
        (["-p", "no:cacheprovider", "tests/test_demos.py", "-m", "cpu_budget"], False),
    ]
    out = capsys.readouterr().out.splitlines()
    assert out[-2:] == [
        f"traced run, -m 'not cpu_budget': pytest exit code {codes[0]}",
        f"untraced run, -m cpu_budget: pytest exit code {codes[1]}",
    ]
    assert out[-3].startswith("total: ")

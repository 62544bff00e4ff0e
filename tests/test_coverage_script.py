"""The report of ``scripts/coverage.py`` on a toy package (the script itself
traces a whole pytest run, outside tier-1)."""

import importlib.util
from pathlib import Path

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

"""Print the lines of ``src/gwinv`` that a pytest run never executes.

    python3 scripts/coverage.py [PYTEST_ARGS...]

Run it from the root of a checkout.  It runs pytest in this process (with
no arguments, tier-1: ``testpaths`` of ``pyproject.toml``) twice.  The
first run, ``-m "not cpu_budget"``, is under a ``sys.settrace`` tracer that
records the lines run in files under ``src/gwinv``; the second runs the
tests marked ``cpu_budget`` (those that assert a time budget, which the
tracer would break) untraced; the script passes its own ``-m`` after
PYTEST_ARGS.  It then prints one line per module, ``gwinv/M.py: k of n
lines unreached: a-b, c``, a total, and the exit code of each run.  The
executable lines of a module are those that its compiled code objects name
in their line tables, less each function's own ``def`` line, which the
enclosing code runs; docstrings and blank lines are not counted.  Code
that runs in a subprocess (the demos, the CLI subprocess tests) is not
seen, so the unreached lines are an upper bound.

Pytest's cache is off, no bytecode is written (here or by subprocesses),
and Hypothesis keeps its database in a temporary directory that is removed
at the end, so the run writes nothing else.  Tracing makes tier-1 about
three times slower.  The script exits 0 when both runs pass, or one passes
and the other has no test to run; otherwise with the first other exit code
(``exit_code``).
"""

from __future__ import annotations

import os
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gwinv"


def executable_lines(path: Path) -> set[int]:
    """The lines of ``path`` that its compiled code can run."""
    lines, stack = set(), [(compile(path.read_text(encoding="utf-8"), str(path), "exec"), None)]
    while stack:
        code, def_line = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line and line != def_line)
        stack.extend((const, const.co_firstlineno) for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


def trace_lines(run, root: Path):
    """``run()``'s result, and the lines it ran in each file under ``root``
    (by resolved path)."""
    prefix, hits, where = str(root.resolve()) + os.sep, {}, {}

    def local(frame, event, arg):
        if event == "line":
            hits[where[frame.f_code.co_filename]].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in where:
            path = os.path.realpath(name)
            where[name] = path if path.startswith(prefix) else None
            hits.setdefault(where[name], set())
        return local if where[name] else None

    previous = sys.gettrace()
    sys.settrace(call)
    try:
        result = run()
    finally:
        sys.settrace(previous)
    hits.pop(None, None)
    return result, hits


def _ranges(lines: set[int], executable: set[int]) -> str:
    """``lines`` as ranges, a range running over lines that are consecutive
    among the ``executable`` ones."""
    position = {line: i for i, line in enumerate(sorted(executable))}
    spans: list[list[int]] = []
    for line in sorted(lines):
        if spans and position[line] == position[spans[-1][1]] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def report(root: Path, hits: dict[str, set[int]]) -> list[str]:
    """One line per module under ``root``, then the total."""
    out, missed_total, total = [], 0, 0
    for path in sorted(root.resolve().rglob("*.py")):
        executable = executable_lines(path)
        missed = executable - hits.get(str(path), set())
        name = path.relative_to(root.resolve().parent).as_posix()
        if missed:
            out.append(f"{name}: {len(missed)} of {len(executable)} lines unreached: {_ranges(missed, executable)}")
        else:
            out.append(f"{name}: all {len(executable)} lines reached")
        missed_total, total = missed_total + len(missed), total + len(executable)
    out.append(f"total: {missed_total} of {total} lines unreached")
    return out


class _HypothesisHome:
    """A pytest plugin that points Hypothesis's database at ``path`` once
    the tests are collected, before any runs (and without importing
    Hypothesis ahead of pytest's own plugin)."""

    def __init__(self, path: str):
        self.path = path

    def pytest_collection_finish(self, session):
        try:
            from hypothesis.configuration import set_hypothesis_home_dir
        except ImportError:
            return
        set_hypothesis_home_dir(self.path)


# pytest's exit code when a run selects no test
NO_TESTS = 5


def exit_code(traced: int, untraced: int) -> int:
    """The script's exit code from those of its two pytest runs."""
    codes = [code for code in (traced, untraced) if code != NO_TESTS]
    return next((code for code in codes if code), 0) if codes else NO_TESTS


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    import pytest

    sys.dont_write_bytecode = True
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    with tempfile.TemporaryDirectory() as tmp:

        def run(marks: str) -> int:
            return int(pytest.main(["-p", "no:cacheprovider", *args, "-m", marks], plugins=[_HypothesisHome(tmp)]))

        traced, hits = trace_lines(lambda: run("not cpu_budget"), SRC)
        untraced = run("cpu_budget")
    print("\n".join(report(SRC, hits)))
    print(f"traced run, -m 'not cpu_budget': pytest exit code {traced}")
    print(f"untraced run, -m cpu_budget: pytest exit code {untraced}")
    return exit_code(traced, untraced)


if __name__ == "__main__":
    sys.exit(main())

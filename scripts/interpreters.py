"""Run the digests of ``scripts/equivalence.py`` under several interpreters
and print a table of which agree.

    python3 scripts/interpreters.py PYTHON [PYTHON ...]

Each PYTHON is the path of an interpreter; the script searches no file
system for others.  Each one runs this checkout's ``equivalence.py`` bare
(``-I -S -B``: no site-packages, no ``PYTHON*`` variables, no bytecode
written) from the root of the checkout, one after the other.  The table has
a row per digest and a column per interpreter, headed by its version:
the first column holds the first 12 hex digits of each digest, and every
other column ``=`` where its digest is the same, the first 12 hex digits
where it differs, and ``-`` where it has none (the run failed; its stderr
follows the table).  The exit code is 0 when every digest matches in every
column, and 1 otherwise.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "equivalence.py"


def digests(python: str) -> tuple[str, dict[str, str], str]:
    """The version of ``python``, its ``{name: hex}`` digests, and the
    stderr of a failed run ('' after a clean one)."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    version = subprocess.run(
        [python, "-I", "-S", "-c", "import platform; print(platform.python_version())"],
        capture_output=True, text=True, env=env,
    ).stdout.strip() or python
    run = subprocess.run([python, "-I", "-S", "-B", str(SCRIPT)], cwd=ROOT, capture_output=True, text=True, env=env)
    found = dict(line.split(" ", 1) for line in run.stdout.splitlines() if " " in line)
    return version, found, run.stderr if run.returncode else ""


def table(columns: list[tuple[str, dict[str, str]]]) -> tuple[list[str], bool]:
    """The lines of the table over (version, digests) columns, the first
    one the reference, and whether every digest matched."""
    names = list(dict.fromkeys(name for _, found in columns for name in found))
    first = columns[0][1]
    rows = [["digest"] + [version for version, _ in columns]]
    same = True
    for name in names:
        row = [name, first.get(name, "-")[:12]]
        for _, found in columns[1:]:
            value = found.get(name)
            row.append("-" if value is None else "=" if value == first.get(name) else value[:12])
        same &= all(cell == "=" for cell in row[2:]) and name in first
        rows.append(row)
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows], same and bool(names)


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: python3 scripts/interpreters.py PYTHON [PYTHON ...]", file=sys.stderr)
        return 2
    results = [digests(python) for python in argv]
    lines, same = table([(version, found) for version, found, _ in results])
    print("\n".join(lines))
    for python, (version, _, err) in zip(argv, results):
        if err:
            print(f"\n{version} ({python}) failed:\n{err}", file=sys.stderr)
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

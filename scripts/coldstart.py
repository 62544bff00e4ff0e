"""Print the cost of a fresh `gwinv` process: CPU time and peak RSS.

    python3 scripts/coldstart.py [--runs N] [--root CHECKOUT]

Each command runs in a new interpreter, as the `gwinv` console script
would (``gwinv.cli.entry``), with ``CHECKOUT/src`` (default: this checkout)
as its only ``PYTHONPATH`` and ``PYTHONDONTWRITEBYTECODE=1``.  The table
gives the median over N runs of the child's user + system CPU and its
``ru_maxrss``, both read from ``os.wait4``, in two bytecode states of a
temporary ``-X pycache_prefix``:

* ``no-bytecode``: the prefix holds the bytecode of every module the
  commands import except those of the checkout, which are compiled from
  source on every run (a ``__pycache__`` in the checkout is not read:
  the prefix replaces it);
* ``bytecode``: the prefix holds the checkout's bytecode as well.

``bare`` is an interpreter that runs nothing.  The prefix and the working
directory are temporary directories, so nothing is written into the
checkout.  The runs of the commands alternate, so a slow stretch of the
machine is spread over all of them.  Compare two checkouts by running the
script on each, alternately.
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ENTRY = "from gwinv.cli import entry; entry()"
COMMANDS = {
    "bare": ["-c", "pass"],
    "series": ["-c", ENTRY, "series", "--n", "2", "--prec", "8"],
    "eval": [
        "-c", ENTRY, "eval", "--inv", "g[1,2]", "--form", "pf(t1)+pf(t2)",
        "--field", "F3((t1))((t2))", "--mode", "W",
    ],
    "verify": ["-c", ENTRY, "verify", "--suite", "series", "--prec", "4"],
}


def run_once(argv: list[str], env: dict, cwd: str) -> tuple[float, float]:
    """(CPU ms, peak RSS MB) of one child process, which must exit 0."""
    proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise SystemExit(f"error: {argv[1:]} exited {proc.returncode}")
    return (usage.ru_utime + usage.ru_stime) * 1e3, usage.ru_maxrss / 1024


def measure(root: Path, runs: int) -> dict[str, dict[str, list[tuple[float, float]]]]:
    """{state: {command: samples}} for both bytecode states."""
    src = root / "src"
    with tempfile.TemporaryDirectory() as prefix, tempfile.TemporaryDirectory() as cwd:
        env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        env["PYTHONPATH"] = str(src)
        argvs = {
            name: [sys.executable, "-X", f"pycache_prefix={prefix}", *args]
            for name, args in COMMANDS.items()
        }
        out = {}
        for state in ("no-bytecode", "bytecode"):
            env.pop("PYTHONDONTWRITEBYTECODE", None)
            for argv in argvs.values():  # unmeasured: fills the prefix
                run_once(argv, env, cwd)
            if state == "no-bytecode":
                shutil.rmtree(prefix + str(src))  # the prefix mirrors absolute source paths
            env["PYTHONDONTWRITEBYTECODE"] = "1"
            out[state] = {name: [] for name in argvs}
            for _ in range(runs):
                for name, argv in argvs.items():
                    out[state][name].append(run_once(argv, env, cwd))
        return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--runs", type=int, default=12, help="runs per command and state (default 12)")
    p.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    args = p.parse_args(argv)
    if not (args.root / "src" / "gwinv" / "__init__.py").is_file():
        p.error(f"no gwinv sources under {args.root / 'src'}")
    if args.runs < 1:
        p.error("--runs must be >= 1")
    print(f"{args.root}: median of {args.runs} runs, {sys.implementation.name} {sys.version.split()[0]}")
    print(f"{'state':<12} {'command':<8} {'cpu_ms':>8} {'peak_rss_mb':>12}")
    for state, table in measure(args.root.resolve(), args.runs).items():
        for name, samples in table.items():
            cpu = statistics.median(c for c, _ in samples)
            rss = statistics.median(r for _, r in samples)
            print(f"{state:<12} {name:<8} {cpu:>8.1f} {rss:>12.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Seeded inputs and closed-loop runners for the three benchmark workloads.

Each workload is a list of operations generated from the seed alone; one
client thread sends the next operation only after the previous one returns.
The library is reached only through public entry points:
``gwinv.verify.run_suite`` and ``gwinv.cli.main``.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
from collections import Counter
from dataclasses import dataclass

import calibrate

# The run_suite calls of tests/test_acceptance.py at their exact configs
# (criterion 12 runs two suites), then `lambda` at the default RunConfig.
# The seed stays the gate's own (0): the `product` suite's cost follows the
# sizes of its sampled integer coefficients, and took 2.7 s to 11.0 s over
# RunConfig seeds 11-15 (2-vCPU x86 VM, CPython 3.11), so no bound could hold
# a pass run at the benchmark seed.  The benchmark seed orders the calls.
VERIFY_CONFIGS = (
    ("series", {"prec": 32, "n_max": 6}),
    ("pi", {"samples": 200, "n_max": 3, "d_max": 5}),
    ("pi", {"samples": 100, "n_max": 2, "d_max": 4}),
    ("f-axioms", {"samples": 200, "n_max": 3, "d_max": 6}),
    ("g-bounds", {"samples": 100, "n_max": 3, "d_max": 6}),
    ("classify", {"samples": 100, "n_max": 3, "d_max": 6}),
    ("product", {"samples": 100, "n_max": 3, "d_max": 6}),
    ("restrict", {"samples": 100, "n_max": 2, "d_max": 6}),
    ("simil", {"samples": 100, "n_max": 3, "d_max": 6}),
    ("ram", {"samples": 100, "n_max": 3, "d_max": 6}),
    ("fixed-dim", {"samples": 100, "n_max": 3, "d_max": 8}),
    ("coh-ops", {"samples": 100, "n_max": 2, "d_max": 6}),
    ("delta1", {"samples": 200, "n_max": 3, "d_max": 6}),
    ("lambda", {}),
)
VERIFY_SUITES = tuple(dict.fromkeys(name for name, _ in VERIFY_CONFIGS))

MODES = ("W", "H")
BASES = ("C", "R", "F3", "F5")
# Shapes in fixed shares: 2/5 single f[n,d], 2/5 combinations, 1/5 products.
SHAPES = ("single", "combo", "single", "combo", "product")
DEPTHS = range(5)
LEVELS = range(1, 4)
# The stream replicates a full factorial over mode x base x shape x depth x
# level, and within each cell the top degrees and Pfister term counts take
# fixed shares, so the mix, and with it most of a pass's cost and its tail,
# is the same for every seed; forms and coefficients are drawn.  For every
# OUTSIDE_EVERY requests of the design one more, on a drawn cell, has a form
# outside I^n and must exit 3.
CELLS = [
    (mode, base, shape, depth, n)
    for mode in MODES
    for base in BASES
    for shape in SHAPES
    for depth in DEPTHS
    for n in LEVELS
]
# Six replicates (3600 requests in the design) give each cell's 12 single
# and 12 combination requests every top degree equally often, and leave 38
# of the 3780 requests beyond the 99th percentile.
EVAL_REPLICATES = 6
OUTSIDE_EVERY = 20
MAX_DEGREE = 6
PF_TERMS = range(1, 5)
# Over a real-closed base a W-mode value of total degree n*d has leaf
# signatures of order 2^(n*d), and the CLI prints one entry per unit of
# signature.  Capping n*d there keeps a single answer interactive in size;
# all other bases and the H mode use the full n <= 3, d <= 6 range.
REAL_W_MAX_ND = 6

SERIES_LEVELS = range(1, 7)
# Cold cost grows as roughly prec^4.4, so the seed only moves each rung but
# the top one by 0 or 1; every (n, prec) pair is distinct, so the lru_cache
# never hits.  Rungs 4 apart keep the costs dense around the median dump.
SERIES_RUNGS = range(24, 72, 4)


# ---------------------------------------------------------------------------
# verify


def verify_ops(seed: int):
    """The (suite, RunConfig) pairs of one acceptance pass, in seeded order."""
    from gwinv.verify import RunConfig

    out = [(name, RunConfig(**kw)) for name, kw in VERIFY_CONFIGS]
    random.Random(seed).shuffle(out)
    return out


# ---------------------------------------------------------------------------
# eval


@dataclass(frozen=True)
class EvalRequest:
    """One `gwinv eval` query, kept structured so the reference can rebuild
    the expected value without parsing the literals back."""

    base: str
    depth: int
    mode: str
    n: int
    # signed n-fold Pfister terms: (sign, square-class masks)
    pfs: tuple
    # ('low', 'odd' or None): an extra summand that puts the form outside I^n
    outside: str | None
    # invariant terms (integer coefficient, eps exponent, f degrees);
    # degrees () is a constant, (d,) one generator, (s, t) a product
    inv: tuple

    @property
    def field_text(self) -> str:
        return self.base + "".join(f"((t{i + 1}))" for i in range(self.depth))

    def sc_text(self, mask: int) -> str:
        """Square-class literal of a bitmask (bit 0 is the base generator
        unless the base is quadratically closed)."""
        bb = 0 if self.base == "C" else 1
        sign, parts = "", []
        if bb and mask & 1:
            if self.base == "R":
                sign = "-"
            else:
                parts.append("u")
        for i in range(self.depth):
            if mask >> (bb + i) & 1:
                parts.append(f"t{i + 1}")
        return sign + ("*".join(parts) if parts else "1")

    @property
    def form_text(self) -> str:
        out = []
        for k, (sign, masks) in enumerate(self.pfs):
            op = "-" if sign < 0 else ("+" if k else "")
            out.append(op + "pf(" + ",".join(self.sc_text(m) for m in masks) + ")")
        if self.outside == "odd":
            out.append("+diag(1)")
        elif self.outside == "low":
            out.append("+pf(" + ",".join(f"t{i + 1}" for i in range(self.n - 1)) + ")")
        return "".join(out)

    @property
    def inv_text(self) -> str:
        out = []
        for k, (c, j, degs) in enumerate(self.inv):
            factors = []
            if abs(c) != 1 or not degs:
                factors.append(str(abs(c)))
            if j:
                factors.append("eps" if j == 1 else f"eps^{j}")
            factors += [f"f[{self.n},{d}]" for d in degs]
            op = "-" if c < 0 else ("+" if k else "")
            out.append(op + "*".join(factors))
        return "".join(out)

    @property
    def argv(self) -> list[str]:
        # `--opt=value` keeps argparse from reading a leading '-' as an option
        return [
            "eval",
            f"--inv={self.inv_text}",
            f"--form={self.form_text}",
            f"--field={self.field_text}",
            f"--mode={self.mode}",
        ]

    @property
    def expect_exit(self) -> int:
        return 3 if self.outside else 0


def _degrees(cell: tuple) -> range:
    """The top degrees a request of this cell can have: that of its
    highest f-term, or s + t for a product f[n,s]*f[n,t]."""
    mode, base, shape, _, n = cell
    real_w = base == "R" and mode == "W"
    max_deg = min(MAX_DEGREE, REAL_W_MAX_ND // n) if real_w else MAX_DEGREE
    return range(2 if shape == "product" else 1, max_deg + 1)


def _even(levels, count: int) -> list:
    """`count` values that take the levels as evenly as they go, the lowest
    levels first when they cannot all take the same share."""
    return [levels[j * len(levels) // count] for j in range(count)]


def _eval_request(rng: random.Random, cell: tuple, top: int, terms: int, outside: bool) -> EvalRequest:
    mode, base, shape, depth, n = cell
    gens = (0 if base == "C" else 1) + depth
    pfs = tuple(
        (rng.choice((1, -1)), tuple(rng.randrange(1 << gens) for _ in range(n)))
        for _ in range(terms)
    )
    if shape == "single":
        inv = ((1, 0, (top,)),)
    elif shape == "product":
        s = rng.randint(1, top - 1)
        inv = ((1, 0, (s, top - s)),)
    else:
        combo = [(1, rng.randint(0, 2), (top,))]
        combo += [(1, rng.randint(0, 2), (rng.randint(1, top),)) for _ in range(rng.randint(0, 2))]
        rng.shuffle(combo)
        combo = [(rng.choice((1, -1)) * rng.randint(1, 3), j, degs) for _, j, degs in combo]
        if rng.random() < 1 / 3:
            combo.append((rng.choice((1, -1)) * rng.randint(1, 3), 0, ()))
        inv = tuple(combo)
    kind = None
    if outside:
        kind = "low" if n >= 2 and depth >= n - 1 else "odd"
    return EvalRequest(base, depth, mode, n, pfs, kind, inv)


def eval_ops(seed: int, replicates: int = EVAL_REPLICATES) -> list[EvalRequest]:
    """Every cell of the design `replicates` times, then the requests
    outside I^n, in seeded order.  Across a cell's requests the top degrees
    and the numbers of Pfister terms, the main drivers of a request's cost,
    take fixed shares, so only their pairing, the forms and the
    coefficients are drawn."""
    rng = random.Random(seed)
    slots = {}
    for cell, k in Counter(CELLS).items():
        tops = _even(_degrees(cell), k * replicates)
        terms = _even(PF_TERMS, k * replicates)
        rng.shuffle(tops)
        rng.shuffle(terms)
        slots[cell] = list(zip(tops, terms))
    out = [_eval_request(rng, cell, *slots[cell].pop(), False) for _ in range(replicates) for cell in CELLS]
    for _ in range(len(CELLS) // OUTSIDE_EVERY * replicates):
        cell = rng.choice(CELLS)
        out.append(_eval_request(rng, cell, rng.choice(_degrees(cell)), rng.choice(PF_TERMS), True))
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# series


def series_ops(seed: int) -> list[tuple[int, int]]:
    """Distinct (n, prec) pairs, one per level and rung, in seeded order.
    The top rung stays put: its dumps are the slowest, so they set the 99th
    percentile, and one step up costs them 7%."""
    rng = random.Random(seed)
    top = SERIES_RUNGS[-1]
    out = [(n, rung + (rng.randint(0, 1) if rung < top else 0)) for n in SERIES_LEVELS for rung in SERIES_RUNGS]
    rng.shuffle(out)
    return out


def series_argv(n: int, prec: int) -> list[str]:
    return ["series", "--n", str(n), "--prec", str(prec), "--format", "json"]


# ---------------------------------------------------------------------------
# running one operation


class Timer:
    """CPU and wall seconds of one call, less the calibration kernel samples
    that interrupted it (calibrate.py), and the thread CPU times it started
    and ended at.  The benchmark reports CPU time: the calls are
    single-threaded and do no I/O, so on an idle machine the two agree,
    while on a shared VM wall time also counts the time the vCPU was
    preempted."""

    __slots__ = ("cpu", "wall", "c0", "c1", "_w0", "_k0")

    def __enter__(self):
        self._k0 = calibrate.spent()
        self._w0 = time.perf_counter()
        self.c0 = time.thread_time()
        return self

    def __exit__(self, *exc):
        self.c1 = time.thread_time()
        kernel = calibrate.spent() - self._k0
        self.cpu = self.c1 - self.c0 - kernel
        self.wall = time.perf_counter() - self._w0 - kernel


def call_cli(argv: list[str]) -> tuple[Timer, int, str, str]:
    """Run `gwinv <argv>` in-process; returns (timer, exit code, stdout,
    stderr).  Only the call itself is timed."""
    from gwinv.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with Timer() as t:
            rc = main(argv)
    return t, rc, out.getvalue(), err.getvalue()


def call_suite(name: str, cfg) -> tuple[Timer, dict]:
    from gwinv.verify import run_suite

    with Timer() as t:
        report = run_suite(name, cfg)
    return t, report


def report_text(report: dict) -> str:
    """The report as `gwinv verify --format json` prints it."""
    return json.dumps(report, sort_keys=True)

"""gwinv benchmark runner (stdlib only).

    python3 bench/run.py --workload {verify,eval,series} --seed N \
        --seconds S --trace {0,1}

Runs one closed-loop workload from one process and one client thread,
checks every output against an independent reference, and prints as its
last stdout line one JSON object {correct, attempted, failed, metrics}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 a child
process first makes the untraced run, then this process makes one pass with
every layer boundary traced and prints the per-layer metrics of that pass.
The two lines before it record the environment and the raw run details.
End-to-end times are CPU seconds scaled by the machine's speed as a fixed
kernel measured it while the run went on (calibrate.py); raw CPU and
wall-clock figures are in the details.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 7
CHILD_TIMEOUT_S = 170


def _import_gwinv():
    """Put the checkout's own sources first on the path and import them;
    without them there is nothing to measure."""
    if not (SRC / "gwinv" / "__init__.py").is_file():
        raise SystemExit(f"error: no gwinv sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import gwinv

    if Path(gwinv.__file__).resolve().parent != SRC / "gwinv":
        raise SystemExit(f"error: imported gwinv from {gwinv.__file__}, not {SRC}")


_import_gwinv()

import calibrate  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


# ---------------------------------------------------------------------------
# workloads: one pass is a fixed list of operations


class Op:
    __slots__ = ("cpu", "wall", "c0", "c1", "norm", "ok", "label", "cases")

    def __init__(self, timer, ok: bool, label: str, cases: int = 1):
        self.cpu = timer.cpu
        self.wall = timer.wall
        self.c0, self.c1 = timer.c0, timer.c1
        # CPU time at the reference speed; set by normalise()
        self.norm = timer.cpu
        self.ok = ok
        self.label = label
        self.cases = cases


class Verify:
    repeatable = True

    def __init__(self, seed: int):
        self.ops = workloads.verify_ops(seed)
        self.digests: list[str | None] = [None] * len(self.ops)

    def call(self, i: int):
        return workloads.call_suite(*self.ops[i])

    def check(self, i: int, report) -> tuple[bool, str, int]:
        name, cfg = self.ops[i]
        ok = reference.check_report(report, name, cfg.to_dict())
        digest = hashlib.sha256(workloads.report_text(report).encode()).hexdigest()
        if self.digests[i] is None:
            self.digests[i] = digest
        elif self.digests[i] != digest:
            ok = False  # reports must be byte-identical across passes
        return ok, name, report.get("cases_total", 0) if ok else 0


class Eval:
    repeatable = True

    def __init__(self, seed: int):
        self.ops = workloads.eval_ops(seed)
        # digests of outputs already checked against the reference
        self.verified: list[bytes | None] = [None] * len(self.ops)

    def call(self, i: int):
        timer, rc, out, _ = workloads.call_cli(self.ops[i].argv)
        return timer, (rc, out)

    def check(self, i: int, result) -> tuple[bool, str, int]:
        req, (rc, out) = self.ops[i], result
        digest = hashlib.sha256(out.encode()).digest()
        if self.verified[i] is not None:
            ok = rc == req.expect_exit and digest == self.verified[i]
        else:
            expected = None if req.expect_exit else reference.expected_eval(req)
            ok = reference.check_eval(req, rc, out, expected)
            if ok:
                self.verified[i] = digest
        return ok, req.mode, 1


class Series:
    # a second pass would hit build_h's lru_cache
    repeatable = False

    def __init__(self, seed: int):
        self.ops = workloads.series_ops(seed)

    def call(self, i: int):
        timer, rc, out, _ = workloads.call_cli(workloads.series_argv(*self.ops[i]))
        return timer, (rc, out)

    def check(self, i: int, result) -> tuple[bool, str, int]:
        n, prec = self.ops[i]
        return reference.check_series(n, prec, *result), f"n={n}", 1


WORKLOADS = {"verify": Verify, "eval": Eval, "series": Series}


def run_op(wl, i: int, tracer) -> Op:
    """One operation: the timed call, then its check with the tracer paused."""
    timer, result = wl.call(i)
    if tracer:
        tracer.pause()
    ok, label, cases = wl.check(i, result)
    if tracer:
        tracer.resume()
    return Op(timer, ok, label, cases)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(wl, seconds: float, passes: int | None = None, tracer=None, peaks: list | None = None) -> list[list[Op]]:
    """Whole passes over the workload's operations: exactly `passes`, or as
    many as fit in `seconds` of timed wall time (at least one).  Appends the
    peak RSS so far to `peaks` after each pass."""
    out = []
    while True:
        out.append([run_op(wl, i, tracer) for i in range(len(wl.ops))])
        if peaks is not None:
            peaks.append(peak_rss_mb())
        if passes is not None:
            if len(out) == passes:
                return out
        elif not wl.repeatable or sum(op.wall for p in out for op in p) + sum(op.wall for op in out[-1]) > seconds:
            return out


def normalise(passes: list[list[Op]], speed) -> None:
    """Scale each operation's CPU time by the kernel samples taken while
    it ran."""
    for p in passes:
        for op in p:
            op.norm = op.cpu * speed.scale(op.c0, op.c1)


# ---------------------------------------------------------------------------
# metrics


def per_op_median(passes: list[list[Op]]) -> list[float]:
    """Each operation's normalised time at its median over the run's passes."""
    return [statistics.median(op.norm for op in runs) for runs in zip(*passes)]


def end_to_end(passes: list[list[Op]], setup_s: list[float], peak_mb: float) -> dict:
    typical = per_op_median(passes)
    pass_s = sum(typical)
    ms = [t * 1e3 for t in typical]
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "pass_s": (pass_s, "s"),
        "per_s": (sum(op.cases for op in passes[0]) / pass_s, "1/s"),
        "p50_ms": (statistics.median(ms), "ms"),
        "p99_ms": (statistics.quantiles(ms, n=100, method="inclusive")[98], "ms"),
        "peak_rss_mb": (peak_mb, "MB"),
    }


def details(wl, passes: list[list[Op]]) -> dict:
    ops = [op for p in passes for op in p]
    out = {
        "passes": len(passes),
        "ops_per_pass": len(wl.ops),
        "pass_cpu_s": [sum(op.cpu for op in p) for p in passes],
        "pass_norm_s": [sum(op.norm for op in p) for p in passes],
        "pass_wall_s": [sum(op.wall for op in p) for p in passes],
        "measured_cpu_s": sum(op.cpu for op in ops),
        "measured_wall_s": sum(op.wall for op in ops),
    }
    typical = list(zip(passes[0], per_op_median(passes)))
    if isinstance(wl, Eval):
        for mode in "WH":
            out[f"{mode}_p50_ms"] = statistics.median(t * 1e3 for op, t in typical if op.label == mode)
            out[f"{mode}_samples"] = sum(op.label == mode for op, _ in typical)
    if isinstance(wl, Verify):
        out["report_sha256"] = wl.digests
        out["suite_s"] = {name: sum(t for op, t in typical if op.label == name) for name in workloads.VERIFY_SUITES}
        out["suite_cases"] = {name: sum(op.cases for op, _ in typical if op.label == name) for name in workloads.VERIFY_SUITES}
    return out


def per_layer(tracer, detail: dict, untraced: dict) -> dict:
    """Per-layer metrics of a traced run; `untraced` is the child's details."""
    traced_s, plain_s = detail["pass_cpu_s"][0], untraced["pass_cpu_s"][0]
    unattributed = traced_s - sum(tracer.self_s.values())
    metrics = {k: (v, "s" if k.endswith("_s") else "count") for k, v in tracing.layer_metrics(tracer).items()}
    for name in workloads.VERIFY_SUITES:
        metrics[f"verify.{name}.s"] = (detail.get("suite_s", {}).get(name, 0.0), "s")
        metrics[f"verify.{name}.cases"] = (detail.get("suite_cases", {}).get(name, 0), "count")
    for mode in "WH":
        metrics[f"eval.{mode}.p50_ms"] = (untraced.get(f"{mode}_p50_ms", 0.0), "ms")
    metrics["unattributed_s"] = (unattributed, "s")
    metrics["unattributed_pct"] = (100 * unattributed / traced_s, "%")
    metrics["trace_overhead_s"] = (traced_s - plain_s, "s")
    metrics["trace_overhead_pct"] = (100 * (traced_s - plain_s) / plain_s, "%")
    return metrics


# ---------------------------------------------------------------------------
# environment


def git_commit() -> str | None:
    """HEAD of the checkout's .git, if there is one (read, not run)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "gwinv").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "src_sha256": src_sha256(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ---------------------------------------------------------------------------
# processes


def _self_cmd(args, *extra: str) -> list[str]:
    return [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        *extra,
    ]


def _process_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def probe_setup(args) -> tuple[float, float]:
    """(CPU, wall) seconds from starting a fresh interpreter to a ready
    workload: gwinv imported and the inputs generated."""
    t0 = time.perf_counter()
    with subprocess.Popen(_self_cmd(args, "--probe-setup"), stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        wall = time.perf_counter() - t0
        try:
            proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise
    word, _, cpu = line.partition(" ")
    if word != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return float(cpu), wall


def untraced_child(args) -> tuple[dict, dict]:
    """(result, details) of the same run with tracing off, in a child."""
    proc = subprocess.run(
        _self_cmd(args, "--trace", "0", "--no-setup-probe"),
        stdout=subprocess.PIPE,
        text=True,
        cwd=ROOT,
        timeout=CHILD_TIMEOUT_S,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"untraced run failed (exit {proc.returncode})")
    return json.loads(lines[-1]), json.loads(lines[-2])["detail"]


# ---------------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--no-setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def emit(args, detail: dict, ok: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({"env": environment(args)}))
    print(json.dumps({"detail": detail}))
    result = {
        "correct": ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)


def probe_setups(args) -> tuple[list[tuple[float, float]], float]:
    """SETUP_PROBES set-up probes, each after a burst of kernel samples,
    and the speed scale those samples give."""
    speed, setup = calibrate.Speed(), []
    for _ in range(SETUP_PROBES):
        speed.burst(calibrate.MIN_NEAR)
        setup.append(probe_setup(args))
    return setup, speed.overall()


def speed_detail(speed) -> dict:
    return {
        "kernel_ms_mean": statistics.fmean(speed.took) * 1e3,
        "kernel_samples": len(speed.took),
        "kernel_cpu_s": sum(speed.took),
    }


def run_untraced(args) -> None:
    setup, setup_scale = probe_setups(args) if not args.no_setup_probe else ([], 1.0)
    wl = WORKLOADS[args.workload](args.seed)
    peaks: list[float] = []
    with calibrate.Speed() as speed:
        passes = measure(wl, args.seconds, peaks=peaks)
    normalise(passes, speed)
    failed = sum(not op.ok for p in passes for op in p)
    detail = details(wl, passes)
    detail["speed"] = speed_detail(speed)
    detail["setup_cpu_s"] = [cpu for cpu, _ in setup]
    detail["setup_wall_s"] = [wall for _, wall in setup]
    detail["setup_scale"] = setup_scale
    detail["peak_rss_mb"] = peaks
    # the first pass's peak: later passes add only the benchmark's own records
    metrics = end_to_end(passes, [cpu * setup_scale for cpu in detail["setup_cpu_s"]], peaks[0]) if setup else {}
    emit(args, detail, failed == 0, len(wl.ops) * len(passes), failed, metrics)


def run_traced(args) -> None:
    child, child_detail = untraced_child(args)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wl = WORKLOADS[args.workload](args.seed)
        tracer.reset()
        passes = measure(wl, args.seconds, passes=1, tracer=tracer)
    finally:
        tracer.uninstall()
    failed = sum(not op.ok for p in passes for op in p)
    detail = details(wl, passes)
    metrics = per_layer(tracer, detail, child_detail)
    # the traced pass must reproduce the untraced reports byte for byte
    same_reports = child_detail.get("report_sha256") == detail.get("report_sha256")
    detail["untraced"] = child_detail
    failed += child["failed"] + (not same_reports)
    attempted = child["attempted"] + len(wl.ops) * len(passes)
    emit(args, detail, child["correct"] and failed == 0, attempted, failed, metrics)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.probe_setup:
        WORKLOADS[args.workload](args.seed)
        print("ready", _process_cpu_s(), flush=True)
    elif args.trace:
        run_traced(args)
    else:
        run_untraced(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-tests of the benchmark:  python3 -m unittest discover -s bench

They check that each reference check counts a tampered output as a failure,
that a seed always gives the same inputs, that the tracer is transparent,
and that every printed metric is declared in BENCHMARK.json.
"""

from __future__ import annotations

import json
import sys
import time
import unittest
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (puts the checkout's src first on sys.path)
import calibrate  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from gwinv.verify import RunConfig, run_suite  # noqa: E402


def _declared(section: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


class SeedTests(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        self.assertEqual(workloads.eval_ops(7), workloads.eval_ops(7))
        self.assertEqual(workloads.series_ops(7), workloads.series_ops(7))
        a, b = workloads.verify_ops(7), workloads.verify_ops(7)
        self.assertEqual([(n, c.to_dict()) for n, c in a], [(n, c.to_dict()) for n, c in b])

    def test_seed_changes_inputs(self):
        self.assertNotEqual(workloads.eval_ops(7), workloads.eval_ops(8))
        self.assertNotEqual(workloads.series_ops(7), workloads.series_ops(8))
        a, b = workloads.verify_ops(7), workloads.verify_ops(8)
        self.assertNotEqual([n for n, _ in a], [n for n, _ in b])
        self.assertEqual(sorted(str(c) for c in a), sorted(str(c) for c in b))

    def test_eval_design_is_full_factorial(self):
        ops = workloads.eval_ops(3)
        inside = [r for r in ops if r.outside is None]
        cells = sorted((r.mode, r.base, r.depth, r.n) for r in inside)
        self.assertEqual(cells, sorted((m, b, d, n) for m, b, _, d, n in workloads.CELLS * workloads.EVAL_REPLICATES))
        self.assertEqual(len(ops) - len(inside), len(workloads.CELLS) // workloads.OUTSIDE_EVERY * workloads.EVAL_REPLICATES)

    def test_eval_mix_is_the_same_for_every_seed(self):
        def mix(seed, key):
            return sorted(key(r) for r in workloads.eval_ops(seed) if r.outside is None)

        def top(r):
            return (r.mode, r.base, r.depth, r.n, max(sum(degs) for _, _, degs in r.inv))

        def terms(r):
            return (r.mode, r.base, r.depth, r.n, len(r.pfs))

        for key in (top, terms):
            self.assertEqual(mix(3, key), mix(4, key))

    def test_series_pairs_are_distinct(self):
        ops = workloads.series_ops(3)
        self.assertEqual(len(set(ops)), len(ops))


class VerifyCheckTests(unittest.TestCase):
    def test_tampered_report_fails(self):
        cfg = RunConfig(prec=8, n_max=6, seed=5)
        report = run_suite("series", cfg)
        self.assertTrue(reference.check_report(report, "series", cfg.to_dict()))
        bad = [
            dict(report, cases_failed=1),
            dict(report, first_failure={"inputs": "x", "expected": "1", "got": "0"}),
            dict(report, cases_total=0),
            dict(report, suite="pi"),
            dict(report, config=dict(report["config"], seed=6)),
            {k: v for k, v in report.items() if k != "first_failure"},
        ]
        for r in bad:
            self.assertFalse(reference.check_report(r, "series", cfg.to_dict()), r)


class EvalCheckTests(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        ops = workloads.eval_ops(11, replicates=1)
        cls.inside = [r for r in ops if not r.outside][:40]
        cls.outside = [r for r in ops if r.outside][:10]

    def test_library_matches_reference(self):
        for req in self.inside + self.outside:
            _, rc, out, _ = workloads.call_cli(req.argv)
            expected = None if req.outside else reference.expected_eval(req)
            self.assertTrue(reference.check_eval(req, rc, out, expected), req.argv)

    def test_tampered_value_fails(self):
        tampered = 0
        for req in self.inside:
            _, rc, out, _ = workloads.call_cli(req.argv)
            expected = reference.expected_eval(req)
            text = out[:-1]
            if req.mode == "W":
                # one more diagonal entry changes the dimension parity
                wrong = "<1>" if text == "0" else text[:-1] + ",1>"
            else:
                wrong = "1" if text == "0" else ("0" if text == "1" else text + " + 1")
            self.assertFalse(reference.check_eval(req, rc, wrong + "\n", expected), req.argv)
            self.assertFalse(reference.check_eval(req, 3, "", expected))
            tampered += 1
        self.assertGreater(tampered, 0)

    def test_outside_requests_must_exit_3(self):
        self.assertTrue(self.outside)
        for req in self.outside:
            self.assertFalse(reference.check_eval(req, 0, "0\n", None))
            self.assertFalse(reference.check_eval(req, 1, "", None))

    def test_known_value(self):
        # f_1 of <<t1>> over R((t1)) is the Pfister form itself
        req = workloads.EvalRequest("R", 1, "W", 1, ((1, (2,)),), None, ((1, 0, (1,)),))
        self.assertEqual(req.argv[1:3], ["--inv=f[1,1]", "--form=pf(t1)"])
        _, rc, out, _ = workloads.call_cli(req.argv)
        self.assertEqual((rc, out), (0, "<1,-t1>\n"))
        self.assertTrue(reference.check_eval(req, rc, out, reference.expected_eval(req)))


class SeriesCheckTests(unittest.TestCase):
    def test_tampered_series_fails(self):
        n, prec = 3, 12
        _, rc, out, _ = workloads.call_cli(workloads.series_argv(n, prec))
        self.assertTrue(reference.check_series(n, prec, rc, out))
        self.assertFalse(reference.check_series(n, prec, 1, out))
        self.assertFalse(reference.check_series(n, prec + 1, rc, out))
        for key in ("x", "h", "a", "b"):
            for d in (2, 5):
                data = json.loads(out)
                data[key][d] += 1
                self.assertFalse(reference.check_series(n, prec, rc, json.dumps(data)), (key, d))


class TracerTests(unittest.TestCase):
    def test_transparent_and_complete(self):
        argv = workloads.eval_ops(2, replicates=1)[5].argv
        _, rc0, out0, _ = workloads.call_cli(argv)
        from gwinv import witt

        original = witt.witt_canonical
        tracer = tracing.Tracer()
        tracer.install()
        try:
            self.assertIsNot(witt.witt_canonical, original)
            timer, rc1, out1, _ = workloads.call_cli(argv)
        finally:
            tracer.uninstall()
        self.assertIs(witt.witt_canonical, original)
        self.assertEqual((rc0, out0), (rc1, out1))
        self.assertGreater(tracer.calls["cli:main"], 0)
        attributed = sum(tracer.self_s.values())
        self.assertLessEqual(attributed, timer.cpu + 1e-6)
        self.assertGreater(attributed, 0.5 * timer.cpu)

    def test_pause_stops_counting(self):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            tracer.pause()
            workloads.call_cli(workloads.series_argv(2, 6))
            tracer.resume()
        finally:
            tracer.uninstall()
        self.assertEqual(sum(tracer.calls.values()), 0)


class RunOpTests(unittest.TestCase):
    def test_each_workload_checks_its_operation(self):
        series = run.Series(1)
        cheapest = min(range(len(series.ops)), key=lambda k: series.ops[k][1])
        for wl, i in ((run.Eval(1), 0), (series, cheapest)):
            tracer = tracing.Tracer()
            tracer.install()
            try:
                op = run.run_op(wl, i, tracer)
            finally:
                tracer.uninstall()
            self.assertTrue(op.ok, wl.ops[i])
            self.assertGreater(op.cpu, 0)
            self.assertGreater(sum(tracer.calls.values()), 0)


class CalibrationTests(unittest.TestCase):
    def test_timer_leaves_out_kernel_samples(self):
        with calibrate.Speed() as speed:
            with workloads.Timer() as timer:
                end = time.thread_time() + 0.3
                while time.thread_time() < end:
                    pass
        inside = [t for at, t in zip(speed.at, speed.took) if timer.c0 <= at <= timer.c1]
        self.assertGreater(len(inside), 0)
        self.assertAlmostEqual(timer.cpu, timer.c1 - timer.c0 - sum(inside), delta=1e-3)

    def test_scale_uses_samples_near_the_operation(self):
        speed = calibrate.Speed()
        speed.at = [0.1 * k for k in range(100)]
        speed.took = [calibrate.REF_S] * 50 + [2 * calibrate.REF_S] * 50
        self.assertAlmostEqual(speed.scale(1.0, 1.5), 1.0)
        self.assertAlmostEqual(speed.scale(8.0, 8.5), 0.5)
        self.assertAlmostEqual(speed.scale(-5.0, -4.0), 1.0)  # widened to MIN_NEAR
        self.assertAlmostEqual(speed.scale(4.0, 5.9), 2 / 3)  # half fast, half slow


class MetricNameTests(unittest.TestCase):
    def test_end_to_end_names(self):
        timer = SimpleNamespace(cpu=0.01, wall=0.02, c0=0.0, c1=0.01)
        metrics = run.end_to_end([[run.Op(timer, True, "W")] * 10], [0.2, 0.3], 25.0)
        self.assertEqual({k: u for k, (_, u) in metrics.items()}, _declared("end_to_end"))

    def test_per_layer_names(self):
        detail = {"pass_cpu_s": [2.0], "suite_s": {}, "suite_cases": {}}
        untraced = {"pass_cpu_s": [1.0, 1.1], "W_p50_ms": 1.0, "H_p50_ms": 2.0}
        metrics = run.per_layer(tracing.Tracer(), detail, untraced)
        self.assertEqual({k: u for k, (_, u) in metrics.items()}, _declared("per_layer"))


if __name__ == "__main__":
    unittest.main()

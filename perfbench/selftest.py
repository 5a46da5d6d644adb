#!/usr/bin/env python3
"""Self-tests of the benchmark harness.

Run from the checkout root::

    python3 perfbench/selftest.py

Covers what the benchmark promises beyond timing: a corrupted op output
fails the run with a non-zero exit, a directory without the program's
source exits 2 without a result, span self times add up to the op wall,
``-X importtime`` output folds into the startup buckets, busy and waiting
time scale by their own probes, a ratio without lookups reads ``null``,
records of different shapes are not compared, and ``BENCHMARK.json``
names exactly the metrics the code reports.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import json
import shutil
import subprocess
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _corrupting(base: type) -> type:
    """*base* with one target's classic reference deliberately altered."""

    class Corrupted(base):
        def setup(self) -> None:
            super().setup()
            label = self.targets[0].label
            good = self.references[label]
            self.references[label] = workloads.Reference(
                good.text.replace("detected", "detectad", 1),
                good.summary.replace("detected", "detectad", 1), good.jobs)

    return Corrupted


class CorruptedOutputTest(unittest.TestCase):
    def setUp(self) -> None:
        run.load_program(ROOT)

    def _run(self, name: str) -> tuple[int, dict]:
        saved = run.WORKLOADS[name]
        run.WORKLOADS[name] = _corrupting(saved)
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = run.main(["--workload", name, "--seed", "3",
                                 "--seconds", "1", "--trace", "0"])
        finally:
            run.WORKLOADS[name] = saved
        return code, json.loads(out.getvalue().strip().splitlines()[-1])

    def test_family_mismatch_exits_nonzero(self) -> None:
        code, result = self._run("family_warm")
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertLess(result["failed"], result["attempted"])

    def test_stored_rerender_mismatch_fails(self) -> None:
        code, result = self._run("store_resume")
        self.assertEqual(code, 1)
        self.assertGreater(result["failed"], 0)

    def test_cli_stdout_mismatch_fails(self) -> None:
        workload = _corrupting(workloads.CliCold)(ROOT, 3)
        workload.setup()
        self.assertFalse(workload.op(workload.targets[0]).ok)
        self.assertTrue(workload.op(workload.targets[1]).ok)


class MissingProgramTest(unittest.TestCase):
    def test_exits_2_without_result(self) -> None:
        bare = ROOT / ".perfbench" / "work" / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "family_warm", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertEqual(proc.returncode, 2)
        self.assertNotIn("correct", proc.stdout)


class SpanTest(unittest.TestCase):
    def test_self_times_sum_to_the_root(self) -> None:
        tracer = spans.Tracer()

        def leaf() -> None:
            time.sleep(0.002)

        def middle(prepared=None) -> None:
            traced_leaf()
            traced_leaf()
            time.sleep(0.001)

        def gen():
            yield 1
            traced_leaf()
            yield 2

        traced_leaf = tracer.wrap("leaf", leaf)
        traced_middle = tracer.wrap("middle", middle)
        traced_gen = tracer.wrap("gen", gen)
        self.assertIn("prepared", inspect.signature(traced_middle).parameters)
        tracer.enabled = True
        tracer.call(spans.OP, lambda: (traced_middle(), list(traced_gen())))
        tracer.enabled = False
        recorded = tracer.spans_since(0)
        layers = spans.aggregate(recorded)
        root = next(s for s in recorded if s[2] == spans.OP)
        total = sum(self_s for _calls, self_s in layers.values())
        self.assertAlmostEqual(total, root[4] - root[3], places=9)
        self.assertEqual(layers["leaf"][0], 3)
        self.assertEqual(layers["gen"][0], 1)
        self.assertLess(layers["gen"][1], 0.002)

    def test_disabled_tracer_records_nothing(self) -> None:
        tracer = spans.Tracer()
        self.assertEqual(tracer.wrap("x", lambda: 7)(), 7)
        self.assertEqual(len(tracer), 0)

    def test_install_and_uninstall_restore_entry_points(self) -> None:
        run.load_program(ROOT)
        from repro.dut.network import Network

        original = Network.__dict__["solve"]
        tracer = spans.Tracer()
        spans.install_layers(tracer)
        self.assertIsNot(Network.__dict__["solve"], original)
        tracer.uninstall()
        self.assertIs(Network.__dict__["solve"], original)

    def test_traced_op_sees_vm_served_instrument_calls(self) -> None:
        run.load_program(ROOT)
        tracer = spans.Tracer()
        spans.install_layers(tracer)
        try:
            workload = workloads.FamilyWarm(ROOT, 1)
            workload.setup()
            target = next(t for t in workload.targets if t.label == "wiper_ecu")
            sample = run.traced_op(workload, tracer, target)
        finally:
            tracer.uninstall()
        layers = sample.outcome.layers
        self.assertTrue(sample.outcome.ok)
        self.assertGreater(layers["teststand.vm.execute"][0], 0)
        self.assertGreater(layers["instruments.perform"][0], 0)
        self.assertNotIn("teststand.plan.compile_plan", layers)
        self.assertEqual(sample.outcome.plan_stats["vm_degraded"], 0)
        self.assertAlmostEqual(
            sum(self_s for _calls, self_s in layers.values()), sample.wall)

    def test_importtime_attribution(self) -> None:
        stderr = "\n".join([
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 | site",
            "import time:        50 |         50 |       pickle",
            "import time:       400 |        450 |     numpy",
            "import time:        30 |         30 |     argparse",
            "import time:       200 |        680 |   repro",
            "import time:        20 |        700 | repro.cli",
        ])
        entries = spans.parse_importtime(stderr)
        self.assertEqual(entries[0], (0, "site", 100))
        self.assertEqual(entries[1], (3, "pickle", 50))
        buckets = spans.attribute_imports(entries, frozenset({"site"}))
        self.assertAlmostEqual(buckets["numpy"], 0.45)
        self.assertAlmostEqual(buckets["repro"], 0.22)
        self.assertAlmostEqual(buckets["other"], 0.03)


class MetricsTest(unittest.TestCase):
    def test_ratio_without_lookups_is_null(self) -> None:
        outcome = workloads.OpOutcome(True, 5, layers={spans.OP: [1, 0.01]},
                                      plan_stats={"plan_hits": 0,
                                                  "plan_misses": 0})
        sample = run.Sample("t", 0.01, outcome)
        metrics = run.per_layer([sample], [sample])
        self.assertIsNone(metrics["teststand.plan.hit_ratio"])
        self.assertIsNone(metrics["teststand.vm.serve_ratio"])
        self.assertEqual(metrics["tracing.overhead_ratio"], 1.0)

    def test_benchmark_json_names_every_reported_metric(self) -> None:
        document = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"], m["better"])
                          for m in document["per_layer"]],
                         run.per_layer_metrics())
        self.assertEqual([(m["name"], m["unit"]) for m in document["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([w["name"] for w in document["workloads"]],
                         list(workloads.WORKLOADS))
        # METRICS.md says which end-to-end metric each layer should move.
        documented = (HERE / "METRICS.md").read_text()
        for name, _unit, _better in run.per_layer_metrics():
            stem = name.removesuffix(".calls").removesuffix(".self_ms")
            self.assertIn(f"`{stem}", documented, name)


class ProbeTest(unittest.TestCase):
    def test_busy_and_waiting_time_scale_apart(self) -> None:
        host = probe.HostProbe(ROOT / ".perfbench" / "work",
                               busy_s=[probe.KERNEL_REFERENCE_S * 2],
                               fsync_s=[probe.IO_REFERENCE_S / 2])
        self.assertAlmostEqual(host.scaled(probe.Stretch(1.0, 0.75)),
                               0.75 / 2 + 0.25 * 2)
        # Children working in parallel may use more CPU than the wall.
        self.assertAlmostEqual(host.scaled(probe.Stretch(1.0, 1.6)), 0.5)

    def test_sampling_leaves_no_file(self) -> None:
        for spawn in (False, True):
            host = probe.HostProbe(ROOT / ".perfbench" / "work", spawn=spawn)
            busy_s = host.sample()
            host.close()
            self.assertEqual(host.busy_s, [busy_s])
            self.assertEqual(len(host.fsync_s), 1)
            self.assertFalse(host.path.exists())
            self.assertAlmostEqual(host.scaled(probe.Stretch(1.0, 1.0), busy_s),
                                   host.busy_reference_s / busy_s)


class CompareTest(unittest.TestCase):
    @staticmethod
    def _record(shape_id: str, value: float) -> dict:
        return {"workload": "w", "shape_id": shape_id,
                "metrics": {"campaign_p50_ms": {"value": value, "unit": "ms"}}}

    def test_refuses_mixed_shapes(self) -> None:
        with self.assertRaises(compare.ShapeMismatch):
            compare.group([self._record("a", 1.0), self._record("b", 1.0)])
        with self.assertRaises(compare.ShapeMismatch), \
                contextlib.redirect_stdout(io.StringIO()):
            compare.compare(compare.group([self._record("a", 1.0)]),
                            compare.group([self._record("b", 1.0)]))

    def test_flags_a_regression_beyond_the_bound(self) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            self.assertEqual(compare.compare(
                compare.group([self._record("a", 10.0)]),
                compare.group([self._record("a", 10.5)])), 0)
            self.assertEqual(compare.compare(
                compare.group([self._record("a", 10.0)]),
                compare.group([self._record("a", 20.0)])), 1)


if __name__ == "__main__":
    unittest.main()

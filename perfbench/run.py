#!/usr/bin/env python3
"""Layered campaign benchmark: whole fault campaigns measured from outside.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload in turn

One op is one fault campaign of one target (every campaignable DUT plus
the ``lock+cluster`` composition).  Load is one closed-loop client: the
next op starts when the previous one ended, in passes over every target
whose order the seed permutes.  Set-up (imports, registry, references,
campaign builds, warm-up) runs before the clock starts; it is repeated
and its median reported as ``setup_s``.  Every op's output is compared
byte for byte with the target's classic-path reference.

``--trace 0`` reports the end-to-end metrics, their times scaled to a
reference host speed by the probes of :mod:`probe`, which run before
every op and set-up, outside the timed spans.  ``--trace 1`` first runs a
share of the time untraced, then installs the layer wrappers of
:mod:`spans` before any compile, sets up again and reports per-layer call
counts and self times per op, plan/VM/executor counters, the unattributed
residual and the tracing overhead.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every op's output matched; 2 means the benchmark could not run here.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import records  # noqa: E402
from probe import HostProbe, Stopwatch, Stretch  # noqa: E402
from spans import LAYERS, OP, STARTUP_PACKAGES, Tracer, aggregate, install_layers  # noqa: E402
from workloads import WORKLOADS, BenchError, OpOutcome, peak_rss_mb  # noqa: E402

#: Set-up runs this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 3
#: Share of a traced run's time spent on untraced passes (overhead base).
UNTRACED_SHARE = 0.3
#: A tail percentile is reported only with at least ten samples beyond it.
P90_MIN_OPS = 100

END_TO_END = (
    ("jobs_per_s", "1/s"),
    ("campaign_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: Units of the figures a run prints next to its metrics.
EXTRA_UNITS = {
    "ops": "count",
    "traced_ops": "count",
    "failed_ratio": "ratio",
    "campaign_p90_ms": "ms",
    "report_p50_ms": "ms",
    "measured_jobs_per_s": "1/s",
    "measured_campaign_p50_ms": "ms",
    "measured_setup_s": "s",
    "busy_share": "ratio",
    "probe_busy_ms": "ms",
    "probe_fsync_ms": "ms",
}

STARTUP_LAYERS = ("startup.interpreter", "startup.import") + tuple(
    f"startup.import.{package}" for package in (*STARTUP_PACKAGES, "repro"))

COUNTERS = (
    ("teststand.plan.hit_ratio", "ratio", "higher"),
    ("teststand.plan.action_replays", "count", "lower"),
    ("teststand.vm.serve_ratio", "ratio", "higher"),
    ("teststand.vm.degraded", "count", "lower"),
    ("dut.network.solves_per_job", "count", "lower"),
    ("teststand.executor.retries", "count", "lower"),
    ("teststand.executor.failed_jobs", "count", "lower"),
    ("unattributed.self_ms", "ms", "lower"),
    ("op.wall_ms", "ms", "lower"),
    ("op.jobs", "count", "higher"),
    ("tracing.overhead_ratio", "ratio", "lower"),
)


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """``(name, unit, better)`` of every metric a traced run reports."""
    metrics = [(f"{name}_ms", "ms", "lower") for name in STARTUP_LAYERS]
    for name, _entry_points in LAYERS:
        metrics.append((f"{name}.calls", "count", "lower"))
        metrics.append((f"{name}.self_ms", "ms", "lower"))
    metrics.extend(COUNTERS)
    return metrics


@dataclass
class Sample:
    """One op: its target, wall and CPU seconds, and outcome."""

    target: str
    wall: float
    outcome: OpOutcome
    #: CPU seconds of this process and its reaped children, and the busy
    #: probe's seconds just before the op.  Traced ops leave both unset, as
    #: only untraced ops feed the end-to-end metrics.
    cpu: float = 0.0
    busy_probe_s: float | None = None

    @property
    def stretch(self) -> Stretch:
        return Stretch(self.wall, self.cpu)


# ---------------------------------------------------------------------------
# Running ops
# ---------------------------------------------------------------------------

def load_program(root: Path) -> Stretch:
    """Import the program from ``root/src``; returns the import's stretch."""
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program source under {src}")
    with Stopwatch() as watch:
        sys.path.insert(0, str(src))
        import repro
        import repro.store  # noqa: F401
        import repro.targets  # noqa: F401
        import repro.teststand.plan  # noqa: F401
    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise BenchError(f"imported repro from {repro.__file__}, not {src}")
    return watch.stretch


def _failed(workload, target, exc: Exception) -> OpOutcome:
    return OpOutcome(False, workload.references[target.label].jobs,
                     f"{target.label}: {type(exc).__name__}: {exc}")


def plain_op(workload, target) -> Sample:
    with Stopwatch() as watch:
        try:
            outcome = workload.op(target)
        except Exception as exc:  # noqa: BLE001 - a failed op is a result
            outcome = _failed(workload, target, exc)
    return Sample(target.label, watch.stretch.wall, outcome, watch.stretch.cpu)


def _stats_delta(before: dict, after: dict) -> dict:
    return {name: after[name] - before.get(name, 0)
            for name in after if name != "hit_rate"}


def traced_op(workload, tracer: Tracer | None, target) -> Sample:
    """One op with its per-layer self times in ``outcome.layers``."""
    if tracer is None:  # measured in a child process
        start = time.perf_counter()
        try:
            outcome = workload.op(target, traced=True)
        except Exception as exc:  # noqa: BLE001
            outcome = _failed(workload, target, exc)
        wall = time.perf_counter() - start
        if outcome.layers is not None:
            inside = sum(self_s for _calls, self_s in outcome.layers.values())
            outcome.layers[OP] = [1, wall - inside]
        return Sample(target.label, wall, outcome)

    from repro.teststand.plan import GLOBAL_PLAN_CACHE

    before = GLOBAL_PLAN_CACHE.stats.snapshot()
    mark = len(tracer)
    tracer.enabled = True
    try:
        outcome = tracer.call(OP, workload.op, target, traced=True)
    except Exception as exc:  # noqa: BLE001
        outcome = _failed(workload, target, exc)
    finally:
        tracer.enabled = False
    outcome.plan_stats = _stats_delta(before, GLOBAL_PLAN_CACHE.stats.snapshot())
    outcome.layers = aggregate(tracer.spans_since(mark))
    wall = sum(self_s for _calls, self_s in outcome.layers.values())
    return Sample(target.label, wall, outcome)


def run_passes(workload, rng: random.Random, seconds: float, run_op) -> list[Sample]:
    """Whole passes over every target until *seconds* have elapsed."""
    samples: list[Sample] = []
    deadline = time.perf_counter() + seconds
    while True:
        for target in workload.pass_order(rng):
            samples.append(run_op(target))
        if time.perf_counter() >= deadline:
            return samples


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def _ratio(numerator: float, denominator: float) -> float | None:
    """A share, or ``None`` when nothing was counted (not ``0.0``)."""
    return numerator / denominator if denominator else None


def _by_target(samples: list[Sample], values: list[float]) -> dict[str, list[float]]:
    grouped: dict[str, list[float]] = {}
    for sample, value in zip(samples, values):
        grouped.setdefault(sample.target, []).append(value)
    return grouped


def _walls_by_target(samples: list[Sample]) -> dict[str, list[float]]:
    return _by_target(samples, [s.wall for s in samples])


def _timings(samples: list[Sample], op_s: list[float], setup_s: float) -> dict:
    """The timed end-to-end metrics, given each op's seconds."""
    completed = sum(s.outcome.jobs for s in samples if s.outcome.ok)
    medians = map(statistics.median, _by_target(samples, op_s).values())
    return {
        "jobs_per_s": completed / sum(op_s),
        "campaign_p50_ms": statistics.fmean(medians) * 1000.0,
        "setup_s": setup_s,
    }


def end_to_end(samples: list[Sample], import_: Stretch,
               setups: list[tuple[Stretch, float]], workload,
               probe: HostProbe) -> tuple[dict, dict]:
    """The end-to-end metrics, plus figures printed but not gated.

    Every time is scaled to the reference host by ``probe``; the measured
    values are printed next to them.  ``campaign_p50_ms`` is the median
    op wall of each target, averaged over the targets.  ``setup_s`` is the
    import plus the median set-up.
    """
    scaled_ops = [probe.scaled(s.stretch, s.busy_probe_s) for s in samples]
    measured = _timings(samples, [s.wall for s in samples], import_.wall
                        + statistics.median(stretch.wall for stretch, _ in setups))
    metrics = _timings(samples, scaled_ops, probe.scaled(import_) + statistics.median(
        probe.scaled(stretch, busy_s) for stretch, busy_s in setups))
    metrics["peak_rss_mb"] = peak_rss_mb(workload.rss_children)
    failed = sum(1 for s in samples if not s.outcome.ok)
    extra = {
        "ops": len(samples),
        "failed_ratio": failed / len(samples),
        **{f"measured_{name}": value for name, value in measured.items()},
        "busy_share": sum(s.stretch.busy for s in samples) / sum(s.wall for s in samples),
        "probe_busy_ms": statistics.median(probe.busy_s) * 1000.0,
        "probe_fsync_ms": statistics.fmean(probe.fsync_s) * 1000.0,
    }
    if len(samples) >= P90_MIN_OPS:
        extra["campaign_p90_ms"] = statistics.quantiles(scaled_ops, n=10)[8] * 1000.0
    reports = [s.outcome.report_s for s in samples
               if s.outcome.report_s is not None]
    if reports:
        # The re-render reads pages sqlite already holds in memory: busy time.
        extra["report_p50_ms"] = statistics.median(reports) * 1000.0 * probe.busy_scale
    return metrics, extra


def _mean_by_target(samples: list[Sample]) -> dict[str, float]:
    return {target: statistics.fmean(w)
            for target, w in _walls_by_target(samples).items()}


def per_layer(traced: list[Sample], untraced: list[Sample]) -> dict:
    """Per-op means of every layer, counter and ratio of a traced run."""
    measured = [s for s in traced if s.outcome.ok and s.outcome.layers]
    count = len(measured) or 1
    totals: dict[str, list[float]] = {}
    stats: dict[str, float] = {}
    jobs = retries = failed_jobs = 0
    for sample in measured:
        for name, (calls, self_s) in sample.outcome.layers.items():
            entry = totals.setdefault(name, [0, 0.0])
            entry[0] += calls
            entry[1] += self_s
        for name, value in (sample.outcome.plan_stats or {}).items():
            stats[name] = stats.get(name, 0) + value
        jobs += sample.outcome.jobs
        retries += sample.outcome.retries
        failed_jobs += sample.outcome.failed_jobs

    def calls(name: str) -> float:
        return totals.get(name, (0, 0.0))[0]

    def self_ms(name: str) -> float:
        return totals.get(name, (0, 0.0))[1] * 1000.0 / count

    metrics: dict[str, float | None] = {}
    for name in STARTUP_LAYERS:
        metrics[f"{name}_ms"] = self_ms(name)
    for name, _entry_points in LAYERS:
        metrics[f"{name}.calls"] = calls(name) / count
        metrics[f"{name}.self_ms"] = self_ms(name)
    lookups = stats.get("plan_hits", 0) + stats.get("plan_misses", 0)
    plan_runs = stats.get("vm_runs", 0) + stats.get("alloc_only_runs", 0)
    untraced_means = _mean_by_target(untraced)
    traced_means = {t: w for t, w in _mean_by_target(measured).items()
                    if t in untraced_means}
    metrics.update({
        "teststand.plan.hit_ratio": _ratio(stats.get("plan_hits", 0), lookups),
        "teststand.plan.action_replays": stats.get("action_replays", 0) / count,
        "teststand.vm.serve_ratio": _ratio(stats.get("vm_runs", 0), plan_runs),
        "teststand.vm.degraded": stats.get("vm_degraded", 0) / count,
        "dut.network.solves_per_job": _ratio(calls("dut.network.solve"), jobs),
        "teststand.executor.retries": retries / count,
        "teststand.executor.failed_jobs": failed_jobs / count,
        "unattributed.self_ms": self_ms(OP),
        "op.wall_ms": sum(s.wall for s in measured) * 1000.0 / count,
        "op.jobs": jobs / count,
        "tracing.overhead_ratio": _ratio(
            sum(traced_means.values()),
            sum(untraced_means[t] for t in traced_means)),
    })
    return metrics


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------

def measure(workload, args, import_: Stretch) -> tuple[list[Sample], dict, dict]:
    rng = random.Random(args.seed)
    if not args.trace:
        probe = HostProbe(workload.work_dir, spawn=workload.spawn_probe)
        try:
            setups = []
            for _ in range(SETUP_REPEATS):
                busy_s = probe.sample()
                with Stopwatch() as watch:
                    workload.setup()
                setups.append((watch.stretch, busy_s))

            def probed_op(target) -> Sample:
                busy_s = probe.sample()
                sample = plain_op(workload, target)
                sample.busy_probe_s = busy_s
                return sample

            samples = run_passes(workload, rng, args.seconds, probed_op)
        finally:
            probe.close()
        metrics, extra = end_to_end(samples, import_, setups, workload, probe)
        extra["import_s"] = [import_.wall, import_.cpu]
        extra["setup_runs_s"] = [[s.wall, s.cpu] for s, _ in setups]
        extra["probe_busy_samples_ms"] = [round(s * 1000.0, 4) for s in probe.busy_s]
        extra["probe_fsync_samples_ms"] = [round(s * 1000.0, 4) for s in probe.fsync_s]
        extra["op_walls_ms"] = [[s.target, round(s.wall * 1000.0, 3),
                                 round(s.cpu * 1000.0, 3)] for s in samples]
        return samples, metrics, extra

    workload.setup()
    untraced = run_passes(workload, rng, args.seconds * UNTRACED_SHARE,
                          lambda target: plain_op(workload, target))
    tracer = None
    if workload.in_process:
        tracer = Tracer()
        install_layers(tracer)
        if workload.backend == "process":
            # Workers ship their plan-cache deltas home only while the
            # phase profiler is on.
            from repro.teststand.profiling import PROFILER
            PROFILER.enable()
        workload.setup()
    traced = run_passes(workload, rng, args.seconds * (1 - UNTRACED_SHARE),
                        lambda target: traced_op(workload, tracer, target))
    if tracer is not None:
        trace_dir = workload.root / ".perfbench" / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        tracer.dump(str(trace_dir / f"{workload.name}.jsonl"),
                    extra={"seed": args.seed})
        tracer.uninstall()
    samples = untraced + traced
    return samples, per_layer(traced, untraced), {
        "ops": len(samples), "traced_ops": len(traced)}


def _units(trace: bool) -> dict[str, str]:
    if trace:
        return {name: unit for name, unit, _better in per_layer_metrics()}
    return dict(END_TO_END)


def run_workload(args) -> int:
    try:
        import_ = load_program(ROOT)
        workload = WORKLOADS[args.workload](ROOT, args.seed)
    except (BenchError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        samples, metrics, extra = measure(workload, args, import_)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        workload.close()

    failures = [s.outcome.detail for s in samples if not s.outcome.ok]
    units = _units(args.trace)
    shape = records.full_shape(workload.shape(), seconds=args.seconds,
                               trace=args.trace)
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "stamp": records.stamp(ROOT),
        "shape": shape,
        "shape_id": records.shape_id(shape),
        "correct": not failures,
        "attempted": len(samples),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
        "extra": extra,
    }
    path = records.write_record(ROOT, record)

    print(f"workload {workload.name}  seed {args.seed}  trace {int(args.trace)}"
          f"  shape {record['shape_id']}  source {record['stamp']['source_digest'][:12]}"
          f"  git {record['stamp']['git_sha'] or '-'}")
    for name, value in metrics.items():
        shown = "null" if value is None else f"{value:.6g}"
        print(f"  {name:<40} {shown:>14} {units[name]}")
    for name, unit in EXTRA_UNITS.items():
        if name in extra:
            print(f"  {name:<40} {extra[name]:>14.6g} {unit}")
    for detail in failures[:5]:
        print(f"  FAILED {detail}")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0 if not failures else 1


def run_all(args) -> int:
    """Every workload in its own process; the last line merges them."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(int(args.trace))],
            cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        worst = max(worst, proc.returncode)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 2 or not lines:
            return 2
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    args.trace = bool(args.trace)
    # Keeps git (the program stamps stored runs with the HEAD SHA) from
    # searching above the checkout for a repository.
    os.environ["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

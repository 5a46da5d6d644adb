"""The campaign workloads of the benchmark.

One op is one fault campaign of one target.  The targets are every
campaignable DUT plus the ``lock+cluster`` composition, so a pass over all
of them also drives the plan-replay path and the shared CAN bus of a
composed campaign.  Each workload fixes how an op reaches the program:

``family_warm``
    in-process, serial backend, campaigns built and warmed once in set-up;
``cli_cold``
    one fresh ``repro-campaign --quiet`` process per op;
``store_resume``
    ``run_campaign`` with a result store and checkpointed resume, then the
    stored run read back and re-rendered;
``family_process2``
    ``run_campaign`` on the process backend with up to two workers.

Every op's output is compared byte for byte against the target's classic
reference (serial, plans, VM and stand reuse all off), captured in set-up.
"""

from __future__ import annotations

import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from spans import attribute_imports, parse_importtime

__all__ = [
    "COMPOSITION",
    "WORKLOADS",
    "BenchError",
    "Target",
    "Reference",
    "OpOutcome",
    "campaign_targets",
    "classic_reference",
    "render",
    "peak_rss_mb",
]

COMPOSITION = "lock+cluster"

#: ``python -c`` program of one ``repro-campaign`` invocation: the package
#: is not installed, so the console script's entry point is called directly.
CLI_PROGRAM = ("import sys; from repro.cli import main_campaign; "
               "sys.exit(main_campaign(sys.argv[1:]))")

#: Seconds one child process may take before the op counts as failed.
CHILD_TIMEOUT_S = 60.0


class BenchError(RuntimeError):
    """The benchmark cannot run on this tree (set-up failed)."""


@dataclass(frozen=True)
class Target:
    """One campaign target: a DUT or a composition."""

    label: str
    spec: dict             # the CampaignSpec fields naming it
    cli: tuple[str, ...]   # the matching repro-campaign arguments


@dataclass(frozen=True)
class Reference:
    """A target's classic-path output, captured in set-up."""

    text: str      # fault table + "\n" + summary line
    summary: str
    jobs: int


@dataclass
class OpOutcome:
    """What one op produced, beyond its wall time."""

    ok: bool
    jobs: int
    detail: str = ""
    report_s: float | None = None
    retries: int = 0
    failed_jobs: int = 0
    #: Per-layer ``[calls, self seconds]`` measured outside this process
    #: (the traced ``cli_cold`` child); ``None`` for in-process ops.
    layers: dict | None = None
    #: Plan-cache counter deltas measured outside this process.
    plan_stats: dict | None = None


def campaign_targets() -> list[Target]:
    """Every campaignable DUT, then the composition."""
    from repro.targets import campaignable_dut_names

    found = [Target(name, {"dut": name}, ("--dut", name))
             for name in campaignable_dut_names()]
    found.append(Target(COMPOSITION, {"composition": COMPOSITION},
                        ("--compose", COMPOSITION)))
    return found


def render(result) -> str:
    """What ``repro-campaign`` prints on stdout for *result*."""
    return f"{result.table()}\n{result.summary()}"


def _baseline_error(result) -> bool:
    from repro.teststand.verdict import Verdict

    return any(r.verdict is Verdict.ERROR for r in result.baseline)


def classic_reference(target: Target) -> Reference:
    """Run *target* on the classic reference path and keep its output."""
    from repro import targets

    result = targets.run_campaign(targets.CampaignSpec(
        backend="serial", use_plans=False, use_vm=False, reuse_stands=False,
        **target.spec))
    if _baseline_error(result):
        raise BenchError(f"{target.label}: the classic reference baseline "
                         "holds ERROR verdicts")
    return Reference(render(result), result.summary(), len(result.execution))


def _checked(target: Target, reference: Reference, result, text: str,
             **extra) -> OpOutcome:
    if _baseline_error(result):
        detail = f"{target.label}: ERROR baseline"
    elif text != reference.text:
        detail = f"{target.label}: output differs from the classic reference"
    else:
        detail = ""
    report = result.execution
    return OpOutcome(not detail, reference.jobs, detail,
                     retries=sum(max(0, jr.attempts - 1) for jr in report),
                     failed_jobs=len(report.failed_jobs), **extra)


def peak_rss_mb(children: bool) -> float:
    """Peak resident set of this process, plus its largest child."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

@dataclass
class Workload:
    """Set-up plus one op per target; subclasses fix how an op runs."""

    root: Path
    seed: int
    targets: list[Target] = field(default_factory=list)
    references: dict[str, Reference] = field(default_factory=dict)

    name = "?"
    why = ""
    backend = "serial"
    store_mode = "none"
    in_process = True
    rss_children = False
    #: Whether the busy probe of :mod:`probe` is a bare interpreter start
    #: rather than the in-process kernel.
    spawn_probe = False

    @property
    def workers(self) -> int:
        return 1

    @property
    def work_dir(self) -> Path:
        path = self.root / ".perfbench" / "work"
        path.mkdir(parents=True, exist_ok=True)
        return path

    def shape(self) -> dict:
        """What must match for two results of this workload to compare."""
        return {
            "workload": self.name,
            "targets": [t.label for t in self.targets],
            "jobs_per_pass": sum(r.jobs for r in self.references.values()),
            "backend": self.backend,
            "workers": self.workers,
            "store_mode": self.store_mode,
        }

    def setup(self) -> None:
        """Capture references, then prepare the timed ops (repeatable)."""
        from repro.teststand.plan import GLOBAL_PLAN_CACHE

        GLOBAL_PLAN_CACHE.clear()
        self.targets = campaign_targets()
        self.references = {t.label: classic_reference(t) for t in self.targets}
        self.prepare()

    def prepare(self) -> None:
        """Workload-specific builds and warm-up (after the references)."""

    def warm(self) -> None:
        for target in self.targets:
            outcome = self.op(target)
            if not outcome.ok:
                raise BenchError(f"warm-up failed: {outcome.detail}")

    def pass_order(self, rng: random.Random) -> list[Target]:
        order = list(self.targets)
        rng.shuffle(order)
        return order

    def op(self, target: Target, *, traced: bool = False) -> OpOutcome:
        raise NotImplementedError

    def close(self) -> None:
        """Remove what set-up created."""


class FamilyWarm(Workload):
    name = "family_warm"
    why = ("in-process serial campaigns built and warmed once: DUT "
           "simulation, instruments, VM and CAN do the work")

    def prepare(self) -> None:
        from repro import targets

        self.campaigns = {
            t.label: targets.build_campaign(targets.CampaignSpec(
                backend="serial", **t.spec))
            for t in self.targets
        }
        self.warm()

    def op(self, target: Target, *, traced: bool = False) -> OpOutcome:
        campaign, faults = self.campaigns[target.label]
        result = campaign.run(faults)
        return _checked(target, self.references[target.label], result,
                        render(result))


class FamilyProcess(Workload):
    name = "family_process2"
    why = ("run_campaign on the process backend with up to 2 workers: pool "
           "spin-up, pickling and chunk dispatch dominate")
    backend = "process"
    rss_children = True

    @property
    def workers(self) -> int:
        return max(1, min(2, os.cpu_count() or 1))

    def prepare(self) -> None:
        # The first process-pool campaigns run well above steady state.
        self.warm()
        self.warm()

    def op(self, target: Target, *, traced: bool = False) -> OpOutcome:
        from repro import targets

        result = targets.run_campaign(targets.CampaignSpec(
            backend="process", jobs=self.workers, **target.spec))
        return _checked(target, self.references[target.label], result,
                        render(result))


class StoreResume(Workload):
    name = "store_resume"
    why = ("checkpointed run_campaign into a fresh sqlite store, then the "
           "stored run re-rendered: per-job writes and read-back dominate")
    store_mode = "resume+readback"

    def prepare(self) -> None:
        self.close()
        self.store_path = self.work_dir / f"store-{os.getpid()}-{self.seed}.db"
        self.warm()

    def op(self, target: Target, *, traced: bool = False) -> OpOutcome:
        from repro import targets
        from repro.store import ResultStore

        result = targets.run_campaign(targets.CampaignSpec(
            backend="serial", store=str(self.store_path), resume=True,
            **target.spec))
        start = time.perf_counter()
        text = ResultStore(str(self.store_path)).get_run(
            result.store_run_id).render()
        report_s = time.perf_counter() - start
        return _checked(target, self.references[target.label], result, text,
                        report_s=report_s)

    def close(self) -> None:
        path = getattr(self, "store_path", None)
        if path is None:
            return
        for suffix in ("", "-wal", "-shm", "-journal"):
            Path(f"{path}{suffix}").unlink(missing_ok=True)


class CliCold(Workload):
    name = "cli_cold"
    why = ("one fresh repro-campaign process per op: imports and cold "
           "plan/VM compiles dominate, as in CI")
    in_process = False
    rss_children = True
    # An op is a fresh process: exec, page faults and imports.  In the
    # host's quick phase the in-process kernel speeds up well beyond that
    # (1.4x-1.6x against 1.25x), while a bare interpreter start keeps pace.
    spawn_probe = True

    def prepare(self) -> None:
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (str(self.root / "src"), self.env.get("PYTHONPATH"))))
        self.interpreter_s, self.interpreter_roots = self._bare_interpreter()
        outcome = self.op(self.targets[0])
        if not outcome.ok:
            raise BenchError(f"warm-up failed: {outcome.detail}")

    def _run(self, argv: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run(argv, cwd=self.root, env=self.env,
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)

    def _bare_interpreter(self, runs: int = 5) -> tuple[float, frozenset]:
        """Median wall of a bare interpreter start under ``-X importtime``,
        plus the modules such a start imports at top level."""
        walls = []
        roots: frozenset = frozenset()
        for _ in range(runs):
            start = time.perf_counter()
            proc = self._run([sys.executable, "-X", "importtime", "-c", "pass"])
            walls.append(time.perf_counter() - start)
            roots = frozenset(module for depth, module, _ in
                              parse_importtime(proc.stderr) if depth == 0)
        return statistics.median(walls), roots

    def op(self, target: Target, *, traced: bool = False) -> OpOutcome:
        reference = self.references[target.label]
        if traced:
            return self._traced_op(target, reference)
        proc = self._run([sys.executable, "-c", CLI_PROGRAM, "--quiet",
                          *target.cli])
        return self._checked_stdout(target, reference, proc)

    def _checked_stdout(self, target, reference, proc, **extra) -> OpOutcome:
        if proc.returncode != 0:
            detail = (f"{target.label}: exit {proc.returncode}: "
                      f"{proc.stderr[-300:]}")
        elif proc.stdout != reference.summary + "\n":
            detail = f"{target.label}: stdout differs from the classic reference"
        else:
            detail = ""
        return OpOutcome(not detail, reference.jobs, detail, **extra)

    def _traced_op(self, target: Target, reference: Reference) -> OpOutcome:
        dump = self.work_dir / f"child-{os.getpid()}.json"
        child = Path(__file__).resolve().parent / "cold_child.py"
        proc = self._run([sys.executable, "-X", "importtime", str(child),
                          str(dump), "--quiet", *target.cli])
        if proc.returncode != 0:
            return self._checked_stdout(target, reference, proc)
        document = json.loads(dump.read_text(encoding="utf-8"))
        dump.unlink()
        layers = document["layers"]
        # The child's own tracer import is tracing overhead, left to the
        # unattributed residual.
        imports = attribute_imports(parse_importtime(proc.stderr),
                                    self.interpreter_roots | {"spans"})
        layers["startup.interpreter"] = [1, self.interpreter_s]
        layers["startup.import"] = [0, imports.pop("other") / 1000.0]
        for package, ms in imports.items():
            layers[f"startup.import.{package}"] = [0, ms / 1000.0]
        return self._checked_stdout(
            target, reference, proc, layers=layers,
            plan_stats=document["plan_stats"],
            retries=document["retries"], failed_jobs=document["failed_jobs"])


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (FamilyWarm, CliCold, StoreResume, FamilyProcess)
}

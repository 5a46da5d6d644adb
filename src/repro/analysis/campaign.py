"""Fault-injection campaigns: running suites against seeded defects.

A campaign answers the question the paper's motivation raises: *do the
preserved test cases actually catch the bugs that have occurred in the
past?*  For every fault model the campaign executes every script of the
suite on a fresh faulty ECU and records whether any step failed.

Execution is delegated to the job-based engine in
:mod:`repro.teststand.executor`: the campaign expands into one job per
(script x ECU variant), and any backend - serial, thread pool, process
pool or the single-worker async multiplexer - produces the identical,
insertion-ordered verdict aggregate.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Sequence

from .._record import Record
from ..core.errors import ReproError
from ..core.script import TestScript
from ..core.signals import SignalSet
from ..dut.base import EcuModel
from ..dut.harness import TestHarness
from ..teststand.executor import (
    ExecutionReport,
    Executor,
    JobResult,
    ResiliencePolicy,
    expand_jobs,
    run_jobs,
)
from ..teststand.stands import TestStand
from ..teststand.verdict import TestResult
from .faults import FaultModel

__all__ = ["FaultRunOutcome", "CampaignResult", "FaultCampaign"]

HarnessFactory = Callable[[EcuModel], TestHarness]
StandFactory = Callable[[], TestStand]

#: Group label of the healthy-ECU jobs in the expanded campaign.
BASELINE_GROUP = "baseline"


class FaultRunOutcome(Record):
    """Result of running the whole suite against one fault model."""

    fault: FaultModel
    results: tuple[TestResult, ...]

    def __init__(self, fault: FaultModel,
                 results: tuple[TestResult, ...]) -> None:
        self.__dict__.update(fault=fault, results=results)

    @property
    def detected(self) -> bool:
        """The fault counts as detected when at least one step failed."""
        return any(not result.passed for result in self.results)

    @property
    def failing_tests(self) -> tuple[str, ...]:
        return tuple(result.script.name for result in self.results if not result.passed)

    @property
    def as_expected(self) -> bool:
        """Whether detection matches the catalogue's expectation."""
        return self.detected == self.fault.expected_detected


class CampaignResult:
    """Aggregate of a fault-injection campaign."""

    #: Run id assigned by the persistent result store when this result was
    #: recorded (``CampaignSpec(store=...)`` / ``repro-campaign --store``);
    #: ``None`` for unrecorded results.  Set by
    #: :func:`repro.targets.run_campaign`, read by the CLI and the service.
    store_run_id: int | None = None

    def __init__(
        self,
        baseline: tuple[TestResult, ...],
        outcomes: Sequence[FaultRunOutcome],
        *,
        execution: ExecutionReport | None = None,
    ):
        self.baseline = baseline
        self.outcomes = tuple(outcomes)
        #: Execution metadata (backend, wall time, retries); None for results
        #: assembled outside the executor.
        self.execution = execution

    @classmethod
    def from_report(cls, report: ExecutionReport,
                    faults: Iterable[FaultModel]) -> "CampaignResult":
        """Group *report*'s jobs into the baseline and one outcome per
        fault of *faults*, in catalogue order."""
        by_group = report.by_group()

        def results(group: str) -> tuple[TestResult, ...]:
            return tuple(jr.result for jr in by_group.get(group, ()))

        return cls(
            results(BASELINE_GROUP),
            [FaultRunOutcome(fault, results(fault.name)) for fault in faults],
            execution=report,
        )

    @property
    def baseline_clean(self) -> bool:
        """Whether the healthy ECU passes every test (sanity precondition)."""
        return all(result.passed for result in self.baseline)

    @property
    def detection_rate(self) -> float:
        """Fraction of injected faults detected by the suite."""
        if not self.outcomes:
            return 1.0
        return sum(1 for outcome in self.outcomes if outcome.detected) / len(self.outcomes)

    @property
    def detected(self) -> tuple[str, ...]:
        return tuple(outcome.fault.name for outcome in self.outcomes if outcome.detected)

    @property
    def undetected(self) -> tuple[str, ...]:
        return tuple(outcome.fault.name for outcome in self.outcomes if not outcome.detected)

    def table(self) -> str:
        """Text table: one row per fault model."""
        from ..teststand.report import format_table

        header = ("fault", "detected", "expected", "failing tests", "description")
        rows = []
        for outcome in self.outcomes:
            rows.append((
                outcome.fault.name,
                "yes" if outcome.detected else "NO",
                "yes" if outcome.fault.expected_detected else "no",
                ", ".join(outcome.failing_tests) or "-",
                outcome.fault.description,
            ))
        return format_table(header, rows)

    def summary(self) -> str:
        return (
            f"fault campaign: {len(self.outcomes)} faults, "
            f"{len(self.detected)} detected ({self.detection_rate:.0%}), "
            f"baseline {'clean' if self.baseline_clean else 'NOT clean'}"
        )


class FaultCampaign:
    """Runs a set of scripts against a healthy ECU and a fault catalogue.

    The campaign itself only *describes* the work; the (scripts x ECU
    variants) cross product is expanded into independent jobs and handed to
    an :class:`~repro.teststand.executor.Executor`.  Passing a parallel
    executor changes the wall time, never the verdicts: results are
    re-assembled in catalogue order.
    """

    def __init__(
        self,
        scripts: Sequence[TestScript],
        signals: SignalSet,
        stand_factory: StandFactory,
        harness_factory: HarnessFactory,
        healthy_factory: Callable[[], EcuModel],
        *,
        policy: str = "first_fit",
        executor: Executor | None = None,
        resilience: ResiliencePolicy | None = None,
        use_plans: bool = True,
        reuse_stands: bool = True,
        use_vm: bool = True,
    ):
        self.scripts = tuple(scripts)
        self.signals = signals
        self.stand_factory = stand_factory
        self.harness_factory = harness_factory
        self.healthy_factory = healthy_factory
        self.policy = policy
        self.executor = executor
        #: Executor resilience policy (retries, backoff, deadline,
        #: quarantine, chaos); ``None`` runs under the default policy.
        self.resilience = resilience
        #: Compile-once-run-many switches forwarded to every job (see
        #: :class:`repro.teststand.executor.Job`); off only for A/B timing.
        self.use_plans = bool(use_plans)
        self.reuse_stands = bool(reuse_stands)
        self.use_vm = bool(use_vm)

    def _expand(self, faults: Sequence[FaultModel]):
        """One job per (ECU variant x script): baseline first, catalogue order."""
        groups: dict[str, Callable[[], EcuModel]] = {BASELINE_GROUP: self.healthy_factory}
        for fault in faults:
            if fault.name in groups:
                raise ReproError(
                    f"fault model name {fault.name!r} collides with another "
                    "campaign group"
                )
            groups[fault.name] = fault.build
        return expand_jobs(
            self.scripts,
            self.signals,
            {"": self.stand_factory},
            self.harness_factory,
            groups,
            policy=self.policy,
            use_plans=self.use_plans,
            reuse_stands=self.reuse_stands,
            use_vm=self.use_vm,
        )

    def run(
        self,
        faults: Iterable[FaultModel],
        *,
        executor: Executor | None = None,
        resilience: ResiliencePolicy | None = None,
        completed: Mapping[str, JobResult] | None = None,
        on_result: Callable[[JobResult], None] | None = None,
    ) -> CampaignResult:
        """Execute the campaign and return its aggregated result.

        *resilience*, *completed* and *on_result* forward to
        :func:`~repro.teststand.executor.run_jobs`: the full resilience
        policy, previously checkpointed results to skip, and a streaming
        callback (e.g. a checkpoint writer) for fresh results.
        """
        catalogue = tuple(faults)
        report = run_jobs(
            self._expand(catalogue),
            executor or self.executor,
            resilience=resilience if resilience is not None else self.resilience,
            completed=completed,
            on_result=on_result,
        )
        report.test_results()  # raise early when a job failed terminally
        return CampaignResult.from_report(report, catalogue)

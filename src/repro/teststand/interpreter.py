"""Test-stand interpreter: executes XML test scripts on a (virtual) stand.

The interpreter is the component the paper requires *"for those test stands,
that are going to be used for component tests"*.  It only consumes

* the stand-independent test script,
* the stand's own resource table and connection matrix,
* the DUT adapter information (which signal sits on which pin),

which is precisely the boundary that makes the test definitions portable.
The execution convention per step is: apply all stimuli of the step, let the
step's Δt elapse, then evaluate all expectations.

A run takes one of two execution modes: the bytecode VM
(:mod:`repro.teststand.vm`, the fast path) or the classic walk, the
reference that searches a resource for every action.  Each mode is written
once, as a generator core that yields its wall-clock waits (instrument
``io_delay``, injected chaos hangs).  :meth:`TestStandInterpreter.run`
drives the core with blocking sleeps; :meth:`TestStandInterpreter.arun`
awaits it, so an asyncio event loop can interleave many script runs on
latency-simulated stands.  Both produce the identical
:class:`~repro.teststand.verdict.TestResult`.
"""

from __future__ import annotations

import time as _time
from typing import Mapping

from ..core.errors import AllocationError, ExecutionError, TransientError
from ..core.script import SignalAction, TestScript
from ..core.signals import SignalSet
from ..dut.harness import TestHarness
from ..instruments.base import Core, adrive, drive
from ..methods import MethodRegistry, default_registry
from .allocator import Allocator
from .plan import (
    GLOBAL_PLAN_CACHE,
    PlanCache,
    open_circuit_outcome,
    open_circuit_requested,
    split_step,
    wait_duration,
)
from .profiling import PROFILER
from .stands import TestStand
from .verdict import ActionResult, StepResult, TestResult, Verdict
from .vm import VmCursor

__all__ = ["TestStandInterpreter", "run_script"]


class TestStandInterpreter:
    """Executes :class:`~repro.core.script.TestScript` objects on a stand.

    ``plan_cache`` (default the process-wide
    :data:`~repro.teststand.plan.GLOBAL_PLAN_CACHE`) selects the bytecode
    fast path: every run looks the (script x stand-topology x policy x
    values of the variables the script reads) combination up in it,
    compiles its :class:`~repro.teststand.plan.ExecutionPlan` and VM
    program on first use, self-checks the program in a prologue and - if
    everything matches - executes the flat instruction stream on this
    stand's instruments (see :mod:`repro.teststand.vm`).  Otherwise the run
    takes the classic walk, a full allocator search per action, with
    byte-identical verdicts.  ``plan_cache=None`` selects the classic walk
    for every run.
    """

    __test__ = False  # a domain class, not a pytest test class

    def __init__(
        self,
        stand: TestStand,
        harness: TestHarness,
        signals: SignalSet,
        *,
        policy: str = "first_fit",
        registry: MethodRegistry | None = None,
        stop_on_error: bool = False,
        plan_cache: PlanCache | None = GLOBAL_PLAN_CACHE,
    ):
        self.stand = stand
        self.harness = harness
        self.signals = signals
        self.registry = registry or stand.registry or default_registry()
        self.policy = policy
        self.stop_on_error = stop_on_error
        self.plan_cache = plan_cache
        self.allocator = Allocator(
            stand.resources, stand.connections, policy=policy, registry=self.registry
        )

    # -- public API --------------------------------------------------------------

    def run(self, script: TestScript) -> TestResult:
        """Execute *script*, blocking for every instrument wait.

        The path the serial / thread / process backends use.  When the
        cached plan carries a compiled VM program and its run prologue
        validates, the VM executes the run; otherwise the classic walk
        does, producing identical verdicts.
        """
        cursor, variables, started = self._begin(script)
        if cursor is not None:
            outcome = cursor.execute(variables)
        else:
            outcome = drive(self._walk(script, variables))
        return self._collect(script, cursor, outcome, started)

    async def arun(self, script: TestScript) -> TestResult:
        """Execute *script*, awaiting every instrument wait.

        The same core as :meth:`run`, so the same verdicts and
        stop-on-error semantics, but the event loop runs other scripts
        while this stand's (simulated) I/O is in flight.  A cancelled task
        raises ``CancelledError`` out of here instead of recording a
        verdict.
        """
        cursor, variables, started = self._begin(script)
        core = self._walk(script, variables) if cursor is None else cursor.run(variables)
        return self._collect(script, cursor, await adrive(core), started)

    # -- internals -----------------------------------------------------------------

    def _begin(
        self, script: TestScript
    ) -> tuple[VmCursor | None, dict[str, float], tuple]:
        """Run prologue: reset allocations, check variables, pick the mode.

        Returns the validated VM cursor (``None`` = classic walk), the run
        variables and the start marks :meth:`_collect` needs.
        """
        wall_start = _time.perf_counter()
        self.allocator.release_all()
        self.harness.set_ubatt(self.stand.supply_voltage)
        variables = self._variables()
        missing = [name for name in script.variables if name not in variables]
        if missing:
            # Expressions match variable names case-insensitively, so a
            # stand may spell ``Vref`` where the script reads ``vref``.
            provided = {str(name).lower() for name in variables}
            missing = [name for name in missing if name.lower() not in provided]
        if missing:
            error = ExecutionError(
                f"test stand {self.stand.name!r} does not provide variables {missing}"
            )
            error.transient = False  # no retry can give the stand them
            raise error
        cursor = None
        if self.plan_cache is not None:
            # One cache lookup per run; the first run of a combination pays
            # the compile.  Plan trouble of any kind silently degrades to
            # the classic walk.
            try:
                plan = self.plan_cache.plan_for(
                    script, self.signals, self.stand,
                    policy=self.policy, registry=self.registry,
                    variables=variables,
                )
            except Exception:
                plan = None
            if plan is not None and plan.program is not None:
                # Run the program's prologue self-check.  Any mismatch -
                # other values of the variables compiled for, a live
                # signal pinned differently than compiled, a resource this
                # stand lacks - degrades this whole run to the classic
                # walk before anything has executed.
                cursor = VmCursor(
                    plan.program, self.stand, signals=self.signals,
                    harness=self.harness, stop_on_error=self.stop_on_error,
                )
                if not cursor.validate(variables):
                    self.plan_cache.note_vm_degrade()
                    cursor = None
        vm_start = (_time.perf_counter()
                    if cursor is not None and PROFILER.enabled else None)
        return cursor, variables, (wall_start, self.harness.now, vm_start)

    def _collect(
        self,
        script: TestScript,
        cursor: VmCursor | None,
        outcome: tuple[list[ActionResult], list[StepResult]],
        started: tuple,
    ) -> TestResult:
        """Run epilogue: release resources, assemble the result."""
        wall_start, clock_start, vm_start = started
        if vm_start is not None:
            PROFILER.add("vm_execute", _time.perf_counter() - vm_start)
        if cursor is not None:
            self.plan_cache.note_vm_run()
        self.allocator.release_all()
        setup_results, steps = outcome
        # Simulated duration is the harness clock delta, which also covers
        # `wait` actions and time spent during setup - not just the sum of
        # the step durations.
        return TestResult(
            script,
            self.stand.name,
            setup=tuple(setup_results),
            steps=steps,
            duration=self.harness.now - clock_start,
            wall_time=_time.perf_counter() - wall_start,
        )

    def _variables(self) -> dict[str, float]:
        variables = dict(self.harness.variables())
        variables.update(self.stand.variables)
        variables["ubatt"] = self.stand.supply_voltage
        return variables

    def _walk(
        self, script: TestScript, variables: Mapping[str, float]
    ) -> Core[tuple[list[ActionResult], list[StepResult]]]:
        """The classic walk as a generator core; returns (setup, steps)."""
        setup_results: list[ActionResult] = []
        for action in script.setup:
            result = yield from self._perform_action(action, variables)
            setup_results.append(result)
            if self.stop_on_error and result.verdict is Verdict.ERROR:
                # A broken setup invalidates every step; abort the run but
                # keep the setup results so the report shows what happened.
                return setup_results, []

        steps: list[StepResult] = []
        for step in script.steps:
            start_time = self.harness.now
            stimuli, expectations = split_step(step, self.registry)
            results: list[ActionResult] = []
            for action in stimuli:
                results.append((yield from self._perform_action(action, variables)))
            # Let the step duration elapse before the expectations are
            # evaluated (simulated time: no wall-clock wait).
            self.harness.advance(step.duration)
            for action in expectations:
                results.append((yield from self._perform_action(action, variables)))
            result = StepResult(
                number=step.number,
                duration=step.duration,
                actions=tuple(results),
                remark=step.remark,
                start_time=start_time,
            )
            steps.append(result)
            if self.stop_on_error and result.verdict is Verdict.ERROR:
                break
        return setup_results, steps

    def _perform_action(
        self, action: SignalAction, variables: Mapping[str, float]
    ) -> Core[ActionResult]:
        """One action as a generator core: allocate, then call the instrument."""
        try:
            signal = self.signals.get(action.signal)
        except Exception as exc:
            return ActionResult(action, Verdict.ERROR, error=f"unknown signal: {exc}")

        if action.call.key == "wait":
            self.harness.advance(wait_duration(action.call))
            return ActionResult(action, Verdict.PASS)

        if open_circuit_requested(action, signal, variables):
            # Realise ``put_r r="INF"`` by simply disconnecting the pin.  A
            # door in its "Closed" status is an open contact; the cheapest
            # (and physically most faithful) realisation is to not connect
            # any resource at all, which also frees the resistor decade for
            # other door signals.  The VM compiler makes the same
            # decision and applies the same release.
            self.allocator.release(signal.key)
            for pin in signal.pins:
                self.harness.release_resistance(pin)
            return ActionResult(action, Verdict.PASS,
                                outcome=open_circuit_outcome(action, signal))

        t0 = _time.perf_counter() if PROFILER.enabled else None
        try:
            allocation = self.allocator.allocate(signal, action.call, variables)
        except AllocationError as exc:
            return ActionResult(action, Verdict.ERROR, error=str(exc))
        finally:
            if t0 is not None:
                PROFILER.add("allocation", _time.perf_counter() - t0)

        instrument = self.stand.resources.get(allocation.resource).instrument
        t0 = _time.perf_counter() if PROFILER.enabled else None
        try:
            outcome = yield from instrument.round_trip(
                action.call, signal, allocation.pins, self.harness, dict(variables)
            )
        # Transient infrastructure failures (flaky instrument I/O, chaos
        # injections) must reach the executor's retry layer, not become an
        # ERROR verdict: a retried job's verdicts then match a clean run.
        # (A cancelled task's driver closes this core: the GeneratorExit
        # raised at the yield is no Exception, so it unwinds untouched.)
        except TransientError:
            raise
        except Exception as exc:  # instrument, harness and model errors
            return ActionResult(action, Verdict.ERROR, allocation=allocation, error=str(exc))
        finally:
            if t0 is not None:
                PROFILER.add("instrument_io", _time.perf_counter() - t0)
        verdict = Verdict.PASS if outcome.passed else Verdict.FAIL
        return ActionResult(action, verdict, outcome=outcome, allocation=allocation)


def run_script(
    script: TestScript,
    stand: TestStand,
    harness: TestHarness,
    signals: SignalSet,
    *,
    policy: str = "first_fit",
) -> TestResult:
    """Convenience wrapper: build an interpreter and run one script."""
    interpreter = TestStandInterpreter(stand, harness, signals, policy=policy)
    return interpreter.run(script)

"""Compiler: test definition sheets -> stand-independent test scripts.

This is the paper's "tool ... for automatic generation of code, that can be
interpreted by any test stand".  The compiler resolves every symbolic status
of every step through the status table and the method registry into a fully
parameterised method call, while deliberately *not* resolving anything that
belongs to the test stand (supply-voltage-relative limits stay as
expressions, signals stay signals rather than pins).
"""

from __future__ import annotations

from ..methods import MethodRegistry, MethodSpec, default_registry
from .errors import CompileError
from .script import MethodCall, ScriptStep, SignalAction, TestScript
from .signals import Signal, SignalSet
from .status import StatusDefinition, StatusTable
from .testdef import TestDefinition, TestStep, TestSuite

__all__ = ["Compiler", "compile_suite", "compile_test"]


class Compiler:
    """Compile :class:`~repro.core.testdef.TestDefinition` objects to scripts.

    The compiler is the one check of a sheet: every status a test uses
    must name a method of ``registry`` (a stand that brings proprietary
    methods registers them in the registry it passes here), every
    stimulus must drive a DUT input and every measurement read a DUT
    output.
    """

    def __init__(self, registry: MethodRegistry | None = None):
        self.registry = registry or default_registry()

    # -- public API ----------------------------------------------------------

    def compile_test(self, suite: TestSuite, test: TestDefinition | str) -> TestScript:
        """Compile one test definition of a suite into a test script."""
        definition = suite.get(test) if isinstance(test, str) else test
        definition.validate(suite.signals, suite.statuses)
        setup = self._compile_setup(suite)
        steps = [
            self._compile_step(step, suite.signals, suite.statuses)
            for step in definition
        ]
        return TestScript(
            name=definition.name,
            dut=suite.dut,
            steps=steps,
            setup=setup,
            description=definition.description,
            metadata={"generator": "repro", "suite": suite.dut},
        )

    def compile_suite(self, suite: TestSuite) -> list[TestScript]:
        """Compile every test definition of the suite."""
        return [self.compile_test(suite, test) for test in suite]

    # -- internals -----------------------------------------------------------

    def _compile_setup(self, suite: TestSuite) -> tuple[SignalAction, ...]:
        actions: list[SignalAction] = []
        for signal_name, status_name in suite.signals.initial_statuses.items():
            signal = suite.signals.get(signal_name)
            status = suite.statuses.get(status_name)
            spec = self._spec_for(status, step=None, signal=signal.name)
            if spec.is_measurement:
                # Initial statuses describe the state to establish before the
                # test; expectations make no sense there and are skipped for
                # outputs (the paper's sheet lists "Lo" as the resting state
                # of INT_ILL which is checked again by step 0 anyway).
                continue
            actions.append(self._build_action(signal, status, spec, step=None))
        return tuple(actions)

    def _compile_step(
        self,
        step: TestStep,
        signals: SignalSet,
        statuses: StatusTable,
    ) -> ScriptStep:
        stimuli: list[SignalAction] = []
        expectations: list[SignalAction] = []
        for assignment in step.assignments:
            # compile_test validated the sheet: both names are defined.
            signal = signals.get(assignment.signal)
            status = statuses.get(assignment.status)
            spec = self._spec_for(status, step=step.number, signal=signal.name)
            action = self._build_action(signal, status, spec, step=step.number)
            # Within one step all stimuli are applied first, then the
            # expectations are evaluated after the step's Δt has elapsed.
            # Keeping them ordered in the IR lets any interpreter follow the
            # same convention.
            if spec.is_measurement:
                expectations.append(action)
            else:
                stimuli.append(action)
        return ScriptStep(
            number=step.number,
            duration=step.duration,
            actions=tuple(stimuli + expectations),
            remark=step.remark,
            requirement=step.requirement,
        )

    def _spec_for(
        self, status: StatusDefinition, *, step: int | None, signal: str
    ) -> MethodSpec:
        if status.method not in self.registry:
            raise CompileError(
                f"status {status.name!r} uses unknown method {status.method!r}",
                step=step,
                signal=signal,
            )
        return self.registry.get(status.method)

    def _build_action(
        self,
        signal: Signal,
        status: StatusDefinition,
        spec: MethodSpec,
        *,
        step: int | None,
    ) -> SignalAction:
        self._check_direction(signal, spec, step=step)
        try:
            params = spec.params_from_status(status)
        except Exception as exc:
            raise CompileError(
                f"cannot build parameters for status {status.name!r}: {exc}",
                step=step,
                signal=signal.name,
            ) from exc
        return SignalAction(signal.name.lower(), MethodCall(spec.name, params))

    @staticmethod
    def _check_direction(signal: Signal, spec: MethodSpec, *, step: int | None) -> None:
        if spec.is_stimulus and not signal.is_input:
            raise CompileError(
                f"stimulus method {spec.name!r} applied to DUT output {signal.name!r}",
                step=step,
                signal=signal.name,
            )
        if spec.is_measurement and not signal.is_output:
            raise CompileError(
                f"measurement method {spec.name!r} applied to DUT input {signal.name!r}",
                step=step,
                signal=signal.name,
            )


def compile_test(
    suite: TestSuite,
    test: TestDefinition | str,
    *,
    registry: MethodRegistry | None = None,
) -> TestScript:
    """Module-level convenience wrapper around :class:`Compiler`."""
    return Compiler(registry).compile_test(suite, test)


def compile_suite(
    suite: TestSuite,
    *,
    registry: MethodRegistry | None = None,
) -> list[TestScript]:
    """Compile every test of *suite* (convenience wrapper)."""
    return Compiler(registry).compile_suite(suite)

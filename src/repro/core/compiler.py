"""Compiler: test definition sheets -> stand-independent test scripts.

This is the paper's "tool ... for automatic generation of code, that can be
interpreted by any test stand".  The compiler resolves every symbolic status
of every step through the status table and the method registry into a fully
parameterised method call, while deliberately *not* resolving anything that
belongs to the test stand (supply-voltage-relative limits stay as
expressions, signals stay signals rather than pins).
"""

from __future__ import annotations

from typing import Iterable

from .._record import Record
from ..methods import MethodRegistry, MethodSpec, default_registry
from .errors import CompileError
from .script import MethodCall, ScriptStep, SignalAction, TestScript
from .signals import Signal, SignalSet
from .status import StatusDefinition, StatusTable
from .testdef import TestDefinition, TestStep, TestSuite

__all__ = ["CompileOptions", "Compiler", "compile_suite", "compile_test"]


class CompileOptions(Record):
    """Tunable aspects of the compilation.

    Attributes
    ----------
    check_directions:
        Reject stimulus methods applied to DUT outputs and measurement
        methods applied to DUT inputs.  This catches the most common sheet
        editing mistake (swapping a column) at generation time instead of on
        the test stand.
    emit_setup:
        Whether the initial statuses from the signal definition sheet are
        emitted as a setup block before step 0.
    strict_statuses:
        Reject statuses whose method is unknown to the registry.  When off,
        unknown methods are passed through verbatim (useful when a stand
        brings proprietary methods).
    """

    check_directions: bool = True
    emit_setup: bool = True
    strict_statuses: bool = True

    def __init__(self, check_directions: bool = True, emit_setup: bool = True,
                 strict_statuses: bool = True) -> None:
        self.__dict__.update(check_directions=check_directions,
                             emit_setup=emit_setup,
                             strict_statuses=strict_statuses)


class Compiler:
    """Compile :class:`~repro.core.testdef.TestDefinition` objects to scripts."""

    def __init__(
        self,
        registry: MethodRegistry | None = None,
        options: CompileOptions | None = None,
    ):
        self.registry = registry or default_registry()
        self.options = options or CompileOptions()

    # -- public API ----------------------------------------------------------

    def compile_test(self, suite: TestSuite, test: TestDefinition | str) -> TestScript:
        """Compile one test definition of a suite into a test script."""
        definition = suite.get(test) if isinstance(test, str) else test
        definition.validate(suite.signals, suite.statuses)
        setup = self._compile_setup(suite) if self.options.emit_setup else ()
        steps = [
            self._compile_step(step, suite.signals, suite.statuses, definition.name)
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
            if spec is not None and spec.is_measurement:
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
        test_name: str,
    ) -> ScriptStep:
        stimuli: list[SignalAction] = []
        expectations: list[SignalAction] = []
        for assignment in step.assignments:
            try:
                signal = signals.get(assignment.signal)
                status = statuses.get(assignment.status)
            except Exception as exc:
                raise CompileError(str(exc), step=step.number, signal=assignment.signal) from exc
            spec = self._spec_for(status, step=step.number, signal=signal.name)
            action = self._build_action(signal, status, spec, step=step.number)
            # Within one step all stimuli are applied first, then the
            # expectations are evaluated after the step's Δt has elapsed.
            # Keeping them ordered in the IR lets any interpreter follow the
            # same convention.
            if spec is not None and spec.is_measurement:
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
    ) -> MethodSpec | None:
        if status.method in self.registry:
            return self.registry.get(status.method)
        if self.options.strict_statuses:
            raise CompileError(
                f"status {status.name!r} uses unknown method {status.method!r}",
                step=step,
                signal=signal,
            )
        return None

    def _build_action(
        self,
        signal: Signal,
        status: StatusDefinition,
        spec: MethodSpec | None,
        *,
        step: int | None,
    ) -> SignalAction:
        if spec is None:
            params = {"status": status.name}
            return SignalAction(signal.name.lower(), MethodCall(status.method, params))
        if self.options.check_directions:
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
    options: CompileOptions | None = None,
) -> TestScript:
    """Module-level convenience wrapper around :class:`Compiler`."""
    return Compiler(registry, options).compile_test(suite, test)


def compile_suite(
    suite: TestSuite,
    *,
    registry: MethodRegistry | None = None,
    options: CompileOptions | None = None,
) -> list[TestScript]:
    """Compile every test of *suite* (convenience wrapper)."""
    return Compiler(registry, options).compile_suite(suite)

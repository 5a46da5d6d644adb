"""Static validation of suites and compiled scripts.

The paper's workflow places a lot of trust in early checking: sheets are
written by many different engineers ("usage ... to all involved engineers
without specific training"), so mistakes must be caught before the script
reaches an expensive test stand.  This module implements those checks as
pure functions that return a list of :class:`Issue` objects (empty list =
clean) so that callers can decide whether to warn or abort.
"""

from __future__ import annotations

import enum
from typing import Iterable

from .._record import Record
from ..methods import MethodRegistry, default_registry
from .errors import DefinitionError, ExpressionError
from .script import TestScript
from .testdef import TestSuite
from .values import LimitExpression, parse_parameter

__all__ = ["Severity", "Issue", "validate_suite", "validate_script", "assert_valid"]


class Severity(enum.Enum):
    """How bad an issue is."""

    WARNING = "warning"
    ERROR = "error"


class Issue(Record):
    """One finding of the validator."""

    severity: Severity
    location: str
    message: str

    def __init__(self, severity: Severity, location: str, message: str) -> None:
        self.__dict__.update(severity=severity, location=location,
                             message=message)

    @property
    def is_error(self) -> bool:
        return self.severity is Severity.ERROR

    def __str__(self) -> str:
        return f"{self.severity.value.upper()} {self.location}: {self.message}"


def _issue(severity: Severity, location: str, message: str) -> Issue:
    return Issue(severity, location, message)


def validate_suite(
    suite: TestSuite, registry: MethodRegistry | None = None
) -> list[Issue]:
    """Validate a test suite (sheets) before compilation.

    Checks performed:

    * every status referenced by a test or by an initial status exists,
    * every signal referenced by a test exists,
    * every status' method is known to the registry,
    * stimulus/measurement methods match the signal direction,
    * statuses defined but never used are reported as warnings,
    * output signals that are never checked are reported as warnings.
    """
    registry = registry or default_registry()
    issues: list[Issue] = []

    for signal_name, status_name in suite.signals.initial_statuses.items():
        if status_name not in suite.statuses:
            issues.append(_issue(
                Severity.ERROR,
                f"signals/{signal_name}",
                f"initial status {status_name!r} is not defined in the status table",
            ))

    for status in suite.statuses:
        if status.method not in registry:
            issues.append(_issue(
                Severity.ERROR,
                f"status/{status.name}",
                f"method {status.method!r} is not registered",
            ))

    used_statuses = {name.lower() for name in suite.statuses_used()}
    for status in suite.statuses:
        if status.key not in used_statuses:
            issues.append(_issue(
                Severity.WARNING,
                f"status/{status.name}",
                "status is defined but never used by this suite",
            ))

    checked_outputs: set[str] = set()
    for test in suite:
        location = f"test/{test.name}"
        for step in test:
            for assignment in step.assignments:
                step_location = f"{location}/step{step.number}"
                if assignment.signal not in suite.signals:
                    issues.append(_issue(
                        Severity.ERROR, step_location,
                        f"unknown signal {assignment.signal!r}",
                    ))
                    continue
                if assignment.status not in suite.statuses:
                    issues.append(_issue(
                        Severity.ERROR, step_location,
                        f"unknown status {assignment.status!r}",
                    ))
                    continue
                signal = suite.signals.get(assignment.signal)
                status = suite.statuses.get(assignment.status)
                if status.method not in registry:
                    continue  # already reported above
                spec = registry.get(status.method)
                if spec.is_stimulus and not signal.is_input:
                    issues.append(_issue(
                        Severity.ERROR, step_location,
                        f"stimulus status {status.name!r} assigned to output "
                        f"signal {signal.name!r}",
                    ))
                if spec.is_measurement and not signal.is_output:
                    issues.append(_issue(
                        Severity.ERROR, step_location,
                        f"measurement status {status.name!r} assigned to input "
                        f"signal {signal.name!r}",
                    ))
                if spec.is_measurement and signal.is_output:
                    checked_outputs.add(signal.key)

    for signal in suite.signals.outputs:
        if signal.key not in checked_outputs:
            issues.append(_issue(
                Severity.WARNING,
                f"signals/{signal.name}",
                "output signal is never checked by any test of the suite",
            ))

    return issues


def validate_script(
    script: TestScript, registry: MethodRegistry | None = None
) -> list[Issue]:
    """Validate a compiled (or hand-written / parsed) test script.

    Checks performed:

    * method names are known to the registry (unknown ones are warnings so
      that stand-specific methods survive),
    * parameters match the method schema,
    * expression parameters only reference declared variables,
    * step durations are non-negative and numbers strictly increase.
    """
    registry = registry or default_registry()
    issues: list[Issue] = []
    declared = {v.lower() for v in script.variables}

    def check_action(action, location: str) -> None:
        if action.method not in registry:
            issues.append(_issue(
                Severity.WARNING, location,
                f"method {action.method!r} is not in the registry",
            ))
        else:
            spec = registry.get(action.method)
            try:
                spec.validate_params(dict(action.call.params))
            except Exception as exc:
                issues.append(_issue(Severity.ERROR, location, str(exc)))
        for name, value in action.call.params.items():
            try:
                reading = parse_parameter(value)
            except ExpressionError:
                continue
            if not isinstance(reading, LimitExpression):
                continue
            undeclared = reading.variables - declared
            if undeclared:
                issues.append(_issue(
                    Severity.ERROR, location,
                    f"parameter {name!r} references undeclared variables "
                    f"{sorted(undeclared)}",
                ))

    for action in script.setup:
        check_action(action, f"setup/{action.signal}")

    previous = -1
    for step in script.steps:
        location = f"step{step.number}"
        if step.number <= previous:
            issues.append(_issue(
                Severity.ERROR, location,
                f"step number {step.number} does not increase (previous {previous})",
            ))
        previous = step.number
        if step.duration < 0:
            issues.append(_issue(
                Severity.ERROR, location, f"negative duration {step.duration}"
            ))
        for action in step.actions:
            check_action(action, f"{location}/{action.signal}")

    return issues


def assert_valid(issues: Iterable[Issue]) -> None:
    """Raise :class:`DefinitionError` when any issue is an error."""
    errors = [issue for issue in issues if issue.is_error]
    if errors:
        summary = "; ".join(str(issue) for issue in errors)
        raise DefinitionError(f"validation failed: {summary}")

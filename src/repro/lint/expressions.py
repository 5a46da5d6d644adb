"""Rule family E: expression and type checking of compiled limit parameters.

Every parameter a sheet compiles into its script is read through
:func:`~repro.core.values.parse_parameter`, the test stand's own rule, and
checked against the variable environments the registered stands actually
provide - so an unknown variable, an unparsable limit, an empty acceptance
interval or a status whose attribute contradicts its method all surface
before any hardware (or simulated hardware) runs.

The E-UNRESOLVED-SIGNAL rule re-derives, at lint time, exactly the
condition :func:`repro.targets.derive_signal_set` warns about at run time;
both share :func:`repro.targets.unresolved_signal_message` so the wording
has a single source of truth.
"""

from __future__ import annotations

import math
from typing import Iterator

from ..core.errors import ExpressionError
from ..core.script import MethodCall, SignalAction, TestScript
from ..core.values import format_number, parse_parameter
from ..methods.base import ParameterRole, evaluate_call_parameter
from ..targets import unresolved_signal_message
from .context import LintContext
from .findings import ERROR, WARNING, LintFinding, LintRule

__all__ = ["RULES"]

#: Parameter roles whose values must be numbers or limit expressions.
#: PAYLOAD literals (``0001B``) are binary/hex spellings, not expressions.
_NUMERIC_ROLES = (
    ParameterRole.NOMINAL,
    ParameterRole.MINIMUM,
    ParameterRole.MAXIMUM,
    ParameterRole.DURATION,
    ParameterRole.AUXILIARY,
)


def _iter_actions(script: TestScript) -> Iterator[tuple[str, SignalAction]]:
    """Every action with its location label (``setup`` / ``step:N``)."""
    for action in script.setup:
        yield "setup", action
    for step in script.steps:
        for action in step.actions:
            yield f"step:{step.number}", action


def _constant_value(call: MethodCall, name: str) -> float | None:
    """Parameter *name* of *call* evaluated statically, ``None`` when it
    is absent, blank, unreadable or not constant."""
    try:
        return evaluate_call_parameter(call, name, {})
    except (ExpressionError, ArithmeticError):
        return None


def check_bad_expression(context: LintContext, rule: LintRule):
    """Numeric-role parameters that are neither numbers nor expressions."""
    for dut in context.duts:
        for script in context.scripts(dut):
            for label, action in _iter_actions(script):
                if action.method not in context.registry:
                    continue
                spec = context.registry.get(action.method)
                for name, raw in action.call.params.items():
                    try:
                        parameter = spec.parameter(name)
                    except Exception:
                        continue
                    if parameter.role not in _NUMERIC_ROLES:
                        continue
                    try:
                        parse_parameter(raw)
                    except ExpressionError:
                        yield rule.finding(
                            f"sheet:{script.name} {label} "
                            f"{action.signal}.{action.method}",
                            f"parameter {name!r} value {raw.strip()!r} is "
                            f"neither a number nor a valid limit expression",
                            hint="use a number, INF, or an expression over "
                                 "stand variables like (0.7*ubatt)",
                            dut=dut.name,
                        )


def check_unknown_variable(context: LintContext, rule: LintRule):
    """Script variables no eligible stand's environment provides."""
    for dut in context.duts:
        environments: list[tuple[str, set[str]]] = []
        for stand in context.eligible_stands(dut):
            instance = context.stand_instance(stand, dut)
            if instance is None:
                continue
            environments.append(
                (stand.name, set(context.stand_variables(instance)))
            )
        if not environments:
            continue  # nothing to check against; R rules report the gap
        checked = ", ".join(name for name, _ in environments)
        for script in context.scripts(dut):
            for variable in script.variables:
                if any(variable in env for _, env in environments):
                    continue
                yield rule.finding(
                    f"sheet:{script.name}",
                    f"limit expressions reference variable {variable!r}, "
                    f"which no registered stand provides (checked: {checked})",
                    hint="fix the status table's variable column or declare "
                         "the variable on a stand",
                    dut=dut.name,
                )


def check_empty_interval(context: LintContext, rule: LintRule):
    """Acceptance intervals that are empty as written (min > max).

    Checked both at the status-table level and on the compiled constant
    parameters - :func:`repro.methods.base.limits_for_call` silently
    swaps inverted run-time bounds, so without this rule the authoring
    error would never surface.
    """
    for dut in context.duts:
        seen: set[tuple] = set()
        suite = context.suite(dut)
        if suite is not None:
            for name in suite.statuses_used():
                try:
                    status = suite.statuses.get(name)
                except Exception:
                    continue
                if (status.minimum is None or status.maximum is None
                        or not status.minimum > status.maximum):
                    continue
                key = (status.attribute.lower(), status.minimum, status.maximum)
                seen.add(key)
                yield rule.finding(
                    f"status:{status.name}",
                    f"acceptance interval is empty: minimum "
                    f"{format_number(status.minimum)} exceeds maximum "
                    f"{format_number(status.maximum)}; the run-time "
                    f"normalisation would silently swap the bounds",
                    hint="swap the min/max columns of the status table",
                    dut=dut.name,
                )
        for script in context.scripts(dut):
            for label, action in _iter_actions(script):
                if action.method not in context.registry:
                    continue
                attribute = context.registry.get(action.method).attribute
                if not attribute:
                    continue
                low = _constant_value(action.call, f"{attribute}_min")
                high = _constant_value(action.call, f"{attribute}_max")
                if low is None or high is None or not low > high:
                    continue
                key = (attribute.lower(), low, high)
                if key in seen:
                    continue  # already reported at the status level
                seen.add(key)
                yield rule.finding(
                    f"sheet:{script.name} {label} "
                    f"{action.signal}.{action.method}",
                    f"compiled acceptance interval is empty: "
                    f"{attribute}_min={format_number(low)} exceeds "
                    f"{attribute}_max={format_number(high)}",
                    hint="swap the limits in the sheet or XML",
                    dut=dut.name,
                )


def check_unit_mismatch(context: LintContext, rule: LintRule):
    """Statuses whose declared attribute contradicts their method's."""
    for dut in context.duts:
        suite = context.suite(dut)
        if suite is None:
            continue
        for name in suite.statuses_used():
            try:
                status = suite.statuses.get(name)
            except Exception:
                continue
            if status.method not in context.registry:
                continue
            spec = context.registry.get(status.method)
            if (not status.attribute or not spec.attribute
                    or status.attribute.lower() == spec.attribute.lower()):
                continue
            yield rule.finding(
                f"status:{status.name}",
                f"status declares attribute {status.attribute!r} but its "
                f"method {spec.name!r} measures/applies {spec.attribute!r} - "
                f"the limits compare against a different quantity than the "
                f"sheet suggests",
                hint="align the status table's attribute column with the "
                     "bound method",
                dut=dut.name,
            )


def check_unresolved_signal(context: LintContext, rule: LintRule):
    """Signals that resolve to neither a DUT pin nor a CAN message.

    Same condition :func:`repro.targets.derive_signal_set` reports at run
    time, applied to the registered signal set (declared pins must exist on
    the ECU model, declared bus messages in the harness database) and to
    script signals the registered set does not cover.
    """
    for dut in context.duts:
        harness = context.harness(dut)
        if harness is None:
            continue
        ecu = harness.ecu
        registered = context.signals(dut)

        def resolves_by_name(name: str) -> bool:
            if ecu.has_pin(name):
                return True
            if harness.can_db is None:
                return False
            try:
                harness.can_db.message_for_signal(name)
                return True
            except Exception:
                return False

        if registered is not None:
            for signal in registered:
                problem = None
                if signal.pins:
                    unknown = [p for p in signal.pins if not ecu.has_pin(p)]
                    if unknown:
                        problem = f"unknown pin(s): {', '.join(unknown)}"
                elif signal.is_bus:
                    if harness.can_db is None:
                        problem = "the harness has no CAN database"
                    else:
                        try:
                            harness.can_db.message(signal.message)
                        except Exception:
                            problem = f"unknown CAN message {signal.message!r}"
                if problem is None:
                    continue
                yield rule.finding(
                    f"signal:{signal.name}",
                    unresolved_signal_message(
                        signal.name, "the registered signal set", ecu.name)
                    + f" ({problem}); executing any sheet that touches it "
                    f"yields ERROR verdicts",
                    hint="fix the signal definition sheet or the ECU model's "
                         "pin table",
                    dut=dut.name,
                )
        for script in context.scripts(dut):
            for name in script.signals_used():
                if registered is not None and name in registered:
                    continue
                if resolves_by_name(name):
                    continue
                yield rule.finding(
                    f"sheet:{script.name} signal:{name}",
                    unresolved_signal_message(
                        name, f"script {script.name!r}", ecu.name)
                    + "; it would be dropped from the derived signal set "
                    "and its actions error at run time",
                    hint="add the signal to the signal definition sheet or "
                         "rename it after a DUT pin / CAN signal",
                    dut=dut.name,
                )


RULES = (
    LintRule(
        "E-BAD-EXPRESSION", ERROR,
        "a numeric parameter is neither a number nor a valid limit expression",
        check_bad_expression,
    ),
    LintRule(
        "E-UNKNOWN-VARIABLE", ERROR,
        "a limit expression references a variable no registered stand provides",
        check_unknown_variable,
    ),
    LintRule(
        "E-EMPTY-INTERVAL", ERROR,
        "an acceptance interval is empty as written (min > max)",
        check_empty_interval,
    ),
    LintRule(
        "E-UNIT-MISMATCH", WARNING,
        "a status declares a different attribute than its method measures",
        check_unit_mismatch,
    ),
    LintRule(
        "E-UNRESOLVED-SIGNAL", WARNING,
        "a signal resolves to neither a DUT pin nor a CAN message",
        check_unresolved_signal,
    ),
)

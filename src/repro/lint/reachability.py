"""Rule family R: reachability and dead-step analysis.

These rules read the VM compiler's own allocation walk,
:func:`repro.teststand.vm.walk_program` (through
:meth:`~repro.lint.context.LintContext.walk`), on every stand that could
physically carry the DUT.  An action whose allocation fails on every
stand that covers its sheet's methods is statically unsatisfiable: it will
produce an ERROR verdict on every run that will ever happen, and under
``stop_on_error`` it shadows every later step of the sheet.

Nothing here executes a job; the walk runs the same pure capability model
against a scratch allocator.
"""

from __future__ import annotations

import math

from ..core.errors import AllocationError
from .context import LintContext
from .expressions import _constant_value, _iter_actions
from .findings import ERROR, WARNING, LintRule

__all__ = ["RULES"]


def _allocation_failures(errors) -> dict[tuple, tuple]:
    """``{(label, signal, method): (step number, message)}`` of a walk's
    failed allocations, in run order; the step number is ``None`` in the
    setup."""
    found: dict[tuple, tuple] = {}
    for step, action, error in errors:
        if isinstance(error.__cause__, AllocationError):
            label = "setup" if step is None else f"step:{step.number}"
            key = (label, str(action.signal).lower(), action.method.lower())
            found[key] = (None if step is None else step.number,
                          str(error.__cause__))
    return found


def _reachability(context: LintContext, dut):
    """Shared analysis: per-script unservable actions across all stands.

    Returns ``{script.name: (uncovered, common_failures, walked)}`` where
    *uncovered* is the list of stand names that lacked required methods
    (empty when at least one stand covers the script), *common_failures*
    holds the failed allocations (see :func:`_allocation_failures`) of the
    *first* usable stand, for actions that failed on **every** usable
    stand, and *walked* names the stands whose walk was read.
    """
    def build():
        results = {}
        if context.signals(dut) is None:
            return results
        for script in context.scripts(dut):
            methods = script.methods_used()
            rejected = []
            walked = []
            common = None
            for target in context.eligible_stands(dut):
                if target.missing_methods(methods):
                    rejected.append(target.name)
                    continue
                errors = context.walk(dut, script, target)
                if errors is None:
                    continue
                walked.append(target.name)
                found = _allocation_failures(errors)
                common = found if common is None else {
                    key: failure for key, failure in common.items()
                    if key in found
                }
                if not common:
                    break
            results[script.name] = (
                (rejected, {}, []) if common is None else ([], common, walked))
        return results
    return context.memo(("reachability", dut.key), build)


def check_unservable_step(context: LintContext, rule: LintRule):
    """Actions no registered stand can ever serve."""
    for dut in context.duts:
        analysis = _reachability(context, dut)
        for script in context.scripts(dut):
            rejected, common, walked = analysis.get(script.name, ([], {}, []))
            if rejected:
                yield rule.finding(
                    f"sheet:{script.name}",
                    f"no registered stand covers the sheet's methods "
                    f"({', '.join(script.methods_used())}); every eligible "
                    f"stand rejected it: {', '.join(rejected)}",
                    hint="add the missing method's instrument to a stand or "
                         "bind the statuses to supported methods",
                    dut=dut.name,
                )
                continue
            for (label, signal, method), (_, reason) in common.items():
                yield rule.finding(
                    f"sheet:{script.name} {label} {signal}.{method}",
                    f"statically unsatisfiable on every stand that covers "
                    f"the sheet's methods ({', '.join(walked)}): {reason}",
                    hint="widen the stand's resource capability or relax "
                         "the sheet's limits",
                    dut=dut.name,
                )


def check_dead_step(context: LintContext, rule: LintRule):
    """Steps shadowed by an earlier always-failing step.

    Under ``stop_on_error`` the interpreter aborts the run at the first
    ERROR verdict, so every step after an R-UNSERVABLE-STEP action never
    executes on any stand - the sheet's tail is dead as written.
    """
    for dut in context.duts:
        analysis = _reachability(context, dut)
        for script in context.scripts(dut):
            rejected, common, _ = analysis.get(script.name, ([], {}, []))
            if rejected or not common:
                continue
            numbered = [
                number for number, _ in common.values() if number is not None
            ]
            if numbered:
                first = min(numbered)
                dead = [
                    step.number for step in script.steps
                    if step.number > first
                ]
                origin = f"step {first}"
            else:
                # a setup action fails: the whole sheet body is dead
                dead = [step.number for step in script.steps]
                origin = "the setup phase"
            if not dead:
                continue
            listed = ", ".join(str(number) for number in dead)
            yield rule.finding(
                f"sheet:{script.name}",
                f"step(s) {listed} are dead under stop_on_error: {origin} "
                f"fails allocation on every stand that covers the sheet's "
                f"methods, so execution never reaches them",
                hint="fix the unservable action first; the shadowed steps "
                     "are untested until then",
                dut=dut.name,
            )


def check_unreachable_open(context: LintContext, rule: LintRule):
    """Open-circuit requests that can never take the open-circuit branch.

    ``put_r r="INF"`` only becomes a physical disconnect when the
    acceptance window is unbounded above (see
    :func:`repro.teststand.plan.open_circuit_requested`).  A finite
    ``r_max`` next to an infinite request means the author wrote an open
    circuit but the interpreter will route it to the allocator - where an
    infinite resistance can never pass a finite capability window.
    """
    for dut in context.duts:
        signals = context.signals(dut)
        if signals is None:
            continue
        for script in context.scripts(dut):
            for label, action in _iter_actions(script):
                if action.call.key != "put_r":
                    continue
                try:
                    signal = signals.get(action.signal)
                except Exception:
                    continue
                if signal.is_bus:
                    continue
                requested = _constant_value(action.call, "r")
                if requested is None or not math.isinf(requested):
                    continue
                high = _constant_value(action.call, "r_max")
                if high is None or math.isinf(high):
                    continue
                yield rule.finding(
                    f"sheet:{script.name} {label} "
                    f"{action.signal}.{action.method}",
                    f"open-circuit branch is unreachable: r=INF is "
                    f"requested but r_max is finite, so the action goes to "
                    f"the allocator instead of disconnecting the pin",
                    hint="drop r_max (or set it to INF) to realise the "
                         "open circuit",
                    dut=dut.name,
                )


RULES = (
    LintRule(
        "R-UNSERVABLE-STEP", ERROR,
        "an action is statically unsatisfiable on every stand that covers "
        "its sheet's methods",
        check_unservable_step,
    ),
    LintRule(
        "R-DEAD-STEP", WARNING,
        "steps are shadowed by an earlier always-failing step",
        check_dead_step,
    ),
    LintRule(
        "R-UNREACHABLE-OPEN", WARNING,
        "an open-circuit request can never take the open-circuit branch",
        check_unreachable_open,
    ),
)

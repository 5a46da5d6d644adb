"""Rule family R: reachability and dead-step analysis.

These rules replay the exact allocation walk that
:func:`repro.teststand.vm.compile_program` performs - setup actions first,
then per step stimuli before expectations, open circuits released instead
of allocated - against a *simulated* allocator for every stand that could
physically carry the DUT.  An action that no registered stand can serve is
statically unsatisfiable: it will produce an ERROR verdict on every run
that will ever happen, and under ``stop_on_error`` it shadows every later
step of the sheet.

Nothing here executes a job; the allocator is the same pure capability
model the plan compiler uses.
"""

from __future__ import annotations

import math

from ..core.errors import AllocationError
from ..core.script import TestScript
from ..core.values import compile_expression, parse_number
from ..teststand.allocator import Allocator
from ..teststand.plan import action_is_measurement, open_circuit_requested
from .context import LintContext
from .findings import ERROR, WARNING, LintRule

__all__ = ["RULES"]


class _ActionFailure:
    """One action that failed allocation on one candidate stand."""

    __slots__ = ("label", "step_number", "signal", "method", "reason")

    def __init__(self, label, step_number, signal, method, reason):
        self.label = label
        self.step_number = step_number
        self.signal = signal
        self.method = method
        self.reason = reason

    @property
    def key(self) -> tuple:
        """Identity of the action irrespective of the stand it failed on."""
        return (self.label, self.signal, self.method)


def _walk_stand(script: TestScript, signals, stand, registry, variables):
    """Replay the VM compiler's allocation walk on one stand.

    Returns the list of :class:`_ActionFailure` for actions the stand's
    allocator rejects.  Mirrors :func:`repro.teststand.vm.compile_program`
    action for action: unknown signals and ``wait`` are skipped, open
    circuits release the signal's allocation instead of requesting one.
    *variables* is the interpreter environment the stand would provide
    (see :meth:`~repro.lint.context.LintContext.stand_variables`).
    """
    allocator = Allocator(
        stand.resources, stand.connections,
        policy="first_fit", registry=registry,
    )
    failures: list[_ActionFailure] = []

    def visit(label: str, step_number: int | None, action) -> None:
        try:
            signal = signals.get(action.signal)
        except Exception:
            return  # E-UNRESOLVED-SIGNAL reports this
        if action.method.lower() == "wait":
            return
        if open_circuit_requested(action, signal, variables):
            allocator.release(signal.key)
            return
        try:
            allocator.allocate(signal, action.call, variables)
        except AllocationError as exc:
            failures.append(_ActionFailure(
                label, step_number, signal.key, action.method.lower(),
                str(exc),
            ))

    for action in script.setup:
        visit("setup", None, action)
    for step in script.steps:
        expectations = []
        for action in step.actions:
            if action_is_measurement(registry, action.method):
                expectations.append(action)
            else:
                visit(f"step:{step.number}", step.number, action)
        for action in expectations:
            visit(f"step:{step.number}", step.number, action)
    return failures


def _reachability(context: LintContext, dut):
    """Shared analysis: per-script unservable actions across all stands.

    Returns ``{script.name: (uncovered, common_failures)}`` where
    *uncovered* is the list of stand names that lacked required methods
    (empty when at least one stand covers the script) and
    *common_failures* maps action keys to the :class:`_ActionFailure`
    observed on the *first* usable stand, for actions that failed on
    **every** usable stand.
    """
    def build():
        results = {}
        for script in context.scripts(dut):
            try:
                signals = dut.signals_factory()
            except Exception:
                results[script.name] = ([], {})
                continue
            methods = script.methods_used()
            candidates = []
            rejected = []
            for target in context.eligible_stands(dut):
                if target.missing_methods(methods):
                    rejected.append(target.name)
                    continue
                instance = context.stand_instance(target, dut)
                if instance is None:
                    continue
                candidates.append((target.name, instance))
            if not candidates:
                results[script.name] = (rejected, {})
                continue
            common: dict[tuple, _ActionFailure] = {}
            for index, (_, instance) in enumerate(candidates):
                failures = _walk_stand(
                    script, signals, instance, context.registry,
                    context.stand_variables(instance))
                found = {failure.key: failure for failure in failures}
                if index == 0:
                    common = found
                else:
                    common = {
                        key: failure for key, failure in common.items()
                        if key in found
                    }
                if not common:
                    break
            results[script.name] = ([], common)
        return results
    return context.memo(("reachability", dut.key), build)


def check_unservable_step(context: LintContext, rule: LintRule):
    """Actions no registered stand can ever serve."""
    for dut in context.duts:
        analysis = _reachability(context, dut)
        for script in context.scripts(dut):
            rejected, common = analysis.get(script.name, ([], {}))
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
            for failure in common.values():
                stands = ", ".join(
                    target.name for target in context.eligible_stands(dut)
                )
                yield rule.finding(
                    f"sheet:{script.name} {failure.label} "
                    f"{failure.signal}.{failure.method}",
                    f"statically unsatisfiable on every registered stand "
                    f"({stands}): {failure.reason}",
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
            rejected, common = analysis.get(script.name, ([], {}))
            if rejected or not common:
                continue
            numbered = [
                failure.step_number for failure in common.values()
                if failure.step_number is not None
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
                f"fails allocation on every registered stand, so execution "
                f"never reaches them",
                hint="fix the unservable action first; the shadowed steps "
                     "are untested until then",
                dut=dut.name,
            )


def _constant(text) -> float | None:
    if text is None:
        return None
    stripped = str(text).strip()
    if not stripped:
        return None
    try:
        return parse_number(stripped)
    except Exception:
        pass
    try:
        expression = compile_expression(stripped)
        if expression.is_constant:
            return expression.evaluate({})
    except Exception:
        pass
    return None


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
        try:
            signals = dut.signals_factory()
        except Exception:
            continue
        for script in context.scripts(dut):
            for label, action in _iter_labelled(script):
                if action.method.lower() != "put_r":
                    continue
                try:
                    signal = signals.get(action.signal)
                except Exception:
                    continue
                if signal.is_bus:
                    continue
                requested = _constant(action.call.param("r"))
                if requested is None or not math.isinf(requested):
                    continue
                high = _constant(action.call.param("r_max"))
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


def _iter_labelled(script: TestScript):
    for action in script.setup:
        yield "setup", action
    for step in script.steps:
        for action in step.actions:
            yield f"step:{step.number}", action


RULES = (
    LintRule(
        "R-UNSERVABLE-STEP", ERROR,
        "an action is statically unsatisfiable on every registered stand",
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

"""Rule family C: detection-coverage proof over the fault catalogues.

For every catalogued fault these rules ask, without building a single
harness or running a single job: *can the bundled sheets observe this
defect at all, and does the catalogue's* ``expected_detected`` *flag match
what the sheets can actually see?*  The answer cross-references three
artefacts the registry already carries:

* the fault class itself, introspected down to the healthy ECU class;
* the bundled test sheets, replayed symbolically as accumulated signal
  status state (the sheets' "sparse column" convention);
* the stand capability negotiation (:attr:`StandTarget.missing_methods`,
  the same data :func:`repro.targets.method_coverage` renders) - a sheet
  that no registered stand can serve observes nothing.

Soundness scope
---------------
Only one fault category supports a *sound* negative: **masking faults**,
where a subclass shrinks a tuple-of-pins class attribute (the paper's
``ignores_ds_fr``: ``DOOR_PINS`` drops ``DS_FR``).  For those the analysis
proves from the sheets alone whether any step isolates a masked pin -
masked signal off its initial status, every sibling still initial - while
checking a measured output at a non-initial status.  Every other category
(overridden methods/properties, changed constants, opaque factories) is
treated *generously*: string literals in the override are only a hint for
which outputs the fault touches, and a fault is called undetectable only
when those outputs are never checked by any servable sheet.  The rules
therefore never claim a may-detected fault is an escape; they only flag
contradictions that hold under the generous reading too.
"""

from __future__ import annotations

import ast
import inspect
import textwrap

from ..teststand.plan import action_is_measurement
from .context import LintContext
from .findings import ERROR, NOTE, WARNING, LintRule

__all__ = ["RULES"]


# ---------------------------------------------------------------------------
# Fault introspection
# ---------------------------------------------------------------------------

class _FaultShape:
    """Statically derived shape of one catalogued fault."""

    __slots__ = ("fault", "category", "masked", "siblings", "literals")

    def __init__(self, fault, category, masked=frozenset(),
                 siblings=frozenset(), literals=frozenset()):
        self.fault = fault
        #: ``masking`` (sound), ``override`` (generous) or ``opaque``.
        self.category = category
        #: Lower-case pins removed from a tuple attribute (masking only).
        self.masked = frozenset(masked)
        #: Lower-case pins the fault still evaluates (masking only).
        self.siblings = frozenset(siblings)
        #: Lower-case string literals found in overridden code/dicts.
        self.literals = frozenset(literals)


def _string_literals(value) -> set[str]:
    """Lower-case string literals inside an overridden member."""
    if isinstance(value, dict):
        found = set()
        for key, item in value.items():
            if isinstance(key, str):
                found.add(key.lower())
            if isinstance(item, str):
                found.add(item.lower())
        return found
    target = value.fget if isinstance(value, property) else value
    if not callable(target):
        return set()
    try:
        source = textwrap.dedent(inspect.getsource(target))
        tree = ast.parse(source)
    except Exception:
        return set()
    return {
        node.value.lower()
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }


def _is_pin_tuple(value) -> bool:
    return (isinstance(value, tuple) and bool(value)
            and all(isinstance(item, str) for item in value))


def _fault_shape(fault, healthy: type | None) -> _FaultShape:
    """Classify one fault by diffing its class against the healthy ECU."""
    cls = fault.factory
    if not isinstance(cls, type) or healthy is None:
        return _FaultShape(fault, "opaque")
    literals: set[str] = set()
    for klass in cls.__mro__:
        if klass is healthy or not issubclass(klass, healthy):
            break
        for name, value in vars(klass).items():
            if name.startswith("__"):
                continue
            base_value = getattr(healthy, name, None)
            if (_is_pin_tuple(value) and _is_pin_tuple(base_value)
                    and set(value) < set(base_value)):
                masked = {pin.lower() for pin in set(base_value) - set(value)}
                siblings = {pin.lower() for pin in value}
                return _FaultShape(fault, "masking", masked, siblings)
            literals |= _string_literals(value)
    return _FaultShape(fault, "override", literals=literals)


# ---------------------------------------------------------------------------
# Symbolic sheet replay
# ---------------------------------------------------------------------------

class _SheetView:
    """One sheet plus everything the observability checks need."""

    __slots__ = ("sheet", "servable", "measured", "isolating")

    def __init__(self, sheet, servable, measured, isolating):
        self.sheet = sheet
        #: At least one registered stand covers all the sheet's methods.
        self.servable = servable
        #: Lower-case output signals the sheet checks with a measurement
        #: method at a non-initial status, in any step.
        self.measured = frozenset(measured)
        #: ``frozenset`` of (masked-candidate signal) -> the sheet has a
        #: step isolating exactly that signal while measuring; stored as a
        #: set of lower-case signal names for membership tests.
        self.isolating = isolating


def _signal_for_pin(signals, pin: str):
    try:
        return signals.signal_for_pin(pin)
    except Exception:
        return None


def _analyse_sheets(context: LintContext, dut):
    """Shared per-DUT sheet analysis, memoised for all four C rules.

    Returns ``(views, initial)`` where *views* is a list of
    :class:`_SheetView` in suite order (first entry is the primary sheet)
    and *initial* maps lower-case signal name to lower-case initial status.
    """
    def build():
        suite = context.suite(dut)
        if suite is None:
            return ([], {})
        signals = suite.signals
        statuses = suite.statuses
        initial = {
            str(name).lower(): str(status).lower()
            for name, status in signals.initial_statuses.items()
        }

        def status_def(name):
            try:
                return statuses.get(name)
            except Exception:
                return None

        def non_initial(signal_key: str, status_name: str) -> bool:
            start = initial.get(signal_key)
            if start is None:
                return True  # no declared initial status: anything counts
            return status_name.lower() != start

        views = []
        for sheet in suite:
            methods = set()
            for status_name in sheet.statuses_used():
                definition = status_def(status_name)
                if definition is not None:
                    methods.add(definition.method.lower())
            servable = any(
                not target.missing_methods(methods)
                for target in context.eligible_stands(dut)
            )
            state = dict(initial)
            measured: set[str] = set()
            isolating: set[frozenset] = set()
            for step in sheet.steps:
                for assignment in step.assignments:
                    state[assignment.signal.lower()] = assignment.status.lower()
                step_measures = False
                for assignment in step.assignments:
                    definition = status_def(assignment.status)
                    if definition is None:
                        continue
                    if not action_is_measurement(context.registry,
                                                 definition.method):
                        continue
                    key = assignment.signal.lower()
                    if non_initial(key, assignment.status):
                        measured.add(key)
                        step_measures = True
                if not step_measures:
                    continue
                displaced = frozenset(
                    key for key, status in state.items()
                    if initial.get(key) is not None and status != initial[key]
                )
                isolating.add(displaced)
            views.append(_SheetView(sheet, servable, measured, isolating))
        return (views, initial)
    return context.memo(("coverage-sheets", dut.key), build)


def _observes_masking(view: _SheetView, masked_signals: frozenset,
                      sibling_signals: frozenset) -> bool:
    """Whether one sheet has a step isolating a masked signal while measuring.

    A step counts when, in the accumulated sheet state, at least one masked
    signal sits off its initial status, every sibling signal is back at (or
    never left) its initial status, and the step checks some output with a
    measurement-bound non-initial status - exactly the situation where the
    healthy ECU reacts and the masked one cannot.
    """
    for displaced in view.isolating:
        if not masked_signals & displaced:
            continue
        if sibling_signals & displaced:
            continue
        return True
    return False


def _shapes(context: LintContext, dut):
    """Memoised fault shapes of the DUT's catalogue."""
    def build():
        catalogue = context.catalogue(dut)
        if catalogue is None:
            return ()
        healthy = dut.ecu_factory if isinstance(dut.ecu_factory, type) else None
        return tuple(_fault_shape(fault, healthy) for fault in catalogue)
    return context.memo(("coverage-shapes", dut.key), build)


def _masked_signals(shape: _FaultShape, suite) -> tuple[frozenset, frozenset]:
    """Map masked/sibling pins to lower-case signal names."""
    signals = suite.signals
    masked = frozenset(
        signal.key for signal in (
            _signal_for_pin(signals, pin) for pin in shape.masked
        ) if signal is not None
    )
    siblings = frozenset(
        signal.key for signal in (
            _signal_for_pin(signals, pin) for pin in shape.siblings
        ) if signal is not None
    )
    return masked, siblings


def _touched_outputs(shape: _FaultShape, suite) -> frozenset:
    """Output signals a generous fault's literals plausibly touch."""
    signals = suite.signals
    touched = set()
    for literal in shape.literals:
        for signal in signals:
            if not signal.is_output:
                continue
            if signal.key == literal:
                touched.add(signal.key)
            elif any(pin.lower() == literal for pin in signal.pins):
                touched.add(signal.key)
            elif signal.message and signal.message.lower() == literal:
                touched.add(signal.key)
    return frozenset(touched)


# ---------------------------------------------------------------------------
# The rules
# ---------------------------------------------------------------------------

def _coverage_facts(context: LintContext, dut):
    """Per-fault verdicts shared by all four C rules.

    Yields ``(shape, primary_observes, closers, provable)`` where *closers*
    is the list of non-primary servable sheets that observe the fault and
    *provable* marks the sound masking analysis (vs. the generous reading).
    """
    def build():
        suite = context.suite(dut)
        shapes = _shapes(context, dut)
        if suite is None or not shapes:
            return ()
        views, _ = _analyse_sheets(context, dut)
        servable_views = [view for view in views if view.servable]
        any_measuring = any(view.measured for view in servable_views)
        facts = []
        for shape in shapes:
            if shape.category == "masking":
                masked, siblings = _masked_signals(shape, suite)
                provable = bool(masked)
                observers = [
                    view for view in servable_views
                    if _observes_masking(view, masked, siblings)
                ]
            else:
                provable = False
                touched = _touched_outputs(shape, suite)
                if touched:
                    observers = [
                        view for view in servable_views
                        if view.measured & touched
                    ]
                    # the literals are only a hint: a fault whose named
                    # outputs are never checked may still surface through
                    # side effects, so fall back to "any measuring sheet"
                    if not observers and any_measuring:
                        observers = [
                            view for view in servable_views if view.measured
                        ]
                else:
                    observers = [
                        view for view in servable_views if view.measured
                    ]
            primary = bool(views) and views[0].servable and views[0] in observers
            closers = [
                view.sheet.name for view in observers
                if views and view is not views[0]
            ]
            facts.append((shape, primary, tuple(closers), provable))
        return tuple(facts)
    return context.memo(("coverage-facts", dut.key), build)


def check_undetectable_fault(context: LintContext, rule: LintRule):
    """Faults expected to be detected that no servable sheet can observe."""
    for dut in context.duts:
        for shape, primary, closers, provable in _coverage_facts(context, dut):
            if not shape.fault.expected_detected:
                continue
            if primary or closers:
                continue
            kind = ("proven by masking analysis" if provable
                    else "no servable sheet checks the outputs it touches")
            yield rule.finding(
                f"fault:{shape.fault.name}",
                f"catalogued as detected, but no bundled sheet can observe "
                f"it on any registered stand ({kind})",
                hint="add a sheet exercising the faulty behaviour or mark "
                     "the fault expected_detected=False",
                dut=dut.name,
            )


def check_stale_escape(context: LintContext, rule: LintRule):
    """Documented escapes the primary sheet provably observes."""
    for dut in context.duts:
        for shape, primary, closers, provable in _coverage_facts(context, dut):
            if shape.fault.expected_detected or not provable or not primary:
                continue
            yield rule.finding(
                f"fault:{shape.fault.name}",
                f"catalogued as a detection escape, but the primary sheet "
                f"isolates the masked signal and checks a measured output - "
                f"the escape entry is stale",
                hint="flip the fault to expected_detected=True",
                dut=dut.name,
            )


def check_documented_escape(context: LintContext, rule: LintRule):
    """Machine-derived confirmation of a documented escape.

    The sound masking analysis re-derives, from the sheets alone, that the
    primary sheet misses the fault; the note records which later sheets
    close the gap so the catalogue comment stays a checked fact.
    """
    for dut in context.duts:
        for shape, primary, closers, provable in _coverage_facts(context, dut):
            if shape.fault.expected_detected or not provable or primary:
                continue
            closing = (f"closed by: {', '.join(closers)}" if closers
                       else "no bundled sheet closes it")
            yield rule.finding(
                f"fault:{shape.fault.name}",
                f"detection escape statically confirmed: the primary sheet "
                f"never isolates the masked signal "
                f"({', '.join(sorted(shape.masked)) or 'n/a'}) while "
                f"checking a measured output; {closing}",
                dut=dut.name,
            )


def check_unverified_escape(context: LintContext, rule: LintRule):
    """Documented escapes the analysis cannot statically confirm."""
    for dut in context.duts:
        for shape, primary, closers, provable in _coverage_facts(context, dut):
            if shape.fault.expected_detected or provable:
                continue
            yield rule.finding(
                f"fault:{shape.fault.name}",
                f"catalogued as a detection escape, but the fault's "
                f"{shape.category} shape is outside the sound masking "
                f"analysis - the escape rests on run-time evidence only",
                hint="re-shape the fault as a masked-pin subclass or keep a "
                     "campaign regression test for it",
                dut=dut.name,
            )


RULES = (
    LintRule(
        "C-UNDETECTABLE-FAULT", ERROR,
        "a fault expected to be detected is observable by no servable sheet",
        check_undetectable_fault,
    ),
    LintRule(
        "C-STALE-ESCAPE", ERROR,
        "a documented escape is provably observed by the primary sheet",
        check_stale_escape,
    ),
    LintRule(
        "C-DOCUMENTED-ESCAPE", NOTE,
        "a documented escape is statically confirmed (with closing sheets)",
        check_documented_escape,
    ),
    LintRule(
        "C-UNVERIFIED-ESCAPE", WARNING,
        "a documented escape cannot be statically confirmed",
        check_unverified_escape,
    ),
)

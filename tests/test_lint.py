"""Tests for repro.lint, the whole-program static analyzer.

One positive (rule fires on a seeded defect) and one negative (bundled
registry stays clean) fixture per rule family, plus

* the tier-1 registry guard: all bundled targets lint clean except the
  documented ``ignores_ds_fr`` escape, which the coverage rule must
  *independently re-derive* (note severity, exit 0),
* the acceptance-criteria seeded defects - unknown-variable limit
  expression, empty capability window, unpicklable process-backend
  factory - each caught by a distinct rule with CLI exit code 2,
* the satellite contracts: Interval edge semantics, the shared
  unresolved-signal message text, ``preflight="lint"``, the CLI filters
  and JSON shape, and ``--list-targets --lint``.
"""

from __future__ import annotations

import functools
import json
import math

import pytest

from repro.analysis.faults import FaultCatalogue, FaultModel
from repro.can import CanDatabase, MessageDefinition
from repro.cli import main_campaign
from repro.core.compiler import Compiler
from repro.core.errors import ConfigurationError, ValueError_
from repro.core.script import MethodCall, SignalAction, TestScript
from repro.core.signals import Signal, SignalDirection, SignalKind, SignalSet
from repro.core.status import StatusDefinition, StatusTable
from repro.core.testdef import TestDefinition, TestSuite
from repro.core.values import Interval
from repro.dut import InstrumentClusterEcu, TestHarness
from repro.dut.interior_light import InteriorLightEcu
from repro.dut.messages import body_can_database
from repro.lint import (
    ALL_RULES,
    LintError,
    blocking_execute_calls,
    preflight_lint,
    run_lint,
)
from repro.lint.cli import main as lint_main
from repro.lint.context import LintContext
from repro.methods import default_registry
from repro.methods.base import (
    MethodKind,
    MethodSpec,
    ParameterRole,
    ParameterSpec,
)
from repro.paper.example import (
    PAPER_TEST_NAME,
    interior_harness,
    paper_signal_set,
    paper_status_table,
    paper_suite,
)
from repro.paper import cluster_suite
from repro.paper.composed import (
    COMPOSITION_NAME,
    composed_signal_set,
    composed_suite,
)
from repro.targets import (
    CampaignSpec,
    CompositionTarget,
    DutTarget,
    RunSpec,
    TargetError,
    build_campaign,
    derive_signal_set,
    register_composition,
    register_dut,
    run_single,
    unregister_composition,
    unregister_dut,
    unresolved_signal_message,
)
from repro.teststand.allocator import Allocator

# ---------------------------------------------------------------------------
# Module-level toy fixtures (module-level so X-UNPICKLABLE-FACTORY stays
# quiet about the fixtures themselves)
# ---------------------------------------------------------------------------


def _toy_suite(extra_statuses, steps, *, signals=None,
               dut="interior_light_ecu"):
    statuses = list(paper_status_table()) + list(extra_statuses)
    test = TestDefinition("toy_sheet")
    for duration, assignments in steps:
        test.add_step(duration, assignments)
    return TestSuite(
        dut,
        signals if signals is not None else paper_signal_set(),
        StatusTable(statuses, name="toy"),
        (test,),
    )


def bad_variable_suite():
    """Seeded defect 1: a limit expression over a phantom stand variable."""
    return _toy_suite(
        (StatusDefinition.from_cells(
            "Weird", "get_u", "u", variable="UPHANTOM",
            nominal="1", minimum="0,7", maximum="1,1"),),
        [(0.5, {"DS_FL": "Open", "INT_ILL": "Weird"})],
    )


def preflight_bad_suite():
    """bad_variable_suite, but carrying the toy registration's DUT name so
    run_single resolves the broken target rather than the bundled one."""
    return _toy_suite(
        (StatusDefinition.from_cells(
            "Weird", "get_u", "u", variable="UPHANTOM",
            nominal="1", minimum="0,7", maximum="1,1"),),
        [(0.5, {"DS_FL": "Open", "INT_ILL": "Weird"})],
        dut="toy_preflight",
    )


def unservable_suite():
    """Seeded defect 2: an acceptance window no instrument can serve."""
    return _toy_suite(
        (StatusDefinition.from_cells(
            "Huge", "get_u", "u",
            nominal="550", minimum="500", maximum="600"),),
        [
            (0.5, {"DS_FL": "Open", "INT_ILL": "Huge"}),
            (0.5, {"DS_FL": "Closed", "INT_ILL": "Lo"}),
        ],
    )


def empty_interval_suite():
    return _toy_suite(
        (StatusDefinition.from_cells(
            "Inverted", "get_u", "u", variable="UBATT",
            nominal="1", minimum="1,1", maximum="0,7"),),
        [(0.5, {"DS_FL": "Open", "INT_ILL": "Inverted"})],
    )


def ghost_pin_signals():
    signals = list(paper_signal_set())
    signals.append(Signal("GHOST", SignalDirection.INPUT, SignalKind.RESISTIVE,
                          pins=("NO_SUCH_PIN",)))
    return SignalSet(signals, dut="interior_light_ecu")


def ghost_pin_suite():
    return _toy_suite((), [(0.5, {"DS_FL": "Open", "INT_ILL": "Lo"})],
                      signals=ghost_pin_signals())


def _phantom_signals():
    """The paper's signal sheet plus PHANTOM, which the DUT's registered
    signal set lacks: a sheet compiles against it, and the run resolves
    PHANTOM to an unknown signal."""
    return SignalSet(
        tuple(paper_signal_set()) + (
            Signal("PHANTOM", SignalDirection.OUTPUT, SignalKind.ANALOG,
                   pins=("INT_ILL_F",), initial_status="Lo"),
        ),
        dut="interior_light_ecu",
    )


def phantom_signal_suite():
    """Seeded VM gap: the sheet drives a signal the DUT's own signal sheet
    lacks.  The suite carries the extra signal so it compiles, but at run
    time resolution fails per action (classic path: per-action ERROR) and
    the bytecode VM refuses the whole combination at compile time."""
    return _toy_suite((), [(0.5, {"DS_FL": "Open", "PHANTOM": "Lo"})],
                      signals=_phantom_signals())


#: A reading no bundled stand's instrument range covers.
_HUGE = StatusDefinition.from_cells(
    "Huge", "get_u", "u", nominal="550", minimum="500", maximum="600")
#: A reading only the big rack's +-100 V DVM covers.
_HIGH = StatusDefinition.from_cells(
    "High", "get_u", "u", nominal="80", minimum="70", maximum="90")
#: A wait whose duration is an expression over UBATT (see
#: :func:`_expression_wait_registry`): the VM cannot compile it.
_STALL = StatusDefinition.from_cells(
    "Stall", "wait", "t", variable="UBATT", nominal="0,01")


def _expression_wait_registry():
    """The default registry with a ``wait`` whose ``t`` follows the status
    variable, so a sheet can carry a non-numeric wait duration."""
    registry = default_registry()
    registry.register(MethodSpec(
        name="wait", kind=MethodKind.TIMING, attribute="t",
        parameters=(ParameterSpec("t", ParameterRole.NOMINAL, unit="s"),),
    ), replace=True)
    return registry


def unservable_after_errors_suite():
    """An unservable reading (step 2) after an unknown signal (step 0) and
    a non-numeric wait (step 1)."""
    return _toy_suite((_STALL, _HUGE), [
        (0.5, {"DS_FL": "Open", "PHANTOM": "Lo"}),
        (0.5, {"DS_FR": "Stall"}),
        (0.5, {"INT_ILL": "Huge"}),
    ], signals=_phantom_signals())


def unservable_before_unknown_suite():
    """Unservable readings before (step 0) and after (step 2) an unknown
    signal."""
    return _toy_suite((_HUGE,), [
        (0.5, {"INT_ILL": "Huge"}),
        (0.5, {"PHANTOM": "Lo"}),
        (0.5, {"INT_ILL": "Huge"}),
    ], signals=_phantom_signals())


#: A current reading: the paper stand has no ammeter, so lint never walks
#: a sheet holding one on it.
_DRAW = StatusDefinition.from_cells(
    "Draw", "get_i", "i", nominal="0,5", minimum="0,1", maximum="2")


def unservable_current_suite():
    """A reading no stand serves (step 0), then a current reading (step
    1), which the paper stand lacks the method for."""
    return _toy_suite((_HUGE, _DRAW), [
        (0.5, {"INT_ILL": "Huge"}),
        (0.5, {"INT_ILL": "Draw"}),
    ])


def partly_servable_suite():
    """A reading only one eligible stand serves (step 0), then one no
    stand serves (step 1)."""
    return _toy_suite((_HIGH, _HUGE), [
        (0.5, {"INT_ILL": "High"}),
        (0.5, {"INT_ILL": "Huge"}),
    ])


class ToyMaskedDoorEcu(InteriorLightEcu):
    """The paper's masking fault shape: DS_FR dropped from the door scan."""

    DOOR_PINS = ("DS_FL", "DS_RL", "DS_RR")


def masked_door_catalogue(expected_detected):
    def build():
        return FaultCatalogue(
            "interior_light_ecu",
            (FaultModel("toy_masked_door", "front-right door ignored",
                        ToyMaskedDoorEcu, expected_detected=expected_detected),),
        )
    return build


def masked_detected_catalogue():
    return masked_door_catalogue(True)()


def masked_escape_catalogue():
    return masked_door_catalogue(False)()


def opaque_escape_catalogue():
    return FaultCatalogue(
        "interior_light_ecu",
        (FaultModel("toy_opaque", "not introspectable",
                    _opaque_fault_factory, expected_detected=False),),
    )


def _opaque_fault_factory():
    return InteriorLightEcu()


def isolating_suite():
    """A suite whose PRIMARY sheet isolates DS_FR with a checked output."""
    return _toy_suite(
        (),
        [
            (0.5, {"IGN_ST": "Off", "NIGHT": "1", "DS_FR": "Closed",
                   "INT_ILL": "Lo"}),
            (0.5, {"DS_FR": "Open", "INT_ILL": "Ho"}),
        ],
    )


class _CaseCollidingSuite:
    """Duck-typed suite with two sheets whose names differ only in case.

    ``TestSuite`` itself rejects case-insensitive duplicates at
    construction - which is exactly why X-UNSTORABLE-RESULT exists for
    duck-typed factories like this one.
    """

    def __init__(self):
        base = _toy_suite((), [(0.5, {"DS_FL": "Open", "INT_ILL": "Lo"})])
        self.dut = base.dut
        self.signals = base.signals
        self.statuses = base.statuses
        self._tests = []
        for name in ("Toy_Sheet", "toy_sheet"):
            test = TestDefinition(name)
            test.add_step(0.5, {"DS_FL": "Open", "INT_ILL": "Lo"})
            self._tests.append(test)

    def __iter__(self):
        return iter(self._tests)


def case_colliding_suite():
    return _CaseCollidingSuite()


def baseline_named_catalogue():
    """A fault model whose name collides with the implicit healthy group."""
    return FaultCatalogue(
        "interior_light_ecu",
        (FaultModel("Baseline", "collides with the healthy-ECU group",
                    InteriorLightEcu, expected_detected=True),),
    )


def _register_toy(name, **overrides):
    fields = dict(
        name=name,
        ecu_factory=InteriorLightEcu,
        harness_factory=interior_harness,
        signals_factory=paper_signal_set,
        suite_factory=paper_suite,
    )
    fields.update(overrides)
    return register_dut(DutTarget(**fields))


@pytest.fixture
def toy_dut(request):
    """Register a toy DUT built from marker kwargs; always unregister."""
    registered = []

    def register(name, **overrides):
        target = _register_toy(name, **overrides)
        registered.append(name)
        return target

    yield register
    for name in registered:
        unregister_dut(name)


def _findings(report, rule):
    return [f for f in report.findings if f.rule == rule]


# ---------------------------------------------------------------------------
# Registry-wide tier-1 guard
# ---------------------------------------------------------------------------

def test_registry_lints_clean_except_documented_escape():
    """All bundled targets lint clean; the sole finding is the machine-
    re-derived ignores_ds_fr escape note (which must not affect the exit
    code)."""
    report = run_lint()
    assert report.errors == ()
    assert report.warnings == ()
    assert len(report.notes) == 1
    note = report.notes[0]
    assert note.rule == "C-DOCUMENTED-ESCAPE"
    assert note.dut == "interior_light_ecu"
    assert note.location == "fault:ignores_ds_fr"
    assert "ds_fr" in note.message
    assert "all_doors_at_night" in note.message
    assert report.exit_code == 0


def test_cli_on_registry_is_clean(capsys):
    assert lint_main([]) == 0
    out = capsys.readouterr().out
    assert "C-DOCUMENTED-ESCAPE" in out
    assert "0 error(s), 0 warning(s), 1 note(s)" in out


# ---------------------------------------------------------------------------
# Family E
# ---------------------------------------------------------------------------

def test_unknown_variable_seeded_defect_exits_2(toy_dut):
    toy_dut("toy_bad_var", suite_factory=bad_variable_suite)
    report = run_lint(duts=["toy_bad_var"])
    findings = _findings(report, "E-UNKNOWN-VARIABLE")
    assert len(findings) == 1
    assert "uphantom" in findings[0].message
    assert findings[0].severity == "error"
    assert lint_main(["--dut", "toy_bad_var"]) == 2


def test_empty_interval_reported_at_status_level(toy_dut):
    toy_dut("toy_empty", suite_factory=empty_interval_suite)
    report = run_lint(duts=["toy_empty"])
    findings = _findings(report, "E-EMPTY-INTERVAL")
    assert len(findings) == 1
    assert findings[0].location == "status:Inverted"
    assert report.exit_code == 2


def test_unresolved_signal_uses_shared_message(toy_dut):
    toy_dut("toy_ghost", signals_factory=ghost_pin_signals,
            suite_factory=ghost_pin_suite)
    report = run_lint(duts=["toy_ghost"])
    findings = _findings(report, "E-UNRESOLVED-SIGNAL")
    assert len(findings) == 1
    expected = unresolved_signal_message(
        "GHOST", "the registered signal set", InteriorLightEcu.NAME)
    assert findings[0].message.startswith(expected)


def test_family_e_negative_on_bundled_duts():
    report = run_lint(rules=[r.id for r in ALL_RULES if r.id.startswith("E-")])
    assert report.findings == ()


# ---------------------------------------------------------------------------
# Family R
# ---------------------------------------------------------------------------

def test_unservable_window_seeded_defect_exits_2(toy_dut):
    toy_dut("toy_unservable", suite_factory=unservable_suite)
    report = run_lint(duts=["toy_unservable"])
    unservable = _findings(report, "R-UNSERVABLE-STEP")
    assert len(unservable) == 1
    assert "int_ill.get_u" in unservable[0].location
    # the step after the always-failing one is dead under stop_on_error
    dead = _findings(report, "R-DEAD-STEP")
    assert len(dead) == 1
    assert "step(s) 1" in dead[0].message
    assert lint_main(["--dut", "toy_unservable"]) == 2


def test_family_r_negative_on_bundled_duts():
    report = run_lint(rules=[r.id for r in ALL_RULES if r.id.startswith("R-")])
    assert report.findings == ()


def test_lint_walks_each_covered_pair_once(monkeypatch):
    """R-UNSERVABLE-STEP, R-DEAD-STEP and X-UNCOMPILABLE-SCRIPT share one
    compiler walk, and so one scratch allocator, per covered (sheet x
    eligible stand) pair."""
    context = LintContext()
    pairs = sum(
        1
        for dut in context.duts
        for script in context.scripts(dut)
        for stand in context.eligible_stands(dut)
        if not stand.missing_methods(script.methods_used())
        and context.stand_instance(stand, dut) is not None
    )
    built = []
    original = Allocator.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(Allocator, "__init__", counting)
    run_lint()
    assert pairs == 44
    assert len(built) == pairs


_EDGE_RULES = ["R-UNSERVABLE-STEP", "X-UNCOMPILABLE-SCRIPT"]


def test_walk_goes_on_after_errors_that_are_not_allocations(toy_dut):
    toy_dut("toy_after_errors", suite_factory=unservable_after_errors_suite)
    report = run_lint(duts=["toy_after_errors"], rules=_EDGE_RULES,
                      registry=_expression_wait_registry())
    assert [f.location for f in _findings(report, "R-UNSERVABLE-STEP")] == [
        "sheet:toy_sheet step:2 int_ill.get_u"]
    # One X finding per eligible stand, for the sheet's first error.
    uncompilable = _findings(report, "X-UNCOMPILABLE-SCRIPT")
    assert len(uncompilable) == 3
    assert all("GET phantom:get_u: unknown signal" in f.message
               for f in uncompilable)


def test_allocation_failure_first_keeps_uncompilable_quiet(toy_dut):
    toy_dut("toy_alloc_first", suite_factory=unservable_before_unknown_suite)
    report = run_lint(duts=["toy_alloc_first"], rules=_EDGE_RULES)
    assert _findings(report, "X-UNCOMPILABLE-SCRIPT") == []
    assert [f.location for f in _findings(report, "R-UNSERVABLE-STEP")] == [
        "sheet:toy_sheet step:0 int_ill.get_u",
        "sheet:toy_sheet step:2 int_ill.get_u",
    ]


def test_action_one_stand_serves_is_not_unservable(toy_dut):
    toy_dut("toy_partly", suite_factory=partly_servable_suite)
    report = run_lint(duts=["toy_partly"], rules=["R-UNSERVABLE-STEP"])
    assert [f.location for f in _findings(report, "R-UNSERVABLE-STEP")] == [
        "sheet:toy_sheet step:1 int_ill.get_u"]


def test_unservable_step_names_only_the_stands_it_walked(toy_dut):
    toy_dut("toy_uncovered", suite_factory=unservable_current_suite)
    report = run_lint(duts=["toy_uncovered"], rules=["R-UNSERVABLE-STEP"])
    findings = _findings(report, "R-UNSERVABLE-STEP")
    assert [f.location for f in findings] == [
        "sheet:toy_sheet step:0 int_ill.get_u",
        "sheet:toy_sheet step:1 int_ill.get_i",
    ]
    for finding in findings:
        assert ("statically unsatisfiable on every stand that covers the "
                "sheet's methods (big_rack, minimal): ") in finding.message


# ---------------------------------------------------------------------------
# Family C
# ---------------------------------------------------------------------------

def test_undetectable_masked_fault_is_an_error(toy_dut):
    # paper suite never isolates DS_FR, so a masked-door fault expected to
    # be detected is a coverage hole the analyzer must prove
    toy_dut("toy_undetectable", faults_factory=masked_detected_catalogue)
    report = run_lint(duts=["toy_undetectable"])
    findings = _findings(report, "C-UNDETECTABLE-FAULT")
    assert len(findings) == 1
    assert findings[0].location == "fault:toy_masked_door"
    assert report.exit_code == 2


def test_stale_escape_detected_when_primary_sheet_isolates(toy_dut):
    toy_dut("toy_stale", faults_factory=masked_escape_catalogue,
            suite_factory=isolating_suite)
    report = run_lint(duts=["toy_stale"])
    findings = _findings(report, "C-STALE-ESCAPE")
    assert len(findings) == 1
    assert report.exit_code == 2


def test_opaque_escape_is_only_a_warning(toy_dut):
    toy_dut("toy_opaque_dut", faults_factory=opaque_escape_catalogue)
    report = run_lint(duts=["toy_opaque_dut"])
    findings = _findings(report, "C-UNVERIFIED-ESCAPE")
    assert len(findings) == 1
    assert findings[0].severity == "warning"
    assert report.exit_code == 1


def test_family_c_negative_on_bundled_duts():
    report = run_lint(rules=[r.id for r in ALL_RULES if r.id.startswith("C-")])
    assert [f.rule for f in report.findings] == ["C-DOCUMENTED-ESCAPE"]


# ---------------------------------------------------------------------------
# Family X
# ---------------------------------------------------------------------------

def test_unpicklable_factory_seeded_defect_exits_2(toy_dut):
    toy_dut("toy_unpicklable", ecu_factory=lambda: InteriorLightEcu())
    report = run_lint(duts=["toy_unpicklable"])
    findings = _findings(report, "X-UNPICKLABLE-FACTORY")
    assert len(findings) == 1
    assert findings[0].location == "factory:ecu_factory"
    assert lint_main(["--dut", "toy_unpicklable"]) == 2


def test_blocking_execute_scan_understands_function_scopes():
    flagged = blocking_execute_calls(
        """
        async def arun(self):
            self.instrument.execute(call)
        """
    )
    assert [line_call[1] for line_call in flagged] == ["self.instrument.execute"]
    # a sync helper nested inside an async function runs in a thread or
    # before the loop - it must not be flagged
    assert blocking_execute_calls(
        """
        async def arun(self):
            def helper():
                return self.instrument.execute(call)
            return await anyio.to_thread(helper)
        """
    ) == ()
    assert blocking_execute_calls(
        """
        def run(self):
            return self.instrument.execute(call)
        """
    ) == ()


def test_family_x_negative_on_bundled_tree():
    # in particular: the interpreter's arun() awaits its generator core
    # through adrive() and never calls a blocking execute() - not flagged
    report = run_lint(rules=[r.id for r in ALL_RULES if r.id.startswith("X-")])
    assert report.findings == ()


def test_unstorable_sheet_case_collision_warns(toy_dut):
    toy_dut("toy_casefold", suite_factory=case_colliding_suite)
    report = run_lint(duts=["toy_casefold"], rules=["X-UNSTORABLE-RESULT"])
    findings = _findings(report, "X-UNSTORABLE-RESULT")
    assert len(findings) == 1
    assert findings[0].location == "sheet:toy_sheet"
    assert "Toy_Sheet" in findings[0].message
    assert "merge" in findings[0].message
    assert report.exit_code == 1


def test_unstorable_baseline_fault_collision_warns(toy_dut):
    toy_dut("toy_baseline_clash", faults_factory=baseline_named_catalogue)
    report = run_lint(duts=["toy_baseline_clash"],
                      rules=["X-UNSTORABLE-RESULT"])
    findings = _findings(report, "X-UNSTORABLE-RESULT")
    assert len(findings) == 1
    assert findings[0].location == "fault:Baseline"
    assert "'baseline'" in findings[0].message
    assert report.exit_code == 1


def test_uncompilable_script_seeded_defect_warns(toy_dut):
    toy_dut("toy_vm_gap", suite_factory=phantom_signal_suite)
    report = run_lint(duts=["toy_vm_gap"], rules=["X-UNCOMPILABLE-SCRIPT"])
    findings = _findings(report, "X-UNCOMPILABLE-SCRIPT")
    # One finding per eligible stand: the defect is in the sheet, so no
    # stand can compile it.
    assert findings
    assert all(f.severity == "warning" for f in findings)
    assert all(f.location.startswith("sheet:toy_sheet stand:")
               for f in findings)
    assert "unknown signal" in findings[0].message
    assert "classic interpreter" in findings[0].message
    assert report.exit_code == 1


def test_uncompilable_script_skips_unservable_pairs(toy_dut):
    """An unallocatable step is R-UNSERVABLE-STEP territory: the classic
    path errors identically, so the VM rule must stay quiet about it."""
    toy_dut("toy_vm_unservable", suite_factory=unservable_suite)
    report = run_lint(duts=["toy_vm_unservable"],
                      rules=["X-UNCOMPILABLE-SCRIPT"])
    assert report.findings == ()
    assert report.exit_code == 0


# ---------------------------------------------------------------------------
# Satellite: Interval edge semantics
# ---------------------------------------------------------------------------

def test_interval_rejects_empty_and_nan_at_construction():
    with pytest.raises(ValueError_):
        Interval(2.0, 1.0)
    with pytest.raises(ValueError_):
        Interval(math.nan, 1.0)
    with pytest.raises(ValueError_):
        Interval(0.0, math.nan)


def test_interval_boundary_semantics():
    interval = Interval(1.0, 2.0)
    assert interval.contains(1.0) and interval.contains(2.0)
    assert not interval.contains(math.nan)
    # touching at a single boundary point counts as intersecting
    assert interval.intersects(Interval(2.0, 3.0))
    assert not interval.intersects(Interval(2.5, 3.0))
    degenerate = Interval(1.5, 1.5)
    assert degenerate.contains(1.5)
    assert degenerate.intersects(interval)


# ---------------------------------------------------------------------------
# Satellite: shared unresolved-signal message text
# ---------------------------------------------------------------------------

def test_derive_signal_set_warning_shares_the_lint_message():
    script = TestScript(
        "toy_script", "interior_light_ecu",
        setup=(SignalAction("BOGUS", MethodCall("put_r", {"r": "1"})),),
    )
    harness = interior_harness()
    captured = []
    derive_signal_set(script, harness, warn=captured.append)
    assert captured == [
        unresolved_signal_message(
            "BOGUS", f"script {script.name!r}", harness.ecu.name)
        + "; dropped from the derived signal set"
    ]


# ---------------------------------------------------------------------------
# Satellite: preflight="lint"
# ---------------------------------------------------------------------------

def test_preflight_lint_blocks_broken_dut(toy_dut):
    toy_dut("toy_preflight", suite_factory=preflight_bad_suite)
    with pytest.raises(LintError) as excinfo:
        preflight_lint("toy_preflight")
    assert any(f.rule == "E-UNKNOWN-VARIABLE" for f in excinfo.value.findings)

    script = Compiler().compile_test(preflight_bad_suite(), "toy_sheet")
    with pytest.raises(LintError):
        run_single(RunSpec(script=script, stand="minimal", preflight="lint"))


def test_preflight_lint_passes_clean_run():
    script = Compiler().compile_test(paper_suite(), PAPER_TEST_NAME)
    result = run_single(
        RunSpec(script=script, stand="minimal", preflight="lint"))
    assert result.passed


def test_unknown_preflight_mode_rejected():
    script = Compiler().compile_test(paper_suite(), PAPER_TEST_NAME)
    with pytest.raises(ConfigurationError):
        RunSpec(script=script, preflight="bogus")


# ---------------------------------------------------------------------------
# CLI: filters, JSON shape, listing integration
# ---------------------------------------------------------------------------

def test_cli_json_format(capsys):
    assert lint_main(["--format", "json"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["exit_code"] == 0
    assert document["counts"] == {"errors": 0, "warnings": 0, "notes": 1}
    assert [f["rule"] for f in document["findings"]] == ["C-DOCUMENTED-ESCAPE"]
    assert set(document["rules"]) == {rule.id for rule in ALL_RULES}


def test_cli_rule_and_ignore_filters(toy_dut, capsys):
    toy_dut("toy_filters", suite_factory=unservable_suite)
    assert lint_main(["--dut", "toy_filters", "--rule", "r-dead-step"]) == 1
    capsys.readouterr()
    assert lint_main(["--dut", "toy_filters",
                      "--ignore", "R-UNSERVABLE-STEP",
                      "--ignore", "R-DEAD-STEP"]) == 0
    capsys.readouterr()
    assert lint_main(["--rule", "NO-SUCH-RULE"]) == 2
    assert "unknown lint rule" in capsys.readouterr().err
    with pytest.raises(TargetError):
        run_lint(rules=["NO-SUCH-RULE"])


def test_cli_list_rules(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in ALL_RULES:
        assert rule.id in out


def test_list_targets_lint_column(capsys):
    assert main_campaign(["--list-targets", "--lint"]) == 0
    out = capsys.readouterr().out
    lint_lines = [line.strip() for line in out.splitlines()
                  if line.strip().startswith("lint:")]
    # one lint line per registered DUT; only the interior light carries
    # the documented escape note, everything else is clean
    assert lint_lines.count("lint: clean") == 5
    assert "lint: 1 note(s)" in lint_lines


# ---------------------------------------------------------------------------
# Family M (multi-ECU compositions)
# ---------------------------------------------------------------------------

def _cluster_toy_fields():
    from repro.paper import cluster_harness, cluster_signal_set, cluster_suite

    return dict(
        ecu_factory=InstrumentClusterEcu,
        harness_factory=cluster_harness,
        signals_factory=cluster_signal_set,
        suite_factory=cluster_suite,
    )


def conflicting_speed_harness(ecu=None):
    """Cluster wiring whose private database redefines VEHICLE_SPEED."""
    base = body_can_database()
    original = base.message("VEHICLE_SPEED")
    redefined = MessageDefinition(
        original.name, original.can_id, original.length + 1,
        original.signals,
    )
    database = CanDatabase(
        tuple(m for m in base if m.key != original.key) + (redefined,)
    )
    return TestHarness(
        ecu if ecu is not None else InstrumentClusterEcu(), database)


def ghost_composed_suite(name=COMPOSITION_NAME):
    """The real lock+cluster interaction suite plus two ghost signals: an
    electrical pin no member owns and a bus message no member defines.
    *name* is the composition the suite is for."""
    signals = tuple(composed_signal_set()) + (
        Signal("GHOST_WIRE", SignalDirection.INPUT, SignalKind.RESISTIVE,
               pins=("NO_SUCH_PIN",)),
        Signal("GHOST_BUS", SignalDirection.OUTPUT, SignalKind.BUS,
               message="PHANTOM_MSG"),
    )
    base = composed_suite()
    return TestSuite(
        name,
        SignalSet(signals, dut=name, composition=name),
        base.statuses,
        tuple(base),
    )


def standin_composed_suite():
    """A composed sheet that keeps a stand-synthesised speed input although
    the cluster member produces VEHICLE_SPEED on the shared bus."""
    signals = tuple(composed_signal_set()) + (
        Signal("SPEED_STANDIN", SignalDirection.INPUT, SignalKind.BUS,
               message="VEHICLE_SPEED"),
    )
    base = composed_suite()
    return TestSuite(
        base.dut,
        SignalSet(signals, dut=base.dut, composition=COMPOSITION_NAME),
        base.statuses,
        tuple(base),
    )


def _lock_cluster_members():
    return (("lock", "central_locking_ecu"),
            ("cluster", "instrument_cluster_ecu"))


def test_pin_collision_between_members_is_an_error(toy_dut):
    toy_dut("toy_left")
    toy_dut("toy_right")
    comp = CompositionTarget(
        "toy_twins", (("l", "toy_left"), ("r", "toy_right")),
        suite_factory=paper_suite,
    )
    report = run_lint(duts=["toy_left", "toy_right"], compositions=[comp])
    findings = _findings(report, "M-PIN-COLLISION")
    assert findings
    assert all(f.severity == "error" and f.dut == "toy_twins"
               for f in findings)
    assert report.exit_code == 2


def test_two_member_producers_collide_on_the_bus(toy_dut):
    toy_dut("toy_cluster_a", **_cluster_toy_fields())
    toy_dut("toy_cluster_b", **_cluster_toy_fields())
    comp = CompositionTarget(
        "toy_two_senders",
        (("a", "toy_cluster_a"), ("b", "toy_cluster_b")),
        suite_factory=cluster_suite,
    )
    report = run_lint(duts=[], compositions=[comp])
    findings = _findings(report, "M-BUS-COLLISION")
    assert any("both" in f.message and "transmit" in f.message
               for f in findings)


def test_conflicting_message_definitions_collide(toy_dut):
    fields = _cluster_toy_fields()
    fields["harness_factory"] = conflicting_speed_harness
    toy_dut("toy_redefined", **fields)
    comp = CompositionTarget(
        "toy_conflict",
        (("lock", "central_locking_ecu"), ("cluster", "toy_redefined")),
        suite_factory=composed_suite,
    )
    report = run_lint(duts=[], compositions=[comp])
    findings = _findings(report, "M-BUS-COLLISION")
    assert any("conflicts" in f.message for f in findings)
    assert all(f.severity == "error" for f in findings)


def test_unresolved_composed_signals_are_errors():
    comp = CompositionTarget(
        "toy_ghosts", _lock_cluster_members(),
        suite_factory=ghost_composed_suite,
    )
    report = run_lint(duts=[], compositions=[comp])
    findings = _findings(report, "M-UNRESOLVED-SIGNAL")
    locations = {f.location for f in findings}
    assert "sheet:signals signal:GHOST_WIRE" in locations
    assert "sheet:signals signal:GHOST_BUS" in locations
    assert all(f.severity == "error" for f in findings)


def test_stand_in_for_member_broadcast_warns():
    comp = CompositionTarget(
        "toy_standin", _lock_cluster_members(),
        suite_factory=standin_composed_suite,
    )
    report = run_lint(duts=[], compositions=[comp])
    findings = _findings(report, "M-STIMULATED-MEMBER-TX")
    assert len(findings) == 1
    assert findings[0].severity == "warning"
    assert "cluster" in findings[0].message
    assert "VEHICLE_SPEED" in findings[0].message


def test_family_m_negative_on_bundled_registry():
    report = run_lint(rules=[r.id for r in ALL_RULES if r.id.startswith("M-")])
    assert report.findings == ()


def test_preflight_lint_composition_passes_clean_and_blocks_broken():
    assert preflight_lint("lock+cluster").errors == ()
    broken = CompositionTarget(
        "toy_broken", _lock_cluster_members(),
        suite_factory=ghost_composed_suite,
    )
    with pytest.raises(LintError) as excinfo:
        preflight_lint(broken)
    assert any(f.rule == "M-UNRESOLVED-SIGNAL" for f in excinfo.value.findings)


def test_composed_preflight_lint_blocks_campaign_and_run():
    """``preflight="lint"`` gates a registered composition on both the
    campaign and the single-run path, before anything is built."""
    suite_factory = functools.partial(ghost_composed_suite, "toy_broken")
    script = Compiler().compile_suite(suite_factory())[0]
    register_composition(CompositionTarget(
        "toy_broken", _lock_cluster_members(), suite_factory=suite_factory,
    ))
    try:
        with pytest.raises(LintError) as campaign_error:
            build_campaign(CampaignSpec(composition="toy_broken",
                                        preflight="lint"))
        with pytest.raises(LintError) as run_error:
            run_single(RunSpec(script=script, composition="toy_broken",
                               preflight="lint"))
    finally:
        unregister_composition("toy_broken")
    for excinfo in (campaign_error, run_error):
        assert any(f.rule == "M-UNRESOLVED-SIGNAL"
                   for f in excinfo.value.findings)


def test_cli_composition_filter(capsys):
    assert lint_main(["--composition", "lock+cluster",
                      "--rule", "M-PIN-COLLISION", "--rule", "M-BUS-COLLISION",
                      "--rule", "M-UNRESOLVED-SIGNAL",
                      "--rule", "M-STIMULATED-MEMBER-TX"]) == 0
    out = capsys.readouterr().out
    assert "0 error(s), 0 warning(s), 0 note(s)" in out

"""Tests for the script bytecode VM (PR 8).

Covers the guarantees the VM fast path rests on:

* property-style parity: every bundled DUT's full suite renders a
  byte-identical report with the VM on or off (wall time excluded), and
  campaign verdict tables agree on all four executor backends,
* two runs on one interpreter give equal reports, on the VM and on the
  classic walk (``least_used`` counts are per run),
* I/O batching merges calls on one resource without any verdict drift,
* the one compile pass: every I/O item carries its allocation and its
  operands, prepared for the program's variables and read for the serving
  capability's attribute, and each uncompilable sheet raises
  :class:`VmCompileError` with the right cause,
* a program runs as compiled: one cached program calls the instruments of
  each stand instance it runs on, and a stand that differs in one
  capability row compiles its own,
* self-distrust: a prologue mismatch degrades the run to the classic
  interpreter before anything executes, and a program serves only the
  variables it was compiled for,
* ``wait`` durations read like every other parameter on both walks, and
  one that is not a number fails its job on the first attempt,
* either knob off (``use_plans`` or ``use_vm``) runs the classic walk,
* the ``prepared`` contract: an instrument whose ``_perform`` cannot take
  the keyword (neither a ``prepared`` parameter nor ``**``) is rejected
  when its class is defined.
"""

from __future__ import annotations

import functools
import re

import pytest

from repro.core import Compiler
from repro.core.errors import AllocationError
from repro.core.script import MethodCall, ScriptStep, SignalAction, TestScript
from repro.core.signals import Signal, SignalDirection, SignalKind, SignalSet
from repro.dut import InteriorLightEcu
from repro.instruments import Dvm
from repro.paper import interior_harness, paper_signal_set, paper_suite
from repro.targets import CampaignSpec, get_dut, iter_duts, run_campaign
from repro.teststand import (
    GLOBAL_PLAN_CACHE,
    ConnectionMatrix,
    PlanCache,
    ResiliencePolicy,
    Resource,
    ResourceTable,
    Route,
    SerialExecutor,
    Switch,
    TestStand,
    TestStandInterpreter,
    VmCursor,
    build_paper_stand,
    compile_plan,
    expand_jobs,
    run_jobs,
    text_report,
)
from repro.teststand import vm
from repro.teststand.plan import stand_fingerprint
from repro.teststand.vm import (
    VmCompileError,
    VmIoItem,
    VmOp,
    batch_io,
    compile_program,
)

from parity import result_document


SUITE_DUTS = tuple(d.name for d in iter_duts() if d.suite_factory is not None)


def _strip_wall(report: str) -> str:
    return "\n".join(
        line for line in report.splitlines() if "Wall time" not in line
    )


def _run_suite(dut, *, cache: PlanCache | None):
    """Run the DUT's full bundled suite serially on its default stand, on
    the VM with *cache*, on the classic walk without."""
    from repro.targets import default_stand_for, stand_factory_for

    scripts = Compiler().compile_suite(dut.suite_factory())
    stand = stand_factory_for(default_stand_for(dut), dut)()
    interpreter = TestStandInterpreter(
        stand, dut.build_harness(), dut.signals_factory(),
        plan_cache=cache,
    )
    return [interpreter.run(script) for script in scripts]


# ---------------------------------------------------------------------------
# Parity: byte-identical reports, VM on vs off
# ---------------------------------------------------------------------------

class TestVmParity:
    @pytest.mark.parametrize("dut_name", SUITE_DUTS)
    def test_full_suite_reports_identical(self, dut_name):
        """Property over every bundled DUT: rendered reports match."""
        dut = get_dut(dut_name)
        cache_on = PlanCache()
        with_vm = _run_suite(dut, cache=cache_on)
        # Warm pass so the VM path actually executes (first runs compile).
        with_vm = _run_suite(dut, cache=cache_on)
        without = _run_suite(dut, cache=None)
        for a, b in zip(with_vm, without):
            assert _strip_wall(text_report(a)) == _strip_wall(text_report(b))
            assert result_document(a) == result_document(b)
        # Guard against silently comparing classic with classic: the warm
        # pass must have been served by the VM.
        assert cache_on.stats.snapshot()["vm_runs"] >= len(with_vm)

    @pytest.mark.parametrize("on_vm", (True, False), ids=("vm", "classic"))
    def test_two_runs_on_one_interpreter_agree(self, on_vm):
        """``least_used`` reads the allocation counts, which are per run:
        the second classic run of ``wash_cycle`` on ``big_rack`` picks the
        decade the first one did, as every VM run does."""
        from repro.targets import stand_factory_for

        dut = get_dut("wiper_ecu")
        (script,) = [script for script in
                     Compiler().compile_suite(dut.suite_factory())
                     if script.name == "wash_cycle"]
        cache = PlanCache()
        interpreter = TestStandInterpreter(
            stand_factory_for("big_rack", dut)(), dut.build_harness(),
            dut.signals_factory(), policy="least_used",
            plan_cache=cache if on_vm else None,
        )
        documents = []
        for _ in range(2):
            interpreter.harness = dut.build_harness()
            documents.append(result_document(interpreter.run(script)))
        assert documents[0] == documents[1]
        assert cache.stats.snapshot()["vm_runs"] == (2 if on_vm else 0)

    # VM-on/off byte-identity across all backends lives in
    # ``test_parity_matrix.py``.


# ---------------------------------------------------------------------------
# Per-segment I/O batching
# ---------------------------------------------------------------------------

def _io_op(code: str, resource: str, signal_name: str, method: str) -> VmOp:
    signal = Signal(signal_name, SignalDirection.INPUT, SignalKind.ANALOG,
                    pins=(signal_name,))
    action = SignalAction(signal_name, MethodCall(method, {"u": "1"}))
    item = VmIoItem(action, signal, _StubAllocation())
    return VmOp(code, resource_key=resource, items=(item,))


class _StubAllocation:
    pins = ("a",)
    resource = "stub"


class TestPeephole:
    def test_batch_io_merges_same_resource_only(self):
        ops = [
            _io_op("SET", "r1", "A", "put_u"),
            _io_op("SET", "r1", "B", "put_u"),
            _io_op("SET", "r2", "C", "put_u"),
        ]
        batched = batch_io(ops)
        assert len(batched) == 2
        assert [i.signal.key for i in batched[0].items] == ["a", "b"]
        assert batched[1].resource_key == "r2"

    def test_adjacent_waits_do_not_drift_verdicts(self):
        """Two waits next to the step's settle: the VM's report (durations
        to the last bit, per-action results) must match the classic walk's.
        A summed clock advance would round 0.1 + (0.1 + 0.1 + 0.3)
        differently from four advances."""
        wait = SignalAction("NIGHT", MethodCall("wait", {"t": "0.1"}))
        script = TestScript("waits", "interior_light_ecu", [
            ScriptStep(0, 0.1), ScriptStep(1, 0.3, (wait, wait)),
        ])
        reports = {}
        for on_vm in (True, False):
            cache = PlanCache()
            result = TestStandInterpreter(
                build_paper_stand(), interior_harness(InteriorLightEcu()),
                paper_signal_set(), plan_cache=cache if on_vm else None,
            ).run(script)
            reports[on_vm] = result_document(result)
            if on_vm:
                assert cache.stats.snapshot()["vm_runs"] == 1
        assert reports[True] == reports[False]


# ---------------------------------------------------------------------------
# The one compile pass
# ---------------------------------------------------------------------------

def _paper_script() -> TestScript:
    return Compiler().compile_test(paper_suite(), "interior_illumination")


def _paper_plan():
    stand = build_paper_stand()
    return compile_plan(
        _paper_script(), paper_signal_set(), stand,
        policy="first_fit", registry=stand.registry,
        variables={"ubatt": stand.supply_voltage, "t": 0.0},
    )


def _cursor(program, stand, signals) -> VmCursor:
    return VmCursor(
        program, stand, signals=signals,
        harness=interior_harness(InteriorLightEcu()),
    )


def _one_step(action: SignalAction) -> TestScript:
    return TestScript("one_step", "interior_light_ecu",
                      [ScriptStep(0, 0.5, (action,))])


def _compile_one_step(action: SignalAction):
    stand = build_paper_stand()
    return compile_program(
        _one_step(action), paper_signal_set(), stand,
        policy="first_fit", registry=stand.registry,
        variables={"ubatt": stand.supply_voltage, "t": 0.0},
    )


def _two_dvm_stand() -> TestStand:
    """A NARROW (±20 V) and then a WIDE (±100 V) DVM, both on the lamp."""
    connections = ConnectionMatrix()
    for key in ("NARROW", "WIDE"):
        connections.add(Route(key, "hi", "INT_ILL_F", Switch(f"{key}.1")))
        connections.add(Route(key, "lo", "INT_ILL_R", Switch(f"{key}.2")))
    return TestStand("two_dvm", ResourceTable((
        Resource("NARROW", Dvm("narrow", u_min=-20.0, u_max=20.0)),
        Resource("WIDE", Dvm("wide", u_min=-100.0, u_max=100.0)),
    )), connections)


def _relative_reading_script() -> TestScript:
    return _one_step(SignalAction("INT_ILL", MethodCall("get_u", {
        "u": "(0.7*ubatt)", "u_min": "(0.6*ubatt)", "u_max": "(0.8*ubatt)"})))


def _one_put_program(resource_key: str) -> vm.VmProgram:
    """One ``put_r`` on the paper's door contact, served by *resource_key*."""
    action = SignalAction("DS_FL", MethodCall("put_r", {"r": "0.5"}))
    item = VmIoItem(action, paper_signal_set().get("DS_FL"),
                    _StubAllocation())
    return vm.VmProgram(
        (VmOp("SET", resource_key=resource_key, items=(item,)),),
        0, {"ubatt": 12.0, "t": 0.0},
    )


class _CountingDvm(Dvm):
    """A DVM that counts the calls made on this instance."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = 0

    def _perform(self, call, signal, pins, harness, variables, **options):
        self.calls += 1
        return super()._perform(call, signal, pins, harness, variables,
                                **options)


class TestOnePassCompiler:
    def test_every_paper_get_item_carries_its_prepared_operands(self):
        """The walk prepares each call's ``(nominal, limits)`` pair for the
        variables the program keeps: each DVM reading of the paper program
        carries its limits at 12 V and no nominal value."""
        plan = _paper_plan()
        assert plan.program is not None, plan.vm_reason
        assert plan.program.variables == {"ubatt": 12.0, "t": 0.0}
        gets = [op for op in plan.program.ops if op.code == "GET"]
        assert gets
        for op in gets:
            for item in op.items:
                assert item.allocation.resource == op.resource_key
                assert item.prepared[0] is None
        # The paper's limits are relative to ``ubatt``, here 12 V.
        assert {(item.prepared[1].low, item.prepared[1].high)
                for op in gets for item in op.items} == {
            (0.0, 0.3 * 12.0), (0.7 * 12.0, 1.1 * 12.0)}

    def test_unservable_sheet_raises_from_its_allocation_error(self):
        action = SignalAction("INT_ILL", MethodCall(
            "get_u", {"u": "550", "u_min": "500", "u_max": "600"}))
        with pytest.raises(VmCompileError) as raised:
            _compile_one_step(action)
        assert raised.value.op == "GET int_ill:get_u"
        assert isinstance(raised.value.__cause__, AllocationError)

    def test_unknown_signal_raises_without_an_allocation_cause(self):
        action = SignalAction("NO_SUCH_SIGNAL", MethodCall("get_u", {"u": "1"}))
        with pytest.raises(VmCompileError, match="unknown signal") as raised:
            _compile_one_step(action)
        assert not isinstance(raised.value.__cause__, AllocationError)

    def test_walk_yields_errors_in_place_and_goes_on(self):
        """The walk yields ``(step, action, op)`` in run order - setup,
        stimuli, settle, expectations, end of step - with an inexpressible
        action's error in place of its op, and walks on past it."""
        door = SignalAction("DS_FL", MethodCall(
            "put_r", {"r": "0.5", "r_min": "0", "r_max": "2"}))
        huge = SignalAction("INT_ILL", MethodCall(
            "get_u", {"u": "550", "u_min": "500", "u_max": "600"}))
        ghost = SignalAction("NO_SUCH_SIGNAL", MethodCall("get_u", {"u": "1"}))
        step = ScriptStep(3, 0.5, (huge, ghost, door))
        script = TestScript("walked", "interior_light_ecu", [step],
                            setup=(door,))
        stand = build_paper_stand()
        walked = list(vm.walk_program(
            script, paper_signal_set(), stand, policy="first_fit",
            registry=stand.registry,
            variables={"ubatt": stand.supply_voltage, "t": 0.0},
        ))
        assert [(s, a) for s, a, _ in walked] == [
            (None, door), (step, door), (step, None),
            (step, huge), (step, ghost), (step, None)]
        ops = [op for _, _, op in walked]
        assert [op.code for op in ops[:3]] == ["SET", "SET", "WAIT"]
        assert isinstance(ops[3], VmCompileError)
        assert isinstance(ops[3].__cause__, AllocationError)
        assert isinstance(ops[4], VmCompileError)
        assert "unknown signal" in ops[4].reason
        assert ops[5].code == "END_STEP"


    def test_operands_read_the_serving_capability(self):
        """The VM pre-evaluates each call's limits for the attribute its
        instrument reads, the serving capability's (the DVM's ``u``), not
        the registry's: a registry whose ``get_u`` names another principal
        attribute must not turn the classic walk's FAILs into PASSes."""
        from repro._record import replace
        from repro.methods import GET_U, default_registry

        registry = default_registry().copy()
        registry.register(replace(GET_U, attribute="volts"), replace=True)
        dut = get_dut("interior_light_ecu")
        broken = dut.faults_factory().get("lamp_stuck_off")
        scripts = Compiler().compile_suite(dut.suite_factory())
        verdicts = {}
        for on_vm in (True, False):
            cache = PlanCache()
            interpreter = TestStandInterpreter(
                build_paper_stand(), dut.harness_factory(broken.build()),
                dut.signals_factory(), registry=registry,
                plan_cache=cache if on_vm else None,
            )
            verdicts[on_vm] = [interpreter.run(script).verdict.name
                                for script in scripts]
            if on_vm:
                assert cache.stats.snapshot()["vm_runs"] == len(scripts)
        assert len(scripts) == 4
        assert verdicts[False] == ["FAIL"] * 4
        assert verdicts[True] == verdicts[False]


# ---------------------------------------------------------------------------
# A program runs as compiled, on the stand it is handed
# ---------------------------------------------------------------------------

class TestRunAsCompiled:
    def test_one_cached_program_calls_each_stands_own_instruments(self):
        """Two stand instances with one fingerprint share one program; each
        run of it calls the DVM of the stand it runs on."""
        dvms = (_CountingDvm("dvm1", u_min=-60.0, u_max=60.0),
                _CountingDvm("dvm1", u_min=-60.0, u_max=60.0))
        stands = tuple(_paper_stand_with_dvm(dvm) for dvm in dvms)
        assert stand_fingerprint(stands[0]) == stand_fingerprint(stands[1])
        cache = PlanCache()
        calls = []
        for stand in stands:
            assert TestStandInterpreter(
                stand, interior_harness(InteriorLightEcu()),
                paper_signal_set(), plan_cache=cache,
            ).run(_paper_script()).passed
            calls.append((dvms[0].calls, dvms[1].calls))
        (first, none), after = calls
        assert first > 0 and none == 0
        assert after == (first, first)
        stats = cache.stats.snapshot()
        assert (stats["plans_compiled"], stats["vm_runs"]) == (1, 2)

    def test_one_capability_row_apart_compiles_its_own_program(self):
        """A DVM that reads ±20 V instead of ±60 V changes one capability
        row and nothing else, not even the resource and route counts: the
        stand fingerprints apart, compiles its own program, and its VM run
        reports what its classic walk reports at 12 V."""
        paper = build_paper_stand()
        narrow = _paper_stand_with_dvm(Dvm("dvm1", u_min=-20.0, u_max=20.0))
        assert (len(narrow.resources), len(narrow.connections)) \
            == (len(paper.resources), len(paper.connections))
        assert stand_fingerprint(narrow) != stand_fingerprint(paper)
        cache = PlanCache()
        plans = [cache.plan_for(
            _paper_script(), paper_signal_set(), stand, policy="first_fit",
            registry=stand.registry, variables={"ubatt": 12.0, "t": 0.0})
            for stand in (paper, narrow)]
        assert plans[0].program is not plans[1].program
        assert plans[1].program is not None, plans[1].vm_reason
        documents = {}
        for on_vm in (True, False):
            result = TestStandInterpreter(
                narrow, interior_harness(InteriorLightEcu()),
                paper_signal_set(), plan_cache=cache if on_vm else None,
            ).run(_paper_script())
            assert result.passed
            documents[on_vm] = result_document(result)
        assert documents[True] == documents[False]
        stats = cache.stats.snapshot()
        assert (stats["plans_compiled"], stats["vm_runs"]) == (2, 1)

    def test_one_program_validates_from_many_threads_at_once(self):
        """Threads share a program's pinning memo, which is replaced whole
        and never changed in place: eight threads, each with its own stand
        and signal set, validate one program concurrently, every prologue
        passes and the memo never holds more than four sets."""
        import sys
        import threading

        program = _paper_plan().program
        failures = []

        def validate_often():
            cursor = _cursor(program, build_paper_stand(), paper_signal_set())
            for _ in range(200):
                if not cursor.validate({"ubatt": 12.0, "t": 0.0}):
                    failures.append(cursor)
                if len(program.signals_ok) > 4:
                    failures.append(program.signals_ok)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=validate_often)
                       for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []


# ---------------------------------------------------------------------------
# Self-distrust: degrade before executing anything
# ---------------------------------------------------------------------------

class TestVmDegrade:
    def test_repinned_signal_fails_validation(self):
        plan = _paper_plan()
        stand = build_paper_stand()
        repinned = SignalSet(
            tuple(
                Signal("INT_ILL", s.direction, s.kind,
                       pins=("INT_ILL_R", "INT_ILL_F"),
                       initial_status=s.initial_status)
                if s.key == "int_ill" else s
                for s in paper_signal_set()
            ),
            dut="interior_light_ecu",
        )
        variables = {"ubatt": stand.supply_voltage, "t": 0.0}
        assert _cursor(plan.program, stand, paper_signal_set()) \
            .validate(variables)
        assert not _cursor(plan.program, stand, repinned).validate(variables)

    def test_variable_window_that_no_longer_fits_fails_validation(self):
        """The prologue re-evaluates ``ubatt``-relative windows: 0.7 x
        1000 V is far outside the DVM's range, so the run must degrade."""
        plan = _paper_plan()
        stand = build_paper_stand()
        cursor = _cursor(plan.program, stand, paper_signal_set())
        assert cursor.validate({"ubatt": 12.0, "t": 0.0})
        assert not cursor.validate({"ubatt": 1000.0, "t": 0.0})

    def test_program_compiled_for_other_variables_does_not_validate(self):
        """At 40 V only WIDE can serve ``(0.7*ubatt)``; at 12 V the search
        picks NARROW.  WIDE could serve the 12 V window too, but the 40 V
        program must not serve a 12 V run: the run takes the classic walk,
        which reads on NARROW."""
        stand = _two_dvm_stand()
        script = _relative_reading_script()
        plan = compile_plan(
            script, paper_signal_set(), stand, policy="first_fit",
            registry=stand.registry, variables={"ubatt": 40.0, "t": 0.0},
        )
        assert [op.resource_key for op in plan.program.ops
                if op.code == "GET"] == ["WIDE"]
        cursor = _cursor(plan.program, stand, paper_signal_set())
        assert cursor.validate({"ubatt": 40.0, "t": 0.0})
        assert not cursor.validate({"ubatt": 12.0, "t": 0.0})
        classic = TestStandInterpreter(
            stand, interior_harness(InteriorLightEcu()), paper_signal_set(),
            plan_cache=None,
        ).run(script)
        assert [a.allocation.resource for a in classic.steps[0].actions] \
            == ["NARROW"]

    def test_prologue_refuses_other_variables_even_when_windows_fit(self):
        """Every window of the 12 V paper program still fits at 12.5 V, but
        the program was compiled for 12 V."""
        plan = _paper_plan()
        cursor = _cursor(plan.program, build_paper_stand(), paper_signal_set())
        assert cursor.validate({"ubatt": 12.0, "t": 0.0})
        assert not cursor.validate({"ubatt": 12.5, "t": 0.0})

    def test_a_cached_program_compares_only_the_variables_its_script_reads(
            self):
        """The plan cache compiles for the variables the script reads
        (``ubatt``), so the prologue compares that name, in any spelling,
        and ignores the rest of the run's variables."""
        from repro.teststand.plan import PlanCache

        stand = build_paper_stand()
        plan = PlanCache().plan_for(
            _paper_script(), paper_signal_set(), stand, policy="first_fit",
            registry=stand.registry, variables={"ubatt": 12.0, "t": 7.5})
        assert plan.program.variables == {"ubatt": 12.0}
        cursor = _cursor(plan.program, stand, paper_signal_set())
        assert cursor.validate({"ubatt": 12.0, "t": 0.0, "vref": 5.0})
        assert cursor.validate({"UBATT": 12})
        assert not cursor.validate({"ubatt": 12.5, "t": 7.5})
        assert not cursor.validate({"t": 7.5})

    def test_a_resource_the_stand_lacks_fails_the_prologue(self):
        """The prologue resolves the program's resource keys on the stand
        it runs on, and refuses a stand that lacks one before any op
        runs."""
        stand = build_paper_stand()
        variables = {"ubatt": 12.0, "t": 0.0}
        served = _cursor(_one_put_program("Ress2"), stand, paper_signal_set())
        assert served.validate(variables)
        assert served.instruments == (stand.resources.get("Ress2").instrument,)
        lacking = _cursor(_one_put_program("no_such_resource"), stand,
                          paper_signal_set())
        assert not lacking.validate(variables)

    @pytest.mark.parametrize("knob", ("use_plans", "use_vm"))
    def test_either_knob_off_runs_classic(self, knob):
        """Each knob alone selects the classic walk, on a spec and thus on
        every job and interpreter it builds."""
        spec = CampaignSpec(dut="wiper_ecu", faults=("motor_stuck_off",),
                            **{knob: False})
        before = GLOBAL_PLAN_CACHE.stats.snapshot()["vm_runs"]
        result = run_campaign(spec)
        assert result.baseline_clean
        assert GLOBAL_PLAN_CACHE.stats.snapshot()["vm_runs"] == before


# ---------------------------------------------------------------------------
# ``wait`` durations: read like every other parameter, on both walks
# ---------------------------------------------------------------------------

def _wait_step(duration: str) -> TestScript:
    return _one_step(SignalAction("NIGHT", MethodCall("wait", {"t": duration})))


class TestWaitDuration:
    def test_decimal_comma_wait_runs_on_both_walks(self):
        """``t="0,3"`` reads as 0.3 s, as lint reads it: the run waits
        0.3 s plus the step's 0.5 s, with the same report on both walks."""
        reports = {}
        for on_vm in (True, False):
            cache = PlanCache()
            result = TestStandInterpreter(
                build_paper_stand(), interior_harness(InteriorLightEcu()),
                paper_signal_set(), plan_cache=cache if on_vm else None,
            ).run(_wait_step("0,3"))
            assert result.duration == pytest.approx(0.8)
            assert cache.stats.snapshot()["vm_runs"] == int(on_vm)
            reports[on_vm] = result_document(result)
        assert reports[True] == reports[False]

    @pytest.mark.parametrize("use_vm", (True, False), ids=("vm", "classic"))
    def test_expression_wait_fails_on_first_attempt(self, use_vm):
        """No attempt can wait an expression's time, so the job fails
        once, with the reason the VM compiler gives."""
        jobs = expand_jobs(
            [_wait_step("(0.01*ubatt)")], paper_signal_set(),
            {"": build_paper_stand}, interior_harness,
            {"": InteriorLightEcu}, use_vm=use_vm,
        )
        report = run_jobs(jobs, SerialExecutor(), resilience=ResiliencePolicy(
            max_attempts=3, backoff_base=0.0))
        (job,) = report.results
        assert job.attempts == 1
        assert job.error == (
            "ScriptError: duration t='(0.01*ubatt)' is not numeric")


# ---------------------------------------------------------------------------
# Prepared operands: every instrument takes the keyword
# ---------------------------------------------------------------------------

class _OptionsDvm(Dvm):
    """A plugin DVM that passes every keyword through ``**options``."""

    def _perform(self, call, signal, pins, harness, variables, **options):
        return super()._perform(call, signal, pins, harness, variables,
                                **options)


def _paper_stand_with_dvm(dvm: Dvm) -> TestStand:
    stand = build_paper_stand()
    return TestStand(stand.name, ResourceTable(
        Resource(r.name, dvm, r.description) if r.name == "Ress1" else r
        for r in stand.resources), stand.connections)


def _legacy_perform(self, call, signal, pins, harness, variables):
    return Dvm._perform(self, call, signal, pins, harness, variables)


class TestPreparedKeyword:
    MESSAGE = ("_perform must accept the keyword argument 'prepared' "
               "(see Instrument._perform)")

    def test_perform_without_prepared_is_rejected_at_definition(self):
        """A third-party subclass with the five-argument signature would
        otherwise fail on its first VM-served call."""
        with pytest.raises(TypeError) as raised:
            class _LegacyDvm(Dvm):
                def _perform(self, call, signal, pins, harness, variables):
                    return super()._perform(call, signal, pins, harness,
                                            variables)
        assert str(raised.value) == (
            "TestPreparedKeyword.test_perform_without_prepared_is_rejected_"
            f"at_definition.<locals>._LegacyDvm.{self.MESSAGE}")

    @pytest.mark.parametrize("perform", [
        lambda self, call, signal, pins, harness, variables, prepared=None: 0,
        lambda self, call, signal, pins, harness, variables, *, prepared: 0,
        lambda self, *args, **options: 0,
        functools.wraps(Dvm._perform)(lambda self, *args: 0),
    ], ids=["named", "keyword-only", "var-keyword", "wrapped"])
    def test_accepted_spellings(self, perform):
        type("_PluginDvm", (Dvm,), {"_perform": perform})

    @pytest.mark.parametrize("perform", [
        lambda self, call, signal, pins, harness, variables, prepared, /: 0,
        lambda self, *args, prepared_values=None: 0,
        functools.wraps(_legacy_perform)(lambda self, *args, **options: 0),
    ], ids=["positional-only", "other-name", "wrapped"])
    def test_rejected_spellings(self, perform):
        """A wrapper is judged by what it wraps, as ``inspect.signature``
        judges it."""
        with pytest.raises(TypeError, match=re.escape(self.MESSAGE)):
            type("_PluginDvm", (Dvm,), {"_perform": perform})

    def test_a_var_keyword_plugin_runs_on_the_vm(self):
        """A ``**options`` plugin gets the VM's ``prepared=`` and reports
        what the classic walk reports."""
        scripts = Compiler().compile_suite(paper_suite())
        cache = PlanCache()
        reports = {}
        for on_vm in (True, False):
            interpreter = TestStandInterpreter(
                _paper_stand_with_dvm(_OptionsDvm("dvm1", u_min=-60.0,
                                                  u_max=60.0)),
                interior_harness(InteriorLightEcu()), paper_signal_set(),
                plan_cache=cache if on_vm else None,
            )
            reports[on_vm] = [result_document(interpreter.run(script))
                               for script in scripts]
        assert cache.stats.snapshot()["vm_runs"] == len(scripts)
        assert reports[True] == reports[False]

"""Tests for the script bytecode VM (PR 8).

Covers the guarantees the VM fast path rests on:

* property-style parity: every bundled DUT's full suite renders a
  byte-identical report with the VM on or off (wall time excluded), and
  campaign verdict tables agree on all four executor backends,
* the peephole passes (guard fusing, I/O batching) reduce the op count
  without any verdict drift,
* self-distrust: a binding or prologue mismatch degrades the run to the
  classic interpreter before anything executes,
* either knob off (``use_plans`` or ``use_vm``) runs the classic walk,
* prepared-operand safety: instruments without the ``prepared`` keyword
  never receive it.
"""

from __future__ import annotations

import json

import pytest

from repro.core import Compiler
from repro.core.script import MethodCall, ScriptStep, SignalAction, TestScript
from repro.core.signals import Signal, SignalDirection, SignalKind, SignalSet
from repro.dut import InteriorLightEcu
from repro.instruments import Dvm
from repro.instruments.base import Instrument
from repro.paper import interior_harness, paper_signal_set, paper_suite
from repro.targets import CampaignSpec, get_dut, iter_duts, run_campaign
from repro.teststand import (
    GLOBAL_PLAN_CACHE,
    Allocator,
    PlanCache,
    TestStandInterpreter,
    VmCursor,
    build_paper_stand,
    compile_plan,
    text_report,
)
from repro.teststand import json_report
from repro.teststand import vm
from repro.teststand.vm import (
    VmIoItem,
    VmOp,
    batch_io,
    fuse_guards,
)


SUITE_DUTS = tuple(d.name for d in iter_duts() if d.suite_factory is not None)


def _strip_wall(report: str) -> str:
    return "\n".join(
        line for line in report.splitlines() if "Wall time" not in line
    )


def _run_suite(dut, *, use_vm: bool, cache: PlanCache):
    """Run the DUT's full bundled suite serially on its default stand."""
    from repro.targets import default_stand_for, stand_factory_for

    scripts = Compiler().compile_suite(dut.suite_factory())
    stand = stand_factory_for(default_stand_for(dut), dut)()
    interpreter = TestStandInterpreter(
        stand, dut.build_harness(), dut.signals_factory(),
        plan_cache=cache, use_vm=use_vm,
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
        cache_on, cache_off = PlanCache(), PlanCache()
        with_vm = _run_suite(dut, use_vm=True, cache=cache_on)
        # Warm pass so the VM path actually executes (first runs compile).
        with_vm = _run_suite(dut, use_vm=True, cache=cache_on)
        without = _run_suite(dut, use_vm=False, cache=cache_off)
        for a, b in zip(with_vm, without):
            assert _strip_wall(text_report(a)) == _strip_wall(text_report(b))
            ja, jb = json.loads(json_report(a)), json.loads(json_report(b))
            ja.pop("wall_time_s", None), jb.pop("wall_time_s", None)
            assert ja == jb
        # Guard against silently comparing classic with classic: the warm
        # pass must have been served by the VM.
        assert cache_on.stats.snapshot()["vm_runs"] >= len(with_vm)

    # VM-on/off byte-identity across all backends lives in
    # ``test_parity_matrix.py``.


# ---------------------------------------------------------------------------
# Peephole passes
# ---------------------------------------------------------------------------

def _io_op(code: str, resource: str, signal_name: str, method: str) -> VmOp:
    signal = Signal(signal_name, SignalDirection.INPUT, SignalKind.ANALOG,
                    pins=(signal_name,))
    action = SignalAction(signal_name, MethodCall(method, {"u": "1"}))
    item = VmIoItem(action, signal, _StubAllocation())
    return VmOp(code, resource_key=resource, items=(item,))


class _StubAllocation:
    pins = ("a",)
    routes = ()
    persistent = False
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

    def test_fuse_guards_folds_window_into_io(self):
        io = _io_op("GET", "r1", "A", "get_u")
        window = ("capability", 1.0, None)
        fused = fuse_guards([
            VmOp("CHECK_WINDOW", window=window),
            io,
            VmOp("EVAL_LIMIT", window=window),
            _io_op("GET", "r1", "B", "get_u"),
        ])
        assert [op.code for op in fused] == ["GET", "GET"]
        assert fused[0].items[0].window == window
        assert fused[0].items[0].dynamic is False
        assert fused[1].items[0].dynamic is True

    def test_guard_without_io_stays_standalone(self):
        guard = VmOp("CHECK_WINDOW", window=("cap", 1.0, None))
        out = fuse_guards([guard, VmOp("WAIT", duration=1.0)])
        assert [op.code for op in out] == ["CHECK_WINDOW", "WAIT"]

    def test_compiled_paper_program_is_smaller_than_raw(self):
        """The bundled paper script must actually profit from the peephole."""
        plan = _paper_plan()
        assert plan.program is not None, plan.vm_reason
        assert plan.program.raw_op_count > len(plan.program.ops)

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
        for use_vm in (True, False):
            cache = PlanCache()
            result = TestStandInterpreter(
                build_paper_stand(), interior_harness(InteriorLightEcu()),
                paper_signal_set(), plan_cache=cache, use_vm=use_vm,
            ).run(script)
            reports[use_vm] = json.loads(json_report(result))
            reports[use_vm].pop("wall_time_s")
            if use_vm:
                assert cache.stats.snapshot()["vm_runs"] == 1
        assert reports[True] == reports[False]


# ---------------------------------------------------------------------------
# Self-distrust: degrade before executing anything
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
        allocator=Allocator(stand.resources, stand.connections,
                            policy="first_fit", registry=stand.registry),
        harness=interior_harness(InteriorLightEcu()),
    )


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

    def test_unresolvable_resource_fails_binding(self):
        program = vm.VmProgram(
            (VmOp("SET", resource_key="no_such_resource",
                  items=(_io_op("SET", "no_such_resource", "A",
                                "put_u").items[0],)),),
            0, key=("toy",),
        )
        stand = build_paper_stand()
        cursor = _cursor(program, stand, paper_signal_set())
        assert cursor.binding is None
        assert not cursor.validate({"ubatt": 12.0, "t": 0.0})

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
# Prepared operands: signature probe keeps legacy instruments safe
# ---------------------------------------------------------------------------

class _LegacyDvm(Dvm):
    """A third-party style subclass without the ``prepared`` keyword."""

    def _perform(self, call, signal, pins, harness, variables):  # noqa: D102
        return super()._perform(call, signal, pins, harness, variables)


class TestPreparedProbe:
    def test_bundled_instrument_accepts_prepared(self):
        assert vm._accepts_prepared(Dvm) is True

    def test_legacy_subclass_is_never_handed_prepared(self):
        assert vm._accepts_prepared(_LegacyDvm) is False

    def test_probe_is_memoised_per_class(self):
        vm._accepts_prepared(_LegacyDvm)
        assert vm._PREPARED_PROBE[_LegacyDvm] is False

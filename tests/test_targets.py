"""Tests for the repro.targets registry and the declarative spec API."""

from __future__ import annotations

import pytest

from repro import targets
from repro.core import Compiler
from repro.core.script import MethodCall, ScriptStep, SignalAction, TestScript
from repro.core.signals import SignalKind
from repro.paper import wiper_harness, wiper_suite
from repro.targets import (
    CampaignSpec,
    DutTarget,
    RunSpec,
    StandTarget,
    TargetError,
    derive_signal_set,
    register_dut,
    register_stand,
    run_campaign,
    run_single,
    stand_factories_for,
    stand_factory_for,
    unregister_dut,
    unregister_stand,
)
from repro.teststand import TestStand, build_minimal_bench


ALL_DUTS = ("central_locking_ecu", "exterior_light_ecu",
            "instrument_cluster_ecu", "interior_light_ecu",
            "window_lifter_ecu", "wiper_ecu")


class TestRegistry:
    def test_all_bundled_duts_registered(self):
        assert targets.dut_names() == ALL_DUTS
        assert targets.campaignable_dut_names() == ALL_DUTS

    def test_bundled_stands_registered(self):
        assert targets.stand_names() == ("big_rack", "minimal", "paper")
        assert targets.adaptable_stand_names() == ("big_rack", "minimal")
        assert not targets.get_stand("paper").adaptable

    def test_lookup_is_case_insensitive(self):
        assert targets.get_dut("WIPER_ECU").name == "wiper_ecu"
        assert targets.get_stand("Big_Rack").name == "big_rack"

    def test_unknown_lookups_raise(self):
        with pytest.raises(TargetError, match="unknown DUT"):
            targets.get_dut("alien_ecu")
        with pytest.raises(TargetError, match="unknown stand"):
            targets.get_stand("garage")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(TargetError, match="already registered"):
            register_dut(targets.get_dut("wiper_ecu"))
        with pytest.raises(TargetError, match="already registered"):
            register_stand("paper", build_minimal_bench)

    def test_register_and_unregister_target(self):
        target = DutTarget(
            name="toy_ecu",
            ecu_factory=object,
            harness_factory=lambda ecu: ecu,
            signals_factory=tuple,
        )
        assert register_dut(target) is target
        try:
            assert targets.get_dut("toy_ecu") is target
            assert not target.campaignable
            assert "toy_ecu" not in targets.campaignable_dut_names()
        finally:
            assert unregister_dut("toy_ecu") is target
        with pytest.raises(TargetError):
            targets.get_dut("toy_ecu")

    def test_register_dut_as_decorator(self):
        @register_dut(name="deco_ecu", harness_factory=lambda ecu: ecu,
                      signals_factory=tuple, description="decorated")
        class DecoEcu:
            NAME = "deco_ecu"

        try:
            target = targets.get_dut("deco_ecu")
            assert target.ecu_factory is DecoEcu
            assert target.description == "decorated"
        finally:
            unregister_dut("deco_ecu")

    def test_register_stand_as_decorator(self):
        @register_stand("deco_bench", adaptable=True)
        def build_deco_bench(pins=("A",)):
            return build_minimal_bench()

        try:
            stand = targets.get_stand("deco_bench")
            assert stand.adaptable
            assert isinstance(stand.factory_for(("A", "B"))(), TestStand)
        finally:
            unregister_stand("deco_bench")

    def test_register_stand_direct_call_returns_the_builder(self):
        def build_direct_bench():
            return build_minimal_bench()

        returned = register_stand("direct_bench", build_direct_bench)
        try:
            # Both registration forms pass the builder through unchanged.
            assert returned is build_direct_bench
            assert isinstance(returned(), TestStand)
        finally:
            unregister_stand("direct_bench")

    def test_stand_factory_for_wires_adapter_pins(self):
        factory = stand_factory_for("big_rack", "wiper_ecu")
        stand = factory()
        pins = {route.pin for route in stand.connections}
        assert "WIPER_MOTOR" in pins and "WASH_SW" in pins

    def test_stand_factory_for_rejects_non_adaptable(self):
        with pytest.raises(TargetError, match="no DUT adapter"):
            stand_factory_for("paper", "wiper_ecu")

    def test_stand_factories_for_skips_non_adaptable(self):
        factories = stand_factories_for("window_lifter_ecu")
        assert sorted(factories) == ["big_rack", "minimal"]
        # The interior DUT uses the paper default pinning: every stand fits.
        assert sorted(stand_factories_for("interior_light_ecu")) == \
            ["big_rack", "minimal", "paper"]

    def test_stand_factories_for_explicit_non_adaptable_raises(self):
        with pytest.raises(TargetError, match="no DUT adapter"):
            stand_factories_for("wiper_ecu", stands=("paper",))


def _script(dut: str, *signal_names: str) -> TestScript:
    actions = tuple(
        SignalAction(name.lower(), MethodCall("get_u", {"u_min": "0", "u_max": "1"}))
        for name in signal_names
    )
    return TestScript(name="probe", dut=dut,
                      steps=[ScriptStep(number=1, duration=0.1, actions=actions)])


class TestDeriveSignalSet:
    def test_pins_and_messages_resolve(self):
        script = _script("wiper_ecu", "WASH_SW", "WIPER_MOTOR", "WIPER_MODE")
        signals = derive_signal_set(script, wiper_harness(), warn=None)
        assert signals.get("WASH_SW").kind is SignalKind.RESISTIVE
        assert not signals.get("WASH_SW").is_output
        assert signals.get("WIPER_MOTOR").kind is SignalKind.ANALOG
        assert signals.get("WIPER_MOTOR").is_output
        bus = signals.get("WIPER_MODE")
        assert bus.kind is SignalKind.BUS and bus.message == "WIPER_COMMAND"

    def test_bus_signal_direction_follows_script_usage(self):
        from repro.paper import window_lifter_harness

        # WIN_POS is only ever *measured* (get_can) by the script, so the
        # derived sheet must model it as a DUT output, not a stimulus.
        script = TestScript(
            name="usage", dut="window_lifter_ecu",
            steps=[ScriptStep(number=1, duration=0.1, actions=(
                SignalAction("win_pos",
                             MethodCall("get_can", {"data_min": "0",
                                                    "data_max": "1"})),
                SignalAction("ign_st", MethodCall("put_can", {"data": "10B"})),
            ))],
        )
        signals = derive_signal_set(script, window_lifter_harness(), warn=None)
        assert signals.get("WIN_POS").is_output
        assert not signals.get("WIN_POS").is_input
        assert signals.get("IGN_ST").is_input

    def test_unresolvable_signal_warns_and_is_dropped(self):
        script = _script("wiper_ecu", "WIPER_MOTOR", "BOGUS")
        warnings: list[str] = []
        signals = derive_signal_set(script, wiper_harness(), warn=warnings.append)
        assert "BOGUS" not in signals and "WIPER_MOTOR" in signals
        assert len(warnings) == 1
        assert "bogus" in warnings[0] and "neither a pin" in warnings[0]

    def test_default_warn_is_a_filterable_warning(self):
        from repro.targets import SignalDerivationWarning

        script = _script("wiper_ecu", "BOGUS")
        with pytest.warns(SignalDerivationWarning, match="bogus"):
            derive_signal_set(script, wiper_harness())

    def test_repeated_problems_warn_once_per_derivation(self):
        import warnings as warnings_module

        from repro.core.script import ScriptStep
        from repro.targets import SignalDerivationWarning

        # The same unresolvable signal in several steps must produce one
        # warning, not one per occurrence.
        action = SignalAction("bogus", MethodCall("get_u", {"u_min": "0",
                                                            "u_max": "1"}))
        script = TestScript(name="probe", dut="wiper_ecu", steps=[
            ScriptStep(number=1, duration=0.1, actions=(action,)),
            ScriptStep(number=2, duration=0.1, actions=(action,)),
        ])
        with warnings_module.catch_warnings(record=True) as caught:
            warnings_module.simplefilter("always")
            derive_signal_set(script, wiper_harness())
        relevant = [w for w in caught
                    if issubclass(w.category, SignalDerivationWarning)]
        assert len(relevant) == 1

    def test_no_warning_when_everything_resolves(self):
        import warnings as warnings_module

        script = _script("wiper_ecu", "WIPER_MOTOR")
        with warnings_module.catch_warnings(record=True) as caught:
            warnings_module.simplefilter("always")
            derive_signal_set(script, wiper_harness())
        assert not caught


class TestRunSingle:
    def test_run_single_with_registered_signals(self):
        suite = wiper_suite()
        script = Compiler().compile_test(suite, "continuous_wiping")
        result = run_single(RunSpec(script=script, stand="big_rack"))
        assert result.passed

    def test_run_single_reads_script_from_path(self, tmp_path):
        from repro.core import write_script

        suite = wiper_suite()
        script = Compiler().compile_test(suite, "continuous_wiping")
        path = str(tmp_path / "script.xml")
        write_script(script, path)
        result = run_single(RunSpec(script=path, stand="minimal"))
        assert result.passed

    def test_run_single_unknown_dut(self):
        with pytest.raises(TargetError, match="unknown DUT"):
            run_single(RunSpec(script=_script("alien_ecu", "X")))

    def test_run_single_non_adaptable_stand(self):
        script = Compiler().compile_test(wiper_suite(), "continuous_wiping")
        with pytest.raises(TargetError, match="no DUT adapter"):
            run_single(RunSpec(script=script, stand="paper"))

    def test_run_single_rejects_dut_script_mismatch(self):
        script = Compiler().compile_test(wiper_suite(), "continuous_wiping")
        with pytest.raises(TargetError, match="run\\s+spec targets"):
            run_single(RunSpec(script=script, dut="interior_light_ecu"))


class TestRunCampaign:
    def test_campaign_from_bundled_suite(self):
        result = run_campaign(CampaignSpec(dut="wiper_ecu", stand="big_rack"))
        assert result.baseline_clean
        # The fast_relay_current sheet closed the former fast_relay_weak gap.
        assert "fast_relay_weak" in result.detected
        assert result.undetected == ()

    def test_default_stand_carries_the_dut_adapter(self):
        from repro.targets import default_stand_for

        assert default_stand_for("interior_light_ecu") == "paper"
        assert default_stand_for("wiper_ecu") == "big_rack"
        # Registration order decides: a later adaptable stand (even one
        # sorting first alphabetically) must not shift existing defaults.
        register_stand("aaa_rig", build_minimal_bench, adaptable=True)
        try:
            assert default_stand_for("wiper_ecu") == "big_rack"
        finally:
            unregister_stand("aaa_rig")
        # No stand in the spec: every registered DUT campaigns cleanly.
        result = run_campaign(CampaignSpec(dut="window_lifter_ecu",
                                           faults=("motor_up_dead",)))
        assert result.baseline_clean and result.detected == ("motor_up_dead",)

    def test_explicit_executor_overrides_spec_backend(self):
        from repro.teststand import SerialExecutor

        result = run_campaign(
            CampaignSpec(dut="wiper_ecu", backend="process", jobs=8,
                         faults=("motor_stuck_off",)),
            executor=SerialExecutor(),
        )
        assert result.execution.backend == "serial"
        assert result.execution.workers == 1

    def test_campaign_tables_byte_identical_across_backends(self):
        tables = {}
        for backend, jobs in (("serial", 1), ("thread", 3)):
            result = run_campaign(CampaignSpec(
                dut="exterior_light_ecu", stand="big_rack",
                backend=backend, jobs=jobs,
            ))
            tables[backend] = result.table() + "\n" + result.summary()
        assert tables["serial"] == tables["thread"]

    def test_campaign_on_process_backend(self):
        # Everything in the expanded jobs must be picklable; a fault subset
        # keeps the pool small and the test quick.
        serial = run_campaign(CampaignSpec(
            dut="wiper_ecu", stand="big_rack", faults=("motor_stuck_off",),
        ))
        from_process = run_campaign(CampaignSpec(
            dut="wiper_ecu", stand="big_rack", faults=("motor_stuck_off",),
            backend="process", jobs=2,
        ))
        assert from_process.table() == serial.table()

    def test_campaign_from_workbook_matches_bundled_suite(self, tmp_path):
        from repro.sheets import save_suite

        workbook = str(tmp_path / "wb")
        save_suite(wiper_suite(), workbook)
        from_suite = run_campaign(CampaignSpec(dut="wiper_ecu", stand="big_rack"))
        from_workbook = run_campaign(CampaignSpec(workbook=workbook, stand="big_rack"))
        assert from_workbook.table() == from_suite.table()

    def test_fault_selection_order_and_dedupe(self):
        result = run_campaign(CampaignSpec(
            dut="wiper_ecu", stand="big_rack",
            faults=("no_fast_relay", "motor_stuck_off", "no_fast_relay"),
        ))
        assert [o.fault.name for o in result.outcomes] == \
            ["no_fast_relay", "motor_stuck_off"]

    def test_unknown_fault_name(self):
        with pytest.raises(TargetError, match="known faults"):
            run_campaign(CampaignSpec(dut="wiper_ecu", stand="big_rack",
                                      faults=("warp_drive_failure",)))

    def test_faults_accepts_none_as_whole_catalogue(self):
        assert CampaignSpec(dut="wiper_ecu", faults=None).faults == ()

    def test_faults_accepts_a_comma_separated_string(self):
        spec = CampaignSpec(dut="wiper_ecu",
                            faults="motor_stuck_off, no_fast_relay")
        assert spec.faults == ("motor_stuck_off", " no_fast_relay")
        result = run_campaign(spec)
        assert [o.fault.name for o in result.outcomes] == \
            ["motor_stuck_off", "no_fast_relay"]

    def test_spec_needs_a_suite_source(self):
        with pytest.raises(TargetError, match="needs a dut"):
            run_campaign(CampaignSpec())

    def test_suite_dut_mismatch(self):
        with pytest.raises(TargetError, match="targets"):
            run_campaign(CampaignSpec(dut="wiper_ecu", suite=__import__(
                "repro.paper", fromlist=["paper_suite"]).paper_suite(),
                stand="big_rack"))

    def test_broken_workbook(self, tmp_path):
        with pytest.raises(TargetError, match="cannot load workbook"):
            run_campaign(CampaignSpec(workbook=str(tmp_path / "nope")))

    def test_campaign_uses_the_suite_own_signal_sheet(self, tmp_path):
        # A workbook may rename signals relative to the registered bundled
        # set; the campaign must execute against the sheet the scripts were
        # compiled from, not silently swap in the registry's set.
        from repro.core.signals import Signal, SignalDirection, SignalKind, SignalSet
        from repro.core.testdef import TestDefinition, TestSuite
        from repro.paper import family_status_table
        from repro.sheets import save_suite

        signals = SignalSet(
            (
                Signal("IGNITION", SignalDirection.INPUT, SignalKind.BUS,
                       message="IGN_STATUS", initial_status="Off"),
                Signal("STALK", SignalDirection.INPUT, SignalKind.BUS,
                       message="WIPER_COMMAND", initial_status="WipeOff"),
                Signal("MOTOR", SignalDirection.OUTPUT, SignalKind.ANALOG,
                       pins=("WIPER_MOTOR",), initial_status="Lo"),
            ),
            dut="wiper_ecu",
        )
        test = TestDefinition("renamed_signals",
                              signals=("IGNITION", "STALK", "MOTOR"))
        test.add_step(0.5, {"IGNITION": "IgnOn", "STALK": "Slow", "MOTOR": "Ho"})
        test.add_step(0.5, {"STALK": "WipeOff", "MOTOR": "Lo"})
        suite = TestSuite("wiper_ecu", signals, family_status_table(), (test,))
        suite.validate()
        workbook = str(tmp_path / "wb")
        save_suite(suite, workbook)

        result = run_campaign(CampaignSpec(
            workbook=workbook, stand="big_rack", faults=("motor_stuck_off",),
        ))
        assert result.baseline_clean
        assert result.detected == ("motor_stuck_off",)


class TestDeprecatedShims:
    """Pre-registry public names must keep resolving (CAMPAIGN_TARGETS era).

    The CLI's registry-view shims of that era are gone; the package and
    teststand exports that code of the time imported are not."""

    def test_teststand_exports_still_resolve(self):
        from repro.teststand import (  # noqa: F401
            ALLOCATION_POLICIES,
            EXECUTION_BACKENDS,
            ExecutionReport,
            Job,
            JobResult,
            TestStandInterpreter,
            build_big_rack,
            build_minimal_bench,
            build_paper_stand,
            expand_jobs,
            make_executor,
            run_across_stands,
            run_jobs,
        )

    def test_package_level_exports(self):
        import repro

        assert repro.run_campaign is run_campaign
        assert repro.CampaignSpec is CampaignSpec
        assert repro.DutTarget is DutTarget
        assert repro.StandTarget is StandTarget


# ---------------------------------------------------------------------------
# Multi-ECU compositions
# ---------------------------------------------------------------------------

class TestCompositions:
    def test_bundled_composition_registered(self):
        from repro.targets import composition_names, get_composition

        assert "lock+cluster" in composition_names()
        comp = get_composition("lock+cluster")
        assert [m.alias for m in comp.members] == ["lock", "cluster"]
        assert comp.member_for("cluster").dut == "instrument_cluster_ecu"
        with pytest.raises(TargetError):
            get_composition("no_such_composition")

    def test_register_unregister_round_trip(self):
        from repro.targets import (
            CompositionTarget,
            composition_names,
            register_composition,
            unregister_composition,
        )
        from repro.paper import composed_suite

        toy = CompositionTarget(
            "toy_comp",
            (("a", "central_locking_ecu"), ("b", "instrument_cluster_ecu")),
            suite_factory=composed_suite,
        )
        register_composition(toy)
        try:
            assert "toy_comp" in composition_names()
            with pytest.raises(TargetError):
                register_composition(toy)  # duplicate name
        finally:
            unregister_composition("toy_comp")
        assert "toy_comp" not in composition_names()

    def test_composition_target_validation(self):
        from repro.targets import CompositionTarget
        from repro.paper import composed_suite

        with pytest.raises(TargetError):
            CompositionTarget("lonely", (("a", "wiper_ecu"),),
                              suite_factory=composed_suite)
        with pytest.raises(TargetError):
            CompositionTarget(
                "dupes", (("a", "wiper_ecu"), ("a", "interior_light_ecu")),
                suite_factory=composed_suite)

    def test_pins_are_member_union_in_member_order(self):
        from repro.targets import get_composition, get_dut

        comp = get_composition("lock+cluster")
        lock_pins = get_dut("central_locking_ecu").pins
        cluster_pins = get_dut("instrument_cluster_ecu").pins
        assert comp.pins == tuple(lock_pins) + tuple(cluster_pins)

    def test_member_faults_cover_bundled_and_interaction(self):
        from repro.targets import get_composition

        comp = get_composition("lock+cluster")
        names = comp.faults_factory().names
        assert "lock.no_auto_lock" in names
        assert "cluster.speed_tx_truncated" in names      # interaction-only
        escape = comp.faults_factory().get("cluster.gauge_stuck_zero")
        assert escape.expected_detected is False          # documented override
        with pytest.raises(TargetError):
            comp.member_fault("cluster", "no_such_fault")
        with pytest.raises(TargetError):
            comp.member_fault("nobody", "no_auto_lock")

    def test_spec_mutual_exclusion(self):
        from repro.core.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            CampaignSpec(dut="wiper_ecu", composition="lock+cluster")
        with pytest.raises(ConfigurationError):
            RunSpec(script="x.xml", dut="wiper_ecu",
                    composition="lock+cluster")

    def test_composed_campaign_detects_the_interaction_escape(self):
        result = run_campaign(CampaignSpec(
            composition="lock+cluster",
            faults=("cluster.speed_tx_truncated",),
        ))
        assert result.baseline_clean
        assert result.detected == ("cluster.speed_tx_truncated",)

    def test_single_dut_suite_provably_misses_the_escape(self):
        """The composition's reason to exist: the cluster's own suite
        passes with the truncating broadcast fault injected - only the
        cross-ECU interaction sheets catch it."""
        from repro.analysis import FaultCampaign
        from repro.analysis.faults import interaction_faults
        from repro.dut import InstrumentClusterEcu
        from repro.paper import cluster_harness, cluster_signal_set, cluster_suite
        from repro.targets import default_stand_for, stand_factory_for, get_dut

        dut = get_dut("instrument_cluster_ecu")
        campaign = FaultCampaign(
            Compiler().compile_suite(cluster_suite()),
            cluster_signal_set(),
            stand_factory_for(default_stand_for(dut), dut),
            cluster_harness,
            InstrumentClusterEcu,
        )
        result = campaign.run(
            [interaction_faults("instrument_cluster_ecu").get("speed_tx_truncated")]
        )
        assert result.baseline_clean
        assert result.undetected == ("speed_tx_truncated",)

    def test_run_single_composed_sheet(self):
        from repro.paper import composed_suite

        script = Compiler().compile_test(composed_suite(),
                                         "composed_unlock_inhibit")
        result = run_single(RunSpec(script=script,
                                    composition="lock+cluster"))
        assert result.passed

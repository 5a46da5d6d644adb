"""CLI error paths and exit codes.

``repro-run`` and ``repro-campaign`` distinguish three exit codes so CI
consumers can tell DUT regressions from infrastructure problems:

* 0 - passed,
* 1 - the DUT misbehaved (FAIL verdict / dirty baseline / missed fault),
* 2 - the test could not be executed (unknown DUT, unknown fault, broken
  workbook, no stand adapter, ERROR verdict).
"""

from __future__ import annotations

import os

import pytest

from repro.cli import main_campaign, main_compile, main_run
from repro.core import Compiler, write_script
from repro.core.script import MethodCall, ScriptStep, SignalAction, TestScript
from repro.core.status import StatusDefinition, StatusTable
from repro.core.testdef import TestDefinition, TestSuite
from repro.paper import paper_signal_set, paper_status_table, wiper_suite
from repro.sheets import save_suite


def _write(tmp_path, script: TestScript) -> str:
    path = str(tmp_path / f"{script.name}.xml")
    write_script(script, path)
    return path


def _failing_interior_suite() -> TestSuite:
    """A sheet expecting the lamp ON by day with all doors closed: FAILs."""
    test = TestDefinition(
        "wrong_expectation",
        signals=("NIGHT", "DS_FL", "INT_ILL"),
        description="deliberately wrong expectation",
    )
    test.add_step(0.5, {"NIGHT": "0", "DS_FL": "Closed", "INT_ILL": "Ho"})
    suite = TestSuite("interior_light_ecu", paper_signal_set(),
                      paper_status_table(), (test,))
    suite.validate()
    return suite


class TestRunExitCodes:
    def test_unreadable_script_is_exit_2(self, tmp_path, capsys):
        missing = str(tmp_path / "no_such.xml")
        assert main_run([missing]) == 2
        assert "cannot read script" in capsys.readouterr().err

    def test_unknown_dut_is_exit_2(self, tmp_path, capsys):
        path = tmp_path / "alien.xml"
        path.write_text(
            '<?xml version="1.0"?><testscript name="t" dut="alien_ecu">'
            "<steps/></testscript>"
        )
        assert main_run([str(path)]) == 2
        err = capsys.readouterr().err
        assert "unknown DUT" in err and "alien_ecu" in err

    def test_non_adaptable_stand_is_exit_2(self, tmp_path, capsys):
        script = Compiler().compile_test(wiper_suite(), "continuous_wiping")
        path = _write(tmp_path, script)
        assert main_run([path, "--stand", "paper"]) == 2
        assert "no DUT adapter" in capsys.readouterr().err

    def test_verdict_fail_is_exit_1(self, tmp_path, capsys):
        script = Compiler().compile_test(_failing_interior_suite(),
                                         "wrong_expectation")
        path = _write(tmp_path, script)
        assert main_run([path, "--quiet"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_execution_error_is_exit_2_and_warns(self, tmp_path, capsys):
        # A signal resolving to neither a pin nor a CAN message is reported
        # as a SignalDerivationWarning by the signal derivation (so callers
        # can filter/assert it) and the action then ERRORs.
        from repro.targets import SignalDerivationWarning

        script = TestScript(
            name="bogus_probe", dut="wiper_ecu",
            steps=[ScriptStep(number=1, duration=0.1, actions=(
                SignalAction("bogus", MethodCall("get_u",
                                                 {"u_min": "0", "u_max": "1"})),
            ))],
        )
        path = _write(tmp_path, script)
        with pytest.warns(SignalDerivationWarning, match="neither a pin"):
            assert main_run([path, "--stand", "big_rack", "--quiet"]) == 2
        captured = capsys.readouterr()
        assert "ERROR" in captured.out

    def test_passing_script_is_exit_0(self, tmp_path):
        script = Compiler().compile_test(wiper_suite(), "continuous_wiping")
        path = _write(tmp_path, script)
        assert main_run([path, "--stand", "big_rack", "--quiet"]) == 0

    def test_crashing_factory_is_exit_2_not_a_traceback(self, tmp_path, capsys):
        from repro.targets import DutTarget, register_dut, unregister_dut

        def exploding_harness(ecu):
            raise RuntimeError("lab is on fire")

        register_dut(DutTarget(name="fragile_ecu", ecu_factory=object,
                               harness_factory=exploding_harness,
                               signals_factory=tuple))
        try:
            path = tmp_path / "fragile.xml"
            path.write_text(
                '<?xml version="1.0"?><testscript name="t" dut="fragile_ecu">'
                "<steps/></testscript>"
            )
            assert main_run([str(path)]) == 2
            assert "lab is on fire" in capsys.readouterr().err
        finally:
            unregister_dut("fragile_ecu")


class TestCampaignExitCodes:
    def test_broken_workbook_is_exit_2(self, tmp_path, capsys):
        missing = str(tmp_path / "no_such_workbook")
        assert main_campaign([missing]) == 2
        assert "cannot load workbook" in capsys.readouterr().err

    def test_workbook_with_garbage_is_exit_2(self, tmp_path, capsys):
        workbook = tmp_path / "garbage"
        workbook.mkdir()
        (workbook / "signals.csv").write_text("not,a,real\nsignal,sheet,!!\n")
        assert main_campaign([str(workbook)]) == 2
        assert "cannot load workbook" in capsys.readouterr().err

    def test_unknown_dut_is_exit_2(self, capsys):
        assert main_campaign(["--dut", "alien_ecu"]) == 2
        err = capsys.readouterr().err
        assert "unknown DUT" in err and "alien_ecu" in err

    def test_unknown_fault_is_exit_2(self, capsys):
        assert main_campaign(["--dut", "wiper_ecu", "--stand", "big_rack",
                              "--faults", "warp_drive_failure"]) == 2
        err = capsys.readouterr().err
        assert "unknown fault" in err and "known faults" in err

    def test_non_adaptable_stand_is_exit_2(self, capsys):
        assert main_campaign(["--dut", "wiper_ecu", "--stand", "paper"]) == 2
        assert "no DUT adapter" in capsys.readouterr().err

    def test_missing_workbook_and_dut_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main_campaign([])
        assert excinfo.value.code == 2
        assert "--dut NAME or --compose NAME is required" in capsys.readouterr().err

    def test_dut_and_compose_are_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main_campaign(["--dut", "wiper_ecu", "--compose", "lock+cluster"])
        assert excinfo.value.code == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_lint_without_list_targets_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main_campaign(["--dut", "wiper_ecu", "--lint", "--quiet"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert "--lint" in captured.err and "--list-targets" in captured.err
        assert captured.out == ""

    def test_unknown_composition_is_exit_2(self, capsys):
        assert main_campaign(["--compose", "gone"]) == 2
        assert "unknown composition" in capsys.readouterr().err

    def test_dirty_baseline_is_exit_1(self, tmp_path, capsys):
        workbook = str(tmp_path / "wb")
        save_suite(_failing_interior_suite(), workbook)
        assert main_campaign([workbook, "--quiet"]) == 1
        assert "NOT clean" in capsys.readouterr().out

    def test_error_verdicts_are_exit_2_not_a_regression(self, tmp_path, capsys):
        # A signal whose pin no stand resource can reach makes every run
        # ERROR - an infrastructure problem, which must not masquerade as a
        # dirty baseline (1) or as fault detections (0).
        from repro.core.signals import Signal, SignalDirection, SignalKind, SignalSet

        base = paper_signal_set()
        signals = SignalSet(
            (*base, Signal("GHOST", SignalDirection.INPUT, SignalKind.RESISTIVE,
                           pins=("GHOST",), initial_status="Open")),
            dut=base.dut,
        )
        test = TestDefinition("ghost_pin", signals=("GHOST", "INT_ILL"))
        test.add_step(0.5, {"GHOST": "Open", "INT_ILL": "Lo"})
        suite = TestSuite("interior_light_ecu", signals, paper_status_table(), (test,))
        suite.validate()
        workbook = str(tmp_path / "wb")
        save_suite(suite, workbook)

        assert main_campaign([workbook, "--quiet"]) == 2
        assert "ERROR verdicts" in capsys.readouterr().err

    def test_fault_only_error_counts_as_detection(self, tmp_path, capsys):
        # An ERROR that appears only while a fault is injected is the
        # fault being caught, not an infrastructure failure: the campaign
        # must exit 0, not 2.
        from repro.analysis.faults import FaultCatalogue, FaultModel
        from repro.dut.interior_light import InteriorLightEcu
        from repro.paper import interior_harness, paper_suite
        from repro.targets import DutTarget, register_dut, unregister_dut

        class FlakyEcu(InteriorLightEcu):
            NAME = "flaky_light_ecu"

        class _BrokenDriverQuery(FlakyEcu):
            def output_drive(self, pin):
                raise RuntimeError("driver readback broken")

        register_dut(DutTarget(
            name="flaky_light_ecu",
            ecu_factory=FlakyEcu,
            harness_factory=interior_harness,
            signals_factory=paper_signal_set,
            faults_factory=lambda: FaultCatalogue("flaky_light_ecu", (
                FaultModel("driver_query_broken", "readback path dead",
                           _BrokenDriverQuery),
            )),
        ))
        try:
            base = paper_suite()
            suite = TestSuite("flaky_light_ecu", base.signals, base.statuses,
                              tuple(base))
            workbook = str(tmp_path / "wb")
            save_suite(suite, workbook)
            assert main_campaign([workbook]) == 0
            out = capsys.readouterr().out
            assert "driver_query_broken" in out and "baseline clean" in out
        finally:
            unregister_dut("flaky_light_ecu")

    def test_bundled_suite_campaign_is_exit_0(self, capsys):
        assert main_campaign(["--dut", "wiper_ecu", "--stand", "big_rack",
                              "--quiet"]) == 0
        assert "fault campaign" in capsys.readouterr().out

    def test_bundled_suite_campaign_without_stand_picks_an_adapter(self, capsys):
        # The default stand must carry the DUT's adapter pins, so --dut works
        # for every registered DUT without naming a stand.
        assert main_campaign(["--dut", "exterior_light_ecu", "--quiet"]) == 0
        assert "fault campaign" in capsys.readouterr().out

    def test_run_without_stand_picks_an_adapter(self, tmp_path):
        script = Compiler().compile_test(wiper_suite(), "continuous_wiping")
        path = _write(tmp_path, script)
        assert main_run([path, "--quiet"]) == 0

    def test_list_targets_is_exit_0(self, capsys):
        assert main_campaign(["--list-targets"]) == 0
        out = capsys.readouterr().out
        assert "registered DUTs" in out and "registered stands" in out
        for dut in ("interior_light_ecu", "central_locking_ecu", "wiper_ecu",
                    "window_lifter_ecu", "exterior_light_ecu"):
            assert dut in out
        assert "big_rack" in out and "minimal" in out and "paper" in out


class TestCompileExitCodes:
    def test_broken_workbook_is_exit_2(self, tmp_path, capsys):
        assert main_compile([str(tmp_path / "nope"), str(tmp_path / "out")]) == 2
        assert "cannot load workbook" in capsys.readouterr().err

    def test_unwritable_output_is_exit_2(self, tmp_path, capsys):
        workbook = str(tmp_path / "wb")
        save_suite(wiper_suite(), workbook)
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where the output directory should go")
        assert main_compile([workbook, str(blocker / "out")]) == 2
        assert "cannot write scripts" in capsys.readouterr().err

    def test_compile_family_workbook_is_exit_0(self, tmp_path, capsys):
        workbook = str(tmp_path / "wb")
        out = str(tmp_path / "scripts")
        save_suite(wiper_suite(), workbook)
        assert main_compile([workbook, out]) == 0
        assert os.path.exists(os.path.join(out, "continuous_wiping.xml"))

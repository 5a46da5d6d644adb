"""Interpreter tests and full tool-chain integration tests.

The integration tests follow the paper's complete workflow: sheets -> CSV
workbook -> compile -> XML -> interpret on a virtual test stand against the
simulated ECU, on all three bundled stands.
"""

from __future__ import annotations

import json

import pytest

from repro.core import Compiler, script_from_string, script_to_string
from repro.core.errors import ExecutionError
from repro.core.script import MethodCall, ScriptStep, SignalAction, TestScript
from repro.core.testdef import TestDefinition, TestSuite
from repro.paper import (
    build_paper_harness,
    paper_signal_set,
    paper_status_table,
    run_paper_example,
)
from repro.sheets import load_suite, save_suite
from repro.teststand import (
    TestStandInterpreter,
    Verdict,
    build_big_rack,
    build_minimal_bench,
    build_paper_stand,
    json_report,
    summary_line,
    text_report,
)


class TestPaperExampleExecution:
    def test_all_steps_pass_on_paper_stand(self):
        script, result = run_paper_example()
        assert result.passed
        assert len(result.steps) == 10
        assert all(step.passed for step in result.steps)
        assert result.duration == pytest.approx(309.0)

    def test_resources_used_match_paper(self):
        _, result = run_paper_example()
        used = set(result.resources_used())
        assert "Ress1" in used            # DVM measured INT_ILL
        assert used & {"Ress2", "Ress3"}  # at least one decade emulated a door
        assert "Ress4" in used            # CAN interface sent IGN_ST / NIGHT

    def test_timeout_steps_have_expected_verdicts(self):
        _, result = run_paper_example()
        step7 = result.steps[7]
        step8 = result.steps[8]
        ho = step7.actions[-1]
        lo = step8.actions[-1]
        assert ho.outcome.observed > 8.0       # lamp still on after 280 s
        assert lo.outcome.observed < 1.0       # lamp off after the 300 s timeout

    def test_verdict_counts(self):
        _, result = run_paper_example()
        counts = result.counts()
        assert counts["fail"] == 0 and counts["error"] == 0
        assert counts["pass"] == len(result.action_results)


class TestPortabilityAcrossStands:
    @pytest.mark.parametrize("builder", [build_paper_stand, build_big_rack, build_minimal_bench])
    def test_same_script_passes_on_every_stand(self, builder):
        script, result = run_paper_example(builder())
        assert result.passed, text_report(result)

    def test_same_xml_text_is_used(self, script):
        """The portability claim: identical XML, different stands, same verdicts."""
        xml_text = script_to_string(script)
        verdicts = []
        for builder in (build_paper_stand, build_big_rack, build_minimal_bench):
            stand = builder()
            harness = build_paper_harness(ubatt=stand.supply_voltage)
            interpreter = TestStandInterpreter(stand, harness, paper_signal_set())
            result = interpreter.run(script_from_string(xml_text))
            verdicts.append((stand.name, result.verdict))
        assert all(verdict is Verdict.PASS for _, verdict in verdicts)

    def test_relative_limits_follow_stand_supply(self):
        """At a different supply voltage the absolute limits move but the verdict holds."""
        stand = build_paper_stand(supply_voltage=9.0)
        script, result = run_paper_example(stand)
        assert result.passed
        ho_actions = [a for step in result.steps for a in step.actions
                      if a.method == "get_u" and a.outcome and a.outcome.observed > 1.0]
        assert ho_actions
        for action in ho_actions:
            assert action.outcome.limits.low == pytest.approx(0.7 * 9.0)


class TestFailureAndErrorPaths:
    def test_detects_misbehaving_dut(self):
        from repro.analysis.faults import interior_light_faults

        fault = interior_light_faults().get("lamp_stuck_off")
        from repro.dut import LoadSpec, TestHarness, body_can_database

        harness = TestHarness(fault.build(), body_can_database(),
                              loads=(LoadSpec("INT_ILL_F", "INT_ILL_R", 6.0),))
        script, _ = run_paper_example()
        interpreter = TestStandInterpreter(build_paper_stand(), harness, paper_signal_set())
        result = interpreter.run(script)
        assert not result.passed
        assert result.verdict is Verdict.FAIL

    def test_missing_resource_produces_error_verdict(self, script, harness):
        """A stand without a CAN interface cannot execute put_can -> ERROR."""
        from repro.instruments import Dvm, ResistorDecade
        from repro.teststand import ConnectionMatrix, Resource, ResourceTable, Route, Switch, TestStand

        resources = ResourceTable((
            Resource("DVM", Dvm("d")),
            Resource("DEC", ResistorDecade("r")),
        ))
        connections = ConnectionMatrix((
            Route("DVM", "hi", "INT_ILL_F", Switch("S1")),
            Route("DVM", "lo", "INT_ILL_R", Switch("S2")),
            Route("DEC", "a", "DS_FL", Switch("S3")),
            Route("DEC", "a", "DS_FR", Switch("S4")),
        ))
        stand = TestStand("crippled", resources, connections)
        interpreter = TestStandInterpreter(stand, harness, paper_signal_set())
        result = interpreter.run(script)
        assert result.verdict is Verdict.ERROR
        errors = [a for a in result.action_results if a.verdict is Verdict.ERROR]
        assert errors and all(a.method == "put_can" for a in errors)

    def test_missing_variable_rejected(self, harness):
        stand = build_paper_stand()
        step = ScriptStep(0, 0.1, (SignalAction(
            "int_ill", MethodCall("get_u", {"u_min": "(0.7*usupply2)", "u_max": "13"})),))
        script = TestScript("needs_usupply2", "interior_light_ecu", [step])
        interpreter = TestStandInterpreter(stand, harness, paper_signal_set())
        with pytest.raises(ExecutionError):
            interpreter.run(script)

    def test_stand_variable_spelling_does_not_matter(self):
        """Expressions match variable names case-insensitively, so a stand
        that spells ``Vref`` serves a script that reads ``vref``, on the VM
        and on the classic walk alike."""
        from repro.teststand import PlanCache

        step = ScriptStep(0, 0.1, (SignalAction(
            "int_ill", MethodCall("get_u", {"u_min": "0", "u_max": "(3*vref)"})),))
        script = TestScript("reads_vref", "interior_light_ecu", [step])

        def report(name, cache):
            stand = build_paper_stand()
            stand.variables = {name: 6.0}
            interpreter = TestStandInterpreter(
                stand, build_paper_harness(), paper_signal_set(),
                plan_cache=cache)
            document = json.loads(json_report(interpreter.run(script)))
            document.pop("wall_time_s")
            return document

        cache = PlanCache()
        reference = report("vref", None)
        assert reference["verdict"] == "pass"
        assert report("Vref", cache) == reference
        assert report("Vref", None) == reference
        assert report("vref", cache) == reference
        assert cache.stats.vm_runs == 2

    def test_unknown_signal_is_error_result(self, harness):
        stand = build_paper_stand()
        step = ScriptStep(0, 0.1, (SignalAction("mystery", MethodCall("get_u", {"u_min": "0",
                                                                                "u_max": "1"})),))
        script = TestScript("unknown_signal", "interior_light_ecu", [step])
        interpreter = TestStandInterpreter(stand, harness, paper_signal_set())
        result = interpreter.run(script)
        assert result.verdict is Verdict.ERROR

    def test_open_circuit_realisation_for_closed_doors(self, script):
        """'Closed' (INF) stimuli are realised without occupying a decade."""
        _, result = run_paper_example()
        closed_actions = [a for a in result.action_results
                          if a.method == "put_r" and a.outcome
                          and a.outcome.observed == float("inf")]
        assert closed_actions
        assert all(a.verdict is Verdict.PASS and not a.resource for a in closed_actions)


class TestReports:
    def test_text_report_contains_key_facts(self):
        _, result = run_paper_example()
        report = text_report(result)
        assert "interior_illumination" in report
        assert "paper_stand" in report
        assert "PASS" in report

    def test_summary_line(self):
        _, result = run_paper_example()
        line = summary_line(result)
        assert "10 steps" in line and "PASS" in line

    def test_json_report_parses(self):
        import json

        _, result = run_paper_example()
        payload = json.loads(json_report(result))
        assert payload["verdict"] == "pass"
        assert len(payload["steps"]) == 10
        assert payload["counts"]["fail"] == 0


class TestFullToolchainFromCsv:
    def test_csv_workbook_to_execution(self, suite, tmp_path):
        """sheets -> CSV -> reload -> compile -> XML -> run: the full paper pipeline."""
        directory = str(tmp_path / "workbook")
        save_suite(suite, directory)
        reloaded = load_suite(directory, name=suite.dut)
        script = Compiler().compile_test(reloaded, "interior_illumination")
        xml_text = script_to_string(script)
        script_again = script_from_string(xml_text)
        stand = build_paper_stand()
        harness = build_paper_harness()
        result = TestStandInterpreter(stand, harness, reloaded.signals).run(script_again)
        assert result.passed

    def test_new_sheet_authored_in_memory(self):
        """An engineer writes a fresh sheet reusing the shared vocabulary."""
        test = TestDefinition("rear_doors_by_day", signals=("NIGHT", "DS_RL", "INT_ILL"))
        test.add_step(0.5, {"NIGHT": "0", "DS_RL": "Open", "INT_ILL": "Lo"},
                      remark="rear door by day: no light")
        test.add_step(0.5, {"DS_RL": "Closed", "INT_ILL": "Lo"})
        suite = TestSuite("interior_light_ecu", paper_signal_set(), paper_status_table(), (test,))
        script = Compiler().compile_test(suite, "rear_doors_by_day")
        result = TestStandInterpreter(build_paper_stand(), build_paper_harness(),
                                      paper_signal_set()).run(script)
        assert result.passed

"""Tests for the compiler, XML generation/parsing and script validation."""

from __future__ import annotations

import io

import pytest
from hypothesis import given, strategies as st

from repro.core import (
    CompileError,
    CompileOptions,
    Compiler,
    MethodCall,
    ScriptError,
    ScriptStep,
    SignalAction,
    TestScript,
    script_from_string,
    script_to_string,
    signal_fragment,
    validate_script,
    validate_suite,
)
from repro.core.testdef import TestDefinition, TestSuite
from repro.core.xmlgen import write_script
from repro.core.xmlparse import read_script
from repro.paper import paper_signal_set, paper_status_table, paper_xml_snippet_action


class TestCompiler:
    def test_step_count_matches_sheet(self, suite, script):
        assert len(script.steps) == 10
        assert script.dut == "interior_light_ecu"

    def test_step0_contains_all_five_actions(self, script):
        step0 = script.steps[0]
        assert len(step0.actions) == 5
        assert {a.signal for a in step0.actions} == {"ign_st", "ds_fl", "ds_fr", "night", "int_ill"}

    def test_measurements_ordered_after_stimuli(self, script):
        for step in script.steps:
            kinds = ["get" if a.method.startswith("get") else "put" for a in step.actions]
            if "get" in kinds:
                first_get = kinds.index("get")
                assert all(kind == "get" for kind in kinds[first_get:])

    def test_ho_limits_are_relative_expressions(self, script):
        step4 = script.steps[4]
        int_ill = step4.actions_for("int_ill")[0]
        assert int_ill.call.param("u_min") == "(0.7*ubatt)"
        assert int_ill.call.param("u_max") == "(1.1*ubatt)"

    def test_setup_contains_stimuli_only(self, script):
        methods = {action.method for action in script.setup}
        assert "get_u" not in methods
        assert "put_can" in methods and "put_r" in methods

    def test_variables_declared(self, script):
        assert "ubatt" in script.variables

    def test_direction_check_rejects_stimulus_on_output(self, suite):
        bad = TestDefinition("bad")
        bad.add_step(0.5, {"INT_ILL": "Open"})   # put_r on an output signal
        broken = TestSuite("interior_light_ecu", paper_signal_set(), paper_status_table(), (bad,))
        with pytest.raises(CompileError):
            Compiler().compile_test(broken, "bad")

    def test_direction_check_rejects_measurement_on_input(self):
        bad = TestDefinition("bad")
        bad.add_step(0.5, {"DS_FL": "Lo"})       # get_u on an input signal
        broken = TestSuite("interior_light_ecu", paper_signal_set(), paper_status_table(), (bad,))
        with pytest.raises(CompileError):
            Compiler().compile_test(broken, "bad")

    def test_direction_check_can_be_disabled(self):
        bad = TestDefinition("bad")
        bad.add_step(0.5, {"DS_FL": "Lo"})
        broken = TestSuite("interior_light_ecu", paper_signal_set(), paper_status_table(), (bad,))
        options = CompileOptions(check_directions=False)
        script = Compiler(options=options).compile_test(broken, "bad")
        assert script.steps[0].actions[0].method == "get_u"

    def test_unknown_status_method_strictness(self):
        from repro.core.status import StatusDefinition, StatusTable

        statuses = paper_status_table()
        statuses.add(StatusDefinition.from_cells("Weird", "put_lin", "data", nominal="1"))
        test = TestDefinition("t")
        test.add_step(0.5, {"NIGHT": "Weird"})
        suite = TestSuite("interior_light_ecu", paper_signal_set(), statuses, (test,))
        with pytest.raises(CompileError):
            Compiler().compile_test(suite, "t")
        script = Compiler(options=CompileOptions(strict_statuses=False)).compile_test(suite, "t")
        assert script.steps[0].actions[0].method == "put_lin"

    def test_compile_suite_compiles_all(self, suite):
        scripts = Compiler().compile_suite(suite)
        assert len(scripts) == len(suite)

    def test_no_setup_option(self, suite):
        script = Compiler(options=CompileOptions(emit_setup=False)).compile_test(
            suite, "interior_illumination")
        assert script.setup == ()


class TestXmlRoundtrip:
    def test_roundtrip_paper_script(self, script):
        text = script_to_string(script)
        parsed = script_from_string(text)
        assert parsed == script
        assert parsed.variables == script.variables
        assert parsed.metadata == script.metadata

    def test_paper_snippet_fragment(self):
        fragment = signal_fragment(paper_xml_snippet_action())
        assert '<signal name="int_ill">' in fragment
        assert 'u_max="(1.1*ubatt)"' in fragment
        assert 'u_min="(0.7*ubatt)"' in fragment
        assert "<get_u" in fragment

    def test_write_and_read_file(self, script, tmp_path):
        path = tmp_path / "script.xml"
        write_script(script, str(path))
        assert read_script(str(path)) == script

    def test_write_to_stream(self, script):
        buffer = io.StringIO()
        write_script(script, buffer)
        assert script_from_string(buffer.getvalue()) == script

    def test_malformed_xml_raises(self):
        with pytest.raises(ScriptError):
            script_from_string("<testscript name='x' dut='y'><steps><step></steps></testscript>")

    def test_wrong_root_raises(self):
        with pytest.raises(ScriptError):
            script_from_string("<notascript/>")

    def test_signal_without_method_raises(self):
        text = ('<testscript name="t" dut="d"><steps>'
                '<step number="0" dt="1"><signal name="x"/></step></steps></testscript>')
        with pytest.raises(ScriptError):
            script_from_string(text)

    def test_missing_step_number_raises(self):
        text = ('<testscript name="t" dut="d"><steps>'
                '<step dt="1"/></steps></testscript>')
        with pytest.raises(ScriptError):
            script_from_string(text)

    @given(st.lists(
        st.tuples(
            st.sampled_from(["ds_fl", "ds_fr", "night", "int_ill"]),
            st.sampled_from(["put_r", "get_u", "put_can"]),
            st.dictionaries(st.sampled_from(["r", "u_min", "u_max", "data"]),
                            st.sampled_from(["0.5", "INF", "(0.7*ubatt)", "0001B"]),
                            max_size=3),
        ),
        min_size=0, max_size=6,
    ))
    def test_roundtrip_random_scripts(self, actions):
        steps = [ScriptStep(
            number=index,
            duration=0.5,
            actions=tuple(SignalAction(sig, MethodCall(method, params))
                          for sig, method, params in actions),
        ) for index in range(3)]
        script = TestScript("random", "some_ecu", steps)
        assert script_from_string(script_to_string(script)) == script


class TestScriptModel:
    def test_duplicate_step_numbers_rejected(self):
        """The constructor takes steps in strictly increasing order only."""
        with pytest.raises(ScriptError,
                           match="step numbers must increase: 0 after 0"):
            TestScript("t", "d", [ScriptStep(0, 1.0), ScriptStep(0, 1.0)])
        with pytest.raises(ScriptError,
                           match="step numbers must increase: 1 after 2"):
            TestScript("t", "d", [ScriptStep(0, 1.0), ScriptStep(2, 1.0),
                                  ScriptStep(1, 1.0)])

    def test_variables_cover_what_the_steps_reference(self):
        """The stand variables are the declared names plus every one the
        setup and the steps reference, whichever step references it."""
        setup = (SignalAction("ds_rl", MethodCall("put_u", {"u": "(1*uref)"})),)
        first = ScriptStep(0, 1.0, (SignalAction("ds_fl", MethodCall(
            "get_u", {"u_min": "(0.7*ubatt)", "u_max": "(1*ubatt)"})),))
        second = ScriptStep(1, 1.0, (SignalAction("ds_fr", MethodCall(
            "get_u", {"u_min": "(0.1*vref)", "u_max": "(0.2*vref)"})),))
        assert TestScript("get_u_twice", "some_ecu", [first, second]
                          ).variables == ("ubatt", "vref")
        assert TestScript("get_u_twice", "some_ecu", [first, second],
                          setup=setup, variables=("Extra",)
                          ).variables == ("extra", "ubatt", "uref", "vref")

    def test_total_duration_and_counts(self, script):
        assert script.total_duration == pytest.approx(309.0)
        assert script.action_count() == len(script.setup) + sum(
            len(step.actions) for step in script.steps)

    def test_methods_and_signals_used(self, script):
        assert set(script.methods_used()) >= {"put_r", "put_can", "get_u"}
        assert "int_ill" in script.signals_used()

    def test_method_call_params_are_readonly(self):
        call = MethodCall("get_u", {"u_min": "0"})
        with pytest.raises(TypeError):
            call.params["u_min"] = "1"  # type: ignore[index]


class TestValidation:
    def test_paper_suite_is_clean_of_errors(self, suite):
        issues = validate_suite(suite)
        assert not [issue for issue in issues if issue.is_error]

    def test_paper_script_is_clean_of_errors(self, script):
        issues = validate_script(script)
        assert not [issue for issue in issues if issue.is_error]

    def test_unknown_status_reported(self, suite):
        bad = TestDefinition("bad")
        bad.add_step(0.5, {"DS_FL": "HalfOpen"})
        broken = TestSuite("x", paper_signal_set(), paper_status_table(), (bad,))
        issues = validate_suite(broken)
        assert any("HalfOpen" in issue.message for issue in issues if issue.is_error)

    def test_direction_mismatch_reported(self):
        bad = TestDefinition("bad")
        bad.add_step(0.5, {"INT_ILL": "Open"})
        broken = TestSuite("x", paper_signal_set(), paper_status_table(), (bad,))
        issues = validate_suite(broken)
        assert any("stimulus" in issue.message for issue in issues if issue.is_error)

    def test_undeclared_variable_reported(self):
        step = ScriptStep(0, 1.0, (SignalAction("int_ill",
                                                MethodCall("get_u", {"u_min": "(0.7*usupply)",
                                                                     "u_max": "12"})),))
        script = TestScript("t", "d", [step], variables=("ubatt",))
        # usupply is referenced by the expression, therefore auto-declared by
        # TestScript itself; simulate a hand-written script with a stale header.
        script.__dict__["variables"] = ("ubatt",)
        issues = validate_script(script)
        assert any("usupply" in issue.message for issue in issues if issue.is_error)

    def test_unknown_method_is_warning_not_error(self):
        step = ScriptStep(0, 1.0, (SignalAction("x", MethodCall("put_lin", {"data": "1"})),))
        script = TestScript("t", "d", [step])
        issues = validate_script(script)
        assert issues and all(not issue.is_error for issue in issues)

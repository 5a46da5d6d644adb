"""Tests for the compiler (the one check of a sheet) and XML generation/parsing."""

from __future__ import annotations

import io

import pytest
from hypothesis import given, strategies as st

from repro.core import (
    CompileError,
    Compiler,
    MethodCall,
    ScriptError,
    ScriptStep,
    SignalAction,
    TestScript,
    script_from_string,
    script_to_string,
    signal_fragment,
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

    def test_setup_block_sets_each_input_to_its_initial_status(self, suite, script):
        """The setup block is always emitted: one stimulus per input signal,
        in sheet order, calling its initial status's method."""
        inputs = [signal for signal in suite.signals if signal.is_input]
        assert [action.signal for action in script.setup] == [
            signal.key for signal in inputs]
        assert [action.method for action in script.setup] == [
            suite.statuses.get(signal.initial_status).method for signal in inputs]
        assert script.setup[1].call == MethodCall(
            "put_r", {"r": "INF", "r_min": "5000", "r_max": "INF"})

    def test_direction_check_rejects_stimulus_on_output(self, suite):
        bad = TestDefinition("bad")
        bad.add_step(0.5, {"INT_ILL": "Open"})   # put_r on an output signal
        broken = TestSuite("interior_light_ecu", paper_signal_set(), paper_status_table(), (bad,))
        with pytest.raises(CompileError,
                           match="stimulus method 'put_r' applied to DUT output 'INT_ILL'"):
            Compiler().compile_test(broken, "bad")

    def test_direction_check_rejects_measurement_on_input(self):
        bad = TestDefinition("bad")
        bad.add_step(0.5, {"DS_FL": "Lo"})       # get_u on an input signal
        broken = TestSuite("interior_light_ecu", paper_signal_set(), paper_status_table(), (bad,))
        with pytest.raises(CompileError):
            Compiler().compile_test(broken, "bad")

    def test_undefined_initial_status_is_refused(self, suite):
        """The signal sheet's initial statuses become the setup block, so
        one the status table does not define is refused at compile time."""
        from repro._record import replace
        from repro.core import DefinitionError, SignalSet

        signals = SignalSet(tuple(
            replace(signal, initial_status="HalfOpen")
            if signal.key == "ds_fl" else signal
            for signal in suite.signals
        ), dut=suite.signals.dut)
        broken = TestSuite(suite.dut, signals, suite.statuses, tuple(suite))
        with pytest.raises(DefinitionError, match="'HalfOpen' is not defined"):
            Compiler().compile_suite(broken)

    @pytest.mark.parametrize("signal, status, message", [
        ("DS_FL", "HalfOpen", "references unknown status 'HalfOpen'"),
        ("NO_SUCH", "Open", "references unknown signal 'NO_SUCH'"),
    ], ids=("status", "signal"))
    def test_unknown_name_in_a_step_is_refused(self, signal, status, message):
        """A step naming a status or signal the sheets do not define is
        refused at compile time, naming the test and the step."""
        from repro.core import DefinitionError

        bad = TestDefinition("bad")
        bad.add_step(0.5, {signal: status})
        broken = TestSuite("interior_light_ecu", paper_signal_set(), paper_status_table(), (bad,))
        with pytest.raises(DefinitionError, match=f"test 'bad' step 0 {message}"):
            Compiler().compile_test(broken, "bad")

    def test_unknown_status_method_strictness(self):
        """A status whose method the registry does not know is refused; a
        stand that brings the method registers it in the registry it
        passes to the compiler."""
        from repro._record import replace
        from repro.core.status import StatusDefinition
        from repro.methods import PUT_CAN, default_registry

        statuses = paper_status_table()
        statuses.add(StatusDefinition.from_cells("Weird", "put_lin", "data", nominal="1"))
        test = TestDefinition("t")
        test.add_step(0.5, {"NIGHT": "Weird"})
        suite = TestSuite("interior_light_ecu", paper_signal_set(), statuses, (test,))
        with pytest.raises(CompileError, match="unknown method 'put_lin'"):
            Compiler().compile_test(suite, "t")
        registry = default_registry().copy()
        registry.register(replace(PUT_CAN, name="put_lin"))
        script = Compiler(registry).compile_test(suite, "t")
        assert script.steps[0].actions[0].call == MethodCall("put_lin", {"data": "1"})

    def test_compile_suite_compiles_all(self, suite):
        scripts = Compiler().compile_suite(suite)
        assert len(scripts) == len(suite)


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

    def test_reader_keeps_a_parameter_no_method_takes(self, script):
        """The reader is liberal and loss-free: a misspelled bound is read
        as written (``run_single`` checks parameters, not the reader)."""
        bounds = 'u_min="(0*ubatt)" u_max="(0.3*ubatt)"'
        text = script_to_string(script)
        assert bounds in text
        misspelled = text.replace(bounds, 'u_mn="(8*ubatt)" u_mx="(9*ubatt)"', 1)
        parsed = script_from_string(misspelled)
        assert parsed.steps[0].actions_for("int_ill")[0].call == MethodCall(
            "get_u", {"u_mn": "(8*ubatt)", "u_mx": "(9*ubatt)"})
        assert script_to_string(parsed) == misspelled

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

    def test_negative_step_number_or_duration_rejected(self):
        """A step cannot carry a negative number or duration, whether built
        or read from XML."""
        with pytest.raises(ScriptError, match="step number must be >= 0, got -1"):
            ScriptStep(-1, 1.0)
        with pytest.raises(ScriptError, match="step duration must be >= 0, got -0.5"):
            ScriptStep(0, -0.5)
        with pytest.raises(ScriptError, match="step duration must be >= 0"):
            script_from_string('<testscript name="t" dut="d"><steps>'
                               '<step number="0" dt="-0.5"/></steps></testscript>')

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


"""Tests for the method vocabulary and parameter construction."""

from __future__ import annotations

import copy
import pickle

import pytest

from repro.core.errors import ExpressionError, MethodError
from repro.core.script import MethodCall
from repro.core.status import StatusDefinition
from repro.core.values import Interval, LimitExpression
from repro.methods import (
    GET_U,
    PUT_CAN,
    PUT_R,
    MethodKind,
    MethodOutcome,
    MethodRegistry,
    MethodSpec,
    ParameterRole,
    ParameterSpec,
    default_registry,
    evaluate_call_parameter,
    limits_for_call,
)


class TestMethodSpec:
    def test_kinds(self):
        assert PUT_R.is_stimulus and not PUT_R.is_measurement
        assert GET_U.is_measurement and not GET_U.is_stimulus

    def test_parameter_lookup(self):
        assert GET_U.parameter("U_MIN").role is ParameterRole.MINIMUM
        with pytest.raises(MethodError):
            GET_U.parameter("r")

    def test_validate_params_ok(self):
        GET_U.validate_params({"u_min": "0", "u_max": "1"})

    def test_validate_params_unknown(self):
        with pytest.raises(MethodError):
            GET_U.validate_params({"u_min": "0", "u_max": "1", "volume": "11"})

    def test_validate_params_missing_required(self):
        with pytest.raises(MethodError):
            GET_U.validate_params({"u_min": "0"})

    def test_empty_name_rejected(self):
        with pytest.raises(MethodError):
            MethodSpec("", MethodKind.STIMULUS, "x")


class TestParamsFromStatus:
    def test_get_u_relative(self):
        status = StatusDefinition.from_cells("Ho", "get_u", "u", "UBATT", "1", "0,7", "1,1")
        params = GET_U.params_from_status(status)
        assert params == {"u_min": "(0.7*ubatt)", "u_max": "(1.1*ubatt)"}

    def test_get_u_absolute(self):
        status = StatusDefinition.from_cells("Mid", "get_u", "u", "", "6", "5", "7")
        params = GET_U.params_from_status(status)
        assert params == {"u_min": "5", "u_max": "7"}

    def test_put_r_with_acceptance(self):
        status = StatusDefinition.from_cells("Open", "put_r", "r", "", "0,5", "0", "2")
        params = PUT_R.params_from_status(status)
        assert params["r"] == "0.5"
        assert params["r_min"] == "0" and params["r_max"] == "2"

    def test_put_r_inf(self):
        status = StatusDefinition.from_cells("Closed", "put_r", "r", "", "INF", "5000", "INF")
        params = PUT_R.params_from_status(status)
        assert params["r"] == "INF"
        assert params["r_min"] == "5000"

    def test_put_can_payload(self):
        status = StatusDefinition.from_cells("Off", "put_can", "data", nominal="0001B")
        assert PUT_CAN.params_from_status(status) == {"data": "0001B"}

    def test_missing_required_value_raises(self):
        status = StatusDefinition.from_cells("Broken", "get_u", "u", "UBATT", None, None, "1,1")
        with pytest.raises(MethodError):
            GET_U.params_from_status(status)


class TestRegistry:
    def test_default_contents(self):
        registry = default_registry()
        for name in ("put_r", "put_u", "get_u", "get_r", "get_i", "put_can", "get_can", "wait"):
            assert name in registry

    def test_case_insensitive_lookup(self):
        assert default_registry().get("GET_U").name == "get_u"

    def test_duplicate_registration_rejected(self):
        registry = default_registry()
        with pytest.raises(MethodError):
            registry.register(GET_U)

    def test_replace_allowed(self):
        registry = default_registry()
        registry.register(GET_U, replace=True)
        assert registry.get("get_u") is GET_U

    def test_unknown_method_raises(self):
        with pytest.raises(MethodError):
            default_registry().get("put_quantum")

    def test_stimuli_and_measurements_partition(self):
        registry = default_registry()
        stimuli = {m.name for m in registry.stimuli()}
        measurements = {m.name for m in registry.measurements()}
        assert "put_r" in stimuli and "get_u" in measurements
        assert not stimuli & measurements

    def test_copy_is_independent(self):
        registry = default_registry()
        copy = registry.copy()
        copy.register(MethodSpec("put_lin", MethodKind.STIMULUS, "data"))
        assert "put_lin" in copy and "put_lin" not in registry


class TestParameterHelpers:
    def test_evaluate_call_parameter_number(self):
        assert evaluate_call_parameter(MethodCall("put_r", {"r": "0,5"}), "r") == 0.5

    def test_evaluate_call_parameter_expression(self):
        call = MethodCall("get_u", {"u_min": "(0.7*ubatt)"})
        assert evaluate_call_parameter(call, "u_min", {"ubatt": 10}) == pytest.approx(7)

    def test_evaluate_call_parameter_missing_returns_default(self):
        call = MethodCall("put_r")
        assert evaluate_call_parameter(call, "r", default=3.0) == 3.0
        assert evaluate_call_parameter(call, "r") is None

    def test_evaluate_call_parameter_case_insensitive(self):
        assert evaluate_call_parameter(MethodCall("get_r", {"R_MAX": "10"}), "r_max") == 10

    def test_limits_for_call(self):
        call = MethodCall("get_u", {"u_min": "(0.7*ubatt)", "u_max": "(1.1*ubatt)"})
        limits = limits_for_call(call, "u", {"ubatt": 12})
        assert limits.low == pytest.approx(8.4)
        assert limits.high == pytest.approx(13.2)

    def test_limits_one_sided(self):
        limits = limits_for_call(MethodCall("get_r", {"r_min": "5000"}), "r")
        assert limits.low == 5000 and limits.high == float("inf")

    def test_limits_swapped_bounds_normalised(self):
        limits = limits_for_call(MethodCall("get_u", {"u_min": "10", "u_max": "5"}), "u")
        assert limits.low == 5 and limits.high == 10


class TestCallReadsItsParameters:
    """A call reads each parameter once, into one table of its own."""

    def test_one_reading_per_name_first_spelling_wins(self):
        call = MethodCall("get_u", {"U_MIN": " 0,5 ", "u_min": "9",
                                    "u_max": "(1.1*ubatt)", "note": ""})
        assert call.param("u_min") == " 0,5 "
        assert call.parsed("U_Min") == 0.5
        assert isinstance(call.parsed("u_max"), LimitExpression)
        assert call.parsed("note") is None and call.param("note") == ""
        assert call.parsed("absent") is None
        assert call.param("absent", "x") == "x"
        assert call.key == "get_u" and MethodCall("GET_U").key == "get_u"

    def test_unreadable_parameter_raises_afresh_and_stores_no_exception(self):
        call = MethodCall("get_can", {"data": "0110B"})
        raised = []
        for _ in range(2):
            with pytest.raises(ExpressionError) as info:
                call.parsed("data")
            raised.append(info.value)
        assert raised[0] is not raised[1]
        assert str(raised[0]) == str(raised[1])
        with pytest.raises(ExpressionError) as info:
            evaluate_call_parameter(call, "data")
        assert str(info.value) == str(raised[0])
        assert call.param("data") == "0110B"
        readings = [reading for _, reading in vars(call)["_table"].values()]
        assert readings == [str(raised[0])]

    def test_table_never_leaves_its_call(self):
        """Pickles and copies carry the method and parameters only."""
        params = {"u_min": "(0.7*ubatt)", "u_max": "0110B"}
        call, fresh = MethodCall("get_u", params), MethodCall("get_u", params)
        call.param("u_min")
        assert "_table" in vars(call)
        assert pickle.dumps(call) == pickle.dumps(fresh)
        for clone, twin in ((copy.deepcopy(call), copy.deepcopy(fresh)),
                            (pickle.loads(pickle.dumps(call)), fresh)):
            assert clone == call
            assert vars(clone) == vars(twin)


class TestMethodOutcome:
    def test_bool_and_describe(self):
        ok = MethodOutcome("get_u", True, observed=11.9, limits=Interval(8.4, 13.2), unit="V")
        bad = MethodOutcome("get_u", False, observed=0.1)
        assert ok and not bad
        assert "PASS" in ok.describe() and "FAIL" in bad.describe()
        assert "11.9" in ok.describe()

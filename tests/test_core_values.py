"""Tests for repro.core.values: numbers, intervals, limit expressions."""

from __future__ import annotations

import gc
import math
import sys
import threading

import pytest
from hypothesis import given, strategies as st

from repro.core.errors import ExpressionError, ValueError_
from repro.core.script import MethodCall
from repro.core.values import (
    INFINITY,
    Interval,
    LimitExpression,
    Quantity,
    compile_expression,
    format_binary,
    format_number,
    parse_binary,
    parse_number,
    parse_parameter,
)


class TestParseNumber:
    def test_plain_integer(self):
        assert parse_number("42") == 42.0

    def test_decimal_point(self):
        assert parse_number("0.5") == 0.5

    def test_decimal_comma(self):
        assert parse_number("0,5") == 0.5

    def test_scientific_notation(self):
        assert parse_number("1,00E+06") == 1.0e6

    def test_negative(self):
        assert parse_number("-3,2") == -3.2

    def test_inf_token(self):
        assert parse_number("INF") == INFINITY
        assert parse_number("inf") == INFINITY

    def test_negative_inf(self):
        assert parse_number("-INF") == -INFINITY

    def test_float_passthrough(self):
        assert parse_number(1.25) == 1.25

    def test_empty_with_allow(self):
        assert parse_number("", allow_empty=True) is None
        assert parse_number(None, allow_empty=True) is None

    def test_empty_without_allow_raises(self):
        with pytest.raises(ValueError_):
            parse_number("")

    def test_garbage_raises(self):
        with pytest.raises(ValueError_):
            parse_number("0001B")

    def test_two_commas_rejected(self):
        with pytest.raises(ValueError_):
            parse_number("1,2,3")


class TestFormatNumber:
    def test_integer_drops_decimal(self):
        assert format_number(5.0) == "5"

    def test_fraction_kept(self):
        assert format_number(0.5) == "0.5"

    def test_decimal_comma(self):
        assert format_number(0.5, decimal_comma=True) == "0,5"

    def test_infinity(self):
        assert format_number(math.inf) == "INF"
        assert format_number(-math.inf) == "-INF"

    def test_none_is_empty(self):
        assert format_number(None) == ""

    @given(st.floats(allow_nan=False, allow_infinity=False, width=32))
    def test_roundtrip(self, value):
        assert parse_number(format_number(float(value))) == pytest.approx(float(value), rel=1e-6, abs=1e-6)

    @given(st.floats(allow_nan=False, allow_infinity=False, width=32))
    def test_roundtrip_decimal_comma(self, value):
        text = format_number(float(value), decimal_comma=True)
        assert parse_number(text) == pytest.approx(float(value), rel=1e-6, abs=1e-6)


class TestBinary:
    def test_paper_literal(self):
        assert parse_binary("0001B") == 1

    def test_binary_multi_bit(self):
        assert parse_binary("1010B") == 10

    def test_hex(self):
        assert parse_binary("1AH") == 26

    def test_decimal(self):
        assert parse_binary("7") == 7

    def test_format_padding(self):
        assert format_binary(1) == "0001B"
        assert format_binary(10) == "1010B"

    def test_negative_rejected(self):
        with pytest.raises(ValueError_):
            format_binary(-1)

    def test_garbage_rejected(self):
        with pytest.raises(ValueError_):
            parse_binary("xyz")

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_roundtrip(self, value):
        assert parse_binary(format_binary(value)) == value


class TestQuantity:
    def test_str_with_unit(self):
        assert str(Quantity(5, "V")) == "5 V"

    def test_float_conversion(self):
        assert float(Quantity(3.3, "V")) == 3.3

    def test_with_value_keeps_unit(self):
        assert Quantity(1, "Ohm").with_value(2).unit == "Ohm"

    def test_compatibility(self):
        assert Quantity(1, "V").compatible_with(Quantity(2, "V"))
        assert Quantity(1, "V").compatible_with(Quantity(2, ""))
        assert not Quantity(1, "V").compatible_with(Quantity(2, "A"))


class TestInterval:
    def test_contains(self):
        assert Interval(0, 1).contains(0.5)
        assert Interval(0, 1).contains(0)
        assert Interval(0, 1).contains(1)
        assert not Interval(0, 1).contains(1.01)

    def test_contains_with_tolerance(self):
        assert Interval(0, 1).contains(1.05, tolerance=0.1)

    def test_inverted_bounds_rejected(self):
        with pytest.raises(ValueError_):
            Interval(2, 1)

    def test_scaled(self):
        scaled = Interval(0.7, 1.1).scaled(12.0)
        assert scaled.low == pytest.approx(8.4)
        assert scaled.high == pytest.approx(13.2)

    def test_scaled_negative_factor_swaps(self):
        scaled = Interval(1, 2).scaled(-1)
        assert scaled.low == -2 and scaled.high == -1

    def test_widened(self):
        widened = Interval(0, 1).widened(0.5)
        assert widened.low == -0.5 and widened.high == 1.5

    def test_intersects(self):
        assert Interval(0, 2).intersects(Interval(1, 3))
        assert not Interval(0, 1).intersects(Interval(2, 3))

    def test_clamp(self):
        assert Interval(0, 1).clamp(5) == 1
        assert Interval(0, 1).clamp(-5) == 0
        assert Interval(0, 1).clamp(0.5) == 0.5

    def test_midpoint_and_width(self):
        assert Interval(2, 4).midpoint == 3
        assert Interval(2, 4).width == 2

    @given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
    def test_clamped_value_always_inside(self, a, b, x):
        low, high = min(a, b), max(a, b)
        interval = Interval(low, high)
        assert interval.contains(interval.clamp(x))

    @given(st.floats(0, 1e3), st.floats(1e3, 1e6), st.floats(0.1, 100))
    def test_scaling_preserves_containment(self, low, high, factor):
        interval = Interval(low, high)
        mid = interval.midpoint
        assert interval.scaled(factor).contains(mid * factor, tolerance=1e-6 * factor)


class TestLimitExpression:
    def test_paper_form(self):
        expr = LimitExpression("(0.7*ubatt)")
        assert expr.variables == frozenset({"ubatt"})
        assert expr.evaluate({"ubatt": 12.0}) == pytest.approx(8.4)

    def test_case_insensitive_variables(self):
        assert LimitExpression("(0.7*UBATT)").evaluate({"ubatt": 10}) == pytest.approx(7.0)

    def test_constant(self):
        expr = LimitExpression("5000")
        assert expr.is_constant
        assert expr.evaluate() == 5000

    def test_decimal_comma_inside_expression(self):
        assert LimitExpression("(0,7*ubatt)").evaluate({"ubatt": 10}) == pytest.approx(7.0)

    def test_arithmetic(self):
        assert LimitExpression("(1+2)*3").evaluate() == 9
        assert LimitExpression("10/4").evaluate() == 2.5
        assert LimitExpression("-ubatt").evaluate({"ubatt": 5}) == -5

    def test_relative_constructor(self):
        assert LimitExpression.relative(0.7, "UBATT").text == "(0.7*ubatt)"

    def test_relative_constructor_parses_once(self):
        assert LimitExpression.relative(0.7, "UBATT") is \
            compile_expression("(0.7*ubatt)")

    def test_failed_parse_is_remembered_and_raised_afresh(self, monkeypatch):
        """A payload literal is not an expression: it is parsed once, and
        every attempt raises a new error carrying the remembered message."""
        import ast

        parses = []
        real_parse = ast.parse
        monkeypatch.setattr(ast, "parse",
                            lambda *a, **k: parses.append(a) or real_parse(*a, **k))
        raised = []
        for _ in range(2):
            parses.clear()
            with pytest.raises(ExpressionError, match="0110B") as info:
                compile_expression("0110B")
            raised.append(info.value)
        assert parses == []  # the second attempt parsed nothing
        assert raised[0] is not raised[1]
        assert str(raised[0]) == str(raised[1])

    def test_constant_constructor(self):
        assert LimitExpression.constant(5.0).text == "5"

    def test_parse_parameter_reads_blank_number_or_expression(self):
        assert parse_parameter("") is None and parse_parameter("  ") is None
        assert parse_parameter(" 0,5 ") == 0.5
        assert parse_parameter("INF") == math.inf
        expression = parse_parameter("(0.7*ubatt)")
        assert expression.variables == frozenset({"ubatt"})
        assert parse_parameter("(0.7*ubatt)") is expression
        with pytest.raises(ExpressionError, match="0110B"):
            parse_parameter("0110B")

    def test_parse_parameter_too_deeply_nested_is_unreadable(self):
        """Nesting deeper than the parser can walk reads as no expression,
        not as a ``RecursionError`` out of every reader of the text."""
        text = "-" * 5000 + "1"
        with pytest.raises(ExpressionError):
            parse_parameter(text)
        assert MethodCall("get_u", {"u_min": text}).variables() == frozenset()

    def test_inf_token(self):
        assert LimitExpression("INF").evaluate() == math.inf

    def test_missing_variable_raises(self):
        with pytest.raises(ExpressionError):
            LimitExpression("(0.7*ubatt)").evaluate({})

    def test_division_by_zero_raises(self):
        with pytest.raises(ExpressionError):
            LimitExpression("1/0").evaluate()

    def test_function_calls_rejected(self):
        with pytest.raises(ExpressionError):
            LimitExpression("__import__('os')")

    def test_attribute_access_rejected(self):
        with pytest.raises(ExpressionError):
            LimitExpression("ubatt.real")

    def test_comparison_rejected(self):
        with pytest.raises(ExpressionError):
            LimitExpression("1 < 2")

    def test_empty_rejected(self):
        with pytest.raises(ExpressionError):
            LimitExpression("  ")

    def test_equality_and_hash(self):
        assert LimitExpression("(0.7*ubatt)") == LimitExpression("(0.7*ubatt)")
        assert hash(LimitExpression("5")) == hash(LimitExpression("5"))

    @given(st.floats(0.01, 10), st.floats(0.1, 100))
    def test_relative_evaluates_to_product(self, factor, ubatt):
        expr = LimitExpression.relative(factor, "ubatt")
        expected = parse_number(format_number(factor)) * ubatt
        assert expr.evaluate({"ubatt": ubatt}) == pytest.approx(expected, rel=1e-9)


class _CyclicGarbage:
    """A reference cycle with a finaliser that runs Python bytecode."""

    def __init__(self) -> None:
        self.me = self

    def __del__(self) -> None:
        sum(range(20))


class TestLimitExpressionThreads:
    def test_concurrent_parses_survive_gc_finalisers(self):
        """Threads building expressions while the collector runs Python
        finalisers must all succeed.  A GC pass can start inside one
        thread's parse and switch to another thread from a finaliser;
        without a lock around the parse, the interpreter-wide AST depth
        counter of CPython 3.11 then raises ``SystemError``."""
        errors: list[BaseException] = []

        def build(worker: int) -> None:
            try:
                for i in range(500):
                    _CyclicGarbage()
                    LimitExpression(f"({worker}+{i}*ubatt-(1/{i + 1}))*2")
            except BaseException as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)

        threshold = gc.get_threshold()
        interval = sys.getswitchinterval()
        gc.set_threshold(50, 5, 5)
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build, args=(worker,))
                       for worker in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            gc.set_threshold(*threshold)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []

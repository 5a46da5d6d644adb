"""Physical values, tolerance intervals and limit expressions.

The paper's status table mixes several kinds of "values":

* plain numbers written with either a decimal point or a decimal comma
  (``0,5`` in the paper's German locale means ``0.5``),
* the special value ``INF`` (an open contact / infinite resistance),
* binary CAN payloads such as ``0001B``,
* limits that are *relative to a variable*, e.g. the status ``Ho`` is valid
  if the measured voltage lies between ``0.7*UBATT`` and ``1.1*UBATT``.

This module provides the small value algebra the rest of the toolchain is
built on:

``parse_number``
    tolerant numeric parser (decimal comma, ``INF``, empty cells).
``Quantity``
    a number together with a unit string.
``Interval``
    a closed tolerance interval with containment and scaling.
``LimitExpression``
    a tiny, safe arithmetic expression over named variables, used both for
    the XML representation (``(0.7*ubatt)``) and for evaluation on the test
    stand where the concrete ``UBATT`` is known.
"""

from __future__ import annotations

import ast
import functools
import math
import operator
import os
import re
import threading
from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import ExpressionError, ValueError_

__all__ = [
    "INFINITY",
    "parse_number",
    "format_number",
    "parse_binary",
    "format_binary",
    "Quantity",
    "Interval",
    "LimitExpression",
    "compile_expression",
]

#: Canonical representation of an unbounded value (e.g. an open contact).
INFINITY = math.inf

_INF_TOKENS = {"INF", "INFINITY", "OO", "∞"}

_NUMBER_RE = re.compile(r"^[+-]?(\d+([.,]\d*)?|[.,]\d+)([eE][+-]?\d+)?$")


def parse_number(text: str | float | int | None, *, allow_empty: bool = False) -> float | None:
    """Parse a numeric cell the way the paper's sheets write numbers.

    Accepts decimal commas (``0,5``), decimal points, scientific notation
    (``1,00E+06``), the ``INF`` token and - when *allow_empty* is true -
    empty cells (returned as ``None``).

    Raises :class:`~repro.core.errors.ValueError_` for anything else.
    """
    if text is None:
        if allow_empty:
            return None
        raise ValueError_("empty cell where a number was required")
    if isinstance(text, (int, float)):
        return float(text)
    stripped = str(text).strip()
    if not stripped:
        if allow_empty:
            return None
        raise ValueError_("empty cell where a number was required")
    if stripped.upper() in _INF_TOKENS:
        return INFINITY
    if stripped.upper() in {"-INF", "-INFINITY"}:
        return -INFINITY
    if not _NUMBER_RE.match(stripped):
        raise ValueError_(f"cannot parse number: {stripped!r}")
    normalised = stripped.replace(",", ".")
    try:
        return float(normalised)
    except ValueError as exc:  # pragma: no cover - regex should prevent this
        raise ValueError_(f"cannot parse number: {stripped!r}") from exc


def format_number(value: float | None, *, decimal_comma: bool = False) -> str:
    """Format a number the way the paper's sheets print them.

    Integers lose their trailing ``.0``, infinity becomes ``INF`` and - when
    *decimal_comma* is requested - the decimal separator is a comma, matching
    the paper's tables.
    """
    if value is None:
        return ""
    if math.isinf(value):
        return "INF" if value > 0 else "-INF"
    if float(value).is_integer() and abs(value) < 1e15:
        text = str(int(value))
    else:
        text = repr(float(value))
    if decimal_comma:
        text = text.replace(".", ",")
    return text


_BINARY_RE = re.compile(r"^([01]+)B$", re.IGNORECASE)
_HEX_RE = re.compile(r"^([0-9a-fA-F]+)H$")


def parse_binary(text: str) -> int:
    """Parse a CAN payload literal such as ``0001B`` (binary) or ``1AH`` (hex).

    Plain decimal integers are accepted as well so that status tables may
    simply write ``3``.
    """
    stripped = str(text).strip()
    if not stripped:
        raise ValueError_("empty CAN payload literal")
    match = _BINARY_RE.match(stripped)
    if match:
        return int(match.group(1), 2)
    match = _HEX_RE.match(stripped)
    if match:
        return int(match.group(1), 16)
    if stripped.isdigit() or (stripped[0] in "+-" and stripped[1:].isdigit()):
        return int(stripped)
    raise ValueError_(f"cannot parse CAN payload literal: {text!r}")


def format_binary(value: int, *, width: int = 4) -> str:
    """Format an integer as the paper's binary payload literal (``0001B``)."""
    if value < 0:
        raise ValueError_("CAN payload literals must be non-negative")
    bits = format(value, "b")
    if len(bits) < width:
        bits = bits.zfill(width)
    return bits + "B"


@dataclass(frozen=True)
class Quantity:
    """A physical quantity: a magnitude plus a unit string.

    Units are not converted automatically (the tool chain always works in
    SI-ish base units: volts, ohms, amperes, seconds); the unit is carried
    for documentation, reports and range checking of resources.
    """

    value: float
    unit: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", float(self.value))

    def __str__(self) -> str:
        if self.unit:
            return f"{format_number(self.value)} {self.unit}"
        return format_number(self.value)

    def __float__(self) -> float:
        return self.value

    def with_value(self, value: float) -> "Quantity":
        """Return a copy carrying the same unit but a different magnitude."""
        return Quantity(value, self.unit)

    def compatible_with(self, other: "Quantity") -> bool:
        """True when both quantities share a unit (or one has none)."""
        return self.unit == other.unit or not self.unit or not other.unit


@dataclass(frozen=True)
class Interval:
    """A closed interval ``[low, high]`` used for tolerance checks.

    Intervals are the backbone of expectation checking: a ``get_u`` status
    passes when the measured voltage lies inside the interval obtained by
    scaling the status' min/max factors with the stand's supply voltage.

    Edge semantics are part of the contract and the static analyzer's
    E-EMPTY-INTERVAL rule depends on them being well-defined:

    * the interval is *closed*: ``contains(low)`` and ``contains(high)``
      are both true, and two intervals sharing only a boundary point
      ``intersects`` each other;
    * empty intervals cannot be constructed - ``low > high`` raises
      :class:`~repro.core.errors.ValueError_` at construction (callers
      that want normalisation swap the bounds first, as
      :func:`repro.methods.base.limits_from_params` does), so an interval
      that silently never matches anything does not exist;
    * NaN bounds are rejected for the same reason: ``NaN`` compares false
      against everything, so a NaN bound would slip past the ``low >
      high`` check yet make ``contains`` unsatisfiable;
    * a negative ``tolerance`` passed to :meth:`contains` narrows instead
      of widening and may legitimately produce a never-matching check -
      that is the caller's explicit request, not a construction artefact.
    """

    low: float
    high: float

    def __post_init__(self) -> None:
        low = float(self.low)
        high = float(self.high)
        if math.isnan(low) or math.isnan(high):
            raise ValueError_(
                f"interval bounds must not be NaN, got [{low}, {high}]"
            )
        if low > high:
            raise ValueError_(f"interval low {low} exceeds high {high}")
        object.__setattr__(self, "low", low)
        object.__setattr__(self, "high", high)

    def contains(self, value: float, *, tolerance: float = 0.0) -> bool:
        """Whether *value* lies inside the interval (optionally widened).

        Boundary values are inside (closed interval); *tolerance* widens
        both edges before the check.
        """
        return (self.low - tolerance) <= value <= (self.high + tolerance)

    def scaled(self, factor: float) -> "Interval":
        """Scale both bounds by *factor* (used for UBATT-relative limits)."""
        lo = self.low * factor
        hi = self.high * factor
        if lo > hi:
            lo, hi = hi, lo
        return Interval(lo, hi)

    def widened(self, margin: float) -> "Interval":
        """Return an interval widened by *margin* on both sides."""
        return Interval(self.low - margin, self.high + margin)

    def intersects(self, other: "Interval") -> bool:
        """Whether the two intervals overlap.

        Closed-interval semantics: touching at a single boundary point
        (``self.high == other.low``) counts as overlapping.  Because empty
        intervals cannot be constructed, ``intersects`` never returns a
        vacuous ``False`` for an interval that could match nothing.
        """
        return self.low <= other.high and other.low <= self.high

    def clamp(self, value: float) -> float:
        """Clamp *value* into the interval."""
        return min(max(value, self.low), self.high)

    @property
    def width(self) -> float:
        """Interval width (``high - low``)."""
        return self.high - self.low

    @property
    def midpoint(self) -> float:
        """Interval midpoint, useful for nominal stimulus selection."""
        if math.isinf(self.low) or math.isinf(self.high):
            return self.low if math.isinf(self.high) else self.high
        return (self.low + self.high) / 2.0

    def __str__(self) -> str:
        return f"[{format_number(self.low)}, {format_number(self.high)}]"


# --------------------------------------------------------------------------
# Limit expressions
# --------------------------------------------------------------------------

_ALLOWED_BINOPS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
}

_ALLOWED_UNARYOPS = {
    ast.UAdd: operator.pos,
    ast.USub: operator.neg,
}

_IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")

#: Serialises ``ast.parse``.  CPython 3.11 keeps the AST constructor's
#: recursion-depth counter per interpreter, not per thread: a GC pass inside
#: one thread's parse can run a Python finaliser that switches to another
#: parsing thread, and the counter check then raises ``SystemError``.
_PARSE_LOCK = threading.Lock()


def _reset_parse_lock() -> None:
    # A process-pool worker forked while another thread held the lock would
    # inherit it held, with no thread left to release it.
    global _PARSE_LOCK
    _PARSE_LOCK = threading.Lock()


os.register_at_fork(after_in_child=_reset_parse_lock)


class LimitExpression:
    """A tiny, safe arithmetic expression over named variables.

    The paper's XML represents limits such as ``(0.7*ubatt)`` textually and
    leaves the evaluation to the test stand, which knows the actual supply
    voltage.  ``LimitExpression`` mirrors that: the expression keeps its
    textual form (so generated XML matches the paper byte for byte) and can
    be evaluated against a variable mapping.

    Only numbers, identifiers, ``+ - * /``, unary signs and parentheses are
    accepted; anything else raises :class:`ExpressionError`.
    """

    __slots__ = ("_text", "_tree", "_variables")

    def __init__(self, text: str | float | int):
        if isinstance(text, (int, float)):
            text = format_number(float(text))
        self._text = str(text).strip()
        if not self._text:
            raise ExpressionError("empty limit expression")
        source = self._normalise(self._text)
        try:
            with _PARSE_LOCK:
                tree = ast.parse(source, mode="eval")
        except SyntaxError as exc:
            raise ExpressionError(f"malformed expression: {self._text!r}") from exc
        self._validate(tree.body)
        self._tree = tree.body
        self._variables = frozenset(self._collect_variables(tree.body))

    @staticmethod
    def _normalise(text: str) -> str:
        stripped = text.strip()
        # The sheets may use decimal commas; only replace commas that sit
        # between digits so argument-separating commas stay illegal.
        stripped = re.sub(r"(?<=\d),(?=\d)", ".", stripped)
        if stripped.upper() in _INF_TOKENS:
            return "inf"
        return stripped

    @classmethod
    def _validate(cls, node: ast.AST) -> None:
        if isinstance(node, ast.Expression):
            cls._validate(node.body)
        elif isinstance(node, ast.BinOp):
            if type(node.op) not in _ALLOWED_BINOPS:
                raise ExpressionError(f"operator {type(node.op).__name__} not allowed")
            cls._validate(node.left)
            cls._validate(node.right)
        elif isinstance(node, ast.UnaryOp):
            if type(node.op) not in _ALLOWED_UNARYOPS:
                raise ExpressionError(f"operator {type(node.op).__name__} not allowed")
            cls._validate(node.operand)
        elif isinstance(node, ast.Num):  # pragma: no cover - legacy node type
            pass
        elif isinstance(node, ast.Constant):
            if not isinstance(node.value, (int, float)):
                raise ExpressionError(f"constant {node.value!r} not allowed")
        elif isinstance(node, ast.Name):
            if not _IDENT_RE.match(node.id):
                raise ExpressionError(f"identifier {node.id!r} not allowed")
        else:
            raise ExpressionError(f"construct {type(node).__name__} not allowed in expression")

    @classmethod
    def _collect_variables(cls, node: ast.AST) -> Iterable[str]:
        if isinstance(node, ast.BinOp):
            yield from cls._collect_variables(node.left)
            yield from cls._collect_variables(node.right)
        elif isinstance(node, ast.UnaryOp):
            yield from cls._collect_variables(node.operand)
        elif isinstance(node, ast.Name):
            if node.id.lower() != "inf":
                yield node.id.lower()

    # -- public API ---------------------------------------------------------

    @property
    def text(self) -> str:
        """The original textual form (as written in the sheet or XML)."""
        return self._text

    @property
    def variables(self) -> frozenset[str]:
        """Lower-cased names of all variables referenced by the expression."""
        return self._variables

    @property
    def is_constant(self) -> bool:
        """True when the expression references no variables."""
        return not self._variables

    def evaluate(self, variables: Mapping[str, float] | None = None) -> float:
        """Evaluate the expression against a case-insensitive variable map."""
        lowered = {str(k).lower(): float(v) for k, v in (variables or {}).items()}
        missing = self._variables - set(lowered)
        if missing:
            raise ExpressionError(
                f"expression {self._text!r} needs variables {sorted(missing)}"
            )
        return self._eval(self._tree, lowered)

    @classmethod
    def _eval(cls, node: ast.AST, variables: Mapping[str, float]) -> float:
        if isinstance(node, ast.BinOp):
            left = cls._eval(node.left, variables)
            right = cls._eval(node.right, variables)
            try:
                return _ALLOWED_BINOPS[type(node.op)](left, right)
            except ZeroDivisionError as exc:
                raise ExpressionError("division by zero in limit expression") from exc
        if isinstance(node, ast.UnaryOp):
            return _ALLOWED_UNARYOPS[type(node.op)](cls._eval(node.operand, variables))
        if isinstance(node, ast.Constant):
            return float(node.value)
        if isinstance(node, ast.Name):
            if node.id.lower() == "inf":
                return INFINITY
            return variables[node.id.lower()]
        raise ExpressionError(f"cannot evaluate node {type(node).__name__}")  # pragma: no cover

    # -- constructors -------------------------------------------------------

    @classmethod
    def relative(cls, factor: float, variable: str) -> "LimitExpression":
        """Build the paper's canonical relative form, e.g. ``(0.7*ubatt)``."""
        return cls(f"({format_number(factor)}*{variable.lower()})")

    @classmethod
    def constant(cls, value: float) -> "LimitExpression":
        """Build an expression holding a plain constant."""
        return cls(format_number(value))

    # -- dunder -------------------------------------------------------------

    def __str__(self) -> str:
        return self._text

    def __repr__(self) -> str:
        return f"LimitExpression({self._text!r})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LimitExpression):
            return self._text == other._text
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._text)


@functools.lru_cache(maxsize=4096)
def compile_expression(text: str) -> LimitExpression:
    """Parse *text* into a :class:`LimitExpression`, caching by source text.

    Limit expressions are immutable after construction and their evaluation
    is pure, so one compiled instance can serve every caller that sees the
    same textual form.  The interpreter/allocator hot path evaluates the
    same handful of script parameters thousands of times per campaign;
    interning the parse step turns each of those into a tree walk instead
    of an ``ast.parse``.
    """
    return LimitExpression(text)

"""Method model: the vocabulary shared by sheets, scripts and test stands.

The paper binds every *status* to a *method* ("the status Lo or Ho ... is
carried out by the method get_u").  Methods are therefore the contract
between the test definition side (sheets, compiler, XML) and the execution
side (test stand resources, instruments):

* the **compiler** turns a status definition into a method call with named
  parameters (``get_u u_min="(0.7*ubatt)" u_max="(1.1*ubatt)"``),
* a **resource** advertises which methods it supports and the valid range of
  every parameter,
* the **interpreter** asks an allocated resource to perform the call and
  converts the outcome into a pass/fail verdict.

This module defines the data model (:class:`MethodSpec`,
:class:`ParameterSpec`, :class:`MethodOutcome`); the concrete standard
methods live in :mod:`repro.methods.electrical`, :mod:`repro.methods.bus`
and :mod:`repro.methods.timing` and are collected by
:mod:`repro.methods.registry`.
"""

from __future__ import annotations

import enum
import functools
from typing import Iterable, Mapping, TYPE_CHECKING

from .._record import Record
from ..core.errors import MethodError
from ..core.values import Interval, LimitExpression, format_number

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.script import MethodCall
    from ..core.status import StatusDefinition

__all__ = [
    "MethodKind",
    "ParameterRole",
    "ParameterSpec",
    "MethodSpec",
    "MethodOutcome",
    "evaluate_call_parameter",
    "limits_for_call",
]


class MethodKind(enum.Enum):
    """Whether a method applies a stimulus, takes a measurement, or waits."""

    STIMULUS = "stimulus"
    MEASUREMENT = "measurement"
    TIMING = "timing"


class ParameterRole(enum.Enum):
    """Semantic role a parameter plays when built from a status definition.

    The compiler uses the role to decide which column of the status table
    feeds the parameter and whether the value is scaled by the status'
    reference variable (``UBATT`` in the paper).
    """

    NOMINAL = "nominal"      #: stimulus value (status table column *nom*)
    MINIMUM = "minimum"      #: lower acceptance limit (column *min*)
    MAXIMUM = "maximum"      #: upper acceptance limit (column *max*)
    PAYLOAD = "payload"      #: raw payload literal (CAN data such as ``0001B``)
    DURATION = "duration"    #: a time span in seconds
    AUXILIARY = "auxiliary"  #: extra method-specific parameter (columns D1..D3)


class ParameterSpec(Record):
    """Schema of one named parameter of a method."""

    name: str
    role: ParameterRole
    unit: str = ""
    required: bool = True
    description: str = ""

    def __init__(self, name: str, role: ParameterRole, unit: str = "",
                 required: bool = True, description: str = "") -> None:
        self.__dict__.update(name=name, role=role, unit=unit,
                             required=required, description=description)

    def __str__(self) -> str:
        return self.name


class MethodSpec(Record):
    """Schema of a method (name, kind, principal attribute, parameters)."""

    name: str
    kind: MethodKind
    attribute: str
    parameters: tuple[ParameterSpec, ...] = ()
    description: str = ""

    def __init__(self, name: str, kind: MethodKind, attribute: str,
                 parameters: Iterable[ParameterSpec] = (),
                 description: str = "") -> None:
        if not name:
            raise MethodError("method name must not be empty")
        self.__dict__.update(name=name, kind=kind, attribute=attribute,
                             parameters=tuple(parameters),
                             description=description)

    @property
    def key(self) -> str:
        """Canonical lower-case lookup key."""
        return self.name.lower()

    @property
    def is_stimulus(self) -> bool:
        return self.kind is MethodKind.STIMULUS

    @property
    def is_measurement(self) -> bool:
        return self.kind is MethodKind.MEASUREMENT

    def parameter(self, name: str) -> ParameterSpec:
        """Look up a parameter spec by name."""
        wanted = str(name).lower()
        for spec in self.parameters:
            if spec.name.lower() == wanted:
                return spec
        raise MethodError(f"method {self.name!r} has no parameter {name!r}")

    def validate_params(self, params: Mapping[str, str]) -> None:
        """Check a parameter mapping against the schema.

        Unknown parameter names and missing required parameters raise
        :class:`~repro.core.errors.MethodError`.
        """
        known = {spec.name.lower() for spec in self.parameters}
        for name in params:
            if str(name).lower() not in known:
                raise MethodError(
                    f"method {self.name!r} does not accept parameter {name!r}"
                )
        for spec in self.parameters:
            if spec.required and not any(
                str(name).lower() == spec.name.lower() for name in params
            ):
                raise MethodError(
                    f"method {self.name!r} requires parameter {spec.name!r}"
                )

    # -- compiling statuses into parameters ---------------------------------

    def params_from_status(self, status: "StatusDefinition") -> dict[str, str]:
        """Build the XML parameter mapping for a status bound to this method.

        The construction follows the paper's example: limit parameters whose
        status definition references a variable are written as relative
        expressions (``(0.7*ubatt)``), otherwise as plain numbers; payload
        parameters keep their literal spelling (``0001B``).
        """
        params: dict[str, str] = {}
        for spec in self.parameters:
            value = self._param_from_status(spec, status)
            if value is None:
                if spec.required:
                    raise MethodError(
                        f"status {status.name!r} does not provide a value for "
                        f"parameter {spec.name!r} of method {self.name!r}"
                    )
                continue
            params[spec.name] = value
        return params

    @staticmethod
    def _relative_or_constant(value: float | None, status: "StatusDefinition") -> str | None:
        if value is None:
            return None
        if status.variable:
            return LimitExpression.relative(value, status.variable).text
        return format_number(value)

    def _param_from_status(
        self, spec: ParameterSpec, status: "StatusDefinition"
    ) -> str | None:
        if spec.role is ParameterRole.NOMINAL:
            return self._relative_or_constant(status.nominal, status)
        if spec.role is ParameterRole.MINIMUM:
            return self._relative_or_constant(status.minimum, status)
        if spec.role is ParameterRole.MAXIMUM:
            return self._relative_or_constant(status.maximum, status)
        if spec.role is ParameterRole.PAYLOAD:
            return status.nominal_text or None
        if spec.role is ParameterRole.DURATION:
            return format_number(status.nominal) if status.nominal is not None else None
        if spec.role is ParameterRole.AUXILIARY:
            value = status.auxiliary_value(spec.name)
            return format_number(value) if value is not None else None
        raise MethodError(f"unhandled parameter role {spec.role}")  # pragma: no cover

    def __str__(self) -> str:
        return self.name


class MethodOutcome(Record):
    """Result of performing one method call on a resource.

    Attributes
    ----------
    method:
        Method name that was performed.
    passed:
        Verdict of the call.  Stimuli pass when they could be applied inside
        the resource's capability; measurements pass when the observed value
        lies inside the limits.
    observed:
        The measured or applied value (``None`` for timing methods).
    limits:
        The acceptance interval used (measurements only).
    unit:
        Unit of *observed*.
    detail:
        Human-readable explanation for the report.
    """

    method: str
    passed: bool
    observed: float | None = None
    limits: Interval | None = None
    unit: str = ""
    detail: str = ""

    def __init__(self, method: str, passed: bool,
                 observed: float | None = None,
                 limits: Interval | None = None, unit: str = "",
                 detail: str = "") -> None:
        self.__dict__.update(method=method, passed=passed, observed=observed,
                             limits=limits, unit=unit, detail=detail)

    def __bool__(self) -> bool:
        return self.passed

    def describe(self) -> str:
        """One-line description for test reports."""
        parts = [self.method, "PASS" if self.passed else "FAIL"]
        if self.observed is not None:
            value = format_number(self.observed)
            parts.append(f"observed={value}{self.unit}")
        if self.limits is not None:
            parts.append(f"limits={self.limits}")
        if self.detail:
            parts.append(self.detail)
        return " ".join(parts)


# --------------------------------------------------------------------------
# Parameter evaluation helpers (used by instruments and the interpreter)
# --------------------------------------------------------------------------

@functools.lru_cache(maxsize=8192)
def _evaluate_expression_cached(expr: LimitExpression, vars_items: tuple) -> float:
    """One expression evaluation per distinct (expression, variable values).

    Sound because expressions are immutable and hash by their source text,
    and the key carries the variable *values*: a changed supply voltage is
    a different key, never a stale hit.  Raised errors (missing variables)
    are not cached and re-raise on every call, like the uncached path.
    """
    return expr.evaluate(dict(vars_items))


def evaluate_call_parameter(
    call: "MethodCall",
    name: str,
    variables: Mapping[str, float] | None = None,
    *,
    default: float | None = None,
) -> float | None:
    """Evaluate one parameter of *call* (number or limit expression).

    Returns *default* when the parameter is absent or blank.  The call
    reads its own parameters (:meth:`~repro.core.script.MethodCall.parsed`);
    an expression is evaluated against *variables*, once per distinct
    variable values.
    """
    parsed = call.parsed(name)
    if parsed is None:
        return default
    if isinstance(parsed, LimitExpression):
        return _evaluate_expression_cached(
            parsed, tuple((variables or {}).items()))
    return parsed


def limits_for_call(
    call: "MethodCall",
    attribute: str,
    variables: Mapping[str, float] | None = None,
) -> Interval:
    """Build the acceptance interval from ``<attr>_min`` / ``<attr>_max``.

    Missing bounds default to minus/plus infinity so one-sided checks work.
    Inverted bounds are *normalised* (swapped) rather than rejected:
    :class:`~repro.core.values.Interval` refuses empty intervals at
    construction, and run-time limits may legitimately invert when a
    relative expression is scaled by a negative variable value.  Inverted
    bounds written directly into a sheet are an authoring error; the static
    analyzer's E-EMPTY-INTERVAL rule (:mod:`repro.lint`) reports those at
    lint time, where the swap here would otherwise mask them.
    """
    low = evaluate_call_parameter(
        call, f"{attribute}_min", variables, default=float("-inf"))
    high = evaluate_call_parameter(
        call, f"{attribute}_max", variables, default=float("inf"))
    if low > high:
        low, high = high, low
    return Interval(low, high)

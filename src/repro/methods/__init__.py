"""Method vocabulary shared between test definitions and test stands."""

from .base import (
    MethodKind,
    MethodOutcome,
    MethodSpec,
    ParameterRole,
    ParameterSpec,
    evaluate_call_parameter,
    limits_for_call,
)
from .bus import BUS_METHODS, GET_CAN, PUT_CAN
from .electrical import (
    ELECTRICAL_METHODS,
    GET_DIGITAL,
    GET_I,
    GET_R,
    GET_U,
    PUT_DIGITAL,
    PUT_I,
    PUT_R,
    PUT_U,
)
from .registry import MethodRegistry, default_registry
from .timing import TIMING_METHODS, WAIT

__all__ = [
    "MethodKind",
    "MethodOutcome",
    "MethodSpec",
    "ParameterRole",
    "ParameterSpec",
    "MethodRegistry",
    "default_registry",
    "evaluate_call_parameter",
    "limits_for_call",
    "ELECTRICAL_METHODS",
    "BUS_METHODS",
    "TIMING_METHODS",
    "PUT_R",
    "PUT_U",
    "PUT_I",
    "GET_U",
    "GET_R",
    "GET_I",
    "PUT_DIGITAL",
    "GET_DIGITAL",
    "PUT_CAN",
    "GET_CAN",
    "WAIT",
]

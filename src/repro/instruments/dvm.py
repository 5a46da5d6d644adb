"""Digital volt meter (the paper's ``Ress1``)."""

from __future__ import annotations

from typing import Mapping, Sequence

from ..core.errors import InstrumentError
from ..core.signals import Signal
from ..core.script import MethodCall
from ..dut.harness import TestHarness
from ..methods import MethodOutcome, limits_for_call
from .base import Capability, Instrument

__all__ = ["Dvm"]


class Dvm(Instrument):
    """A two-terminal digital volt meter supporting ``get_u``.

    The DVM measures the differential voltage between its ``hi`` and ``lo``
    terminals (``lo`` defaults to ground when only one pin is routed) and
    compares it against the limits of the method call, which may be relative
    to the stand's supply voltage.

    ``accuracy`` is an *absolute* tolerance in volts (bench-multimeter
    convention; default 1 mV), unlike the clamp-style
    :class:`~repro.instruments.current_probe.CurrentProbe`, whose accuracy
    is a fraction of the reading.
    """

    TERMINALS = ("hi", "lo")

    def __init__(
        self,
        name: str,
        *,
        u_min: float = -60.0,
        u_max: float = 60.0,
        accuracy: float = 0.001,
        io_delay: float = 0.0,
    ):
        super().__init__(name, io_delay=io_delay)
        if u_min >= u_max:
            raise InstrumentError("DVM voltage range is empty")
        self.u_min = float(u_min)
        self.u_max = float(u_max)
        self.accuracy = float(accuracy)

    def capabilities(self) -> tuple[Capability, ...]:
        return (Capability("get_u", "u", self.u_min, self.u_max, "V"),)

    def _perform(
        self,
        call: MethodCall,
        signal: Signal,
        pins: Sequence[str],
        harness: TestHarness,
        variables: Mapping[str, float],
        *,
        prepared: tuple | None = None,
    ) -> MethodOutcome:
        if call.key != "get_u":
            raise InstrumentError(f"DVM {self.name!r} cannot perform {call.method!r}")
        if not pins:
            raise InstrumentError(f"DVM {self.name!r} has not been routed to any pin")
        observed = harness.measure_voltage(tuple(pins))
        if not (self.u_min <= observed <= self.u_max):
            return MethodOutcome(
                method=call.method,
                passed=False,
                observed=observed,
                unit="V",
                detail=f"reading outside the meter range of {self.name}",
            )
        if prepared is not None and prepared[1] is not None:
            limits = prepared[1]
        else:
            limits = limits_for_call(call, "u", variables)
        passed = limits.contains(observed, tolerance=self.accuracy)
        return MethodOutcome(
            method=call.method,
            passed=passed,
            observed=observed,
            limits=limits,
            unit="V",
            detail=f"measured by {self.name} at {'/'.join(pins)}",
        )

"""Programmable power supply / voltage source."""

from __future__ import annotations

from typing import Mapping, Sequence

from ..core.errors import InstrumentError
from ..core.signals import Signal
from ..core.script import MethodCall
from ..dut.harness import TestHarness
from ..methods import MethodOutcome, evaluate_call_parameter, limits_for_call
from .base import Capability, Instrument

__all__ = ["PowerSupply"]


class PowerSupply(Instrument):
    """A single-channel voltage source supporting ``put_u``.

    One power supply per stand additionally acts as the battery emulator
    providing ``UBATT``; that role is configured at the test stand level
    (see :class:`repro.teststand.stands.TestStand`), the instrument itself
    only knows how to impose a voltage on a pin.
    """

    TERMINALS = ("plus",)

    def __init__(self, name: str, *, u_min: float = 0.0, u_max: float = 30.0,
                 io_delay: float = 0.0):
        super().__init__(name, io_delay=io_delay)
        if u_min >= u_max:
            raise InstrumentError("power supply voltage range is empty")
        self.u_min = float(u_min)
        self.u_max = float(u_max)

    def capabilities(self) -> tuple[Capability, ...]:
        return (Capability("put_u", "u", self.u_min, self.u_max, "V"),)

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
        if call.key != "put_u":
            raise InstrumentError(f"power supply {self.name!r} cannot perform {call.method!r}")
        if not pins:
            raise InstrumentError(f"power supply {self.name!r} has not been routed to any pin")
        if prepared is not None and prepared[0] is not None:
            requested = prepared[0]
        else:
            requested = evaluate_call_parameter(call, "u", variables)
        if requested is None:
            raise InstrumentError("put_u without a u parameter")
        applied = min(max(requested, self.u_min), self.u_max)
        harness.apply_voltage(pins[0], applied)
        if prepared is not None and prepared[1] is not None:
            acceptance = prepared[1]
        else:
            acceptance = limits_for_call(call, "u", variables)
        passed = acceptance.contains(applied, tolerance=1e-9)
        return MethodOutcome(
            method=call.method,
            passed=passed,
            observed=applied,
            unit="V",
            detail=f"{self.name} applied {applied:g} V at {pins[0]}",
        )

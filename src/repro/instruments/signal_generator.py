"""Signal generator: a voltage source with a wider range than the PSU."""

from __future__ import annotations

from typing import Mapping, Sequence

from ..core.errors import InstrumentError
from ..core.signals import Signal
from ..core.script import MethodCall
from ..dut.harness import TestHarness
from ..methods import MethodOutcome, evaluate_call_parameter, limits_for_call
from .base import Capability, Instrument

__all__ = ["SignalGenerator"]


class SignalGenerator(Instrument):
    """An arbitrary voltage source supporting ``put_u`` and ``put_digital``.

    Compared to the :class:`~repro.instruments.power_supply.PowerSupply` the
    generator covers negative voltages (sensor emulation) and can also act as
    a logic-level driver, making it the universal stimulus of the "big rack"
    stand used in the portability experiment.
    """

    TERMINALS = ("out",)

    def __init__(self, name: str, *, u_min: float = -20.0, u_max: float = 20.0,
                 io_delay: float = 0.0):
        super().__init__(name, io_delay=io_delay)
        if u_min >= u_max:
            raise InstrumentError("signal generator voltage range is empty")
        self.u_min = float(u_min)
        self.u_max = float(u_max)

    def capabilities(self) -> tuple[Capability, ...]:
        return (
            Capability("put_u", "u", self.u_min, self.u_max, "V"),
            Capability("put_digital", "level", 0.0, 1.0, ""),
        )

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
        method = call.key
        if not pins:
            raise InstrumentError(f"signal generator {self.name!r} has not been routed to any pin")
        if method == "put_u":
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
            return MethodOutcome(
                method=call.method,
                passed=acceptance.contains(applied, tolerance=1e-9),
                observed=applied,
                unit="V",
                detail=f"{self.name} applied {applied:g} V at {pins[0]}",
            )
        if method == "put_digital":
            if prepared is not None and prepared[0] is not None:
                level = prepared[0] or 0.0
            else:
                level = evaluate_call_parameter(call, "level", variables, default=0.0) or 0.0
            level = 1.0 if level >= 0.5 else 0.0
            supply = float(variables.get("ubatt", harness.ubatt))
            harness.apply_voltage(pins[0], level * supply)
            return MethodOutcome(
                method=call.method,
                passed=True,
                observed=level,
                detail=f"{self.name} drove logic {int(level)} at {pins[0]}",
            )
        raise InstrumentError(f"signal generator {self.name!r} cannot perform {call.method!r}")

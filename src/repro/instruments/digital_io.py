"""Digital I/O card: logic-level stimulation and readback."""

from __future__ import annotations

from typing import Mapping, Sequence

from ..core.errors import InstrumentError
from ..core.signals import Signal
from ..core.script import MethodCall
from ..dut.harness import TestHarness
from ..methods import MethodOutcome, evaluate_call_parameter, limits_for_call
from .base import Capability, Instrument

__all__ = ["DigitalIo"]


class DigitalIo(Instrument):
    """A digital I/O channel supporting ``put_digital`` and ``get_digital``.

    Logic levels are realised electrically: driving a ``1`` applies the
    stand's supply voltage to the pin, driving a ``0`` applies 0 V; reading
    compares the pin voltage against half the supply voltage.
    """

    TERMINALS = ("io",)

    def __init__(self, name: str, *, channels: int = 8, io_delay: float = 0.0):
        super().__init__(name, io_delay=io_delay)
        if channels < 1:
            raise InstrumentError("digital I/O card needs at least one channel")
        self.channels = int(channels)

    def capabilities(self) -> tuple[Capability, ...]:
        return (
            Capability("put_digital", "level", 0.0, 1.0, ""),
            Capability("get_digital", "level", 0.0, 1.0, ""),
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
            raise InstrumentError(f"digital I/O {self.name!r} has not been routed to any pin")
        supply = float(variables.get("ubatt", harness.ubatt))
        if method == "put_digital":
            if prepared is not None and prepared[0] is not None:
                level = prepared[0] or 0.0
            else:
                level = evaluate_call_parameter(call, "level", variables, default=0.0) or 0.0
            level = 1.0 if level >= 0.5 else 0.0
            harness.apply_voltage(pins[0], level * supply)
            return MethodOutcome(
                method=call.method,
                passed=True,
                observed=level,
                detail=f"{self.name} drove logic {int(level)} at {pins[0]}",
            )
        if method == "get_digital":
            voltage = harness.measure_voltage(pins[0])
            observed = 1.0 if voltage >= supply / 2.0 else 0.0
            if prepared is not None and prepared[1] is not None:
                limits = prepared[1]
            else:
                limits = limits_for_call(call, "level", variables)
            passed = limits.contains(observed)
            return MethodOutcome(
                method=call.method,
                passed=passed,
                observed=observed,
                limits=limits,
                detail=f"{self.name} read {voltage:.2f} V at {pins[0]}",
            )
        raise InstrumentError(f"digital I/O {self.name!r} cannot perform {call.method!r}")

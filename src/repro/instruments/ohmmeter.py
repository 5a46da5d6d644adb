"""Ohm meter: measures the resistance seen at a DUT pin."""

from __future__ import annotations

from typing import Mapping, Sequence

from ..core.errors import InstrumentError
from ..core.signals import Signal
from ..core.script import MethodCall
from ..dut.harness import TestHarness
from ..methods import MethodOutcome, limits_for_call
from .base import Capability, Instrument

__all__ = ["OhmMeter"]


class OhmMeter(Instrument):
    """A resistance meter supporting ``get_r``.

    ``accuracy`` is an *absolute* tolerance in ohms (default 0.5 Ohm), the
    same convention as the :class:`~repro.instruments.dvm.Dvm`; the
    clamp-style current probe instead quotes a fraction of the reading.
    """

    TERMINALS = ("a",)

    def __init__(self, name: str, *, max_ohms: float = 10.0e6, accuracy: float = 0.5,
                 io_delay: float = 0.0):
        super().__init__(name, io_delay=io_delay)
        if max_ohms <= 0:
            raise InstrumentError("ohm meter range must be positive")
        self.max_ohms = float(max_ohms)
        self.accuracy = float(accuracy)

    def capabilities(self) -> tuple[Capability, ...]:
        return (Capability("get_r", "r", 0.0, self.max_ohms, "Ohm"),)

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
        if call.key != "get_r":
            raise InstrumentError(f"ohm meter {self.name!r} cannot perform {call.method!r}")
        if not pins:
            raise InstrumentError(f"ohm meter {self.name!r} has not been routed to any pin")
        observed = harness.measure_resistance(pins[0])
        if prepared is not None and prepared[1] is not None:
            limits = prepared[1]
        else:
            limits = limits_for_call(call, "r", variables)
        passed = limits.contains(observed, tolerance=self.accuracy)
        return MethodOutcome(
            method=call.method,
            passed=passed,
            observed=observed,
            limits=limits,
            unit="Ohm",
            detail=f"measured by {self.name} at {pins[0]}",
        )

"""Programmable resistor decade (the paper's ``Ress2`` / ``Ress3``)."""

from __future__ import annotations

import math
from typing import Mapping, Sequence

from ..core.errors import InstrumentError
from ..core.signals import Signal
from ..core.script import MethodCall
from ..dut.harness import TestHarness
from ..methods import MethodOutcome, evaluate_call_parameter, limits_for_call
from .base import Capability, Instrument

__all__ = ["ResistorDecade"]


class ResistorDecade(Instrument):
    """A programmable resistance applied between one DUT pin and ground.

    Used to emulate resistive contacts such as the paper's door switches:
    the ``Open`` status applies a fraction of an ohm, the ``Closed`` status
    requests an open circuit (``INF``) which the decade realises with its
    maximum resistance - accepted as long as the applied value stays inside
    the status' acceptance window (``r_min``).
    """

    TERMINALS = ("a",)

    def __init__(
        self,
        name: str,
        *,
        max_ohms: float = 1.0e6,
        min_ohms: float = 0.0,
        resolution: float = 0.1,
        io_delay: float = 0.0,
    ):
        super().__init__(name, io_delay=io_delay)
        if max_ohms <= min_ohms:
            raise InstrumentError("resistor decade range is empty")
        if resolution <= 0:
            raise InstrumentError("resistor decade resolution must be positive")
        self.min_ohms = float(min_ohms)
        self.max_ohms = float(max_ohms)
        self.resolution = float(resolution)

    def capabilities(self) -> tuple[Capability, ...]:
        return (Capability("put_r", "r", self.min_ohms, self.max_ohms, "Ohm"),)

    def _quantise(self, ohms: float) -> float:
        clamped = min(max(ohms, self.min_ohms), self.max_ohms)
        steps = round(clamped / self.resolution)
        return min(max(steps * self.resolution, self.min_ohms), self.max_ohms)

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
        if call.key != "put_r":
            raise InstrumentError(
                f"resistor decade {self.name!r} cannot perform {call.method!r}"
            )
        if not pins:
            raise InstrumentError(
                f"resistor decade {self.name!r} has not been routed to any pin"
            )
        if prepared is not None and prepared[0] is not None:
            requested = prepared[0]
        else:
            requested = evaluate_call_parameter(call, "r", variables)
        if requested is None:
            raise InstrumentError("put_r without an r parameter")
        applied = self.max_ohms if math.isinf(requested) else self._quantise(requested)
        harness.apply_resistance(pins[0], applied)
        if prepared is not None and prepared[1] is not None:
            acceptance = prepared[1]
        else:
            acceptance = limits_for_call(call, "r", variables)
        passed = acceptance.contains(applied, tolerance=self.resolution / 2)
        detail = (
            f"{self.name} applied {applied:g} Ohm at {pins[0]}"
            + (" (clamped)" if not math.isinf(requested) and applied != requested else "")
        )
        return MethodOutcome(
            method=call.method,
            passed=passed,
            observed=applied,
            limits=acceptance if acceptance.width != math.inf else None,
            unit="Ohm",
            detail=detail,
        )

"""Current probe: measures the current sourced by a DUT output.

Tolerance semantics
-------------------

Every measuring instrument carries an ``accuracy`` that widens the
acceptance window of a measurement.  The semantics differ by instrument
class and are part of each instrument's contract:

* :class:`~repro.instruments.dvm.Dvm` and
  :class:`~repro.instruments.ohmmeter.OhmMeter` quote an *absolute*
  accuracy in their measuring unit (volts / ohms), the convention of
  bench multimeter data sheets,
* :class:`CurrentProbe` quotes a *fraction of the reading* (the clamp-meter
  convention "±1 % of reading"), because a clamp probe's error scales with
  the measured current.

Before the tolerance audit the probe passed its fractional spec directly as
an absolute tolerance to :meth:`~repro.core.values.Interval.contains`,
which silently widened every current window by 10 mA - wider than the
defect margin of the ``fast_relay_weak`` knowledge-gap fault.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from ..core.errors import InstrumentError
from ..core.signals import Signal
from ..core.script import MethodCall
from ..dut.harness import TestHarness
from ..methods import MethodOutcome, limits_for_call
from .base import Capability, Instrument

__all__ = ["CurrentProbe"]


class CurrentProbe(Instrument):
    """A clamp-style current probe supporting ``get_i``.

    ``accuracy`` is a *fraction of the reading* (default 0.01 = ±1 % of
    reading), not an absolute current: the acceptance limits are widened by
    ``accuracy * |observed|`` amperes.  See the module docstring for how
    this relates to the absolute accuracies of the DVM and the ohm meter.
    """

    TERMINALS = ("clamp",)

    def __init__(self, name: str, *, i_max: float = 30.0, accuracy: float = 0.01,
                 io_delay: float = 0.0):
        super().__init__(name, io_delay=io_delay)
        if i_max <= 0:
            raise InstrumentError("current probe range must be positive")
        if not 0.0 <= accuracy < 1.0:
            raise InstrumentError(
                "current probe accuracy is a fraction of the reading "
                "and must lie in [0, 1)"
            )
        self.i_max = float(i_max)
        self.accuracy = float(accuracy)

    def capabilities(self) -> tuple[Capability, ...]:
        return (Capability("get_i", "i", -self.i_max, self.i_max, "A"),)

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
        if call.key != "get_i":
            raise InstrumentError(f"current probe {self.name!r} cannot perform {call.method!r}")
        if not pins:
            raise InstrumentError(f"current probe {self.name!r} has not been routed to any pin")
        observed = harness.measure_current(pins[0])
        if prepared is not None and prepared[1] is not None:
            limits = prepared[1]
        else:
            limits = limits_for_call(call, "i", variables)
        # Fractional accuracy: ±(accuracy x reading) amperes of tolerance.
        passed = limits.contains(observed, tolerance=self.accuracy * abs(observed))
        return MethodOutcome(
            method=call.method,
            passed=passed,
            observed=observed,
            limits=limits,
            unit="A",
            detail=f"measured by {self.name} at {pins[0]}",
        )

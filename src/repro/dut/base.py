"""Behavioural ECU model framework.

The paper's method was developed to test real control units ("successfully
applied to two ECUs of the next S-class").  For a self-contained
reproduction the physical ECU is replaced by a behavioural model that

* exposes the same electrical boundary: named pins whose resistance/voltage
  can be imposed from outside and output pins whose drive state can be
  observed (see :class:`~repro.dut.pins.OutputDrive`),
* exchanges the same CAN messages it would in the vehicle,
* runs against simulated time, with internal timers handled by the
  discrete-event kernel (:mod:`repro.dut.events`).

Concrete ECUs (interior light, central locking, window lifter, wiper,
exterior light) subclass :class:`EcuModel` and implement the three hooks
``_inputs_changed``, ``_time_advanced`` and ``_reset_state``.
"""

from __future__ import annotations

import abc
import math
from typing import Mapping

from ..core.errors import HarnessError
from .events import EventScheduler
from .pins import OutputDrive, Pin, PinKind

__all__ = ["EcuModel"]


class EcuModel(abc.ABC):
    """Base class of all behavioural ECU models.

    Subclasses declare their electrical and bus boundary as class attributes:

    ``PINS``
        tuple of :class:`~repro.dut.pins.Pin`,
    ``RX_MESSAGES`` / ``TX_MESSAGES``
        names of the CAN messages consumed / produced.
    """

    #: Name of the ECU model (overridden by subclasses).
    NAME: str = "ecu"
    #: Electrical pins of the ECU.
    PINS: tuple[Pin, ...] = ()
    #: CAN messages consumed by the ECU.
    RX_MESSAGES: tuple[str, ...] = ()
    #: CAN messages produced by the ECU.
    TX_MESSAGES: tuple[str, ...] = ()

    def __init__(self) -> None:
        self.scheduler = EventScheduler()
        self._pins: dict[str, Pin] = {pin.key: pin for pin in self.PINS}
        self._resistances: dict[str, float] = {}
        self._voltages: dict[str, float] = {}
        self._rx_values: dict[str, dict[str, float]] = {}
        self._tx_queue: list[tuple[str, dict[str, float]]] = []
        self._output_drives: dict[str, OutputDrive] = {}
        self._powered = True
        self._reset_state()
        self._inputs_changed()

    # -- identity / structure -------------------------------------------------

    @property
    def name(self) -> str:
        return self.NAME

    @property
    def now(self) -> float:
        """Current simulated time as seen by the ECU."""
        return self.scheduler.now

    @property
    def pins(self) -> tuple[Pin, ...]:
        return tuple(self._pins.values())

    def pin(self, name: str) -> Pin:
        try:
            return self._pins[str(name).lower()]
        except KeyError as exc:
            raise HarnessError(f"{self.NAME}: unknown pin {name!r}") from exc

    def has_pin(self, name: str) -> bool:
        return str(name).lower() in self._pins

    # -- harness-facing API ----------------------------------------------------

    def reset(self) -> None:
        """Return the ECU to its power-on state (keeps the current time)."""
        self.scheduler.cancel_all()
        self._resistances.clear()
        self._voltages.clear()
        self._rx_values.clear()
        self._tx_queue.clear()
        self._output_drives.clear()
        self._reset_state()
        self._inputs_changed()

    def set_power(self, powered: bool) -> None:
        """Switch the supply of the ECU on or off."""
        self._powered = bool(powered)
        if not self._powered:
            self._output_drives.clear()
        self._inputs_changed()

    @property
    def powered(self) -> bool:
        return self._powered

    def set_pin_resistance(self, pin: str, ohms: float) -> None:
        """Impose an external resistance-to-ground on an input pin."""
        key = self.pin(pin).key
        self._resistances[key] = float(ohms)
        self._inputs_changed()

    def clear_pin_resistance(self, pin: str) -> None:
        """Remove the external resistance (open circuit)."""
        key = self.pin(pin).key
        self._resistances.pop(key, None)
        self._inputs_changed()

    def set_pin_voltage(self, pin: str, volts: float) -> None:
        """Impose an external voltage on an input pin."""
        key = self.pin(pin).key
        self._voltages[key] = float(volts)
        self._inputs_changed()

    def receive_message(self, message: str, values: Mapping[str, float]) -> None:
        """Deliver decoded CAN signal values of one message to the ECU."""
        name = str(message).lower()
        if self.RX_MESSAGES and name not in {m.lower() for m in self.RX_MESSAGES}:
            # Unknown messages are ignored, like a real node filtering by id.
            return
        current = self._rx_values.setdefault(name, {})
        for key, value in values.items():
            current[str(key).lower()] = float(value)
        self._inputs_changed()

    def advance_to(self, time: float) -> None:
        """Advance the ECU's simulated time (fires due timers)."""
        self.scheduler.advance_to(time)
        self._time_advanced()

    def output_drive(self, pin: str) -> OutputDrive:
        """How the ECU currently drives *pin* (floating when unpowered)."""
        key = self.pin(pin).key
        if not self._powered:
            return OutputDrive.floating()
        return self._output_drives.get(key, OutputDrive.floating())

    def pending_transmissions(self) -> list[tuple[str, dict[str, float]]]:
        """Messages queued for transmission since the last call (drained)."""
        queued = self._tx_queue
        self._tx_queue = []
        return queued

    # -- helpers for subclasses ------------------------------------------------

    def resistance_at(self, pin: str, default: float = math.inf) -> float:
        """Externally applied resistance at *pin* (infinite when unconnected)."""
        return self._resistances.get(str(pin).lower(), default)

    def rx_signal(self, message: str, signal: str, default: float = 0.0) -> float:
        """Last received value of a CAN signal."""
        return self._rx_values.get(str(message).lower(), {}).get(str(signal).lower(), default)

    def contact_closed(self, pin: str, threshold: float = 100.0) -> bool:
        """Interpret a resistive input: resistance below *threshold* = closed."""
        return self.resistance_at(pin) <= threshold

    def drive_output(self, pin: str, drive: OutputDrive) -> None:
        """Set the drive state of an output pin."""
        target = self.pin(pin)
        if not target.is_output:
            raise HarnessError(f"{self.NAME}: pin {pin!r} is not an output")
        self._output_drives[target.key] = drive

    def transmit(self, message: str, values: Mapping[str, float]) -> None:
        """Queue a CAN message for transmission (picked up by the harness)."""
        self._tx_queue.append((str(message).lower(), {str(k).lower(): float(v) for k, v in values.items()}))

    # -- subclass hooks ----------------------------------------------------------

    @abc.abstractmethod
    def _reset_state(self) -> None:
        """Initialise (or re-initialise) the internal state variables."""

    @abc.abstractmethod
    def _inputs_changed(self) -> None:
        """Recompute outputs after any input (pin, voltage, CAN) changed."""

    def _time_advanced(self) -> None:
        """Recompute outputs after simulated time moved forward.

        The default implementation simply re-runs the input evaluation,
        which is correct for models whose timers are polled rather than
        event-driven.
        """
        self._inputs_changed()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(now={self.now})"

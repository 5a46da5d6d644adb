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
exterior light, instrument cluster) subclass :class:`EcuModel` and
implement the three hooks ``_inputs_changed``, ``_time_advanced`` and
``_reset_state``.

Pin, message and signal names match without regard to case: every
spelling resolves to its ``str(name).lower()`` key.  A model class
resolves the names it declares once, when the class is created, and
learns each further exact ``str`` spelling on first use, so a spelling
seen before costs one dict hit.
"""

from __future__ import annotations

import abc
import math
from typing import Mapping

from ..core.errors import HarnessError
from .events import EventScheduler
from .pins import OutputDrive, Pin, PinKind

__all__ = ["EcuModel"]

#: How many entries a spelling table holds at most.  Scripts can bring
#: arbitrary names, so a full table stops learning and a spelling it lacks
#: is lower-cased on each use instead.
SPELLINGS_MAX = 256

_FLOATING = OutputDrive.floating()


def _spellings(keys, names=()) -> dict[str, str]:
    """Spelling table: each key, and each declared name, to its key."""
    table = {key: key for key in keys if type(key) is str}
    for name in names:
        if type(name) is str and name.lower() in table:
            table[name] = name.lower()
    return table


def _learn(table: dict[str, str], spelling, key: str) -> None:
    """Remember *spelling* -> *key* when it is an exact ``str`` and fits.

    Only exact ``str`` objects are keys: a subclass may spell its
    ``str()`` differently from its value.
    """
    if type(spelling) is str and len(table) < SPELLINGS_MAX:
        table[spelling] = key


def _name_key(table: dict[str, str], name) -> str:
    """``str(name).lower()``, looked up in (and learned by) *table*."""
    key = table.get(name) if type(name) is str else None
    if key is None:
        key = str(name).lower()
        _learn(table, name, key)
    return key


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

    def __init_subclass__(cls, **kwargs) -> None:
        """Resolve the declared names once: pins, outputs and messages.

        Read from ``PINS``, ``RX_MESSAGES`` and ``TX_MESSAGES`` as the
        class defines them; a later change to those attributes is not seen.
        """
        super().__init_subclass__(**kwargs)
        pins = {pin.key: pin for pin in cls.PINS}
        names = [pin.name for pin in cls.PINS]
        cls._PINS_BY_KEY = pins
        cls._PIN_TUPLE = tuple(pins.values())
        cls._PIN_KEYS = _spellings(pins, names)
        cls._OUTPUT_KEYS = _spellings(
            (key for key, pin in pins.items() if pin.is_output), names)
        messages = (*cls.RX_MESSAGES, *cls.TX_MESSAGES)
        cls._MESSAGE_KEYS = _spellings(
            (str(name).lower() for name in messages), messages)
        cls._RX_KEYS = frozenset(str(name).lower() for name in cls.RX_MESSAGES)
        cls._SIGNAL_KEYS = {}

    def __init__(self) -> None:
        self.scheduler = EventScheduler()
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
        return self._PIN_TUPLE

    def pin_key(self, name: str) -> str | None:
        """Lower-case key of pin *name*, or ``None`` when there is no such pin."""
        key = self._PIN_KEYS.get(name) if type(name) is str else None
        if key is None:
            key = str(name).lower()
            if key not in self._PINS_BY_KEY:
                return None
            _learn(self._PIN_KEYS, name, key)
        return key

    def _known_pin_key(self, name: str) -> str:
        key = self.pin_key(name)
        if key is None:
            raise HarnessError(f"{self.NAME}: unknown pin {name!r}")
        return key

    def pin(self, name: str) -> Pin:
        return self._PINS_BY_KEY[self._known_pin_key(name)]

    def has_pin(self, name: str) -> bool:
        return self.pin_key(name) is not None

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
        key = self._known_pin_key(pin)
        self._resistances[key] = float(ohms)
        self._inputs_changed()

    def clear_pin_resistance(self, pin: str) -> None:
        """Remove the external resistance (open circuit)."""
        key = self._known_pin_key(pin)
        self._resistances.pop(key, None)
        self._inputs_changed()

    def set_pin_voltage(self, pin: str, volts: float) -> None:
        """Impose an external voltage on an input pin."""
        key = self._known_pin_key(pin)
        self._voltages[key] = float(volts)
        self._inputs_changed()

    def receive_message(self, message: str, values: Mapping[str, float]) -> None:
        """Deliver decoded CAN signal values of one message to the ECU."""
        name = _name_key(self._MESSAGE_KEYS, message)
        if self._RX_KEYS and name not in self._RX_KEYS:
            # Unknown messages are ignored, like a real node filtering by id.
            return
        current = self._rx_values.get(name)
        if current is None:
            current = self._rx_values[name] = {}
        signals = self._SIGNAL_KEYS
        for key, value in values.items():
            current[_name_key(signals, key)] = float(value)
        self._inputs_changed()

    def advance_to(self, time: float) -> None:
        """Advance the ECU's simulated time (fires due timers)."""
        self.scheduler.advance_to(time)
        self._time_advanced()

    def output_drive(self, pin: str) -> OutputDrive:
        """How the ECU currently drives *pin* (floating when unpowered)."""
        key = self._PIN_KEYS.get(pin) if type(pin) is str else None
        if key is None:
            key = self._known_pin_key(pin)
        if not self._powered:
            return _FLOATING
        return self._output_drives.get(key, _FLOATING)

    def pending_transmissions(self) -> list[tuple[str, dict[str, float]]]:
        """Messages queued for transmission since the last call (drained)."""
        queued = self._tx_queue
        self._tx_queue = []
        return queued

    # -- helpers for subclasses ------------------------------------------------

    def resistance_at(self, pin: str, default: float = math.inf) -> float:
        """Externally applied resistance at *pin* (infinite when unconnected)."""
        key = self._PIN_KEYS.get(pin) if type(pin) is str else None
        if key is None:
            # A name that is no pin never has a resistance applied.
            key = self.pin_key(pin)
        return self._resistances.get(key, default)

    def rx_signal(self, message: str, signal: str, default: float = 0.0) -> float:
        """Last received value of a CAN signal."""
        if type(message) is str and type(signal) is str:
            key = self._MESSAGE_KEYS.get(message)
            name = self._SIGNAL_KEYS.get(signal)
        else:
            key = name = None
        if key is None:
            key = _name_key(self._MESSAGE_KEYS, message)
        if name is None:
            name = _name_key(self._SIGNAL_KEYS, signal)
        values = self._rx_values.get(key)
        return default if values is None else values.get(name, default)

    def contact_closed(self, pin: str, threshold: float = 100.0) -> bool:
        """Interpret a resistive input: resistance below *threshold* = closed."""
        return self.resistance_at(pin) <= threshold

    def drive_output(self, pin: str, drive: OutputDrive) -> None:
        """Set the drive state of an output pin."""
        key = self._OUTPUT_KEYS.get(pin) if type(pin) is str else None
        if key is None:
            key = self._known_pin_key(pin)
            if not self._PINS_BY_KEY[key].is_output:
                raise HarnessError(f"{self.NAME}: pin {pin!r} is not an output")
            _learn(self._OUTPUT_KEYS, pin, key)
        self._output_drives[key] = drive

    def transmit(self, message: str, values: Mapping[str, float]) -> None:
        """Queue a CAN message for transmission (picked up by the harness)."""
        signals = self._SIGNAL_KEYS
        self._tx_queue.append((
            _name_key(self._MESSAGE_KEYS, message),
            {_name_key(signals, key): float(value) for key, value in values.items()},
        ))

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

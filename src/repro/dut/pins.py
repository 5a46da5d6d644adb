"""DUT pin model.

A pin is the physical attachment point between the device under test and the
test-stand wiring.  Pins are grouped by their electrical role; the role
determines which stimuli make sense (a resistive input is driven by a
resistor decade, a power output is measured by a DVM) and how the harness
translates between the test stand and the behavioural ECU model.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..core.errors import HarnessError

__all__ = ["PinKind", "Pin", "OutputDrive"]


class PinKind(enum.Enum):
    """Electrical role of a DUT pin."""

    SUPPLY = "supply"                    #: battery supply input (KL30/KL15)
    GROUND = "ground"                    #: ground connection (KL31)
    RESISTIVE_INPUT = "resistive_input"  #: contact sensed through its resistance
    ANALOG_INPUT = "analog_input"        #: voltage-sensing input
    DIGITAL_INPUT = "digital_input"      #: logic-level input
    POWER_OUTPUT = "power_output"        #: high-side driver output (lamps, motors)
    RETURN_OUTPUT = "return_output"      #: low-side return path of a load
    SIGNAL_OUTPUT = "signal_output"      #: low-current status output (LED, logic)


@dataclass(frozen=True)
class Pin:
    """One named DUT pin.

    Besides its fields a pin carries three derived attributes, computed
    once because pins are immutable and read on every simulated
    measurement: ``key`` (the canonical lower-case lookup key),
    ``is_input`` (the test stand stimulates this pin) and ``is_output``
    (the DUT drives this pin).
    """

    name: str
    kind: PinKind
    description: str = ""

    def __post_init__(self) -> None:
        if not str(self.name).strip():
            raise HarnessError("pin needs a name")
        object.__setattr__(self, "key", self.name.lower())
        object.__setattr__(self, "is_input", self.kind in (
            PinKind.RESISTIVE_INPUT,
            PinKind.ANALOG_INPUT,
            PinKind.DIGITAL_INPUT,
            PinKind.SUPPLY,
        ))
        object.__setattr__(self, "is_output", self.kind in (
            PinKind.POWER_OUTPUT,
            PinKind.RETURN_OUTPUT,
            PinKind.SIGNAL_OUTPUT,
        ))

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class OutputDrive:
    """How the ECU currently drives one of its output pins.

    Attributes
    ----------
    level:
        Driven level as a fraction of the supply voltage (1.0 = high-side
        switch closed to battery, 0.0 = pulled to ground).
    resistance:
        Source resistance of the driver stage in ohms.
    driven:
        ``False`` means the driver is off / high-impedance; *level* and
        *resistance* are then ignored by the harness.
    """

    level: float = 0.0
    resistance: float = 0.1
    driven: bool = True

    def __post_init__(self) -> None:
        if self.resistance <= 0:
            raise HarnessError("driver resistance must be positive")
        if not -0.5 <= self.level <= 1.5:
            raise HarnessError(f"drive level {self.level} outside plausible range")

    @classmethod
    def high_side(cls, resistance: float = 0.2) -> "OutputDrive":
        """Driver closed to the battery rail (a shared instance, see :meth:`_shared`)."""
        return cls._shared(1.0, resistance)

    @classmethod
    def low_side(cls, resistance: float = 0.1) -> "OutputDrive":
        """Driver closed to ground (a shared instance, see :meth:`_shared`)."""
        return cls._shared(0.0, resistance)

    @classmethod
    def _shared(cls, level: float, resistance: float) -> "OutputDrive":
        """The driven state at *level* and *resistance*, one instance per value.

        Models drive the same few constants on every evaluation, and a drive
        is immutable, so equal states share one object.  The key holds the
        resistance's type as well as its value: ``1`` and ``1.0`` compare
        equal but print differently.  Only ``int`` and ``float`` resistances
        are shared, and at most :data:`SHARED_DRIVES_MAX` states are kept;
        any other state is built afresh, as before.
        """
        kind = type(resistance)
        if kind is not float and kind is not int:
            return cls(level=level, resistance=resistance, driven=True)
        key = (cls, level, kind, resistance)
        drive = _SHARED.get(key)
        if drive is None:
            drive = cls(level=level, resistance=resistance, driven=True)
            if len(_SHARED) < SHARED_DRIVES_MAX:
                _SHARED[key] = drive
        return drive

    @classmethod
    def floating(cls) -> "OutputDrive":
        """Driver off (high impedance).

        Returns a shared immutable instance: every un-driven pin of every
        measurement asks for this, so one object serves them all.
        """
        return _FLOATING


#: The one shared high-impedance drive state (see :meth:`OutputDrive.floating`).
_FLOATING = OutputDrive(level=0.0, resistance=1.0, driven=False)

#: How many driven states :meth:`OutputDrive._shared` keeps.
SHARED_DRIVES_MAX = 256

#: Driven states by ``(class, level, resistance type, resistance)``.
_SHARED: dict[tuple, OutputDrive] = {}

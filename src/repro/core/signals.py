"""Signal model of the device under test.

The paper's *signal definition sheet* lists every input and output signal of
the DUT together with its status before the test starts.  A signal is a
*requirement-level* concept (``INT_ILL`` - the interior illumination), which
may map onto one or several physical DUT pins (``INT_ILL_F`` / ``INT_ILL_R``
in the paper's wiring figure) or onto a bus message (``IGN_ST`` over CAN).

Keeping the signal <-> pin mapping explicit is what makes the test
definitions independent of the test stand: the sheets only ever talk about
signals; pins and resources appear when a concrete stand interprets the
script.
"""

from __future__ import annotations

import enum
from typing import Iterable, Iterator, Mapping

from .._record import Record
from .errors import CompositionError, SignalError

__all__ = ["SignalDirection", "SignalKind", "Signal", "SignalSet",
           "merge_signal_sets"]


class SignalDirection(enum.Enum):
    """Direction of a signal as seen from the device under test."""

    INPUT = "input"
    OUTPUT = "output"
    BIDIRECTIONAL = "bidirectional"

    @classmethod
    def parse(cls, text: str) -> "SignalDirection":
        """Parse the sheet spelling of a direction (``in``/``out``/...)."""
        normalised = str(text).strip().lower()
        aliases = {
            "in": cls.INPUT,
            "input": cls.INPUT,
            "stimulus": cls.INPUT,
            "out": cls.OUTPUT,
            "output": cls.OUTPUT,
            "response": cls.OUTPUT,
            "inout": cls.BIDIRECTIONAL,
            "bidir": cls.BIDIRECTIONAL,
            "bidirectional": cls.BIDIRECTIONAL,
        }
        try:
            return aliases[normalised]
        except KeyError as exc:
            raise SignalError(f"unknown signal direction: {text!r}") from exc


class SignalKind(enum.Enum):
    """Physical nature of a signal.

    The kind determines which families of methods make sense for the signal
    and which harness binding (electrical pin vs. bus message) is used.
    """

    ANALOG = "analog"          #: voltage / current carrying pin(s)
    RESISTIVE = "resistive"    #: contact sensed through its resistance
    DIGITAL = "digital"        #: logic-level pin
    BUS = "bus"                #: signal transported in a bus message (CAN)

    @classmethod
    def parse(cls, text: str) -> "SignalKind":
        normalised = str(text).strip().lower()
        aliases = {
            "analog": cls.ANALOG,
            "analogue": cls.ANALOG,
            "voltage": cls.ANALOG,
            "resistive": cls.RESISTIVE,
            "resistance": cls.RESISTIVE,
            "contact": cls.RESISTIVE,
            "switch": cls.RESISTIVE,
            "digital": cls.DIGITAL,
            "logic": cls.DIGITAL,
            "bus": cls.BUS,
            "can": cls.BUS,
            "lin": cls.BUS,
        }
        try:
            return aliases[normalised]
        except KeyError as exc:
            raise SignalError(f"unknown signal kind: {text!r}") from exc


class Signal(Record):
    """A requirement-level signal of the device under test.

    Parameters
    ----------
    name:
        Signal name as used in the test sheets (case preserved, compared
        case-insensitively).
    direction:
        Whether the DUT consumes (:attr:`SignalDirection.INPUT`) or produces
        (:attr:`SignalDirection.OUTPUT`) the signal.
    kind:
        Physical nature, see :class:`SignalKind`.
    pins:
        The DUT pins carrying the signal.  Empty for pure bus signals.
    message:
        Bus message name carrying the signal (bus signals only).
    initial_status:
        Status name applied before the first test step, as given in the
        signal definition sheet.
    description:
        Free-text description for reports.
    """

    name: str
    direction: SignalDirection
    kind: SignalKind
    pins: tuple[str, ...] = ()
    message: str | None = None
    initial_status: str | None = None
    description: str = ""

    def __init__(self, name: str, direction: SignalDirection,
                 kind: SignalKind, pins: Iterable[str] = (),
                 message: str | None = None,
                 initial_status: str | None = None,
                 description: str = "") -> None:
        if not name or not str(name).strip():
            raise SignalError("signal name must not be empty")
        pins = tuple(pins)
        if kind is SignalKind.BUS:
            if not message:
                raise SignalError(
                    f"bus signal {name!r} needs the carrying message name"
                )
        elif not pins:
            raise SignalError(
                f"signal {name!r} of kind {kind.value} needs at least one pin"
            )
        self.__dict__.update(name=name, direction=direction, kind=kind,
                             pins=pins, message=message,
                             initial_status=initial_status,
                             description=description)

    @property
    def key(self) -> str:
        """Canonical lower-case lookup key."""
        return self.name.lower()

    @property
    def is_input(self) -> bool:
        """True when the DUT consumes this signal (test stand stimulates it)."""
        return self.direction in (SignalDirection.INPUT, SignalDirection.BIDIRECTIONAL)

    @property
    def is_output(self) -> bool:
        """True when the DUT produces this signal (test stand measures it)."""
        return self.direction in (SignalDirection.OUTPUT, SignalDirection.BIDIRECTIONAL)

    @property
    def is_bus(self) -> bool:
        """True for signals transported over a bus rather than discrete pins."""
        return self.kind is SignalKind.BUS

    def __str__(self) -> str:
        return self.name


class SignalSet:
    """An ordered, case-insensitive collection of :class:`Signal` objects.

    The set corresponds to one signal definition sheet: all signals of one
    device under test, in sheet order.
    """

    def __init__(self, signals: Iterable[Signal] = (), *, dut: str = "",
                 composition: str | None = None):
        self.dut = dut
        #: Name of the multi-ECU composition this sheet belongs to, or
        #: ``None`` for a classic single-DUT sheet.
        self.composition = composition
        self._signals: dict[str, Signal] = {}
        for signal in signals:
            self.add(signal)

    def add(self, signal: Signal) -> None:
        """Add a signal; duplicate names raise :class:`SignalError`."""
        if signal.key in self._signals:
            raise SignalError(f"duplicate signal name: {signal.name!r}")
        self._signals[signal.key] = signal

    def get(self, name: str) -> Signal:
        """Look a signal up by (case-insensitive) name."""
        try:
            return self._signals[str(name).lower()]
        except KeyError as exc:
            raise SignalError(f"unknown signal: {name!r}") from exc

    def __contains__(self, name: object) -> bool:
        return str(name).lower() in self._signals

    def __iter__(self) -> Iterator[Signal]:
        return iter(self._signals.values())

    def __len__(self) -> int:
        return len(self._signals)

    @property
    def names(self) -> tuple[str, ...]:
        """Signal names in sheet order."""
        return tuple(signal.name for signal in self._signals.values())

    @property
    def inputs(self) -> tuple[Signal, ...]:
        """All signals the test stand stimulates."""
        return tuple(s for s in self if s.is_input)

    @property
    def outputs(self) -> tuple[Signal, ...]:
        """All signals the test stand measures."""
        return tuple(s for s in self if s.is_output)

    @property
    def initial_statuses(self) -> Mapping[str, str]:
        """Mapping signal name -> initial status name (only where defined)."""
        return {
            signal.name: signal.initial_status
            for signal in self
            if signal.initial_status
        }

    def pins(self) -> tuple[str, ...]:
        """All DUT pins referenced by any signal, in first-seen order."""
        seen: dict[str, None] = {}
        for signal in self:
            for pin in signal.pins:
                seen.setdefault(pin, None)
        return tuple(seen)

    def signal_for_pin(self, pin: str) -> Signal:
        """Find the signal a physical pin belongs to."""
        wanted = str(pin).lower()
        for signal in self:
            if any(p.lower() == wanted for p in signal.pins):
                return signal
        raise SignalError(f"no signal owns pin {pin!r}")

    def __repr__(self) -> str:
        return f"SignalSet(dut={self.dut!r}, signals={list(self._signals)!r})"


def merge_signal_sets(sets: Iterable[SignalSet], *, dut: str,
                      composition: str | None = None) -> SignalSet:
    """Union of member signal definition sheets, with collision detection.

    Field-identical redefinitions deduplicate silently - that is the shared
    vocabulary case, e.g. two members both declaring the same ``IGN_ST``
    bus signal.  A same-named signal with a *different* definition is a
    composition error: the sheets would no longer say which member's signal
    a step means.
    """
    merged = SignalSet(dut=dut, composition=composition)
    for signal_set in sets:
        for signal in signal_set:
            if signal.name in merged:
                existing = merged.get(signal.name)
                if existing == signal:
                    continue
                raise CompositionError(
                    f"signal {signal.name!r} is defined differently by two "
                    f"composed members ({existing!r} vs {signal!r})"
                )
            merged.add(signal)
    return merged

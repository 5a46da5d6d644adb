"""A small CAN message database (the role a DBC file plays in practice).

Test definitions refer to bus signals by name (``IGN_ST``, ``NIGHT``); the
database records which message carries each signal and how the payload is
laid out, so the CAN interface resource can turn ``put_can data="0001B"``
into an actual frame and the ECU model can decode received frames.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

from ..core.errors import ValueError_
from .codec import SignalCoding
from .frame import CanFrame

__all__ = ["MessageDefinition", "CanDatabase"]


@dataclass(frozen=True)
class MessageDefinition:
    """Layout of one CAN message: identifier, length and contained signals."""

    name: str
    can_id: int
    length: int
    signals: tuple[SignalCoding, ...] = ()
    cycle_time: float | None = None
    sender: str = ""
    description: str = ""

    def __post_init__(self) -> None:
        if not str(self.name).strip():
            raise ValueError_("message definition needs a name")
        if self.length < 0 or self.length > 8:
            raise ValueError_(f"message length must be 0..8 bytes, got {self.length}")
        signals = tuple(self.signals)
        object.__setattr__(self, "signals", signals)
        for index, coding in enumerate(signals):
            if coding.start_bit + coding.bit_length > 8 * self.length:
                raise ValueError_(
                    f"signal {coding.name!r} exceeds the {self.length}-byte payload "
                    f"of message {self.name!r}"
                )
            for other in signals[index + 1:]:
                if coding.key == other.key:
                    raise ValueError_(
                        f"duplicate signal {coding.name!r} in message {self.name!r}"
                    )
                if coding.overlaps(other):
                    raise ValueError_(
                        f"signals {coding.name!r} and {other.name!r} overlap in "
                        f"message {self.name!r}"
                    )

    @property
    def key(self) -> str:
        return self.name.lower()

    def signal(self, name: str) -> SignalCoding:
        wanted = str(name).lower()
        for coding in self.signals:
            if coding.key == wanted:
                return coding
        raise ValueError_(f"message {self.name!r} has no signal {name!r}")

    def signal_names(self) -> tuple[str, ...]:
        return tuple(coding.name for coding in self.signals)

    # -- encode / decode ------------------------------------------------------

    def encode(self, values: Mapping[str, float], *, base_payload: int = 0) -> CanFrame:
        """Encode physical signal values into a frame.

        Signals not mentioned keep the bits of *base_payload* (zero by
        default), which lets callers update a single signal of a cyclic
        message.
        """
        payload = base_payload
        for name, value in values.items():
            payload = self.signal(name).encode(payload, value)
        return CanFrame.from_int(self.can_id, payload, self.length)

    def encode_raw(self, payload: int) -> CanFrame:
        """Encode a raw integer payload (e.g. the literal ``0001B``)."""
        return CanFrame.from_int(self.can_id, payload, self.length)

    def decode(self, frame: CanFrame) -> dict[str, float]:
        """Decode all signal values from a frame of this message."""
        if frame.can_id != self.can_id:
            raise ValueError_(
                f"frame id {frame.can_id:#x} does not match message "
                f"{self.name!r} ({self.can_id:#x})"
            )
        payload = frame.as_int()
        return {coding.name: coding.decode(payload) for coding in self.signals}


class CanDatabase:
    """A collection of message definitions with signal-name lookup."""

    def __init__(self, messages: Iterable[MessageDefinition] = (), *, name: str = "candb"):
        self.name = name
        self._messages: dict[str, MessageDefinition] = {}
        self._by_id: dict[int, MessageDefinition] = {}
        for message in messages:
            self.add(message)

    def add(self, message: MessageDefinition) -> None:
        if message.key in self._messages:
            raise ValueError_(f"duplicate message name {message.name!r}")
        if message.can_id in self._by_id:
            raise ValueError_(f"duplicate CAN id {message.can_id:#x}")
        self._messages[message.key] = message
        self._by_id[message.can_id] = message

    def message(self, name: str) -> MessageDefinition:
        try:
            return self._messages[str(name).lower()]
        except KeyError as exc:
            raise ValueError_(f"unknown CAN message {name!r}") from exc

    def message_by_id(self, can_id: int) -> MessageDefinition:
        try:
            return self._by_id[can_id]
        except KeyError as exc:
            raise ValueError_(f"no message with CAN id {can_id:#x}") from exc

    def message_for_signal(self, signal: str) -> MessageDefinition:
        """Find the message carrying a given signal name."""
        wanted = str(signal).lower()
        for message in self._messages.values():
            if any(coding.key == wanted for coding in message.signals):
                return message
        raise ValueError_(f"no message carries signal {signal!r}")

    def __contains__(self, name: object) -> bool:
        return str(name).lower() in self._messages

    def __iter__(self) -> Iterator[MessageDefinition]:
        return iter(self._messages.values())

    def __len__(self) -> int:
        return len(self._messages)

    def merged_with(self, other: "CanDatabase") -> "CanDatabase":
        """Combine two databases (disjoint names and ids required)."""
        merged = CanDatabase(self, name=f"{self.name}+{other.name}")
        for message in other:
            merged.add(message)
        return merged

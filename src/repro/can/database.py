"""A small CAN message database (the role a DBC file plays in practice).

Test definitions refer to bus signals by name (``IGN_ST``, ``NIGHT``); the
database records which message carries each signal and how the payload is
laid out, so the CAN interface resource can turn ``put_can data="0001B"``
into an actual frame and the ECU model can decode received frames.

Both are immutable once built, so each builds its lookup tables (names,
identifiers, signals) once, when it is constructed.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterable, Iterator, Mapping

from ..core.errors import ValueError_
from .codec import SignalCoding
from .frame import CanFrame

__all__ = ["MessageDefinition", "CanDatabase"]

#: How many frames, and how many decoded payloads, one message keeps.
MEMO_MAX = 64


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
        object.__setattr__(self, "_signals",
                           {coding.key: coding for coding in signals})
        # Frames by payload and decoded values by payload bytes (see
        # ``_frame`` and ``decode``).
        object.__setattr__(self, "_frames", {})
        object.__setattr__(self, "_decoded", {})

    def __reduce__(self):
        # Pickle the fields only: the signal table is rebuilt on load and
        # the memos start empty.
        return (type(self), tuple(getattr(self, f.name) for f in fields(self)))

    @property
    def key(self) -> str:
        return self.name.lower()

    def signal(self, name: str) -> SignalCoding:
        coding = self._signals.get(str(name).lower())
        if coding is None:
            raise ValueError_(f"message {self.name!r} has no signal {name!r}")
        return coding

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
        return self._frame(payload)

    def encode_raw(self, payload: int) -> CanFrame:
        """Encode a raw integer payload (e.g. the literal ``0001B``)."""
        return self._frame(payload)

    def _frame(self, payload: int) -> CanFrame:
        """The frame carrying *payload*, built once per ``int`` payload.

        Frames are immutable, and a campaign sends the same few payloads
        (its sheets' literals, once per fault) again and again; at most
        :data:`MEMO_MAX` are kept.
        """
        frames = self._frames
        frame = frames.get(payload) if type(payload) is int else None
        if frame is None:
            frame = CanFrame.from_int(self.can_id, payload, self.length)
            if type(payload) is int and len(frames) < MEMO_MAX:
                frames[payload] = frame
        return frame

    def decode(self, frame: CanFrame) -> dict[str, float]:
        """Decode all signal values from a frame of this message.

        Returns a new dict on every call; the values of each distinct
        payload (at most :data:`MEMO_MAX`) are computed once.
        """
        if frame.can_id != self.can_id:
            raise ValueError_(
                f"frame id {frame.can_id:#x} does not match message "
                f"{self.name!r} ({self.can_id:#x})"
            )
        # A frame's data is always exact ``bytes`` (see ``CanFrame``).
        decoded = self._decoded.get(frame.data)
        if decoded is None:
            payload = frame.as_int()
            decoded = {coding.name: coding.decode(payload)
                       for coding in self.signals}
            if len(self._decoded) < MEMO_MAX:
                self._decoded[frame.data] = decoded
        return dict(decoded)


class CanDatabase:
    """An immutable collection of message definitions with signal-name lookup.

    Built once from its messages; names and identifiers must be unique.
    To add messages, build a new database from the old one's messages.
    """

    def __init__(self, messages: Iterable[MessageDefinition] = (), *, name: str = "candb"):
        self._name = name
        by_key: dict[str, MessageDefinition] = {}
        by_id: dict[int, MessageDefinition] = {}
        by_signal: dict[str, MessageDefinition] = {}
        for message in messages:
            if message.key in by_key:
                raise ValueError_(f"duplicate message name {message.name!r}")
            if message.can_id in by_id:
                raise ValueError_(f"duplicate CAN id {message.can_id:#x}")
            by_key[message.key] = message
            by_id[message.can_id] = message
            for coding in message.signals:
                # The first message carrying a signal wins.
                by_signal.setdefault(coding.key, message)
        self._messages = by_key
        self._by_id = by_id
        self._by_signal = by_signal

    @property
    def name(self) -> str:
        return self._name

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
        try:
            return self._by_signal[str(signal).lower()]
        except KeyError as exc:
            raise ValueError_(f"no message carries signal {signal!r}") from exc

    def __contains__(self, name: object) -> bool:
        return str(name).lower() in self._messages

    def __iter__(self) -> Iterator[MessageDefinition]:
        return iter(self._messages.values())

    def __len__(self) -> int:
        return len(self._messages)

    def merged_with(self, other: "CanDatabase") -> "CanDatabase":
        """Combine two databases (disjoint names and ids required)."""
        return CanDatabase([*self, *other], name=f"{self.name}+{other.name}")

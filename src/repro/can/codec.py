"""Bit-level packing of signal values into CAN payloads.

Signals are placed Intel-style (little endian): ``start_bit`` counts from the
least significant bit of the little-endian payload integer, ``bit_length``
gives the field width.  Values can carry a linear scaling (``factor`` /
``offset``) which is enough for the automotive body signals this library
ships (ignition status, door states, lock states, wiper stalk positions).
"""

from __future__ import annotations

from .._record import Record
from ..core.errors import ValueError_

__all__ = ["SignalCoding", "pack_field", "unpack_field"]


def pack_field(payload: int, start_bit: int, bit_length: int, raw_value: int) -> int:
    """Insert *raw_value* into *payload* at the given bit position."""
    if bit_length <= 0:
        raise ValueError_("bit_length must be positive")
    if start_bit < 0:
        raise ValueError_("start_bit must be non-negative")
    if raw_value < 0 or raw_value >= (1 << bit_length):
        raise ValueError_(
            f"raw value {raw_value} does not fit into {bit_length} bits"
        )
    mask = ((1 << bit_length) - 1) << start_bit
    return (payload & ~mask) | (raw_value << start_bit)


def unpack_field(payload: int, start_bit: int, bit_length: int) -> int:
    """Extract the raw field value from *payload*."""
    if bit_length <= 0:
        raise ValueError_("bit_length must be positive")
    if start_bit < 0:
        raise ValueError_("start_bit must be non-negative")
    return (payload >> start_bit) & ((1 << bit_length) - 1)


class SignalCoding(Record):
    """Placement and scaling of one signal within a CAN message payload."""

    name: str
    start_bit: int
    bit_length: int
    factor: float = 1.0
    offset: float = 0.0
    unit: str = ""
    description: str = ""

    def __init__(self, name: str, start_bit: int, bit_length: int,
                 factor: float = 1.0, offset: float = 0.0, unit: str = "",
                 description: str = "") -> None:
        if not str(name).strip():
            raise ValueError_("signal coding needs a name")
        if bit_length <= 0 or bit_length > 64:
            raise ValueError_(f"bit_length must be 1..64, got {bit_length}")
        if start_bit < 0 or start_bit + bit_length > 64:
            raise ValueError_(
                f"signal {name!r} does not fit into an 8-byte payload"
            )
        if factor == 0:
            raise ValueError_("factor must not be zero")
        self.__dict__.update(name=name, start_bit=start_bit,
                             bit_length=bit_length, factor=factor,
                             offset=offset, unit=unit, description=description)

    @property
    def key(self) -> str:
        return self.name.lower()

    @property
    def max_raw(self) -> int:
        """Largest raw (unscaled) value the field can hold."""
        return (1 << self.bit_length) - 1

    def encode(self, payload: int, physical_value: float) -> int:
        """Insert a physical value (scaled to raw) into *payload*."""
        raw = round((float(physical_value) - self.offset) / self.factor)
        if raw < 0 or raw > self.max_raw:
            raise ValueError_(
                f"value {physical_value} out of range for signal {self.name!r}"
            )
        return pack_field(payload, self.start_bit, self.bit_length, raw)

    def decode(self, payload: int) -> float:
        """Extract the physical value of the signal from *payload*."""
        raw = unpack_field(payload, self.start_bit, self.bit_length)
        return raw * self.factor + self.offset

    def overlaps(self, other: "SignalCoding") -> bool:
        """Whether the two signals share any payload bit."""
        start_a, end_a = self.start_bit, self.start_bit + self.bit_length
        start_b, end_b = other.start_bit, other.start_bit + other.bit_length
        return start_a < end_b and start_b < end_a

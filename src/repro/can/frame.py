"""CAN frames.

The paper's example carries the ignition status and the light-sensor bit to
the DUT as CAN data (method ``put_can``).  This module models the frame
itself; encoding/decoding of signal values lives in
:mod:`repro.can.codec` and :mod:`repro.can.database`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.errors import ValueError_

__all__ = ["CanFrame", "MAX_STANDARD_ID", "MAX_EXTENDED_ID"]

#: Highest 11-bit (standard) CAN identifier.
MAX_STANDARD_ID = 0x7FF
#: Highest 29-bit (extended) CAN identifier.
MAX_EXTENDED_ID = 0x1FFF_FFFF


@dataclass(frozen=True)
class CanFrame:
    """One classical CAN data frame.

    Attributes
    ----------
    can_id:
        Arbitration identifier (11-bit standard or 29-bit extended).
    data:
        Payload bytes, at most 8 for classical CAN.
    extended:
        Whether the identifier is a 29-bit extended one.
    timestamp:
        Simulated transmit time in seconds (0.0 when unknown).
    """

    can_id: int
    data: bytes
    extended: bool = False
    timestamp: float = 0.0

    def __post_init__(self) -> None:
        limit = MAX_EXTENDED_ID if self.extended else MAX_STANDARD_ID
        if not 0 <= self.can_id <= limit:
            raise ValueError_(
                f"CAN id {self.can_id:#x} out of range for "
                f"{'extended' if self.extended else 'standard'} frames"
            )
        data = bytes(self.data)
        if len(data) > 8:
            raise ValueError_(f"classical CAN payload limited to 8 bytes, got {len(data)}")
        object.__setattr__(self, "data", data)

    def stamped(self, timestamp: float) -> "CanFrame":
        """This frame at *timestamp*.

        A frame was checked when it was built and cannot change, so the copy
        skips the checks.
        """
        frame = object.__new__(type(self))
        frame.__dict__.update(self.__dict__, timestamp=timestamp)
        return frame

    @property
    def dlc(self) -> int:
        """Data length code (payload length in bytes)."""
        return len(self.data)

    def as_int(self) -> int:
        """Payload interpreted as one little-endian unsigned integer."""
        return int.from_bytes(self.data, "little")

    @classmethod
    def from_int(
        cls,
        can_id: int,
        value: int,
        length: int,
        *,
        extended: bool = False,
        timestamp: float = 0.0,
    ) -> "CanFrame":
        """Build a frame whose payload is *value* little-endian in *length* bytes."""
        if value < 0:
            raise ValueError_("CAN payload value must be non-negative")
        if length < 0 or length > 8:
            raise ValueError_(f"CAN payload length must be 0..8, got {length}")
        if value >= (1 << (8 * length)) and length > 0:
            raise ValueError_(
                f"value {value} does not fit into {length} payload bytes"
            )
        return cls(
            can_id=can_id,
            data=value.to_bytes(length, "little"),
            extended=extended,
            timestamp=timestamp,
        )

    def __str__(self) -> str:
        payload = " ".join(f"{byte:02X}" for byte in self.data)
        return f"CAN {self.can_id:#05x} [{self.dlc}] {payload}".rstrip()

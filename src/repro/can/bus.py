"""A virtual CAN bus: broadcast delivery between attached nodes.

The bus is intentionally simple - no arbitration timing, no error frames -
because the component tests the paper describes operate at the level of
"send this payload" / "did the DUT report that value".  What matters for the
reproduction is that the CAN interface resource of the test stand and the
ECU model are decoupled exactly like real hardware: both only see frames.
"""

from __future__ import annotations

from typing import Callable, Iterable

from ..core.errors import ValueError_
from .frame import CanFrame

__all__ = ["CanBus", "CanNode", "DuplicateNodeError"]

Listener = Callable[[CanFrame], None]


class DuplicateNodeError(ValueError_):
    """Two nodes with the same name were attached to one bus.

    Node names identify senders in the transmit log and address receive
    histories, so a silent duplicate would make traffic unattributable.
    Stays a :class:`ValueError_` so pre-existing ``except`` clauses keep
    working; carries the bus and node names for structured handling.
    """

    def __init__(self, bus: str, node: str):
        super().__init__(f"node name {node!r} already attached to bus {bus!r}")
        self.bus = bus
        self.node = node


class CanNode:
    """One attachment point on the bus (an ECU or a test-stand interface)."""

    def __init__(self, bus: "CanBus", name: str, listener: Listener | None = None):
        self._bus = bus
        self.name = name
        self._listener = listener
        self.received: list[CanFrame] = []

    def transmit(self, frame: CanFrame) -> None:
        """Send a frame onto the bus (delivered to every other node)."""
        self._bus.transmit(frame, sender=self)

    def deliver(self, frame: CanFrame) -> None:
        """Called by the bus when another node transmitted a frame."""
        self.received.append(frame)
        if self._listener is not None:
            self._listener(frame)

    def last_frame(self, can_id: int | None = None) -> CanFrame | None:
        """Most recent received frame, optionally filtered by identifier."""
        for frame in reversed(self.received):
            if can_id is None or frame.can_id == can_id:
                return frame
        return None

    def clear(self) -> None:
        """Forget all received frames."""
        self.received.clear()


class CanBus:
    """Broadcast medium connecting :class:`CanNode` instances."""

    def __init__(self, name: str = "can0"):
        self.name = name
        self._nodes: list[CanNode] = []
        self._log: list[tuple[str, CanFrame]] = []
        self._time = 0.0

    def attach(self, name: str, listener: Listener | None = None) -> CanNode:
        """Create and attach a new node."""
        if any(node.name == name for node in self._nodes):
            raise DuplicateNodeError(self.name, name)
        node = CanNode(self, name, listener)
        self._nodes.append(node)
        return node

    def detach(self, node: CanNode) -> None:
        """Remove a node from the bus."""
        self._nodes = [n for n in self._nodes if n is not node]

    def set_time(self, seconds: float) -> None:
        """Update the bus clock used to timestamp frames."""
        self._time = float(seconds)

    def transmit(self, frame: CanFrame, *, sender: CanNode | None = None) -> CanFrame:
        """Deliver a frame to every node except the sender; returns the stamped frame."""
        stamped = frame.stamped(self._time)
        self._log.append((sender.name if sender else "<anonymous>", stamped))
        for node in self._nodes:
            if node is sender:
                continue
            node.deliver(stamped)
        return stamped

    @property
    def nodes(self) -> tuple[CanNode, ...]:
        return tuple(self._nodes)

    @property
    def traffic(self) -> tuple[tuple[str, CanFrame], ...]:
        """Full transmit log as (sender name, frame) pairs."""
        return tuple(self._log)

    def frames(self, can_id: int | None = None) -> tuple[CanFrame, ...]:
        """All transmitted frames, optionally filtered by identifier."""
        return tuple(
            frame for _, frame in self._log if can_id is None or frame.can_id == can_id
        )

    def clear_log(self) -> None:
        """Forget the transmit log (nodes keep their own receive history)."""
        self._log.clear()

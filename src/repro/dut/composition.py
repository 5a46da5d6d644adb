"""Multi-ECU composition: several DUTs on one shared CAN harness.

Single-DUT sheets structurally cannot catch "passes alone, fails composed"
escapes: the stand synthesises every bus stimulus, so a producer that
broadcasts garbage and a consumer that trusts it both look healthy in
isolation.  This module provides the wiring level of compositional testing:

* :class:`EcuAssembly` - an ordered, alias-keyed set of ECU models with
  cross-member pin-collision detection.  It exposes enough of the
  :class:`~repro.dut.base.EcuModel` surface (``name``, ``pins``,
  ``has_pin``, ``pin``, ``reset``) for harness- and campaign-level code to
  treat it like one big DUT.
* :class:`CompositionHarness` - the per-member
  :class:`~repro.dut.harness.TestHarness` instances re-homed onto one
  shared :class:`~repro.can.CanBus` with a single test-stand attachment,
  so every member sees every frame.  Electrical primitives dispatch to the
  member owning the pin; CAN primitives operate on the shared bus.

The interpreter only ever talks to the harness duck-type, so composed runs
take both execution modes unchanged: composed sheets compile to the
bytecode VM like any other, and the classic walk stays the reference (see
``repro.teststand.vm``).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

from ..can import CanBus, CanDatabase, CanFrame
from ..core.errors import CompositionError, HarnessError
from .base import EcuModel
from .harness import TestHarness
from .pins import Pin

__all__ = ["EcuAssembly", "CompositionHarness", "merge_databases"]


def merge_databases(databases: Iterable[CanDatabase]) -> CanDatabase:
    """Merge member CAN databases, deduplicating identical definitions.

    Two members routinely share one body catalogue; a *conflicting*
    redefinition (same name or identifier, different layout) is a wiring
    error and raises :class:`CompositionError`.
    """
    merged = CanDatabase()
    by_name: dict[str, object] = {}
    by_id: dict[int, object] = {}
    for database in databases:
        if database is None:
            continue
        for message in database:
            known = by_name.get(message.name.lower())
            if known is not None or message.can_id in by_id:
                known = known or by_id[message.can_id]
                if message == known:
                    continue
                raise CompositionError(
                    f"conflicting CAN message definition {message.name!r} "
                    f"(id 0x{message.can_id:x}) between composed members"
                )
            merged.add(message)
            by_name[message.name.lower()] = message
            by_id[message.can_id] = message
    return merged


class EcuAssembly:
    """An ordered set of member ECUs, addressed by composition alias."""

    def __init__(self, members: Sequence[tuple[str, EcuModel]], name: str = ""):
        self._members: dict[str, EcuModel] = {}
        self._pin_owner: dict[str, str] = {}
        for alias, ecu in members:
            key = str(alias).lower()
            if not key:
                raise CompositionError("composition member alias must be non-empty")
            if key in self._members:
                raise CompositionError(f"duplicate composition member alias {alias!r}")
            if not isinstance(ecu, EcuModel):
                raise CompositionError(
                    f"composition member {alias!r} is not an EcuModel")
            for pin in ecu.pins:
                owner = self._pin_owner.get(pin.key)
                if owner is not None:
                    raise CompositionError(
                        f"pin {pin.name!r} of member {alias!r} collides with "
                        f"member {owner!r} - adapter pin namespaces must be disjoint"
                    )
                self._pin_owner[pin.key] = key
            self._members[key] = ecu
        if not self._members:
            raise CompositionError("a composition needs at least one member")
        self.name = name or "+".join(self._members)

    # -- structure ---------------------------------------------------------------

    @property
    def aliases(self) -> tuple[str, ...]:
        return tuple(self._members)

    @property
    def members(self) -> tuple[tuple[str, EcuModel], ...]:
        return tuple(self._members.items())

    def member(self, alias: str) -> EcuModel:
        try:
            return self._members[str(alias).lower()]
        except KeyError as exc:
            raise CompositionError(
                f"composition {self.name!r} has no member {alias!r} "
                f"(members: {', '.join(self._members)})"
            ) from exc

    def __iter__(self) -> Iterator[EcuModel]:
        return iter(self._members.values())

    def __len__(self) -> int:
        return len(self._members)

    # -- EcuModel-compatible surface ----------------------------------------------

    @property
    def pins(self) -> tuple[Pin, ...]:
        return tuple(pin for ecu in self for pin in ecu.pins)

    def has_pin(self, name: str) -> bool:
        return str(name).lower() in self._pin_owner

    def pin(self, name: str) -> Pin:
        return self.owner_of(name)[1].pin(name)

    def owner_of(self, pin: str) -> tuple[str, EcuModel]:
        """(alias, member) owning *pin*; raises like a harness on unknown pins."""
        alias = self._pin_owner.get(str(pin).lower())
        if alias is None:
            raise HarnessError(
                f"composition {self.name!r} has no pin {pin!r} on any member")
        return alias, self._members[alias]

    def reset(self) -> None:
        for ecu in self:
            ecu.reset()

    def __repr__(self) -> str:
        return f"EcuAssembly({self.name!r}, members={list(self._members)})"


class CompositionHarness:
    """Member harnesses joined on one bus, presented as a single harness."""

    def __init__(
        self,
        assembly: EcuAssembly,
        harnesses: Mapping[str, TestHarness],
        *,
        ubatt: float = 12.0,
    ):
        self.ecu = assembly
        self._harnesses: dict[str, TestHarness] = {}
        self.bus = CanBus(name=f"{assembly.name}_can")
        self._stand_node = self.bus.attach("test_stand")
        for alias, _member in assembly.members:
            try:
                harness = harnesses[alias]
            except KeyError as exc:
                raise CompositionError(
                    f"no harness supplied for composition member {alias!r}"
                ) from exc
            if harness.ecu is not assembly.member(alias):
                raise CompositionError(
                    f"harness for member {alias!r} wraps a different ECU instance")
            harness.join_bus(self.bus, node_name=alias,
                             stand_node=self._stand_node)
            self._harnesses[alias] = harness
        self.can_db = merge_databases(
            harness.can_db for harness in self._harnesses.values())
        self._ubatt = float(ubatt)
        self.set_ubatt(ubatt)

    # -- member access -------------------------------------------------------------

    @property
    def members(self) -> tuple[tuple[str, TestHarness], ...]:
        return tuple(self._harnesses.items())

    def _owner(self, pin: str) -> TestHarness:
        alias, _member = self.ecu.owner_of(pin)
        return self._harnesses[alias]

    # -- supply & clock --------------------------------------------------------------

    @property
    def ubatt(self) -> float:
        return self._ubatt

    def set_ubatt(self, volts: float) -> None:
        if volts < 0:
            raise HarnessError("supply voltage must be non-negative")
        self._ubatt = float(volts)
        for harness in self._harnesses.values():
            harness.set_ubatt(volts)

    @property
    def now(self) -> float:
        return next(iter(self._harnesses.values())).now

    def advance(self, dt: float) -> None:
        for harness in self._harnesses.values():
            harness.advance(dt)

    def reset(self) -> None:
        for harness in self._harnesses.values():
            harness.reset()

    def variables(self) -> dict[str, float]:
        return {"ubatt": self._ubatt, "t": self.now}

    # -- electrical primitives: dispatch to the owning member ---------------------------

    def apply_resistance(self, pin: str, ohms: float) -> float:
        return self._owner(pin).apply_resistance(pin, ohms)

    def release_resistance(self, pin: str) -> None:
        self._owner(pin).release_resistance(pin)

    def apply_voltage(self, pin: str, volts: float) -> float:
        return self._owner(pin).apply_voltage(pin, volts)

    def applied_resistance(self, pin: str) -> float | None:
        return self._owner(pin).applied_resistance(pin)

    def measure_voltage(self, pins: Sequence[str] | str) -> float:
        if isinstance(pins, str):
            pins = (pins,)
        if not pins:
            raise HarnessError("measure_voltage needs at least one pin")
        owners = {self.ecu.owner_of(pin)[0] for pin in pins}
        if len(owners) > 1:
            raise HarnessError(
                "cross-member differential measurement is not supported: "
                f"pins {tuple(pins)!r} span members {sorted(owners)!r}"
            )
        return self._harnesses[owners.pop()].measure_voltage(pins)

    def measure_current(self, pin: str) -> float:
        return self._owner(pin).measure_current(pin)

    def measure_resistance(self, pin: str) -> float:
        return self._owner(pin).measure_resistance(pin)

    # -- CAN: one shared bus, one stand attachment ---------------------------------------

    def send_can_payload(self, message: str, payload: int) -> CanFrame:
        definition = self.can_db.message(message)
        return self._stand_node.transmit(definition.encode_raw(payload))

    def send_can_signal(self, signal: str, value: float) -> CanFrame:
        definition = self.can_db.message_for_signal(signal)
        last = self._stand_node.last_frame(definition.can_id)
        if last is None:
            for _sender, frame in reversed(self.bus.traffic):
                if frame.can_id == definition.can_id:
                    last = frame
                    break
        base = last.as_int() if last is not None else 0
        return self._stand_node.transmit(
            definition.encode({signal: value}, base_payload=base))

    def last_can_payload(self, message: str) -> int | None:
        definition = self.can_db.message(message)
        frame = self._stand_node.last_frame(definition.can_id)
        return frame.as_int() if frame is not None else None

    def last_can_signal(self, message: str, signal: str) -> float | None:
        definition = self.can_db.message(message)
        frame = self._stand_node.last_frame(definition.can_id)
        if frame is None:
            return None
        return definition.decode(frame).get(definition.signal(signal).name)

    def __repr__(self) -> str:
        return (
            f"CompositionHarness({self.ecu.name!r}, "
            f"members={[alias for alias, _ in self.members]}, "
            f"ubatt={self._ubatt} V)"
        )

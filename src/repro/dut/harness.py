"""DUT harness: the wiring between a virtual test stand and an ECU model.

The harness plays the role of the physical adapter cable plus the laboratory
power supply: it owns the simulated battery voltage, the external loads
(lamps, motors), the CAN bus connecting the ECU to the test stand's CAN
interface, and the simulated clock.  Instruments never talk to the ECU model
directly - they only call the harness' electrical/bus primitives, exactly
like real instruments only ever see the connector:

* :meth:`apply_resistance` / :meth:`release_resistance`  (resistor decade)
* :meth:`apply_voltage`                                   (power supply / generator)
* :meth:`measure_voltage` / :meth:`measure_current`        (DVM, current probe)
* :meth:`send_can_payload` / :meth:`last_can_payload`      (CAN interface)
* :meth:`advance`                                          (test sequencer clock)

Voltages are computed with a small nodal-analysis network
(:mod:`repro.dut.network`) combining the ECU's driver stages, the configured
loads, the externally applied resistances/voltages and the meter impedance.
Readings are cached per electrical state: :func:`node_voltages` builds and
solves the network from plain values only, and keeps its results in a
bounded per-process LRU, so each distinct state is solved once.
"""

from __future__ import annotations

import functools
import math
from types import MappingProxyType
from typing import Mapping, Sequence

from ..can import CanBus, CanDatabase, CanFrame
from ..core.errors import HarnessError
from .base import EcuModel
from .network import GROUND, Network

__all__ = ["LoadSpec", "TestHarness", "node_voltages"]


class LoadSpec:
    """External load wired between two DUT pins (or one pin and ground)."""

    def __init__(self, pin_a: str, pin_b: str = GROUND, ohms: float = 10.0, name: str = ""):
        if ohms <= 0:
            raise HarnessError("load resistance must be positive")
        self.pin_a = str(pin_a).lower()
        self.pin_b = str(pin_b).lower()
        self.ohms = float(ohms)
        self.name = name or f"load_{self.pin_a}_{self.pin_b}"

    def __repr__(self) -> str:
        return f"LoadSpec({self.pin_a!r}, {self.pin_b!r}, {self.ohms} Ohm)"


@functools.lru_cache(maxsize=1024)
def node_voltages(
    pins: tuple[tuple[str, float | None, float | None], ...],
    ubatt: float,
    loads: tuple[tuple[str, str, float], ...],
    resistances: tuple[tuple[str, float], ...],
    voltages: tuple[tuple[str, float], ...],
    meter: tuple[str, ...],
    dvm_impedance: float,
) -> Mapping[str, float]:
    """Solved node voltages of one electrical state (read-only mapping).

    The arguments are everything that stamps the network, as plain values:
    every ECU pin as ``(key, level, resistance)`` in pin order (level and
    resistance ``None`` while the pin is not driven), the supply, the loads
    as ``(pin_a, pin_b, ohms)``, the applied resistances and voltages in
    insertion order, the meter's pin keys (none, one against ground, or
    two) and its impedance.  Stamp order is kept because it changes the
    float rounding.  A reading depends on nothing else, which is what makes
    caching it safe; a singular network raises on every call, because
    ``lru_cache`` does not keep exceptions.  Arguments compare with ``==``,
    so ``0.0`` and ``-0.0`` share an entry: a zero reading may come back
    with either sign.
    """
    network = Network()
    network.add_voltage_source("vbat", GROUND, ubatt)
    # ECU driver stages.
    for key, level, resistance in pins:
        network.node(key)
        if level is not None:
            network.add_thevenin(key, level * ubatt, resistance)
    # External loads.
    for pin_a, pin_b, ohms in loads:
        network.add_resistor(pin_a, pin_b, ohms)
    # Test-stand stimuli.
    for pin, ohms in resistances:
        network.add_resistor(pin, GROUND, ohms)
    for pin, volts in voltages:
        network.add_voltage_source(pin, GROUND, volts)
    # Meter impedance.
    if meter:
        network.add_resistor(meter[0], meter[1] if len(meter) > 1 else GROUND,
                             dvm_impedance)
    return MappingProxyType(network.solve())


class TestHarness:
    """Wiring, supply, loads, bus and clock around one ECU model."""

    __test__ = False  # a domain class, not a pytest test class

    #: Input impedance of the voltage-measuring instrument [Ohm].
    DVM_IMPEDANCE = 10.0e6

    def __init__(
        self,
        ecu: EcuModel,
        can_db: CanDatabase | None = None,
        *,
        ubatt: float = 12.0,
        loads: Sequence[LoadSpec] = (),
        dvm_impedance: float | None = None,
    ):
        self.ecu = ecu
        self.can_db = can_db
        self._ubatt = float(ubatt)
        self._loads = list(loads)
        self._dvm_impedance = float(
            self.DVM_IMPEDANCE if dvm_impedance is None else dvm_impedance)
        if not self._dvm_impedance > 0:
            raise HarnessError("DVM impedance must be positive")
        self._now = 0.0
        self._applied_resistances: dict[str, float] = {}
        self._applied_voltages: dict[str, float] = {}

        self.bus = CanBus(name=f"{ecu.name}_can")
        self._ecu_node = self.bus.attach(ecu.name, listener=self._deliver_to_ecu)
        self._stand_node = self.bus.attach("test_stand")

    def join_bus(self, bus: CanBus, *, node_name: str | None = None,
                 stand_node=None):
        """Re-home this harness onto a shared bus (multi-ECU composition).

        The private per-harness bus is abandoned: the ECU re-attaches to
        *bus* (as *node_name* when given, so compositions can namespace
        members), and the stand side either attaches its own node or - when
        a shared *stand_node* is passed - reuses the composition's single
        test-stand attachment so every member sees the same traffic.
        Returns the new ECU node.
        """
        self.bus.detach(self._ecu_node)
        self.bus.detach(self._stand_node)
        self.bus = bus
        self._ecu_node = bus.attach(node_name or self.ecu.name,
                                    listener=self._deliver_to_ecu)
        self._stand_node = (stand_node if stand_node is not None
                            else bus.attach("test_stand"))
        return self._ecu_node

    # -- supply & clock ---------------------------------------------------------

    @property
    def ubatt(self) -> float:
        """Battery supply voltage of the DUT in volts."""
        return self._ubatt

    def set_ubatt(self, volts: float) -> None:
        if volts < 0:
            raise HarnessError("supply voltage must be non-negative")
        self._ubatt = float(volts)
        self.ecu.set_power(volts > 6.0)

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance(self, dt: float) -> None:
        """Advance simulated time by *dt* seconds (fires ECU timers)."""
        if dt < 0:
            raise HarnessError("cannot advance time backwards")
        self._now += float(dt)
        self.bus.set_time(self._now)
        self.ecu.advance_to(self._now)
        self._flush_ecu_transmissions()

    def reset(self) -> None:
        """Reset the DUT and remove every applied stimulus (time keeps running)."""
        self._applied_resistances.clear()
        self._applied_voltages.clear()
        self.ecu.reset()
        self._stand_node.clear()
        self._ecu_node.clear()

    # -- variables for the interpreter -------------------------------------------

    def variables(self) -> dict[str, float]:
        """Stand variables available to limit expressions (``ubatt``, ``t``)."""
        return {"ubatt": self._ubatt, "t": self._now}

    # -- electrical stimuli -------------------------------------------------------

    def _pin_key(self, pin: str) -> str:
        key = self.ecu.pin_key(pin)
        if key is None:
            raise HarnessError(f"DUT {self.ecu.name!r} has no pin {pin!r}")
        return key

    def apply_resistance(self, pin: str, ohms: float) -> float:
        """Apply a resistance between *pin* and ground; returns the applied value."""
        key = self._pin_key(pin)
        value = float(ohms)
        if value < 0:
            raise HarnessError("applied resistance must be non-negative")
        self._applied_resistances[key] = value
        self._applied_voltages.pop(key, None)
        self.ecu.set_pin_resistance(key, value)
        return value

    def release_resistance(self, pin: str) -> None:
        """Remove an applied resistance (open circuit)."""
        key = self._pin_key(pin)
        self._applied_resistances.pop(key, None)
        self.ecu.clear_pin_resistance(key)

    def apply_voltage(self, pin: str, volts: float) -> float:
        """Apply a voltage between *pin* and ground; returns the applied value."""
        key = self._pin_key(pin)
        self._applied_voltages[key] = float(volts)
        self._applied_resistances.pop(key, None)
        self.ecu.set_pin_voltage(key, float(volts))
        return float(volts)

    def applied_resistance(self, pin: str) -> float | None:
        """Resistance currently applied to *pin* (``None`` when unconnected)."""
        return self._applied_resistances.get(str(pin).lower())

    # -- electrical measurements ----------------------------------------------------

    def _node_voltages(self, meter: tuple[str, ...] = ()) -> Mapping[str, float]:
        """Node voltages of the present state, with a meter across *meter*.

        Gathers the arguments of :func:`node_voltages` afresh on every call:
        the drives through ``ecu.output_drive`` (so a model whose readback
        raises fails the reading, cached or not), and the loads, which
        :meth:`add_load` extends and :class:`LoadSpec` lets callers mutate.
        The pins are the model class's tuple, built once per class.
        """
        ecu = self.ecu
        pins = []
        for pin in ecu.pins:
            drive = ecu.output_drive(pin.name) if pin.is_output else None
            if drive is not None and drive.driven:
                pins.append((pin.key, drive.level, drive.resistance))
            else:
                pins.append((pin.key, None, None))
        return node_voltages(
            tuple(pins),
            self._ubatt,
            tuple((load.pin_a, load.pin_b, load.ohms) for load in self._loads),
            tuple(self._applied_resistances.items()),
            tuple(self._applied_voltages.items()),
            meter,
            self._dvm_impedance,
        )

    def measure_voltage(self, pins: Sequence[str] | str) -> float:
        """Voltage a DVM connected to *pins* would read.

        One pin measures against ground; two pins measure differentially
        (e.g. ``INT_ILL_F`` against ``INT_ILL_R`` in the paper's circuit).
        """
        if isinstance(pins, str):
            pins = (pins,)
        if not pins:
            raise HarnessError("measure_voltage needs at least one pin")
        if len(pins) > 2:
            raise HarnessError(
                f"measure_voltage takes one or two pins, got {len(pins)}")
        keys = tuple(map(self._pin_key, pins))
        voltages = self._node_voltages(keys)
        reference = keys[1] if len(keys) > 1 else GROUND
        return voltages[keys[0]] - voltages[reference]

    def measure_current(self, pin: str) -> float:
        """Current sourced by the ECU driver on *pin* in amperes."""
        key = self._pin_key(pin)
        drive = self.ecu.output_drive(key)
        if not drive.driven:
            return 0.0
        pin_voltage = self._node_voltages()[key]
        return (drive.level * self._ubatt - pin_voltage) / drive.resistance

    def measure_resistance(self, pin: str) -> float:
        """Resistance to ground seen at *pin* from the outside.

        A contact check, not a network solve: the driver's source
        resistance while the ECU drives *pin*, else the resistance the
        stand applied to it, else infinity (open).
        """
        key = self._pin_key(pin)
        ecu = self.ecu
        if ecu.pin(key).is_output:
            drive = ecu.output_drive(key)
            if drive.driven:
                return drive.resistance
        applied = self._applied_resistances.get(key)
        if applied is not None:
            return applied
        return math.inf

    # -- CAN ------------------------------------------------------------------------

    def _require_db(self) -> CanDatabase:
        if self.can_db is None:
            raise HarnessError("this harness has no CAN database configured")
        return self.can_db

    def _deliver_to_ecu(self, frame: CanFrame) -> None:
        if self.can_db is None:
            return
        try:
            message = self.can_db.message_by_id(frame.can_id)
        except Exception:
            return
        self.ecu.receive_message(message.name, message.decode(frame))
        self._flush_ecu_transmissions()

    def _flush_ecu_transmissions(self) -> None:
        if self.can_db is None:
            return
        for message_name, values in self.ecu.pending_transmissions():
            try:
                message = self.can_db.message(message_name)
            except Exception:
                continue
            self._ecu_node.transmit(message.encode(values))

    def send_can_payload(self, message: str, payload: int) -> CanFrame:
        """Transmit *message* with a raw integer payload (the ``put_can`` path)."""
        definition = self._require_db().message(message)
        frame = definition.encode_raw(payload)
        return self._stand_node.transmit(frame)

    def send_can_signal(self, signal: str, value: float) -> CanFrame:
        """Transmit the message carrying *signal* with the given physical value.

        Other signals of the message keep the last transmitted payload so that
        updating ``NIGHT`` does not clobber ``BRIGHTNESS``.
        """
        database = self._require_db()
        definition = database.message_for_signal(signal)
        base = 0
        last = self._stand_node.last_frame(definition.can_id)
        if last is None:
            for sender, frame in reversed(self.bus.traffic):
                if frame.can_id == definition.can_id:
                    last = frame
                    break
        if last is not None:
            base = last.as_int()
        frame = definition.encode({signal: value}, base_payload=base)
        return self._stand_node.transmit(frame)

    def last_can_payload(self, message: str) -> int | None:
        """Most recent payload of *message* received from the DUT."""
        definition = self._require_db().message(message)
        frame = self._stand_node.last_frame(definition.can_id)
        return frame.as_int() if frame is not None else None

    def last_can_signal(self, message: str, signal: str) -> float | None:
        """Most recent decoded value of *signal* received from the DUT."""
        definition = self._require_db().message(message)
        frame = self._stand_node.last_frame(definition.can_id)
        if frame is None:
            return None
        return definition.decode(frame).get(definition.signal(signal).name)

    # -- introspection ------------------------------------------------------------------

    @property
    def loads(self) -> tuple[LoadSpec, ...]:
        return tuple(self._loads)

    def add_load(self, load: LoadSpec) -> None:
        """Wire an additional external load."""
        for pin in (load.pin_a, load.pin_b):
            if pin != GROUND and not self.ecu.has_pin(pin):
                raise HarnessError(f"load references unknown pin {pin!r}")
        self._loads.append(load)

    def __repr__(self) -> str:
        return (
            f"TestHarness(ecu={self.ecu.name!r}, ubatt={self._ubatt} V, "
            f"loads={len(self._loads)}, now={self._now}s)"
        )

"""Concrete (virtual) test stands.

A :class:`TestStand` bundles what the paper says a stand must know about
itself: its resources (instruments with capability ranges), its connection
matrix, and its supply voltage (the ``UBATT`` variable the relative limits
refer to).  Three ready-made stands are provided:

``build_paper_stand``
    exactly the stand of the paper's Section 4: one DVM reachable over
    ``Sw1.1`` / ``Sw1.2`` and two resistor decades reachable over the
    ``Mx1..Mx4`` multiplexers, plus the CAN interface that the paper's
    example implicitly needs for ``put_can``.
``build_big_rack``
    a generously equipped rack (several DVMs, four decades, PSU, generator,
    current probe, digital I/O, CAN) with a full crossbar to every DUT pin.
``build_minimal_bench``
    a small bench with just enough equipment to run the paper's suite -
    different wiring, different instrument ranges, same verdicts.  Together
    with the other two it demonstrates the test-stand independence claim
    (benchmark E1).

All three builders accept an ``io_delay`` keyword that is forwarded to every
instrument: ``build_paper_stand(io_delay=0.005)`` is the paper stand with a
5 ms command round-trip per instrument call - a *latency-simulated* stand,
the workload the ``async`` execution backend multiplexes (benchmark A4).
The default of ``0`` keeps the purely virtual stands fast.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .._record import Record
from ..core.errors import AllocationError
from ..instruments import (
    CanInterface,
    CurrentProbe,
    DigitalIo,
    Dvm,
    Instrument,
    OhmMeter,
    PowerSupply,
    ResistorDecade,
    SignalGenerator,
)
from ..methods import MethodRegistry, default_registry
from .connection import ConnectionMatrix, DirectWire, MuxChannel, Route, Switch
from .resources import Resource, ResourceTable

__all__ = [
    "TestStand",
    "full_crossbar",
    "build_paper_stand",
    "build_big_rack",
    "build_minimal_bench",
    "PAPER_PINS",
]

#: DUT pins appearing in the paper's connection matrix, in the paper's order.
PAPER_PINS = ("INT_ILL_F", "INT_ILL_R", "DS_FL", "DS_FR", "DS_RL", "DS_RR")


class TestStand(Record):
    """One test stand: resources, connection matrix, supply and variables.

    The one mutable record: its fields can be assigned, so, like any
    mutable value, it compares by field but cannot be hashed.
    """

    name: str
    resources: ResourceTable
    connections: ConnectionMatrix
    supply_voltage: float = 12.0
    variables: dict[str, float]  # a new empty dict by default
    registry: MethodRegistry | None = None
    description: str = ""

    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None
    __test__ = False  # a domain class, not a pytest test class

    def __init__(self, name: str, resources: ResourceTable,
                 connections: ConnectionMatrix, supply_voltage: float = 12.0,
                 variables: dict[str, float] | None = None,
                 registry: MethodRegistry | None = None,
                 description: str = "") -> None:
        if not str(name).strip():
            raise AllocationError("test stand needs a name")
        if supply_voltage < 0:
            raise AllocationError("supply voltage must be non-negative")
        self.__dict__.update(
            name=name, resources=resources, connections=connections,
            supply_voltage=supply_voltage,
            variables={} if variables is None else variables,
            registry=default_registry() if registry is None else registry,
            description=description)

    def reset(self) -> None:
        """Restore the stand to its between-jobs idle state.

        Called by the executor's per-worker stand pool before a pooled
        stand serves its next job: every instrument gets its
        :meth:`~repro.instruments.Instrument.reset` hook invoked so that
        stateful instruments (none of the bundled ones are, but plugins may
        be) drop anything a previous - possibly aborted - run left behind.
        Allocation holds and mux selections live in the per-run
        :class:`~repro.teststand.allocator.Allocator` and applied stimuli in
        the per-run :class:`~repro.dut.harness.TestHarness`, so a reset
        stand plus a fresh allocator/harness is indistinguishable from a
        freshly built stand - the invariant the stand-reuse fast path (and
        its byte-identical-verdict guarantee) rests on.
        """
        for resource in self.resources:
            resource.instrument.reset()

    def resource_rows(self) -> list[tuple[str, ...]]:
        """The stand's resource table (paper T3 layout)."""
        return self.resources.rows()

    def connection_rows(self, pins: Sequence[str] | None = None) -> list[tuple[str, ...]]:
        """The stand's connection matrix (paper T4 layout)."""
        return self.connections.matrix_rows(pins)

    def methods_supported(self) -> tuple[str, ...]:
        return self.resources.methods_supported()

    def __repr__(self) -> str:
        return (
            f"TestStand(name={self.name!r}, resources={len(self.resources)}, "
            f"routes={len(self.connections)}, ubatt={self.supply_voltage} V)"
        )


def full_crossbar(
    resources: Iterable[Resource],
    pins: Sequence[str],
    *,
    bus_resources: Iterable[str] = (),
) -> ConnectionMatrix:
    """Build a connection matrix where every resource reaches every pin.

    Each (resource, terminal, pin) combination gets its own relay label
    ``K<resource>.<terminal>.<pin>``.  Bus-interface resources are skipped -
    they do not connect to discrete pins.
    """
    matrix = ConnectionMatrix()
    skip = {str(name).lower() for name in bus_resources}
    for resource in resources:
        if resource.key in skip or resource.is_bus_interface:
            continue
        for terminal in resource.terminals:
            for pin in pins:
                label = f"K{resource.name}.{terminal}.{pin}"
                matrix.add(Route(resource.name, terminal, pin, Switch(label)))
    return matrix


def build_paper_stand(*, supply_voltage: float = 12.0,
                      io_delay: float = 0.0) -> TestStand:
    """The test stand of the paper's Section 4.

    Resources (paper's resource table):

    ======  ==================  ========  =========  =========  ====
    Ress.   Method              Attribut  Min        Max        Unit
    ======  ==================  ========  =========  =========  ====
    Ress1   get_u               u         -60        60         V
    Ress2   put_r               r         0          1.00E+06   Ohm
    Ress3   put_r               r         0          2.00E+05   Ohm
    ======  ==================  ========  =========  =========  ====

    (The paper's table prints the decade method as ``get_r``; applying a
    resistance is a stimulus, so - consistently with the status table that
    binds ``Open``/``Closed`` to ``put_r`` - the decades support ``put_r``
    here.  ``Ress4``, the CAN interface, does not appear in the paper's
    table but is required by the ``put_can`` statuses of the very same
    example and is therefore part of this stand.)

    Connections (paper's connection matrix): the DVM reaches the two lamp
    pins through the switches ``Sw1.1`` / ``Sw1.2``; each resistor decade
    reaches each door-switch pin through one channel of the per-pin
    multiplexers ``Mx1`` .. ``Mx4``.
    """
    resources = ResourceTable((
        Resource("Ress1", Dvm("dvm1", u_min=-60.0, u_max=60.0, io_delay=io_delay),
                 "digital volt meter"),
        Resource("Ress2", ResistorDecade("decade1", max_ohms=1.0e6, io_delay=io_delay),
                 "resistor decade 1 MOhm"),
        Resource("Ress3", ResistorDecade("decade2", max_ohms=2.0e5, io_delay=io_delay),
                 "resistor decade 200 kOhm"),
        Resource("Ress4", CanInterface("can1", io_delay=io_delay), "CAN interface"),
    ))

    connections = ConnectionMatrix()
    connections.add(Route("Ress1", "hi", "INT_ILL_F", Switch("Sw1.1")))
    connections.add(Route("Ress1", "lo", "INT_ILL_R", Switch("Sw1.2")))
    door_pins = ("DS_FL", "DS_FR", "DS_RL", "DS_RR")
    for index, pin in enumerate(door_pins, start=1):
        connections.add(Route("Ress3", "a", pin, MuxChannel(f"Mx{index}.1", mux=f"Mx{index}", channel=1)))
        connections.add(Route("Ress2", "a", pin, MuxChannel(f"Mx{index}.2", mux=f"Mx{index}", channel=2)))

    return TestStand(
        name="paper_stand",
        resources=resources,
        connections=connections,
        supply_voltage=supply_voltage,
        description="Test circuit of Brinkmeyer (DATE 2005), Section 4",
    )


def build_big_rack(
    pins: Sequence[str] = PAPER_PINS, *, supply_voltage: float = 13.5,
    io_delay: float = 0.0,
) -> TestStand:
    """A generously equipped HIL rack with a full crossbar to every pin."""
    resources = ResourceTable((
        Resource("DVM_A", Dvm("dvm_a", u_min=-100.0, u_max=100.0, io_delay=io_delay),
                 "precision DVM"),
        Resource("DVM_B", Dvm("dvm_b", u_min=-60.0, u_max=60.0, io_delay=io_delay),
                 "second DVM"),
        Resource("DEC_A", ResistorDecade("dec_a", max_ohms=1.0e6, io_delay=io_delay),
                 "decade 1 MOhm"),
        Resource("DEC_B", ResistorDecade("dec_b", max_ohms=1.0e6, io_delay=io_delay),
                 "decade 1 MOhm"),
        Resource("DEC_C", ResistorDecade("dec_c", max_ohms=1.0e5, io_delay=io_delay),
                 "decade 100 kOhm"),
        Resource("DEC_D", ResistorDecade("dec_d", max_ohms=1.0e4, io_delay=io_delay),
                 "decade 10 kOhm"),
        Resource("PSU_1", PowerSupply("psu1", u_max=30.0, io_delay=io_delay),
                 "programmable supply"),
        Resource("GEN_1", SignalGenerator("gen1", io_delay=io_delay), "signal generator"),
        Resource("AMP_1", CurrentProbe("probe1", i_max=30.0, io_delay=io_delay),
                 "current probe"),
        Resource("OHM_1", OhmMeter("ohm1", io_delay=io_delay), "ohm meter"),
        Resource("DIO_1", DigitalIo("dio1", channels=16, io_delay=io_delay),
                 "digital I/O card"),
        Resource("CAN_1", CanInterface("can_rack", io_delay=io_delay), "CAN interface"),
    ))
    connections = full_crossbar(resources, pins)
    return TestStand(
        name="big_rack",
        resources=resources,
        connections=connections,
        supply_voltage=supply_voltage,
        description="Fully equipped HIL rack with crossbar switching",
    )


def build_minimal_bench(
    pins: Sequence[str] = PAPER_PINS, *, supply_voltage: float = 12.5,
    io_delay: float = 0.0,
) -> TestStand:
    """A small laboratory bench: one DVM, two small decades, one CAN dongle,
    one clamp ammeter.

    The decades are deliberately smaller (50 kOhm) than the paper stand's and
    everything is hard-wired through direct plugs instead of a switching
    matrix - a very different stand that must nevertheless produce the same
    verdicts from the same XML script.  The clamp ammeter closes the bench's
    former ``get_i`` capability gap: without it the family's
    current-measurement sheets (the ones that catch the ``fast_relay_weak``
    and ``drl_dim`` knowledge-gap faults) could not run here and the bench
    would no longer produce the same verdicts as the big rack.
    """
    resources = ResourceTable((
        Resource("BENCH_DVM", Dvm("bench_dvm", u_min=-20.0, u_max=20.0,
                                  io_delay=io_delay), "handheld DVM"),
        Resource("BENCH_DEC1", ResistorDecade("bench_dec1", max_ohms=5.0e4,
                                              io_delay=io_delay), "decade 50 kOhm"),
        Resource("BENCH_DEC2", ResistorDecade("bench_dec2", max_ohms=5.0e4,
                                              io_delay=io_delay), "decade 50 kOhm"),
        Resource("BENCH_CAN", CanInterface("bench_can", io_delay=io_delay),
                 "USB CAN dongle"),
        Resource("BENCH_CLAMP", CurrentProbe("bench_clamp", i_max=20.0,
                                             io_delay=io_delay),
                 "handheld clamp ammeter"),
    ))
    connections = ConnectionMatrix()
    if "INT_ILL_F" in pins:
        connections.add(Route("BENCH_DVM", "hi", "INT_ILL_F", DirectWire("P1")))
    if "INT_ILL_R" in pins:
        connections.add(Route("BENCH_DVM", "lo", "INT_ILL_R", DirectWire("P2")))
    plug = 3
    for pin in pins:
        if pin in ("INT_ILL_F", "INT_ILL_R"):
            continue
        connections.add(Route("BENCH_DEC1", "a", pin, DirectWire(f"P{plug}")))
        connections.add(Route("BENCH_DEC2", "a", pin, DirectWire(f"P{plug + 1}")))
        plug += 2
    # The handheld DVM's probe can touch any adapter plug, so every non-lamp
    # pin also gets a single-ended (against ground) measuring wire.  This is
    # what makes the bench usable for DUT adapters beyond the paper pinning
    # (motor and lamp outputs measured pin-to-ground).
    for pin in pins:
        if pin in ("INT_ILL_F", "INT_ILL_R"):
            continue
        connections.add(Route("BENCH_DVM", "hi", pin, DirectWire(f"P{plug}")))
        plug += 1
    # The clamp ammeter closes around any adapter wire, so every pin gets a
    # clamp position (separate C-numbered labels: clamping a wire is not a
    # plug connection).
    for index, pin in enumerate(pins, start=1):
        connections.add(Route("BENCH_CLAMP", "clamp", pin, DirectWire(f"C{index}")))
    return TestStand(
        name="minimal_bench",
        resources=resources,
        connections=connections,
        supply_voltage=supply_voltage,
        description="Minimal laboratory bench with hard-wired adapters",
    )

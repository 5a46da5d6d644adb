"""Tests for resources, connection matrices, the allocator and the stands."""

from __future__ import annotations

import pytest

from repro.core.errors import AllocationError, CapabilityError, RoutingError
from repro.core.script import MethodCall
from repro.core.signals import Signal, SignalDirection, SignalKind
from repro.instruments import CanInterface, Dvm, ResistorDecade
from repro.teststand import (
    ALLOCATION_POLICIES,
    Allocator,
    ConnectionMatrix,
    DirectWire,
    MuxChannel,
    Resource,
    ResourceTable,
    Route,
    Switch,
    build_big_rack,
    build_minimal_bench,
    build_paper_stand,
    full_crossbar,
)

DS_FL = Signal("DS_FL", SignalDirection.INPUT, SignalKind.RESISTIVE, pins=("DS_FL",))
DS_FR = Signal("DS_FR", SignalDirection.INPUT, SignalKind.RESISTIVE, pins=("DS_FR",))
DS_RL = Signal("DS_RL", SignalDirection.INPUT, SignalKind.RESISTIVE, pins=("DS_RL",))
INT_ILL = Signal("INT_ILL", SignalDirection.OUTPUT, SignalKind.ANALOG,
                 pins=("INT_ILL_F", "INT_ILL_R"))
NIGHT = Signal("NIGHT", SignalDirection.INPUT, SignalKind.BUS, message="LIGHT_SENSOR")

OPEN_CALL = MethodCall("put_r", {"r": "0.5", "r_min": "0", "r_max": "2"})
HO_CALL = MethodCall("get_u", {"u_min": "(0.7*ubatt)", "u_max": "(1.1*ubatt)"})
CAN_CALL = MethodCall("put_can", {"data": "1B"})


class TestResourceTable:
    def test_paper_stand_rows(self, paper_stand):
        rows = paper_stand.resource_rows()
        by_name = {row[0]: row for row in rows}
        assert by_name["Ress1"][1] == "get_u"
        assert by_name["Ress2"][1] == "put_r" and by_name["Ress2"][4] == "1000000"
        assert by_name["Ress3"][4] == "200000"

    def test_supporting(self, paper_stand):
        names = [r.name for r in paper_stand.resources.supporting("put_r")]
        assert names == ["Ress2", "Ress3"]

    def test_duplicate_rejected(self):
        table = ResourceTable((Resource("R1", Dvm("d")),))
        with pytest.raises(AllocationError):
            table.add(Resource("r1", Dvm("d2")))

    def test_unknown_lookup(self):
        with pytest.raises(AllocationError):
            ResourceTable().get("nope")

    def test_methods_supported(self, paper_stand):
        assert set(paper_stand.methods_supported()) == {"get_u", "put_r", "put_can", "get_can"}


class TestConnectionMatrix:
    def test_paper_matrix_shape(self, paper_stand):
        rows = paper_stand.connection_rows()
        by_resource = {row[0]: row for row in rows}
        assert by_resource["Ress1"][1] == "Sw1.1"   # INT_ILL_F
        assert by_resource["Ress1"][2] == "Sw1.2"   # INT_ILL_R
        assert by_resource["Ress2"][3] == "Mx1.2"   # DS_FL
        assert by_resource["Ress3"][3] == "Mx1.1"
        assert by_resource["Ress3"][6] == "Mx4.1"   # DS_RR

    def test_routes_for_pin_and_resource(self, paper_stand):
        matrix = paper_stand.connections
        assert {r.resource for r in matrix.routes_for_pin("DS_FL")} == {"Ress2", "Ress3"}
        assert len(matrix.routes_for_resource("Ress2")) == 4
        assert matrix.route_between("Ress1", "hi", "INT_ILL_F") is not None
        assert matrix.route_between("Ress1", "hi", "DS_FL") is None

    def test_duplicate_route_rejected(self):
        matrix = ConnectionMatrix()
        matrix.add(Route("R1", "a", "P1", Switch("S1")))
        with pytest.raises(RoutingError):
            matrix.add(Route("R1", "a", "P1", Switch("S2")))

    def test_mux_channel_requires_group(self):
        with pytest.raises(RoutingError):
            MuxChannel("Mx1.1", mux="")

    def test_full_crossbar_reaches_everything(self):
        resources = [Resource("A", Dvm("d")), Resource("B", ResistorDecade("r")),
                     Resource("C", CanInterface("c"))]
        matrix = full_crossbar(resources, ("P1", "P2"))
        # The CAN interface is skipped; DVM has 2 terminals, decade 1.
        assert len(matrix) == (2 + 1) * 2
        assert set(matrix.pins) == {"P1", "P2"}


class TestAllocator:
    def _allocator(self, stand, policy="first_fit"):
        return Allocator(stand.resources, stand.connections, policy=policy)

    def test_measurement_allocates_dvm_on_both_pins(self, paper_stand):
        allocator = self._allocator(paper_stand)
        allocation = allocator.allocate(INT_ILL, HO_CALL, {"ubatt": 12})
        assert allocation.resource == "Ress1"
        assert allocation.pins == ("INT_ILL_F", "INT_ILL_R")
        assert not allocation.persistent

    def test_stimulus_is_persistent_and_exclusive(self, paper_stand):
        allocator = self._allocator(paper_stand)
        first = allocator.allocate(DS_FL, OPEN_CALL, {})
        second = allocator.allocate(DS_FR, OPEN_CALL, {})
        assert first.resource != second.resource
        assert first.persistent and second.persistent

    def test_third_simultaneous_door_fails_on_paper_stand(self, paper_stand):
        allocator = self._allocator(paper_stand)
        allocator.allocate(DS_FL, OPEN_CALL, {})
        allocator.allocate(DS_FR, OPEN_CALL, {})
        with pytest.raises(RoutingError):
            allocator.allocate(DS_RL, OPEN_CALL, {})

    def test_release_frees_resource(self, paper_stand):
        allocator = self._allocator(paper_stand)
        allocator.allocate(DS_FL, OPEN_CALL, {})
        allocator.allocate(DS_FR, OPEN_CALL, {})
        allocator.release("ds_fl")
        third = allocator.allocate(DS_RL, OPEN_CALL, {})
        assert third.resource in ("Ress2", "Ress3")

    def test_same_signal_reuses_its_resource(self, paper_stand):
        allocator = self._allocator(paper_stand)
        first = allocator.allocate(DS_FL, OPEN_CALL, {})
        again = allocator.allocate(DS_FL, MethodCall("put_r", {"r": "1"}), {})
        assert first.resource == again.resource

    def test_bus_signal_uses_can_interface(self, paper_stand):
        allocator = self._allocator(paper_stand)
        allocation = allocator.allocate(NIGHT, CAN_CALL, {})
        assert allocation.resource == "Ress4"
        assert allocation.routes == ()

    def test_unsupported_method_raises_capability_error(self, paper_stand):
        allocator = self._allocator(paper_stand)
        with pytest.raises(CapabilityError):
            allocator.allocate(DS_FL, MethodCall("put_i", {"i": "1"}), {})

    def test_out_of_range_request_raises(self, paper_stand):
        allocator = self._allocator(paper_stand)
        with pytest.raises(AllocationError):
            allocator.allocate(INT_ILL, MethodCall("get_u", {"u_min": "500", "u_max": "600"}),
                               {"ubatt": 12})

    def test_best_fit_prefers_smaller_decade(self, paper_stand):
        allocator = self._allocator(paper_stand, policy="best_fit")
        allocation = allocator.allocate(DS_FL, OPEN_CALL, {})
        assert allocation.resource == "Ress3"   # 200 kOhm span < 1 MOhm span

    def test_least_used_balances(self, big_rack):
        allocator = self._allocator(big_rack, policy="least_used")
        first = allocator.allocate(DS_FL, OPEN_CALL, {})
        second = allocator.allocate(DS_FR, OPEN_CALL, {})
        assert first.resource != second.resource

    def test_unknown_policy_rejected(self, paper_stand):
        with pytest.raises(AllocationError):
            Allocator(paper_stand.resources, paper_stand.connections, policy="random")

    def test_statistics_tracked(self, paper_stand):
        allocator = self._allocator(paper_stand)
        allocator.allocate(DS_FL, OPEN_CALL, {})
        with pytest.raises(AllocationError):
            allocator.allocate(DS_FL, MethodCall("put_i", {"i": "1"}), {})
        assert sum(allocator.allocation_counts.values()) == 1

    def test_release_all(self, paper_stand):
        allocator = self._allocator(paper_stand)
        allocator.allocate(DS_FL, OPEN_CALL, {})
        allocator.release_all()
        assert not allocator.held_terminals
        assert not allocator.allocation_counts

    def test_all_policies_resolve_paper_example(self, paper_stand):
        for policy in ALLOCATION_POLICIES:
            allocator = self._allocator(paper_stand, policy=policy)
            assert allocator.allocate(DS_FL, OPEN_CALL, {}).resource
            assert allocator.allocate(INT_ILL, HO_CALL, {"ubatt": 12}).resource == "Ress1"


class TestStands:
    def test_paper_stand_structure(self, paper_stand):
        assert len(paper_stand.resources) == 4
        assert len(paper_stand.connections) == 10
        assert paper_stand.supply_voltage == 12.0

    def test_big_rack_structure(self, big_rack):
        assert len(big_rack.resources) == 12
        assert "get_i" in big_rack.methods_supported()

    def test_minimal_bench_structure(self, minimal_bench):
        assert len(minimal_bench.resources) == 5
        assert all(isinstance(route.connector, DirectWire) for route in minimal_bench.connections)
        # The clamp ammeter closes the bench's former get_i capability gap
        # and reaches every adapter pin (a clamp goes around any wire).
        assert "get_i" in minimal_bench.methods_supported()
        clamp_pins = {route.pin for route in minimal_bench.connections
                      if route.resource == "BENCH_CLAMP"}
        assert clamp_pins == {route.pin for route in minimal_bench.connections}

    def test_stand_validation(self):
        from repro.teststand import TestStand
        with pytest.raises(AllocationError):
            TestStand("", ResourceTable(), ConnectionMatrix())
        with pytest.raises(AllocationError):
            TestStand("x", ResourceTable(), ConnectionMatrix(), supply_voltage=-1)

"""Tests for the discrete-event kernel and the electrical network solver."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from repro.core.errors import HarnessError
from repro.dut.events import EventScheduler
from repro.dut.events import SchedulerError
from repro.dut.network import GROUND, Network


class TestEventScheduler:
    def test_fires_in_time_order(self):
        scheduler = EventScheduler()
        fired = []
        scheduler.schedule_at(2.0, lambda: fired.append("b"))
        scheduler.schedule_at(1.0, lambda: fired.append("a"))
        scheduler.schedule_at(3.0, lambda: fired.append("c"))
        scheduler.advance_to(2.5)
        assert fired == ["a", "b"]
        scheduler.advance_to(10.0)
        assert fired == ["a", "b", "c"]

    def test_ties_fire_in_insertion_order(self):
        scheduler = EventScheduler()
        fired = []
        scheduler.schedule_at(1.0, lambda: fired.append(1))
        scheduler.schedule_at(1.0, lambda: fired.append(2))
        scheduler.advance_to(1.0)
        assert fired == [1, 2]

    def test_cancel(self):
        scheduler = EventScheduler()
        fired = []
        event = scheduler.schedule_in(1.0, lambda: fired.append("x"))
        event.cancel()
        scheduler.advance_to(5.0)
        assert not fired and event.cancelled and not event.fired

    def test_callback_can_schedule_followup(self):
        scheduler = EventScheduler()
        fired = []

        def first():
            fired.append(scheduler.now)
            scheduler.schedule_in(1.0, lambda: fired.append(scheduler.now))

        scheduler.schedule_at(1.0, first)
        scheduler.advance_to(5.0)
        assert fired == [1.0, 2.0]

    def test_schedule_in_past_rejected(self):
        scheduler = EventScheduler()
        scheduler.advance_to(5.0)
        with pytest.raises(SchedulerError):
            scheduler.schedule_at(4.0, lambda: None)
        with pytest.raises(SchedulerError):
            scheduler.schedule_in(-1.0, lambda: None)

    def test_advance_backwards_is_noop(self):
        scheduler = EventScheduler()
        scheduler.advance_to(5.0)
        assert scheduler.advance_to(3.0) == 0
        assert scheduler.now == 5.0

    def test_cancel_all(self):
        scheduler = EventScheduler()
        for delay in (1, 2, 3):
            scheduler.schedule_in(delay, lambda: None)
        scheduler.cancel_all()
        assert scheduler.pending_count == 0
        assert scheduler.advance_to(10) == 0

    @given(st.lists(st.floats(0.0, 1000.0), min_size=1, max_size=30))
    def test_all_events_fire_in_nondecreasing_time(self, times):
        scheduler = EventScheduler()
        fired_times = []
        for t in times:
            scheduler.schedule_at(t, (lambda tt=t: fired_times.append(scheduler.now)))
        scheduler.advance_to(1001.0)
        assert len(fired_times) == len(times)
        assert fired_times == sorted(fired_times)
        assert scheduler.now == 1001.0

    @given(st.lists(st.floats(0.0, 100.0), min_size=1, max_size=20),
           st.floats(0.0, 100.0))
    def test_no_event_after_horizon_fires(self, times, horizon):
        scheduler = EventScheduler()
        fired = []
        for t in times:
            scheduler.schedule_at(t, (lambda tt=t: fired.append(tt)))
        scheduler.advance_to(horizon)
        assert all(t <= horizon for t in fired)
        assert sorted(fired) == sorted(t for t in times if t <= horizon)


class TestNetwork:
    def test_voltage_divider(self):
        network = Network()
        network.add_voltage_source("vin", GROUND, 12.0)
        network.add_resistor("vin", "mid", 1000.0)
        network.add_resistor("mid", GROUND, 1000.0)
        assert network.voltage_between("mid") == pytest.approx(6.0, rel=1e-3)

    def test_thevenin_source_with_load(self):
        network = Network()
        network.add_thevenin("out", 12.0, 0.2)
        network.add_resistor("out", GROUND, 6.0)
        expected = 12.0 * 6.0 / 6.2
        assert network.voltage_between("out") == pytest.approx(expected, rel=1e-3)

    def test_floating_node_reads_zero(self):
        network = Network()
        network.add_voltage_source("vbat", GROUND, 12.0)
        network.node("floating")
        assert network.voltage_between("floating") == pytest.approx(0.0, abs=1e-3)

    def test_infinite_resistor_is_open(self):
        network = Network()
        network.add_voltage_source("vin", GROUND, 10.0)
        network.add_resistor("vin", "out", math.inf)
        assert network.voltage_between("out") == pytest.approx(0.0, abs=1e-3)

    def test_differential_measurement(self):
        network = Network()
        network.add_voltage_source("a", GROUND, 8.0)
        network.add_voltage_source("b", GROUND, 3.0)
        assert network.voltage_between("a", "b") == pytest.approx(5.0, rel=1e-6)

    def test_unknown_node_rejected(self):
        network = Network()
        network.add_voltage_source("a", GROUND, 1.0)
        with pytest.raises(HarnessError):
            network.voltage_between("nonexistent")

    def test_zero_resistance_clamped_not_singular(self):
        network = Network()
        network.add_voltage_source("a", GROUND, 5.0)
        network.add_resistor("a", "b", 0.0)
        assert network.voltage_between("b") == pytest.approx(5.0, rel=1e-3)

    @given(st.floats(1.0, 1e5), st.floats(1.0, 1e5), st.floats(1.0, 50.0))
    def test_divider_formula_property(self, r_top, r_bottom, volts):
        network = Network()
        network.add_voltage_source("vin", GROUND, volts)
        network.add_resistor("vin", "mid", r_top)
        network.add_resistor("mid", GROUND, r_bottom)
        expected = volts * r_bottom / (r_top + r_bottom)
        assert network.voltage_between("mid") == pytest.approx(expected, rel=1e-3, abs=1e-6)

    def test_large_ladder_solves_without_an_array_library(self):
        """41 unknowns (40 nodes, one source), solved by the same
        pure-Python elimination as the dozen-unknown harness networks."""
        network = Network(leakage=math.inf)
        network.add_voltage_source("n0", GROUND, 12.0)
        for k in range(40):
            network.add_resistor(f"n{k}", f"n{k + 1}" if k < 39 else GROUND,
                                 100.0)
        voltages = network.solve()
        assert len(network.node_names) - 1 + network.source_count == 41
        for k in range(40):
            assert voltages[f"n{k}"] == pytest.approx(12.0 * (40 - k) / 40)

    def test_large_singular_system_raises(self):
        """Two ideal sources on one node have no solution, at any size."""
        network = Network()
        network.add_voltage_source("top", GROUND, 12.0)
        network.add_voltage_source("top", GROUND, 5.0)
        for k in range(40):
            network.add_resistor("top" if k == 0 else f"n{k}", f"n{k + 1}",
                                 100.0)
        assert len(network.node_names) - 1 + network.source_count > 32
        with pytest.raises(HarnessError, match="singular"):
            network.solve()


def test_importing_the_cli_leaves_numpy_out():
    """The package declares no runtime dependency and imports none."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, repro.cli; print('numpy' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)}, check=True,
    )
    assert done.stdout.strip() == "False"

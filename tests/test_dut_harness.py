"""Tests for the DUT harness (electrical + CAN wiring around an ECU model)."""

from __future__ import annotations

import math

import pytest

from repro.core.errors import HarnessError
from repro.dut import InteriorLightEcu, LoadSpec, TestHarness, body_can_database
from repro.dut.harness import node_voltages
from repro.paper import build_paper_harness

LAMP = ("INT_ILL_F", "INT_ILL_R")


class TestElectricalPath:
    def test_lamp_off_reads_near_zero(self, harness):
        assert harness.measure_voltage(("INT_ILL_F", "INT_ILL_R")) == pytest.approx(0.0, abs=0.1)

    def test_lamp_on_reads_near_ubatt(self, harness):
        harness.send_can_signal("NIGHT", 1)
        harness.apply_resistance("DS_FL", 0.5)
        voltage = harness.measure_voltage(("INT_ILL_F", "INT_ILL_R"))
        assert 0.7 * harness.ubatt <= voltage <= 1.1 * harness.ubatt

    def test_lamp_voltage_scales_with_ubatt(self):
        readings = {}
        for ubatt in (9.0, 12.0, 16.0):
            harness = build_paper_harness(ubatt=ubatt)
            harness.send_can_signal("NIGHT", 1)
            harness.apply_resistance("DS_FL", 0.5)
            readings[ubatt] = harness.measure_voltage(("INT_ILL_F", "INT_ILL_R"))
        for ubatt, voltage in readings.items():
            assert 0.9 * ubatt <= voltage <= 1.02 * ubatt

    def test_measure_current_through_lamp(self, harness):
        harness.send_can_signal("NIGHT", 1)
        harness.apply_resistance("DS_FL", 0.5)
        current = harness.measure_current("INT_ILL_F")
        # roughly UBATT / (lamp 6 Ohm + driver 0.2 Ohm + return 0.1 Ohm)
        assert current == pytest.approx(12.0 / 6.3, rel=0.1)

    def test_measure_current_zero_when_off(self, harness):
        assert harness.measure_current("INT_ILL_F") == 0.0

    def test_release_resistance_opens_contact(self, harness):
        harness.send_can_signal("NIGHT", 1)
        harness.apply_resistance("DS_FL", 0.5)
        assert harness.ecu.illumination_on
        harness.release_resistance("DS_FL")
        assert not harness.ecu.illumination_on
        assert harness.applied_resistance("DS_FL") is None

    def test_measure_resistance(self, harness):
        assert harness.measure_resistance("DS_FL") == math.inf
        harness.apply_resistance("DS_FL", 47.0)
        assert harness.measure_resistance("DS_FL") == 47.0

    def test_unknown_pin_rejected(self, harness):
        with pytest.raises(HarnessError):
            harness.apply_resistance("NO_SUCH_PIN", 1.0)
        with pytest.raises(HarnessError):
            harness.measure_voltage("NO_SUCH_PIN")

    def test_negative_values_rejected(self, harness):
        with pytest.raises(HarnessError):
            harness.apply_resistance("DS_FL", -1.0)
        with pytest.raises(HarnessError):
            harness.advance(-0.1)
        with pytest.raises(HarnessError):
            harness.set_ubatt(-5.0)
        for impedance in (0.0, -1.0e6):
            with pytest.raises(HarnessError):
                TestHarness(InteriorLightEcu(), dvm_impedance=impedance)

    def test_measure_voltage_takes_at_most_two_pins(self, harness):
        with pytest.raises(HarnessError):
            harness.measure_voltage(("INT_ILL_F", "INT_ILL_R", "DS_FL"))


class TestCanPath:
    def test_send_signal_reaches_ecu(self, harness):
        harness.send_can_signal("NIGHT", 1)
        assert harness.ecu.night
        harness.send_can_signal("NIGHT", 0)
        assert not harness.ecu.night

    def test_send_payload_reaches_ecu(self, harness):
        harness.send_can_payload("IGN_STATUS", 2)
        assert harness.ecu.ignition == 2

    def test_signal_update_preserves_other_bits(self, harness):
        harness.send_can_signal("BRIGHTNESS", 42)
        harness.send_can_signal("NIGHT", 1)
        # The ECU decodes the full message; both values must survive.
        assert harness.ecu.rx_signal("LIGHT_SENSOR", "BRIGHTNESS") == 42
        assert harness.ecu.night

    def test_ecu_transmissions_visible_to_stand(self):
        from repro.dut import CentralLockingEcu

        harness = TestHarness(CentralLockingEcu(), body_can_database(),
                              loads=(LoadSpec("LOCK_LED", ohms=500.0),))
        harness.send_can_payload("LOCK_COMMAND", 1)
        assert harness.last_can_signal("LOCK_STATUS", "LOCKED") == 1.0
        assert harness.last_can_payload("LOCK_STATUS") == 1

    def test_missing_db_raises(self):
        harness = TestHarness(InteriorLightEcu(), None)
        with pytest.raises(HarnessError):
            harness.send_can_payload("IGN_STATUS", 1)


class TestTimeAndSupply:
    def test_advance_moves_ecu_time(self, harness):
        harness.advance(5.0)
        assert harness.now == 5.0
        assert harness.ecu.now == 5.0

    def test_timeout_via_harness(self, harness):
        harness.send_can_signal("NIGHT", 1)
        harness.apply_resistance("DS_FL", 0.5)
        harness.advance(299.0)
        assert harness.measure_voltage(("INT_ILL_F", "INT_ILL_R")) > 8.0
        harness.advance(2.0)
        assert harness.measure_voltage(("INT_ILL_F", "INT_ILL_R")) < 1.0

    def test_set_ubatt_powers_ecu(self, harness):
        harness.set_ubatt(0.0)
        assert not harness.ecu.powered
        harness.set_ubatt(12.0)
        assert harness.ecu.powered

    def test_variables(self, harness):
        harness.advance(2.5)
        variables = harness.variables()
        assert variables["ubatt"] == 12.0 and variables["t"] == 2.5

    def test_reset_clears_stimuli(self, harness):
        harness.send_can_signal("NIGHT", 1)
        harness.apply_resistance("DS_FL", 0.5)
        harness.reset()
        assert not harness.ecu.illumination_on
        assert harness.applied_resistance("DS_FL") is None

    def test_add_load_validates_pins(self, harness):
        with pytest.raises(HarnessError):
            harness.add_load(LoadSpec("NO_SUCH", ohms=10.0))
        harness.add_load(LoadSpec("INT_ILL_F", ohms=100.0))
        assert len(harness.loads) == 2

    def test_loadspec_validation(self):
        with pytest.raises(HarnessError):
            LoadSpec("a", ohms=0.0)


def _lit_circuit(*, night: int = 1, ubatt: float = 12.0,
                 dvm_impedance: float | None = None) -> TestHarness:
    """The paper's circuit with a door open and NIGHT set to *night*."""
    harness = TestHarness(InteriorLightEcu(), body_can_database(), ubatt=ubatt,
                          loads=(LoadSpec(*LAMP, ohms=6.0),),
                          dvm_impedance=dvm_impedance)
    harness.send_can_signal("NIGHT", night)
    harness.apply_resistance("DS_FL", 0.5)
    return harness


def _lamp_voltage(harness: TestHarness) -> float:
    return harness.measure_voltage(LAMP)


def _key_pair(component: str):
    """Two harnesses whose electrical states differ in *component* alone,
    each with the reading to take from it."""
    a, b = _lit_circuit(), _lit_circuit()
    read = _lamp_voltage
    if component == "drive":  # the lamp driver off, then on
        a = _lit_circuit(night=0)
    elif component == "ubatt":
        b = _lit_circuit(ubatt=13.5)
    elif component == "load":
        b.add_load(LoadSpec("INT_ILL_F", ohms=100.0))
    elif component == "resistance":  # on the lit output
        a.apply_resistance("INT_ILL_F", 1000.0)
        b.apply_resistance("INT_ILL_F", 10.0)
    elif component == "voltage":
        a.apply_voltage("DS_FR", 3.0)
        b.apply_voltage("DS_FR", 5.0)
        read = lambda harness: harness.measure_voltage("DS_FR")  # noqa: E731
    elif component == "meter":
        return ((a, lambda harness: harness.measure_voltage("INT_ILL_F")),
                (b, lambda harness: harness.measure_current("INT_ILL_F")))
    elif component == "dvm_impedance":
        b = _lit_circuit(dvm_impedance=1.0e3)
        for harness in (a, b):
            harness.apply_voltage("DS_FR", 5.0)
            harness.apply_resistance("DS_RL", 1000.0)
        read = lambda harness: harness.measure_voltage(("DS_FR", "DS_RL"))  # noqa: E731
    return (a, read), (b, read)


class TestReadingCache:
    """Readings are cached per electrical state (``node_voltages``)."""

    @pytest.mark.parametrize("component", (
        "drive", "ubatt", "load", "resistance", "voltage", "meter",
        "dvm_impedance"))
    def test_state_key_covers_component(self, component):
        # A cache whose key dropped *component* would hand B the entry A
        # left behind.
        (harness_a, read_a), (harness_b, read_b) = _key_pair(component)
        node_voltages.cache_clear()
        cold = read_b(harness_b)
        node_voltages.cache_clear()
        read_a(harness_a)
        assert read_b(harness_b) == cold

    def test_repeated_state_is_solved_once(self, monkeypatch):
        from repro.dut.network import Network

        solves = []
        solve = Network.solve
        monkeypatch.setattr(Network, "solve",
                            lambda network: solves.append(1) or solve(network))
        node_voltages.cache_clear()
        harness = _lit_circuit()
        first = _lamp_voltage(harness)
        # The same state, read again and read on a second harness.
        assert _lamp_voltage(harness) == _lamp_voltage(_lit_circuit()) == first
        assert len(solves) == 1

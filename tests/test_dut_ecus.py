"""Behavioural tests of the ECU models (driven directly, without a test stand)."""

from __future__ import annotations

import math

import pytest

from repro.core.errors import HarnessError
from repro.dut import (
    CentralLockingEcu,
    EcuModel,
    ExteriorLightEcu,
    InteriorLightEcu,
    WindowLifterEcu,
    WiperEcu,
    body_can_database,
)
from repro.dut.pins import OutputDrive, PinKind


def _night(ecu, active=True):
    ecu.receive_message("LIGHT_SENSOR", {"NIGHT": 1.0 if active else 0.0})


def _ignition(ecu, level=2):
    ecu.receive_message("IGN_STATUS", {"IGN_ST": float(level)})


class TestInteriorLightEcu:
    def test_off_by_default(self):
        ecu = InteriorLightEcu()
        assert not ecu.illumination_on
        assert not ecu.output_drive("INT_ILL_F").driven

    def test_door_open_by_day_stays_off(self):
        ecu = InteriorLightEcu()
        _night(ecu, False)
        ecu.set_pin_resistance("DS_FL", 0.5)
        assert not ecu.illumination_on

    def test_door_open_at_night_switches_on(self):
        ecu = InteriorLightEcu()
        _night(ecu, True)
        ecu.set_pin_resistance("DS_FL", 0.5)
        assert ecu.illumination_on
        assert ecu.output_drive("INT_ILL_F").driven
        assert ecu.output_drive("INT_ILL_F").level == 1.0

    def test_any_door_triggers(self):
        for pin in ("DS_FL", "DS_FR", "DS_RL", "DS_RR"):
            ecu = InteriorLightEcu()
            _night(ecu)
            ecu.set_pin_resistance(pin, 1.0)
            assert ecu.illumination_on, pin

    def test_high_resistance_means_door_closed(self):
        ecu = InteriorLightEcu()
        _night(ecu)
        ecu.set_pin_resistance("DS_FL", 5000.0)
        assert not ecu.illumination_on

    def test_timeout_after_300s(self):
        ecu = InteriorLightEcu()
        _night(ecu)
        ecu.set_pin_resistance("DS_FL", 0.5)
        ecu.advance_to(299.0)
        assert ecu.illumination_on
        ecu.advance_to(301.0)
        assert not ecu.illumination_on

    def test_closing_door_rearms_timer(self):
        ecu = InteriorLightEcu()
        _night(ecu)
        ecu.set_pin_resistance("DS_FL", 0.5)
        ecu.advance_to(250.0)
        ecu.set_pin_resistance("DS_FL", math.inf)   # door closed
        assert not ecu.illumination_on
        ecu.advance_to(251.0)
        ecu.set_pin_resistance("DS_FL", 0.5)        # door re-opened
        ecu.advance_to(500.0)                        # 249 s later: still on
        assert ecu.illumination_on
        ecu.advance_to(560.0)                        # > 300 s after re-opening
        assert not ecu.illumination_on

    def test_reset_clears_state(self):
        ecu = InteriorLightEcu()
        _night(ecu)
        ecu.set_pin_resistance("DS_FL", 0.5)
        assert ecu.illumination_on
        ecu.reset()
        assert not ecu.illumination_on

    def test_power_off_floats_outputs(self):
        ecu = InteriorLightEcu()
        _night(ecu)
        ecu.set_pin_resistance("DS_FL", 0.5)
        ecu.set_power(False)
        assert not ecu.output_drive("INT_ILL_F").driven

    def test_unknown_message_ignored(self):
        ecu = InteriorLightEcu()
        ecu.receive_message("SOME_OTHER", {"X": 1})
        assert not ecu.illumination_on

    def test_pin_metadata(self):
        ecu = InteriorLightEcu()
        assert ecu.pin("DS_FL").kind is PinKind.RESISTIVE_INPUT
        assert ecu.pin("INT_ILL_F").is_output
        assert ecu.has_pin("int_ill_r")
        assert not ecu.has_pin("nonexistent")


class TestCentralLockingEcu:
    def test_lock_unlock_by_can(self):
        ecu = CentralLockingEcu()
        assert not ecu.locked
        ecu.receive_message("LOCK_COMMAND", {"LOCK_REQ": 1})
        assert ecu.locked
        assert ecu.output_drive("LOCK_LED").driven
        ecu.receive_message("LOCK_COMMAND", {"LOCK_REQ": 2})
        assert not ecu.locked

    def test_lock_status_transmitted(self):
        ecu = CentralLockingEcu()
        ecu.receive_message("LOCK_COMMAND", {"LOCK_REQ": 1})
        transmissions = ecu.pending_transmissions()
        assert ("lock_status", {"locked": 1.0}) in transmissions

    def test_auto_lock_above_threshold(self):
        ecu = CentralLockingEcu()
        _ignition(ecu)
        ecu.receive_message("VEHICLE_SPEED", {"SPEED": 20.0})
        assert ecu.locked

    def test_auto_lock_only_once_per_cycle(self):
        ecu = CentralLockingEcu()
        _ignition(ecu)
        ecu.receive_message("VEHICLE_SPEED", {"SPEED": 20.0})
        ecu.receive_message("LOCK_COMMAND", {"LOCK_REQ": 2})  # unlock manually
        ecu.receive_message("VEHICLE_SPEED", {"SPEED": 30.0})
        assert not ecu.locked  # no second auto lock in the same cycle

    def test_unlock_inhibited_at_speed(self):
        ecu = CentralLockingEcu()
        _ignition(ecu)
        ecu.receive_message("VEHICLE_SPEED", {"SPEED": 20.0})
        assert ecu.locked
        ecu.receive_message("VEHICLE_SPEED", {"SPEED": 150.0})
        ecu.receive_message("LOCK_COMMAND", {"LOCK_REQ": 2})
        assert ecu.locked  # unlock refused above 120 km/h

    def test_key_switch_edges(self):
        ecu = CentralLockingEcu()
        ecu.set_pin_resistance("KEY_SW", 1.0)
        assert ecu.locked
        ecu.set_pin_resistance("KEY_SW", math.inf)
        assert ecu.locked  # releasing the key does not unlock
        ecu.set_pin_resistance("UNLOCK_SW", 1.0)
        assert not ecu.locked

    def test_actuator_pulse_ends(self):
        ecu = CentralLockingEcu()
        ecu.receive_message("LOCK_COMMAND", {"LOCK_REQ": 1})
        assert ecu.output_drive("LOCK_ACT").driven
        ecu.advance_to(1.0)
        assert not ecu.output_drive("LOCK_ACT").driven


class TestWindowLifterEcu:
    def test_requires_ignition(self):
        ecu = WindowLifterEcu()
        ecu.set_pin_resistance("WIN_SW_DOWN", 1.0)
        assert not ecu.moving

    def test_opens_and_stops_at_end(self):
        ecu = WindowLifterEcu()
        _ignition(ecu)
        ecu.set_pin_resistance("WIN_SW_DOWN", 1.0)
        assert ecu.moving
        ecu.advance_to(5.0)
        assert ecu.position == pytest.approx(50.0, abs=1.0)
        ecu.advance_to(60.0)
        assert ecu.position == 100.0
        assert not ecu.moving

    def test_both_switches_is_no_request(self):
        ecu = WindowLifterEcu()
        _ignition(ecu)
        ecu.set_pin_resistance("WIN_SW_DOWN", 1.0)
        ecu.set_pin_resistance("WIN_SW_UP", 1.0)
        assert not ecu.moving

    def test_position_reported_on_can(self):
        ecu = WindowLifterEcu()
        _ignition(ecu)
        ecu.set_pin_resistance("WIN_SW_DOWN", 1.0)
        ecu.advance_to(2.0)
        ecu.set_pin_resistance("WIN_SW_DOWN", math.inf)
        messages = dict(ecu.pending_transmissions())
        assert "window_position" in messages

    def test_up_from_open(self):
        ecu = WindowLifterEcu()
        _ignition(ecu)
        ecu.set_pin_resistance("WIN_SW_DOWN", 1.0)
        ecu.advance_to(4.0)
        ecu.set_pin_resistance("WIN_SW_DOWN", math.inf)
        ecu.set_pin_resistance("WIN_SW_UP", 1.0)
        assert ecu.output_drive("WIN_MOTOR_UP").driven
        ecu.advance_to(100.0)
        assert ecu.position == 0.0


class TestWiperEcu:
    def test_continuous_modes(self):
        ecu = WiperEcu()
        _ignition(ecu)
        ecu.receive_message("WIPER_COMMAND", {"WIPER_MODE": 2})
        assert ecu.motor_running
        assert not ecu.output_drive("WIPER_FAST").driven
        ecu.receive_message("WIPER_COMMAND", {"WIPER_MODE": 3})
        assert ecu.output_drive("WIPER_FAST").driven

    def test_off_without_ignition(self):
        ecu = WiperEcu()
        ecu.receive_message("WIPER_COMMAND", {"WIPER_MODE": 2})
        assert not ecu.motor_running

    def test_interval_pulses(self):
        ecu = WiperEcu()
        _ignition(ecu)
        ecu.receive_message("WIPER_COMMAND", {"WIPER_MODE": 1})
        assert ecu.motor_running            # first wipe starts immediately
        ecu.advance_to(2.0)
        assert not ecu.motor_running        # wipe over, pausing
        ecu.advance_to(6.5)
        assert ecu.motor_running            # next interval wipe

    def test_wash_runs_pump_and_after_wipes(self):
        ecu = WiperEcu()
        _ignition(ecu)
        ecu.receive_message("WIPER_COMMAND", {"WASH": 1})
        assert ecu.output_drive("WASH_PUMP").driven
        assert ecu.motor_running is False or True  # pump independent of motor state
        ecu.receive_message("WIPER_COMMAND", {"WASH": 0})
        assert ecu.motor_running            # follow-up wipes
        ecu.advance_to(20.0)
        assert not ecu.motor_running


class TestExteriorLightEcu:
    def test_switch_on_needs_ignition(self):
        ecu = ExteriorLightEcu()
        ecu.receive_message("LIGHT_SWITCH", {"LIGHT_SW": 2})
        assert not ecu.low_beam_on
        _ignition(ecu)
        assert ecu.low_beam_on

    def test_auto_mode_follows_night(self):
        ecu = ExteriorLightEcu()
        _ignition(ecu)
        ecu.receive_message("LIGHT_SWITCH", {"LIGHT_SW": 1})
        assert not ecu.low_beam_on
        _night(ecu)
        assert ecu.low_beam_on

    def test_drl_complements_low_beam(self):
        ecu = ExteriorLightEcu()
        _ignition(ecu)
        assert ecu.drl_on
        ecu.receive_message("LIGHT_SWITCH", {"LIGHT_SW": 2})
        assert not ecu.drl_on and ecu.low_beam_on

    def test_parking_light_without_ignition(self):
        ecu = ExteriorLightEcu()
        ecu.set_pin_resistance("PARK_SW", 1.0)
        assert ecu.output_drive("POSITION_LIGHT").driven


# ---------------------------------------------------------------------------
# Names match without regard to case, on every model
# ---------------------------------------------------------------------------

def _bundled_models():
    """Every bundled ECU class, every fault variant and a composition."""
    from repro.analysis.faults import (
        central_locking_faults,
        exterior_light_faults,
        instrument_cluster_faults,
        interaction_faults,
        interior_light_faults,
        window_lifter_faults,
        wiper_faults,
    )
    from repro.dut import InstrumentClusterEcu
    from repro.targets import get_composition

    models = [(cls.NAME, cls) for cls in (
        InteriorLightEcu, CentralLockingEcu, WindowLifterEcu, WiperEcu,
        ExteriorLightEcu, InstrumentClusterEcu)]
    catalogues = [interior_light_faults(), central_locking_faults(),
                  wiper_faults(), window_lifter_faults(),
                  exterior_light_faults(), instrument_cluster_faults(),
                  interaction_faults(InstrumentClusterEcu.NAME),
                  get_composition("lock+cluster").faults_factory()]
    models += [(f"{catalogue.ecu_name}/{fault.name}", fault.build)
               for catalogue in catalogues for fault in catalogue]
    models.append(("lock+cluster",
                   get_composition("lock+cluster").build_assembly))
    return models


def _spellings(name: str) -> tuple[str, str, str]:
    return name, name.lower(), name.swapcase()


@pytest.mark.parametrize("build", [build for _, build in _bundled_models()],
                         ids=[label for label, _ in _bundled_models()])
class TestNamesIgnoreCase:
    def test_pins_resolve_under_every_spelling(self, build):
        model = build()
        for declared in model.pins:
            for spelling in _spellings(declared.name):
                # Twice: the second lookup is served by what the first learned.
                for _ in range(2):
                    assert model.has_pin(spelling)
                    assert model.pin(spelling) == declared
        with pytest.raises(HarnessError) as unknown:
            model.pin("NO_SUCH_PIN")
        assert "'NO_SUCH_PIN'" in str(unknown.value)
        assert not model.has_pin("NO_SUCH_PIN")

    def test_members_see_resistances_and_signals_under_any_spelling(self, build):
        model = build()
        members = [model] if isinstance(model, EcuModel) else list(model)
        for ecu in members:
            for declared in ecu.pins:
                for written in _spellings(declared.name):
                    for read in _spellings(declared.name):
                        ecu.set_pin_resistance(written, 42.0)
                        assert ecu.resistance_at(read) == 42.0
                        ecu.clear_pin_resistance(read)
                        assert ecu.resistance_at(written) == math.inf
            for message in ecu.RX_MESSAGES:
                definition = body_can_database().message(message)
                for coding in definition.signals:
                    for _ in range(2):
                        ecu.receive_message(definition.name.lower(),
                                            {coding.name.lower(): 1.0})
                        # A fault may drop what it received; every spelling
                        # still reads the same value.
                        read = {ecu.rx_signal(message, signal, -1.0)
                                for message in _spellings(definition.name)
                                for signal in _spellings(coding.name)}
                        assert len(read) == 1, read
            with pytest.raises(HarnessError, match="unknown pin 'NO_SUCH_PIN'"):
                ecu.set_pin_resistance("NO_SUCH_PIN", 1.0)
            assert ecu.resistance_at("NO_SUCH_PIN") == math.inf
            inputs = [pin for pin in ecu.pins if not pin.is_output]
            if inputs:
                with pytest.raises(HarnessError, match="is not an output"):
                    ecu.drive_output(inputs[0].name.swapcase(),
                                     OutputDrive.floating())


def _case_variants(name: str) -> list[str]:
    """Every upper/lower-case spelling of *name*."""
    spellings = [""]
    for char in name:
        spellings = [done + c for done in spellings
                     for c in {char.lower(), char.upper()}]
    return spellings


def test_spelling_tables_stay_exact_and_bounded_under_threads():
    """Threads learning spellings of one class at once: every lookup
    resolves to its lower-case key and the table stays bounded."""
    import sys
    import threading

    from repro.dut.base import SPELLINGS_MAX

    class Probe(InteriorLightEcu):
        pass

    spellings = [s for pin in Probe.PINS for s in _case_variants(pin.name)]
    assert len(spellings) > SPELLINGS_MAX
    wrong = []

    def learn(offset: int) -> None:
        ecu = Probe()
        for spelling in spellings[offset:] + spellings[:offset]:
            if ecu.pin_key(spelling) != spelling.lower():
                wrong.append(spelling)

    threads = [threading.Thread(target=learn, args=(i * 37,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    assert len(Probe._PIN_KEYS) <= SPELLINGS_MAX + len(threads)

"""Tests for the virtual instruments (executed directly against a harness)."""

from __future__ import annotations

import asyncio
import math

import pytest

from repro.core.errors import CapabilityError, InstrumentError, InstrumentIOError
from repro.core.script import MethodCall
from repro.core.signals import Signal, SignalDirection, SignalKind
from repro.instruments import (
    Capability,
    CanInterface,
    CurrentProbe,
    DigitalIo,
    Dvm,
    OhmMeter,
    PowerSupply,
    ResistorDecade,
    SignalGenerator,
)
from repro.instruments import base as instruments_base
from repro.instruments.base import adrive, drive

INT_ILL = Signal("INT_ILL", SignalDirection.OUTPUT, SignalKind.ANALOG,
                 pins=("INT_ILL_F", "INT_ILL_R"))
DS_FL = Signal("DS_FL", SignalDirection.INPUT, SignalKind.RESISTIVE, pins=("DS_FL",))
NIGHT = Signal("NIGHT", SignalDirection.INPUT, SignalKind.BUS, message="LIGHT_SENSOR")
IGN = Signal("IGN_ST", SignalDirection.INPUT, SignalKind.BUS, message="IGN_STATUS")


class TestCapability:
    def test_can_serve_nominal(self):
        cap = Capability("put_r", "r", 0, 1e6, "Ohm")
        assert cap.can_serve(500.0)
        assert not cap.can_serve(2e6)

    def test_can_serve_acceptance_window(self):
        cap = Capability("put_r", "r", 0, 1e6, "Ohm")
        from repro.core.values import Interval
        assert cap.can_serve(math.inf, Interval(5000, math.inf))
        assert not cap.can_serve(math.inf, Interval(2e6, math.inf))

    def test_invalid_range_rejected(self):
        with pytest.raises(InstrumentError):
            Capability("get_u", "u", 10, -10)

    def test_as_row(self):
        row = Capability("get_u", "u", -60, 60, "V").as_row()
        assert row == ("get_u", "u", "-60", "60", "V")


class TestDvm:
    def test_measures_lamp_voltage(self, harness):
        harness.send_can_signal("NIGHT", 1)
        harness.apply_resistance("DS_FL", 0.5)
        dvm = Dvm("dvm")
        call = MethodCall("get_u", {"u_min": "(0.7*ubatt)", "u_max": "(1.1*ubatt)"})
        outcome = dvm.execute(call, INT_ILL, ("INT_ILL_F", "INT_ILL_R"), harness, {"ubatt": 12})
        assert outcome.passed and outcome.unit == "V"
        assert 8.4 <= outcome.observed <= 13.2

    def test_fails_outside_limits(self, harness):
        dvm = Dvm("dvm")
        call = MethodCall("get_u", {"u_min": "(0.7*ubatt)", "u_max": "(1.1*ubatt)"})
        outcome = dvm.execute(call, INT_ILL, ("INT_ILL_F", "INT_ILL_R"), harness, {"ubatt": 12})
        assert not outcome.passed

    def test_rejects_wrong_method_and_missing_pins(self, harness):
        dvm = Dvm("dvm")
        with pytest.raises(InstrumentError):
            dvm.execute(MethodCall("put_r", {"r": "1"}), DS_FL, ("DS_FL",), harness, {})
        with pytest.raises(InstrumentError):
            dvm.execute(MethodCall("get_u", {"u_min": "0", "u_max": "1"}), INT_ILL, (), harness, {})

    def test_capability(self):
        assert Dvm("d").supports("get_u") and not Dvm("d").supports("put_r")
        with pytest.raises(CapabilityError):
            Dvm("d").capability_for("put_r")


class TestResistorDecade:
    def test_applies_requested_value(self, harness):
        decade = ResistorDecade("dec", max_ohms=1e6)
        call = MethodCall("put_r", {"r": "0.5", "r_min": "0", "r_max": "2"})
        outcome = decade.execute(call, DS_FL, ("DS_FL",), harness, {})
        assert outcome.passed
        assert harness.applied_resistance("DS_FL") == pytest.approx(0.5)

    def test_inf_clamped_to_max_and_checked(self, harness):
        decade = ResistorDecade("dec", max_ohms=2e5)
        call = MethodCall("put_r", {"r": "INF", "r_min": "5000", "r_max": "INF"})
        outcome = decade.execute(call, DS_FL, ("DS_FL",), harness, {})
        assert outcome.passed
        assert harness.applied_resistance("DS_FL") == pytest.approx(2e5)

    def test_inf_fails_small_decade(self, harness):
        decade = ResistorDecade("dec", max_ohms=1000.0)
        call = MethodCall("put_r", {"r": "INF", "r_min": "5000", "r_max": "INF"})
        outcome = decade.execute(call, DS_FL, ("DS_FL",), harness, {})
        assert not outcome.passed

    def test_quantisation(self, harness):
        decade = ResistorDecade("dec", max_ohms=100.0, resolution=1.0)
        call = MethodCall("put_r", {"r": "47.4"})
        outcome = decade.execute(call, DS_FL, ("DS_FL",), harness, {})
        assert outcome.observed == pytest.approx(47.0)

    def test_missing_parameter_raises(self, harness):
        with pytest.raises(InstrumentError):
            ResistorDecade("dec").execute(MethodCall("put_r", {}), DS_FL, ("DS_FL",), harness, {})


class TestSupplyAndGenerator:
    def test_power_supply_applies_voltage(self, harness):
        psu = PowerSupply("psu", u_max=30.0)
        outcome = psu.execute(MethodCall("put_u", {"u": "5"}), DS_FL, ("DS_FL",), harness, {})
        assert outcome.passed and outcome.observed == 5.0

    def test_power_supply_clamps(self, harness):
        psu = PowerSupply("psu", u_max=10.0)
        outcome = psu.execute(MethodCall("put_u", {"u": "20"}), DS_FL, ("DS_FL",), harness, {})
        assert outcome.observed == 10.0

    def test_generator_digital_levels(self, harness):
        gen = SignalGenerator("gen")
        outcome = gen.execute(MethodCall("put_digital", {"level": "1"}), DS_FL, ("DS_FL",),
                              harness, {"ubatt": 12})
        assert outcome.passed and outcome.observed == 1.0


class TestMetersAndDigitalIo:
    def test_current_probe(self, harness):
        harness.send_can_signal("NIGHT", 1)
        harness.apply_resistance("DS_FL", 0.5)
        probe = CurrentProbe("probe")
        call = MethodCall("get_i", {"i_min": "1", "i_max": "3"})
        outcome = probe.execute(call, INT_ILL, ("INT_ILL_F",), harness, {})
        assert outcome.passed

    def test_current_probe_accuracy_is_fraction_of_reading(self, harness):
        # The clamp probe's accuracy widens the limits by accuracy*reading
        # amperes, not by the raw fraction: with the lamp drawing ~1.9 A, a
        # window starting 5 % above the reading must fail at the default
        # 1 % of reading but pass at 10 % of reading.
        harness.send_can_signal("NIGHT", 1)
        harness.apply_resistance("DS_FL", 0.5)
        reading = harness.measure_current("INT_ILL_F")
        assert reading > 1.0
        call = MethodCall("get_i", {"i_min": str(reading * 1.05),
                                    "i_max": str(reading * 2.0)})
        strict = CurrentProbe("strict", accuracy=0.01)
        loose = CurrentProbe("loose", accuracy=0.10)
        assert not strict.execute(call, INT_ILL, ("INT_ILL_F",), harness, {}).passed
        assert loose.execute(call, INT_ILL, ("INT_ILL_F",), harness, {}).passed

    def test_current_probe_rejects_non_fractional_accuracy(self):
        from repro.core.errors import InstrumentError

        with pytest.raises(InstrumentError, match="fraction"):
            CurrentProbe("probe", accuracy=1.5)
        with pytest.raises(InstrumentError, match="fraction"):
            CurrentProbe("probe", accuracy=-0.1)

    def test_ohmmeter(self, harness):
        harness.apply_resistance("DS_FL", 470.0)
        meter = OhmMeter("ohm")
        call = MethodCall("get_r", {"r_min": "400", "r_max": "500"})
        outcome = meter.execute(call, DS_FL, ("DS_FL",), harness, {})
        assert outcome.passed

    def test_digital_io_roundtrip(self, harness):
        dio = DigitalIo("dio")
        dio.execute(MethodCall("put_digital", {"level": "1"}), DS_FL, ("DS_FL",),
                    harness, {"ubatt": 12})
        outcome = dio.execute(MethodCall("get_digital", {"level_min": "1", "level_max": "1"}),
                              DS_FL, ("DS_FL",), harness, {"ubatt": 12})
        assert outcome.passed


class TestCanInterface:
    def test_put_can_sends_payload(self, harness):
        can = CanInterface("can")
        outcome = can.execute(MethodCall("put_can", {"data": "1B"}), NIGHT, (), harness, {})
        assert outcome.passed
        assert harness.ecu.night

    def test_put_can_needs_message(self, harness):
        can = CanInterface("can")
        with pytest.raises(InstrumentError):
            can.execute(MethodCall("put_can", {"data": "1B"}), DS_FL, (), harness, {})

    def test_put_can_needs_data(self, harness):
        can = CanInterface("can")
        with pytest.raises(InstrumentError):
            can.execute(MethodCall("put_can", {}), NIGHT, (), harness, {})

    def test_get_can_exact_payload(self):
        from repro.dut import CentralLockingEcu, LoadSpec, TestHarness, body_can_database

        harness = TestHarness(CentralLockingEcu(), body_can_database(),
                              loads=(LoadSpec("LOCK_LED", ohms=500.0),))
        can = CanInterface("can")
        locked = Signal("LOCKED", SignalDirection.OUTPUT, SignalKind.BUS, message="LOCK_STATUS")
        harness.send_can_payload("LOCK_COMMAND", 1)
        outcome = can.execute(MethodCall("get_can", {"data": "1B"}), locked, (), harness, {})
        assert outcome.passed
        outcome = can.execute(MethodCall("get_can", {"data": "0B"}), locked, (), harness, {})
        assert not outcome.passed

    def test_is_bus_interface_flag(self):
        assert CanInterface("can").is_bus_interface
        assert not Dvm("dvm").is_bus_interface


# ---------------------------------------------------------------------------
# The two drivers of every generator core
# ---------------------------------------------------------------------------

def _core(log, waits=(0.25, 0.5), result="done", error=None):
    """A generator core that logs each wait it yields and its own unwinding."""
    try:
        for seconds in waits:
            log.append(seconds)
            yield seconds
        if error is not None:
            raise error
        return result
    finally:
        log.append("closed")


class TestDrivers:
    def test_drive_sleeps_through_each_wait(self, monkeypatch):
        slept = []
        monkeypatch.setattr(instruments_base.time, "sleep", slept.append)
        log = []
        assert drive(_core(log)) == "done"
        assert slept == [0.25, 0.5]
        assert log == [0.25, 0.5, "closed"]

    def test_adrive_awaits_each_wait(self, monkeypatch):
        real_sleep = asyncio.sleep
        awaited = []

        async def recording_sleep(seconds):
            awaited.append(seconds)
            await real_sleep(0)

        monkeypatch.setattr(instruments_base.asyncio, "sleep", recording_sleep)
        log = []
        assert asyncio.run(adrive(_core(log))) == "done"
        assert awaited == [0.25, 0.5]
        assert log == [0.25, 0.5, "closed"]

    def test_core_errors_reach_the_caller_of_either_driver(self):
        """A transient instrument fault raised inside a core is what the
        retry layer classifies, so both drivers must let it through as is."""
        for run in (drive, lambda core: asyncio.run(adrive(core))):
            log = []
            with pytest.raises(InstrumentIOError, match="flaky"):
                run(_core(log, waits=(0.0,), error=InstrumentIOError("flaky")))
            assert log == [0.0, "closed"]

    def test_interrupted_sleep_unwinds_the_core_at_its_yield(self, monkeypatch):
        def interrupted(seconds):
            raise KeyboardInterrupt

        monkeypatch.setattr(instruments_base.time, "sleep", interrupted)
        log = []
        with pytest.raises(KeyboardInterrupt) as interrupted:
            drive(_core(log))
        # The core stopped at its first wait and ran its cleanup at once,
        # not when the traceback that still holds it is freed.
        assert log == [0.25, "closed"]
        assert interrupted.traceback

    def test_cancelled_adrive_unwinds_the_core_at_its_yield(self):
        log = []

        async def cancel_mid_wait():
            task = asyncio.ensure_future(adrive(_core(log, waits=(30.0,))))
            while not log:
                await asyncio.sleep(0)
            task.cancel()
            with pytest.raises(asyncio.CancelledError) as cancelled:
                await task
            # Unwound at the cancelled await, while the task and its
            # traceback still hold the core.
            assert log == [30.0, "closed"]
            assert cancelled.traceback

        asyncio.run(asyncio.wait_for(cancel_mid_wait(), timeout=5))

    def test_execute_and_aexecute_pay_io_delay_once_per_call(
            self, harness, monkeypatch):
        real_sleep = asyncio.sleep
        slept, awaited = [], []

        async def recording_sleep(seconds):
            awaited.append(seconds)
            await real_sleep(0)

        monkeypatch.setattr(instruments_base.time, "sleep", slept.append)
        monkeypatch.setattr(instruments_base.asyncio, "sleep", recording_sleep)
        dvm = Dvm("DVM1", io_delay=0.01)
        args = (MethodCall("get_u", {"u_min": "0", "u_max": "1"}), INT_ILL,
                ("INT_ILL_F", "INT_ILL_R"), harness, {"ubatt": 12})
        blocking = dvm.execute(*args)
        awaited_outcome = asyncio.run(dvm.aexecute(*args))
        assert slept == awaited == [0.01]
        assert blocking == awaited_outcome
        assert blocking.passed

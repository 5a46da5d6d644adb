"""Fault injection: seeded defects in the behavioural ECU models.

The paper motivates its method with "bugs, that have occurred in the past"
whose knowledge should be preserved in reusable test cases.  To evaluate how
well the paper's test sheet (and extended suites) actually detect such bugs,
this module provides *fault models*: factory-built variants of the ECU
models whose behaviour deviates in a specific, realistic way (a dead timer,
an inverted sensor polarity, an ignored door contact...).

A fault is *detected* by a test when at least one step of the test fails on
the faulty ECU while the same test passes on the healthy one.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Iterator

from .. import dut
from .._record import Record
from ..core.errors import ReproError
from ..dut.base import EcuModel
from ..dut.central_locking import CentralLockingEcu
from ..dut.exterior_light import ExteriorLightEcu
from ..dut.instrument_cluster import InstrumentClusterEcu
from ..dut.interior_light import InteriorLightEcu
from ..dut.pins import OutputDrive
from ..dut.window_lifter import WindowLifterEcu
from ..dut.wiper import WiperEcu

__all__ = [
    "FaultModel",
    "FaultCatalogue",
    "interior_light_faults",
    "central_locking_faults",
    "wiper_faults",
    "window_lifter_faults",
    "exterior_light_faults",
    "instrument_cluster_faults",
    "interaction_faults",
]


class FaultModel(Record):
    """One seeded defect: a name, a description and an ECU factory."""

    name: str
    description: str
    factory: Callable[[], EcuModel]
    expected_detected: bool = True

    def __init__(self, name: str, description: str,
                 factory: Callable[[], EcuModel],
                 expected_detected: bool = True) -> None:
        self.__dict__.update(name=name, description=description,
                             factory=factory,
                             expected_detected=expected_detected)

    def build(self) -> EcuModel:
        """Instantiate the faulty ECU (or, for composed faults, assembly)."""
        ecu = self.factory()
        # ``dut.EcuAssembly`` imports the composition module on first use,
        # which a single-DUT fault never needs.
        if not isinstance(ecu, EcuModel) and not isinstance(ecu, dut.EcuAssembly):
            raise ReproError(
                f"fault {self.name!r} factory did not return an EcuModel "
                f"or EcuAssembly"
            )
        return ecu

    def __str__(self) -> str:
        return self.name


class FaultCatalogue:
    """Ordered collection of fault models for one ECU type."""

    def __init__(self, ecu_name: str, faults: Iterable[FaultModel] = ()):
        self.ecu_name = ecu_name
        self._faults: dict[str, FaultModel] = {}
        for fault in faults:
            self.add(fault)

    def add(self, fault: FaultModel) -> None:
        if fault.name.lower() in self._faults:
            raise ReproError(f"duplicate fault model {fault.name!r}")
        self._faults[fault.name.lower()] = fault

    def get(self, name: str) -> FaultModel:
        try:
            return self._faults[str(name).lower()]
        except KeyError as exc:
            raise ReproError(f"unknown fault model {name!r}") from exc

    def __iter__(self) -> Iterator[FaultModel]:
        return iter(self._faults.values())

    def __len__(self) -> int:
        return len(self._faults)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(fault.name for fault in self._faults.values())


# ---------------------------------------------------------------------------
# Interior illumination ECU faults
# ---------------------------------------------------------------------------

class _IntLightLampStuckOff(InteriorLightEcu):
    """Output driver broken: the lamp can never be switched on."""

    def _apply_outputs(self) -> None:  # noqa: D102 - documented by class docstring
        self.drive_output("INT_ILL_F", OutputDrive.floating())
        self.drive_output("INT_ILL_R", OutputDrive.low_side(0.1))


class _IntLightLampStuckOn(InteriorLightEcu):
    """Output driver shorted: the lamp is always on."""

    def _apply_outputs(self) -> None:
        self.drive_output("INT_ILL_F", OutputDrive.high_side(self.DRIVER_RESISTANCE))
        self.drive_output("INT_ILL_R", OutputDrive.low_side(0.1))


class _IntLightTimerNeverExpires(InteriorLightEcu):
    """The 300 s switch-off timer never fires (timer service dead)."""

    TIMEOUT_S = math.inf


class _IntLightTimerTooShort(InteriorLightEcu):
    """The switch-off timer expires after 60 s instead of 300 s."""

    TIMEOUT_S = 60.0


class _IntLightTimerTooLong(InteriorLightEcu):
    """The switch-off timer expires only after 600 s (outside the spec)."""

    TIMEOUT_S = 600.0


class _IntLightInvertedNight(InteriorLightEcu):
    """The NIGHT bit is evaluated with inverted polarity."""

    @property
    def night(self) -> bool:
        return not super().night


class _IntLightIgnoresFrontRightDoor(InteriorLightEcu):
    """The front-right door contact is not evaluated (harness pin swapped)."""

    DOOR_PINS = ("DS_FL", "DS_RL", "DS_RR")


class _IntLightWorksInDaylight(InteriorLightEcu):
    """The illumination ignores the light sensor and also lights up by day."""

    @property
    def night(self) -> bool:
        return True


class _IntLightWrongDoorThreshold(InteriorLightEcu):
    """The door-contact threshold is far too low; real contacts are missed."""

    DOOR_CONTACT_THRESHOLD = 0.05


def interior_light_faults() -> FaultCatalogue:
    """The fault catalogue of the interior illumination ECU (campaign E3)."""
    return FaultCatalogue(
        InteriorLightEcu.NAME,
        (
            FaultModel("lamp_stuck_off", "output driver broken, lamp never lights",
                       _IntLightLampStuckOff),
            FaultModel("lamp_stuck_on", "output driver shorted, lamp always on",
                       _IntLightLampStuckOn),
            FaultModel("timer_never_expires", "300 s switch-off timer never fires",
                       _IntLightTimerNeverExpires),
            FaultModel("timer_too_short", "switch-off already after 60 s",
                       _IntLightTimerTooShort),
            FaultModel("timer_too_long", "switch-off only after 600 s",
                       _IntLightTimerTooLong),
            FaultModel("inverted_night", "NIGHT bit evaluated with wrong polarity",
                       _IntLightInvertedNight),
            # This escape is a machine-derived fact: the static analyzer's
            # C-DOCUMENTED-ESCAPE rule (repro.lint) proves from the sheets
            # alone that the paper's ten-step sheet never isolates DS_FR
            # with a checked non-initial illumination, and that the
            # extended suite's all_doors_at_night sheet closes the gap.
            # tests/test_lint.py guards that this stays the registry's
            # sole detection escape.
            FaultModel("ignores_ds_fr", "front-right door contact not evaluated",
                       _IntLightIgnoresFrontRightDoor, expected_detected=False),
            FaultModel("daylight_illumination", "illumination also lights up by day",
                       _IntLightWorksInDaylight),
            FaultModel("door_threshold_too_low", "door contact threshold far too low",
                       _IntLightWrongDoorThreshold),
        ),
    )


# ---------------------------------------------------------------------------
# Central locking ECU faults
# ---------------------------------------------------------------------------

class _LockIgnoresCanCommand(CentralLockingEcu):
    """CAN lock/unlock requests are ignored (gateway filter misconfigured)."""

    def _evaluate(self) -> None:
        self._rx_values.pop("lock_command", None)
        super()._evaluate()


class _LockNoAutoLock(CentralLockingEcu):
    """The speed-dependent auto lock never triggers."""

    AUTO_LOCK_SPEED = math.inf


class _LockUnlocksAtSpeed(CentralLockingEcu):
    """The unlock inhibition above 120 km/h is missing."""

    UNLOCK_INHIBIT_SPEED = math.inf


class _LockLedStuckOff(CentralLockingEcu):
    """The lock LED output is broken."""

    def _evaluate(self) -> None:
        super()._evaluate()
        self.drive_output("LOCK_LED", OutputDrive.floating())


def central_locking_faults() -> FaultCatalogue:
    """The fault catalogue of the central locking ECU."""
    return FaultCatalogue(
        CentralLockingEcu.NAME,
        (
            FaultModel("ignores_can_command", "CAN lock/unlock requests ignored",
                       _LockIgnoresCanCommand),
            FaultModel("no_auto_lock", "speed-dependent auto lock missing",
                       _LockNoAutoLock),
            # Formerly a catalogued knowledge gap: the original two sheets
            # never requested an unlock above 120 km/h.  The
            # unlock_inhibit_at_speed sheet (repro.paper.extended) now asks
            # for exactly that at 130 km/h and expects the request to be
            # refused, so the missing inhibition is caught.
            FaultModel("unlocks_at_speed", "unlock inhibition at speed missing",
                       _LockUnlocksAtSpeed),
            FaultModel("led_stuck_off", "lock LED output broken",
                       _LockLedStuckOff),
        ),
    )


# ---------------------------------------------------------------------------
# Wiper ECU faults
# ---------------------------------------------------------------------------

class _WiperMotorStuckOff(WiperEcu):
    """The wiper motor driver is broken: the motor never turns."""

    def _apply_outputs(self) -> None:
        super()._apply_outputs()
        self.drive_output("WIPER_MOTOR", OutputDrive.floating())


class _WiperNoFastRelay(WiperEcu):
    """The fast-speed relay output is never asserted."""

    def _apply_outputs(self) -> None:
        super()._apply_outputs()
        self.drive_output("WIPER_FAST", OutputDrive.floating())


class _WiperFastRelayWeak(WiperEcu):
    """The relay driver has aged to a high on-resistance.

    The 200 Ohm relay coil barely loads the weak driver, so the voltage
    check still sees a value inside the ``Ho`` window - only the
    ``fast_relay_current`` ``get_i`` sheet catches this one.
    """

    def _apply_outputs(self) -> None:
        super()._apply_outputs()
        if self._mode == 3 and self.ignition_on:
            self.drive_output("WIPER_FAST", OutputDrive.high_side(50.0))


class _WiperIntervalTooShort(WiperEcu):
    """The interval pause is 2 s instead of 5 s."""

    INTERVAL_S = 2.0


class _WiperIntervalNeverRepeats(WiperEcu):
    """The interval timer service is dead: only the first wipe runs."""

    def _end_wipe(self) -> None:
        self._interval_wiping = False
        self._wipe_end_event = None
        self._apply_outputs()


class _WiperPumpStuckOn(WiperEcu):
    """The washer pump driver is shorted: the pump runs with the ignition."""

    def _apply_outputs(self) -> None:
        super()._apply_outputs()
        if self.ignition_on:
            self.drive_output("WASH_PUMP", OutputDrive.high_side(0.5))


class _WiperIgnoresWashSwitch(WiperEcu):
    """The resistive wash button threshold is far too low; presses are missed."""

    CONTACT_THRESHOLD = 0.05


class _WiperWipesWithoutIgnition(WiperEcu):
    """The ignition interlock is missing: the wiper runs with ignition off."""

    @property
    def ignition_on(self) -> bool:
        return True


def wiper_faults() -> FaultCatalogue:
    """The fault catalogue of the wiper ECU."""
    return FaultCatalogue(
        WiperEcu.NAME,
        (
            FaultModel("motor_stuck_off", "wiper motor driver broken",
                       _WiperMotorStuckOff),
            FaultModel("no_fast_relay", "fast-speed relay never asserted",
                       _WiperNoFastRelay),
            # Formerly a catalogued knowledge gap: the weak driver still
            # reaches the Ho *voltage* window into the light coil load.  The
            # fast_relay_current get_i sheet (repro.paper.family) measures
            # the coil current (0.004 vs. the healthy 0.005 x UBATT), which
            # the CoilCurrent window resolves.
            FaultModel("fast_relay_weak", "relay driver on-resistance aged",
                       _WiperFastRelayWeak),
            FaultModel("interval_too_short", "interval pause 2 s instead of 5 s",
                       _WiperIntervalTooShort),
            FaultModel("interval_never_repeats", "interval timer never re-arms",
                       _WiperIntervalNeverRepeats),
            FaultModel("pump_stuck_on", "washer pump runs with ignition",
                       _WiperPumpStuckOn),
            FaultModel("ignores_wash_switch", "wash button threshold far too low",
                       _WiperIgnoresWashSwitch),
            FaultModel("wipes_without_ignition", "ignition interlock missing",
                       _WiperWipesWithoutIgnition),
        ),
    )


# ---------------------------------------------------------------------------
# Window lifter ECU faults
# ---------------------------------------------------------------------------

class _WinMotorUpDead(WindowLifterEcu):
    """The closing-direction motor driver is broken."""

    def _evaluate(self) -> None:
        super()._evaluate()
        self.drive_output("WIN_MOTOR_UP", OutputDrive.floating())


class _WinSwappedMotorOutputs(WindowLifterEcu):
    """The two motor outputs are swapped in the harness connector."""

    _SWAP = {"win_motor_up": "win_motor_down", "win_motor_down": "win_motor_up"}

    def drive_output(self, pin: str, drive: OutputDrive) -> None:
        super().drive_output(self._SWAP.get(str(pin).lower(), pin), drive)


class _WinIgnoresInterlock(WindowLifterEcu):
    """The ignition interlock is missing: the window moves with ignition off."""

    @property
    def ignition_on(self) -> bool:
        return True


class _WinNoEndStopCut(WindowLifterEcu):
    """The end-stop detection is broken: the motor keeps driving at the stop."""

    def _evaluate(self) -> None:
        super()._evaluate()
        if (self.ignition_on
                and self.contact_closed("WIN_SW_UP", self.CONTACT_THRESHOLD)
                and self._position <= 0.0):
            self.drive_output("WIN_MOTOR_UP", OutputDrive.high_side(0.3))


class _WinTravelTooFast(WindowLifterEcu):
    """The window travels at triple speed (wrong motor gearing constant)."""

    TRAVEL_RATE = 30.0


class _WinTravelSlightlySlow(WindowLifterEcu):
    """An aged motor travels at 9 %/s instead of 10 %/s.

    The original position acceptance window (15..25 % after 2 s) still
    contains the 18 % an aged motor reaches; the ``travel_timing`` sheet's
    long stroke with its tight 48..52 % window catches the drift.
    """

    TRAVEL_RATE = 9.0


class _WinPositionNotReported(WindowLifterEcu):
    """The position broadcast is missing (transmit path broken)."""

    def transmit(self, message: str, values) -> None:
        if str(message).lower() == "window_position":
            return
        super().transmit(message, values)


def window_lifter_faults() -> FaultCatalogue:
    """The fault catalogue of the window lifter ECU."""
    return FaultCatalogue(
        WindowLifterEcu.NAME,
        (
            FaultModel("motor_up_dead", "closing-direction driver broken",
                       _WinMotorUpDead),
            FaultModel("swapped_motor_outputs", "motor outputs swapped",
                       _WinSwappedMotorOutputs),
            FaultModel("ignores_interlock", "ignition interlock missing",
                       _WinIgnoresInterlock),
            FaultModel("no_end_stop_cut", "motor keeps driving at the end stop",
                       _WinNoEndStopCut),
            FaultModel("travel_too_fast", "window travels at triple speed",
                       _WinTravelTooFast),
            # Formerly a catalogued knowledge gap: 18 % after 2 s still sits
            # inside the generous MidOpen 15..25 % window.  The travel_timing
            # sheet (repro.paper.family) measures a 5 s stroke against the
            # tight HalfOpen 48..52 % window; the aged motor's 45 % falls
            # outside it.
            FaultModel("travel_slightly_slow", "aged motor, 9 %/s instead of 10 %/s",
                       _WinTravelSlightlySlow),
            FaultModel("position_not_reported", "position broadcast missing",
                       _WinPositionNotReported),
        ),
    )


# ---------------------------------------------------------------------------
# Exterior light ECU faults
# ---------------------------------------------------------------------------

class _ExtLowBeamDead(ExteriorLightEcu):
    """The low beam driver is broken."""

    def _evaluate(self) -> None:
        super()._evaluate()
        self.drive_output("LOW_BEAM", OutputDrive.floating())


class _ExtAutoIgnoresSensor(ExteriorLightEcu):
    """The automatic position never sees darkness (sensor input dead)."""

    @property
    def night(self) -> bool:
        return False


class _ExtDrlAlwaysOn(ExteriorLightEcu):
    """The DRL is not suppressed while the low beam is on."""

    def _evaluate(self) -> None:
        super()._evaluate()
        if self.ignition >= 2:
            self.drive_output("DRL", OutputDrive.high_side(0.2))


class _ExtDrlDim(ExteriorLightEcu):
    """The DRL driver has aged to a higher on-resistance.

    Into the 8 Ohm lamp the dimmed output still reads ~0.9 x UBATT, inside
    the ``Ho`` window, so the voltage sheets miss the fading lamp - the
    ``drl_lamp_current`` ``get_i`` sheet catches it.
    """

    def _evaluate(self) -> None:
        super()._evaluate()
        if self.drl_on:
            self.drive_output("DRL", OutputDrive.high_side(0.8))


class _ExtIgnoresParkSwitch(ExteriorLightEcu):
    """The parking light switch threshold is far too low; requests are missed."""

    CONTACT_THRESHOLD = 0.05


class _ExtPositionOnlyWithPark(ExteriorLightEcu):
    """The position light no longer follows the low beam."""

    def _evaluate(self) -> None:
        super()._evaluate()
        park = self.contact_closed("PARK_SW", self.CONTACT_THRESHOLD)
        self.drive_output(
            "POSITION_LIGHT",
            OutputDrive.high_side(0.5) if park else OutputDrive.floating(),
        )


def exterior_light_faults() -> FaultCatalogue:
    """The fault catalogue of the exterior light ECU."""
    return FaultCatalogue(
        ExteriorLightEcu.NAME,
        (
            FaultModel("low_beam_dead", "low beam driver broken",
                       _ExtLowBeamDead),
            FaultModel("auto_ignores_sensor", "automatic never sees darkness",
                       _ExtAutoIgnoresSensor),
            FaultModel("drl_always_on", "DRL not suppressed with low beam",
                       _ExtDrlAlwaysOn),
            # Formerly a catalogued knowledge gap: the dimmed driver still
            # reaches the Ho *voltage* window into the lamp load.  The
            # drl_lamp_current get_i sheet (repro.paper.family) measures the
            # lamp current (0.114 vs. the healthy 0.122 x UBATT), which the
            # LampCurrent window resolves.
            FaultModel("drl_dim", "DRL driver on-resistance aged",
                       _ExtDrlDim),
            FaultModel("ignores_park_switch", "parking light requests missed",
                       _ExtIgnoresParkSwitch),
            FaultModel("position_without_low_beam", "position light decoupled from low beam",
                       _ExtPositionOnlyWithPark),
        ),
    )


# ---------------------------------------------------------------------------
# Instrument cluster ECU faults
# ---------------------------------------------------------------------------

class _ClusterTelltaleDead(InstrumentClusterEcu):
    """The central-locking telltale lamp driver is broken."""

    def _evaluate(self) -> None:
        super()._evaluate()
        self.drive_output("LOCK_TELLTALE", OutputDrive.floating())


class _ClusterGaugeStuckZero(InstrumentClusterEcu):
    """The speedometer gauge output is stuck at zero."""

    def _evaluate(self) -> None:
        super()._evaluate()
        self.drive_output(
            "SPEED_DISP",
            OutputDrive(level=0.0, resistance=self.GAUGE_RESISTANCE),
        )


class _ClusterSpeedScaleWrong(InstrumentClusterEcu):
    """The sensor decoding uses 80 Ohm per km/h: all speeds read halved."""

    OHMS_PER_KMH = 80.0


class _ClusterSpeedTxTruncated(InstrumentClusterEcu):
    """The broadcast raw speed (0.1 km/h units) is truncated to 8 bits.

    Below 25.6 km/h the truncation is a no-op, so the cluster's own
    ``speed_display`` sheet - which only checks the broadcast payload at 0
    and 20 km/h - passes, and so does every other single-DUT suite (the
    locking ECU's speed arrives as a stand-synthesised ``put_can``).  Only
    a composed campaign, where the locking ECU consumes the *real*
    broadcast at 130 km/h (raw 1300 -> 20 -> 2.0 km/h seen), catches it:
    the auto lock never engages.  This is the bundled composition-only
    escape; it deliberately lives in the *interaction* catalogue
    (:func:`interaction_faults`), not in the cluster's own catalogue.
    """

    def transmit(self, message: str, values) -> None:
        if str(message).lower() == "vehicle_speed":
            raw = int(round(float(values.get("SPEED", 0.0)) * 10.0)) & 0xFF
            values = dict(values, SPEED=raw / 10.0)
        super().transmit(message, values)


def instrument_cluster_faults() -> FaultCatalogue:
    """The fault catalogue of the instrument cluster ECU."""
    return FaultCatalogue(
        InstrumentClusterEcu.NAME,
        (
            FaultModel("telltale_dead", "locking telltale lamp driver broken",
                       _ClusterTelltaleDead),
            FaultModel("gauge_stuck_zero", "speedometer gauge stuck at zero",
                       _ClusterGaugeStuckZero),
            FaultModel("speed_scale_wrong", "sensor decoded at half scale",
                       _ClusterSpeedScaleWrong),
        ),
    )


def _cluster_interaction_faults() -> FaultCatalogue:
    return FaultCatalogue(
        InstrumentClusterEcu.NAME,
        (
            FaultModel("speed_tx_truncated",
                       "broadcast raw speed truncated to 8 bits",
                       _ClusterSpeedTxTruncated),
        ),
    )


#: Per-ECU factories for *interaction* fault catalogues: seeded defects
#: that are provably invisible to the ECU's own single-DUT suite and only
#: detectable in a multi-ECU composition.  Kept separate from the bundled
#: per-DUT catalogues so single-DUT campaign reports (and the lint
#: coverage rules) are not polluted with faults their sheets cannot see.
_INTERACTION_FAULTS = {
    InstrumentClusterEcu.NAME: _cluster_interaction_faults,
}


def interaction_faults(ecu_name: str) -> FaultCatalogue:
    """Interaction fault catalogue for *ecu_name* (empty when none seeded)."""
    factory = _INTERACTION_FAULTS.get(str(ecu_name).lower())
    if factory is None:
        return FaultCatalogue(str(ecu_name))
    return factory()

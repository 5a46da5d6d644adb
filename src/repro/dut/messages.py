"""Shared body-domain CAN message catalogue.

All bundled ECU models and their example projects use this small message
set.  In a real vehicle programme this is the role of the OEM's DBC file;
keeping one shared catalogue is also what enables the knowledge-reuse
experiment (different "projects" share the same signal vocabulary).
"""

from __future__ import annotations

from ..can import CanDatabase, MessageDefinition, SignalCoding

__all__ = [
    "IGN_STATUS",
    "LIGHT_SENSOR",
    "LOCK_COMMAND",
    "LOCK_STATUS",
    "VEHICLE_SPEED",
    "WIPER_COMMAND",
    "WINDOW_POSITION",
    "LIGHT_SWITCH",
    "body_can_database",
]

#: Ignition status (terminal status).  IGN_ST: 0=off, 1=accessory, 2=run, 3=start.
IGN_STATUS = MessageDefinition(
    name="IGN_STATUS",
    can_id=0x100,
    length=1,
    signals=(
        SignalCoding("IGN_ST", start_bit=0, bit_length=4,
                     description="terminal status: 0=off, 1=acc, 2=run, 3=start"),
    ),
    cycle_time=0.1,
    sender="body_controller",
    description="Ignition / terminal status broadcast",
)

#: Ambient light sensor.  NIGHT: 1 when it is dark outside.
LIGHT_SENSOR = MessageDefinition(
    name="LIGHT_SENSOR",
    can_id=0x110,
    length=1,
    signals=(
        SignalCoding("NIGHT", start_bit=0, bit_length=1,
                     description="1 = ambient darkness detected"),
        SignalCoding("BRIGHTNESS", start_bit=1, bit_length=7, factor=1.0,
                     description="ambient brightness, arbitrary units 0..127"),
    ),
    cycle_time=0.2,
    sender="rain_light_sensor",
    description="Rain/light sensor broadcast",
)

#: Central locking command.  LOCK_REQ: 0=none, 1=lock, 2=unlock.
LOCK_COMMAND = MessageDefinition(
    name="LOCK_COMMAND",
    can_id=0x120,
    length=1,
    signals=(
        SignalCoding("LOCK_REQ", start_bit=0, bit_length=2,
                     description="0=no request, 1=lock, 2=unlock"),
    ),
    sender="keyless_entry",
    description="Central locking request (remote key / interior switch)",
)

#: Central locking status report.  LOCKED: 1 when all doors are locked.
LOCK_STATUS = MessageDefinition(
    name="LOCK_STATUS",
    can_id=0x121,
    length=1,
    signals=(
        SignalCoding("LOCKED", start_bit=0, bit_length=1,
                     description="1 = vehicle locked"),
    ),
    sender="central_locking_ecu",
    description="Central locking status broadcast",
)

#: Vehicle speed in km/h (0.1 km/h resolution).
VEHICLE_SPEED = MessageDefinition(
    name="VEHICLE_SPEED",
    can_id=0x130,
    length=2,
    signals=(
        SignalCoding("SPEED", start_bit=0, bit_length=12, factor=0.1, unit="km/h",
                     description="vehicle speed"),
    ),
    cycle_time=0.05,
    sender="esp",
    description="Vehicle speed broadcast",
)

#: Wiper stalk command.  WIPER_MODE: 0=off, 1=interval, 2=slow, 3=fast; WASH: washer request.
WIPER_COMMAND = MessageDefinition(
    name="WIPER_COMMAND",
    can_id=0x140,
    length=1,
    signals=(
        SignalCoding("WIPER_MODE", start_bit=0, bit_length=2,
                     description="0=off, 1=interval, 2=slow, 3=fast"),
        SignalCoding("WASH", start_bit=2, bit_length=1,
                     description="1 = washer requested"),
    ),
    sender="steering_column",
    description="Wiper stalk position",
)

#: Window position report, percent open (0 = closed, 100 = fully open).
WINDOW_POSITION = MessageDefinition(
    name="WINDOW_POSITION",
    can_id=0x150,
    length=1,
    signals=(
        SignalCoding("WIN_POS", start_bit=0, bit_length=7, unit="%",
                     description="window opening 0..100 %"),
    ),
    sender="window_lifter_ecu",
    description="Window position broadcast",
)

#: Exterior light switch.  LIGHT_SW: 0=off, 1=auto, 2=on.
LIGHT_SWITCH = MessageDefinition(
    name="LIGHT_SWITCH",
    can_id=0x160,
    length=1,
    signals=(
        SignalCoding("LIGHT_SW", start_bit=0, bit_length=2,
                     description="0=off, 1=automatic, 2=on"),
    ),
    sender="light_switch_module",
    description="Exterior light switch position",
)


#: The body catalogue, built once per process (a database is immutable).
_BODY_CAN = CanDatabase(
    (
        IGN_STATUS,
        LIGHT_SENSOR,
        LOCK_COMMAND,
        LOCK_STATUS,
        VEHICLE_SPEED,
        WIPER_COMMAND,
        WINDOW_POSITION,
        LIGHT_SWITCH,
    ),
    name="body_can",
)


def body_can_database() -> CanDatabase:
    """The shared body-domain CAN database used by all bundled ECU models.

    Every call returns the same immutable instance; to add messages, build
    a new ``CanDatabase`` from its messages and yours.
    """
    return _BODY_CAN

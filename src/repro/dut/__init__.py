"""Device-under-test substrate: behavioural ECU models, wiring and simulation.

The composition names are imported from :mod:`repro.dut.composition` on
first use (see :mod:`repro._lazy`), so a single-DUT campaign does not load
the multi-ECU wiring.
"""

from .._lazy import lazy_exports
from .base import EcuModel
from .central_locking import CentralLockingEcu
from .events import Event, EventScheduler
from .exterior_light import ExteriorLightEcu
from .harness import LoadSpec, TestHarness
from .instrument_cluster import InstrumentClusterEcu
from .interior_light import InteriorLightEcu
from .messages import body_can_database
from .network import GROUND, Network
from .pins import OutputDrive, Pin, PinKind
from .window_lifter import WindowLifterEcu
from .wiper import WiperEcu

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "composition": ("CompositionHarness", "EcuAssembly", "merge_databases"),
})
__all__ += [
    "EcuModel",
    "Event",
    "EventScheduler",
    "Pin",
    "PinKind",
    "OutputDrive",
    "Network",
    "GROUND",
    "TestHarness",
    "LoadSpec",
    "body_can_database",
    "InteriorLightEcu",
    "CentralLockingEcu",
    "InstrumentClusterEcu",
    "WindowLifterEcu",
    "WiperEcu",
    "ExteriorLightEcu",
]

"""The paper's worked example, reconstructed as library objects.

Everything in this module mirrors Section 3 and 4 of Brinkmeyer (DATE 2005)
as closely as the two-page paper allows:

* :func:`paper_signal_set` - the signal definition sheet of the interior
  illumination function (signals ``IGN_ST``, ``DS_FL``, ``DS_FR``, ``DS_RL``,
  ``DS_RR``, ``NIGHT``, ``INT_ILL``),
* :func:`paper_status_table` - the status table with ``Off``, ``Open``,
  ``Closed``, ``0``, ``1``, ``Lo``, ``Ho``,
* :func:`paper_test_definition` - the ten-step test definition sheet,
* :func:`paper_suite` / :func:`paper_workbook` - the complete bundle,
* :func:`build_paper_harness` - the interior-light ECU wired with the lamp
  load of the paper's test-circuit figure,
* :func:`run_paper_example` - compile the sheet, generate the XML script and
  execute it on a stand (the paper stand by default).

Interpretation notes (documented deviations)
--------------------------------------------

The paper's status table prints the numeric columns of ``Open`` and
``Closed`` in a typography that does not survive OCR unambiguously.  This
reproduction uses the physically meaningful reading:

* ``Open``  (door open, contact closed): apply a nominal contact resistance
  of 0.5 Ohm, accepted while the applied value stays within 0..2 Ohm.
* ``Closed`` (door closed, contact open): request an open circuit
  (``INF``); any realisation of at least 5000 Ohm is accepted (the paper's
  ``5000`` auxiliary columns).  A test stand may realise this either with
  the maximum value of a resistor decade or simply by disconnecting the
  pin.

The paper's resource table lists the decades with method ``get_r``; since
the decades *apply* resistances (the statuses ``Open``/``Closed`` are bound
to ``put_r``), this reproduction models them as ``put_r`` resources.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..can import CanDatabase
from ..core.compiler import Compiler
from ..core.script import MethodCall, SignalAction, TestScript
from ..core.signals import Signal, SignalDirection, SignalKind, SignalSet
from ..core.status import StatusDefinition, StatusTable
from ..core.testdef import TestDefinition, TestSuite
from ..dut.harness import LoadSpec, TestHarness
from ..dut.interior_light import InteriorLightEcu
from ..dut.messages import body_can_database
from ..teststand.interpreter import TestStandInterpreter
from ..teststand.stands import TestStand, build_paper_stand
from ..teststand.verdict import TestResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sheets.workbook import Workbook

__all__ = [
    "PAPER_TEST_NAME",
    "paper_signal_set",
    "paper_status_table",
    "paper_test_definition",
    "paper_suite",
    "paper_workbook",
    "paper_can_database",
    "build_paper_harness",
    "compile_paper_script",
    "run_paper_example",
    "paper_xml_snippet_action",
]

#: Name of the paper's test definition sheet in this reproduction.
PAPER_TEST_NAME = "interior_illumination"

#: Lamp resistance of the interior illumination bulb used in the harness [Ohm].
LAMP_RESISTANCE = 6.0


def paper_signal_set() -> SignalSet:
    """The signal definition sheet of the paper's example DUT."""
    return SignalSet(
        (
            Signal("IGN_ST", SignalDirection.INPUT, SignalKind.BUS,
                   message="IGN_STATUS", initial_status="Off",
                   description="ignition status (terminal status) over CAN"),
            Signal("DS_FL", SignalDirection.INPUT, SignalKind.RESISTIVE,
                   pins=("DS_FL",), initial_status="Closed",
                   description="door switch front left"),
            Signal("DS_FR", SignalDirection.INPUT, SignalKind.RESISTIVE,
                   pins=("DS_FR",), initial_status="Closed",
                   description="door switch front right"),
            Signal("DS_RL", SignalDirection.INPUT, SignalKind.RESISTIVE,
                   pins=("DS_RL",), initial_status="Closed",
                   description="door switch rear left"),
            Signal("DS_RR", SignalDirection.INPUT, SignalKind.RESISTIVE,
                   pins=("DS_RR",), initial_status="Closed",
                   description="door switch rear right"),
            Signal("NIGHT", SignalDirection.INPUT, SignalKind.BUS,
                   message="LIGHT_SENSOR", initial_status="0",
                   description="night bit from the light sensor"),
            Signal("INT_ILL", SignalDirection.OUTPUT, SignalKind.ANALOG,
                   pins=("INT_ILL_F", "INT_ILL_R"), initial_status="Lo",
                   description="interior illumination lamp output"),
        ),
        dut="interior_light_ecu",
    )


def paper_status_table() -> StatusTable:
    """The paper's status table (see the module docstring for the reading used)."""
    return StatusTable(
        (
            StatusDefinition.from_cells("Off", "put_can", "data", nominal="0001B",
                                        description="ignition off"),
            StatusDefinition.from_cells("Open", "put_r", "r", nominal="0,5",
                                        minimum="0", maximum="2", d1="1",
                                        description="door open (contact closed)"),
            StatusDefinition.from_cells("Closed", "put_r", "r", nominal="INF",
                                        minimum="5000", maximum="INF", d1="5000",
                                        description="door closed (contact open)"),
            StatusDefinition.from_cells("0", "put_can", "data", nominal="0B",
                                        description="bit inactive"),
            StatusDefinition.from_cells("1", "put_can", "data", nominal="1B",
                                        description="bit active"),
            StatusDefinition.from_cells("Lo", "get_u", "u", variable="UBATT",
                                        nominal="0", minimum="0", maximum="0,3",
                                        description="output low (lamp off)"),
            StatusDefinition.from_cells("Ho", "get_u", "u", variable="UBATT",
                                        nominal="1", minimum="0,7", maximum="1,1",
                                        description="output high (lamp on)"),
        ),
        name="paper_status",
    )


def paper_test_definition() -> TestDefinition:
    """The paper's ten-step test definition sheet.

    Column order and the step timing (0.5 s steps, one 280 s and one 25 s
    step around the 300 s timeout) follow the paper's table; the remark
    column carries the paper's wording.
    """
    test = TestDefinition(
        PAPER_TEST_NAME,
        signals=("IGN_ST", "DS_FL", "DS_FR", "NIGHT", "INT_ILL"),
        description="Interior illumination as a function of doors, night bit and time",
        requirement="REQ_INT_ILL",
    )
    test.add_step(0.5, {"IGN_ST": "Off", "DS_FL": "Closed", "DS_FR": "Closed",
                        "NIGHT": "0", "INT_ILL": "Lo"},
                  remark="day: no interior")
    test.add_step(0.5, {"DS_FL": "Open", "INT_ILL": "Lo"},
                  remark="illumination, if")
    test.add_step(0.5, {"DS_FL": "Closed", "DS_FR": "Open", "INT_ILL": "Lo"},
                  remark="doors are open")
    test.add_step(0.5, {"DS_FR": "Closed", "INT_ILL": "Lo"})
    test.add_step(0.5, {"DS_FL": "Open", "NIGHT": "1", "INT_ILL": "Ho"},
                  remark="night: interior")
    test.add_step(0.5, {"DS_FL": "Closed", "INT_ILL": "Lo"},
                  remark="illumination on,")
    test.add_step(0.5, {"DS_FL": "Open", "INT_ILL": "Ho"},
                  remark="if doors are open")
    test.add_step(280.0, {"INT_ILL": "Ho"})
    test.add_step(25.0, {"INT_ILL": "Lo"},
                  remark="illumination")
    test.add_step(0.5, {"DS_FL": "Closed", "INT_ILL": "Lo"},
                  remark="off after 300s")
    return test


def paper_suite() -> TestSuite:
    """The complete test suite (signals + statuses + the one test sheet)."""
    suite = TestSuite(
        "interior_light_ecu",
        paper_signal_set(),
        paper_status_table(),
        (paper_test_definition(),),
        description="Component tests of the interior illumination ECU (paper example)",
    )
    suite.validate()
    return suite


def paper_workbook() -> Workbook:
    """The example rendered as the three-sheet workbook (CSV-persistable)."""
    from ..sheets.workbook import suite_to_workbook

    return suite_to_workbook(paper_suite())


def paper_can_database() -> CanDatabase:
    """The CAN database used by the paper example (shared body catalogue)."""
    return body_can_database()


def interior_harness(ecu: InteriorLightEcu | None = None, *,
                     ubatt: float = 12.0) -> TestHarness:
    """The paper's test-circuit wiring around *ecu* (fresh healthy one if None).

    This is the canonical (module-level, hence picklable) harness factory
    for interior-light campaign jobs: pass a possibly-faulty ECU and get it
    wired exactly like the paper's figure.
    """
    return TestHarness(
        ecu if ecu is not None else InteriorLightEcu(),
        paper_can_database(),
        ubatt=ubatt,
        loads=(LoadSpec("INT_ILL_F", "INT_ILL_R", LAMP_RESISTANCE, name="interior_lamp"),),
    )


def build_paper_harness(*, ubatt: float = 12.0) -> TestHarness:
    """The interior-light ECU wired as in the paper's test-circuit figure.

    The lamp (:data:`LAMP_RESISTANCE`) sits between ``INT_ILL_F`` and
    ``INT_ILL_R``; the door switch pins are left open until a resistor decade
    connects to them; the ECU is attached to a CAN bus together with the
    test stand's CAN interface.
    """
    return interior_harness(ubatt=ubatt)


def compile_paper_script() -> TestScript:
    """Compile the paper's sheet into the stand-independent XML-able script."""
    return Compiler().compile_test(paper_suite(), PAPER_TEST_NAME)


def run_paper_example(
    stand: TestStand | None = None,
    *,
    policy: str = "first_fit",
    ubatt: float | None = None,
) -> tuple[TestScript, TestResult]:
    """Compile and execute the paper's example; returns (script, result).

    By default the script runs on the paper's own stand; pass any other
    :class:`~repro.teststand.stands.TestStand` to demonstrate portability.
    """
    stand = stand or build_paper_stand()
    harness = build_paper_harness(ubatt=ubatt if ubatt is not None else stand.supply_voltage)
    script = compile_paper_script()
    interpreter = TestStandInterpreter(stand, harness, paper_signal_set(), policy=policy)
    result = interpreter.run(script)
    return script, result


def paper_xml_snippet_action() -> SignalAction:
    """The signal action whose XML the paper prints verbatim in Section 3.

    ``<signal name="int_ill"> <get_u u_max="(1.1*ubatt)" u_min="(0.7*ubatt)"/> </signal>``
    """
    return SignalAction(
        "int_ill",
        MethodCall("get_u", {"u_max": "(1.1*ubatt)", "u_min": "(0.7*ubatt)"}),
    )

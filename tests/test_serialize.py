"""Tests for repro.teststand.serialize: the report dict round-trip.

The persistent result store, the JSON API and ``repro-campaign --format
json`` all stand on one contract: ``ExecutionReport.to_dict()`` /
``from_dict()`` reproduce the rendered verdict table byte-for-byte, emit
stable key order and carry an explicit schema version.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main_campaign
from repro.core.errors import ReproError
from repro.targets import CampaignSpec, run_campaign
from repro.teststand import (
    REPORT_SCHEMA,
    ExecutionReport,
    report_from_dict,
    report_to_dict,
)


@pytest.fixture(scope="module")
def campaign_result():
    """One real campaign to serialize (module-scoped: it runs hardware)."""
    return run_campaign(CampaignSpec(dut="wiper_ecu"))


def test_report_dict_shape_and_schema(campaign_result):
    report = campaign_result.execution
    document = report.to_dict()
    assert list(document) == [
        "schema", "kind", "backend", "workers", "wall_time",
        "scripts", "jobs",
    ]
    assert document["schema"] == REPORT_SCHEMA
    assert document["kind"] == "execution-report"
    assert len(document["jobs"]) == len(report.results)
    # scripts are deduplicated: a family campaign runs each sheet once per
    # fault group, but the sheet itself is stored once
    assert len(document["scripts"]) < len(document["jobs"])
    # the free function and the method are the same serializer
    assert report_to_dict(report) == document


def test_report_serialises_each_script_once(campaign_result, monkeypatch):
    """Jobs share their scripts: ``to_dict`` serialises each distinct
    script once and takes its content key from the script's memo, however
    often the report is serialised."""
    from repro.teststand import serialize

    serialised = []
    script_to_dict = serialize.script_to_dict

    def counted(script):
        serialised.append(script.name)
        return script_to_dict(script)

    monkeypatch.setattr(serialize, "script_to_dict", counted)
    report = campaign_result.execution
    document = report.to_dict()
    assert len(report.results) == 36
    assert len(document["scripts"]) == 4
    assert sorted(serialised) == sorted(
        script["name"] for script in document["scripts"])
    serialised.clear()
    assert report.to_dict() == document
    assert len(serialised) == 4


def test_report_round_trip_is_byte_identical(campaign_result):
    report = campaign_result.execution
    document = report.to_dict()
    restored = ExecutionReport.from_dict(document)
    assert restored.verdict_table() == report.verdict_table()
    assert restored.summary() == report.summary()
    assert restored.backend == report.backend
    assert restored.workers == report.workers
    assert [r.verdict for r in restored.results] == \
        [r.verdict for r in report.results]
    # idempotence: serializing the restored report reproduces the document
    # including key order (compared on the rendered JSON text)
    assert json.dumps(restored.to_dict(), sort_keys=False) == \
        json.dumps(document, sort_keys=False)
    # survives an actual JSON wire trip
    wired = ExecutionReport.from_dict(json.loads(json.dumps(document)))
    assert wired.verdict_table() == report.verdict_table()
    assert report_from_dict(document).summary() == report.summary()


def test_restored_report_refuses_to_rerun(campaign_result):
    """A deserialized report is a record, not a runnable campaign: its
    factory placeholders must refuse loudly instead of building a wrong
    harness silently."""
    restored = ExecutionReport.from_dict(campaign_result.execution.to_dict())
    job = restored.results[0].job
    with pytest.raises(ReproError):
        job.harness_factory()


def test_unknown_schema_rejected(campaign_result):
    document = campaign_result.execution.to_dict()
    document["schema"] = REPORT_SCHEMA + 999
    with pytest.raises(ReproError):
        ExecutionReport.from_dict(document)


def test_campaign_cli_json_format(capsys):
    assert main_campaign(["--dut", "wiper_ecu", "--format", "json"]) == 0
    captured = capsys.readouterr()
    document = json.loads(captured.out)
    assert document["kind"] == "campaign-result"
    assert document["dut"] == "wiper_ecu"
    assert document["store_run_id"] is None
    assert document["execution"]["schema"] == REPORT_SCHEMA
    # the rendered table/summary in the document are the text-mode stdout
    capsys.readouterr()
    assert main_campaign(["--dut", "wiper_ecu"]) == 0
    text_out = capsys.readouterr().out
    assert text_out == document["table"] + "\n" + document["summary"] + "\n"


# ---------------------------------------------------------------------------
# action_results_text: each distinct list encoded once, exactly
# ---------------------------------------------------------------------------

@pytest.fixture
def texts(monkeypatch):
    """An empty text table for one test; returns it."""
    from repro.teststand import serialize

    table: dict = {}
    monkeypatch.setattr(serialize, "_TEXTS", table)
    return table


def _reading(observed=1.5, *, passed=True, limits=None, params=None,
             persistent=False):
    """One ``get_u`` action result with the given fields."""
    from repro.core.script import MethodCall, SignalAction
    from repro.methods import MethodOutcome
    from repro.teststand.allocator import Allocation
    from repro.teststand.verdict import ActionResult, Verdict

    call = MethodCall("get_u", {"u_min": "1", "u_max": "2"}
                      if params is None else params)
    return ActionResult(
        SignalAction("INT_ILL", call), Verdict.PASS,
        outcome=MethodOutcome("get_u", passed, observed, limits, "V", "ok"),
        allocation=Allocation("INT_ILL", "get_u", "DVM_1",
                              persistent=persistent),
    )


def _reference(results) -> str:
    """What the store wrote before the table: ``json.dumps`` of the
    ``setup`` documents of a result holding *results*."""
    from repro.core.script import TestScript
    from repro.teststand.serialize import result_to_dict
    from repro.teststand.verdict import TestResult

    result = TestResult(TestScript("t", "interior_light_ecu"), "paper",
                        setup=results)
    return json.dumps(result_to_dict(result)["setup"])


def _exactness_cases() -> dict:
    from repro.core.values import Interval

    return {
        "signed zero": [_reading(0.0), _reading(-0.0)],
        "one, 1.0 and True": [_reading(1), _reading(1.0), _reading(True)],
        "passed True and 1": [_reading(passed=True), _reading(passed=1)],
        "signed zero bound": [_reading(limits=Interval(-0.0, 1.0)),
                              _reading(limits=Interval(0.0, 1.0))],
        "param order": [_reading(params={"u": "1", "ri": "2"}),
                        _reading(params={"ri": "2", "u": "1"})],
        "persistent False and 0": [_reading(persistent=False),
                                   _reading(persistent=0)],
    }


@pytest.mark.parametrize("case", sorted(_exactness_cases()))
def test_equal_results_that_write_differently_keep_their_own_text(case,
                                                                   texts):
    """Results that compare equal, or whose fields do, but write different
    JSON each get their own reference text, whichever the table sees
    first."""
    import itertools

    from repro.teststand.serialize import action_results_text

    variants = _exactness_cases()[case]
    assert len({_reference((result,)) for result in variants}) \
        == len(variants)
    for order in itertools.permutations(variants):
        texts.clear()
        for result in order:
            assert action_results_text((result,)) == _reference((result,))
        assert len(texts) == len(variants)


def test_reordered_params_make_equal_actions():
    """The param-order case above is not vacuous: SignalAction equality
    ignores the order that the text keeps."""
    first = _reading(params={"u": "1", "ri": "2"})
    second = _reading(params={"ri": "2", "u": "1"})
    assert first.action == second.action
    assert first == second


def test_nan_readings_share_one_text(texts):
    """Every NaN writes ``NaN``, although no NaN equals another."""
    from repro.teststand.serialize import action_results_text

    first, second = _reading(float("nan")), _reading(float("nan"))
    assert first.outcome.observed is not second.outcome.observed
    assert action_results_text((first,)) == _reference((first,))
    assert action_results_text((second,)) == _reference((second,))
    assert '"observed": NaN' in _reference((second,))
    assert len(texts) == 1


def test_a_list_is_encoded_once(texts, monkeypatch):
    """A list equal in every field to one seen before reuses its text."""
    from repro.teststand import serialize

    first = (_reading(0.5), _reading(1.5, passed=False))
    again = (_reading(0.5), _reading(1.5, passed=False))
    expected = _reference(first)
    encoded = []
    to_dict = serialize._action_result_to_dict

    def counted(result):
        encoded.append(result)
        return to_dict(result)

    monkeypatch.setattr(serialize, "_action_result_to_dict", counted)
    assert serialize.action_results_text(first) == expected
    assert serialize.action_results_text(again) == expected
    assert serialize.action_results_text(()) == "[]"
    assert len(encoded) == 2
    assert len(texts) == 2


def test_a_full_table_stops_growing_and_stays_exact(texts, monkeypatch):
    from repro.teststand import serialize

    monkeypatch.setattr(serialize, "TEXTS_MAX", 2)
    readings = [_reading(float(volts)) for volts in range(1, 6)]
    for _ in range(2):
        for result in readings:
            assert serialize.action_results_text((result,)) \
                == _reference((result,))
        assert len(texts) == 2


def test_a_value_without_an_exact_key_is_encoded_each_time(texts):
    """A type the key does not cover (here a float subclass that prints
    itself differently from the text json writes) is never kept."""
    from repro.teststand.serialize import action_results_text

    class Volts(float):
        def __repr__(self) -> str:
            return "Volts"

    for observed in (Volts(0.0), Volts(-0.0)):
        result = _reading(observed)
        assert action_results_text((result,)) == _reference((result,))
    assert texts == {}

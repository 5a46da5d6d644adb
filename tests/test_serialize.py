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

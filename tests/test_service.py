"""Tests for repro.service: the campaign job queue and its WSGI JSON API.

The queue tests drive :class:`CampaignService` directly (real runs and
stub runners); the API tests call the WSGI app in-process with synthetic
environs - no sockets.  The acceptance bar: a campaign submitted over the
API, once done, serves a report whose ``table`` + ``summary`` are
byte-identical to the producing ``repro-campaign`` stdout.
"""

from __future__ import annotations

import io
import json
import time

import pytest

from repro.cli import main_campaign
from repro.service import (
    JOB_STATES,
    CampaignApp,
    CampaignService,
    ServiceError,
)
from repro.service.cli import main_serve
from repro.store import ResultStore
from repro.targets import CampaignSpec, run_campaign


# ---------------------------------------------------------------------------
# WSGI plumbing
# ---------------------------------------------------------------------------

def request(app, method: str, path: str, body: dict | str | None = None):
    """Run one in-process WSGI request; returns (status_code, json_body)."""
    if isinstance(body, dict):
        raw = json.dumps(body).encode("utf-8")
    elif isinstance(body, str):
        raw = body.encode("utf-8")
    else:
        raw = b""
    environ = {
        "REQUEST_METHOD": method,
        "PATH_INFO": path,
        "CONTENT_LENGTH": str(len(raw)),
        "wsgi.input": io.BytesIO(raw),
    }
    captured = {}

    def start_response(status, headers):
        captured["status"] = status
        captured["headers"] = dict(headers)

    chunks = app(environ, start_response)
    payload = b"".join(chunks).decode("utf-8")
    assert captured["headers"]["Content-Type"].startswith("application/json")
    return int(captured["status"].split()[0]), json.loads(payload)


@pytest.fixture
def service():
    with CampaignService(":memory:") as svc:
        yield svc


@pytest.fixture
def app(service):
    return CampaignApp(service)


# ---------------------------------------------------------------------------
# The job queue
# ---------------------------------------------------------------------------

def test_job_states_are_the_documented_lifecycle():
    assert JOB_STATES == ("queued", "running", "done", "failed")


def test_submit_run_record_lifecycle(service):
    job = service.submit(CampaignSpec(dut="wiper_ecu"))
    snapshot = service.wait(job, timeout=60)
    assert snapshot["state"] == "done"
    assert snapshot["error"] == ""
    assert snapshot["run_id"] is not None
    assert snapshot["summary"].startswith("fault campaign:")
    assert snapshot["started_at"] >= snapshot["submitted_at"]
    assert snapshot["finished_at"] >= snapshot["started_at"]
    run = service.store.get_run(snapshot["run_id"])
    assert run.dut == "wiper_ecu"
    assert "fault campaign:" in run.render()


def test_failed_campaign_is_the_jobs_failure_not_the_services(service):
    job = service.submit(CampaignSpec(dut="no_such_dut"))
    snapshot = service.wait(job, timeout=60)
    assert snapshot["state"] == "failed"
    assert snapshot["run_id"] is None
    assert "no_such_dut" in snapshot["error"]
    # the worker survives: the next job still runs
    job2 = service.submit(CampaignSpec(dut="wiper_ecu"))
    assert service.wait(job2, timeout=60)["state"] == "done"


def test_jobs_execute_in_submission_order():
    order = []

    def runner(spec):
        order.append(spec.dut)
        raise RuntimeError("stub")

    with CampaignService(":memory:", runner=runner) as service:
        jobs = [service.submit(CampaignSpec(dut=name))
                for name in ("wiper_ecu", "interior_light_ecu")]
        for job in jobs:
            service.wait(job, timeout=10)
    assert order == ["wiper_ecu", "interior_light_ecu"]
    assert [job for job in jobs] == [1, 2]


def test_wait_timeout_raises():
    def runner(spec):
        time.sleep(5)

    service = CampaignService(":memory:", runner=runner)
    try:
        job = service.submit(CampaignSpec(dut="wiper_ecu"))
        with pytest.raises(ServiceError):
            service.wait(job, timeout=0.05)
        assert service.status(job)["state"] in ("queued", "running")
    finally:
        service.shutdown(wait=False)


def test_unknown_job_and_bad_spec_rejected(service):
    with pytest.raises(ServiceError):
        service.status(999)
    with pytest.raises(ServiceError):
        service.wait(999)
    with pytest.raises(ServiceError):
        service.submit({"dut": "wiper_ecu"})


def test_shutdown_is_idempotent_and_closes_submission():
    service = CampaignService(":memory:")
    service.shutdown()
    service.shutdown()
    with pytest.raises(ServiceError):
        service.submit(CampaignSpec(dut="wiper_ecu"))


def test_service_ignores_store_path_on_the_spec(service, tmp_path):
    """A submitted spec pointing at another store must not open it: the
    service records through its own store only."""
    foreign = tmp_path / "foreign.db"
    job = service.submit(CampaignSpec(dut="wiper_ecu",
                                      store=str(foreign)))
    snapshot = service.wait(job, timeout=60)
    assert snapshot["state"] == "done"
    assert not foreign.exists()
    assert snapshot["run_id"] in service.store.run_ids()


# ---------------------------------------------------------------------------
# The JSON API
# ---------------------------------------------------------------------------

def test_index_and_targets(app):
    status, body = request(app, "GET", "/")
    assert status == 200
    assert body["service"] == "repro campaign service"
    assert "POST /campaigns" in body["endpoints"]
    status, body = request(app, "GET", "/targets")
    assert status == 200
    duts = {entry["name"]: entry for entry in body["duts"]}
    assert "wiper_ecu" in duts
    assert duts["wiper_ecu"]["campaignable"]
    assert {entry["name"] for entry in body["stands"]} >= {"paper"}


def test_api_campaign_round_trip_matches_cli_stdout(app, service, capsys):
    status, body = request(app, "POST", "/campaigns", {"dut": "wiper_ecu"})
    assert status == 202
    assert body["state"] == "queued"
    job = body["job"]
    assert body["location"] == f"/campaigns/{job}"
    snapshot = service.wait(job, timeout=60)
    assert snapshot["state"] == "done"

    status, body = request(app, "GET", f"/campaigns/{job}")
    assert status == 200
    assert body["state"] == "done"
    run_id = body["run_id"]

    status, report = request(app, "GET", f"/runs/{run_id}/report")
    assert status == 200
    assert report["dut"] == "wiper_ecu"
    assert report["report"]["kind"] == "execution-report"

    # byte-identity with the CLI: table + summary ARE the campaign stdout
    assert main_campaign(["--dut", "wiper_ecu"]) == 0
    cli_stdout = capsys.readouterr().out
    assert f"{report['table']}\n{report['summary']}\n" == cli_stdout


def test_api_campaigns_a_composition(app, service):
    status, body = request(app, "GET", "/targets")
    compositions = {entry["name"]: entry for entry in body["compositions"]}
    assert compositions["lock+cluster"]["members"] == {
        "lock": "central_locking_ecu", "cluster": "instrument_cluster_ecu"}
    status, body = request(app, "POST", "/campaigns",
                           {"composition": "lock+cluster"})
    assert status == 202
    snapshot = service.wait(body["job"], timeout=60)
    assert snapshot["state"] == "done", snapshot["error"]
    assert snapshot["composition"] == "lock+cluster"
    assert snapshot["dut"] is None

    status, report = request(app, "GET", f"/runs/{snapshot['run_id']}/report")
    assert status == 200
    live = run_campaign(CampaignSpec(composition="lock+cluster"))
    assert report["table"] == live.table()
    assert report["summary"] == live.summary()


def test_api_diff_of_identical_runs_is_empty(app, service):
    jobs = [request(app, "POST", "/campaigns", {"dut": "wiper_ecu"})[1]["job"]
            for _ in range(2)]
    runs = [service.wait(job, timeout=60)["run_id"] for job in jobs]
    status, body = request(app, "GET", f"/runs/{runs[0]}/diff/{runs[1]}")
    assert status == 200
    assert body["empty"] is True
    assert body["changed"] == []
    assert body["only_a"] == [] and body["only_b"] == []


def test_api_jobs_listing(app, service):
    job = request(app, "POST", "/campaigns", {"dut": "wiper_ecu"})[1]["job"]
    service.wait(job, timeout=60)
    status, body = request(app, "GET", "/campaigns")
    assert status == 200
    assert [entry["job"] for entry in body["jobs"]] == [job]
    assert body["jobs"][0]["state"] == "done"


def test_api_error_codes(app):
    # malformed / invalid submissions -> 400 with an explanation
    for body, fragment in [
        (None, "JSON body"),
        ("{not json", "not valid JSON"),
        ("[1, 2]", "JSON object"),
        ({"dut": "wiper_ecu", "store": "x.db"}, "unknown campaign field"),
        ({"stand": "paper_stand"}, "'dut' or a 'workbook'"),
        ({"dut": "wiper_ecu", "jobs": "many"}, "invalid campaign spec"),
    ]:
        status, payload = request(app, "POST", "/campaigns", body)
        assert status == 400, body
        assert fragment in payload["error"]
    # unknown resources -> 404
    assert request(app, "GET", "/campaigns/999")[0] == 404
    assert request(app, "GET", "/campaigns/abc")[0] == 404
    assert request(app, "GET", "/runs/999/report")[0] == 404
    assert request(app, "GET", "/runs/1/diff/2")[0] == 404
    assert request(app, "GET", "/no/such/endpoint")[0] == 404
    # wrong methods -> 405
    assert request(app, "DELETE", "/campaigns")[0] == 405
    assert request(app, "POST", "/targets")[0] == 405


# ---------------------------------------------------------------------------
# repro-serve CLI (error paths only; the listening path is CI's smoke job)
# ---------------------------------------------------------------------------

def test_serve_rejects_unopenable_store(tmp_path, capsys):
    target = tmp_path / "not-a-directory" / "results.db"
    assert main_serve(["--store", str(target)]) == 2
    assert "cannot open store" in capsys.readouterr().err


def test_serve_rejects_busy_port(capsys):
    import socket

    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        assert main_serve(["--store", ":memory:",
                           "--host", "127.0.0.1",
                           "--port", str(port)]) == 2
    assert "cannot listen" in capsys.readouterr().err

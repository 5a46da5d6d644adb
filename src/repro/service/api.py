"""The WSGI JSON API over :class:`~repro.service.queue.CampaignService`.

A deliberately thin HTTP layer on stdlib WSGI - no framework, no new
dependency - served by ``repro-serve`` (:mod:`repro.service.cli`) through
:mod:`wsgiref.simple_server`, or mountable under any WSGI container.
Every response body is JSON; errors are ``{"error": ...}`` with the
matching status code.

Routes (see ``docs/result-store.md`` for a curl quickstart):

``GET /``
    service metadata and the endpoint catalogue.
``GET /targets``
    the registered DUTs, compositions and stands (what a campaign may ask
    for).
``POST /campaigns``
    submit a campaign; the JSON body carries
    :class:`~repro.targets.CampaignSpec` fields (``dut``, ``composition``
    or ``workbook`` required).  Returns 202 with the job id and its
    polling location.
``GET /campaigns`` / ``GET /campaigns/<id>``
    job snapshots: state (queued / running / done / failed), timestamps,
    and - once done - the store ``run_id``.
``GET /runs/<id>/report``
    the recorded run: rendered fault ``table`` + ``summary`` (byte-
    identical to the producing ``repro-campaign`` stdout), the per-job
    ``verdict_table``, and the full schema-versioned ``report`` document.
``GET /runs/<a>/diff/<b>``
    per-sheet verdict deltas between two stored runs.
"""

from __future__ import annotations

import json
from typing import Callable, Iterable

from .. import targets
from ..store import StoreError
from .queue import CampaignService, ServiceError

__all__ = ["CampaignApp", "SPEC_FIELDS"]

#: CampaignSpec fields a POST /campaigns body may set.  Everything else -
#: in particular ``store`` (the service records into its own store) and
#: ``suite`` (not expressible in JSON) - is rejected with 400.
SPEC_FIELDS = (
    "dut", "composition", "workbook", "stand", "faults", "policy", "backend",
    "jobs", "concurrency", "retries", "use_plans", "reuse_stands", "preflight",
)


class _HttpError(Exception):
    def __init__(self, status: str, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


def _bad_request(message: str) -> _HttpError:
    return _HttpError("400 Bad Request", message)


def _not_found(message: str) -> _HttpError:
    return _HttpError("404 Not Found", message)


def _int_segment(segment: str, what: str) -> int:
    try:
        return int(segment)
    except ValueError:
        raise _not_found(f"{what} {segment!r} is not a valid id") from None


class CampaignApp:
    """WSGI application serving the campaign service's JSON API."""

    def __init__(self, service: CampaignService):
        self.service = service

    # -- WSGI entry ---------------------------------------------------------

    def __call__(self, environ: dict,
                 start_response: Callable) -> Iterable[bytes]:
        method = environ.get("REQUEST_METHOD", "GET").upper()
        segments = [s for s in environ.get("PATH_INFO", "/").split("/") if s]
        try:
            status, body = self._route(method, segments, environ)
        except _HttpError as error:
            status, body = error.status, {"error": error.message}
        except (ServiceError, StoreError) as exc:
            status, body = "404 Not Found", {"error": str(exc)}
        payload = (json.dumps(body, indent=2) + "\n").encode("utf-8")
        start_response(status, [
            ("Content-Type", "application/json; charset=utf-8"),
            ("Content-Length", str(len(payload))),
        ])
        return [payload]

    # -- routing ------------------------------------------------------------

    def _route(self, method: str, segments: list[str],
               environ: dict) -> tuple[str, object]:
        if not segments:
            return self._only(method, "GET", self._index)
        if segments == ["targets"]:
            return self._only(method, "GET", self._targets)
        if segments == ["campaigns"]:
            if method == "POST":
                return self._submit(environ)
            if method == "GET":
                return "200 OK", {"jobs": self.service.jobs()}
            raise _HttpError("405 Method Not Allowed",
                             "use GET or POST on /campaigns")
        if len(segments) == 2 and segments[0] == "campaigns":
            job_id = _int_segment(segments[1], "campaign job")
            return self._only(method, "GET",
                              lambda: ("200 OK", self.service.status(job_id)))
        if len(segments) == 3 and segments[0] == "runs" \
                and segments[2] == "report":
            run_id = _int_segment(segments[1], "run")
            return self._only(method, "GET", lambda: self._report(run_id))
        if len(segments) == 4 and segments[0] == "runs" \
                and segments[2] == "diff":
            run_a = _int_segment(segments[1], "run")
            run_b = _int_segment(segments[3], "run")
            return self._only(method, "GET",
                              lambda: self._diff(run_a, run_b))
        raise _not_found(f"no such endpoint: /{'/'.join(segments)}")

    @staticmethod
    def _only(method: str, expected: str, handler):
        if method != expected:
            raise _HttpError("405 Method Not Allowed",
                             f"this endpoint only supports {expected}")
        return handler()

    # -- handlers -----------------------------------------------------------

    def _index(self) -> tuple[str, dict]:
        from .. import __version__

        return "200 OK", {
            "service": "repro campaign service",
            "version": __version__,
            "store": self.service.store.path,
            "endpoints": [
                "GET /targets",
                "POST /campaigns",
                "GET /campaigns",
                "GET /campaigns/<id>",
                "GET /runs/<id>/report",
                "GET /runs/<a>/diff/<b>",
            ],
        }

    def _targets(self) -> tuple[str, dict]:
        return "200 OK", {
            "duts": [
                {
                    "name": target.name,
                    "description": target.description,
                    "campaignable": target.campaignable,
                    "sheets": len(target._bundled[2])
                    if target.suite_factory else 0,
                    "faults": len(target.faults_factory())
                    if target.faults_factory else 0,
                    "pins": list(target.pins) if target.pins else None,
                }
                for target in sorted(targets.iter_duts(), key=lambda t: t.key)
            ],
            "compositions": [
                {
                    "name": target.name,
                    "description": target.description,
                    "members": {member.alias: member.dut
                                for member in target.members},
                    "sheets": len(target._bundled[2]),
                    "faults": len(target.faults_factory()),
                }
                for target in sorted(targets.iter_compositions(),
                                     key=lambda t: t.key)
            ],
            "stands": [
                {
                    "name": stand.name,
                    "description": stand.description,
                    "adaptable": stand.adaptable,
                    "methods": list(stand.methods) if stand.methods else None,
                }
                for stand in sorted(targets.iter_stands(), key=lambda t: t.key)
            ],
        }

    def _submit(self, environ: dict) -> tuple[str, dict]:
        try:
            length = int(environ.get("CONTENT_LENGTH") or 0)
        except ValueError:
            raise _bad_request("invalid Content-Length") from None
        raw = environ["wsgi.input"].read(length) if length else b""
        if not raw:
            raise _bad_request("POST /campaigns needs a JSON body "
                               "with CampaignSpec fields")
        try:
            document = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _bad_request(f"request body is not valid JSON: {exc}") \
                from None
        if not isinstance(document, dict):
            raise _bad_request("request body must be a JSON object")
        unknown = sorted(set(document) - set(SPEC_FIELDS))
        if unknown:
            raise _bad_request(
                f"unknown campaign field(s): {', '.join(unknown)}; "
                f"allowed: {', '.join(SPEC_FIELDS)}"
            )
        if not any(document.get(field)
                   for field in ("dut", "composition", "workbook")):
            raise _bad_request(
                "a campaign needs a 'composition', a 'dut' or a 'workbook'")
        if "faults" in document and isinstance(document["faults"], list):
            document["faults"] = tuple(document["faults"])
        try:
            spec = targets.CampaignSpec(**document)
        except (TypeError, ValueError) as exc:
            raise _bad_request(f"invalid campaign spec: {exc}") from None
        job_id = self.service.submit(spec)
        return "202 Accepted", {
            "job": job_id,
            "state": "queued",
            "location": f"/campaigns/{job_id}",
        }

    def _report(self, run_id: int) -> tuple[str, dict]:
        run = self.service.store.get_run(run_id)
        report = run.execution_report()
        table = summary = None
        if run.catalogue is not None:
            result = run.campaign_result()
            table = result.table()
            summary = result.summary()
        return "200 OK", {
            "run": run.run_id,
            "created_at": run.created_at,
            "dut": run.dut,
            "git_sha": run.git_sha,
            "repro_version": run.repro_version,
            "backend": run.backend,
            "workers": run.workers,
            "wall_time": run.wall_time,
            "campaign": run.campaign,
            "table": table,
            "summary": summary,
            "verdict_table": report.verdict_table(),
            "execution_summary": report.summary(),
            "report": report.to_dict(),
        }

    def _diff(self, run_a: int, run_b: int) -> tuple[str, dict]:
        diff = self.service.store.diff_runs(run_a, run_b)
        return "200 OK", {
            "run_a": diff.run_a,
            "run_b": diff.run_b,
            "empty": diff.empty,
            "changed": [
                {"job": delta.job, "verdict_a": delta.verdict_a,
                 "verdict_b": delta.verdict_b}
                for delta in diff.changed
            ],
            "only_a": list(diff.only_a),
            "only_b": list(diff.only_b),
            "table": diff.table(),
        }

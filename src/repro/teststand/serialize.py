"""Dict round-trip serialization of execution reports.

An :class:`~repro.teststand.executor.ExecutionReport` dies with the process
unless it can leave it - the persistent result store (:mod:`repro.store`),
the campaign service API (:mod:`repro.service`) and ``repro-campaign
--format json`` all need the same durable representation.  This module is
that representation: plain dicts of JSON-safe values, built in a **stable
key order** (the order documented in ``docs/result-store.md``) and stamped
with a ``schema`` version so stored documents stay readable across
releases.

The contract is *byte-identical rendering*: for any report ``r``,

    ExecutionReport.from_dict(r.to_dict()).verdict_table() ==
        r.verdict_table()

and ``to_dict`` is idempotent across the round trip
(``from_dict(d).to_dict() == d``).  Scripts are deduplicated by content -
campaign expansion shares one script across many jobs, and the dict (like
the SQL store built on it) keeps a single copy per distinct script.

Two things are deliberately **not** round-tripped, because rendering does
not need them and re-execution is out of scope for a restored report:

* job *factories* (stand / harness / ECU) - restored jobs carry
  placeholder factories that raise :class:`~repro.core.errors.ReproError`
  when called;
* allocation *routes* - only the serving resource name (what reports
  show) survives; the pin-level route detail does not.
"""

from __future__ import annotations

import hashlib
import json
from typing import Mapping, Sequence

from ..core.errors import ReproError
from ..core.script import MethodCall, ScriptStep, SignalAction, TestScript
from ..core.signals import SignalSet
from ..core.values import Interval
from ..methods import MethodOutcome
from .allocator import Allocation
from .verdict import ActionResult, StepResult, TestResult, Verdict

__all__ = [
    "REPORT_SCHEMA",
    "script_to_dict",
    "script_from_dict",
    "result_to_dict",
    "result_from_dict",
    "action_results_text",
    "report_to_dict",
    "report_from_dict",
]

#: Version of the report dict schema.  Bump on any key change and keep
#: :func:`report_from_dict` accepting every version ever written.
REPORT_SCHEMA = 1

#: How many texts :func:`action_results_text` keeps per process.  A full
#: table stops learning; a list it lacks is encoded on each use.
TEXTS_MAX = 1024


# ---------------------------------------------------------------------------
# Scripts
# ---------------------------------------------------------------------------

def _action_to_dict(action: SignalAction) -> dict:
    return {
        "signal": action.signal,
        "method": action.call.method,
        "params": dict(action.call.params),
    }


def _action_from_dict(data: Mapping) -> SignalAction:
    return SignalAction(
        signal=data["signal"],
        call=MethodCall(method=data["method"], params=dict(data["params"])),
    )


def script_to_dict(script: TestScript) -> dict:
    """JSON-safe dict of one compiled test script (full content)."""
    return {
        "name": script.name,
        "dut": script.dut,
        "description": script.description,
        "setup": [_action_to_dict(action) for action in script.setup],
        "steps": [
            {
                "number": step.number,
                "duration": step.duration,
                "remark": step.remark,
                "requirement": step.requirement,
                "actions": [_action_to_dict(action) for action in step.actions],
            }
            for step in script.steps
        ],
        "variables": list(script.variables),
        "metadata": dict(script.metadata),
    }


def script_from_dict(data: Mapping) -> TestScript:
    """Rebuild a :class:`TestScript` from :func:`script_to_dict` output."""
    return TestScript(
        name=data["name"],
        dut=data["dut"],
        steps=[
            ScriptStep(
                number=step["number"],
                duration=step["duration"],
                actions=tuple(
                    _action_from_dict(action) for action in step["actions"]
                ),
                remark=step.get("remark", ""),
                requirement=step.get("requirement"),
            )
            for step in data["steps"]
        ],
        setup=tuple(_action_from_dict(action) for action in data["setup"]),
        variables=tuple(data.get("variables", ())),
        metadata=dict(data.get("metadata", {})),
        description=data.get("description", ""),
    )


def _stored_key(script: TestScript,
                document: dict | None = None) -> tuple[str, str]:
    """*script*'s :func:`script_key` text and its SHA-256, memoised on it.

    A script is a value, so both hold for as long as it lives: a campaign's
    resume key, every checkpoint and record, and every report document of
    a long-lived process serialise and hash each script once.  *document*,
    when given, is the script's :func:`script_to_dict`, reused on a miss.
    The memo is not pickled with the script.  Two threads that miss on one
    script both compute the same pair.
    """
    memo = script.__dict__.get("_stored_key")
    if memo is None:
        text = json.dumps(
            script_to_dict(script) if document is None else document,
            sort_keys=True, separators=(",", ":"))
        memo = script.__dict__["_stored_key"] = (
            text, hashlib.sha256(text.encode("utf-8")).hexdigest())
    return memo


def script_key(script: TestScript) -> str:
    """Content key of a script: scripts with equal keys render identically.

    The key is the canonical JSON of :func:`script_to_dict`, built once
    per script - the content the result store keeps in its ``scripts``
    table, deduplicated across runs by the key's SHA-256.
    """
    return _stored_key(script)[0]


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------

def _outcome_to_dict(outcome: MethodOutcome | None) -> dict | None:
    if outcome is None:
        return None
    return {
        "method": outcome.method,
        "passed": outcome.passed,
        "observed": outcome.observed,
        "limits": (
            [outcome.limits.low, outcome.limits.high]
            if outcome.limits is not None else None
        ),
        "unit": outcome.unit,
        "detail": outcome.detail,
    }


def _outcome_from_dict(data: Mapping | None) -> MethodOutcome | None:
    if data is None:
        return None
    limits = data.get("limits")
    return MethodOutcome(
        method=data["method"],
        passed=data["passed"],
        observed=data.get("observed"),
        limits=Interval(limits[0], limits[1]) if limits is not None else None,
        unit=data.get("unit", ""),
        detail=data.get("detail", ""),
    )


def _action_result_to_dict(result: ActionResult) -> dict:
    return {
        "action": _action_to_dict(result.action),
        "verdict": result.verdict.value,
        "outcome": _outcome_to_dict(result.outcome),
        # Routes are not persisted: reports only ever show the resource.
        "resource": result.allocation.resource if result.allocation else None,
        "persistent": (
            result.allocation.persistent if result.allocation else False
        ),
        "error": result.error,
    }


def _step_result_to_dict(step: StepResult) -> dict:
    return {
        "number": step.number,
        "duration": step.duration,
        "start_time": step.start_time,
        "remark": step.remark,
        "actions": [_action_result_to_dict(action) for action in step.actions],
    }


def result_to_dict(result: TestResult) -> dict:
    """JSON-safe dict of one test result, **without** its script.

    The script travels separately (deduplicated) in the report document;
    :func:`result_from_dict` reunites the two.
    """
    return {
        "stand": result.stand,
        "duration": result.duration,
        "wall_time": result.wall_time,
        "setup": [_action_result_to_dict(action) for action in result.setup],
        "steps": [_step_result_to_dict(step) for step in result.steps],
    }


#: Exact key of an action-result list -> its :func:`action_results_text`.
_TEXTS: dict[tuple, str] = {}
_TRUE, _FALSE = (bool, True), (bool, False)


def _exact(value):
    """Key part of one scalar: two are equal only when both write one text.

    An exact ``str`` or ``None`` stands for itself, and so does a float,
    except where float equality and JSON text part: ``0.0 == -0.0`` writes
    two texts, and every NaN writes ``NaN`` but equals nothing, so those
    are keyed by their ``repr``.  Bools and ints carry their type, since
    ``True == 1 == 1.0``.  Any other type raises ``TypeError``.
    """
    cls = value.__class__
    if cls is str or value is None:
        return value
    if cls is float:
        return value if value and value == value else (float, repr(value))
    if cls is bool:
        return _TRUE if value else _FALSE
    if cls is int:
        return (int, value)
    raise TypeError(f"no exact key for {cls.__name__}")


def _results_key(results: Sequence[ActionResult]) -> tuple:
    """Every field :func:`_action_result_to_dict` writes of *results*,
    exactly, in one flat tuple.

    One tuple per list keeps the table lean, and its layout reads back one
    way only: each result's part starts with its parameter count, and a
    ``True`` or ``None`` says whether an outcome, and then its limits,
    follow.
    """
    key = []
    for result in results:
        action, outcome, allocation = result.action, result.outcome, result.allocation
        params = action.call.params
        # Exact str -> str (MethodCall makes them so), in the order the
        # text keeps and SignalAction equality ignores.
        key.append(len(params))
        for item in params.items():
            key += item
        key += (_exact(action.signal), _exact(action.call.method),
                _exact(result.verdict.value), _exact(result.error),
                _exact(allocation.resource) if allocation else None,
                _exact(allocation.persistent) if allocation else _FALSE)
        if outcome is None:
            key.append(None)
            continue
        limits = outcome.limits
        key += (True, _exact(outcome.method), _exact(outcome.passed),
                _exact(outcome.observed), _exact(outcome.unit),
                _exact(outcome.detail))
        key += ((None,) if limits is None
                else (True, _exact(limits.low), _exact(limits.high)))
    return tuple(key)


def action_results_text(results: Sequence[ActionResult]) -> str:
    """``json.dumps`` of the documents of *results*, an action-result list.

    The result store keeps this text for a run's setup and for each of its
    steps, and most lists repeat one the process has written before.  So
    each distinct list is encoded once: its text is kept in a process-wide
    table under a key of every field the text shows (:func:`_exact`), up
    to :data:`TEXTS_MAX` of them.  Nothing is kept on the results, which
    travel to process workers.  There is no lock: two threads that miss on
    one key compute the same text, and threads that miss at once next to
    a full table may each add one more.
    """
    try:
        key = _results_key(results)
    except TypeError:  # a value the key does not cover: encoded each time
        key = None
    text = None if key is None else _TEXTS.get(key)
    if text is None:
        text = json.dumps([_action_result_to_dict(item) for item in results])
        if key is not None and len(_TEXTS) < TEXTS_MAX:
            _TEXTS[key] = text
    return text


class _Restorer:
    """Rebuilds result documents, sharing equal immutable values.

    Action results, actions and allocations are frozen, so equal ones can
    be one object.  An action-result list is rebuilt once per document
    object: the store decodes each distinct stored text once, so the
    steps that repeat one share a single list.  Actions and allocations
    are interned by value.  One restorer serves one report.
    """

    def __init__(self) -> None:
        self._lists: dict[int, tuple[list, tuple[ActionResult, ...]]] = {}
        self._actions: dict[tuple, SignalAction] = {}
        self._allocations: dict[tuple, Allocation] = {}

    def _action(self, data: Mapping) -> SignalAction:
        key = (data["signal"], data["method"], tuple(data["params"].items()))
        action = self._actions.get(key)
        if action is None:
            action = self._actions[key] = _action_from_dict(data)
        return action

    def _action_result(self, data: Mapping) -> ActionResult:
        action = self._action(data["action"])
        resource = data.get("resource")
        allocation = None
        if resource is not None:
            persistent = bool(data.get("persistent", False))
            key = (action.signal, action.method, resource, persistent)
            allocation = self._allocations.get(key)
            if allocation is None:
                allocation = self._allocations[key] = Allocation(
                    signal=action.signal,
                    method=action.method,
                    resource=resource,
                    routes=(),
                    persistent=persistent,
                )
        return ActionResult(
            action=action,
            verdict=Verdict(data["verdict"]),
            outcome=_outcome_from_dict(data.get("outcome")),
            allocation=allocation,
            error=data.get("error", ""),
        )

    def action_results(self, documents: list) -> tuple[ActionResult, ...]:
        entry = self._lists.get(id(documents))
        # Keyed by identity: the entry holds its list, and the check turns
        # away any other object that carries the same id.
        if entry is None or entry[0] is not documents:
            entry = self._lists[id(documents)] = (
                documents,
                tuple(self._action_result(item) for item in documents),
            )
        return entry[1]

    def result(self, data: Mapping, script: TestScript) -> TestResult:
        return TestResult(
            script,
            data["stand"],
            setup=self.action_results(data["setup"]),
            steps=tuple(
                StepResult(
                    number=step["number"],
                    duration=step["duration"],
                    actions=self.action_results(step["actions"]),
                    remark=step.get("remark", ""),
                    start_time=step.get("start_time", 0.0),
                )
                for step in data["steps"]
            ),
            duration=data["duration"],
            wall_time=data["wall_time"],
        )


def result_from_dict(data: Mapping, script: TestScript) -> TestResult:
    """Rebuild a :class:`TestResult` around its (separately stored) script."""
    return _Restorer().result(data, script)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def restored_factory(*_args, **_kwargs):
    """Placeholder factory carried by jobs of a restored report.

    A report read back from a dict (or from the result store) is a durable
    *record* of an execution, not a re-executable campaign: the original
    stand / harness / ECU factories cannot be serialised.  Calling this
    placeholder therefore fails loudly instead of silently running the
    wrong thing.
    """
    raise ReproError(
        "this job was restored from a serialized report and cannot be "
        "re-executed; build a fresh campaign through repro.targets instead"
    )


def report_to_dict(report) -> dict:
    """The durable dict representation of an :class:`ExecutionReport`.

    Key order is part of the schema (stable across processes and releases
    within one ``schema`` version): ``schema``, ``kind``, ``backend``,
    ``workers``, ``wall_time``, ``scripts``, ``jobs``.  Scripts are listed
    once each in first-use order; jobs reference them by list index.
    """
    scripts: list[dict] = []
    index_by_key: dict[str, int] = {}
    # Jobs share script objects: each is serialised once, and its key is
    # read from (or computed into) its memo.
    index_by_script: dict[int, int] = {}
    jobs: list[dict] = []
    for job_result in report.results:
        job = job_result.job
        script_index = index_by_script.get(id(job.script))
        if script_index is None:
            document = script_to_dict(job.script)
            key = _stored_key(job.script, document)[0]
            script_index = index_by_key.setdefault(key, len(scripts))
            if script_index == len(scripts):
                scripts.append(document)
            index_by_script[id(job.script)] = script_index
        jobs.append({
            "index": job.index,
            "script": script_index,
            "group": job.group,
            "stand_label": job.stand_label,
            "policy": job.policy,
            "stop_on_error": job.stop_on_error,
            "use_plans": job.use_plans,
            "reuse_stands": job.reuse_stands,
            "attempts": job_result.attempts,
            "error": job_result.error,
            "wall_time": job_result.wall_time,
            "result": (
                result_to_dict(job_result.result)
                if job_result.result is not None else None
            ),
        })
    return {
        "schema": REPORT_SCHEMA,
        "kind": "execution-report",
        "backend": report.backend,
        "workers": report.workers,
        "wall_time": report.wall_time,
        "scripts": scripts,
        "jobs": jobs,
    }


def report_from_dict(data: Mapping):
    """Rebuild an :class:`ExecutionReport` from :func:`report_to_dict` output.

    The restored report renders byte-identically (``verdict_table()``,
    ``summary()``, ``by_group()`` ...) but its jobs carry
    :func:`restored_factory` placeholders and an empty signal set - it is a
    record, not a runnable batch.
    """
    from .executor import ExecutionReport, Job, JobResult

    schema = data.get("schema")
    if schema != REPORT_SCHEMA:
        raise ReproError(
            f"unsupported report schema {schema!r} "
            f"(this release reads schema {REPORT_SCHEMA})"
        )
    kind = data.get("kind")
    if kind != "execution-report":
        raise ReproError(f"not an execution report document (kind={kind!r})")
    scripts = [script_from_dict(entry) for entry in data["scripts"]]
    restorer = _Restorer()
    results: list[JobResult] = []
    for entry in data["jobs"]:
        script = scripts[entry["script"]]
        job = Job(
            index=entry["index"],
            script=script,
            signals=SignalSet(dut=script.dut),
            stand_factory=restored_factory,
            harness_factory=restored_factory,
            ecu_factory=restored_factory,
            policy=entry.get("policy", "first_fit"),
            stop_on_error=entry.get("stop_on_error", False),
            group=entry["group"],
            stand_label=entry.get("stand_label", ""),
            use_plans=entry.get("use_plans", True),
            reuse_stands=entry.get("reuse_stands", True),
        )
        result_data = entry.get("result")
        results.append(JobResult(
            job=job,
            result=(
                restorer.result(result_data, script)
                if result_data is not None else None
            ),
            attempts=entry.get("attempts", 1),
            error=entry.get("error", ""),
            wall_time=entry.get("wall_time", 0.0),
        ))
    return ExecutionReport(
        results,
        backend=data["backend"],
        workers=data["workers"],
        wall_time=data["wall_time"],
    )

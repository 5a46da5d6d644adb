"""The persistent result store: record, query, re-render, diff.

:class:`ResultStore` turns :class:`~repro.teststand.executor.ExecutionReport`
objects - which otherwise die with the process - into rows of a normalized
SQLite database (see :mod:`repro.store.schema`), stamped with the git SHA
and ``repro.__version__`` of the producing process.  The contract mirrors
the dict serialization it is built on: a recorded run re-renders
**byte-identically** - ``get_run(run_id).render()`` equals what
``repro-campaign`` printed live, and ``diff_runs(a, b)`` of two identical
campaigns (e.g. the same family campaign on the serial and async backends)
is empty.  A resumable campaign writes the same rows as it goes: each
checkpoint commits one job into the campaign's unfinished run, and the
final record finishes that run.

Concurrency model: a process keeps one connection per store file, opened on
first use and shared by every :class:`ResultStore` on that file.  Each
public call takes the connection's lock and commits one transaction, so
many threads may record through it; the busy timeout and a bounded write
retry let many processes share the file.  A forked child opens its own
connection on first use, and the connection closes (merging the WAL into
the file) at interpreter exit.  Never delete a store file while a live
process has it open.  A ``":memory:"`` store has a connection of its own
(handy for tests and the service's default), at the price of dying with
the process like any in-memory database.
"""

from __future__ import annotations

import atexit
import functools
import hashlib
import json
import os
import sqlite3
import subprocess
import threading
import time
from typing import Iterable, Mapping, Sequence

from .. import chaos as _chaos
from .._record import Record
from ..analysis.campaign import BASELINE_GROUP, CampaignResult, FaultRunOutcome
from ..analysis.faults import FaultModel
from ..core.errors import ReproError
from ..teststand.executor import ExecutionReport, JobResult, format_job_id
from ..teststand.report import format_table
from ..teststand.serialize import (
    REPORT_SCHEMA,
    _stored_key,
    restored_factory,
    result_to_dict,
)
from .schema import DDL, STORE_SCHEMA

__all__ = [
    "StoreError",
    "ResultStore",
    "StoredRun",
    "RunInfo",
    "CaseRow",
    "VerdictDelta",
    "RunDiff",
    "current_git_sha",
]


class StoreError(ReproError):
    """A result-store operation failed (unknown run, schema mismatch...)."""


def current_git_sha() -> str | None:
    """Best-effort git SHA of the producing process's working tree.

    ``None`` when git is unavailable or the process does not run inside a
    repository - recording never fails over provenance metadata.  Git runs
    once per working directory; a process reuses the answer.
    """
    try:
        return _git_sha(os.getcwd())
    except OSError:
        return None


@functools.lru_cache(maxsize=64)
def _git_sha(cwd: str) -> str | None:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, cwd=cwd,
        )
    except Exception:
        return None
    if proc.returncode != 0:
        return None
    sha = proc.stdout.strip()
    return sha or None


def _canonical(document: object) -> str:
    """Canonical JSON: the store's content-fingerprint input format."""
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def _fingerprint(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class _Link:
    """One sqlite connection and the lock its transactions take."""

    __slots__ = ("lock", "conn", "inode")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.conn: sqlite3.Connection | None = None
        #: ``(st_dev, st_ino)`` of the file the connection was opened on.
        self.inode: tuple[int, int] | None = None

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
        self.conn = None
        self.inode = None


#: This process's connection to each store file, keyed by real path.
_LINKS: dict[str, _Link] = {}
_LINKS_LOCK = threading.Lock()
#: The parent's connections, in a forked child.  They stay referenced so
#: that garbage collection never closes them there: closing one would
#: checkpoint the parent's file and unlink its WAL.
_INHERITED: list[_Link] = []


def _file_link(key: str) -> _Link:
    with _LINKS_LOCK:
        link = _LINKS.get(key)
        if link is None:
            link = _LINKS[key] = _Link()
        return link


def _set_inherited_links_aside() -> None:
    global _LINKS_LOCK
    _INHERITED.extend(_LINKS.values())
    _LINKS.clear()
    _LINKS_LOCK = threading.Lock()


def _close_links() -> None:
    # Closing a file's last connection merges the WAL into the file and
    # deletes the -wal and -shm files.
    for link in list(_LINKS.values()):
        with link.lock:
            link.close()


os.register_at_fork(after_in_child=_set_inherited_links_aside)
atexit.register(_close_links)


def _inode(path: str) -> tuple[int, int] | None:
    """``(st_dev, st_ino)`` of the file at *path*, or None if there is none."""
    try:
        stat = os.stat(path)
    except OSError:
        return None
    return stat.st_dev, stat.st_ino


def _catalogue_content(faults: Sequence[FaultModel]) -> list[dict]:
    return [
        {
            "name": fault.name,
            "description": fault.description,
            "expected_detected": bool(fault.expected_detected),
        }
        for fault in faults
    ]


def _restored_faults(content: Iterable[Mapping]) -> list[FaultModel]:
    """Catalogue metadata rows back into (render-only) fault models.

    The factories are :func:`~repro.teststand.serialize.restored_factory`
    placeholders: a stored catalogue describes what *was* injected, it
    cannot rebuild the faulty ECUs.
    """
    return [
        FaultModel(
            name=entry["name"],
            description=entry.get("description", ""),
            factory=restored_factory,
            expected_detected=bool(entry.get("expected_detected", True)),
        )
        for entry in content
    ]


class RunInfo(Record):
    """One row of :meth:`ResultStore.list_runs`."""

    run_id: int
    created_at: float
    dut: str
    stand: str
    backend: str
    workers: int
    wall_time: float
    jobs: int
    verdict: str
    git_sha: str
    repro_version: str

    def __init__(self, run_id: int, created_at: float, dut: str, stand: str,
                 backend: str, workers: int, wall_time: float, jobs: int,
                 verdict: str, git_sha: str, repro_version: str) -> None:
        self.__dict__.update(
            run_id=run_id, created_at=created_at, dut=dut, stand=stand,
            backend=backend, workers=workers, wall_time=wall_time, jobs=jobs,
            verdict=verdict, git_sha=git_sha, repro_version=repro_version)


class CaseRow(Record):
    """One row of :meth:`ResultStore.query`: a (run x job x case) verdict."""

    run_id: int
    created_at: float
    job: str
    script: str
    dut: str
    group: str
    stand: str
    verdict: str
    passed: bool
    duration: float
    wall_time: float

    def __init__(self, run_id: int, created_at: float, job: str, script: str,
                 dut: str, group: str, stand: str, verdict: str,
                 passed: bool, duration: float, wall_time: float) -> None:
        self.__dict__.update(
            run_id=run_id, created_at=created_at, job=job, script=script,
            dut=dut, group=group, stand=stand, verdict=verdict, passed=passed,
            duration=duration, wall_time=wall_time)


class VerdictDelta(Record):
    """One changed sheet in a run-vs-run diff."""

    job: str
    verdict_a: str
    verdict_b: str

    def __init__(self, job: str, verdict_a: str, verdict_b: str) -> None:
        self.__dict__.update(job=job, verdict_a=verdict_a,
                             verdict_b=verdict_b)


class RunDiff(Record):
    """Per-sheet verdict deltas between two stored runs.

    ``changed`` lists jobs present in both runs whose verdicts differ;
    ``only_a`` / ``only_b`` list job ids that exist in one run only.  Jobs
    are matched by their deterministic
    :attr:`~repro.teststand.executor.Job.job_id`
    (``group[@stand]/script#index``), so backend and worker-count choices
    never show up as deltas.
    """

    run_a: int
    run_b: int
    changed: tuple[VerdictDelta, ...] = ()
    only_a: tuple[str, ...] = ()
    only_b: tuple[str, ...] = ()

    def __init__(self, run_a: int, run_b: int,
                 changed: tuple[VerdictDelta, ...] = (),
                 only_a: tuple[str, ...] = (),
                 only_b: tuple[str, ...] = ()) -> None:
        self.__dict__.update(run_a=run_a, run_b=run_b, changed=changed,
                             only_a=only_a, only_b=only_b)

    @property
    def empty(self) -> bool:
        """True when the two runs carry identical per-sheet verdicts."""
        return not (self.changed or self.only_a or self.only_b)

    def table(self) -> str:
        """Text table of the deltas (empty diffs render a one-line note)."""
        if self.empty:
            return f"runs {self.run_a} and {self.run_b}: no verdict deltas"
        header = ("job", f"run {self.run_a}", f"run {self.run_b}")
        rows = [(delta.job, delta.verdict_a, delta.verdict_b)
                for delta in self.changed]
        rows.extend((job, "-", "(missing)") for job in self.only_a)
        rows.extend((job, "(missing)", "-") for job in self.only_b)
        return format_table(header, rows)

    def summary(self) -> str:
        return (
            f"diff runs {self.run_a} vs {self.run_b}: "
            f"{len(self.changed)} changed verdict(s), "
            f"{len(self.only_a)} only in {self.run_a}, "
            f"{len(self.only_b)} only in {self.run_b}"
        )


class StoredRun:
    """One recorded run, lazily rebuilt into live report objects.

    Attribute access is cheap (row data only); :meth:`execution_report`
    and :meth:`campaign_result` rebuild real
    :class:`~repro.teststand.executor.ExecutionReport` /
    :class:`~repro.analysis.campaign.CampaignResult` objects from the rows
    (cached per instance), so :meth:`render` reproduces the live
    ``repro-campaign`` stdout byte-identically.
    """

    def __init__(self, store: "ResultStore", row: Mapping,
                 campaign: Mapping | None, catalogue: list[dict] | None):
        self._store = store
        self.run_id = int(row["id"])
        self.created_at = float(row["created_at"])
        self.git_sha = row["git_sha"] or ""
        self.repro_version = row["repro_version"]
        self.backend = row["backend"]
        self.workers = int(row["workers"])
        self.wall_time = float(row["wall_time"])
        #: Plan-cache statistics snapshot of the producing process (dict),
        #: or None when none was recorded.
        self.plan_cache = (
            json.loads(row["plan_cache"]) if row["plan_cache"] else None
        )
        #: Campaign configuration metadata (dict) or None for bare reports.
        self.campaign = dict(campaign) if campaign is not None else None
        #: Selected fault-catalogue metadata (list of dicts) or None.
        self.catalogue = catalogue
        self._report: ExecutionReport | None = None
        self._result: CampaignResult | None = None

    @property
    def dut(self) -> str:
        if self.campaign and self.campaign.get("dut"):
            return self.campaign["dut"]
        report = self.execution_report()
        for job_result in report.results:
            if job_result.job.script.dut:
                return job_result.job.script.dut
        return ""

    def execution_report(self) -> ExecutionReport:
        """The run's :class:`ExecutionReport`, rebuilt from the rows."""
        if self._report is None:
            self._report = ExecutionReport.from_dict(
                self._store._report_document(self.run_id)
            )
        return self._report

    def campaign_result(self) -> CampaignResult:
        """The run's :class:`CampaignResult`, rebuilt from report + catalogue.

        Raises :class:`StoreError` for runs recorded without a fault
        catalogue (bare ``record_report`` calls) - there is no fault table
        to rebuild for those; use :meth:`execution_report` instead.
        """
        if self._result is not None:
            return self._result
        if self.catalogue is None:
            raise StoreError(
                f"run {self.run_id} was recorded without a fault catalogue; "
                "only the execution report is available"
            )
        report = self.execution_report()
        if report.failed_jobs:
            raise StoreError(
                f"run {self.run_id} contains terminally failed job(s); "
                "a fault table cannot be rebuilt from a partial campaign"
            )
        by_group = report.by_group()
        baseline = tuple(
            jr.result for jr in by_group.get(BASELINE_GROUP, ())
        )
        outcomes = [
            FaultRunOutcome(
                fault, tuple(jr.result for jr in by_group.get(fault.name, ()))
            )
            for fault in _restored_faults(self.catalogue)
        ]
        self._result = CampaignResult(baseline, outcomes, execution=report)
        return self._result

    def verdict_table(self) -> str:
        """The execution report's per-job verdict table."""
        return self.execution_report().verdict_table()

    def render(self) -> str:
        """Exactly what ``repro-campaign`` printed on stdout for this run.

        Campaign runs render the fault table plus the campaign summary
        line; bare report runs fall back to the per-job verdict table plus
        the execution summary.
        """
        if self.catalogue is not None:
            result = self.campaign_result()
            return f"{result.table()}\n{result.summary()}"
        report = self.execution_report()
        return f"{report.verdict_table()}\n{report.summary()}"

    def __repr__(self) -> str:
        return (
            f"StoredRun(id={self.run_id}, dut={self.dut!r}, "
            f"backend={self.backend!r}, version={self.repro_version!r})"
        )


class ResultStore:
    """SQL-backed persistent store for execution reports and campaigns.

    >>> store = ResultStore("results.db")
    >>> run_id = store.record_campaign(result, spec)
    >>> store.get_run(run_id).render() == result.table() + "\\n" + result.summary()
    True

    All methods are safe to call from multiple threads, and the file-backed
    form from multiple processes.  Every instance on one file in a process
    shares that process's one connection to it; each call is one
    transaction under the connection's lock, and the busy timeout queues
    writers from other processes.  The connection follows the file: if
    the file is deleted or replaced, the next call closes the connection
    and opens the file now at the path.
    """

    def __init__(self, path: str, *, timeout: float = 30.0):
        self.path = str(path)
        self.timeout = float(timeout)
        self._memory = self.path == ":memory:"
        # Keyed by real path, so every spelling of one file shares its
        # connection, and a later chdir cannot point it at another file.
        self._key = self.path if self._memory else os.path.realpath(self.path)
        self._memory_link = _Link() if self._memory else None

        def initialise() -> None:
            with self._connect():
                pass

        try:
            # Opening is a write (DDL, the WAL switch, the schema stamp),
            # so it takes the same bounded retry as every other write: a
            # writer racing this open may hold the file.
            self._with_write_retry(initialise)
        except sqlite3.Error as exc:
            raise StoreError(
                f"cannot open result store {self.path!r}: {exc}"
            ) from exc

    # -- connection plumbing ------------------------------------------------

    def _open(self) -> sqlite3.Connection:
        """A new connection, with the schema in place and checked."""
        conn = sqlite3.connect(
            self._key, timeout=self.timeout, check_same_thread=False,
        )
        try:
            conn.row_factory = sqlite3.Row
            conn.execute("PRAGMA foreign_keys = ON")
            self._initialise(conn)
            conn.commit()
        except BaseException:
            conn.close()
            raise
        return conn

    def _link(self) -> _Link:
        return self._memory_link if self._memory else _file_link(self._key)

    def _connection(self, link: _Link) -> sqlite3.Connection:
        """*link*'s connection, opened if need be; the caller holds its lock.

        A file store's connection is reopened when the file at the path is
        missing or is not the file the connection was opened on.  An open
        connection pins its file's inode, so a re-created file never
        carries the same ``(st_dev, st_ino)``.
        """
        inode = None if self._memory else _inode(self._key)
        if link.conn is None or link.inode != inode:
            # Close the stale connection before opening the new one:
            # closing unlinks the -wal and -shm files by name, which by
            # then would be the new file's.
            link.close()
            link.conn = self._with_write_retry(self._open)
            link.inode = None if self._memory else _inode(self._key)
        return link.conn

    class _Session:
        """Context manager: one transaction on the store's connection."""

        def __init__(self, store: "ResultStore"):
            self._store = store
            self._link: _Link | None = None
            self._conn: sqlite3.Connection | None = None

        def __enter__(self) -> sqlite3.Connection:
            link = self._store._link()
            link.lock.acquire()
            try:
                self._conn = self._store._connection(link)
            except BaseException:
                link.lock.release()
                raise
            self._link = link
            return self._conn

        def __exit__(self, exc_type, exc, tb) -> None:
            conn = self._conn
            try:
                if exc_type is None:
                    if _chaos.ACTIVE is not None:
                        # Chaos commit-point hook: may raise a one-shot
                        # "database is locked" for the bounded write
                        # retry to absorb.
                        _chaos.on_store_commit()
                    conn.commit()
                else:
                    conn.rollback()
            except BaseException:
                try:
                    conn.rollback()
                except sqlite3.Error:
                    pass
                raise
            finally:
                self._link.lock.release()

    def _connect(self) -> "_Session":
        return self._Session(self)

    #: Attempts one write transaction gets against a locked database
    #: before the store gives up.
    WRITE_RETRIES = 5

    def _with_write_retry(self, operation):
        """Run a write transaction, retrying bounded on database-locked.

        SQLite raises ``OperationalError: database is locked`` when another
        writer holds the file past the busy timeout.  Transactions roll
        back cleanly (see ``_Session``) and all inserts are idempotent
        (``INSERT OR IGNORE`` interning, fresh rowids), so re-running the
        whole transaction is safe.  Retries back off exponentially;
        anything but a locked/busy error propagates immediately.
        """
        delay = 0.05
        for attempt in range(1, self.WRITE_RETRIES + 1):
            try:
                return operation()
            except sqlite3.OperationalError as exc:
                message = str(exc).lower()
                if "locked" not in message and "busy" not in message:
                    raise
                if attempt >= self.WRITE_RETRIES:
                    raise StoreError(
                        f"store {self.path!r} stayed locked after "
                        f"{self.WRITE_RETRIES} attempts: {exc}"
                    ) from exc
                time.sleep(delay)
                delay = min(1.0, delay * 2.0)

    def _initialise(self, conn: sqlite3.Connection) -> None:
        # Checked before anything is written: a store of another schema
        # is refused untouched.
        self._schema_version(conn)
        if not self._memory:
            # WAL lets concurrent writers queue behind the busy timeout
            # instead of failing immediately, and readers never block
            # writers.  The mode persists in the file, so setting it once
            # per open is enough.
            conn.execute("PRAGMA journal_mode = WAL")
        # Read again under the write lock: of two processes opening one
        # schema-3 file at once, one migrates it and the other finds 4.
        conn.execute("BEGIN IMMEDIATE")
        version = self._schema_version(conn)
        if version == STORE_SCHEMA:
            return
        if version == 3:
            conn.execute("ALTER TABLE runs ADD COLUMN resume_key TEXT")
        for statement in DDL.split(";"):
            conn.execute(statement)
        if version == 3:
            # Each pending checkpoint becomes a row of its unfinished run.
            for row in conn.execute("SELECT campaign_key, payload "
                                    "FROM checkpoints ORDER BY id").fetchall():
                job_result = ExecutionReport.from_dict(
                    json.loads(row["payload"])).results[0]
                self._write_jobs(
                    conn, self._unfinished_run(conn, row["campaign_key"]),
                    [(job_result.job.index, job_result)])
            conn.execute("DROP TABLE checkpoints")
        conn.execute("INSERT OR REPLACE INTO meta (key, value) "
                     "VALUES ('store_schema', ?)", (str(STORE_SCHEMA),))

    def _schema_version(self, conn: sqlite3.Connection) -> int | None:
        """The store's schema version (None when new); refuses all but 3, 4."""
        row = None
        if conn.execute("SELECT 1 FROM sqlite_master "
                        "WHERE name = 'meta'").fetchone():
            row = conn.execute(
                "SELECT value FROM meta WHERE key = 'store_schema'"
            ).fetchone()
        version = int(row["value"]) if row else None
        if version not in (None, 3, STORE_SCHEMA):
            raise StoreError(
                f"store {self.path!r} uses schema {version}, this release "
                f"reads schema {STORE_SCHEMA} and migrates schema 3"
            )
        return version

    def close(self) -> None:
        """Close this process's connection to the store.

        Other instances on the same file open a new connection on their
        next call.  An in-memory store's data goes with its connection.
        """
        link = self._link()
        with link.lock:
            link.close()

    # -- recording ----------------------------------------------------------

    def _intern_script(self, conn: sqlite3.Connection, script) -> int:
        content, fingerprint = _stored_key(script)
        conn.execute(
            "INSERT OR IGNORE INTO scripts (name, dut, fingerprint, content) "
            "VALUES (?, ?, ?, ?)",
            (script.name, script.dut, fingerprint, content),
        )
        row = conn.execute(
            "SELECT id FROM scripts WHERE fingerprint = ?", (fingerprint,)
        ).fetchone()
        return int(row["id"])

    def _intern_catalogue(self, conn: sqlite3.Connection, dut: str,
                          content: list[dict]) -> int:
        text = _canonical({"dut": dut, "faults": content})
        fingerprint = _fingerprint(text)
        conn.execute(
            "INSERT OR IGNORE INTO catalogues (dut, fingerprint, content) "
            "VALUES (?, ?, ?)",
            (dut, fingerprint, json.dumps(content)),
        )
        row = conn.execute(
            "SELECT id FROM catalogues WHERE fingerprint = ?", (fingerprint,)
        ).fetchone()
        return int(row["id"])

    def _intern_campaign(self, conn: sqlite3.Connection, spec,
                         catalogue_id: int | None) -> int:
        composition = getattr(spec, "composition", None)
        fields = {
            "dut": spec.dut,
            "composition": composition,
            "stand": spec.stand,
            "policy": spec.policy,
            "backend": spec.backend,
            "jobs": int(spec.jobs),
            "concurrency": int(spec.concurrency),
            "retries": int(spec.retries),
            "use_plans": bool(spec.use_plans),
            "reuse_stands": bool(spec.reuse_stands),
            "catalogue": catalogue_id,
        }
        fingerprint = _fingerprint(_canonical(fields))
        conn.execute(
            "INSERT OR IGNORE INTO campaigns (dut, composition, stand, "
            "policy, backend, jobs, concurrency, retries, use_plans, "
            "reuse_stands, catalogue_id, fingerprint) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (spec.dut, composition, spec.stand, spec.policy, spec.backend,
             int(spec.jobs), int(spec.concurrency), int(spec.retries),
             int(spec.use_plans), int(spec.reuse_stands), catalogue_id,
             fingerprint),
        )
        row = conn.execute(
            "SELECT id FROM campaigns WHERE fingerprint = ?", (fingerprint,)
        ).fetchone()
        return int(row["id"])

    def _unfinished_run(self, conn: sqlite3.Connection,
                        resume_key: str | None) -> int:
        """Id of the unfinished run under *resume_key*, created if need be.

        A key of None matches no run, so it always creates a new one.  The
        insert comes before the lookup because it takes the write lock: of
        two processes checkpointing one campaign at once, the second then
        finds the first one's run instead of colliding with it.
        """
        from .. import __version__

        cursor = conn.execute(
            "INSERT OR IGNORE INTO runs (created_at, repro_version, backend, "
            "workers, wall_time, resume_key) VALUES (?, ?, '', 0, 0.0, ?)",
            (time.time(), __version__, resume_key),
        )
        if resume_key is None:
            return cursor.lastrowid
        return conn.execute(
            "SELECT id FROM runs WHERE resume_key = ?", (resume_key,)
        ).fetchone()["id"]

    def _write_jobs(self, conn: sqlite3.Connection, run_id: int,
                    job_results: Iterable[tuple[int, JobResult]]) -> None:
        """Write ``(ordinal, job result)`` pairs into run *run_id*, skipping
        (script and all) every ordinal the run already holds."""
        held = {row[0] for row in conn.execute(
            "SELECT ordinal FROM jobs WHERE run_id = ?", (run_id,))}
        script_ids: dict[int, int] = {}
        for ordinal, job_result in job_results:
            job, result = job_result.job, job_result.result
            if ordinal in held:
                continue
            if id(job.script) not in script_ids:
                script_ids[id(job.script)] = self._intern_script(
                    conn, job.script)
            job_row = conn.execute(
                "INSERT INTO jobs (run_id, ordinal, job_index, script_id, "
                "group_name, stand_label, policy, stop_on_error, "
                "use_plans, reuse_stands, attempts, error, wall_time) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (run_id, ordinal, job.index, script_ids[id(job.script)],
                 job.group, job.stand_label, job.policy,
                 int(job.stop_on_error), int(job.use_plans),
                 int(job.reuse_stands), job_result.attempts, job_result.error,
                 job_result.wall_time),
            ).lastrowid
            if result is None:
                continue
            document, verdict = result_to_dict(result), result.verdict
            case_id = conn.execute(
                "INSERT INTO case_results (job_id, stand, verdict, "
                "passed, duration, wall_time, setup) "
                "VALUES (?, ?, ?, ?, ?, ?, ?)",
                (job_row, result.stand, verdict.value, int(verdict.ok),
                 result.duration, result.wall_time,
                 json.dumps(document["setup"])),
            ).lastrowid
            conn.executemany(
                "INSERT INTO step_results (case_id, ordinal, number, "
                "duration, start_time, remark, verdict, actions) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                [(case_id, step_ordinal, step.number, step.duration,
                  step.start_time, step.remark, step.verdict.value,
                  json.dumps(step_doc["actions"]))
                 for step_ordinal, (step, step_doc) in enumerate(
                     zip(result.steps, document["steps"]))],
            )

    def record_report(
        self,
        report: ExecutionReport,
        spec=None,
        *,
        faults: Sequence[FaultModel] | None = None,
        plan_cache: Mapping | None = None,
        git_sha: str | None = None,
        created_at: float | None = None,
        resume_key: str | None = None,
    ) -> int:
        """Record one execution report; returns its run id.

        *spec* is the producing :class:`~repro.targets.CampaignSpec` (or
        any object with its fields), *faults* the selected fault models in
        catalogue order - both optional, but required for
        :meth:`StoredRun.campaign_result` / fault-table re-rendering.
        *git_sha* defaults to :func:`current_git_sha`, *created_at* to now;
        *plan_cache* may carry a plan-cache statistics snapshot.

        *resume_key* finishes the unfinished run that
        :meth:`save_checkpoint` has been filling under that key: the
        record writes only the jobs the run lacks, stamps it and clears
        the key, so the run keeps the id its first checkpoint took.
        """
        from .. import __version__

        if git_sha is None:
            git_sha = current_git_sha()
        if created_at is None:
            created_at = time.time()
        return self._with_write_retry(
            lambda: self._record_report_txn(
                report, spec, faults, plan_cache,
                git_sha, created_at, __version__, resume_key,
            )
        )

    def _record_report_txn(
        self, report, spec, faults, plan_cache,
        git_sha, created_at, version, resume_key,
    ) -> int:
        """One recording transaction (retried by :meth:`record_report`)."""
        with self._connect() as conn:
            campaign_id = None
            if spec is not None or faults is not None:
                catalogue_id = None
                if faults is not None:
                    dut = (spec.dut if spec is not None else None) or next(
                        (jr.job.script.dut for jr in report.results), "")
                    catalogue_id = self._intern_catalogue(
                        conn, dut or "", _catalogue_content(faults))
                if spec is not None:
                    campaign_id = self._intern_campaign(
                        conn, spec, catalogue_id)
                else:
                    # Faults without a spec still need an anchor row so the
                    # catalogue is reachable from the run.
                    campaign_id = self._intern_campaign(
                        conn, _AnonymousSpec(), catalogue_id)
            run_id = self._unfinished_run(conn, resume_key)
            conn.execute(
                "UPDATE runs SET created_at = ?, git_sha = ?, "
                "repro_version = ?, backend = ?, workers = ?, wall_time = ?, "
                "plan_cache = ?, campaign_id = ?, resume_key = NULL "
                "WHERE id = ?",
                (created_at, git_sha, version, report.backend, report.workers,
                 report.wall_time,
                 json.dumps(dict(plan_cache)) if plan_cache else None,
                 campaign_id, run_id),
            )
            self._write_jobs(conn, run_id, enumerate(report.results))
        return run_id

    def record_campaign(self, result: CampaignResult, spec=None, **kwargs) -> int:
        """Record a finished campaign (report + fault catalogue metadata).

        Convenience wrapper around :meth:`record_report` that extracts the
        execution report and the injected fault models from the
        :class:`~repro.analysis.campaign.CampaignResult`; the stored run
        then re-renders the full fault table byte-identically.  A
        checkpointed campaign passes its ``resume_key``.
        """
        if result.execution is None:
            raise StoreError(
                "campaign result carries no execution report; "
                "only executor-produced results can be recorded"
            )
        faults = [outcome.fault for outcome in result.outcomes]
        return self.record_report(result.execution, spec,
                                  faults=faults, **kwargs)

    # -- checkpoints (campaign resume) --------------------------------------

    def save_checkpoint(self, campaign_key: str, job_result: JobResult) -> bool:
        """Commit one finished job into the unfinished run under *campaign_key*.

        The first checkpoint creates that run.  The job's rows, at its
        ``index`` (its place in a campaign's report) as ordinal, are the
        ones the final :meth:`record_campaign` keeps.  Failed jobs are
        *not* checkpointed - a resumed campaign gets to retry them - and
        the call reports whether it stored anything.  Committed per job: a
        SIGKILL between jobs loses at most the job in flight.
        """
        if job_result.result is None:
            return False

        def _write() -> None:
            with self._connect() as conn:
                self._write_jobs(conn, self._unfinished_run(conn, campaign_key),
                                 [(job_result.job.index, job_result)])

        self._with_write_retry(_write)
        return True

    def load_checkpoints(self, campaign_key: str) -> dict[str, JobResult]:
        """The jobs the unfinished run under *campaign_key* holds, by ``job_id``.

        The restored results render byte-identically but carry placeholder
        factories (:func:`~repro.teststand.serialize.restored_factory`);
        :func:`~repro.teststand.executor.run_jobs` slots them into the
        report without executing anything.
        """
        document = self._report_document(None, resume_key=campaign_key)
        if document is None:
            return {}
        report = ExecutionReport.from_dict(document)
        return {job_result.job.job_id: job_result
                for job_result in report.results}

    def clear_checkpoints(self, campaign_key: str) -> int:
        """Drop the unfinished run under *campaign_key*; returns its job count."""

        def _write() -> int:
            with self._connect() as conn:
                cursor = conn.execute(
                    "DELETE FROM jobs WHERE run_id IN "
                    "(SELECT id FROM runs WHERE resume_key = ?)",
                    (campaign_key,),
                )
                conn.execute("DELETE FROM runs WHERE resume_key = ?",
                             (campaign_key,))
                return cursor.rowcount

        return self._with_write_retry(_write)

    # -- reading ------------------------------------------------------------

    def _report_document(self, run_id: int | None,
                         resume_key: str | None = None) -> dict | None:
        """Rebuild the exact :func:`report_to_dict` document of run *run_id*,
        or of the unfinished run under *resume_key* (None if there is none).

        Equal stored documents come back as one shared object, so the
        document is for reading only.
        """
        with self._connect() as conn:
            run = conn.execute(
                "SELECT * FROM runs WHERE id = ? OR resume_key = ?",
                (run_id, resume_key),
            ).fetchone()
            if run is None:
                if resume_key is not None:
                    return None
                raise StoreError(f"no stored run with id {run_id}")
            run_id = run["id"]
            job_rows = conn.execute(
                "SELECT jobs.*, scripts.content AS script_content "
                "FROM jobs JOIN scripts ON scripts.id = jobs.script_id "
                "WHERE jobs.run_id = ? ORDER BY jobs.ordinal", (run_id,)
            ).fetchall()
            cases = {
                row["job_id"]: row for row in conn.execute(
                    "SELECT case_results.* FROM case_results "
                    "JOIN jobs ON jobs.id = case_results.job_id "
                    "WHERE jobs.run_id = ?", (run_id,)
                ).fetchall()
            }
            steps_by_case: dict[int, list] = {}
            for row in conn.execute(
                    "SELECT step_results.* FROM step_results "
                    "JOIN case_results ON case_results.id = step_results.case_id "
                    "JOIN jobs ON jobs.id = case_results.job_id "
                    "WHERE jobs.run_id = ? "
                    "ORDER BY step_results.case_id, step_results.ordinal",
                    (run_id,)):
                steps_by_case.setdefault(row["case_id"], []).append(row)
        # Most stored setup and step documents repeat an earlier one of the
        # run (the same script step with the same outcome in another job):
        # each distinct text is decoded once, and report_from_dict rebuilds
        # each decoded list once.
        decoded: dict[str, list] = {}

        def decode(text: str) -> list:
            document = decoded.get(text)
            if document is None:
                document = decoded[text] = json.loads(text)
            return document

        scripts: list[dict] = []
        index_by_id: dict[int, int] = {}
        jobs: list[dict] = []
        for row in job_rows:
            script_index = index_by_id.get(row["script_id"])
            if script_index is None:
                script_index = index_by_id[row["script_id"]] = len(scripts)
                scripts.append(json.loads(row["script_content"]))
            case = cases.get(row["id"])
            result_doc = None
            if case is not None:
                result_doc = {
                    "stand": case["stand"],
                    "duration": case["duration"],
                    "wall_time": case["wall_time"],
                    "setup": decode(case["setup"]),
                    "steps": [
                        {
                            "number": step["number"],
                            "duration": step["duration"],
                            "start_time": step["start_time"],
                            "remark": step["remark"],
                            "actions": decode(step["actions"]),
                        }
                        for step in steps_by_case.get(case["id"], [])
                    ],
                }
            jobs.append({
                "index": row["job_index"],
                "script": script_index,
                "group": row["group_name"],
                "stand_label": row["stand_label"],
                "policy": row["policy"],
                "stop_on_error": bool(row["stop_on_error"]),
                "use_plans": bool(row["use_plans"]),
                "reuse_stands": bool(row["reuse_stands"]),
                "attempts": row["attempts"],
                "error": row["error"],
                "wall_time": row["wall_time"],
                "result": result_doc,
            })
        return {
            "schema": REPORT_SCHEMA,
            "kind": "execution-report",
            "backend": run["backend"],
            "workers": run["workers"],
            "wall_time": run["wall_time"],
            "scripts": scripts,
            "jobs": jobs,
        }

    def get_run(self, run_id: int) -> StoredRun:
        """Load one stored run (metadata now, report rebuilt lazily)."""
        with self._connect() as conn:
            run = conn.execute(
                "SELECT * FROM runs WHERE id = ? AND resume_key IS NULL",
                (run_id,),
            ).fetchone()
            if run is None:
                raise StoreError(f"no stored run with id {run_id}")
            campaign = None
            catalogue = None
            if run["campaign_id"] is not None:
                row = conn.execute(
                    "SELECT * FROM campaigns WHERE id = ?",
                    (run["campaign_id"],),
                ).fetchone()
                if row is not None:
                    campaign = {
                        "dut": row["dut"],
                        "composition": row["composition"],
                        "stand": row["stand"],
                        "policy": row["policy"],
                        "backend": row["backend"],
                        "jobs": row["jobs"],
                        "concurrency": row["concurrency"],
                        "retries": row["retries"],
                        "use_plans": bool(row["use_plans"]),
                        "reuse_stands": bool(row["reuse_stands"]),
                    }
                    if row["catalogue_id"] is not None:
                        cat = conn.execute(
                            "SELECT content FROM catalogues WHERE id = ?",
                            (row["catalogue_id"],),
                        ).fetchone()
                        if cat is not None:
                            catalogue = json.loads(cat["content"])
        return StoredRun(self, run, campaign, catalogue)

    def run_ids(self) -> tuple[int, ...]:
        """All stored run ids in ascending order (unfinished runs excluded).

        A resumed run keeps the id its first checkpoint took, so id order
        is not record order; :meth:`list_runs` orders by record time.
        """
        with self._connect() as conn:
            rows = conn.execute("SELECT id FROM runs WHERE resume_key IS NULL "
                                "ORDER BY id").fetchall()
        return tuple(row["id"] for row in rows)

    def list_runs(self, *, dut: str | None = None,
                  limit: int | None = None) -> list[RunInfo]:
        """Run metadata rows, newest record first, optionally filtered by DUT."""
        sql = (
            "SELECT runs.*, "
            "COALESCE(campaigns.dut, ("
            "  SELECT scripts.dut FROM jobs JOIN scripts "
            "  ON scripts.id = jobs.script_id "
            "  WHERE jobs.run_id = runs.id ORDER BY jobs.ordinal LIMIT 1"
            "), '') AS run_dut, "
            "COALESCE(campaigns.stand, '') AS run_stand, "
            "(SELECT COUNT(*) FROM jobs WHERE jobs.run_id = runs.id) AS n_jobs, "
            "(SELECT CASE "
            "   WHEN EXISTS (SELECT 1 FROM jobs LEFT JOIN case_results "
            "     ON case_results.job_id = jobs.id WHERE jobs.run_id = runs.id "
            "     AND COALESCE(case_results.verdict, 'error') = 'error') "
            "     THEN 'error' "
            "   WHEN EXISTS (SELECT 1 FROM jobs JOIN case_results "
            "     ON case_results.job_id = jobs.id WHERE jobs.run_id = runs.id "
            "     AND case_results.verdict = 'fail') THEN 'fail' "
            "   ELSE 'pass' END) AS worst "
            "FROM runs LEFT JOIN campaigns ON campaigns.id = runs.campaign_id "
            "WHERE runs.resume_key IS NULL "
        )
        params: list = []
        if dut is not None:
            sql += "AND LOWER(run_dut) = LOWER(?) "
            params.append(dut)
        sql += "ORDER BY runs.created_at DESC, runs.id DESC"
        if limit is not None:
            sql += " LIMIT ?"
            params.append(int(limit))
        with self._connect() as conn:
            rows = conn.execute(sql, params).fetchall()
        return [
            RunInfo(
                run_id=row["id"],
                created_at=row["created_at"],
                dut=row["run_dut"],
                stand=row["run_stand"],
                backend=row["backend"],
                workers=row["workers"],
                wall_time=row["wall_time"],
                jobs=row["n_jobs"],
                verdict=row["worst"],
                git_sha=row["git_sha"] or "",
                repro_version=row["repro_version"],
            )
            for row in rows
        ]

    def query(self, *, dut: str | None = None, stand: str | None = None,
              verdict: str | None = None,
              since: float | None = None) -> list[CaseRow]:
        """Per-case verdict rows across all runs, newest run first.

        Filters combine with AND: *dut* matches the script's DUT, *stand*
        the executing stand name as shown in verdict tables, *verdict* one
        of ``pass`` / ``fail`` / ``error`` / ``skipped`` (jobs that failed
        terminally count as ``error``), *since* a unix timestamp lower
        bound on the run's ``created_at``.  All string matches are
        case-insensitive - which is why ``repro-lint``'s
        X-UNSTORABLE-RESULT rule flags case-colliding sheet names.
        """
        sql = (
            "SELECT runs.id AS run_id, runs.created_at, jobs.job_index, "
            "jobs.group_name, jobs.stand_label, scripts.name AS script, "
            "scripts.dut AS dut, "
            "COALESCE(case_results.stand, '-') AS stand, "
            "COALESCE(case_results.verdict, 'error') AS verdict, "
            "COALESCE(case_results.passed, 0) AS passed, "
            "COALESCE(case_results.duration, 0.0) AS duration, "
            "COALESCE(case_results.wall_time, 0.0) AS wall_time "
            "FROM jobs "
            "JOIN runs ON runs.id = jobs.run_id "
            "JOIN scripts ON scripts.id = jobs.script_id "
            "LEFT JOIN case_results ON case_results.job_id = jobs.id "
        )
        clauses = ["runs.resume_key IS NULL"]
        params: list = []
        if dut is not None:
            clauses.append("LOWER(scripts.dut) = LOWER(?)")
            params.append(dut)
        if stand is not None:
            clauses.append("LOWER(COALESCE(case_results.stand, '-')) = LOWER(?)")
            params.append(stand)
        if verdict is not None:
            clauses.append("COALESCE(case_results.verdict, 'error') = LOWER(?)")
            params.append(str(verdict))
        if since is not None:
            clauses.append("runs.created_at >= ?")
            params.append(float(since))
        sql += "WHERE " + " AND ".join(clauses) + " "
        sql += "ORDER BY runs.created_at DESC, runs.id DESC, jobs.ordinal"
        with self._connect() as conn:
            rows = conn.execute(sql, params).fetchall()
        result = []
        for row in rows:
            result.append(CaseRow(
                run_id=row["run_id"],
                created_at=row["created_at"],
                job=format_job_id(row["group_name"], row["stand_label"],
                                  row["script"], row["job_index"]),
                script=row["script"],
                dut=row["dut"],
                group=row["group_name"],
                stand=row["stand"],
                verdict=row["verdict"],
                passed=bool(row["passed"]),
                duration=row["duration"],
                wall_time=row["wall_time"],
            ))
        return result

    def diff_runs(self, a: int, b: int) -> RunDiff:
        """Per-sheet verdict deltas between stored runs *a* and *b*.

        Two recordings of the same campaign - regardless of backend,
        worker count or plan-cache state - produce an ``empty`` diff;
        anything else lists exactly which sheet's verdict moved.
        """
        verdicts: dict[int, dict[str, str]] = {}
        with self._connect() as conn:
            for run_id in (a, b):
                if conn.execute("SELECT 1 FROM runs WHERE id = ? "
                                "AND resume_key IS NULL",
                                (run_id,)).fetchone() is None:
                    raise StoreError(f"no stored run with id {run_id}")
                rows = conn.execute(
                    "SELECT jobs.job_index, jobs.group_name, jobs.stand_label, "
                    "scripts.name AS script, "
                    "COALESCE(case_results.verdict, 'error') AS verdict "
                    "FROM jobs "
                    "JOIN scripts ON scripts.id = jobs.script_id "
                    "LEFT JOIN case_results ON case_results.job_id = jobs.id "
                    "WHERE jobs.run_id = ? ORDER BY jobs.ordinal", (run_id,)
                ).fetchall()
                verdicts[run_id] = {
                    format_job_id(row["group_name"], row["stand_label"],
                                  row["script"], row["job_index"]):
                    row["verdict"]
                    for row in rows
                }
        table_a, table_b = verdicts[a], verdicts[b]
        changed = tuple(
            VerdictDelta(job=key, verdict_a=table_a[key], verdict_b=table_b[key])
            for key in table_a if key in table_b and table_a[key] != table_b[key]
        )
        only_a = tuple(key for key in table_a if key not in table_b)
        only_b = tuple(key for key in table_b if key not in table_a)
        return RunDiff(run_a=a, run_b=b, changed=changed,
                       only_a=only_a, only_b=only_b)


class _AnonymousSpec:
    """Neutral campaign fields for reports recorded with faults but no spec."""

    dut = None
    composition = None
    stand = None
    policy = "first_fit"
    backend = "auto"
    jobs = 1
    concurrency = 0
    retries = 1
    use_plans = True
    reuse_stands = True

"""The campaign job queue: specs in, recorded runs out.

:class:`CampaignService` is the execution half of campaign-as-a-service: it
accepts declarative :class:`~repro.targets.CampaignSpec` objects, executes
them **one at a time** on a dedicated worker thread through the ordinary
:func:`repro.targets.run_campaign` path (so every executor backend, the
plan cache and the capability negotiation behave exactly as they do for
the CLI), records each finished campaign into the service's
:class:`~repro.store.ResultStore`, and tracks per-job progress through the
states of :data:`JOB_STATES`:

``queued``  submitted, waiting for the worker
``running`` the worker is executing the campaign
``done``    finished and recorded; ``run_id`` points into the store
``failed``  the campaign raised; ``error`` carries the message

One worker is deliberate: campaigns parallelise *internally* (the spec's
``backend`` / ``jobs`` / ``concurrency`` fields), so a second service
worker would only make two campaigns fight over the same cores while
interleaving their plan-cache and stand-pool state.
"""

from __future__ import annotations

import itertools
import queue as queue_module
import threading
import time

from .. import chaos as _chaos
from .._record import replace
from ..core.errors import ReproError, TransientError
from ..store import ResultStore
from ..targets import CampaignSpec, run_campaign

__all__ = ["JOB_STATES", "ServiceError", "CampaignService"]

#: Lifecycle states of a submitted campaign job, in order.
JOB_STATES = ("queued", "running", "done", "failed")


class ServiceError(ReproError):
    """A service operation failed (unknown job, shut down, bad spec...)."""


class _ServiceJob:
    """Internal mutable record of one submitted campaign."""

    def __init__(self, job_id: int, spec: CampaignSpec):
        self.job_id = job_id
        self.spec = spec
        self.state = "queued"
        self.submitted_at = time.time()
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self.run_id: int | None = None
        self.error = ""
        self.summary = ""
        self.done = threading.Event()

    def snapshot(self) -> dict:
        """JSON-safe view of the job - what the API serves."""
        return {
            "job": self.job_id,
            "state": self.state,
            "dut": self.spec.dut,
            "composition": self.spec.composition,
            "stand": self.spec.stand,
            "backend": self.spec.backend,
            "faults": list(self.spec.faults),
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "run_id": self.run_id,
            "error": self.error,
            "summary": self.summary,
        }


class CampaignService:
    """Worker-thread job queue over the target registry and a result store.

    >>> service = CampaignService("results.db")
    >>> job = service.submit(CampaignSpec(dut="wiper_ecu"))
    >>> service.wait(job)["state"]
    'done'
    >>> service.store.get_run(service.status(job)["run_id"]).render()

    *store* may be a ready :class:`~repro.store.ResultStore` or a path
    (including ``":memory:"`` for a store that lives and dies with the
    service).  *runner* exists for tests: any callable with
    :func:`~repro.targets.run_campaign`'s signature.
    """

    def __init__(self, store: ResultStore | str, *, runner=None):
        self.store = store if isinstance(store, ResultStore) \
            else ResultStore(store)
        self._runner = runner or run_campaign
        self._queue: queue_module.SimpleQueue = queue_module.SimpleQueue()
        self._jobs: dict[int, _ServiceJob] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._closed = False
        #: Times the worker loop died on a transient infrastructure error
        #: (e.g. an injected :func:`repro.chaos.maybe_service_crash`) and
        #: was restarted by the supervisor.  Queued jobs survive restarts.
        self.worker_restarts = 0
        self._worker = threading.Thread(
            target=self._supervise, name="repro-campaign-service",
            daemon=True)
        self._worker.start()

    # -- submission / inspection -------------------------------------------

    def submit(self, spec: CampaignSpec) -> int:
        """Enqueue a campaign; returns its job id immediately."""
        if not isinstance(spec, CampaignSpec):
            raise ServiceError(
                f"expected a CampaignSpec, got {type(spec).__name__}")
        with self._lock:
            if self._closed:
                raise ServiceError("the campaign service has been shut down")
            job = _ServiceJob(next(self._ids), spec)
            self._jobs[job.job_id] = job
        self._queue.put(job)
        return job.job_id

    def _job(self, job_id: int) -> _ServiceJob:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise ServiceError(f"unknown campaign job {job_id}")
        return job

    def status(self, job_id: int) -> dict:
        """JSON-safe snapshot of one job (state, timestamps, run id...)."""
        return self._job(job_id).snapshot()

    def jobs(self) -> list[dict]:
        """Snapshots of every submitted job, in submission order."""
        with self._lock:
            records = list(self._jobs.values())
        return [job.snapshot() for job in records]

    def wait(self, job_id: int, timeout: float | None = None) -> dict:
        """Block until a job reaches ``done`` / ``failed``; returns its
        snapshot.  Raises :class:`ServiceError` when *timeout* expires
        first."""
        job = self._job(job_id)
        if not job.done.wait(timeout):
            raise ServiceError(
                f"campaign job {job_id} did not finish within {timeout} s "
                f"(state {job.state!r})"
            )
        return job.snapshot()

    # -- lifecycle ----------------------------------------------------------

    def shutdown(self, *, wait: bool = True,
                 timeout: float | None = None) -> None:
        """Stop accepting jobs and (optionally) wait for the worker to
        drain the queue.  Idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._queue.put(None)
        if wait:
            self._worker.join(timeout)

    def __enter__(self) -> "CampaignService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    # -- the worker ---------------------------------------------------------

    def _supervise(self) -> None:
        """Keep the worker loop alive across transient infrastructure
        deaths: a :class:`~repro.core.errors.TransientError` escaping
        :meth:`_work` (the chaos harness crashes the worker *between*
        jobs, never inside one) restarts the loop; anything else is a real
        bug and propagates."""
        while True:
            try:
                self._work()
                return
            except TransientError:
                with self._lock:
                    self.worker_restarts += 1

    def _work(self) -> None:
        while True:
            # Chaos hook: an installed policy may crash the service worker
            # here, before the next job is claimed, so no submission is
            # ever lost - the supervisor restarts the loop and the job is
            # still queued.
            if _chaos.ACTIVE is not None:
                _chaos.maybe_service_crash()
            job = self._queue.get()
            if job is None:
                return
            job.state = "running"
            job.started_at = time.time()
            try:
                # The service records through its own store object; a store
                # path on the submitted spec would open a second database.
                spec = replace(job.spec, store=None)
                result = self._runner(spec)
                job.run_id = self.store.record_campaign(result, spec)
                job.summary = result.summary()
                job.state = "done"
            except Exception as exc:  # any failure is the job's, not ours
                job.error = str(exc) or type(exc).__name__
                job.state = "failed"
            finally:
                job.finished_at = time.time()
                job.done.set()

"""Job-based campaign execution: backends, retries, deterministic aggregation.

Because every compiled test script is stand-independent and every run uses a
fresh DUT, harness and stand, the cross product

    (test scripts) x (test stands) x (fault models)

decomposes into *independent jobs* — the natural unit of parallelism for
large campaigns (the compositional-testing literature makes the same
observation for FSM component runs).  This module turns that observation
into an execution engine:

:class:`Job`
    one (script, stand factory, harness factory, ECU factory) work item,
:func:`expand_jobs`
    the ordered cross-product expansion,
:class:`Executor` / :func:`make_executor`
    one interface over four interchangeable backends
    (``serial``, ``thread``, ``process``, ``async``); the serial one is
    here, the thread and async ones are in :mod:`repro.teststand.backends`
    and the process one in :mod:`repro.teststand.transport`, imported when
    a batch asks for them,
:func:`run_jobs`
    drives any backend, retries transient errors, streams results to an
    optional callback and collects them into an insertion-ordered
    :class:`ExecutionReport` — so the aggregated verdict table is
    byte-identical no matter how many workers ran the campaign or in which
    order they finished.
:class:`ResiliencePolicy`
    how the batch survives infrastructure trouble: classified retries
    (only :func:`~repro.core.errors.is_transient` errors retry) with
    deterministic seeded exponential backoff, per-job wall-clock deadlines,
    a per-stand quarantine circuit breaker, and an optional
    :class:`~repro.chaos.ChaosPolicy` injecting faults to prove all of the
    above works.  ``run_jobs(..., completed=...)`` additionally skips jobs
    whose results a previous (checkpointed) run already produced — the
    executor half of campaign resume.

The ``process`` backend requires every factory in the jobs to be picklable
(module-level callables); the ``thread``, ``serial`` and ``async`` backends
accept any callable.  The ``async`` backend is the odd one out in worker
economics: it runs every job on *one* worker, but each job's instrument I/O
is awaitable (:meth:`~repro.teststand.interpreter.TestStandInterpreter.arun`
awaits the run's generator core through
:func:`~repro.instruments.base.adrive`), so one event loop multiplexes up
to ``concurrency`` slow stands — wall clock on latency-simulated stands
stays roughly flat with stand count while the serial backend scales
linearly (benchmark A4).
"""

from __future__ import annotations

import contextvars
import itertools
import random
import threading
import time
from collections import OrderedDict
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .. import chaos as chaos_mod
from .._lazy import lazy_exports
from .._record import Record, replace
from ..core.errors import (
    ConfigurationError,
    JobTimeoutError,
    ReproError,
    is_transient,
)
from ..core.script import TestScript
from ..core.signals import SignalSet
from .interpreter import TestStandInterpreter
from .plan import GLOBAL_PLAN_CACHE
from .stands import TestStand
from .verdict import TestResult, Verdict

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "backends": ("ThreadExecutor", "AsyncExecutor", "aexecute_job"),
    "transport": ("ProcessExecutor",),
})
__all__ += [
    "EXECUTION_BACKENDS",
    "DEFAULT_ASYNC_CONCURRENCY",
    "Job",
    "JobResult",
    "ResiliencePolicy",
    "ExecutionReport",
    "Executor",
    "SerialExecutor",
    "make_executor",
    "execute_job",
    "expand_jobs",
    "format_job_id",
    "run_jobs",
    "run_across_stands",
]

#: Names of the supported execution backends.
EXECUTION_BACKENDS = ("serial", "thread", "process", "async")

#: Async multiplex width used when neither ``concurrency`` nor a ``jobs``
#: count larger than one is requested.
DEFAULT_ASYNC_CONCURRENCY = 8


# ---------------------------------------------------------------------------
# Job model
# ---------------------------------------------------------------------------

class Job(Record):
    """One independent unit of campaign work: run one script once.

    A job owns *factories*, not instances: every execution builds a fresh
    harness and DUT, so jobs never share mutable state and can run on any
    worker in any order.  ``group`` tags which campaign axis the job
    belongs to (e.g. the fault-model name, or ``"baseline"``), and
    ``index`` fixes the job's place in the deterministic aggregate.

    Three fast-path switches ride along (all on by default, none ever
    changes a verdict): ``reuse_stands`` lets the executing worker lease
    the stand from its per-worker pool (one stand per distinct
    ``stand_factory``, :meth:`~repro.teststand.stands.TestStand.reset`
    between jobs) instead of rebuilding it, and ``use_plans`` with
    ``use_vm`` let the interpreter execute the bytecode program
    (:mod:`repro.teststand.vm`) compiled from the cached
    :class:`~repro.teststand.plan.ExecutionPlan` of the (script x stand x
    policy) combination.  With either of the two off the job runs the
    classic walk, a full resource search per action.
    """

    index: int
    script: TestScript
    signals: SignalSet
    stand_factory: Callable[[], object]
    harness_factory: Callable[[object], object]
    ecu_factory: Callable[[], object]
    policy: str = "first_fit"
    stop_on_error: bool = False
    group: str = ""
    stand_label: str = ""
    use_plans: bool = True
    reuse_stands: bool = True
    use_vm: bool = True

    def __init__(self, index: int, script: TestScript, signals: SignalSet,
                 stand_factory: Callable[[], object],
                 harness_factory: Callable[[object], object],
                 ecu_factory: Callable[[], object], policy: str = "first_fit",
                 stop_on_error: bool = False, group: str = "",
                 stand_label: str = "", use_plans: bool = True,
                 reuse_stands: bool = True, use_vm: bool = True) -> None:
        self.__dict__.update(
            index=index, script=script, signals=signals,
            stand_factory=stand_factory, harness_factory=harness_factory,
            ecu_factory=ecu_factory, policy=policy,
            stop_on_error=stop_on_error, group=group,
            stand_label=stand_label, use_plans=use_plans,
            reuse_stands=reuse_stands, use_vm=use_vm)

    @property
    def job_id(self) -> str:
        return format_job_id(self.group, self.stand_label, self.script.name,
                             self.index)


def format_job_id(group: str, stand_label: str, script: str,
                  index: int) -> str:
    """A job's id, ``group[@stand]/script#index``: the same on any backend."""
    label = group or "-"
    if stand_label:
        label = f"{label}@{stand_label}"
    return f"{label}/{script}#{index}"


class JobResult(Record):
    """Outcome of one job: the test result, or a terminal execution error."""

    job: Job
    result: TestResult | None
    attempts: int = 1
    error: str = ""
    wall_time: float = 0.0

    def __init__(self, job: Job, result: TestResult | None, attempts: int = 1,
                 error: str = "", wall_time: float = 0.0) -> None:
        self.__dict__.update(job=job, result=result, attempts=attempts,
                             error=error, wall_time=wall_time)

    @property
    def ok(self) -> bool:
        return self.result is not None

    @property
    def verdict(self) -> Verdict:
        return self.result.verdict if self.result is not None else Verdict.ERROR


class ResiliencePolicy(Record):
    """How a job batch survives infrastructure trouble.

    One frozen, picklable value threaded through every backend (it rides
    to process-pool workers alongside the job chunks):

    * **Classified retries** — a raised exception is retried only when
      :func:`~repro.core.errors.is_transient` says a fresh attempt has a
      chance (permanent errors like ``ConfigurationError`` or
      ``CapabilityGapError`` fail fast on attempt one).
    * **Deterministic backoff** — attempt *n* sleeps
      ``min(backoff_max, backoff_base * backoff_factor**(n-1))`` scaled by
      ``1 ± jitter`` drawn from ``random.Random(f"{seed}:{job_id}:...")``,
      so the exact same schedule replays on every backend.
    * **Deadline** — a per-job wall-clock budget shared across the job's
      attempts and backoffs; blowing it raises
      :class:`~repro.core.errors.JobTimeoutError` (permanent: a job that
      blew its budget once would blow it again).
    * **Quarantine** — after ``quarantine_after`` *consecutive*
      infrastructure failures on one stand, further jobs for that stand are
      reported ERROR with a structured ``StandQuarantinedError`` reason
      instead of being executed (0 disables the breaker).
    * **Chaos** — an optional :class:`~repro.chaos.ChaosPolicy` injecting
      seeded faults; ``None`` (the default) keeps every hook a single
      pointer check.
    """

    max_attempts: int = 2
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    jitter: float = 0.25
    seed: int = 0
    deadline: float | None = None
    quarantine_after: int = 0
    chaos: chaos_mod.ChaosPolicy | None = None

    def __init__(self, max_attempts: int = 2, backoff_base: float = 0.05,
                 backoff_factor: float = 2.0, backoff_max: float = 2.0,
                 jitter: float = 0.25, seed: int = 0,
                 deadline: float | None = None, quarantine_after: int = 0,
                 chaos: chaos_mod.ChaosPolicy | None = None) -> None:
        max_attempts = int(max_attempts)
        if max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {max_attempts}"
            )
        if deadline is not None and not deadline > 0.0:
            raise ConfigurationError(
                f"deadline must be positive, got {deadline}"
            )
        if int(quarantine_after) < 0:
            raise ConfigurationError(
                f"quarantine_after must be >= 0 (0 disables), "
                f"got {quarantine_after}"
            )
        self.__dict__.update(
            max_attempts=max_attempts, backoff_base=backoff_base,
            backoff_factor=backoff_factor, backoff_max=backoff_max,
            jitter=jitter, seed=seed, deadline=deadline,
            quarantine_after=quarantine_after, chaos=chaos)

    def without_worker_kill(self) -> "ResiliencePolicy":
        """Copy with chaos worker kills disabled (for redelivered chunks)."""
        if self.chaos is None:
            return self
        return replace(self, chaos=self.chaos.without_worker_kill())


# ---------------------------------------------------------------------------
# Per-worker stand reuse
# ---------------------------------------------------------------------------

#: Per-thread stand pools: {stand_factory -> [idle stands]}.  Thread-local
#: storage gives every worker thread (and every worker process' main thread)
#: its own pools, so a pooled stand is never used by two OS threads at once:
#: under a deadline the blocking driver hands an idle stand to its helper
#: thread and takes it back only once the helper has finished (see
#: :func:`_blocking_attempt`); the async backend's interleaved jobs run on
#: one thread and simply pop distinct stands from the same pool.  Bounded:
#: the least recently used factories are dropped so long-lived sessions
#: spanning many campaigns do not accumulate stands forever.
_WORKER_STANDS = threading.local()

#: How many distinct stand factories one worker keeps pools for.
_STAND_POOL_FACTORIES = 16


def _stand_pool(job: Job) -> list[TestStand] | None:
    """This thread's idle stands for *job*; ``None`` when reuse is off."""
    if not job.reuse_stands:
        return None
    pools: OrderedDict = getattr(_WORKER_STANDS, "pools", None)
    if pools is None:
        pools = _WORKER_STANDS.pools = OrderedDict()
    pool = pools.get(job.stand_factory)
    if pool is None:
        pool = pools[job.stand_factory] = []
        while len(pools) > _STAND_POOL_FACTORIES:
            pools.popitem(last=False)
    else:
        pools.move_to_end(job.stand_factory)
    return pool


def _ready_stand(job: Job, idle: TestStand | None) -> TestStand:
    """*idle* reset for *job*, or a fresh stand when there is none."""
    if idle is None:
        return job.stand_factory()
    # Reset on lease, not on return: a run that died mid-job still hands
    # its successor a clean stand.
    idle.reset()
    return idle


def _lease_stand(job: Job) -> tuple[TestStand, bool]:
    """A stand for *job*: pooled (and reset) when reuse is on, else fresh."""
    pool = _stand_pool(job)
    return _ready_stand(job, pool.pop() if pool else None), pool is not None


def _return_stand(job: Job, stand: TestStand, pooled: bool) -> None:
    if not pooled:
        return
    pools = getattr(_WORKER_STANDS, "pools", None)
    if pools is None:
        return
    pool = pools.get(job.stand_factory)
    if pool is not None:
        pool.append(stand)


def _interpreter_for(job: Job, stand: TestStand) -> TestStandInterpreter:
    """Build a fresh (ECU, harness) interpreter for one execution on *stand*."""
    ecu = job.ecu_factory()
    harness = job.harness_factory(ecu)
    return TestStandInterpreter(
        stand, harness, job.signals,
        policy=job.policy, stop_on_error=job.stop_on_error,
        plan_cache=GLOBAL_PLAN_CACHE if job.use_plans else None,
        use_vm=job.use_vm,
    )


def execute_job(job: Job) -> TestResult:
    """Build a fresh (ECU, harness) interpreter, lease a stand, run once.

    Instrument I/O is synchronous (each call blocks for the instrument's
    ``io_delay``); the serial / thread / process backends use this path.
    The stand comes from the worker's reuse pool when the job allows it
    (fresh allocator and harness per run keep the verdicts identical) and
    is returned to the pool afterwards.
    """
    stand, pooled = _lease_stand(job)
    try:
        return _interpreter_for(job, stand).run(job.script)
    finally:
        _return_stand(job, stand, pooled)


# ---------------------------------------------------------------------------
# Resilience machinery: quarantine, deadlines, backoff, classified retries
# ---------------------------------------------------------------------------

#: Per-process stand quarantine books: {batch id -> {stand key ->
#: consecutive infra failures}}.  Every ``run_jobs`` batch keeps its own
#: book, so batches running side by side (two threads sharing the warm
#: process pool) never trip each other's breaker.  A process worker keeps
#: one book per batch it serves (a worker that sees a stand fail repeatedly
#: stops feeding it jobs, which is exactly the circuit-breaker intent); the
#: least recent books are dropped, as the worker never learns a batch ended.
_QUARANTINE_LOCK = threading.Lock()
_QUARANTINE: OrderedDict[int, dict[str, int]] = OrderedDict()

#: How many batches' quarantine books one process keeps.
_QUARANTINE_BATCHES = 16

_BATCH_IDS = itertools.count(1)


def _stand_key(job: Job) -> str:
    """Identity of the (virtual) stand a job runs on, for the quarantine book."""
    if job.stand_label:
        return job.stand_label
    factory = job.stand_factory
    return getattr(factory, "__qualname__", "") or repr(factory)


def _quarantine_reason(job: Job, policy: ResiliencePolicy, batch: int) -> str:
    """Non-empty structured error when the job's stand is quarantined."""
    if policy.quarantine_after <= 0:
        return ""
    key = _stand_key(job)
    with _QUARANTINE_LOCK:
        failures = _QUARANTINE.get(batch, {}).get(key, 0)
    if failures >= policy.quarantine_after:
        return (
            f"StandQuarantinedError: stand {key!r} quarantined after "
            f"{failures} consecutive infrastructure failures"
        )
    return ""


def _note_stand_outcome(job: Job, policy: ResiliencePolicy, batch: int, *,
                        failed: bool) -> None:
    """Count a terminal infra failure against the stand; success resets it."""
    if policy.quarantine_after <= 0:
        return
    key = _stand_key(job)
    with _QUARANTINE_LOCK:
        book = _QUARANTINE.get(batch)
        if book is None:
            if not failed:
                return
            book = _QUARANTINE[batch] = {}
            while len(_QUARANTINE) > _QUARANTINE_BATCHES:
                _QUARANTINE.popitem(last=False)
        book[key] = book.get(key, 0) + 1 if failed else 0


def _forget_batch(batch: int) -> None:
    with _QUARANTINE_LOCK:
        _QUARANTINE.pop(batch, None)


def _backoff_seconds(policy: ResiliencePolicy, job_id: str, attempt: int) -> float:
    """Deterministic jittered exponential backoff before attempt+1."""
    delay = min(
        policy.backoff_max,
        policy.backoff_base * policy.backoff_factor ** (attempt - 1),
    )
    if policy.jitter > 0.0:
        rng = random.Random(f"{policy.seed}:{job_id}:backoff:{attempt}")
        delay *= 1.0 + policy.jitter * (2.0 * rng.random() - 1.0)
    return max(0.0, delay)


async def _run_with_retries(job: Job, policy: ResiliencePolicy, batch: int,
                            run_once, sleep) -> JobResult:
    """Run *job* under *policy*: classified retries, backoff, deadline, chaos.

    The retry loop of both drivers.  It awaits only what its driver hands
    it: ``run_once(job, budget)``, one run within *budget* seconds (``None``
    without a deadline) that returns ``None`` when the budget lapsed first,
    and ``sleep(seconds)``, one backoff.

    Verdicts — including FAIL and ERROR action results — are never retried;
    they are deterministic observations about the DUT.  Only a *raised*
    exception counts, and only when :func:`is_transient` classifies it as
    worth another attempt; permanent errors (bad configuration, capability
    gaps, blown deadlines) fail fast and report their first error.  The
    deadline is one budget for all the job's attempts and the backoffs
    between them.  *batch* names the quarantine book the job's stand
    outcome counts in.
    """
    start = time.perf_counter()
    reason = _quarantine_reason(job, policy, batch)
    if reason:
        return JobResult(job, None, attempts=0, error=reason,
                         wall_time=time.perf_counter() - start)
    end = None if policy.deadline is None else start + policy.deadline
    for attempt in itertools.count(1):
        token = None
        if policy.chaos is not None:
            token = chaos_mod.begin_job(policy.chaos, job.job_id, attempt)
        result, error = None, ""
        try:
            budget = None if end is None else end - time.perf_counter()
            if budget is None or budget > 0.0:
                result = await run_once(job, budget)
            if result is None:
                raise JobTimeoutError(
                    f"job exceeded its {policy.deadline:g} s wall-clock deadline",
                    deadline=policy.deadline)
        except Exception as exc:  # noqa: BLE001 - reported in the JobResult
            if is_transient(exc) and attempt < policy.max_attempts:
                delay = _backoff_seconds(policy, job.job_id, attempt)
                if end is not None:
                    delay = max(0.0, min(delay, end - time.perf_counter()))
                await sleep(delay)
                continue
            error = f"{type(exc).__name__}: {exc}"
        finally:
            if token is not None:
                chaos_mod.end_job(token)
        _note_stand_outcome(job, policy, batch, failed=result is None)
        return JobResult(job, result, attempts=attempt, error=error,
                         wall_time=time.perf_counter() - start)


async def _blocking_attempt(job: Job, budget: float | None) -> TestResult | None:
    """One attempt of the blocking driver; it never suspends.

    Without a budget the job runs in the calling thread.  With one, the
    calling thread takes an idle stand from its own pool and a daemon
    helper thread (with the caller's context, so an active chaos schedule
    follows it) resets it, or builds a fresh one, and runs the job on it:
    the budget covers getting the stand, as on the awaiting driver.  The
    stand goes back to the caller's pool only when the helper finished
    within the budget.  When the budget lapses the thread is *abandoned* —
    Python cannot safely kill it — ``None`` is returned, and its stand is
    never returned to any pool, so an abandoned run can never corrupt a
    stand a future job would lease.
    """
    if budget is None:
        return execute_job(job)
    pool = _stand_pool(job)
    idle = pool.pop() if pool else None
    stands: list[TestStand] = []
    outcome: list[TestResult | BaseException] = []

    def _target() -> None:
        try:
            stands.append(_ready_stand(job, idle))
            outcome.append(_interpreter_for(job, stands[0]).run(job.script))
        except BaseException as exc:  # noqa: BLE001 - re-raised in the caller
            outcome.append(exc)

    worker = threading.Thread(
        target=contextvars.copy_context().run, args=(_target,),
        name=f"deadline-{job.index}", daemon=True,
    )
    worker.start()
    worker.join(budget)
    if not outcome:
        return None
    # The helper has finished with its stand once it recorded an outcome.
    if stands and pool is not None:
        pool.append(stands[0])
    if isinstance(outcome[0], BaseException):
        raise outcome[0]
    return outcome[0]


async def _blocking_sleep(seconds: float) -> None:
    time.sleep(seconds)


def _execute_with_retries(job: Job, policy: ResiliencePolicy,
                          batch: int = 0) -> JobResult:
    """Run :func:`_run_with_retries` in the calling thread: nothing it
    awaits here suspends, so one ``send`` runs it to its end without an
    event loop (and a serial campaign imports no asyncio)."""
    retrying = _run_with_retries(job, policy, batch,
                                 _blocking_attempt, _blocking_sleep)
    try:
        retrying.send(None)
    except StopIteration as done:
        return done.value
    raise AssertionError("unreachable")  # pragma: no cover


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------

class Executor:
    """One interface over the interchangeable execution backends.

    ``map_jobs`` applies ``fn(job, *extra)`` to every job and yields
    ``(position, JobResult)`` pairs as they complete — possibly out of
    order; callers that need determinism re-order by position (which
    :func:`run_jobs` does).

    ``is_async`` tells :func:`run_jobs` which driver of the retry loop
    the backend expects: ``False`` (the default) gets the blocking one,
    ``True`` the awaiting one.
    """

    name = "?"
    is_async = False

    @property
    def workers(self) -> int:
        return 1

    def map_jobs(
        self, fn: Callable[..., JobResult], jobs: Sequence[Job], *extra
    ) -> Iterator[tuple[int, JobResult]]:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(workers={self.workers})"


class SerialExecutor(Executor):
    """Runs every job in the calling thread, in submission order."""

    name = "serial"

    def map_jobs(self, fn, jobs, *extra):
        for position, job in enumerate(jobs):
            yield position, fn(job, *extra)


#: Bumped by every registration change in :mod:`repro.targets`.  Workers
#: look composed targets up by name in the registry copy they forked with,
#: so the process backend (:mod:`repro.teststand.transport`) replaces a
#: pool forked at an older generation before it serves a batch.
_registry_generation = 0

#: Each change stores a value no earlier change stored; ``next`` on a
#: count needs no lock.
_GENERATIONS = itertools.count(1)


def registry_changed() -> None:
    """Make the next process batch replace a pool forked before this call."""
    global _registry_generation
    _registry_generation = next(_GENERATIONS)


def make_executor(backend: str = "auto", jobs: int = 1, *,
                  concurrency: int = 0) -> Executor:
    """Build the executor for a ``--jobs N --backend NAME`` style request.

    ``auto`` picks serial for one worker and threads otherwise — the safe
    default, because threads accept arbitrary (closure) factories.

    ``concurrency`` only concerns the ``async`` backend: it is the multiplex
    width of the single async worker.  When it is left at ``0`` the async
    backend falls back to ``jobs`` (so ``--backend async --jobs 4`` behaves
    as one would guess) and, when that is one too, to
    :data:`DEFAULT_ASYNC_CONCURRENCY`.  Other backends ignore it.

    Invalid knobs raise :class:`~repro.core.errors.ConfigurationError` (a
    ``ValueError``): ``jobs`` below one and negative ``concurrency`` used to
    be clamped silently, which hid typos like ``--jobs 0``.  ``concurrency
    == 0`` stays legal — it is the documented "pick for me" value.
    """
    concurrency = int(concurrency)
    if concurrency < 0:
        raise ConfigurationError(
            f"concurrency must be non-negative (0 = automatic), got {concurrency}"
        )
    jobs = int(jobs)
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    backend = (backend or "auto").lower()
    if backend == "auto":
        backend = "serial" if jobs == 1 else "thread"
    if backend == "serial":
        return SerialExecutor()
    if backend == "thread":
        from .backends import ThreadExecutor

        return ThreadExecutor(max_workers=jobs)
    if backend == "process":
        from .transport import ProcessExecutor

        return ProcessExecutor(max_workers=jobs)
    if backend == "async":
        from .backends import AsyncExecutor

        width = concurrency or (jobs if jobs > 1 else DEFAULT_ASYNC_CONCURRENCY)
        return AsyncExecutor(concurrency=width)
    raise ReproError(
        f"unknown execution backend {backend!r}; choose one of {EXECUTION_BACKENDS}"
    )


# ---------------------------------------------------------------------------
# Expansion and aggregation
# ---------------------------------------------------------------------------

def expand_jobs(
    scripts: Sequence[TestScript],
    signals: SignalSet,
    stands: Mapping[str, Callable[[], object]],
    harness_factory: Callable[[object], object],
    ecus: Mapping[str, Callable[[], object]],
    *,
    policy: str = "first_fit",
    stop_on_error: bool = False,
    use_plans: bool = True,
    reuse_stands: bool = True,
    use_vm: bool = True,
) -> tuple[Job, ...]:
    """Expand (ECU groups x stands x scripts) into an ordered job list.

    The iteration order — ECU group outermost, then stand, then script —
    defines the deterministic aggregate order, mirroring how a serial
    campaign would have walked the same cross product.  ``use_plans`` /
    ``reuse_stands`` / ``use_vm`` forward to every job (see :class:`Job`);
    leaving them on is always safe, turning them off exists for A/B
    measurements.
    """
    expanded: list[Job] = []
    for group, ecu_factory in ecus.items():
        for stand_label, stand_factory in stands.items():
            for script in scripts:
                expanded.append(Job(
                    index=len(expanded),
                    script=script,
                    signals=signals,
                    stand_factory=stand_factory,
                    harness_factory=harness_factory,
                    ecu_factory=ecu_factory,
                    policy=policy,
                    stop_on_error=stop_on_error,
                    group=group,
                    stand_label=stand_label,
                    use_plans=use_plans,
                    reuse_stands=reuse_stands,
                    use_vm=use_vm,
                ))
    return tuple(expanded)


class ExecutionReport:
    """Insertion-ordered aggregate of a finished job batch."""

    def __init__(
        self,
        results: Sequence[JobResult],
        *,
        backend: str = "serial",
        workers: int = 1,
        wall_time: float = 0.0,
    ):
        self.results = tuple(results)
        self.backend = backend
        self.workers = workers
        self.wall_time = float(wall_time)

    def __iter__(self) -> Iterator[JobResult]:
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    @property
    def ok(self) -> bool:
        """Whether every job produced a test result (verdicts may still fail)."""
        return all(job_result.ok for job_result in self.results)

    @property
    def failed_jobs(self) -> tuple[JobResult, ...]:
        """Jobs that never produced a result despite retries."""
        return tuple(jr for jr in self.results if not jr.ok)

    @property
    def job_seconds(self) -> float:
        """Sum of per-job wall times: the cost a serial run would have paid."""
        return sum(jr.wall_time for jr in self.results)

    @property
    def speedup(self) -> float:
        """Ratio of summed job time to elapsed wall time (1.0 when serial)."""
        if self.wall_time <= 0.0:
            return 1.0
        return self.job_seconds / self.wall_time

    def by_group(self) -> dict[str, tuple[JobResult, ...]]:
        """Results bucketed by job group, both levels in insertion order."""
        grouped: dict[str, list[JobResult]] = {}
        for job_result in self.results:
            grouped.setdefault(job_result.job.group, []).append(job_result)
        return {group: tuple(items) for group, items in grouped.items()}

    def test_results(self) -> tuple[TestResult, ...]:
        """All successful test results, in insertion order.

        Raises :class:`ReproError` when a job failed terminally, because a
        partial verdict table would silently under-report the campaign.
        """
        failed = self.failed_jobs
        if failed:
            details = "; ".join(
                f"{jr.job.job_id}: {jr.error}" for jr in failed[:3]
            )
            raise ReproError(
                f"{len(failed)} job(s) failed after retries ({details})"
            )
        return tuple(jr.result for jr in self.results)

    def verdict_table(self) -> str:
        """Deterministic verdict table: identical for any backend/worker count."""
        from .report import format_table

        header = ("job", "script", "stand", "verdict", "steps", "pass", "fail", "error")
        rows = []
        for job_result in self.results:
            result = job_result.result
            if result is None:
                rows.append((job_result.job.job_id, job_result.job.script.name,
                             "-", "ERROR", "-", "-", "-", job_result.error))
                continue
            counts = result.counts()
            rows.append((
                job_result.job.job_id,
                result.script.name,
                result.stand,
                str(result.verdict),
                str(len(result.steps)),
                str(counts["pass"]),
                str(counts["fail"]),
                str(counts["error"]),
            ))
        return format_table(header, rows)

    def summary(self) -> str:
        verdicts = {jr.verdict for jr in self.results}
        worst = Verdict.combine(jr.verdict for jr in self.results)
        retried = sum(1 for jr in self.results if jr.attempts > 1)
        parts = [
            f"{len(self.results)} job(s) on {self.backend} backend "
            f"({self.workers} worker(s))",
            f"worst verdict {worst}",
            f"wall {self.wall_time:.3f} s (jobs {self.job_seconds:.3f} s, "
            f"speedup {self.speedup:.2f}x)",
        ]
        if retried:
            parts.append(f"{retried} job(s) needed retries")
        if len(verdicts) == 1:
            parts.append(f"all {next(iter(verdicts))}")
        return "; ".join(parts)

    def to_dict(self) -> dict:
        """Durable dict representation (see :mod:`repro.teststand.serialize`).

        JSON-safe, stable key order, stamped with a schema version;
        scripts are deduplicated by content.  The result store
        (:mod:`repro.store`), the campaign service API and ``repro-campaign
        --format json`` all persist exactly this document.
        """
        from .serialize import report_to_dict
        return report_to_dict(self)

    @classmethod
    def from_dict(cls, data: Mapping) -> "ExecutionReport":
        """Rebuild a report from :meth:`to_dict` output.

        The restored report renders byte-identically (``verdict_table()``,
        ``summary()``, ``by_group()``) but is a record, not a runnable
        batch: its jobs carry placeholder factories that raise when called.
        """
        from .serialize import report_from_dict
        return report_from_dict(data)


def run_jobs(
    jobs: Iterable[Job],
    executor: Executor | None = None,
    *,
    on_result: Callable[[JobResult], None] | None = None,
    resilience: ResiliencePolicy | None = None,
    completed: Mapping[str, JobResult] | None = None,
) -> ExecutionReport:
    """Execute *jobs* on *executor* and aggregate deterministically.

    Results stream into *on_result* in completion order (for live progress
    or checkpointing) but are slotted into the report by submission
    position, so the final aggregate — and everything derived from it, like
    the verdict table — does not depend on scheduling.  (The async backend
    drains its whole batch before streaming, so there *on_result* fires
    only after the last job finished — still in completion order.)

    *resilience* carries the full :class:`ResiliencePolicy` (retries,
    backoff, deadline, quarantine, chaos); when omitted, the default
    policy is used.  *completed* maps ``job_id`` to
    a previously produced :class:`JobResult` (a resumed campaign's
    checkpoints): matching jobs are not dispatched — their restored results
    slot straight into the report, and *on_result* is **not** called for
    them (they are already persisted).

    When the policy carries a chaos policy it is installed in the calling
    process for the duration of the batch and uninstalled afterwards, so
    store writes performed from *on_result* see injected commit faults
    too.  Process-pool workers install it per job attempt (through
    :func:`~repro.chaos.begin_job`) and uninstall it after each chunk.

    The batch has its own stand quarantine book, in the calling process
    and in every process worker that serves it.
    """
    job_list = tuple(jobs)
    executor = executor or SerialExecutor()
    policy = resilience or ResiliencePolicy()
    start = time.perf_counter()
    slots: list[JobResult | None] = [None] * len(job_list)
    pending: list[tuple[int, Job]] = []
    for position, job in enumerate(job_list):
        restored = completed.get(job.job_id) if completed else None
        if restored is not None:
            slots[position] = restored
        else:
            pending.append((position, job))
    batch = next(_BATCH_IDS)
    if executor.is_async:
        from .backends import _aexecute_with_retries as job_fn
    else:
        job_fn = _execute_with_retries
    installed = policy.chaos is not None
    if installed:
        chaos_mod.install(policy.chaos)
    try:
        for relative, job_result in executor.map_jobs(
            job_fn, [job for _, job in pending], policy, batch
        ):
            slots[pending[relative][0]] = job_result
            if on_result is not None:
                on_result(job_result)
    finally:
        _forget_batch(batch)
        if installed:
            chaos_mod.uninstall()
    missing = [job_list[i].job_id for i, slot in enumerate(slots) if slot is None]
    if missing:
        raise ReproError(f"executor returned no result for job(s) {missing}")
    return ExecutionReport(
        [slot for slot in slots if slot is not None],
        backend=executor.name,
        workers=executor.workers,
        wall_time=time.perf_counter() - start,
    )


def run_across_stands(
    scripts: TestScript | Sequence[TestScript],
    signals: SignalSet,
    stands: Mapping[str, Callable[[], object]],
    harness_factory: Callable[[object], object],
    ecu_factory: Callable[[], object],
    *,
    policy: str = "first_fit",
    executor: Executor | None = None,
) -> ExecutionReport:
    """Portability run: the same script(s) on every stand of *stands*.

    This is the paper's E1 experiment phrased as an executor batch: the
    portability analyses and benchmarks are thin layers over this call.
    """
    if isinstance(scripts, TestScript):
        scripts = (scripts,)
    jobs = expand_jobs(
        tuple(scripts), signals, stands, harness_factory,
        {"portability": ecu_factory}, policy=policy,
    )
    return run_jobs(jobs, executor)

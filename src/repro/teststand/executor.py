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
    (``serial``, ``thread``, ``process``, ``async``),
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

import atexit
import contextvars
import itertools
import math
import os
import random
import threading
import time
from collections import OrderedDict
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .. import chaos as chaos_mod
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
from .profiling import PROFILER
from .report import format_table
from .stands import TestStand
from .verdict import TestResult, Verdict

__all__ = [
    "EXECUTION_BACKENDS",
    "DEFAULT_ASYNC_CONCURRENCY",
    "Job",
    "JobResult",
    "ResiliencePolicy",
    "ExecutionReport",
    "Executor",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "AsyncExecutor",
    "make_executor",
    "execute_job",
    "aexecute_job",
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


async def aexecute_job(job: Job) -> TestResult:
    """Build a fresh (ECU, harness) interpreter, lease a stand, await once.

    The awaitable twin of :func:`execute_job`: instrument I/O goes through
    :meth:`~repro.teststand.interpreter.TestStandInterpreter.arun`, so the
    calling event loop can interleave other jobs while this job's stand is
    waiting on (simulated) instrument latency.  Interleaved jobs lease
    *distinct* stands from the single async worker's pool.
    """
    stand, pooled = _lease_stand(job)
    try:
        return await _interpreter_for(job, stand).arun(job.script)
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


async def _awaited_attempt(job: Job, budget: float | None) -> TestResult | None:
    """One attempt of the awaiting driver, cancelled when *budget* lapses.

    A ``TimeoutError`` the job raised itself is its own, transient, error:
    only the cancelled task marks a lapse, because the loop may fire its
    timer slightly early.
    """
    import asyncio

    if budget is None:
        return await aexecute_job(job)
    task = asyncio.create_task(aexecute_job(job))
    try:
        return await asyncio.wait_for(task, timeout=budget)
    except (asyncio.TimeoutError, TimeoutError):
        # asyncio.TimeoutError only merged into the builtin on Python
        # 3.11; catch both for 3.10.
        if task.cancelled():
            return None
        raise


async def _aexecute_with_retries(
    job: Job, policy: ResiliencePolicy, batch: int = 0
) -> JobResult:
    """Await :func:`_run_with_retries` on the running event loop.

    ``asyncio.CancelledError`` derives from ``BaseException`` and therefore
    propagates: a cancelled job is abandoned, not retried and not recorded
    as a transient error.
    """
    import asyncio

    return await _run_with_retries(job, policy, batch,
                                   _awaited_attempt, asyncio.sleep)


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


class ThreadExecutor(Executor):
    """Runs jobs on a thread pool (shared memory, any callables allowed)."""

    name = "thread"

    def __init__(self, max_workers: int = 4):
        self.max_workers = max(1, int(max_workers))

    @property
    def workers(self) -> int:
        return self.max_workers

    def map_jobs(self, fn, jobs, *extra):
        from concurrent.futures import ThreadPoolExecutor, as_completed

        with ThreadPoolExecutor(max_workers=self.max_workers) as pool:
            futures = {
                pool.submit(fn, job, *extra): position
                for position, job in enumerate(jobs)
            }
            for future in as_completed(futures):
                yield futures[future], future.result()


class _Pool(Record):
    """The warm pool, with the pid, worker count and registry generation it
    was forked for."""

    pid: int
    workers: int
    generation: int
    executor: ProcessPoolExecutor

    def __init__(self, pid: int, workers: int, generation: int,
                 executor: ProcessPoolExecutor) -> None:
        self.__dict__.update(pid=pid, workers=workers, generation=generation,
                             executor=executor)


#: The process backend's one pool per process, shared by every process
#: batch and replaced when a worker dies, the worker count changes or the
#: target registry changes.  Its workers outlive campaigns, so their plan
#: caches, VM bindings and stand pools stay warm.  The owner pid keeps a
#: forked child off the pool it inherited, whose manager thread lives in
#: the parent only.  The standard library shuts the pool down at exit, and
#: :func:`_drop_pool` frees it before the interpreter clears modules.
_POOL_LOCK = threading.Lock()
_POOL: _Pool | None = None

#: Bumped by every registration change in :mod:`repro.targets`.  Workers
#: look composed targets up by name in the registry copy they forked with,
#: so a pool forked at an older generation must not serve a batch.
_registry_generation = 0


def registry_changed() -> None:
    """Make the next process batch replace a pool forked before this call."""
    global _registry_generation
    with _POOL_LOCK:
        _registry_generation += 1


def _fresh_pool_lock() -> None:
    # A child forked while a batch held the lock (pool workers fork inside
    # ``submit``) must not inherit it held.
    global _POOL_LOCK
    _POOL_LOCK = threading.Lock()


def _drop_pool() -> None:
    # Runs after the standard library has joined the pool's threads and
    # before module teardown, during which the pool's weakref callback may
    # find ``concurrent.futures.process`` already cleared and print a
    # traceback.
    global _POOL
    _POOL = None


os.register_at_fork(after_in_child=_fresh_pool_lock)
atexit.register(_drop_pool)


def _warm_pool(workers: int) -> ProcessPoolExecutor:
    """This process's pool of *workers* workers; the caller holds the lock."""
    from concurrent.futures import ProcessPoolExecutor

    global _POOL
    pid = os.getpid()
    if _POOL is not None and _POOL.pid == pid:
        if (_POOL.workers, _POOL.generation) == (workers, _registry_generation):
            return _POOL.executor
        # Chunks other batches already submitted still run to completion.
        _POOL.executor.shutdown(wait=False)
    _POOL = _Pool(pid, workers, _registry_generation,
                  ProcessPoolExecutor(max_workers=workers))
    return _POOL.executor


def _retire_pool(executor: ProcessPoolExecutor) -> None:
    """Drop a broken pool: the next batch or redelivery gets a fresh one.

    A broken pool has already terminated its workers, so waiting for its
    manager thread is quick, and the fresh pool then forks from a process
    without the old pool's threads.
    """
    global _POOL
    with _POOL_LOCK:
        if _POOL is not None and _POOL.executor is executor:
            _POOL = None
    executor.shutdown(wait=True)


def _produced(position: int, job_result: JobResult,
              batch: WorkerBatch) -> tuple:
    """What a worker sends home for one job: ``(position, result, attempts,
    error, wall_time)``.  The parent holds the job and its script already,
    so the result travels without its script and names each of its
    actions by position in that script (see
    :mod:`repro.teststand.transport`)."""
    result = job_result.result
    if result is not None:
        batch.send_home(result)
    return (position, result, job_result.attempts, job_result.error,
            job_result.wall_time)


def _run_job_chunk(
    token: tuple[int, int],
    head: bytes,
    blobs: dict[int, bytes],
    jobs: bytes,
    profile: bool = False,
    redelivered: bool = False,
) -> tuple[list[tuple], dict | None, dict | None]:
    """Worker-side chunk runner: execute every job of one chunk in order.

    The first four arguments are a :meth:`Shipment.payload
    <repro.teststand.transport.Shipment.payload>`: the worker opens its
    copy of the batch *token* (made from *head* at the batch's first chunk
    here) and unpickles the chunk's jobs against it.  Returns the
    :func:`_produced` tuple of every job, in chunk order.

    With ``profile`` the worker's process-global profiler and plan-cache
    statistics are measured across the chunk and the *deltas* ship back
    with the results - workers are reused across chunks, so absolute
    counters would double-count - for the parent to merge.  Without it
    both extra slots are ``None`` and nothing is measured.

    ``redelivered`` marks a chunk resubmitted after the pool died mid-batch;
    any chaos policy riding in the batch's extra arguments has its worker
    kills stripped, in a copy for this chunk (the batch keeps its own), so
    a deterministic kill schedule cannot starve the batch by killing the
    respawned worker at the same call forever.

    The worker serves other batches before and after this one, so the
    chunk starts from a clean slate: a chaos policy that an earlier chunk's
    :func:`~repro.chaos.begin_job` installed (or the worker inherited at
    fork) is uninstalled, so a clean batch keeps the zero-cost
    ``chaos.ACTIVE is None`` path, and the profiler follows ``profile``.
    """
    from .transport import open_batch

    batch = open_batch(token, head)
    chunk = batch.jobs(jobs, blobs)
    fn, extra = batch.fn, batch.extra
    if redelivered:
        extra = tuple(
            arg.without_worker_kill() if isinstance(arg, ResiliencePolicy) else arg
            for arg in extra
        )
    chaos_mod.uninstall()
    PROFILER.enabled = profile
    if profile:
        PROFILER.reset()
        stats_before = GLOBAL_PLAN_CACHE.stats.snapshot()
    produced = [_produced(position, fn(job, *extra), batch)
                for position, job in chunk]
    if not profile:
        return produced, None, None
    stats_after = GLOBAL_PLAN_CACHE.stats.snapshot()
    stats_delta = {
        name: stats_after[name] - stats_before.get(name, 0)
        for name in stats_after
    }
    return produced, PROFILER.snapshot(), stats_delta


def _unpicklable(exc: Exception) -> ReproError:
    return ReproError(
        "the process backend requires picklable jobs "
        "(module-level factories); use the thread backend for "
        f"closures ({exc})"
    )


class ProcessExecutor(Executor):
    """Runs jobs on a warm process pool (true parallelism, picklable jobs only).

    The pool belongs to the process, not to the batch: it is created by the
    first process batch and reused by every later one, so campaign after
    campaign runs on workers whose plan caches, VM bindings and stand pools
    are already warm (stand factories compare by value, so a new campaign's
    factory finds the stand an earlier one pooled).  A batch whose worker
    died replaces the pool and redelivers its unfinished chunks; a batch
    with another worker count, or the first batch after a target
    registration changed, replaces it too.  A forked child builds its own
    pool, and the standard library shuts the pool down at interpreter exit.

    Jobs are dispatched in *chunks* rather than one future per job, and a
    batch's shared inputs are pickled **once per batch**
    (:class:`~repro.teststand.transport.Shipment`): each distinct script,
    signal set and factory, the job function and the resilience policy.
    Each chunk carries the pickled shared objects its jobs use plus its own
    jobs' small fields, so it runs anywhere from its payload alone.  A
    worker unpickles a batch's shared objects at the first chunk that needs
    them and keeps its last few batches, so every chunk it serves of a
    batch runs the same script objects against the same signal set: per
    batch it computes one plan fingerprint and one action index per
    script, and one VM signal check per program.  (A chunk of three jobs
    usually holds three different scripts, so a worker that unpickled
    every chunk afresh fingerprinted nearly every job's script.)  The
    return trip carries only what the worker produced: each result
    without its script and with each action named by its position in that
    script, plus attempts, error and wall time; the parent re-attaches its
    own job, script and actions.

    ``chunk_size=None`` (the default) picks ``ceil(n / (workers * 4))``
    capped at 32 - large enough to amortise the IPC, small enough to keep
    all workers busy and completion streaming reasonably live.
    """

    name = "process"

    def __init__(self, max_workers: int = 4, *, chunk_size: int | None = None):
        self.max_workers = max(1, int(max_workers))
        if chunk_size is not None and int(chunk_size) < 1:
            raise ConfigurationError(
                f"chunk_size must be >= 1 (or None for automatic), got {chunk_size}"
            )
        self.chunk_size = int(chunk_size) if chunk_size is not None else None

    @property
    def workers(self) -> int:
        return self.max_workers

    def _chunked(self, jobs: Sequence[Job]) -> list[list[tuple[int, Job]]]:
        size = self.chunk_size
        if size is None:
            size = max(1, min(32, math.ceil(len(jobs) / (self.max_workers * 4))))
        indexed = list(enumerate(jobs))
        return [indexed[start:start + size] for start in range(0, len(indexed), size)]

    #: Pool deaths tolerated per batch before giving up: a worker killed
    #: mid-chunk (chaos, OOM, segfault) gets its unfinished chunks
    #: redelivered to a fresh pool this many times.
    MAX_RESPAWNS = 3

    def map_jobs(self, fn, jobs, *extra):
        import pickle
        from concurrent.futures import BrokenExecutor, as_completed

        from .transport import Shipment

        unpicklable = (pickle.PicklingError, TypeError, AttributeError,
                       ImportError)
        jobs = tuple(jobs)
        try:
            # Everything is pickled before the pool is touched, so jobs
            # that do not pickle leave the warm pool as it was.
            shipment = Shipment(fn, jobs, extra)
            remaining = [(chunk_id, shipment.payload(chunk))
                         for chunk_id, chunk in enumerate(self._chunked(jobs))]
        except unpicklable as exc:
            raise _unpicklable(exc) from exc
        profile = PROFILER.enabled
        redelivery = False
        respawns = self.MAX_RESPAWNS
        while remaining:
            finished: set[int] = set()
            futures = {}
            try:
                # Submitting under the lock keeps another thread's batch
                # from replacing the pool between lease and submit.
                with _POOL_LOCK:
                    pool = _warm_pool(self.max_workers)
                    for chunk_id, payload in remaining:
                        futures[pool.submit(_run_job_chunk, *payload,
                                            profile, redelivery)] = chunk_id
                for future in as_completed(futures):
                    produced, phases, stats_delta = future.result()
                    # Fold the worker-side phase times and plan-cache
                    # counters in so --profile sees through the pool.
                    if phases:
                        PROFILER.merge(phases)
                    if stats_delta:
                        GLOBAL_PLAN_CACHE.merge_stats(stats_delta)
                    finished.add(futures[future])
                    for position, result, attempts, error, wall_time in produced:
                        job = jobs[position]
                        if result is not None:
                            shipment.restore(result, job.script)
                        yield position, JobResult(job, result, attempts,
                                                  error, wall_time)
                remaining = []
            except BrokenExecutor as exc:
                # A worker process died mid-batch.  Replace the pool and
                # redeliver only the chunks that never completed; results
                # already yielded stay yielded, so the aggregate is intact.
                _retire_pool(pool)
                respawns -= 1
                if respawns < 0:
                    raise ReproError(
                        "the process pool kept dying; gave up after "
                        f"{self.MAX_RESPAWNS} respawns ({exc})"
                    ) from exc
                remaining = [
                    (chunk_id, payload) for chunk_id, payload in remaining
                    if chunk_id not in finished
                ]
                redelivery = True
            except unpicklable as exc:
                # A worker that cannot rebuild what the parent pickled.
                raise _unpicklable(exc) from exc
            finally:
                # The pool outlives this batch: a caller that stopped early
                # (or an error) leaves no chunk of it queued there.
                for future in futures:
                    future.cancel()


class AsyncExecutor(Executor):
    """Runs jobs concurrently on one worker's asyncio event loop.

    Where the thread and process backends buy wall clock with more workers,
    the async backend buys it with *waiting better*: every job awaits its
    instrument I/O (:func:`aexecute_job`), so while one latency-simulated
    stand's command round-trip is in flight the loop advances other jobs.
    ``concurrency`` bounds how many jobs may be in flight at once — the
    number of slow stands one worker is allowed to keep busy; it is a
    multiplex width, not a worker count (:attr:`workers` stays ``1``).

    The whole batch runs to completion inside one ``asyncio.run`` call,
    then streams out in completion order; the backend therefore cannot be
    used from code that is already inside a running event loop.
    """

    name = "async"
    is_async = True

    def __init__(self, concurrency: int = DEFAULT_ASYNC_CONCURRENCY):
        self.concurrency = max(1, int(concurrency))

    @property
    def workers(self) -> int:
        return 1

    def __repr__(self) -> str:
        return f"AsyncExecutor(concurrency={self.concurrency})"

    def map_jobs(self, fn, jobs, *extra):
        import asyncio

        try:
            asyncio.get_running_loop()
        except RuntimeError:
            pass
        else:
            raise ReproError(
                "the async backend manages its own event loop; run_jobs must "
                "be called from synchronous code (or await aexecute_job "
                "directly inside your own loop)"
            )
        yield from asyncio.run(self._drain(fn, tuple(jobs), extra))

    async def _drain(
        self, fn: Callable[..., "asyncio.Future[JobResult]"], jobs: Sequence[Job], extra
    ) -> list[tuple[int, JobResult]]:
        import asyncio

        semaphore = asyncio.Semaphore(self.concurrency)
        completed: list[tuple[int, JobResult]] = []

        async def _one(position: int, job: Job) -> None:
            async with semaphore:
                completed.append((position, await fn(job, *extra)))

        await asyncio.gather(*(_one(p, j) for p, j in enumerate(jobs)))
        return completed


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
        return ThreadExecutor(max_workers=jobs)
    if backend == "process":
        return ProcessExecutor(max_workers=jobs)
    if backend == "async":
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
    job_fn = _aexecute_with_retries if executor.is_async else _execute_with_retries
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

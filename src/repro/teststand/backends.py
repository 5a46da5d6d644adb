"""The thread and async backends.

:func:`~repro.teststand.executor.make_executor` imports this module when a
batch asks for one of them, so a serial campaign never compiles it, and
:mod:`repro.teststand.executor` resolves its names on first use.  The
process backend lives with its transport in
:mod:`repro.teststand.transport`.

The thread backend runs the blocking driver of the executor's one retry
loop on a thread pool.  The async backend runs the awaiting driver: it
awaits each job's instrument I/O, so one event loop multiplexes up to
``concurrency`` slow stands.
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..core.errors import ReproError
from .executor import (
    DEFAULT_ASYNC_CONCURRENCY,
    Executor,
    Job,
    JobResult,
    ResiliencePolicy,
    _interpreter_for,
    _lease_stand,
    _return_stand,
    _run_with_retries,
)
from .verdict import TestResult

__all__ = ["ThreadExecutor", "AsyncExecutor", "aexecute_job"]


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


# ---------------------------------------------------------------------------
# The async backend
# ---------------------------------------------------------------------------

async def aexecute_job(job: Job) -> TestResult:
    """Build a fresh (ECU, harness) interpreter, lease a stand, await once.

    The awaitable twin of :func:`~repro.teststand.executor.execute_job`:
    instrument I/O goes through
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
    """Await :func:`~repro.teststand.executor._run_with_retries` on the
    running event loop.

    ``asyncio.CancelledError`` derives from ``BaseException`` and therefore
    propagates: a cancelled job is abandoned, not retried and not recorded
    as a transient error.
    """
    import asyncio

    return await _run_with_retries(job, policy, batch,
                                   _awaited_attempt, asyncio.sleep)


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

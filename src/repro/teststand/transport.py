"""The process backend, and how its batches travel: shared inputs once,
results by reference.

:class:`ProcessExecutor` runs jobs on one warm process pool per process.
:func:`~repro.teststand.executor.make_executor` imports this module when a
batch asks for the process backend, so a serial campaign never compiles
it (nor imports ``pickle``), and :mod:`repro.teststand.executor` resolves
``ProcessExecutor`` on first use.

The jobs of a campaign share a few large objects: each distinct script,
the signal set, the stand / harness / ECU factories.  A :class:`Shipment`
(the parent's side of one batch) pickles each of them once, into a blob
of its own, and the job function with its extra arguments into one more.
A chunk's payload is those blobs for the objects its jobs use, plus its
own jobs pickled with a ``persistent_id`` that names each shared object by
its slot; its size depends on the chunk, not on the batch.

A worker keeps the batches it served last (:func:`open_batch`), keyed by
a token unique to the batch: the parent's pid and a counter.  It unpickles
each shared object at the first chunk that needs it, so every chunk it
serves of that batch runs the same script object (one plan fingerprint,
one action index) against the same signal set (one VM signal check).
Any chunk still runs from its own payload alone, on a worker that never
saw the batch.  Batches are never matched by script identity, name or
content: a batch's signal sets and factories are its own as much as its
scripts are, and the next batch may ship other ones under the same
names, so each batch ships its own copy.

On the way home each action result names its action by position in the
job's script (setup first, then each step's actions), matched by exact
spelling: signal, method, and parameters in insertion order.  The parent
puts its own script's :class:`~repro.core.script.SignalAction` back in
that position; an action not found in the script travels whole.
"""

from __future__ import annotations

import atexit
import io
import itertools
import math
import os
import pickle
import threading
from collections import OrderedDict
from typing import Callable, Sequence

from .. import chaos as chaos_mod
from .._record import Record
from ..core.errors import ConfigurationError, ReproError
from ..core.script import SignalAction, TestScript
from . import executor as executor_mod
from .executor import Executor, Job, JobResult, ResiliencePolicy
from .plan import GLOBAL_PLAN_CACHE
from .profiling import PROFILER
from .verdict import TestResult

__all__ = [
    "ProcessExecutor", "Shipment", "WorkerBatch", "open_batch",
    "WORKER_BATCHES",
]

#: How many batches one worker keeps.
WORKER_BATCHES = 4

_TOKENS = itertools.count(1)

#: This worker's batches, least recently served first.
_BATCHES: OrderedDict[tuple[int, int], "WorkerBatch"] = OrderedDict()


def _script_actions(script: TestScript) -> tuple[SignalAction, ...]:
    actions = list(script.setup)
    for step in script.steps:
        actions.extend(step.actions)
    return tuple(actions)


def _spelling(action: SignalAction) -> tuple:
    # Not ``SignalAction ==``: that ignores method case and parameter
    # order, and a worker's cached programs hold action objects of an
    # earlier script.
    call = action.call
    return (action.signal, call.method, tuple(call.params.items()))


class _SlotPickler(pickle.Pickler):
    """Pickles a chunk's jobs, naming each shared object by its slot."""

    def __init__(self, file, slots: dict[int, int]):
        super().__init__(file, pickle.HIGHEST_PROTOCOL)
        self._slots = slots
        self.used: set[int] = set()

    def persistent_id(self, obj):
        slot = self._slots.get(id(obj))
        if slot is not None:
            self.used.add(slot)
        return slot


class _SlotUnpickler(pickle.Unpickler):
    def __init__(self, data: bytes, batch: "WorkerBatch", blobs: dict[int, bytes]):
        super().__init__(io.BytesIO(data))
        self._batch = batch
        self._blobs = blobs

    def persistent_load(self, slot: int):
        return self._batch.shared(slot, self._blobs)


class Shipment:
    """The parent's side of one process batch.

    Slots are keyed by object id: the caller keeps the batch's jobs, and
    so every shared object, alive while it uses the shipment.
    """

    def __init__(self, fn: Callable, jobs: Sequence, extra: tuple):
        self.token = (os.getpid(), next(_TOKENS))
        self.head = pickle.dumps((fn, extra), pickle.HIGHEST_PROTOCOL)
        self._slots: dict[int, int] = {}
        self._blobs: list[bytes] = []
        #: Each distinct script's actions, by position, keyed by its id.
        self._actions: dict[int, tuple[SignalAction, ...]] = {}
        for job in jobs:
            for shared in (job.script, job.signals, job.stand_factory,
                           job.harness_factory, job.ecu_factory):
                if id(shared) not in self._slots:
                    self._slots[id(shared)] = len(self._blobs)
                    self._blobs.append(
                        pickle.dumps(shared, pickle.HIGHEST_PROTOCOL))
            if id(job.script) not in self._actions:
                self._actions[id(job.script)] = _script_actions(job.script)

    def payload(self, chunk: list) -> tuple:
        """``(token, head, blobs, jobs)`` of one chunk: all a worker needs."""
        buffer = io.BytesIO()
        pickler = _SlotPickler(buffer, self._slots)
        pickler.dump(chunk)
        blobs = {slot: self._blobs[slot] for slot in sorted(pickler.used)}
        return self.token, self.head, blobs, buffer.getvalue()

    def restore(self, result: TestResult, script: TestScript) -> None:
        """Give a result that came home its job's script and actions."""
        result.script = script
        actions = self._actions[id(script)]
        for action_result in result.action_results:
            position = action_result.action
            if type(position) is int:
                object.__setattr__(action_result, "action", actions[position])


class WorkerBatch:
    """A worker's copy of one batch: its job function and shared objects."""

    def __init__(self, head: bytes):
        self.fn, self.extra = pickle.loads(head)
        self._shared: dict[int, object] = {}
        #: Action positions of each script, keyed by its id.
        self._positions: dict[int, tuple[TestScript, dict[tuple, int]]] = {}

    def jobs(self, data: bytes, blobs: dict[int, bytes]) -> list:
        """A chunk's ``(position, job)`` pairs."""
        return _SlotUnpickler(data, self, blobs).load()

    def shared(self, slot: int, blobs: dict[int, bytes]):
        if slot not in self._shared:
            self._shared[slot] = pickle.loads(blobs[slot])
        return self._shared[slot]

    def send_home(self, result: TestResult) -> None:
        """Strip *result* for the return trip: no script, and each action
        found in the script named by its position."""
        script = result.script
        entry = self._positions.get(id(script))
        if entry is None or entry[0] is not script:
            positions: dict[tuple, int] = {}
            for position, action in enumerate(_script_actions(script)):
                positions.setdefault(_spelling(action), position)
            entry = self._positions[id(script)] = (script, positions)
        positions = entry[1]
        result.script = None
        for action_result in result.action_results:
            position = positions.get(_spelling(action_result.action))
            if position is not None:
                object.__setattr__(action_result, "action", position)


def open_batch(token: tuple[int, int], head: bytes) -> WorkerBatch:
    """This worker's copy of the batch *token*, made from *head* if new."""
    batch = _BATCHES.get(token)
    if batch is None:
        batch = _BATCHES[token] = WorkerBatch(head)
        while len(_BATCHES) > WORKER_BATCHES:
            _BATCHES.popitem(last=False)
    else:
        _BATCHES.move_to_end(token)
    return batch


# ---------------------------------------------------------------------------
# The warm pool
# ---------------------------------------------------------------------------

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
#: caches and stand pools stay warm.  The owner pid keeps a
#: forked child off the pool it inherited, whose manager thread lives in
#: the parent only.  The standard library shuts the pool down at exit, and
#: :func:`_drop_pool` frees it before the interpreter clears modules.
_POOL_LOCK = threading.Lock()
_POOL: _Pool | None = None


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
    generation = executor_mod._registry_generation
    if _POOL is not None and _POOL.pid == pid:
        if (_POOL.workers, _POOL.generation) == (workers, generation):
            return _POOL.executor
        # Chunks other batches already submitted still run to completion.
        _POOL.executor.shutdown(wait=False)
    _POOL = _Pool(pid, workers, generation,
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


# ---------------------------------------------------------------------------
# The process backend
# ---------------------------------------------------------------------------

def _produced(position: int, job_result: JobResult,
              batch: WorkerBatch) -> tuple:
    """What a worker sends home for one job: ``(position, result, attempts,
    error, wall_time)``.  The parent holds the job and its script already,
    so the result travels without its script and names each of its
    actions by position in that script (see
    :meth:`WorkerBatch.send_home`)."""
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

    The first four arguments are a :meth:`Shipment.payload`: the worker
    opens its copy of the batch *token* (made from *head* at the batch's
    first chunk here) and unpickles the chunk's jobs against it.  Returns the
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
    campaign runs on workers whose plan caches and stand pools
    are already warm (stand factories compare by value, so a new campaign's
    factory finds the stand an earlier one pooled).  A batch whose worker
    died replaces the pool and redelivers its unfinished chunks; a batch
    with another worker count, or the first batch after a target
    registration changed, replaces it too.  A forked child builds its own
    pool, and the standard library shuts the pool down at interpreter exit.

    Jobs are dispatched in *chunks* rather than one future per job, and a
    batch's shared inputs are pickled **once per batch**
    (:class:`Shipment`): each distinct script, signal set and factory, the
    job function and the resilience policy.
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
        from concurrent.futures import BrokenExecutor, as_completed

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

"""Deterministic, seeded infrastructure fault injection ("chaos harness").

The paper argues components must be proven robust *before* they reach the
HiL bench; this module applies the same discipline to the toolchain's own
infrastructure.  A :class:`ChaosPolicy` injects the failures real labs see -
flaky instrument I/O, hung busses, glitched one-shot readings, dying pool
workers, locked result stores, crashing service workers - on a schedule
that is a pure function of ``(seed, job_id, attempt)``, so the exact same
faults fire no matter which backend (serial / thread / process / async)
runs the campaign or in which order jobs are scheduled.

Design rules
------------
* **Zero overhead when off.**  Every hook in the hot path guards on
  ``chaos.ACTIVE is not None`` - a single module-attribute load - before
  doing anything else.  ``tools/bench_trajectory.py`` gates this at <= 2 %.
* **Content-keyed determinism.**  Schedules derive from
  ``random.Random(f"{seed}:{job_id}:{attempt}")`` (CPython seeds strings
  via SHA-512, stable across processes and ``PYTHONHASHSEED``), never from
  wall clock, thread identity, or arrival order.
* **Recoverable by construction.**  With ``faulty_attempts=1`` (the
  default) injected instrument faults fire only on a job's first attempt;
  attempt two runs clean, so a retrying executor produces verdict tables
  byte-identical to an undisturbed run - the chaos parity gate in
  ``tests/test_parity_matrix.py``.
* **Picklable.**  Policies ship to process-pool workers inside the
  executor's ``ResiliencePolicy``; both are frozen dataclasses of plain
  values.

Only one policy is active per process at a time (:func:`install` /
:func:`uninstall`); the executor manages this around ``run_jobs``.
"""

from __future__ import annotations

import contextvars
import multiprocessing
import os
import random
import sqlite3
from dataclasses import dataclass, replace

from .core.errors import ConfigurationError, InstrumentIOError, TransientError

__all__ = [
    "ChaosProfile",
    "ChaosPolicy",
    "PROFILES",
    "ServiceWorkerCrash",
    "install",
    "uninstall",
    "begin_job",
    "end_job",
    "on_instrument_call",
    "on_store_commit",
    "maybe_service_crash",
    "glitched",
]

#: How many of a job's first instrument calls are eligible to host an
#: injection.  The chosen ordinal is drawn from ``range(FAULT_WINDOW)``;
#: jobs with fewer calls simply see no fault that attempt.
FAULT_WINDOW = 4

#: Exit code used when chaos kills a process-pool worker, picked to be
#: recognisable in executor logs (mirrors BSD's EX_SOFTWARE).
WORKER_KILL_EXIT_CODE = 70


class ServiceWorkerCrash(TransientError):
    """Injected crash of the :class:`~repro.service.CampaignService` worker.

    Raised *between* jobs (before the queue is polled) so no submitted job
    is ever lost; the service's supervisor loop catches it, bumps
    ``worker_restarts`` and re-enters the work loop.
    """


@dataclass(frozen=True)
class ChaosProfile:
    """Fault rates for one chaos personality.

    All rates are probabilities in ``[0, 1]`` evaluated once per
    ``(job, attempt)`` schedule (instrument faults) or once per event
    (store commits, service loop iterations).
    """

    instrument_fault_rate: float = 0.0
    instrument_hang_rate: float = 0.0
    instrument_hang_seconds: float = 0.05
    glitch_rate: float = 0.0
    worker_kill_rate: float = 0.0
    store_fail_rate: float = 0.0
    service_crash_rate: float = 0.0
    #: Attempts (counted from 1) on which instrument faults, glitches and
    #: worker kills may fire.  1 keeps every injection recoverable by a
    #: single retry; raise it to exhaust retry budgets on purpose.
    faulty_attempts: int = 1


#: Named personalities for the CLI's ``--chaos-profile`` and for tests.
PROFILES: dict[str, ChaosProfile] = {
    # Recoverable-only: transient I/O faults on first attempts.  This is
    # the profile the chaos parity gate runs - verdicts must match a
    # clean run byte-for-byte.
    "flaky-instruments": ChaosProfile(instrument_fault_rate=0.8),
    # Latency-only: every job's schedule hangs one instrument call.
    # Verdict-neutral; used to stretch runs (e.g. to SIGKILL them midway).
    "slow-instruments": ChaosProfile(
        instrument_hang_rate=1.0, instrument_hang_seconds=0.05
    ),
    # Process-pool workers die mid-job; the executor must respawn the
    # pool and redeliver unfinished chunks.
    "fragile-workers": ChaosProfile(worker_kill_rate=0.5),
    # Store commits fail with one-shot "database is locked" errors that
    # the bounded write retry must absorb.
    "flaky-store": ChaosProfile(store_fail_rate=0.5),
    # Everything at once.  Not recoverable (glitches flip verdicts);
    # for soak tests, not parity gates.
    "murphy": ChaosProfile(
        instrument_fault_rate=0.4,
        instrument_hang_rate=0.1,
        instrument_hang_seconds=0.02,
        glitch_rate=0.1,
        worker_kill_rate=0.2,
        store_fail_rate=0.3,
        service_crash_rate=0.5,
    ),
}


class _JobChaos:
    """Pre-drawn fault schedule for one ``(job_id, attempt)``.

    The constructor consumes the seeded RNG in a fixed order so the
    schedule is a pure function of the key; afterwards the instance is a
    cursor over the job's instrument-call ordinals.
    """

    __slots__ = ("calls", "fault_call", "hang_call", "hang_seconds", "glitch_call", "kill_call")

    def __init__(self, policy: "ChaosPolicy", job_id: str, attempt: int, *, allow_kill: bool = True):
        rng = random.Random(f"{policy.seed}:{job_id}:{attempt}")
        profile = policy.profile
        faulty = attempt <= profile.faulty_attempts
        self.calls = 0
        self.fault_call = (
            rng.randrange(FAULT_WINDOW)
            if faulty and rng.random() < profile.instrument_fault_rate
            else -1
        )
        self.hang_call = (
            rng.randrange(FAULT_WINDOW)
            if rng.random() < profile.instrument_hang_rate
            else -1
        )
        self.hang_seconds = profile.instrument_hang_seconds
        self.glitch_call = (
            rng.randrange(FAULT_WINDOW)
            if faulty and rng.random() < profile.glitch_rate
            else -1
        )
        self.kill_call = (
            rng.randrange(FAULT_WINDOW)
            if allow_kill and faulty and rng.random() < profile.worker_kill_rate
            else -1
        )

    def next_call(self) -> tuple[float, bool]:
        """Advance the call cursor; fault, kill, or return (hang, glitch)."""
        ordinal = self.calls
        self.calls = ordinal + 1
        if ordinal == self.kill_call and multiprocessing.parent_process() is not None:
            # Simulates a segfaulting pool worker.  Only ever fires inside
            # a child process; the parent's executor must recover.
            os._exit(WORKER_KILL_EXIT_CODE)
        if ordinal == self.fault_call:
            raise InstrumentIOError(
                f"chaos: injected instrument I/O fault (call #{ordinal})"
            )
        hang = self.hang_seconds if ordinal == self.hang_call else 0.0
        return hang, ordinal == self.glitch_call


@dataclass(frozen=True)
class ChaosPolicy:
    """A seed plus a :class:`ChaosProfile`; the whole injection config."""

    seed: int = 0
    profile: ChaosProfile = ChaosProfile()
    profile_name: str = ""

    @classmethod
    def from_profile(cls, name: str, seed: int = 0) -> "ChaosPolicy":
        """Build a policy from a named profile in :data:`PROFILES`."""
        try:
            profile = PROFILES[name]
        except KeyError:
            known = ", ".join(sorted(PROFILES))
            raise ConfigurationError(
                f"unknown chaos profile {name!r} (known: {known})"
            ) from None
        return cls(seed=seed, profile=profile, profile_name=name)

    def without_worker_kill(self) -> "ChaosPolicy":
        """Copy with worker kills disabled (for redelivered chunks)."""
        if self.profile.worker_kill_rate == 0.0:
            return self
        return replace(self, profile=replace(self.profile, worker_kill_rate=0.0))

    def schedule_for(self, job_id: str, attempt: int) -> _JobChaos:
        return _JobChaos(self, job_id, attempt)


# --------------------------------------------------------------------------
# Process-global installation.
#
# ``ACTIVE`` is the zero-overhead guard: every hook checks
# ``chaos.ACTIVE is not None`` before touching anything else.  The
# remaining globals are the policy's mutable event state (store / service
# RNG streams and their consecutive-failure caps, which guarantee forward
# progress: injections never starve a bounded retry loop).

ACTIVE: ChaosPolicy | None = None

_STORE_RNG: random.Random | None = None
_STORE_CONSECUTIVE = 0
_STORE_CONSECUTIVE_CAP = 2

_SERVICE_RNG: random.Random | None = None
_SERVICE_CRASHED_LAST = False

#: Per-job schedule for the *current* logical job.  A ``ContextVar`` is
#: naturally per-thread for the thread backend and per-task for the async
#: backend (``asyncio.gather`` gives each job coroutine its own context).
_JOB: contextvars.ContextVar[_JobChaos | None] = contextvars.ContextVar(
    "repro_chaos_job", default=None
)


def install(policy: ChaosPolicy) -> None:
    """Install *policy* as the process-wide active chaos policy.

    Idempotent for the same policy value; installing a different policy
    replaces the previous one (only one campaign's chaos can be active in
    a process at a time).  The executor calls this for the duration of
    ``run_jobs`` and inside pool workers; tests may call it directly.
    """
    global ACTIVE, _STORE_RNG, _STORE_CONSECUTIVE, _SERVICE_RNG, _SERVICE_CRASHED_LAST
    if ACTIVE == policy:
        return
    ACTIVE = policy
    _STORE_RNG = random.Random(f"{policy.seed}:store")
    _STORE_CONSECUTIVE = 0
    _SERVICE_RNG = random.Random(f"{policy.seed}:service")
    _SERVICE_CRASHED_LAST = False


def uninstall() -> None:
    """Remove the active policy; all hooks become no-ops again."""
    global ACTIVE, _STORE_RNG, _SERVICE_RNG
    ACTIVE = None
    _STORE_RNG = None
    _SERVICE_RNG = None


def begin_job(policy: ChaosPolicy, job_id: str, attempt: int) -> contextvars.Token:
    """Enter a job's fault schedule; pairs with :func:`end_job`.

    Also ensure-installs *policy* - pool workers receive the policy via
    the pickled :class:`~repro.teststand.executor.ResiliencePolicy`, not
    via an inherited global.
    """
    install(policy)
    return _JOB.set(policy.schedule_for(job_id, attempt))


def end_job(token: contextvars.Token) -> None:
    _JOB.reset(token)


# --------------------------------------------------------------------------
# Hooks.  Callers guard with ``if chaos.ACTIVE is not None:`` so none of
# these run (or even get called) on the clean path.


def on_instrument_call() -> tuple[float, bool]:
    """One instrument I/O round-trip is about to run.

    Returns ``(hang_seconds, glitch)`` for this call; raises
    :class:`InstrumentIOError` when the schedule says this call faults.
    Outside any job context (no schedule) it is a no-op.
    """
    schedule = _JOB.get()
    if schedule is None:
        return 0.0, False
    return schedule.next_call()


def on_store_commit() -> None:
    """A ``ResultStore`` transaction is about to commit.

    Raises a one-shot ``sqlite3.OperationalError("database is locked")``
    at the configured rate.  At most :data:`_STORE_CONSECUTIVE_CAP`
    consecutive injections fire, so the store's bounded write retry is
    always sufficient to make progress.
    """
    global _STORE_CONSECUTIVE
    policy = ACTIVE
    if policy is None or _STORE_RNG is None:
        return
    rate = policy.profile.store_fail_rate
    if rate <= 0.0:
        return
    if _STORE_CONSECUTIVE >= _STORE_CONSECUTIVE_CAP:
        _STORE_CONSECUTIVE = 0
        return
    if _STORE_RNG.random() < rate:
        _STORE_CONSECUTIVE += 1
        raise sqlite3.OperationalError("database is locked [chaos injection]")
    _STORE_CONSECUTIVE = 0


def maybe_service_crash() -> None:
    """The service worker is between jobs; maybe crash it.

    Raises :class:`ServiceWorkerCrash` at the configured rate, never twice
    in a row (the restarted worker always makes progress).
    """
    global _SERVICE_CRASHED_LAST
    policy = ACTIVE
    if policy is None or _SERVICE_RNG is None:
        return
    rate = policy.profile.service_crash_rate
    if rate <= 0.0:
        return
    if _SERVICE_CRASHED_LAST:
        _SERVICE_CRASHED_LAST = False
        return
    if _SERVICE_RNG.random() < rate:
        _SERVICE_CRASHED_LAST = True
        raise ServiceWorkerCrash("chaos: injected service worker crash between jobs")


def glitched(outcome):
    """Return *outcome* with its verdict flipped and the glitch annotated.

    Models a one-shot corrupted reading that slips past the instrument's
    own checks.  Glitches change verdicts, so they are deliberately absent
    from the recoverable parity profile.
    """
    detail = f"{outcome.detail} [chaos: glitched reading]".strip()
    return replace(outcome, passed=not outcome.passed, detail=detail)

"""Lightweight phase profiling for campaign execution (``--profile``).

When enabled, the interpreter attributes wall-clock time to the
interesting phases of the hot path - the classic walk's resource
**allocation** searches and **instrument I/O** (the virtual instrument call
including its simulated latency), and the runs the bytecode **VM** executes
- and ``repro-campaign --profile`` combines them with the phases it times
itself (job expansion, execution, aggregation) plus the plan-cache
statistics into a per-phase breakdown on stderr.

The profiler is a process-global accumulator guarded by a lock; the serial,
thread and async backends all report into the parent process' instance.
Jobs dispatched to worker *processes* accumulate into the workers' own
instances, which each chunk ships back with its results so the parent can
:meth:`~PhaseProfiler.merge` them - ``--profile`` therefore shows the
allocation / instrument / VM phases under ``--backend process`` too (summed
across workers, so they can exceed the parent's wall clock).

Cost when disabled: one attribute check per action, no locking.
"""

from __future__ import annotations

import threading

__all__ = ["PhaseProfiler", "PROFILER"]


class PhaseProfiler:
    """Accumulates (seconds, call count) per named phase, thread-safely."""

    __slots__ = ("enabled", "_lock", "_seconds", "_calls")

    def __init__(self) -> None:
        self.enabled = False
        self._lock = threading.Lock()
        self._seconds: dict[str, float] = {}
        self._calls: dict[str, int] = {}

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        with self._lock:
            self._seconds.clear()
            self._calls.clear()

    def add(self, phase: str, seconds: float, calls: int = 1) -> None:
        """Attribute *seconds* (and *calls* invocations) to *phase*."""
        with self._lock:
            self._seconds[phase] = self._seconds.get(phase, 0.0) + float(seconds)
            self._calls[phase] = self._calls.get(phase, 0) + int(calls)

    def snapshot(self) -> dict[str, tuple[float, int]]:
        """Phase -> (total seconds, call count), at this instant."""
        with self._lock:
            return {
                phase: (self._seconds[phase], self._calls.get(phase, 0))
                for phase in self._seconds
            }

    def merge(self, snapshot: dict[str, tuple[float, int]]) -> None:
        """Fold another profiler's snapshot (e.g. a worker process's) in."""
        with self._lock:
            for phase, (seconds, calls) in snapshot.items():
                self._seconds[phase] = self._seconds.get(phase, 0.0) + float(seconds)
                self._calls[phase] = self._calls.get(phase, 0) + int(calls)


#: Process-global profiler instance the interpreter reports into.
PROFILER = PhaseProfiler()

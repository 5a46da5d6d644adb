"""A small discrete-event kernel used by the behavioural ECU models.

ECU behaviour is dominated by timers (the paper's interior illumination
switches off after 300 s; wipers run interval cycles; locks re-arm after a
timeout).  The kernel is a classic time-ordered event queue: callbacks are
scheduled at absolute simulated times and executed in order when the clock
is advanced.  Ties are broken by insertion order so behaviour is fully
deterministic, which the property-based tests rely on.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable

from ..core.errors import ReproError

__all__ = ["Event", "EventScheduler"]


class SchedulerError(ReproError):
    """Raised for misuse of the event scheduler (e.g. scheduling in the past)."""


class Event:
    """Handle for one scheduled callback; can be cancelled before it fires."""

    __slots__ = ("time", "name", "_callback", "_cancelled", "_fired")

    def __init__(self, time: float, callback: Callable[[], None], name: str = ""):
        self.time = float(time)
        self.name = name
        self._callback = callback
        self._cancelled = False
        self._fired = False

    def cancel(self) -> None:
        """Prevent the event from firing (no-op if it already fired)."""
        self._cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    @property
    def fired(self) -> bool:
        return self._fired

    @property
    def pending(self) -> bool:
        """True while the event is still going to fire."""
        return not self._cancelled and not self._fired

    def _fire(self) -> None:
        if self._cancelled or self._fired:
            return
        self._fired = True
        self._callback()

    def __repr__(self) -> str:
        state = "cancelled" if self._cancelled else ("fired" if self._fired else "pending")
        return f"Event(t={self.time}, name={self.name!r}, {state})"


class EventScheduler:
    """Time-ordered event queue with an explicit simulated clock."""

    def __init__(self, start_time: float = 0.0):
        self._now = float(start_time)
        # Heap of ``(time, sequence, event)``: the sequence number is unique,
        # so ties on time fall back to insertion order and events are never
        # compared.
        self._queue: list[tuple[float, int, Event]] = []
        self._counter = itertools.count()

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def pending_count(self) -> int:
        """Number of events still waiting to fire (excluding cancelled ones)."""
        return sum(1 for _, _, event in self._queue if event.pending)

    def schedule_at(self, time: float, callback: Callable[[], None], *, name: str = "") -> Event:
        """Schedule *callback* at absolute simulated time *time*."""
        if time < self._now:
            raise SchedulerError(
                f"cannot schedule event at {time} before current time {self._now}"
            )
        event = Event(time, callback, name)
        heapq.heappush(self._queue, (event.time, next(self._counter), event))
        return event

    def schedule_in(self, delay: float, callback: Callable[[], None], *, name: str = "") -> Event:
        """Schedule *callback* after *delay* seconds of simulated time."""
        if delay < 0:
            raise SchedulerError(f"delay must be non-negative, got {delay}")
        return self.schedule_at(self._now + delay, callback, name=name)

    def next_event_time(self) -> float | None:
        """Time of the earliest pending event, or ``None`` when idle."""
        while self._queue and not self._queue[0][2].pending:
            heapq.heappop(self._queue)
        if not self._queue:
            return None
        return self._queue[0][0]

    def advance_to(self, time: float) -> int:
        """Advance the clock to *time*, firing every due event in order.

        Returns the number of events fired.  The clock never moves backwards;
        advancing to an earlier time is a no-op.
        """
        if time < self._now:
            return 0
        fired = 0
        while True:
            next_time = self.next_event_time()
            if next_time is None or next_time > time:
                break
            entry_time, _, event = heapq.heappop(self._queue)
            # The clock moves to the event's time before the callback runs so
            # that callbacks scheduling follow-up events see a consistent now.
            self._now = max(self._now, entry_time)
            event._fire()
            fired += 1
        self._now = max(self._now, float(time))
        return fired

    def cancel_all(self) -> None:
        """Cancel every pending event (used on ECU reset)."""
        for _, _, event in self._queue:
            event.cancel()
        self._queue.clear()

    def __repr__(self) -> str:
        return f"EventScheduler(now={self._now}, pending={self.pending_count})"

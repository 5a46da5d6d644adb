"""Host-speed probes: scale measured times to a reference host speed.

The benchmark runs on shared hosts whose speed drifts by up to 1.5x in
phases lasting seconds to minutes, far longer than anything a run can
average away.  A run's times follow the host's phase more than the
program.  So the benchmark times fixed probes of its own before every op:

* a *busy* probe, for how fast the host runs the op's kind of work: a
  pure-Python kernel (object allocation, string keys, dict lookups, float
  arithmetic, a keyed sort) for in-process ops, or a bare interpreter
  start for ops that are fresh processes;
* a 4 KiB write plus ``fsync`` of a file in the work directory, for how
  fast the disk makes data durable.

Every timed stretch is split into *busy* time (CPU seconds of this
process and of the children it reaped, at most the wall) and *waiting*
time (the rest of the wall).  Busy time is scaled by
``reference / busy probe time``, with the probe timed just before the
stretch, because the host can change phase within a run; waiting time
is scaled by ``IO_REFERENCE_S / mean fsync time`` of the run: the mean,
because an op's waiting is a sum over many commits, and in the disk's
busy phases the tail of its latency grows far more than its median.  The
result is what the stretch would have taken on a host where the probes
take the reference times.  No probe is program code, so a change to the
program moves the scaled time as it moves the measured busy and waiting
times.
"""

from __future__ import annotations

import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["KERNEL_REFERENCE_S", "SPAWN_REFERENCE_S", "IO_REFERENCE_S",
           "HostProbe", "Stopwatch", "Stretch", "cpu_seconds", "kernel"]

#: Seconds one :func:`kernel` call takes on the reference host: about
#: what it takes on a 2-vCPU VM at its quicker phases.
KERNEL_REFERENCE_S = 0.001
#: Seconds one bare interpreter start takes on the reference host.
SPAWN_REFERENCE_S = 0.05
#: Seconds one probe write plus ``fsync`` takes on the reference host.
IO_REFERENCE_S = 0.0003

#: Kernel calls per :meth:`HostProbe.sample`.
KERNEL_CALLS = 2
#: The bare interpreter start of the spawn probe.
SPAWN_ARGV = (sys.executable, "-c", "pass")

_SIZE = 800
_BLOCK = b"\xa5" * 4096


class _Item:
    __slots__ = ("value", "key")

    def __init__(self, value: float, key: str) -> None:
        self.value = value
        self.key = key


def kernel(size: int = _SIZE) -> float:
    """A fixed amount of interpreter work; returns a checksum."""
    index: dict[str, _Item] = {}
    items = []
    for i in range(size):
        item = _Item(i * 0.5, str(i))
        items.append(item)
        index[item.key] = item
    total = 0.0
    for i in range(size):
        value = index[str((i * 7) % size)].value
        total += value * 1.0001 - value / 3.0
    items.sort(key=lambda item: -item.value)
    return total + len(",".join(item.key for item in items[:200]))


def cpu_seconds() -> float:
    """CPU seconds of this process and of every child it has reaped."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


@dataclass(frozen=True)
class Stretch:
    """Wall and CPU seconds of one timed stretch."""

    wall: float
    cpu: float

    @property
    def busy(self) -> float:
        return min(self.cpu, self.wall)

    @property
    def waiting(self) -> float:
        return self.wall - self.busy


class Stopwatch:
    """Times one stretch: ``with Stopwatch() as watch: ...; watch.stretch``."""

    def __enter__(self) -> "Stopwatch":
        self._cpu = cpu_seconds()
        self._wall = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        wall = time.perf_counter() - self._wall
        self.stretch = Stretch(wall, cpu_seconds() - self._cpu)


@dataclass
class HostProbe:
    """Probe samples of one run, and the scaling they give.

    With *spawn* set, the busy probe is a bare interpreter start instead
    of the kernel.
    """

    work_dir: Path
    spawn: bool = False
    busy_s: list[float] = field(default_factory=list)
    fsync_s: list[float] = field(default_factory=list)

    @property
    def path(self) -> Path:
        return self.work_dir / f"probe-{os.getpid()}.bin"

    @property
    def busy_reference_s(self) -> float:
        return SPAWN_REFERENCE_S if self.spawn else KERNEL_REFERENCE_S

    def _busy_probe(self) -> float:
        start = time.perf_counter()
        if self.spawn:
            subprocess.run(SPAWN_ARGV, check=True, capture_output=True,
                           timeout=60)
            return time.perf_counter() - start
        for _ in range(KERNEL_CALLS):
            kernel()
        return (time.perf_counter() - start) / KERNEL_CALLS

    def sample(self) -> float:
        """Time both probes once; returns the busy probe's seconds."""
        busy = self._busy_probe()
        self.busy_s.append(busy)
        fd = os.open(self.path, os.O_WRONLY | os.O_CREAT, 0o644)
        try:
            start = time.perf_counter()
            os.pwrite(fd, _BLOCK, 0)
            os.fsync(fd)
            self.fsync_s.append(time.perf_counter() - start)
        finally:
            os.close(fd)
        return busy

    @property
    def busy_scale(self) -> float:
        return self.busy_reference_s / statistics.median(self.busy_s)

    @property
    def io_scale(self) -> float:
        return IO_REFERENCE_S / statistics.fmean(self.fsync_s)

    def scaled(self, stretch: Stretch, busy_s: float | None = None) -> float:
        """*stretch*'s wall seconds on the reference host.

        *busy_s* is what :meth:`sample` returned just before the stretch;
        without it, busy time is scaled by the run's median.
        """
        busy_scale = (self.busy_scale if busy_s is None
                      else self.busy_reference_s / busy_s)
        return stretch.busy * busy_scale + stretch.waiting * self.io_scale

    def close(self) -> None:
        self.path.unlink(missing_ok=True)

"""Virtual instrument framework.

A test stand *resource* (the paper's term) is an instrument that supports a
set of methods within parameter ranges: *"Ressources in this context are
described by the methods that are supported by them and the valid range for
all parameters."*  This module defines

:class:`Capability`
    one row of the paper's resource table: a supported method, its principal
    attribute, the valid min/max range and the unit,
:class:`Instrument`
    the base class all virtual instruments derive from.  An instrument knows
    how to *perform* the methods it supports against a
    :class:`~repro.dut.harness.TestHarness`.

Instruments are intentionally unaware of signals, sheets or XML - they see
only pins and parameter values, which is what keeps the execution side of
the tool chain independent from the definition side.

Every instrument also carries a *latency model*: ``io_delay`` is the real
wall-clock cost of one method call (command round-trip over GPIB / USB /
SCPI on a physical stand).  It defaults to ``0`` so the purely virtual
stands stay fast, but a latency-simulated stand sets it to a few
milliseconds per call - which is exactly the workload the ``async``
execution backend multiplexes: subclasses implement the pure computation in
:meth:`Instrument._perform`, and :meth:`Instrument.round_trip` wraps it as a
*generator core* that yields every wall-clock wait instead of sleeping.

This is the lowest layer that waits, so the two drivers of every generator
core in the execution path live here: :func:`drive` sleeps through each
yielded wait (serial / thread / process backends) and :func:`adrive` awaits
it (the async backend).  The interpreter and the bytecode VM write their
run loops once, as generator cores, and hand them to one driver or the
other.
"""

from __future__ import annotations

import abc
import math
import time
from typing import Callable, Generator, Mapping, Sequence, TypeVar

from .. import chaos as _chaos
from .._record import Record
from ..core.errors import CapabilityError, InstrumentError
from ..core.signals import Signal
from ..core.script import MethodCall
from ..core.values import Interval, format_number
from ..dut.harness import TestHarness
from ..methods import MethodOutcome

__all__ = ["Capability", "Instrument", "drive", "adrive"]

_T = TypeVar("_T")

#: A generator core: yields wall-clock waits in seconds, returns its result.
Core = Generator[float, None, _T]


def drive(core: Core[_T]) -> _T:
    """Run a generator *core* to completion, sleeping through each wait."""
    try:
        while True:
            try:
                seconds = next(core)
            except StopIteration as done:
                return done.value
            time.sleep(seconds)
    finally:
        # Only does work when the sleep itself raised (an interrupt): the
        # core then unwinds at its yield instead of whenever it is freed.
        core.close()


async def adrive(core: Core[_T]) -> _T:
    """Run a generator *core* to completion, awaiting each wait.

    ``await asyncio.sleep`` yields the event loop while the (simulated)
    wait is in flight, which is what lets one async worker drive many slow
    stands at once.  A cancelled task raises ``CancelledError`` here, at
    the await, and the core unwinds at its yield.
    """
    import asyncio

    try:
        while True:
            try:
                seconds = next(core)
            except StopIteration as done:
                return done.value
            await asyncio.sleep(seconds)
    finally:
        core.close()


class Capability(Record):
    """One supported method with its valid parameter range."""

    method: str
    attribute: str
    minimum: float
    maximum: float
    unit: str = ""

    def __init__(self, method: str, attribute: str, minimum: float,
                 maximum: float, unit: str = "") -> None:
        if minimum > maximum:
            raise InstrumentError(
                f"capability {method!r}: minimum {minimum} exceeds "
                f"maximum {maximum}"
            )
        self.__dict__.update(method=method, attribute=attribute,
                             minimum=minimum, maximum=maximum, unit=unit)

    @property
    def range(self) -> Interval:
        """Valid parameter range as an interval."""
        return Interval(self.minimum, self.maximum)

    @property
    def span(self) -> float:
        """Width of the valid range (used by the best-fit allocation policy)."""
        return self.maximum - self.minimum

    def can_serve(self, nominal: float | None, acceptance: Interval | None = None) -> bool:
        """Whether a request with this nominal value / acceptance window fits.

        A request is servable when either its nominal value lies inside the
        capability range, or - for requests whose nominal is out of range but
        that specify an acceptance window (e.g. ``r = INF`` with
        ``r_min = 5000``) - the acceptance window overlaps the range so a
        clamped value still satisfies the test.
        """
        if nominal is not None and self.range.contains(nominal):
            return True
        if acceptance is not None and acceptance.intersects(self.range):
            return True
        return False

    def as_row(self) -> tuple[str, str, str, str, str]:
        """Render as the paper's resource-table columns (method..unit)."""
        return (
            self.method,
            self.attribute,
            format_number(self.minimum),
            format_number(self.maximum, decimal_comma=False)
            if not math.isinf(self.maximum) else "INF",
            self.unit,
        )

    def __str__(self) -> str:
        return f"{self.method}({self.attribute}: {self.range} {self.unit})".strip()


#: ``co_flags`` bit of a function that has a ``**`` parameter.
_CO_VARKEYWORDS = 0x08


def _takes_prepared(function: Callable) -> bool:
    """Whether *function* accepts a ``prepared=`` keyword argument.

    It does when it has a ``prepared`` parameter that can be passed by
    name, or a ``**`` parameter.  Its code object answers that without
    :mod:`inspect`; a wrapper is judged by the function it wraps
    (``__wrapped__``), as :func:`inspect.signature` judges it.  A callable
    without a code object of its own cannot be checked here and passes.
    """
    seen = set()
    while hasattr(function, "__wrapped__") and id(function) not in seen:
        seen.add(id(function))
        function = function.__wrapped__
    code = getattr(function, "__code__", None)
    if code is None:
        return True
    named = code.co_varnames[code.co_posonlyargcount:
                             code.co_argcount + code.co_kwonlyargcount]
    return "prepared" in named or bool(code.co_flags & _CO_VARKEYWORDS)


class Instrument(abc.ABC):
    """Base class of all virtual instruments.

    Subclasses declare their terminals (connection points, e.g. ``hi``/``lo``
    for a DVM) and capabilities, and implement :meth:`_perform` which carries
    out one method call against the harness.  Callers go through
    :meth:`round_trip` (the generator core the interpreter's classic walk
    yields from) or its driven forms :meth:`execute` (blocks for
    :attr:`io_delay`) and :meth:`aexecute` (yields the event loop for
    :attr:`io_delay`), so the instrument's I/O latency is paid exactly once
    per call on every path.  The bytecode VM is the one caller that binds
    ``_perform`` directly: it pays ``io_delay`` once per batch of calls.
    """

    #: Connection terminals of the instrument, in routing order.
    TERMINALS: tuple[str, ...] = ("a",)
    #: Whether the instrument attaches to the bus instead of discrete pins.
    IS_BUS_INTERFACE: bool = False

    def __init_subclass__(cls, **kwargs):
        """Reject a subclass whose own ``_perform`` cannot take ``prepared``.

        The bytecode VM passes the keyword on every call; checking at class
        definition makes a missing keyword fail loudly there instead of on
        the first VM-served run.
        """
        super().__init_subclass__(**kwargs)
        perform = cls.__dict__.get("_perform")
        if perform is None:
            return
        if not _takes_prepared(perform):
            raise TypeError(
                f"{cls.__qualname__}._perform must accept the keyword "
                f"argument 'prepared' (see Instrument._perform)"
            )

    def __init__(self, name: str, *, io_delay: float = 0.0):
        if not str(name).strip():
            raise InstrumentError("instrument needs a name")
        io_delay = float(io_delay)
        if not (io_delay >= 0):  # also rejects NaN
            raise InstrumentError(
                f"instrument io_delay must be a non-negative number of "
                f"seconds, got {io_delay!r}"
            )
        self.name = str(name).strip()
        #: Simulated wall-clock latency of one method call in seconds.
        self.io_delay = io_delay

    def reset(self) -> None:
        """Restore the instrument to its idle state (between-jobs hook).

        The executor's stand pool calls this on every instrument of a
        reused stand before the stand serves its next job.  The bundled
        instruments are stateless (all electrical state lives in the
        per-job harness), so the default is a no-op; stateful plugin
        instruments override it to drop buffered readings, armed triggers
        and the like.
        """

    # -- capabilities -----------------------------------------------------------

    @abc.abstractmethod
    def capabilities(self) -> tuple[Capability, ...]:
        """The methods this instrument supports with their valid ranges."""

    def supports(self, method: str) -> bool:
        """Whether the instrument supports *method* at all."""
        wanted = str(method).lower()
        return any(cap.method.lower() == wanted for cap in self.capabilities())

    def capability_for(self, method: str) -> Capability:
        """Capability entry for *method* (raises when unsupported)."""
        wanted = str(method).lower()
        for capability in self.capabilities():
            if capability.method.lower() == wanted:
                return capability
        raise CapabilityError(
            f"instrument {self.name!r} does not support method {method!r}",
            method=method,
        )

    @property
    def terminals(self) -> tuple[str, ...]:
        return self.TERMINALS

    @property
    def is_bus_interface(self) -> bool:
        return self.IS_BUS_INTERFACE

    # -- execution ----------------------------------------------------------------

    def round_trip(
        self,
        call: MethodCall,
        signal: Signal,
        pins: Sequence[str],
        harness: TestHarness,
        variables: Mapping[str, float],
    ) -> Core[MethodOutcome]:
        """One method call as a generator core: yields its waits, returns its outcome.

        The waits are an injected chaos hang (when a chaos policy is
        active) plus :attr:`io_delay`; then :meth:`_perform` runs.

        Parameters
        ----------
        call:
            The method statement from the test script (textual parameters).
        signal:
            The requirement-level signal being stimulated or checked; bus
            instruments use its ``message`` attribute.
        pins:
            The DUT pins this instrument has been routed to for the call, in
            terminal order.
        harness:
            The DUT harness providing the electrical / bus primitives.
        variables:
            Stand variables for evaluating relative limits (``ubatt``...).
        """
        glitch = False
        wait = self.io_delay
        if _chaos.ACTIVE is not None:
            # Chaos path: the active schedule may fault this round-trip
            # (raises InstrumentIOError), stretch it, or glitch its reading.
            hang, glitch = _chaos.on_instrument_call()
            wait += hang
        if wait > 0.0:
            yield wait
        outcome = self._perform(call, signal, pins, harness, variables)
        return _chaos.glitched(outcome) if glitch else outcome

    def execute(
        self,
        call: MethodCall,
        signal: Signal,
        pins: Sequence[str],
        harness: TestHarness,
        variables: Mapping[str, float],
    ) -> MethodOutcome:
        """Perform one method call, blocking the thread for its waits."""
        return drive(self.round_trip(call, signal, pins, harness, variables))

    async def aexecute(
        self,
        call: MethodCall,
        signal: Signal,
        pins: Sequence[str],
        harness: TestHarness,
        variables: Mapping[str, float],
    ) -> MethodOutcome:
        """Perform one method call, awaiting its waits (same outcome)."""
        return await adrive(self.round_trip(call, signal, pins, harness, variables))

    @abc.abstractmethod
    def _perform(
        self,
        call: MethodCall,
        signal: Signal,
        pins: Sequence[str],
        harness: TestHarness,
        variables: Mapping[str, float],
        *,
        prepared: tuple | None = None,
    ) -> MethodOutcome:
        """Carry out one method call against the harness (no latency).

        Implemented by each concrete instrument; parameters are those of
        :meth:`round_trip`.  The computation must stay synchronous and free
        of real-time waits - all wall-clock latency belongs to the
        generator cores and their drivers, all *simulated* time to the
        harness clock.

        ``prepared`` is an optional ``(nominal, limits)`` pair of the
        call's principal-attribute parameter value and acceptance interval,
        pre-evaluated by the bytecode VM (:mod:`repro.teststand.vm`) for
        the run's exact variables.  Instruments use a non-``None`` entry in
        place of their own :func:`~repro.methods.base.evaluate_call_parameter`
        / :func:`~repro.methods.base.limits_for_call` result - the values
        are computed by those same helpers, so verdicts are byte-identical
        - and fall back to self-evaluation otherwise.  Every subclass must
        take the keyword, as a named or keyword-only ``prepared`` parameter
        or through ``**options``: the VM passes it on each call, and a
        subclass whose ``_perform`` has neither raises :class:`TypeError`
        when the class is defined.
        """

    def __repr__(self) -> str:
        methods = ", ".join(sorted({c.method for c in self.capabilities()}))
        return f"{type(self).__name__}(name={self.name!r}, methods=[{methods}])"

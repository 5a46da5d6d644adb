"""Intermediate representation of a compiled test script.

The XML file the paper generates ("test script") is a flat, stand-neutral
sequence of steps; each step carries *signal statements*, each followed by a
*method statement* with fully resolved parameters.  This module models that
structure in memory:

``MethodCall``   one method statement (name + textual parameters)
``SignalAction`` one signal statement (signal name + its method call)
``ScriptStep``   one step (number, Δt, ordered signal actions)
``TestScript``   the whole script (setup actions + steps + metadata)

Parameters stay *textual* in the IR: limits such as ``(0.7*ubatt)`` must not
be evaluated before the script reaches a concrete test stand, because only
the stand knows its supply voltage.  This mirrors the paper's split between
test definition and test execution.
"""

from __future__ import annotations

from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from .._record import FrozenInstanceError, Record
from .errors import ExpressionError, ScriptError
from .values import LimitExpression, _reading, format_number

__all__ = ["MethodCall", "SignalAction", "ScriptStep", "TestScript"]


class MethodCall(Record):
    """One method statement: a method name plus textual parameters.

    Besides its fields a call carries ``key``, its method lower-cased, and
    reads its own parameters: the first read builds one table that maps
    each lower-cased parameter name to its text and to how that text reads
    (:func:`~repro.core.values.parse_parameter`); when two names differ
    only in case, the first spelling wins.  Neither travels in a pickle or
    a copy, which carry the method and the parameters only.
    """

    method: str
    params: Mapping[str, str]  # a new empty mapping by default

    def __init__(self, method: str, params: Mapping[str, str] | None = None) -> None:
        if not str(method).strip():
            raise ScriptError("method call without a method name")
        frozen = MappingProxyType({str(k): str(v) for k, v in dict(params or {}).items()})
        self.__dict__.update(method=method, params=frozen,
                             key=str(method).lower())

    def __reduce__(self):
        # The frozen MappingProxyType view cannot be pickled; rebuild from a
        # plain dict so scripts can cross process boundaries (executor jobs).
        return (type(self), (self.method, dict(self.params)))

    @cached_property
    def _table(self) -> dict[str, tuple[str, float | LimitExpression | str | None]]:
        # An unreadable text is stored as its ExpressionError message: an
        # exception would keep its traceback's frames alive with the call.
        table: dict[str, tuple] = {}
        for name, text in self.params.items():
            table.setdefault(name.lower(), (text, _reading(text)))
        return table

    def param(self, name: str, default: str | None = None) -> str | None:
        """Case-insensitive parameter lookup: the text as written."""
        entry = self._table.get(name.lower())
        return default if entry is None else entry[0]

    def parsed(self, name: str) -> float | LimitExpression | None:
        """Parameter *name* as :func:`~repro.core.values.parse_parameter` reads it.

        ``None`` when the call has no such parameter or it is blank.  A text
        that reads as nothing raises a fresh :class:`ExpressionError` on
        every read.
        """
        entry = self._table.get(name.lower())
        if entry is None:
            return None
        reading = entry[1]
        if isinstance(reading, str):
            raise ExpressionError(reading)
        return reading

    def variables(self) -> frozenset[str]:
        """All variables referenced by any expression-valued parameter."""
        names: set[str] = set()
        for text in self.params.values():
            reading = _reading(text)
            if isinstance(reading, LimitExpression):
                names |= reading.variables
        return frozenset(names)

    def __eq__(self, other: object) -> bool:
        if self is other:
            # Identity first: the dict rebuilds below are the expensive part.
            return True
        if isinstance(other, MethodCall):
            return self.key == other.key and dict(self.params) == dict(other.params)
        return NotImplemented

    def __hash__(self) -> int:
        # Memoised: calls are immutable, so the sort must only ever run once.
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((self.key, tuple(sorted(self.params.items()))))
            self.__dict__["_hash"] = cached
        return cached

    def __str__(self) -> str:
        rendered = " ".join(f'{k}="{v}"' for k, v in self.params.items())
        return f"{self.method} {rendered}".strip()


class SignalAction(Record):
    """One signal statement: a signal name and the method call applied to it."""

    signal: str
    call: MethodCall

    def __init__(self, signal: str, call: MethodCall) -> None:
        if not str(signal).strip():
            raise ScriptError("signal action without a signal name")
        self.__dict__.update(signal=signal, call=call)

    @property
    def method(self) -> str:
        """Shortcut to the method name."""
        return self.call.method

    def __str__(self) -> str:
        return f"{self.signal}: {self.call}"


class ScriptStep(Record):
    """One script step: number, duration and its ordered signal actions."""

    number: int
    duration: float
    actions: tuple[SignalAction, ...] = ()
    remark: str = ""
    requirement: str | None = None

    def __init__(self, number: int, duration: float,
                 actions: Iterable[SignalAction] = (), remark: str = "",
                 requirement: str | None = None) -> None:
        if number < 0:
            raise ScriptError(f"step number must be >= 0, got {number}")
        duration = float(duration)
        if duration < 0:
            raise ScriptError(f"step duration must be >= 0, got {duration}")
        self.__dict__.update(number=number, duration=duration,
                             actions=tuple(actions), remark=remark,
                             requirement=requirement)

    def actions_for(self, signal: str) -> tuple[SignalAction, ...]:
        """All actions addressing *signal* (case-insensitive)."""
        wanted = str(signal).lower()
        return tuple(a for a in self.actions if a.signal.lower() == wanted)

    def methods_used(self) -> tuple[str, ...]:
        """Method names used by this step, in action order."""
        seen: dict[str, None] = {}
        for action in self.actions:
            seen.setdefault(action.method.lower(), None)
        return tuple(seen)

    def __str__(self) -> str:
        return (
            f"step {self.number} (dt={format_number(self.duration)}s, "
            f"{len(self.actions)} actions)"
        )


class TestScript:
    """A complete, test-stand-independent test script.

    A script is a value: it is built whole by its constructor and refuses
    assignment and deletion afterwards, so anything derived from it (an
    execution plan's fingerprint, the result store's content key) holds
    for as long as the script lives.  Memos of such derived values are
    written through ``__dict__``; they stay in their process, because a
    script pickles and copies its fields only.

    Attributes
    ----------
    name:
        Script name (normally the test definition sheet's name).
    dut:
        Name of the device under test.
    setup:
        Signal actions establishing the initial statuses from the signal
        definition sheet, performed before step 0.
    steps:
        The script steps, their numbers strictly increasing.
    variables:
        Names of stand-supplied variables (e.g. ``ubatt``) the script's
        expressions reference, plus any declared ones, sorted.
    metadata:
        Read-only string metadata recorded in the XML header.
    """

    __test__ = False  # a domain class, not a pytest test class

    def __init__(
        self,
        name: str,
        dut: str,
        steps: Iterable[ScriptStep] = (),
        *,
        setup: Iterable[SignalAction] = (),
        variables: Iterable[str] = (),
        metadata: Mapping[str, str] | None = None,
        description: str = "",
    ):
        if not str(name).strip():
            raise ScriptError("test script needs a name")
        if not str(dut).strip():
            raise ScriptError("test script needs a DUT name")
        setup = tuple(setup)
        steps = tuple(steps)
        for before, step in zip(steps, steps[1:]):
            if step.number <= before.number:
                raise ScriptError(
                    f"step numbers must increase: {step.number} after {before.number}"
                )
        names = {str(v).lower() for v in variables}
        for actions in (setup, *(step.actions for step in steps)):
            for action in actions:
                names |= action.call.variables()
        self.__dict__.update(
            name=str(name).strip(), dut=str(dut).strip(),
            description=description, setup=setup, steps=steps,
            variables=tuple(sorted(names)),
            metadata=MappingProxyType(dict(metadata or {})))

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __getstate__(self) -> dict:
        # The fields alone: memos stay in their process, and the metadata
        # view (which cannot be pickled) travels as a plain dict.
        return {
            "name": self.name,
            "dut": self.dut,
            "description": self.description,
            "setup": self.setup,
            "steps": self.steps,
            "variables": self.variables,
            "metadata": dict(self.metadata),
        }

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state, metadata=MappingProxyType(state["metadata"]))

    # -- access --------------------------------------------------------------

    @property
    def total_duration(self) -> float:
        """Sum of all step durations in seconds."""
        return sum(step.duration for step in self.steps)

    def signals_used(self) -> tuple[str, ...]:
        """All signal names referenced (setup + steps), in first-use order."""
        seen: dict[str, None] = {}
        for action in self.setup:
            seen.setdefault(action.signal, None)
        for step in self.steps:
            for action in step.actions:
                seen.setdefault(action.signal, None)
        return tuple(seen)

    def methods_used(self) -> tuple[str, ...]:
        """All method names referenced, in first-use order."""
        seen: dict[str, None] = {}
        for action in self.setup:
            seen.setdefault(action.method.lower(), None)
        for step in self.steps:
            for action in step.actions:
                seen.setdefault(action.method.lower(), None)
        return tuple(seen)

    def action_count(self) -> int:
        """Total number of signal actions (setup + steps)."""
        return len(self.setup) + sum(len(step.actions) for step in self.steps)

    def __iter__(self) -> Iterator[ScriptStep]:
        return iter(self.steps)

    def __len__(self) -> int:
        return len(self.steps)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TestScript):
            return NotImplemented
        return (
            self.name == other.name
            and self.dut == other.dut
            and self.setup == other.setup
            and self.steps == other.steps
        )

    def __repr__(self) -> str:
        return (
            f"TestScript(name={self.name!r}, dut={self.dut!r}, "
            f"steps={len(self.steps)}, actions={self.action_count()})"
        )

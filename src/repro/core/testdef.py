"""Test definition model: test steps, sheets and suites.

A *test definition sheet* (the paper's first table) is a sequence of timed
steps.  Each step assigns statuses to one or more signals; a status assigned
to an input signal is a stimulus, a status assigned to an output signal is an
expectation.  Signals not mentioned in a step simply keep their previous
status - that "sparse column" convention is what makes the sheets readable
and is preserved here.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

from .._record import Record
from .errors import DefinitionError
from .signals import SignalSet
from .status import StatusTable
from .values import format_number, parse_number

__all__ = ["StatusAssignment", "TestStep", "TestDefinition", "TestSuite"]


class StatusAssignment(Record):
    """Assignment of one status to one signal within a test step."""

    signal: str
    status: str

    def __init__(self, signal: str, status: str) -> None:
        if not str(signal).strip():
            raise DefinitionError("status assignment without a signal name")
        if not str(status).strip():
            raise DefinitionError(
                f"empty status assigned to signal {signal!r}"
            )
        self.__dict__.update(signal=signal, status=status)

    def __str__(self) -> str:
        return f"{self.signal}={self.status}"


class TestStep(Record):
    """One row of a test definition sheet.

    Parameters
    ----------
    number:
        Step number as written in the sheet (0-based in the paper).
    duration:
        The Δt column, in seconds: how long the step lasts before the
        expectations are evaluated and the next step begins.
    assignments:
        Status assignments of this step, in column order.
    remark:
        Free-text remark column.
    requirement:
        Optional requirement identifier for traceability (extension beyond
        the paper, used by :mod:`repro.analysis.traceability`).
    """

    __test__ = False  # a domain class, not a pytest test class

    number: int
    duration: float
    assignments: tuple[StatusAssignment, ...] = ()
    remark: str = ""
    requirement: str | None = None

    def __init__(self, number: int, duration: float,
                 assignments: Iterable[StatusAssignment] = (),
                 remark: str = "", requirement: str | None = None) -> None:
        if number < 0:
            raise DefinitionError(f"step number must be >= 0, got {number}")
        duration = float(duration)
        if duration < 0:
            raise DefinitionError(f"step duration must be >= 0, got {duration}")
        assignments = tuple(assignments)
        seen: set[str] = set()
        for assignment in assignments:
            key = assignment.signal.lower()
            if key in seen:
                raise DefinitionError(
                    f"step {number} assigns signal {assignment.signal!r} twice"
                )
            seen.add(key)
        self.__dict__.update(number=number, duration=duration,
                             assignments=assignments, remark=remark,
                             requirement=requirement)

    @property
    def signals(self) -> tuple[str, ...]:
        """Signals touched by this step, in column order."""
        return tuple(a.signal for a in self.assignments)

    def status_for(self, signal: str) -> str | None:
        """Status assigned to *signal* in this step, or ``None``."""
        wanted = str(signal).lower()
        for assignment in self.assignments:
            if assignment.signal.lower() == wanted:
                return assignment.status
        return None

    def with_assignment(self, signal: str, status: str) -> "TestStep":
        """Return a copy with one extra (or replaced) assignment."""
        kept = tuple(a for a in self.assignments if a.signal.lower() != str(signal).lower())
        return TestStep(
            number=self.number,
            duration=self.duration,
            assignments=kept + (StatusAssignment(signal, status),),
            remark=self.remark,
            requirement=self.requirement,
        )

    def __str__(self) -> str:
        pairs = ", ".join(str(a) for a in self.assignments)
        return f"step {self.number} (Δt={format_number(self.duration)}s): {pairs}"


class TestDefinition:
    """One test definition sheet: an ordered sequence of :class:`TestStep`.

    The paper notes that each test sheet covers *a certain part of the
    specification* and only mentions the signals relevant to that part; the
    sheet therefore records its own signal column order.
    """

    __test__ = False  # a domain class, not a pytest test class

    def __init__(
        self,
        name: str,
        steps: Iterable[TestStep] = (),
        *,
        signals: Sequence[str] = (),
        description: str = "",
        requirement: str | None = None,
    ):
        if not str(name).strip():
            raise DefinitionError("test definition needs a name")
        self.name = str(name).strip()
        self.description = description
        self.requirement = requirement
        self._steps: list[TestStep] = []
        self._columns: list[str] = [str(s) for s in signals]
        for step in steps:
            self.append(step)

    # -- construction -------------------------------------------------------

    def append(self, step: TestStep) -> None:
        """Append a step; numbers must be strictly increasing."""
        if self._steps and step.number <= self._steps[-1].number:
            raise DefinitionError(
                f"step numbers must increase: {step.number} after {self._steps[-1].number}"
            )
        for assignment in step.assignments:
            if assignment.signal not in self._columns and not any(
                c.lower() == assignment.signal.lower() for c in self._columns
            ):
                self._columns.append(assignment.signal)
        self._steps.append(step)

    def add_step(
        self,
        duration: float,
        assignments: Mapping[str, str] | Iterable[tuple[str, str]],
        *,
        remark: str = "",
        requirement: str | None = None,
    ) -> TestStep:
        """Convenience builder: append a step with the next free number."""
        number = self._steps[-1].number + 1 if self._steps else 0
        pairs = assignments.items() if isinstance(assignments, Mapping) else assignments
        step = TestStep(
            number=number,
            duration=duration,
            assignments=tuple(StatusAssignment(sig, status) for sig, status in pairs),
            remark=remark,
            requirement=requirement,
        )
        self.append(step)
        return step

    # -- access --------------------------------------------------------------

    @property
    def steps(self) -> tuple[TestStep, ...]:
        return tuple(self._steps)

    @property
    def columns(self) -> tuple[str, ...]:
        """Signal column order of the sheet."""
        return tuple(self._columns)

    @property
    def total_duration(self) -> float:
        """Sum of all step durations in seconds."""
        return sum(step.duration for step in self._steps)

    def statuses_used(self) -> tuple[str, ...]:
        """All status names referenced, in first-use order."""
        seen: dict[str, None] = {}
        for step in self._steps:
            for assignment in step.assignments:
                seen.setdefault(assignment.status, None)
        return tuple(seen)

    def signals_used(self) -> tuple[str, ...]:
        """All signal names referenced, in first-use order."""
        seen: dict[str, None] = {}
        for step in self._steps:
            for assignment in step.assignments:
                seen.setdefault(assignment.signal, None)
        return tuple(seen)

    def validate(self, signals: SignalSet, statuses: StatusTable) -> None:
        """Cross-check the sheet against the signal set and status table."""
        for step in self._steps:
            for assignment in step.assignments:
                if assignment.signal not in signals:
                    raise DefinitionError(
                        f"test {self.name!r} step {step.number} references unknown "
                        f"signal {assignment.signal!r}"
                    )
                if assignment.status not in statuses:
                    raise DefinitionError(
                        f"test {self.name!r} step {step.number} references unknown "
                        f"status {assignment.status!r}"
                    )

    def rows(self) -> list[tuple[str, ...]]:
        """Sheet contents in the paper's column layout.

        The first two columns are the step number and Δt, then one column per
        signal (empty cell when the step does not touch the signal), finally
        the remark column.
        """
        rendered: list[tuple[str, ...]] = []
        for step in self._steps:
            row = [str(step.number), format_number(step.duration, decimal_comma=True)]
            for column in self._columns:
                row.append(step.status_for(column) or "")
            row.append(step.remark)
            rendered.append(tuple(row))
        return rendered

    def header(self) -> tuple[str, ...]:
        """Column headers matching :meth:`rows`."""
        return ("test step", "dt", *self._columns, "remarks")

    def __iter__(self) -> Iterator[TestStep]:
        return iter(self._steps)

    def __len__(self) -> int:
        return len(self._steps)

    def __repr__(self) -> str:
        return f"TestDefinition(name={self.name!r}, steps={len(self._steps)})"


class TestSuite:
    """A device under test plus everything needed to test it.

    Bundles the signal definition sheet, the status table and any number of
    test definition sheets - i.e. the complete, test-stand-independent
    description of the component tests for one DUT.
    """

    __test__ = False  # a domain class, not a pytest test class

    def __init__(
        self,
        dut: str,
        signals: SignalSet,
        statuses: StatusTable,
        tests: Iterable[TestDefinition] = (),
        *,
        description: str = "",
    ):
        if not str(dut).strip():
            raise DefinitionError("test suite needs a DUT name")
        self.dut = str(dut).strip()
        self.signals = signals
        self.statuses = statuses
        self.description = description
        self._tests: dict[str, TestDefinition] = {}
        for test in tests:
            self.add(test)

    def add(self, test: TestDefinition) -> None:
        """Add a test definition; duplicate names raise ``DefinitionError``."""
        key = test.name.lower()
        if key in self._tests:
            raise DefinitionError(f"duplicate test definition name: {test.name!r}")
        self._tests[key] = test

    def get(self, name: str) -> TestDefinition:
        """Look up a test definition by case-insensitive name."""
        try:
            return self._tests[str(name).lower()]
        except KeyError as exc:
            raise DefinitionError(f"unknown test definition: {name!r}") from exc

    def __contains__(self, name: object) -> bool:
        return str(name).lower() in self._tests

    def __iter__(self) -> Iterator[TestDefinition]:
        return iter(self._tests.values())

    def __len__(self) -> int:
        return len(self._tests)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(test.name for test in self._tests.values())

    def validate(self) -> None:
        """Cross-check all tests against the suite's signals and statuses."""
        for test in self:
            test.validate(self.signals, self.statuses)

    def statuses_used(self) -> tuple[str, ...]:
        """All status names used by any test, in first-use order."""
        seen: dict[str, None] = {}
        for test in self:
            for status in test.statuses_used():
                seen.setdefault(status, None)
        for status in self.signals.initial_statuses.values():
            seen.setdefault(status, None)
        return tuple(seen)

    def __repr__(self) -> str:
        return f"TestSuite(dut={self.dut!r}, tests={list(self.names)!r})"

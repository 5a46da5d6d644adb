"""Verdicts and results of test execution."""

from __future__ import annotations

import enum
from typing import Iterable, Iterator

from .._record import Record
from ..core.script import SignalAction, TestScript
from ..methods import MethodOutcome
from .allocator import Allocation

__all__ = ["Verdict", "ActionResult", "StepResult", "TestResult"]


class Verdict(enum.Enum):
    """Outcome classification of an action, a step or a whole test."""

    PASS = "pass"
    FAIL = "fail"
    ERROR = "error"      #: could not be executed (allocation / instrument error)
    SKIPPED = "skipped"

    @property
    def ok(self) -> bool:
        return self is Verdict.PASS

    def __str__(self) -> str:
        return self.value.upper()

    @staticmethod
    def combine(verdicts: Iterable["Verdict"]) -> "Verdict":
        """Worst-of combination: ERROR > FAIL > PASS; empty input passes."""
        worst = Verdict.PASS
        for verdict in verdicts:
            if verdict is Verdict.ERROR:
                return Verdict.ERROR
            if verdict is Verdict.FAIL:
                worst = Verdict.FAIL
            elif verdict is Verdict.SKIPPED and worst is Verdict.PASS:
                worst = Verdict.PASS
        return worst


class ActionResult(Record):
    """Result of one signal action (one method call) of a step."""

    action: SignalAction
    verdict: Verdict
    outcome: MethodOutcome | None = None
    allocation: Allocation | None = None
    error: str = ""

    def __init__(self, action: SignalAction, verdict: Verdict,
                 outcome: MethodOutcome | None = None,
                 allocation: Allocation | None = None,
                 error: str = "") -> None:
        self.__dict__.update(action=action, verdict=verdict, outcome=outcome,
                             allocation=allocation, error=error)

    @property
    def signal(self) -> str:
        return self.action.signal

    @property
    def method(self) -> str:
        return self.action.method

    @property
    def resource(self) -> str:
        return self.allocation.resource if self.allocation else ""

    def describe(self) -> str:
        """One-line description for reports."""
        parts = [f"{self.signal}:{self.method}", str(self.verdict)]
        if self.resource:
            parts.append(f"via {self.resource}")
        if self.outcome is not None and self.outcome.observed is not None:
            parts.append(f"observed={self.outcome.observed:g}{self.outcome.unit}")
        if self.outcome is not None and self.outcome.limits is not None:
            parts.append(f"limits={self.outcome.limits}")
        if self.error:
            parts.append(self.error)
        return " ".join(parts)


class StepResult(Record):
    """Result of one script step."""

    number: int
    duration: float
    actions: tuple[ActionResult, ...] = ()
    remark: str = ""
    start_time: float = 0.0

    def __init__(self, number: int, duration: float,
                 actions: tuple[ActionResult, ...] = (), remark: str = "",
                 start_time: float = 0.0) -> None:
        self.__dict__.update(number=number, duration=duration,
                             actions=actions, remark=remark,
                             start_time=start_time)

    @property
    def verdict(self) -> Verdict:
        # Memoised: the actions are a tuple of frozen results, so the
        # verdict never changes, and a campaign's table and summary judge
        # every step several times.
        cached = self.__dict__.get("_verdict")
        if cached is None:
            cached = Verdict.combine(result.verdict for result in self.actions)
            self.__dict__["_verdict"] = cached
        return cached

    @property
    def passed(self) -> bool:
        return self.verdict.ok

    def failures(self) -> tuple[ActionResult, ...]:
        """All actions that did not pass."""
        return tuple(result for result in self.actions if not result.verdict.ok)

    def __iter__(self) -> Iterator[ActionResult]:
        return iter(self.actions)


class TestResult:
    """Result of executing one test script on one test stand."""

    __test__ = False  # a domain class, not a pytest test class

    def __init__(
        self,
        script: TestScript,
        stand: str,
        *,
        setup: tuple[ActionResult, ...] = (),
        steps: Iterable[StepResult] = (),
        duration: float = 0.0,
        wall_time: float = 0.0,
    ):
        self.script = script
        self.stand = stand
        self.setup = tuple(setup)
        self.steps = tuple(steps)
        #: Simulated seconds the DUT experienced (harness clock delta).
        self.duration = float(duration)
        #: Real seconds the interpreter needed to execute the run.
        self.wall_time = float(wall_time)

    @property
    def verdict(self) -> Verdict:
        verdicts = [result.verdict for result in self.setup]
        verdicts.extend(step.verdict for step in self.steps)
        return Verdict.combine(verdicts)

    @property
    def passed(self) -> bool:
        return self.verdict.ok

    @property
    def action_results(self) -> tuple[ActionResult, ...]:
        """All action results (setup + steps), flattened."""
        flattened: list[ActionResult] = list(self.setup)
        for step in self.steps:
            flattened.extend(step.actions)
        return tuple(flattened)

    def counts(self) -> dict[str, int]:
        """Counts of action verdicts (pass / fail / error / skipped)."""
        tally = {verdict.value: 0 for verdict in Verdict}
        for result in self.action_results:
            tally[result.verdict.value] += 1
        return tally

    def resources_used(self) -> tuple[str, ...]:
        """All resource names that served at least one action."""
        seen: dict[str, None] = {}
        for result in self.action_results:
            if result.resource:
                seen.setdefault(result.resource, None)
        return tuple(seen)

    def __repr__(self) -> str:
        return (
            f"TestResult(script={self.script.name!r}, stand={self.stand!r}, "
            f"verdict={self.verdict}, steps={len(self.steps)})"
        )

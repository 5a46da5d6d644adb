"""Reuse metrics: quantifying the paper's knowledge-preservation claim.

The paper argues that test definitions phrased against component
requirements (instead of against a test stand) let OEM and suppliers build
up and share test knowledge over many projects: *"there is a need for test
cases that are specified in a way, so that a high percentage of them can be
reused"*.  This module measures that percentage for concrete suites:

* vocabulary reuse - which statuses, methods and signal names recur,
* step reuse - which (signal, status) assignments recur between projects,
* stand independence - which fraction of a compiled script's content refers
  to stand-specific entities (by construction of the tool chain: none).
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .._record import Record
from ..core.script import TestScript
from ..core.testdef import TestSuite

__all__ = ["ReuseReport", "compare_suites", "vocabulary_reuse", "script_portability"]


def _jaccard(a: set, b: set) -> float:
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)


class ReuseReport(Record):
    """Pairwise reuse metrics between two test suites."""

    suite_a: str
    suite_b: str
    shared_statuses: tuple[str, ...]
    shared_methods: tuple[str, ...]
    shared_signals: tuple[str, ...]
    status_jaccard: float
    method_jaccard: float
    assignment_jaccard: float

    def __init__(self, suite_a: str, suite_b: str,
                 shared_statuses: tuple[str, ...],
                 shared_methods: tuple[str, ...],
                 shared_signals: tuple[str, ...], status_jaccard: float,
                 method_jaccard: float, assignment_jaccard: float) -> None:
        self.__dict__.update(
            suite_a=suite_a, suite_b=suite_b,
            shared_statuses=shared_statuses, shared_methods=shared_methods,
            shared_signals=shared_signals, status_jaccard=status_jaccard,
            method_jaccard=method_jaccard,
            assignment_jaccard=assignment_jaccard)

    def summary(self) -> str:
        return (
            f"{self.suite_a} vs {self.suite_b}: "
            f"{len(self.shared_statuses)} shared statuses "
            f"(J={self.status_jaccard:.2f}), "
            f"{len(self.shared_methods)} shared methods "
            f"(J={self.method_jaccard:.2f}), "
            f"assignment reuse J={self.assignment_jaccard:.2f}"
        )


def _assignments(suite: TestSuite) -> set[tuple[str, str]]:
    pairs: set[tuple[str, str]] = set()
    for test in suite:
        for step in test:
            for assignment in step.assignments:
                pairs.add((assignment.signal.lower(), assignment.status.lower()))
    return pairs


def compare_suites(suite_a: TestSuite, suite_b: TestSuite) -> ReuseReport:
    """Compute the reuse metrics between two suites (two "projects")."""
    statuses_a = {name.lower() for name in suite_a.statuses.names}
    statuses_b = {name.lower() for name in suite_b.statuses.names}
    methods_a = set(suite_a.statuses.methods_used())
    methods_b = set(suite_b.statuses.methods_used())
    signals_a = {name.lower() for name in suite_a.signals.names}
    signals_b = {name.lower() for name in suite_b.signals.names}

    shared_statuses = tuple(sorted(statuses_a & statuses_b))
    shared_methods = tuple(sorted(methods_a & methods_b))
    shared_signals = tuple(sorted(signals_a & signals_b))

    return ReuseReport(
        suite_a=suite_a.dut,
        suite_b=suite_b.dut,
        shared_statuses=shared_statuses,
        shared_methods=shared_methods,
        shared_signals=shared_signals,
        status_jaccard=_jaccard(statuses_a, statuses_b),
        method_jaccard=_jaccard(methods_a, methods_b),
        assignment_jaccard=_jaccard(_assignments(suite_a), _assignments(suite_b)),
    )


def vocabulary_reuse(suites: Sequence[TestSuite]) -> Mapping[str, float]:
    """Fraction of projects using each status of the combined vocabulary.

    A value of 1.0 means the status is reused by every project - the
    knowledge-preservation sweet spot the paper aims for.
    """
    usage: dict[str, int] = {}
    for suite in suites:
        for name in {status.lower() for status in suite.statuses.names}:
            usage[name] = usage.get(name, 0) + 1
    if not suites:
        return {}
    return {name: count / len(suites) for name, count in sorted(usage.items())}


def script_portability(script: TestScript, stand_entities: Iterable[str]) -> float:
    """Fraction of the script's identifiers that are *not* stand-specific.

    *stand_entities* are the names a concrete stand introduces (resource
    names, connector labels).  Because the compiler never emits them, the
    result is 1.0 for scripts produced by this tool chain - the quantified
    form of the paper's independence claim.  Hand-written scripts that
    hard-code resources score lower.
    """
    stand_names = {str(name).lower() for name in stand_entities}
    identifiers: set[str] = set()
    for step in script.steps:
        for action in step.actions:
            identifiers.add(action.signal.lower())
            identifiers.add(action.method.lower())
            for key, value in action.call.params.items():
                identifiers.add(str(key).lower())
                identifiers.add(str(value).lower())
    for action in script.setup:
        identifiers.add(action.signal.lower())
        identifiers.add(action.method.lower())
    if not identifiers:
        return 1.0
    clean = {identifier for identifier in identifiers if identifier not in stand_names}
    return len(clean) / len(identifiers)

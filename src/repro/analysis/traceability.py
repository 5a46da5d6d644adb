"""Requirement traceability.

Component requirements live outside the sheets (specification documents);
this module links them to the test definitions.  Requirement identifiers can
be attached to whole test sheets or to individual steps (an extension of the
paper's sheet layout), and a small catalogue object records the requirement
texts so reports can spell out what is and is not covered.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from .._record import Record
from ..core.errors import DefinitionError
from ..core.testdef import TestSuite

__all__ = ["Requirement", "RequirementCatalogue", "TraceabilityReport", "trace_requirements"]


class Requirement(Record):
    """One requirement of the component specification."""

    identifier: str
    text: str
    chapter: str = ""

    def __init__(self, identifier: str, text: str, chapter: str = "") -> None:
        if not str(identifier).strip():
            raise DefinitionError("requirement needs an identifier")
        self.__dict__.update(identifier=identifier, text=text, chapter=chapter)

    @property
    def key(self) -> str:
        return self.identifier.lower()


class RequirementCatalogue:
    """Ordered collection of requirements for one component."""

    def __init__(self, requirements: Iterable[Requirement] = (), *, component: str = ""):
        self.component = component
        self._requirements: dict[str, Requirement] = {}
        for requirement in requirements:
            self.add(requirement)

    def add(self, requirement: Requirement) -> None:
        if requirement.key in self._requirements:
            raise DefinitionError(f"duplicate requirement {requirement.identifier!r}")
        self._requirements[requirement.key] = requirement

    def get(self, identifier: str) -> Requirement:
        try:
            return self._requirements[str(identifier).lower()]
        except KeyError as exc:
            raise DefinitionError(f"unknown requirement {identifier!r}") from exc

    def __contains__(self, identifier: object) -> bool:
        return str(identifier).lower() in self._requirements

    def __iter__(self) -> Iterator[Requirement]:
        return iter(self._requirements.values())

    def __len__(self) -> int:
        return len(self._requirements)

    @property
    def identifiers(self) -> tuple[str, ...]:
        return tuple(req.identifier for req in self._requirements.values())


class TraceabilityReport(Record):
    """Mapping between requirements and the tests/steps touching them."""

    component: str
    links: Mapping[str, tuple[tuple[str, int], ...]]
    covered: tuple[str, ...]
    uncovered: tuple[str, ...]
    dangling: tuple[str, ...]

    def __init__(self, component: str,
                 links: Mapping[str, tuple[tuple[str, int], ...]],
                 covered: tuple[str, ...], uncovered: tuple[str, ...],
                 dangling: tuple[str, ...]) -> None:
        self.__dict__.update(component=component, links=links,
                             covered=covered, uncovered=uncovered,
                             dangling=dangling)

    @property
    def coverage(self) -> float:
        """Fraction of catalogued requirements referenced by at least one step."""
        total = len(self.covered) + len(self.uncovered)
        if total == 0:
            return 1.0
        return len(self.covered) / total

    def summary(self) -> str:
        return (
            f"traceability of {self.component}: {self.coverage:.0%} of requirements covered, "
            f"{len(self.uncovered)} uncovered, {len(self.dangling)} dangling references"
        )


def trace_requirements(
    suite: TestSuite, catalogue: RequirementCatalogue
) -> TraceabilityReport:
    """Link the requirement references of *suite* against *catalogue*.

    Returns which requirements are covered (referenced by at least one test
    or step), which are uncovered, and which references in the sheets do not
    exist in the catalogue ("dangling" - typically a typo in the sheet).
    """
    links: dict[str, list[tuple[str, int]]] = {}
    dangling: dict[str, None] = {}

    def record(identifier: str, test_name: str, step_number: int) -> None:
        if identifier not in catalogue:
            dangling.setdefault(identifier, None)
            return
        canonical = catalogue.get(identifier).identifier
        links.setdefault(canonical, []).append((test_name, step_number))

    for test in suite:
        for step in test:
            identifier = step.requirement or test.requirement
            if identifier:
                record(identifier, test.name, step.number)

    covered = tuple(identifier for identifier in catalogue.identifiers if identifier in links)
    uncovered = tuple(
        identifier for identifier in catalogue.identifiers if identifier not in links
    )
    return TraceabilityReport(
        component=catalogue.component or suite.dut,
        links={key: tuple(value) for key, value in links.items()},
        covered=covered,
        uncovered=uncovered,
        dangling=tuple(dangling),
    )

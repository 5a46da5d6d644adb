"""Coverage analysis of test suites.

The paper's motivation is that written requirements are "normally
incomplete" and that test knowledge gets lost between projects.  A first,
cheap counter-measure is to measure what a suite actually exercises:

* which signals are stimulated / checked at all,
* which statuses of the shared vocabulary are used,
* how often every (signal, status) pair occurs,
* which requirements (when the sheets carry requirement ids) are touched.
"""

from __future__ import annotations

from typing import Mapping

from .._record import Record
from ..core.testdef import TestSuite

__all__ = ["CoverageReport", "compute_coverage"]


class CoverageReport(Record):
    """Result of :func:`compute_coverage`."""

    dut: str
    signal_stimulated: Mapping[str, int]
    signal_checked: Mapping[str, int]
    status_usage: Mapping[str, int]
    pair_usage: Mapping[tuple[str, str], int]
    requirements: Mapping[str, int]
    unused_statuses: tuple[str, ...]
    unstimulated_inputs: tuple[str, ...]
    unchecked_outputs: tuple[str, ...]

    def __init__(self, dut: str, signal_stimulated: Mapping[str, int],
                 signal_checked: Mapping[str, int],
                 status_usage: Mapping[str, int],
                 pair_usage: Mapping[tuple[str, str], int],
                 requirements: Mapping[str, int],
                 unused_statuses: tuple[str, ...],
                 unstimulated_inputs: tuple[str, ...],
                 unchecked_outputs: tuple[str, ...]) -> None:
        self.__dict__.update(
            dut=dut, signal_stimulated=signal_stimulated,
            signal_checked=signal_checked, status_usage=status_usage,
            pair_usage=pair_usage, requirements=requirements,
            unused_statuses=unused_statuses,
            unstimulated_inputs=unstimulated_inputs,
            unchecked_outputs=unchecked_outputs)

    @property
    def signal_coverage(self) -> float:
        """Fraction of signals touched (stimulated or checked) at least once."""
        total = len(self.signal_stimulated) + len(self.signal_checked)
        if total == 0:
            return 1.0
        touched = sum(1 for count in self.signal_stimulated.values() if count > 0)
        touched += sum(1 for count in self.signal_checked.values() if count > 0)
        return touched / total

    @property
    def status_coverage(self) -> float:
        """Fraction of defined statuses that are used at least once."""
        if not self.status_usage:
            return 1.0
        used = sum(1 for count in self.status_usage.values() if count > 0)
        return used / len(self.status_usage)

    def summary(self) -> str:
        """Short human-readable summary."""
        return (
            f"coverage of {self.dut}: "
            f"{self.signal_coverage:.0%} signals, {self.status_coverage:.0%} statuses, "
            f"{len(self.unstimulated_inputs)} inputs never stimulated, "
            f"{len(self.unchecked_outputs)} outputs never checked, "
            f"{len(self.requirements)} requirements referenced"
        )


def compute_coverage(suite: TestSuite) -> CoverageReport:
    """Compute signal / status / requirement coverage of *suite*."""
    stimulated = {signal.name: 0 for signal in suite.signals.inputs}
    checked = {signal.name: 0 for signal in suite.signals.outputs}
    status_usage = {definition.name: 0 for definition in suite.statuses}
    pair_usage: dict[tuple[str, str], int] = {}
    requirements: dict[str, int] = {}

    for test in suite:
        if test.requirement:
            requirements[test.requirement] = requirements.get(test.requirement, 0)
        for step in test:
            if step.requirement:
                requirements[step.requirement] = requirements.get(step.requirement, 0) + 1
            elif test.requirement:
                requirements[test.requirement] = requirements.get(test.requirement, 0) + 1
            for assignment in step.assignments:
                signal = suite.signals.get(assignment.signal)
                status = suite.statuses.get(assignment.status)
                if signal.is_input and signal.name in stimulated:
                    stimulated[signal.name] += 1
                if signal.is_output and signal.name in checked:
                    checked[signal.name] += 1
                status_usage[status.name] = status_usage.get(status.name, 0) + 1
                pair = (signal.name, status.name)
                pair_usage[pair] = pair_usage.get(pair, 0) + 1

    unused_statuses = tuple(name for name, count in status_usage.items() if count == 0)
    unstimulated = tuple(name for name, count in stimulated.items() if count == 0)
    unchecked = tuple(name for name, count in checked.items() if count == 0)

    return CoverageReport(
        dut=suite.dut,
        signal_stimulated=stimulated,
        signal_checked=checked,
        status_usage=status_usage,
        pair_usage=pair_usage,
        requirements=requirements,
        unused_statuses=unused_statuses,
        unstimulated_inputs=unstimulated,
        unchecked_outputs=unchecked,
    )

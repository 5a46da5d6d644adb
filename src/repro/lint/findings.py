"""Diagnostic model of the static analyzer.

A :class:`LintFinding` is one structured diagnostic: a rule id, a severity,
a location inside the registry (``dut:interior_light_ecu sheet:...``), a
message and an optional fix hint.  Findings are plain immutable data - the
engine produces them, the CLI renders them as text or JSON, and
:func:`repro.lint.preflight_lint` raises on the error-severity ones.
"""

from __future__ import annotations

from typing import Callable, Iterable

from .._record import Record

__all__ = [
    "ERROR",
    "WARNING",
    "NOTE",
    "SEVERITIES",
    "EXIT_CLEAN",
    "EXIT_WARNINGS",
    "EXIT_ERRORS",
    "LintFinding",
    "LintRule",
    "sort_findings",
    "exit_code_for",
]

#: Severity levels, most severe first.  ``note`` findings are informational
#: (machine-derived facts such as a documented detection escape) and never
#: affect the exit code.
ERROR = "error"
WARNING = "warning"
NOTE = "note"
SEVERITIES = (ERROR, WARNING, NOTE)

_SEVERITY_RANK = {severity: rank for rank, severity in enumerate(SEVERITIES)}

#: ``repro-lint`` exit codes: clean / warnings only / at least one error.
EXIT_CLEAN = 0
EXIT_WARNINGS = 1
EXIT_ERRORS = 2


class LintFinding(Record):
    """One structured diagnostic emitted by a lint rule.

    Attributes
    ----------
    rule:
        Rule identifier, e.g. ``E-UNKNOWN-VARIABLE`` (documented in
        ``docs/lint-rules.md``).
    severity:
        One of :data:`SEVERITIES`.
    location:
        Where inside the registry the problem sits, e.g.
        ``sheet:interior_illumination step:3`` - always without the DUT,
        which travels separately in ``dut``.
    message:
        Human-readable statement of the problem.
    hint:
        Optional one-line fix suggestion.
    dut:
        Name of the registered DUT the finding belongs to, or ``None`` for
        registry-/stand-/library-wide findings.
    """

    rule: str
    severity: str
    location: str
    message: str
    hint: str = ""
    dut: str | None = None

    def __init__(self, rule: str, severity: str, location: str, message: str,
                 hint: str = "", dut: str | None = None) -> None:
        if severity not in SEVERITIES:
            raise ValueError(
                f"finding severity must be one of {SEVERITIES}, "
                f"got {severity!r}"
            )
        self.__dict__.update(rule=rule, severity=severity, location=location,
                             message=message, hint=hint, dut=dut)

    def render(self) -> str:
        """One text line, the ``--format text`` representation."""
        where = f"dut:{self.dut} {self.location}" if self.dut else self.location
        line = f"{self.severity.upper():<7} {self.rule:<26} {where}: {self.message}"
        if self.hint:
            line += f"  [fix: {self.hint}]"
        return line

    def as_dict(self) -> dict[str, object]:
        """JSON-ready mapping, the ``--format json`` representation."""
        return {
            "rule": self.rule,
            "severity": self.severity,
            "dut": self.dut,
            "location": self.location,
            "message": self.message,
            "hint": self.hint,
        }


class LintRule(Record):
    """One registered lint rule: identity, default severity, check function.

    ``check(context, rule)`` walks the :class:`~repro.lint.context.LintContext`
    and yields :class:`LintFinding` objects, normally built through
    :meth:`finding` so the rule id and severity stay consistent with the
    registration.  Rules of one family may share expensive analyses through
    ``context.memo``.
    """

    id: str
    severity: str
    summary: str
    check: Callable[..., Iterable[LintFinding]]

    def __init__(self, id: str, severity: str, summary: str,
                 check: Callable[..., Iterable[LintFinding]]) -> None:
        self.__dict__.update(id=id, severity=severity, summary=summary,
                             check=check)

    def finding(self, location: str, message: str, *, hint: str = "",
                dut: str | None = None,
                severity: str | None = None) -> LintFinding:
        """Build a finding carrying this rule's id and (default) severity."""
        return LintFinding(
            rule=self.id,
            severity=severity or self.severity,
            location=location,
            message=message,
            hint=hint,
            dut=dut,
        )


def sort_findings(findings) -> tuple[LintFinding, ...]:
    """Stable ordering: most severe first, then by DUT, location, rule."""
    return tuple(sorted(
        findings,
        key=lambda f: (
            _SEVERITY_RANK.get(f.severity, len(SEVERITIES)),
            f.dut or "",
            f.location,
            f.rule,
        ),
    ))


def exit_code_for(findings) -> int:
    """Map a finding collection to the ``repro-lint`` exit code.

    Errors dominate warnings; ``note`` findings never affect the code.
    """
    worst = EXIT_CLEAN
    for finding in findings:
        if finding.severity == ERROR:
            return EXIT_ERRORS
        if finding.severity == WARNING:
            worst = EXIT_WARNINGS
    return worst

"""Lint engine: rule registry, report model, programmatic entry points.

:func:`run_lint` is the one entry point everything else goes through - the
``repro-lint`` console script, the ``--lint`` column of
``repro-campaign --list-targets`` and the ``preflight="lint"`` mode of
:func:`repro.targets.run_single` / :func:`repro.targets.build_campaign`.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .._record import Record
from ..methods import MethodRegistry
from ..targets import CompositionTarget, DutTarget, TargetError, get_target
from . import composition, coverage, executor_safety, expressions, reachability
from .context import LintContext
from .findings import (
    ERROR,
    NOTE,
    WARNING,
    LintFinding,
    LintRule,
    exit_code_for,
    sort_findings,
)

__all__ = [
    "ALL_RULES",
    "LintError",
    "LintReport",
    "preflight_lint",
    "rules_by_id",
    "run_lint",
    "select_rules",
]

#: Every registered rule, family order: expressions, reachability,
#: coverage, executor safety, composition.
ALL_RULES: tuple[LintRule, ...] = (
    expressions.RULES
    + reachability.RULES
    + coverage.RULES
    + executor_safety.RULES
    + composition.RULES
)


def rules_by_id() -> dict[str, LintRule]:
    """Mapping of upper-case rule id to rule."""
    return {rule.id: rule for rule in ALL_RULES}


def select_rules(
    rules: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
) -> tuple[LintRule, ...]:
    """Resolve ``--rule`` / ``--ignore`` filters to a rule tuple.

    Ids are matched case-insensitively; an unknown id raises
    :class:`~repro.targets.TargetError` (a typo silently linting nothing
    would be worse than failing loudly).
    """
    known = rules_by_id()

    def resolve(names: Iterable[str]) -> tuple[str, ...]:
        resolved = []
        for name in names:
            wanted = str(name).strip().upper()
            if wanted not in known:
                raise TargetError(
                    f"unknown lint rule {name!r}; known rules: "
                    f"{', '.join(sorted(known))}"
                )
            resolved.append(wanted)
        return tuple(resolved)

    selected = resolve(rules) if rules is not None else tuple(known)
    ignored = set(resolve(ignore)) if ignore is not None else set()
    return tuple(
        known[rule_id] for rule_id in selected if rule_id not in ignored
    )


class LintReport(Record):
    """Outcome of one lint run: the sorted findings plus derived views."""

    findings: tuple[LintFinding, ...]
    rules: tuple[str, ...] = ()

    def __init__(self, findings: tuple[LintFinding, ...],
                 rules: tuple[str, ...] = ()) -> None:
        self.__dict__.update(findings=findings, rules=rules)

    @property
    def errors(self) -> tuple[LintFinding, ...]:
        return tuple(f for f in self.findings if f.severity == ERROR)

    @property
    def warnings(self) -> tuple[LintFinding, ...]:
        return tuple(f for f in self.findings if f.severity == WARNING)

    @property
    def notes(self) -> tuple[LintFinding, ...]:
        return tuple(f for f in self.findings if f.severity == NOTE)

    @property
    def exit_code(self) -> int:
        """``repro-lint`` exit code: 0 clean, 1 warnings, 2 errors."""
        return exit_code_for(self.findings)

    def counts(self) -> dict[str, int]:
        return {
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "notes": len(self.notes),
        }

    def summary(self) -> str:
        counts = self.counts()
        return (
            f"{len(self.findings)} finding(s): {counts['errors']} error(s), "
            f"{counts['warnings']} warning(s), {counts['notes']} note(s)"
        )

    def as_json_dict(self) -> dict[str, object]:
        """The ``--format json`` document."""
        return {
            "rules": list(self.rules),
            "counts": self.counts(),
            "exit_code": self.exit_code,
            "findings": [finding.as_dict() for finding in self.findings],
        }


def run_lint(
    duts: Sequence[DutTarget | str] | None = None,
    *,
    rules: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
    registry: MethodRegistry | None = None,
    compositions: Sequence[CompositionTarget | str] | None = None,
) -> LintReport:
    """Statically analyse the registered targets without executing a job.

    Parameters
    ----------
    duts:
        DUT targets (or names) to analyse; default all registered DUTs.
    rules / ignore:
        Rule-id filters, see :func:`select_rules`.
    registry:
        Method registry override; default the shared default registry.
    compositions:
        Composition targets (or names) to analyse with the family-M rules;
        default all registered compositions on a whole-registry run
        (``duts=None``), none when DUTs are selected explicitly.
    """
    selected = select_rules(rules, ignore)
    context = LintContext(duts, registry=registry, compositions=compositions)
    findings: list[LintFinding] = []
    for rule in selected:
        findings.extend(rule.check(context, rule))
    return LintReport(
        findings=sort_findings(findings),
        rules=tuple(rule.id for rule in selected),
    )


class LintError(TargetError):
    """Raised by :func:`preflight_lint` when the analysis finds errors."""

    def __init__(self, message: str, findings: tuple[LintFinding, ...] = ()):
        super().__init__(message)
        self.findings = findings


def preflight_lint(target: DutTarget | CompositionTarget | str) -> LintReport:
    """Lint one target and raise :class:`LintError` on error findings.

    This is the ``preflight="lint"`` hook of
    :func:`repro.targets.run_single` and
    :func:`repro.targets.build_campaign`: warnings and notes pass, errors
    abort before any stand is built.  *target* is a DUT or a composition,
    or the registered name of either.  A composition is linted with its
    member DUTs plus the family-M composition rules: a composed campaign is
    only as sound as its members, so their single-DUT findings gate it too.
    """
    if isinstance(target, str):
        target = get_target(target)
    if isinstance(target, CompositionTarget):
        report = run_lint([member.dut for member in target.members],
                          compositions=[target])
    else:
        report = run_lint([target])
    errors = report.errors
    if errors:
        listed = "; ".join(
            f"{finding.rule} at {finding.location}" for finding in errors[:5]
        )
        if len(errors) > 5:
            listed += f"; and {len(errors) - 5} more"
        raise LintError(
            f"lint preflight found {len(errors)} error(s): {listed}",
            findings=errors,
        )
    return report

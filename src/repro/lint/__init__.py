"""repro.lint: whole-program static analysis of the registered targets.

The analyzer walks every registered DUT, stand, suite, sheet and fault
catalogue **without executing a single job** and emits structured
:class:`~repro.lint.findings.LintFinding` diagnostics across four rule
families:

* **E** - expression/type checking of compiled limit parameters
  (:mod:`repro.lint.expressions`);
* **R** - reachability and dead-step analysis against the stands'
  allocation model (:mod:`repro.lint.reachability`);
* **C** - detection-coverage proof over the fault catalogues
  (:mod:`repro.lint.coverage`);
* **X** - executor-safety contracts: pickling, async run path, plan-cache
  fingerprint stability (:mod:`repro.lint.executor_safety`).

Every rule is documented in ``docs/lint-rules.md``.  Front ends: the
``repro-lint`` console script (:mod:`repro.lint.cli`), the
``preflight="lint"`` mode of :func:`repro.targets.run_single` /
:func:`repro.targets.build_campaign` (via :func:`preflight_lint`) and the
``--lint`` flag of ``repro-campaign --list-targets``.
"""

from .context import LintContext
from .engine import (
    ALL_RULES,
    LintError,
    LintReport,
    preflight_lint,
    rules_by_id,
    run_lint,
    select_rules,
)
from .executor_safety import blocking_execute_calls
from .findings import (
    ERROR,
    EXIT_CLEAN,
    EXIT_ERRORS,
    EXIT_WARNINGS,
    NOTE,
    SEVERITIES,
    WARNING,
    LintFinding,
    LintRule,
    exit_code_for,
    sort_findings,
)

__all__ = [
    "ALL_RULES",
    "ERROR",
    "EXIT_CLEAN",
    "EXIT_ERRORS",
    "EXIT_WARNINGS",
    "LintContext",
    "LintError",
    "LintFinding",
    "LintReport",
    "LintRule",
    "NOTE",
    "SEVERITIES",
    "WARNING",
    "blocking_execute_calls",
    "exit_code_for",
    "preflight_lint",
    "rules_by_id",
    "run_lint",
    "select_rules",
    "sort_findings",
]

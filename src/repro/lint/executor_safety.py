"""Rule family X: executor-safety rules.

The async and process executor backends impose contracts no type checker
enforces: campaign jobs must pickle (process backend), ``arun()`` paths
must never call a blocking ``execute`` (async backend), and the plan cache
is only correct when fingerprints are stable across rebuilds of the same
stand or script.  The persistent result store adds a fourth: names that
only differ in case merge silently under its case-insensitive queries.
The bytecode VM adds a fifth: a (sheet x stand) pair the VM cannot
compile silently runs on the classic interpreter forever.  The
resilience machinery adds a sixth: the retry classifier
(:func:`repro.core.errors.is_transient`) treats *unknown* exception
types as transient, so an instrument ``_perform`` core that raises a
bare ``Exception`` / ``RuntimeError`` for a permanent defect silently
burns retry attempts and backoff time on every occurrence.  These rules
verify all six statically.
"""

from __future__ import annotations

import ast
import inspect
import pickle
import textwrap

from ..core.compiler import Compiler
from ..core.errors import AllocationError
from ..teststand import vm
from ..teststand.plan import script_fingerprint, stand_fingerprint
from .context import LintContext
from .findings import ERROR, WARNING, LintRule

__all__ = ["RULES", "blocking_execute_calls", "unclassified_raises"]


# ---------------------------------------------------------------------------
# X-UNPICKLABLE-FACTORY
# ---------------------------------------------------------------------------

def _pickle_problem(value) -> str | None:
    """Why *value* would break the process backend, or ``None``."""
    qualname = getattr(value, "__qualname__", "")
    if "<locals>" in qualname:
        return (
            f"defined inside a function body ({qualname}); the process "
            f"backend pickles jobs by reference and cannot import it"
        )
    try:
        pickle.dumps(value)
    except Exception as exc:
        return f"not picklable: {exc}"
    return None


def _dut_factories(dut):
    yield "ecu_factory", dut.ecu_factory
    yield "harness_factory", dut.harness_factory
    yield "signals_factory", dut.signals_factory
    if dut.faults_factory is not None:
        yield "faults_factory", dut.faults_factory
    if dut.suite_factory is not None:
        yield "suite_factory", dut.suite_factory


def check_unpicklable_factory(context: LintContext, rule: LintRule):
    """Registered factories the process backend could not ship to workers."""
    for dut in context.duts:
        for name, factory in _dut_factories(dut):
            problem = _pickle_problem(factory)
            if problem is None:
                continue
            yield rule.finding(
                f"factory:{name}",
                f"registered {name} would break the process executor "
                f"backend: {problem}",
                hint="move the factory to module level (a def or "
                     "functools.partial of one)",
                dut=dut.name,
            )
        catalogue = context.catalogue(dut)
        if catalogue is None:
            continue
        for fault in catalogue:
            problem = _pickle_problem(fault.factory)
            if problem is None:
                continue
            yield rule.finding(
                f"fault:{fault.name}",
                f"fault factory would break the process executor backend: "
                f"{problem}",
                hint="define the faulty ECU as a module-level class",
                dut=dut.name,
            )
    for stand in context.stands:
        problem = _pickle_problem(stand.builder)
        if problem is None:
            continue
        yield rule.finding(
            f"stand:{stand.name} builder",
            f"stand builder would break the process executor backend: "
            f"{problem}",
            hint="register a module-level builder function",
        )


# ---------------------------------------------------------------------------
# X-BLOCKING-EXECUTE-IN-ASYNC
# ---------------------------------------------------------------------------

class _AsyncExecuteVisitor(ast.NodeVisitor):
    """Find ``.execute(`` attribute calls lexically inside ``async def``.

    A stack of function kinds keeps nested *sync* helpers defined inside an
    async function from being flagged: only calls whose innermost enclosing
    function is async block the event loop.
    """

    def __init__(self):
        self.stack: list[bool] = []
        self.calls: list[tuple[int, str]] = []

    def visit_FunctionDef(self, node):
        self.stack.append(False)
        self.generic_visit(node)
        self.stack.pop()

    def visit_AsyncFunctionDef(self, node):
        self.stack.append(True)
        self.generic_visit(node)
        self.stack.pop()

    def visit_Call(self, node):
        func = node.func
        if (isinstance(func, ast.Attribute) and func.attr == "execute"
                and self.stack and self.stack[-1]):
            self.calls.append((node.lineno, ast.unparse(func)))
        self.generic_visit(node)


def blocking_execute_calls(source: str) -> tuple[tuple[int, str], ...]:
    """``(lineno, call)`` for blocking ``.execute(`` calls in async defs.

    Exposed for test fixtures; the rule applies it to the interpreter,
    executor and instrument-base sources.
    """
    visitor = _AsyncExecuteVisitor()
    visitor.visit(ast.parse(textwrap.dedent(source)))
    return tuple(visitor.calls)


def check_blocking_execute(context: LintContext, rule: LintRule):
    """Blocking instrument calls reachable from the async run path."""
    from ..instruments import base as instruments_base
    from ..teststand import executor, interpreter

    for module in (interpreter, executor, vm, instruments_base):
        try:
            source = inspect.getsource(module)
        except Exception:
            continue
        for lineno, call in blocking_execute_calls(source):
            yield rule.finding(
                f"module:{module.__name__} line:{lineno}",
                f"async function calls blocking {call}(...); on the async "
                f"backend this stalls the event loop for the instrument's "
                f"full settle time",
                hint="await the instrument's aexecute() instead",
            )


# ---------------------------------------------------------------------------
# X-UNSTABLE-FINGERPRINT
# ---------------------------------------------------------------------------

def check_unstable_fingerprint(context: LintContext, rule: LintRule):
    """Fingerprints that change across rebuilds poison the plan cache.

    The plan cache keys on (script, stand, registry) *content*
    fingerprints.  A stand builder or suite factory that produces different
    content on every call - a timestamp in a variable, a random resource
    ordering - makes every campaign run recompile all plans and silently
    grow the cache.  Building twice and comparing is the cheapest honest
    check.
    """
    for stand in context.stands:
        try:
            first, second = stand.builder(), stand.builder()
        except Exception:
            continue  # registration already reports broken builders
        try:
            stable = stand_fingerprint(first) == stand_fingerprint(second)
        except Exception:
            continue
        if stable:
            continue
        yield rule.finding(
            f"stand:{stand.name}",
            f"two builds of the stand produce different content "
            f"fingerprints; every execution plan cache lookup misses",
            hint="make the builder deterministic (stable resource order, "
                 "no per-build timestamps in variables)",
        )
    for dut in context.duts:
        if dut.suite_factory is None:
            continue
        try:
            suites = (dut.suite_factory(), dut.suite_factory())
            signal_sets = (dut.signals_factory(), dut.signals_factory())
            compiled = [
                {
                    script.name: script_fingerprint(script, signals)
                    for script in Compiler(
                        registry=context.registry).compile_suite(suite)
                }
                for suite, signals in zip(suites, signal_sets)
            ]
        except Exception:
            continue
        for name, fingerprint in compiled[0].items():
            other = compiled[1].get(name)
            if other is None or fingerprint == other:
                continue
            yield rule.finding(
                f"sheet:{name}",
                f"two compilations of the sheet produce different script "
                f"fingerprints; its execution plans can never be reused "
                f"from the cache",
                hint="make the suite factory deterministic (stable step "
                     "and parameter ordering)",
                dut=dut.name,
            )


# ---------------------------------------------------------------------------
# X-UNSTORABLE-RESULT
# ---------------------------------------------------------------------------

def check_unstorable_result(context: LintContext, rule: LintRule):
    """Names that would silently merge rows in the persistent result store.

    The result store (:mod:`repro.store`) and the campaign machinery match
    names case-insensitively: ``ResultStore.query`` compares DUT, stand and
    group names with ``LOWER(...)``, and run-vs-run diffs key rows on the
    ``group/sheet`` job id.  Two registered sheets or two campaign groups
    whose names differ only in case therefore land in the *same* query
    bucket - their stored verdicts merge without any error.  The built-in
    :class:`~repro.core.suite.TestSuite` and
    :class:`~repro.analysis.faults.FaultCatalogue` already reject such
    duplicates at registration, so in practice this fires for duck-typed
    suite factories and for a fault model named ``"Baseline"``, which
    collides with the implicit healthy-ECU campaign group.
    """
    from ..analysis.campaign import BASELINE_GROUP

    for dut in context.duts:
        seen_sheets: dict[str, str] = {}
        for script in context.scripts(dut):
            key = script.name.strip().lower()
            other = seen_sheets.setdefault(key, script.name)
            if other == script.name:
                continue
            yield rule.finding(
                f"sheet:{script.name}",
                f"sheet name collides case-insensitively with sheet "
                f"{other!r}; the result store matches names "
                f"case-insensitively, so their stored verdict rows merge "
                f"silently",
                hint="rename one of the sheets so the names differ by more "
                     "than case",
                dut=dut.name,
            )
        catalogue = context.catalogue(dut)
        if catalogue is None:
            continue
        groups: dict[str, str] = {BASELINE_GROUP.lower(): BASELINE_GROUP}
        for fault in catalogue:
            key = fault.name.strip().lower()
            other = groups.setdefault(key, fault.name)
            if other == fault.name:
                continue
            if other == BASELINE_GROUP:
                message = (
                    f"fault-model name collides case-insensitively with the "
                    f"implicit {BASELINE_GROUP!r} campaign group; its stored "
                    f"rows merge with the healthy-ECU baseline in store "
                    f"queries and run diffs"
                )
                hint = "rename the fault model (the baseline group name " \
                       "is reserved)"
            else:
                message = (
                    f"fault-model name collides case-insensitively with "
                    f"fault {other!r}; the result store matches group names "
                    f"case-insensitively, so their stored verdict rows "
                    f"merge silently"
                )
                hint = "rename one of the fault models so the names " \
                       "differ by more than case"
            yield rule.finding(
                f"fault:{fault.name}", message, hint=hint, dut=dut.name,
            )


# ---------------------------------------------------------------------------
# X-UNCOMPILABLE-SCRIPT
# ---------------------------------------------------------------------------

def check_uncompilable_script(context: LintContext, rule: LintRule):
    """(sheet x stand) pairs the bytecode VM cannot compile.

    Compiles every registered combination pre-flight exactly the way the
    plan cache would on first run.  A combination the VM cannot compile
    silently takes the classic interpreter on every run - the campaign
    still produces correct verdicts, but the ``--vm`` speedup the operator
    asked for never materialises.  Only pairs the stand can actually serve
    are judged: a stand missing the sheet's methods, or a step no resource
    can be allocated for, is R-UNSERVABLE-STEP territory, not a VM gap.
    """
    for dut in context.duts:
        try:
            signals = dut.signals_factory()
        except Exception:
            continue
        for script in context.scripts(dut):
            methods = script.methods_used()
            for target in context.eligible_stands(dut):
                if target.missing_methods(methods):
                    continue
                instance = context.stand_instance(target, dut)
                if instance is None:
                    continue
                try:
                    vm.compile_program(
                        script, signals, instance,
                        policy="first_fit", registry=context.registry,
                        variables=context.stand_variables(instance),
                    )
                except vm.VmCompileError as exc:
                    if isinstance(exc.__cause__, AllocationError):
                        # The combination errors identically on the classic
                        # path - that is R-UNSERVABLE-STEP territory, not a
                        # VM expressibility gap.
                        continue
                    reason = f"{exc.op}: {exc.reason}"
                except Exception as exc:
                    reason = f"plan compilation raised {exc!r}"
                else:
                    continue
                yield rule.finding(
                    f"sheet:{script.name} stand:{target.name}",
                    f"the bytecode VM cannot compile this sheet for stand "
                    f"{target.name!r} ({reason}); every run of the "
                    f"combination degrades to the classic interpreter",
                    hint="rewrite the failing op in VM-expressible form "
                         "(numeric wait durations, resolvable signals) or "
                         "accept the classic-path cost with --no-vm",
                    dut=dut.name,
                )


# ---------------------------------------------------------------------------
# X-UNCLASSIFIED-RAISE
# ---------------------------------------------------------------------------

#: Exception names whose raise carries no retry classification: the
#: executor's :func:`~repro.core.errors.is_transient` retries anything it
#: does not recognise, so these retry even when the defect is permanent.
_UNCLASSIFIED_NAMES = ("Exception", "RuntimeError")


class _UnclassifiedRaiseVisitor(ast.NodeVisitor):
    """Find ``raise Exception(...)`` / ``raise RuntimeError(...)`` statements."""

    def __init__(self):
        self.raises: list[tuple[int, str]] = []

    def visit_Raise(self, node):
        target = node.exc
        if isinstance(target, ast.Call):
            target = target.func
        if isinstance(target, ast.Name) and target.id in _UNCLASSIFIED_NAMES:
            self.raises.append((node.lineno, target.id))
        self.generic_visit(node)


def unclassified_raises(source: str) -> tuple[tuple[int, str], ...]:
    """``(lineno, exception name)`` for unclassified raises in *source*.

    Exposed for test fixtures; the rule applies it to the ``_perform`` /
    ``_aperform`` cores of every instrument class found on a registered
    stand.
    """
    visitor = _UnclassifiedRaiseVisitor()
    visitor.visit(ast.parse(textwrap.dedent(source)))
    return tuple(visitor.raises)


def check_unclassified_raise(context: LintContext, rule: LintRule):
    """Instrument cores whose failures the retry classifier cannot read.

    Walks the instruments of every registered stand and AST-scans the
    ``_perform`` / ``_aperform`` methods each class defines itself.  A
    ``raise Exception(...)`` or ``raise RuntimeError(...)`` there is
    invisible to :func:`repro.core.errors.is_transient` - unknown types
    default to *transient*, so a permanent instrument defect gets retried
    with backoff on every job instead of failing fast.
    """
    seen: set[type] = set()
    for stand in context.stands:
        try:
            instance = stand.builder()
        except Exception:
            continue  # registration already reports broken builders
        for resource in instance.resources:
            cls = type(resource.instrument)
            if cls in seen:
                continue
            seen.add(cls)
            for method_name in ("_perform", "_aperform"):
                method = vars(cls).get(method_name)
                if method is None:
                    continue
                try:
                    source = inspect.getsource(method)
                except Exception:
                    continue
                for lineno, name in unclassified_raises(source):
                    yield rule.finding(
                        f"instrument:{cls.__name__}.{method_name} "
                        f"line:{lineno}",
                        f"instrument core raises bare {name}; the retry "
                        f"classifier treats unknown exception types as "
                        f"transient, so this failure is retried with "
                        f"backoff even when it is permanent",
                        hint="raise InstrumentIOError for transient I/O "
                             "faults, or a permanent classified error "
                             "(InstrumentError, ConfigurationError) for "
                             "real defects",
                    )


RULES = (
    LintRule(
        "X-UNPICKLABLE-FACTORY", ERROR,
        "a registered factory would break the process executor backend",
        check_unpicklable_factory,
    ),
    LintRule(
        "X-BLOCKING-EXECUTE-IN-ASYNC", WARNING,
        "a blocking execute() call is reachable from the async run path",
        check_blocking_execute,
    ),
    LintRule(
        "X-UNSTABLE-FINGERPRINT", WARNING,
        "rebuilding a stand or suite changes its plan-cache fingerprint",
        check_unstable_fingerprint,
    ),
    LintRule(
        "X-UNSTORABLE-RESULT", WARNING,
        "sheet or fault-group names collide case-insensitively and would "
        "merge rows in the result store",
        check_unstorable_result,
    ),
    LintRule(
        "X-UNCOMPILABLE-SCRIPT", WARNING,
        "the bytecode VM cannot compile a (sheet x stand) pair; its runs "
        "silently degrade to the classic interpreter",
        check_uncompilable_script,
    ),
    LintRule(
        "X-UNCLASSIFIED-RAISE", WARNING,
        "an instrument core raises bare Exception/RuntimeError, which the "
        "retry classifier must treat as transient",
        check_unclassified_raise,
    ),
)

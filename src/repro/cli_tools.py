"""The command-line tools beside a plain campaign run.

``repro-compile``, ``repro-run`` and ``repro-report`` (see :mod:`repro.cli`
for all four tools), and the ``--list-targets`` and ``--profile`` modes of
``repro-campaign``.  A plain campaign process never imports this module:
:mod:`repro.cli` imports it for those two modes, and resolves
``repro.cli.main_compile``, ``main_run`` and ``main_report`` here on first
use.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

from . import targets
from .cli import EXIT_ERROR, _freeze_heap_at_exit
from .targets import RunSpec, TargetError
from .teststand.allocator import ALLOCATION_POLICIES
from .teststand.report import format_table, summary_line, text_report
from .teststand.verdict import Verdict

__all__ = ["main_compile", "main_run", "main_report"]


def main_compile(argv: Sequence[str] | None = None) -> int:
    """Entry point of ``repro-compile``: workbook directory -> XML scripts.

    Loads the CSV workbook (``signals.csv``, ``status.csv``, ``test_*.csv``),
    compiles every test definition sheet and writes one XML test script per
    sheet into the output directory.  Returns 0 on success, 2 when the
    workbook cannot be loaded or the scripts cannot be written.
    """
    _freeze_heap_at_exit()
    parser = argparse.ArgumentParser(
        prog="repro-compile",
        description="Generate XML test scripts from a CSV workbook directory.",
    )
    parser.add_argument("workbook", help="directory containing signals.csv, status.csv, test_*.csv")
    parser.add_argument("output", help="directory to write the generated XML scripts into")
    args = parser.parse_args(argv)

    from .core.compiler import Compiler
    from .core.xmlgen import write_script
    from .sheets.workbook import load_suite

    try:
        suite = load_suite(args.workbook)
    except Exception as exc:
        print(f"error: cannot load workbook {args.workbook!r}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    compiler = Compiler()
    written = []
    try:
        os.makedirs(args.output, exist_ok=True)
        for test in suite:
            script = compiler.compile_test(suite, test)
            path = os.path.join(args.output, f"{script.name}.xml")
            write_script(script, path)
            written.append(path)
    except Exception as exc:
        print(f"error: cannot write scripts to {args.output!r}: {exc}",
              file=sys.stderr)
        return EXIT_ERROR
    print(f"compiled {len(written)} test script(s) from {args.workbook!r}:")
    for path in written:
        print(f"  {path}")
    return 0


def main_run(argv: Sequence[str] | None = None) -> int:
    """Entry point of ``repro-run``: execute one XML script on one stand.

    Expands a :class:`~repro.targets.RunSpec` through the registry (the
    script's own DUT name picks the registered DUT or composition;
    ``--stand`` defaults to a stand carrying that target's adapter) and
    prints the step-by-step report.  Returns 0 when the script passed, 1
    on a FAIL verdict, 2 when the script could not be executed at all.
    """
    _freeze_heap_at_exit()
    parser = argparse.ArgumentParser(
        prog="repro-run",
        description="Execute an XML test script on a registered virtual test stand.",
    )
    parser.add_argument("script", help="path of the XML test script")
    parser.add_argument("--stand", choices=targets.stand_names(), default=None,
                        help="which virtual test stand to use (default: one "
                             "that carries the DUT's adapter)")
    parser.add_argument("--policy", choices=ALLOCATION_POLICIES,
                        default="first_fit", help="resource allocation policy")
    parser.add_argument("--quiet", action="store_true", help="print only the summary line")
    args = parser.parse_args(argv)

    from .core.xmlparse import read_script

    try:
        script = read_script(args.script)
    except Exception as exc:
        print(f"error: cannot read script {args.script!r}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    try:
        result = targets.run_single(
            RunSpec(script=script, stand=args.stand, policy=args.policy)
        )
    except TargetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:
        # A crashing (possibly third-party) factory or stand builder is an
        # infrastructure problem; keep the documented exit-2 contract.
        print(f"error: run failed: {exc}", file=sys.stderr)
        return EXIT_ERROR

    if args.quiet:
        print(summary_line(result))
    else:
        print(text_report(result))
    if result.verdict is Verdict.ERROR:
        # The script could not be executed (allocation failure, unknown
        # signal, instrument error) - an infrastructure problem, not a
        # verdict about the DUT.
        return EXIT_ERROR
    return 0 if result.passed else 1


def _report_from_store(args, parser: argparse.ArgumentParser) -> int:
    """The ``repro-report --store`` modes: list / re-render / diff / html."""
    import json as _json
    from datetime import datetime, timezone

    from .store import ResultStore, StoreError

    modes = [args.list, args.run is not None, args.diff is not None,
             args.html is not None]
    if sum(1 for mode in modes if mode) != 1:
        parser.error("--store needs exactly one of --list, --run ID, "
                     "--diff A B or --html DIR")
    try:
        store = ResultStore(args.store)
        if args.list:
            runs = store.list_runs()
            if args.format == "json":
                print(_json.dumps([
                    {
                        "run": info.run_id, "created_at": info.created_at,
                        "dut": info.dut, "stand": info.stand,
                        "backend": info.backend, "workers": info.workers,
                        "jobs": info.jobs, "verdict": info.verdict,
                        "wall_time": info.wall_time, "git_sha": info.git_sha,
                        "repro_version": info.repro_version,
                    }
                    for info in runs
                ], indent=2))
            else:
                header = ("run", "recorded (UTC)", "dut", "backend", "jobs",
                          "verdict", "version", "git")
                rows = [
                    (str(info.run_id),
                     datetime.fromtimestamp(info.created_at, timezone.utc)
                     .strftime("%Y-%m-%d %H:%M:%S"),
                     info.dut or "-", info.backend, str(info.jobs),
                     info.verdict.upper(), info.repro_version,
                     info.git_sha[:12] or "-")
                    for info in runs
                ]
                print(format_table(header, rows))
            return 0
        if args.run is not None:
            run = store.get_run(args.run)
            if args.format == "json":
                print(_json.dumps(run.execution_report().to_dict(), indent=2))
            else:
                # Byte-identical to the repro-campaign stdout that produced
                # the run: fault table + campaign summary line.
                print(run.render())
            return 0
        if args.diff is not None:
            diff = store.diff_runs(args.diff[0], args.diff[1])
            if args.format == "json":
                print(_json.dumps({
                    "run_a": diff.run_a, "run_b": diff.run_b,
                    "empty": diff.empty,
                    "changed": [
                        {"job": d.job, "verdict_a": d.verdict_a,
                         "verdict_b": d.verdict_b}
                        for d in diff.changed
                    ],
                    "only_a": list(diff.only_a),
                    "only_b": list(diff.only_b),
                }, indent=2))
            else:
                print(diff.table())
                print(diff.summary())
            return 0 if diff.empty else 1
        from .service.reportgen import generate_site
        written = generate_site(store, args.html)
        print(f"wrote {len(written)} page(s) to {args.html}")
        return 0
    except StoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"error: cannot use store {args.store!r}: {exc}",
              file=sys.stderr)
        return EXIT_ERROR


def main_report(argv: Sequence[str] | None = None) -> int:
    """Entry point of ``repro-report``: script summaries and stored runs.

    Without ``--store`` it prints a static summary of an XML script (DUT,
    step/action counts, simulated duration, signals / methods / variables)
    without executing anything.  With ``--store PATH`` it reads the
    persistent result store instead: ``--list`` the recorded runs,
    ``--run ID`` re-renders one run's fault table byte-identically to the
    ``repro-campaign`` stdout that produced it (``--format json`` emits the
    full schema-versioned execution report), ``--diff A B`` prints per-sheet
    verdict deltas (exit 1 when the runs differ), and ``--html DIR``
    generates the static HTML report site.  Returns 0, 1 for a non-empty
    diff, 2 for unreadable scripts or store problems.
    """
    _freeze_heap_at_exit()
    parser = argparse.ArgumentParser(
        prog="repro-report",
        description="Summarise an XML test script, or list / re-render / "
                    "diff / export runs from a persistent result store.",
    )
    parser.add_argument("script", nargs="?", default=None,
                        help="path of the XML test script (omit when using "
                             "--store)")
    parser.add_argument("--store", default=None, metavar="PATH",
                        help="read the persistent result store at PATH "
                             "instead of a script")
    parser.add_argument("--list", action="store_true",
                        help="with --store: list the recorded runs")
    parser.add_argument("--run", type=int, default=None, metavar="ID",
                        help="with --store: re-render the stored run "
                             "(byte-identical to the producing "
                             "repro-campaign stdout)")
    parser.add_argument("--diff", nargs=2, type=int, default=None,
                        metavar=("A", "B"),
                        help="with --store: per-sheet verdict deltas "
                             "between two runs (exit 1 when not empty)")
    parser.add_argument("--html", default=None, metavar="DIR",
                        help="with --store: generate the static HTML "
                             "report site into DIR")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format for --list / --run / --diff")
    args = parser.parse_args(argv)

    if args.store is not None:
        if args.script is not None:
            parser.error("--store cannot be combined with a script path")
        return _report_from_store(args, parser)
    if args.script is None:
        parser.error("a script path or --store PATH is required")

    from .core.xmlparse import read_script

    try:
        script = read_script(args.script)
    except Exception as exc:
        print(f"error: cannot read script {args.script!r}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    print(f"script    : {script.name}")
    print(f"DUT       : {script.dut}")
    print(f"steps     : {len(script.steps)}")
    print(f"actions   : {script.action_count()}")
    print(f"duration  : {script.total_duration:g} s (simulated)")
    print(f"signals   : {', '.join(script.signals_used())}")
    print(f"methods   : {', '.join(script.methods_used())}")
    print(f"variables : {', '.join(script.variables) or '-'}")
    return 0


# -- repro-campaign modes -----------------------------------------------------

def _coverage_cell(missing: tuple[str, ...] | None) -> str:
    if missing is None:
        return "unknown"
    if not missing:
        return "ok"
    return "no " + ", no ".join(missing)


def _lint_cell(report, dut_name: str) -> str:
    """Per-DUT lint counts for the ``--list-targets --lint`` listing."""
    findings = [f for f in report.findings if f.dut == dut_name]
    if not findings:
        return "clean"
    counts = {}
    for finding in findings:
        counts[finding.severity] = counts.get(finding.severity, 0) + 1
    return ", ".join(
        f"{counts[severity]} {severity}(s)"
        for severity in ("error", "warning", "note")
        if severity in counts
    )


def _print_target_listing(*, lint: bool = False) -> None:
    """Print the registered DUTs and stands with their method coverage
    (``--list-targets``).

    Per DUT the ``coverage:`` line shows every stand carrying the DUT's
    adapter and whether it supports all methods of the bundled suite
    (e.g. ``bare_bench no get_i``) - the registration-time capability
    negotiation that :func:`repro.targets.run_campaign` enforces as a
    pre-flight check.  With ``--lint`` a ``lint:`` line is appended per
    DUT with the static analyzer's finding counts (``repro-lint`` prints
    the findings themselves).
    """
    report = None
    if lint:
        from .lint import run_lint

        report = run_lint()
    print("registered DUTs:")
    for target in sorted(targets.iter_duts(), key=lambda t: t.key):
        sheets = len(target._bundled[2]) if target.suite_factory else 0
        fault_count = len(target.faults_factory()) if target.faults_factory else 0
        pins = ", ".join(target.pins) if target.pins else "paper default"
        print(f"  {target.name}")
        print(f"      {target.description or '-'}")
        print(f"      sheets: {sheets}  faults: {fault_count}  adapter pins: {pins}")
        if target.required_methods:
            print(f"      suite methods: {', '.join(target.required_methods)}")
        coverage = targets.method_coverage(target)
        if coverage:
            rendered = "; ".join(
                f"{stand} {_coverage_cell(missing)}"
                for stand, missing in coverage.items()
            )
            print(f"      coverage: {rendered}")
        if report is not None:
            print(f"      lint: {_lint_cell(report, target.name)}")
    compositions = sorted(targets.iter_compositions(), key=lambda t: t.key)
    if compositions:
        print("registered compositions:")
        for comp in compositions:
            sheets = len(comp._bundled[2])
            fault_count = len(comp.faults_factory())
            members = ", ".join(
                f"{member.alias}={member.dut}" for member in comp.members
            )
            print(f"  {comp.name}  (--compose {comp.name})")
            print(f"      {comp.description or '-'}")
            print(f"      members: {members}")
            print(f"      sheets: {sheets}  member faults: {fault_count}  "
                  f"adapter pins: {', '.join(comp.pins)}")
    print("registered stands:")
    for stand in sorted(targets.iter_stands(), key=lambda t: t.key):
        kind = "adaptable" if stand.adaptable else "fixed paper pinning"
        print(f"  {stand.name} ({kind}): {stand.description or '-'}")
        methods = ", ".join(stand.methods) if stand.methods is not None \
            else "unknown (builder could not be probed)"
        print(f"      methods: {methods}")


def _run_profiled_campaign(spec, *, quiet: bool = False):
    """Run *spec* with per-phase timing; returns (result, rendered, lines).

    The run goes through :func:`repro.targets.run_campaign` like any other,
    so ``--store`` and ``--resume`` apply.  Phases: *job expansion* (spec
    -> compiled scripts -> jobs, the profiler's ``job_expansion`` phase),
    *execution* (the rest of the run: the backend run plus any store
    writes) split into the interpreter-attributed *allocation* and
    *instrument I/O* shares of classic-walk runs and the *VM* share of runs
    the bytecode VM served, and *aggregation* (rendering exactly the
    table/summary this invocation prints - the strings are returned so the
    caller prints rather than re-renders them).  The plan-cache delta over
    the campaign is reported alongside.  Worker processes ship their phase
    timings and plan-cache counters back with each result chunk, so
    ``--backend process`` shows the worker-side phases too (summed across
    workers, so they can exceed the parent's execution wall clock).
    """
    import time as _time

    from .teststand.plan import GLOBAL_PLAN_CACHE
    from .teststand.profiling import PROFILER

    cache_before = GLOBAL_PLAN_CACHE.stats.snapshot()
    PROFILER.reset()
    PROFILER.enable()
    try:
        t0 = _time.perf_counter()
        result = targets.run_campaign(spec)
        t1 = _time.perf_counter()
        rendered = {
            "table": None if quiet else result.table(),
            "summary": result.summary(),
        }
        t2 = _time.perf_counter()
    finally:
        PROFILER.disable()
    phases = PROFILER.snapshot()
    expansion = phases.get("job_expansion", (0.0, 0))[0]
    cache_after = GLOBAL_PLAN_CACHE.stats.snapshot()
    delta = {key: cache_after[key] - cache_before[key] for key in cache_after}

    def _phase(name: str) -> str:
        seconds, calls = phases.get(name, (0.0, 0))
        return f"{seconds:.3f} s across {calls} call(s)"

    lines = [
        f"profile: job expansion  {expansion:.3f} s",
        f"profile: execution      {t1 - t0 - expansion:.3f} s "
        f"(allocation {_phase('allocation')}; "
        f"instrument I/O {_phase('instrument_io')}; "
        f"VM {_phase('vm_execute')})",
        f"profile: aggregation    {t2 - t1:.3f} s",
        f"profile: plan cache     {delta['plans_compiled']} compile(s), "
        f"{delta['plan_hits']} plan hit(s) / {delta['plan_misses']} miss(es)",
        f"profile: vm             {delta['vm_runs']} run(s) on the bytecode "
        f"VM, {delta['vm_degraded']} degraded pre-flight",
    ]
    return result, rendered, lines

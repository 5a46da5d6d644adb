"""Command-line entry points.

Four small tools mirror the paper's workflow; all of them are thin layers
over the public target registry in :mod:`repro.targets`:

``repro-compile <workbook dir> <output dir>``
    read a CSV workbook (signal / status / test sheets) and generate one XML
    test script per test definition sheet,
``repro-run <script.xml> [--stand NAME] [--policy NAME]``
    execute an XML test script on one of the registered virtual test stands
    against the matching registered DUT or composition and print the report,
``repro-report <script.xml>``
    print a static summary of a script (signals, methods, duration) without
    executing it; with ``--store PATH`` it reads the persistent result
    store instead (``--list`` runs, ``--run ID`` byte-identical re-render,
    ``--diff A B`` per-sheet verdict deltas, ``--html DIR`` static report
    site),
``repro-campaign [<workbook dir>] [--dut NAME] [--stand NAME] [--jobs N]``
    run a fault-injection campaign for a DUT across a configurable worker
    pool, either from a compiled CSV workbook or - with ``--dut`` - from the
    DUT's bundled suite.  ``--backend`` picks one of the serial / thread /
    process / async execution backends (``--backend async --concurrency N``
    multiplexes up to N stands on one worker by awaiting instrument I/O).
    ``--list-targets`` prints every registered DUT and stand.
    ``--profile`` adds a per-phase timing breakdown (job expansion /
    allocation / instrument I/O / VM / aggregation, plan-cache and VM run
    counts) on stderr.  ``--store PATH`` records the finished campaign into
    the persistent result store (see :mod:`repro.store`), ``--format json``
    emits a JSON document (rendered table + full execution report) instead
    of the text table.  The verdict tables on stdout are byte-identical
    for any ``--jobs`` / ``--backend`` / ``--concurrency`` combination;
    timing goes to stderr.

Exit codes distinguish verdicts from infrastructure problems so CI
consumers can tell DUT regressions from broken setups:

* ``0`` - the run / campaign passed,
* ``1`` - the DUT misbehaved (a FAIL verdict, a dirty campaign baseline, or
  a fault the catalogue expects to be caught slipping through),
* ``2`` - the test could not be executed (unknown DUT / stand / fault,
  unreadable script or workbook, no stand adapter, an ERROR verdict).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

from .teststand.allocator import ALLOCATION_POLICIES
from .teststand.executor import EXECUTION_BACKENDS
from .teststand.report import summary_line, text_report
from .teststand.verdict import Verdict
from . import chaos as chaos_mod
from . import targets
from .targets import CampaignSpec, RunSpec, TargetError

__all__ = [
    "main_compile",
    "main_run",
    "main_report",
    "main_campaign",
]

#: Exit code for infrastructure errors (vs. 1 for genuine DUT regressions).
EXIT_ERROR = 2


def main_compile(argv: Sequence[str] | None = None) -> int:
    """Entry point of ``repro-compile``: workbook directory -> XML scripts.

    Loads the CSV workbook (``signals.csv``, ``status.csv``, ``test_*.csv``),
    compiles every test definition sheet and writes one XML test script per
    sheet into the output directory.  Returns 0 on success, 2 when the
    workbook cannot be loaded or the scripts cannot be written.
    """
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


# -- fault campaigns ------------------------------------------------------------

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
        sheets = len(target.suite_factory()) if target.suite_factory else 0
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
            sheets = len(comp.suite_factory())
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


def main_campaign(argv: Sequence[str] | None = None) -> int:
    """Entry point of ``repro-campaign``: fault-injection campaigns.

    Builds a :class:`~repro.targets.CampaignSpec` from the arguments (a
    workbook directory, or ``--dut`` for a registered DUT's bundled suite)
    and runs it on the chosen execution backend: ``--jobs N`` sizes the
    thread / process pools, ``--backend async --concurrency N`` multiplexes
    up to N stands on one worker.  The verdict table on stdout is
    byte-identical for every backend choice; timing goes to stderr.
    Returns 0 on a clean campaign, 1 for genuine DUT regressions (dirty
    baseline, expected-caught fault escaping), 2 for infrastructure
    problems (unknown targets, capability gaps, ERROR baselines).
    """
    parser = argparse.ArgumentParser(
        prog="repro-campaign",
        description="Run a fault-injection campaign for a registered DUT "
                    "across a worker pool.",
    )
    parser.add_argument("workbook", nargs="?", default=None,
                        help="directory containing signals.csv, status.csv, "
                             "test_*.csv (omit to use the bundled suite of --dut)")
    parser.add_argument("--dut", default=None, metavar="NAME",
                        help="registered DUT whose bundled suite to campaign "
                             "(required when no workbook is given)")
    parser.add_argument("--compose", default=None, metavar="NAME",
                        help="registered multi-ECU composition to campaign "
                             "(e.g. lock+cluster): its members share one CAN "
                             "bus and the interaction suite drives them "
                             "end-to-end; mutually exclusive with --dut")
    parser.add_argument("--stand", choices=targets.stand_names(), default=None,
                        help="which virtual test stand to use (default: one "
                             "that carries the DUT's adapter)")
    parser.add_argument("--policy", choices=ALLOCATION_POLICIES,
                        default="first_fit", help="resource allocation policy")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker count for parallel execution (default: 1)")
    parser.add_argument("--backend", choices=EXECUTION_BACKENDS + ("auto",),
                        default="auto",
                        help="execution backend (default: auto = serial for "
                             "--jobs 1, threads otherwise; async multiplexes "
                             "many stands on one worker)")
    parser.add_argument("--concurrency", type=int, default=0, metavar="N",
                        help="multiplex width of the async backend: how many "
                             "stands the one async worker may keep in flight "
                             "(default: --jobs, or 8 when that is 1; other "
                             "backends ignore it)")
    parser.add_argument("--faults", default="",
                        help="comma-separated fault names to inject "
                             "(default: the DUT's whole catalogue)")
    parser.add_argument("--retries", type=int, default=1, metavar="N",
                        help="extra attempts per job after a transient error "
                             "(default: 1; 0 disables retrying)")
    parser.add_argument("--deadline", type=float, default=None,
                        metavar="SECONDS",
                        help="per-job wall-clock budget shared across its "
                             "retry attempts; a job that overruns it is "
                             "reported as an ERROR (JobTimeoutError) "
                             "instead of hanging the campaign")
    parser.add_argument("--chaos-seed", type=int, default=None, metavar="N",
                        help="inject deterministic infrastructure faults "
                             "from this seed (see docs/robustness.md); the "
                             "same seed reproduces the same fault schedule "
                             "on every backend")
    parser.add_argument("--chaos-profile",
                        choices=sorted(chaos_mod.PROFILES), default=None,
                        help="which chaos fault mix to inject (default with "
                             "--chaos-seed: flaky-instruments)")
    parser.add_argument("--vm", action=argparse.BooleanOptionalAction,
                        default=True,
                        help="execute runs on the compiled bytecode VM when "
                             "the cached plan carries a program (default: "
                             "on; --no-vm forces the classic per-action "
                             "interpreter - the verdict table is "
                             "byte-identical either way)")
    parser.add_argument("--store", default=None, metavar="PATH",
                        help="record the finished campaign into the "
                             "persistent result store at PATH (sqlite; "
                             "created on first use); the assigned run id "
                             "is reported on stderr and the stored run "
                             "re-renders this stdout byte-identically via "
                             "repro-report --store PATH --run ID")
    parser.add_argument("--resume", action="store_true",
                        help="checkpoint each finished job into --store and "
                             "skip jobs already checkpointed by an earlier "
                             "(killed) run of the same campaign; the final "
                             "report is byte-identical to an uninterrupted "
                             "run (requires --store)")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="stdout format: the default text verdict "
                             "table, or a single JSON document carrying "
                             "the rendered table/summary plus the full "
                             "schema-versioned execution report "
                             "(ExecutionReport.to_dict)")
    parser.add_argument("--quiet", action="store_true",
                        help="print only the campaign summary line "
                             "(text format)")
    parser.add_argument("--profile", action="store_true",
                        help="print a per-phase timing breakdown (job "
                             "expansion / allocation / instrument I/O / VM / "
                             "aggregation, plus plan-cache and VM run "
                             "counts) on stderr; the process backend "
                             "merges its workers' phase timings in")
    parser.add_argument("--list-targets", action="store_true",
                        help="list the registered DUTs and stands, then exit")
    parser.add_argument("--lint", action="store_true",
                        help="with --list-targets: append each DUT's static-"
                             "analysis finding counts (see repro-lint)")
    args = parser.parse_args(argv)

    if args.list_targets:
        _print_target_listing(lint=args.lint)
        return 0
    if args.dut is not None and args.compose is not None:
        parser.error("--dut and --compose are mutually exclusive")
    if args.workbook is not None and args.compose is not None:
        parser.error("--compose uses the composition's bundled interaction "
                     "suite; a workbook directory cannot be combined with it")
    if args.workbook is None and args.dut is None and args.compose is None:
        parser.error("a workbook directory, --dut NAME or --compose NAME "
                     "is required")
    if args.resume and args.store is None:
        parser.error("--resume checkpoints into the result store and needs "
                     "--store PATH")
    if args.chaos_profile is not None and args.chaos_seed is None:
        parser.error("--chaos-profile needs --chaos-seed N (the seed makes "
                     "the fault schedule deterministic)")

    try:
        spec = CampaignSpec(
            dut=args.dut,
            composition=args.compose,
            workbook=args.workbook,
            stand=args.stand,
            faults=args.faults,  # comma-separated; parsed by CampaignSpec
            policy=args.policy,
            backend=args.backend,
            jobs=args.jobs,
            concurrency=args.concurrency,
            retries=args.retries,
            use_vm=args.vm,
            store=args.store,
            resume=args.resume,
            deadline=args.deadline,
            chaos_seed=args.chaos_seed,
            chaos_profile=args.chaos_profile or "",
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    try:
        if args.profile:
            result, rendered, profile_lines = _run_profiled_campaign(
                spec, quiet=args.quiet)
        else:
            result = targets.run_campaign(spec)
            rendered = {}
            profile_lines = ()
    except TargetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:
        print(f"error: campaign failed: {exc}", file=sys.stderr)
        return EXIT_ERROR

    if args.format == "json":
        import json as _json

        document = {
            "kind": "campaign-result",
            "dut": args.dut,
            "composition": args.compose,
            "table": rendered.get("table") or result.table(),
            "summary": rendered.get("summary") or result.summary(),
            "store_run_id": result.store_run_id,
            "execution": result.execution.to_dict()
            if result.execution is not None else None,
        }
        print(_json.dumps(document, indent=2))
    else:
        if not args.quiet:
            print(rendered.get("table") or result.table())
        print(rendered.get("summary") or result.summary())
    if result.store_run_id is not None:
        print(f"recorded as run {result.store_run_id} in {args.store}",
              file=sys.stderr)
    if result.execution is not None:
        # Timing is scheduling-dependent, so it goes to stderr: stdout stays
        # byte-identical across --jobs / --backend choices.
        print(result.execution.summary(), file=sys.stderr)
    for line in profile_lines:
        print(line, file=sys.stderr)
    # An ERROR verdict on the *healthy* baseline means the campaign could
    # not actually be executed (allocation failure, unknown signal,
    # instrument fault) - an infrastructure problem, never a statement
    # about the DUT; without this check it would masquerade as a dirty
    # baseline or even as detections.  An ERROR that appears only under an
    # injected fault is attributable to that fault and counts as a
    # legitimate detection.
    if any(r.verdict is Verdict.ERROR for r in result.baseline):
        where = ("re-run without --quiet for the per-script detail"
                 if args.quiet else "see table")
        print(f"error: the baseline contains ERROR verdicts ({where}); "
              "the campaign could not actually be executed", file=sys.stderr)
        return EXIT_ERROR
    # Exit 1 only for genuine regressions: a dirty baseline, or a fault the
    # catalogue expects the suite to catch slipping through.  Detecting a
    # fault that was *not* expected to be caught is a pleasant surprise (a
    # richer suite closed a knowledge gap), never a failure.
    missed = [o for o in result.outcomes if o.fault.expected_detected and not o.detected]
    return 0 if result.baseline_clean and not missed else 1


def _report_from_store(args, parser: argparse.ArgumentParser) -> int:
    """The ``repro-report --store`` modes: list / re-render / diff / html."""
    import json as _json
    from datetime import datetime, timezone

    from .store import ResultStore, StoreError
    from .teststand.report import format_table

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


if __name__ == "__main__":  # pragma: no cover - manual invocation helper
    sys.exit(main_run())

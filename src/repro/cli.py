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
import atexit
import gc
import itertools
import sys
from typing import Sequence

from ._lazy import lazy_exports
from .teststand.allocator import ALLOCATION_POLICIES
from .teststand.executor import EXECUTION_BACKENDS
from .teststand.verdict import Verdict
from . import chaos as chaos_mod
from . import targets
from .targets import CampaignSpec, TargetError

# The other three tools live in :mod:`repro.cli_tools`, which a campaign
# process never imports.
__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "cli_tools": ("main_compile", "main_run", "main_report"),
})
__all__.append("main_campaign")

#: Exit code for infrastructure errors (vs. 1 for genuine DUT regressions).
EXIT_ERROR = 2

#: Calls of :func:`_freeze_heap_at_exit`; ``next`` on a count is atomic,
#: so exactly one call registers the handler, from any thread.
_FREEZE_CALLS = itertools.count()


def _freeze_heap_at_exit() -> None:
    """Have the interpreter's exit skip collecting what the tool built.

    While it clears the modules at exit, CPython runs full garbage
    collections over every object still alive: tens of milliseconds for a
    campaign process, spent freeing memory the process gives back anyway.
    :func:`gc.freeze` as an exit handler moves those objects out of the
    collector's reach, so the collections find almost nothing.
    Every other exit step still runs: the other exit handlers (the result
    store closes its connections, the process pool shuts down) and the
    flush of stdout and stderr, which ``os._exit`` would skip.  The freeze
    waits for exit because a caller of ``main_campaign`` that goes on
    running, such as a test session, must still collect its garbage.

    Every entry point calls this; the handler is registered once per
    process.
    """
    if next(_FREEZE_CALLS) == 0:
        atexit.register(gc.freeze)


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
    _freeze_heap_at_exit()
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
        from .cli_tools import _print_target_listing

        _print_target_listing(lint=args.lint)
        return 0
    if args.lint:
        parser.error("--lint adds finding counts to the --list-targets "
                     "listing and needs --list-targets")
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
            from .cli_tools import _run_profiled_campaign

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


if __name__ == "__main__":  # pragma: no cover - manual invocation helper
    from .cli_tools import main_run

    sys.exit(main_run())

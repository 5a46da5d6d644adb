"""Test-stand side of the tool chain: resources, routing, allocation, execution.

Single runs go through :class:`TestStandInterpreter`; whole campaigns go
through the job-based engine in :mod:`repro.teststand.executor`, which fans
(scripts x stands x fault models) out over serial / thread / process /
async backends and aggregates deterministically.  The async backend drives
many latency-simulated stands from one worker by awaiting instrument I/O
(:meth:`TestStandInterpreter.arun` / :func:`aexecute_job`).

Execution is compile-once-run-many: :mod:`repro.teststand.plan` caches the
compiled :class:`~repro.teststand.vm.VmProgram` per (script x
stand-topology x policy x variables) in :data:`GLOBAL_PLAN_CACHE`, so the
whole measurement loop executes as a flat bytecode stream
(:mod:`repro.teststand.vm`) - workers reuse pooled stands between jobs,
and the process backend dispatches jobs in chunks - all verdict-neutral
fast paths (see ``docs/performance.md`` and ``docs/execution-vm.md``).

Every name below is imported from its submodule on first use (see
:mod:`repro._lazy`), so a serial campaign does not load the report
serialiser.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "allocator": ("ALLOCATION_POLICIES", "Allocation", "Allocator"),
    "connection": (
        "ConnectionMatrix", "Connector", "DirectWire", "MuxChannel", "Route",
        "Switch",
    ),
    "executor": (
        "DEFAULT_ASYNC_CONCURRENCY", "EXECUTION_BACKENDS", "AsyncExecutor",
        "ExecutionReport", "Executor", "Job", "JobResult", "ProcessExecutor",
        "ResiliencePolicy", "SerialExecutor", "ThreadExecutor",
        "aexecute_job", "execute_job", "expand_jobs", "make_executor",
        "run_across_stands", "run_jobs",
    ),
    "interpreter": ("TestStandInterpreter", "run_script"),
    "plan": (
        "GLOBAL_PLAN_CACHE", "ExecutionPlan", "PlanCache", "PlanCacheStats",
        "compile_plan",
    ),
    "profiling": ("PROFILER", "PhaseProfiler"),
    "vm": ("VmCompileError", "VmCursor", "VmProgram", "compile_program"),
    "report": (
        "campaign_summary", "format_table", "json_report", "summary_line",
        "text_report",
    ),
    "resources": ("Resource", "ResourceTable"),
    "serialize": (
        "REPORT_SCHEMA", "report_from_dict", "report_to_dict",
        "result_from_dict", "result_to_dict", "script_from_dict",
        "script_to_dict",
    ),
    "stands": (
        "PAPER_PINS", "TestStand", "build_big_rack", "build_minimal_bench",
        "build_paper_stand", "full_crossbar",
    ),
    "verdict": ("ActionResult", "StepResult", "TestResult", "Verdict"),
})

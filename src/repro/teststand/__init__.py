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
"""

from .allocator import ALLOCATION_POLICIES, Allocation, Allocator
from .connection import (
    ConnectionMatrix,
    Connector,
    DirectWire,
    MuxChannel,
    Route,
    Switch,
)
from .executor import (
    DEFAULT_ASYNC_CONCURRENCY,
    EXECUTION_BACKENDS,
    AsyncExecutor,
    ExecutionReport,
    Executor,
    Job,
    JobResult,
    ProcessExecutor,
    ResiliencePolicy,
    SerialExecutor,
    ThreadExecutor,
    aexecute_job,
    execute_job,
    expand_jobs,
    make_executor,
    run_across_stands,
    run_jobs,
)
from .interpreter import TestStandInterpreter, run_script
from .plan import (
    GLOBAL_PLAN_CACHE,
    ExecutionPlan,
    PlanCache,
    PlanCacheStats,
    compile_plan,
)
from .profiling import PROFILER, PhaseProfiler
from .vm import VmCompileError, VmCursor, VmProgram, compile_program
from .report import campaign_summary, format_table, json_report, summary_line, text_report
from .resources import Resource, ResourceTable
from .serialize import (
    REPORT_SCHEMA,
    report_from_dict,
    report_to_dict,
    result_from_dict,
    result_to_dict,
    script_from_dict,
    script_to_dict,
)
from .stands import (
    PAPER_PINS,
    TestStand,
    build_big_rack,
    build_minimal_bench,
    build_paper_stand,
    full_crossbar,
)
from .verdict import ActionResult, StepResult, TestResult, Verdict

__all__ = [
    "Resource",
    "ResourceTable",
    "Connector",
    "Switch",
    "MuxChannel",
    "DirectWire",
    "Route",
    "ConnectionMatrix",
    "Allocation",
    "Allocator",
    "ALLOCATION_POLICIES",
    "TestStand",
    "build_paper_stand",
    "build_big_rack",
    "build_minimal_bench",
    "full_crossbar",
    "PAPER_PINS",
    "TestStandInterpreter",
    "run_script",
    "ExecutionPlan",
    "PlanCache",
    "PlanCacheStats",
    "GLOBAL_PLAN_CACHE",
    "compile_plan",
    "VmProgram",
    "VmCursor",
    "VmCompileError",
    "compile_program",
    "PROFILER",
    "PhaseProfiler",
    "EXECUTION_BACKENDS",
    "DEFAULT_ASYNC_CONCURRENCY",
    "Job",
    "JobResult",
    "ResiliencePolicy",
    "ExecutionReport",
    "Executor",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "AsyncExecutor",
    "make_executor",
    "execute_job",
    "aexecute_job",
    "expand_jobs",
    "run_jobs",
    "run_across_stands",
    "Verdict",
    "ActionResult",
    "StepResult",
    "TestResult",
    "format_table",
    "text_report",
    "json_report",
    "summary_line",
    "campaign_summary",
    "REPORT_SCHEMA",
    "report_to_dict",
    "report_from_dict",
    "result_to_dict",
    "result_from_dict",
    "script_to_dict",
    "script_from_dict",
]

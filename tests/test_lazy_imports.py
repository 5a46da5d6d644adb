"""What a fresh process imports, and the lazy package exports behind it.

``repro``, ``repro.core``, ``repro.teststand``, ``repro.analysis`` and
``repro.paper`` resolve their re-exports on first use, and the heavy
standard-library modules are imported by the functions that use them, so
a cold serial ``repro-campaign`` loads only what its run executes.  Code
that only other runs call lives in modules of their own, which the
modules it moved out of resolve on first use.  Its records are written in
source (``repro._record``), so it compiles no generated code either.  Each
check runs in a fresh interpreter: a module that this test session has
imported already would hide any regression.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.targets import CampaignSpec, run_campaign

SRC = Path(__file__).resolve().parents[1] / "src"

#: Imported by no serial campaign, cold or warm.
NOT_ON_THE_CAMPAIGN_PATH = (
    "asyncio", "concurrent.futures", "multiprocessing", "sqlite3",
    "repro.store", "repro.sheets", "repro.core.xmlparse", "repro.core.xmlgen",
    "repro.teststand.serialize", "repro.analysis.coverage",
    "dataclasses", "inspect", "json",
)

#: Imported by no cold single-DUT campaign: the composition, the report
#: renderer, the thread / process / async backends and the other tools.
NOT_ON_THE_COLD_DUT_PATH = (
    "repro.dut.composition", "repro.paper.composed", "repro.teststand.report",
    "repro.teststand.backends", "repro.teststand.transport", "repro.cli_tools",
)

#: Names that moved into a module of their own, by the module they were
#: imported from, with the module that defines them now.
MOVED_NAMES = {
    "repro.cli": {
        "main_compile": "repro.cli_tools", "main_run": "repro.cli_tools",
        "main_report": "repro.cli_tools",
    },
    "repro.teststand.executor": {
        "ThreadExecutor": "repro.teststand.backends",
        "AsyncExecutor": "repro.teststand.backends",
        "aexecute_job": "repro.teststand.backends",
        "ProcessExecutor": "repro.teststand.transport",
    },
    "repro.dut": {
        "CompositionHarness": "repro.dut.composition",
        "EcuAssembly": "repro.dut.composition",
        "merge_databases": "repro.dut.composition",
    },
}

#: ``__all__`` of each lazy package, as it was while the packages imported
#: every submodule eagerly; the public surface must not change.
PUBLIC_NAMES = {
    "repro": """
        __version__ analysis can chaos core dut instruments methods paper
        sheets store targets teststand
        CampaignSpec CapabilityGapError ChaosPolicy ChaosProfile
        CompileOptions Compiler DutTarget ResiliencePolicy RunSpec Signal
        SignalDerivationWarning SignalDirection SignalKind SignalSet
        StandTarget StatusDefinition StatusTable TargetError TestDefinition
        TestScript TestStand TestStandInterpreter TestSuite build_big_rack
        build_minimal_bench build_paper_stand compile_suite compile_test
        method_coverage parse_script read_script register_dut register_stand
        run_campaign run_script run_single script_to_string write_script
    """,
    "repro.core": """
        AllocationError CapabilityError CompileError CompileOptions Compiler
        DefinitionError ExecutionError ExpressionError HarnessError INFINITY
        InstrumentError Interval Issue LimitExpression MethodCall MethodError
        Quantity ReproError RoutingError ScriptError ScriptStep Severity
        SheetError Signal SignalAction SignalDirection SignalError SignalKind
        SignalSet StatusAssignment StatusDefinition StatusError StatusTable
        TestDefinition TestScript TestStep TestSuite assert_valid
        compile_suite compile_test format_binary format_number parse_binary
        parse_number parse_script read_script script_from_string
        script_to_string signal_fragment validate_script validate_suite
        write_script
    """,
    "repro.teststand": """
        ALLOCATION_POLICIES ActionResult Allocation Allocator AsyncExecutor
        ConnectionMatrix Connector DEFAULT_ASYNC_CONCURRENCY DirectWire
        EXECUTION_BACKENDS ExecutionPlan ExecutionReport Executor
        GLOBAL_PLAN_CACHE Job JobResult MuxChannel PAPER_PINS PROFILER
        PhaseProfiler PlanCache PlanCacheStats ProcessExecutor REPORT_SCHEMA
        ResiliencePolicy Resource ResourceTable Route SerialExecutor
        StepResult Switch TestResult TestStand TestStandInterpreter
        ThreadExecutor Verdict VmCompileError VmCursor VmProgram aexecute_job
        build_big_rack build_minimal_bench build_paper_stand campaign_summary
        compile_plan compile_program execute_job expand_jobs format_table
        full_crossbar json_report make_executor report_from_dict
        report_to_dict result_from_dict result_to_dict run_across_stands
        run_jobs run_script script_from_dict script_to_dict summary_line
        text_report
    """,
    "repro.analysis": """
        CampaignResult CoverageReport FaultCampaign FaultCatalogue FaultModel
        FaultRunOutcome Requirement RequirementCatalogue ReuseReport
        TraceabilityReport central_locking_faults compare_suites
        compute_coverage exterior_light_faults interior_light_faults
        script_portability trace_requirements vocabulary_reuse
        window_lifter_faults wiper_faults
    """,
    "repro.paper": """
        COMPOSITION_NAME PAPER_TEST_NAME build_locking_harness
        build_paper_harness cluster_harness cluster_signal_set
        cluster_status_table cluster_suite cluster_test_definitions
        compile_paper_script composed_signal_set composed_status_table
        composed_suite composed_test_definitions extended_suite
        extended_test_definitions exterior_light_harness
        exterior_light_signal_set exterior_light_suite
        exterior_light_test_definitions family_status_table interior_harness
        locking_harness locking_signal_set locking_status_table locking_suite
        locking_test_definitions paper_can_database paper_signal_set
        paper_status_table paper_suite paper_test_definition paper_workbook
        paper_xml_snippet_action render_connection_matrix
        render_resource_table render_status_table render_test_circuit
        render_test_definition_table run_paper_example window_lifter_harness
        window_lifter_signal_set window_lifter_suite
        window_lifter_test_definitions wiper_harness wiper_signal_set
        wiper_suite wiper_test_definitions
    """,
}


def _fresh(code: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)}, check=True,
    )


def test_a_cold_campaign_imports_only_what_it_runs():
    """Nor does it generate code: every ``compile()`` of a string
    (``exec``, ``eval``, code generation such as :mod:`dataclasses`') is
    audited from before ``repro`` is imported until both campaigns end.

    A compile counts when a ``repro`` frame is reached, walking out from
    it, before the body of any other module: a standard-library module
    that builds a named tuple while it is imported (``shutil``, which
    ``argparse`` imports on first use on some interpreters) is not
    ``repro``'s code generation.
    """
    code = (
        "import sys\n"
        "generated = []\n"
        "def audit(event, args):\n"
        "    if event != 'compile' or args[1] != '<string>':\n"
        "        return\n"
        "    frame = sys._getframe(1)\n"
        "    while frame is not None:\n"
        f"        if frame.f_code.co_filename.startswith({str(SRC)!r}):\n"
        "            generated.append(args[0])\n"
        "            return\n"
        "        if frame.f_code.co_name == '<module>':\n"
        "            return\n"
        "        frame = frame.f_back\n"
        "sys.addaudithook(audit)\n"
        "from repro.cli import main_campaign\n"
        "main_campaign(['--dut', 'wiper_ecu', '--quiet'])\n"
        "main_campaign(['--compose', 'lock+cluster', '--quiet'])\n"
        f"loaded = [m for m in {NOT_ON_THE_CAMPAIGN_PATH!r} "
        "if m in sys.modules]\n"
        "compiled = len(generated)\n"
        "import json\n"
        "print(json.dumps([loaded, compiled]))\n"
    )
    *summaries, found = _fresh(code).stdout.splitlines()
    loaded, compiled = json.loads(found)
    assert loaded == []
    assert compiled == 0
    assert summaries == [
        run_campaign(CampaignSpec(dut="wiper_ecu")).summary(),
        run_campaign(CampaignSpec(composition="lock+cluster")).summary(),
    ]


def test_a_cold_dut_campaign_leaves_the_moved_code_unimported():
    """A composition campaign in the same process then imports what it
    needs and prints its table."""
    code = (
        "import json, sys\n"
        "from repro.cli import main_campaign\n"
        "main_campaign(['--dut', 'wiper_ecu', '--quiet'])\n"
        f"loaded = [m for m in {NOT_ON_THE_COLD_DUT_PATH!r} "
        "if m in sys.modules]\n"
        "print(json.dumps(loaded))\n"
        "main_campaign(['--compose', 'lock+cluster'])\n"
    )
    summary, loaded, *composed = _fresh(code).stdout.splitlines()
    assert json.loads(loaded) == []
    assert summary == run_campaign(CampaignSpec(dut="wiper_ecu")).summary()
    result = run_campaign(CampaignSpec(composition="lock+cluster"))
    assert composed == [*result.table().splitlines(), result.summary()]


@pytest.mark.parametrize("module", sorted(MOVED_NAMES))
def test_moved_names_resolve_where_they_were(module):
    """Each resolves on first use, from the module that defines it now;
    the tracer of ``perfbench`` patches each executor class's own
    ``map_jobs``."""
    moved = MOVED_NAMES[module]
    code = f"""
import json, sys
import {module} as module

owners = {moved!r}
early = sorted({{owner for owner in owners.values() if owner in sys.modules}})
found = {{name: getattr(module, name).__module__ for name in owners}}
own_map_jobs = [name for name in owners
                if name.endswith("Executor")
                and "map_jobs" in vars(getattr(module, name))]
print(json.dumps([early, found, own_map_jobs, sorted(module.__all__)]))
"""
    early, found, own_map_jobs, names = json.loads(_fresh(code).stdout)
    assert early == []
    assert found == moved
    assert own_map_jobs == [name for name in moved if name.endswith("Executor")]
    assert set(moved) <= set(names)


@pytest.mark.parametrize("package", sorted(PUBLIC_NAMES))
def test_lazy_package_exports_keep_the_public_names(package):
    code = f"""
import json, sys
import {package} as package

names = list(package.__all__)
unresolved = []
for name in names:
    try:
        getattr(package, name)
    except AttributeError:
        unresolved.append(name)
cached = [name for name in names if name not in vars(package)]
star = {{}}
exec("from {package} import *", star)
star.pop("__builtins__")
try:
    package.no_such_name
except AttributeError as exc:
    unknown = str(exc)
else:
    unknown = None
print(json.dumps({{
    "all": names, "unresolved": unresolved, "cached": cached,
    "star": sorted(star), "dir": sorted(set(names) - set(dir(package))),
    "unknown": unknown, "service": "repro.service" in sys.modules,
}}))
"""
    found = json.loads(_fresh(code).stdout)
    assert sorted(found["all"]) == sorted(PUBLIC_NAMES[package].split())
    assert len(found["all"]) == len(set(found["all"]))
    assert found["unresolved"] == []
    assert found["cached"] == []
    assert found["star"] == sorted(found["all"])
    assert found["dir"] == []
    assert found["unknown"] is not None and repr(package) in found["unknown"]
    assert not found["service"]

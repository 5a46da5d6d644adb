#!/usr/bin/env python3
"""Perf trajectory harness: run the executor benchmarks, append to BENCH_executor.json.

Every PR that touches the execution hot path should leave a data point
behind.  This tool runs quick variants of the repository's seven
executor-economics benchmarks -

* **compiled** (A5): every campaignable target campaigned serially, once
  on the classic reference walk (plans, VM and stand reuse off) and once
  on the compiled path (bytecode VM over cached plans, pooled stands) -
  the compile-once-run-many headline number,
* **executor_scaling** (A3): one DUT campaign serial vs. a 4-worker
  thread pool,
* **portability** (E1): the paper suite across all three bundled stands,
* **async_stands** (A4): one script on N latency-simulated stands, serial
  vs. one async worker,
* **chaos_overhead** (robustness PR): the wiper campaign with no chaos
  policy vs. an installed-but-inert one - the no-policy path must stay
  within 2 % (the hooks are a single ``ACTIVE is not None`` check when
  off),
* **store_overhead**: the wiper campaign with no store vs. checkpointed
  into a result store (``store=..., resume=True``) - the checkpointed run
  must stay within 3x of the bare one,
* **dut_solves**: every campaignable target campaigned serially twice
  after clearing the DUT harness's reading cache, counting
  ``Network.solve`` calls per pass - the second pass must solve nothing,
  because each electrical state was solved once in the first -

and **appends** the wall clocks, speedup ratios, solve counts and
plan-cache statistics as one trajectory point - keyed by git SHA +
measurement timestamp - to ``BENCH_executor.json``.  The file
accumulates the perf history across commits (schema 2: ``{"schema",
"benchmark", "latest", "trajectory"}``, newest point last and mirrored
under ``latest``; a legacy schema-1 single-point file is migrated in
place).  CI runs ``--quick`` on every push, uploads the file as an
artifact and **fails when a gate fails**: the compiled serial path must
beat the classic reference (the regression this file exists to catch),
the chaos and store overheads must stay within their bounds, and a
repeated pass over the family must not re-solve any electrical state.

Usage::

    python tools/bench_trajectory.py [--quick] [--output BENCH_executor.json]

Exit codes: 0 = measured and gates passed, 1 = a perf gate failed,
2 = the harness itself could not run.
"""

from __future__ import annotations

import argparse
import functools
import json
import platform
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core import Compiler                                   # noqa: E402
from repro.store import ResultStore, current_git_sha              # noqa: E402
from repro.dut import InteriorLightEcu                            # noqa: E402
from repro.paper import interior_harness, paper_signal_set, paper_suite  # noqa: E402
from repro.targets import (                                       # noqa: E402
    CampaignSpec,
    build_campaign,
    campaignable_dut_names,
    composition_names,
    run_campaign,
)
from repro.teststand import (                                     # noqa: E402
    GLOBAL_PLAN_CACHE,
    AsyncExecutor,
    SerialExecutor,
    ThreadExecutor,
    build_paper_stand,
    expand_jobs,
    run_across_stands,
    run_jobs,
)
from repro.teststand.stands import build_big_rack, build_minimal_bench  # noqa: E402

#: Schema version of the emitted JSON file (2 = accumulating trajectory;
#: 1 was a single point, overwritten on every run).
SCHEMA = 2


def load_trajectory(path: Path) -> list[dict]:
    """Existing trajectory points of *path*, oldest first.

    Understands both shapes: a schema-2 trajectory file and a legacy
    schema-1 single-point file (migrated to a one-point trajectory).  An
    unreadable or alien file yields an empty history rather than aborting -
    losing the old points is better than losing today's measurement, and
    the history lives in git anyway.
    """
    try:
        document = json.loads(path.read_text())
    except (OSError, ValueError):
        return []
    if not isinstance(document, dict):
        return []
    if isinstance(document.get("trajectory"), list):
        return [p for p in document["trajectory"] if isinstance(p, dict)]
    if "workloads" in document:  # legacy schema 1: the file IS the point
        point = {k: v for k, v in document.items()
                 if k not in ("schema", "benchmark")}
        point.setdefault("git_sha", None)
        return [point]
    return []


def _best_of(fn, rounds: int) -> float:
    """Best (minimum) wall clock of *rounds* invocations of *fn*."""
    best = float("inf")
    for _ in range(max(1, rounds)):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_compiled(rounds: int) -> dict:
    """Every target, serial: the classic reference walk vs. the compiled path.

    Campaigns are built once and reused across passes - rebuilding them
    would create fresh script objects every pass and defeat the
    identity-based caches both paths share, measuring an artifact instead
    of the paths.  Passes interleave classic/compiled so a load spike on
    the machine hits both alike.
    """
    def _campaigns(compiled: bool):
        knobs = dict(use_plans=compiled, reuse_stands=compiled,
                     use_vm=compiled)
        specs = [CampaignSpec(dut=dut, **knobs)
                 for dut in campaignable_dut_names()]
        specs += [CampaignSpec(composition=name, **knobs)
                  for name in composition_names()]
        return [build_campaign(spec) for spec in specs]

    def _run(campaigns) -> None:
        for campaign, faults in campaigns:
            campaign.run(faults)

    classic_campaigns = _campaigns(False)
    compiled_campaigns = _campaigns(True)
    jobs = sum(
        (1 + len(faults)) * len(campaign.scripts)
        for campaign, faults in compiled_campaigns
    )

    GLOBAL_PLAN_CACHE.clear()
    _run(compiled_campaigns)  # warm: plan and VM compiles, binds, memos
    classic = float("inf")
    compiled = float("inf")
    for _ in range(max(1, rounds)):
        start = time.perf_counter()
        _run(classic_campaigns)
        classic = min(classic, time.perf_counter() - start)
        start = time.perf_counter()
        _run(compiled_campaigns)
        compiled = min(compiled, time.perf_counter() - start)

    return {
        "workload": f"{len(compiled_campaigns)} target campaigns, serial "
                    f"backend, {jobs} jobs/pass",
        "classic_s": round(classic, 4),
        "compiled_s": round(compiled, 4),
        "speedup": round(classic / compiled, 2) if compiled > 0 else None,
        "plan_cache": GLOBAL_PLAN_CACHE.stats.snapshot(),
    }


def bench_executor_scaling(rounds: int) -> dict:
    """A3 quick variant: one DUT campaign, serial vs. 4 worker threads."""
    campaign, faults = build_campaign(CampaignSpec(dut="wiper_ecu"))
    serial = _best_of(
        lambda: campaign.run(faults, executor=SerialExecutor()), rounds)
    threaded = _best_of(
        lambda: campaign.run(faults, executor=ThreadExecutor(max_workers=4)), rounds)
    return {
        "workload": "wiper_ecu campaign",
        "serial_s": round(serial, 4),
        "thread4_s": round(threaded, 4),
        "speedup": round(serial / threaded, 2) if threaded > 0 else None,
    }


def bench_portability(rounds: int) -> dict:
    """E1 quick variant: the whole paper suite on all three bundled stands."""
    suite = paper_suite()
    scripts = Compiler().compile_suite(suite)
    stands = {
        "paper_stand": build_paper_stand,
        "big_rack": build_big_rack,
        "minimal_bench": build_minimal_bench,
    }
    wall = _best_of(
        lambda: run_across_stands(
            scripts, suite.signals, stands, interior_harness, InteriorLightEcu,
        ),
        rounds,
    )
    return {
        "workload": f"{len(scripts)} scripts x {len(stands)} stands",
        "wall_s": round(wall, 4),
        "runs_per_pass": len(scripts) * len(stands),
    }


def bench_async_stands(rounds: int, *, stands: int, io_delay: float) -> dict:
    """A4 quick variant: N latency-simulated stands, serial vs. async."""
    script = Compiler().compile_test(paper_suite(), "interior_illumination")
    slow_stand = functools.partial(build_paper_stand, io_delay=io_delay)
    jobs = expand_jobs(
        (script,),
        paper_signal_set(),
        {f"stand{i}": slow_stand for i in range(stands)},
        interior_harness,
        {"baseline": InteriorLightEcu},
    )
    serial = _best_of(lambda: run_jobs(jobs, SerialExecutor()), rounds)
    asynced = _best_of(
        lambda: run_jobs(jobs, AsyncExecutor(concurrency=stands)), rounds)
    return {
        "workload": f"1 script x {stands} stands @ {io_delay * 1e3:.0f} ms/call",
        "serial_s": round(serial, 4),
        "async_s": round(asynced, 4),
        "speedup": round(serial / asynced, 2) if asynced > 0 else None,
    }


def bench_chaos_overhead(rounds: int) -> dict:
    """Robustness PR workload: the chaos hooks must be free when off.

    Every instrument call, store commit and job dispatch now carries a
    ``chaos.ACTIVE is not None`` guard.  This workload interleaves the
    wiper campaign with *no* policy installed against the same campaign
    under an installed-but-inert policy (all rates zero): the inert pass
    pays for the full per-job schedule machinery, so the no-policy pass
    landing within 2 % of it proves the guard itself costs nothing.
    Passes interleave so a load spike on the machine hits both paths
    alike.
    """
    from repro.chaos import ChaosPolicy, ChaosProfile
    from repro.teststand import ResiliencePolicy

    campaign, faults = build_campaign(CampaignSpec(dut="wiper_ecu"))
    inert = ResiliencePolicy(
        chaos=ChaosPolicy(seed=0, profile=ChaosProfile()))
    campaign.run(faults)  # warm-up: plan compiles + VM binds
    campaign.run(faults, resilience=inert)
    no_policy = float("inf")
    installed = float("inf")
    # One campaign run is ~30 ms, far too small for a 2 % gate at one
    # round; each measured pass runs the campaign three times and best-of
    # covers extra interleaved rounds, keeping the comparison honest for
    # about a second of harness cost.
    for _ in range(max(7, rounds)):
        start = time.perf_counter()
        for _ in range(3):
            campaign.run(faults)
        no_policy = min(no_policy, time.perf_counter() - start)
        start = time.perf_counter()
        for _ in range(3):
            campaign.run(faults, resilience=inert)
        installed = min(installed, time.perf_counter() - start)
    return {
        "workload": "wiper_ecu campaign, no chaos policy vs installed "
                    "inert policy",
        "no_policy_s": round(no_policy, 4),
        "installed_s": round(installed, 4),
        "overhead_ratio": round(no_policy / installed, 4)
        if installed > 0 else None,
    }


def bench_store_overhead(rounds: int) -> dict:
    """The wiper campaign with no store vs. checkpointed into a store.

    The checkpointed pass is ``run_campaign(store=..., resume=True)``: it
    opens the store, commits each finished job's rows into the campaign's
    unfinished run (one checkpoint per job), and the final record stamps
    that run, all into one store file that accumulates a run per pass.
    Both passes build the campaign from its spec, and they interleave,
    best-of, as in :func:`bench_chaos_overhead`.
    """
    plain = CampaignSpec(dut="wiper_ecu")
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "o.db")
        resume = CampaignSpec(dut="wiper_ecu", store=path, resume=True)
        run_campaign(plain)  # warm-up: plan compiles + VM binds
        run_campaign(resume)
        no_store = float("inf")
        resumed = float("inf")
        for _ in range(max(7, rounds)):
            start = time.perf_counter()
            run_campaign(plain)
            no_store = min(no_store, time.perf_counter() - start)
            start = time.perf_counter()
            run_campaign(resume)
            resumed = min(resumed, time.perf_counter() - start)
        # Close before the directory goes: a store file must not be
        # deleted under its open connection.
        ResultStore(path).close()
    return {
        "workload": "wiper_ecu campaign, no store vs --store --resume",
        "no_store_s": round(no_store, 4),
        "resume_s": round(resumed, 4),
        "overhead_ratio": round(resumed / no_store, 2)
        if no_store > 0 else None,
    }


def bench_dut_solves() -> dict:
    """Network solves per pass over every target, reading cache cleared first.

    Every campaignable target is campaigned serially twice, with a counting
    wrapper around ``Network.solve`` that this function installs and
    removes.  The first pass solves each distinct electrical state once;
    the second is served entirely from the harness's reading cache
    (:func:`repro.dut.harness.node_voltages`).  Counts, not times: they
    repeat exactly from run to run.
    """
    from repro.dut.harness import node_voltages
    from repro.dut.network import Network

    specs = [CampaignSpec(dut=dut, backend="serial")
             for dut in campaignable_dut_names()]
    specs += [CampaignSpec(composition=name, backend="serial")
              for name in composition_names()]
    campaigns = [build_campaign(spec) for spec in specs]
    solve = Network.solve
    solves = 0

    def counting_solve(network):
        nonlocal solves
        solves += 1
        return solve(network)

    per_pass = []
    node_voltages.cache_clear()
    Network.solve = counting_solve
    try:
        for _ in range(2):
            before = solves
            for campaign, faults in campaigns:
                campaign.run(faults)
            per_pass.append(solves - before)
    finally:
        Network.solve = solve
    return {
        "workload": f"{len(campaigns)} target campaigns, serial backend, "
                    "2 passes after clearing the reading cache",
        "first_pass_solves": per_pass[0],
        "second_pass_solves": per_pass[1],
        "cached_states": node_voltages.cache_info().currsize,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the executor perf benchmarks and write the "
                    "BENCH_executor.json trajectory point.",
    )
    parser.add_argument("--quick", action="store_true",
                        help="single measurement round and a smaller async "
                             "workload (what CI runs)")
    parser.add_argument("--output", default=str(REPO_ROOT / "BENCH_executor.json"),
                        help="where to write the JSON (default: repo root)")
    args = parser.parse_args(argv)

    rounds = 1 if args.quick else 3
    async_stands = 4 if args.quick else 8
    io_delay = 0.002 if args.quick else 0.003

    try:
        workloads = {
            "compiled": bench_compiled(rounds),
            "executor_scaling": bench_executor_scaling(rounds),
            "portability": bench_portability(rounds),
            "async_stands": bench_async_stands(
                rounds, stands=async_stands, io_delay=io_delay),
            "chaos_overhead": bench_chaos_overhead(rounds),
            "store_overhead": bench_store_overhead(rounds),
            "dut_solves": bench_dut_solves(),
        }
    except Exception as exc:  # noqa: BLE001 - harness problem, not a gate
        print(f"error: benchmark harness failed: {exc}", file=sys.stderr)
        return 2

    compiled = workloads["compiled"]
    gates = {
        # The reason this file exists: the compiled serial path must beat
        # the classic reference walk, on every machine, on every commit.
        # Compared on the raw wall clocks - the rounded speedup can read
        # 1.0 for a path that is genuinely (barely) faster.
        "compiled_faster_than_classic":
            compiled["compiled_s"] < compiled["classic_s"],
        # Robustness PR: with no chaos policy installed, the resilience
        # hooks in the hot path must cost <= 2 % against the same campaign
        # running under an installed-but-inert policy.
        "chaos_hooks_free_when_off": workloads["chaos_overhead"]["no_policy_s"]
        <= workloads["chaos_overhead"]["installed_s"] * 1.02,
        # A checkpointed campaign (a durable commit per job and the final
        # record) may take at most 3x the same campaign without a store.
        "store_resume_overhead": workloads["store_overhead"]["resume_s"]
        <= workloads["store_overhead"]["no_store_s"] * 3.0,
        # Each electrical state is solved once per process: a second pass
        # over the family reads every voltage from the reading cache.
        "dut_state_solved_once":
            workloads["dut_solves"]["second_pass_solves"] == 0,
    }

    point = {
        "git_sha": current_git_sha(),
        "measured_at_unix": int(time.time()),
        "quick": bool(args.quick),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "rounds": rounds,
        "workloads": workloads,
        "gates": gates,
    }
    output = Path(args.output)
    trajectory = load_trajectory(output)
    key = (point["git_sha"], point["measured_at_unix"])
    trajectory = [
        p for p in trajectory
        if (p.get("git_sha"), p.get("measured_at_unix")) != key
    ]
    trajectory.append(point)
    payload = {
        "schema": SCHEMA,
        "benchmark": "executor",
        "latest": point,
        "trajectory": trajectory,
    }
    output.write_text(json.dumps(payload, indent=2, sort_keys=False) + "\n")

    print(f"wrote {output} ({len(trajectory)} trajectory point(s), "
          f"latest {point['git_sha'][:12] if point['git_sha'] else 'unknown'} "
          f"@ {point['measured_at_unix']})")
    print(f"  compiled path   : {compiled['classic_s']:.3f} s classic -> "
          f"{compiled['compiled_s']:.3f} s compiled "
          f"({compiled['speedup']}x)")
    print(f"  executor scaling: {workloads['executor_scaling']['speedup']}x "
          f"with 4 threads")
    print(f"  portability     : {workloads['portability']['wall_s']:.3f} s "
          f"for {workloads['portability']['runs_per_pass']} runs")
    print(f"  async stands    : {workloads['async_stands']['speedup']}x "
          f"over serial")
    chaos_point = workloads["chaos_overhead"]
    print(f"  chaos overhead  : {chaos_point['no_policy_s']:.3f} s off vs "
          f"{chaos_point['installed_s']:.3f} s inert "
          f"({chaos_point['overhead_ratio']}x)")
    store_point = workloads["store_overhead"]
    print(f"  store overhead  : {store_point['no_store_s']:.3f} s no store vs "
          f"{store_point['resume_s']:.3f} s --store --resume "
          f"({store_point['overhead_ratio']}x)")
    solves_point = workloads["dut_solves"]
    print(f"  dut solves      : {solves_point['first_pass_solves']} first pass "
          f"-> {solves_point['second_pass_solves']} second pass "
          f"({solves_point['cached_states']} cached states)")
    if not all(gates.values()):
        failed = [name for name, passed in gates.items() if not passed]
        print(f"error: perf gate(s) failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

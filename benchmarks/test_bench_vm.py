"""A5 - the compiled path against the classic reference, on every target.

The paper's interpreter searches a resource *"for each method to be carried
out"*.  The compiled path does that search once per (script x stand x
policy x variables) combination: an execution plan pre-resolves the
allocations, the bytecode VM compiles plan and script into one flat
instruction stream, and workers reuse pooled stands.  The classic
reference walk - plans, VM and stand reuse all off - searches every action
of every run on a freshly built stand.

This benchmark runs every campaignable target (each bundled DUT against
its full fault catalogue, plus the ``lock+cluster`` composition) on the
serial backend along both paths, and asserts

* determinism before speed: campaign *and* executor verdict tables are
  byte-identical on both paths,
* the VM served every run of the timed compiled passes and degraded none,
* the acceptance bar: the compiled path is >= ``SPEEDUP_BAR`` faster.

Campaigns are built once and reused across passes: rebuilding them would
create fresh script/call objects every pass, defeating the identity-based
memos both paths share, and measure an artifact instead of the paths.
Timed passes interleave classic and compiled so machine load hits both
alike.
"""

from __future__ import annotations

import time

from repro.targets import (
    CampaignSpec,
    build_campaign,
    campaignable_dut_names,
    composition_names,
)
from repro.teststand import GLOBAL_PLAN_CACHE, format_table

#: The acceptance bar for the compiled path over the classic reference.
SPEEDUP_BAR = 2.0

#: Interleaved measurement rounds per attempt (best of each path counts).
ROUNDS = 3


def _campaigns(compiled: bool):
    knobs = dict(use_plans=compiled, reuse_stands=compiled, use_vm=compiled)
    specs = [CampaignSpec(dut=dut, **knobs) for dut in campaignable_dut_names()]
    specs += [CampaignSpec(composition=name, **knobs)
              for name in composition_names()]
    return [build_campaign(spec) for spec in specs]


def _run(campaigns) -> list:
    return [campaign.run(faults) for campaign, faults in campaigns]


def _measure(classic_campaigns, compiled_campaigns) -> tuple[float, float]:
    classic = compiled = float("inf")
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        _run(classic_campaigns)
        classic = min(classic, time.perf_counter() - t0)
        t0 = time.perf_counter()
        _run(compiled_campaigns)
        compiled = min(compiled, time.perf_counter() - t0)
    return classic, compiled


def test_vm_family_campaign(benchmark, print_block):
    classic_campaigns = _campaigns(False)
    compiled_campaigns = _campaigns(True)

    GLOBAL_PLAN_CACHE.clear()
    # Warm the compiled path (plan and VM compiles, binds, prologue memos).
    classic_results = _run(classic_campaigns)
    compiled_results = _run(compiled_campaigns)
    runs_per_pass = sum(len(r.execution) for r in compiled_results)

    # Determinism before speed: identical tables per target either way.
    for classic, compiled in zip(classic_results, compiled_results):
        assert classic.table() == compiled.table()
        assert classic.execution.verdict_table() == \
            compiled.execution.verdict_table()

    before = GLOBAL_PLAN_CACHE.stats.snapshot()
    classic, compiled = benchmark.pedantic(
        _measure, args=(classic_campaigns, compiled_campaigns),
        rounds=1, iterations=1)
    after = GLOBAL_PLAN_CACHE.stats.snapshot()
    vm_runs = after["vm_runs"] - before["vm_runs"]
    assert vm_runs == ROUNDS * runs_per_pass, (vm_runs, runs_per_pass)
    assert after["vm_degraded"] == before["vm_degraded"], after

    # A loaded runner can distort one attempt; the bar gets two further
    # attempts (best ratio counts) before failing.
    speedup = classic / compiled
    for _ in range(2):
        if speedup >= SPEEDUP_BAR:
            break
        classic, compiled = _measure(classic_campaigns, compiled_campaigns)
        speedup = max(speedup, classic / compiled)
    assert speedup >= SPEEDUP_BAR, (
        f"compiled path only {speedup:.2f}x faster than the classic "
        f"reference (classic {classic:.3f} s, compiled {compiled:.3f} s)"
    )

    print_block(
        "A5: compiled path vs classic reference, every target (serial)",
        format_table(
            ("path", "wall", "speedup"),
            (
                ("classic walk, fresh stands", f"{classic * 1e3:.0f} ms",
                 "1.0x"),
                ("bytecode VM, pooled stands", f"{compiled * 1e3:.0f} ms",
                 f"{speedup:.2f}x"),
            ),
        )
        + f"\n\n{len(compiled_campaigns)} targets, {runs_per_pass} runs per "
          f"pass, every timed compiled run on the VM (0 degraded); verdict "
          f"tables byte-identical.",
    )

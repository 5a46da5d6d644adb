"""Differential test: the bytecode VM against the classic walk on generated scripts.

The parity matrix runs the bundled suites, a small and curated corner of
the script space.  Here a seeded ``random.Random`` generates scripts by
recombining the setups and steps of every campaignable target's compiled
suite (each DUT and the ``lock+cluster`` composition) and mutating them:

* step durations change, numeric ``wait`` actions are inserted and
  actions are dropped;
* limit windows narrow (FAIL verdicts) or move out of every instrument's
  range (an allocation ERROR, which makes the VM decline the script at
  compile time);
* ``put_r`` stimuli become ``r="INF"`` open circuits or finite values;
* ``stop_on_error`` is on or off.

Every script runs once on the VM and once on the classic reference walk,
against the healthy ECU or a faulty one.  The two JSON reports must be
identical apart from the wall time, and so must the results the report
leaves out (setup actions, allocations, step start times).  The seed is
fixed, so a failure reproduces exactly.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.core.script import MethodCall, ScriptStep, SignalAction, TestScript
from repro.targets import (
    CampaignSpec,
    build_campaign,
    campaignable_dut_names,
    composition_names,
)
from repro.teststand import PlanCache, TestStandInterpreter, json_report

SEED = 1729

#: Generated scripts per target; the whole module stays well under 5 s.
SCRIPTS_PER_TARGET = 24

#: Chance that one mutation makes an action unallocatable.
OUT_OF_RANGE_RATE = 0.04

TARGETS = tuple(campaignable_dut_names()) + tuple(composition_names())


def _campaign(target: str):
    spec = CampaignSpec(composition=target) if target in composition_names() \
        else CampaignSpec(dut=target)
    return build_campaign(spec)


def _window(rng: random.Random, attribute: str) -> dict[str, str]:
    """A narrow acceptance window, absolute or relative to ``ubatt``."""
    if rng.random() < 0.5:
        low = rng.uniform(0.0, 0.9)
        return {f"{attribute}_min": f"({low:.2f}*ubatt)",
                f"{attribute}_max": f"({low + 0.05:.2f}*ubatt)"}
    low = rng.uniform(0.0, 12.0)
    return {f"{attribute}_min": f"{low:.3f}",
            f"{attribute}_max": f"{low + rng.choice((0.01, 0.5)):.3f}"}


def _mutated(rng: random.Random, action: SignalAction) -> SignalAction:
    """*action* with its parameters rewritten, or unchanged."""
    method = action.method.lower()
    if method not in ("get_u", "get_i", "put_r"):
        return action
    attribute = method[-1]
    if rng.random() < OUT_OF_RANGE_RATE:
        # Beyond every bundled instrument's range: no resource can serve it.
        params = {f"{attribute}_min": "1e12", f"{attribute}_max": "2e12"}
        if method == "put_r":
            params["r"] = "1.5e12"
    elif method == "put_r":
        params = rng.choice((
            {"r": "INF", "r_min": "5000", "r_max": "INF"},
            {"r": "INF", "r_min": "5000", "r_max": "1e6"},
            {"r": "0", "r_min": "0", "r_max": "2"},
            {"r": "2200", "r_min": "2000", "r_max": "2400"},
        ))
    else:
        params = _window(rng, attribute)
    return SignalAction(action.signal, MethodCall(action.method, params))


def _varied_actions(rng: random.Random, actions, signal_names) -> tuple:
    out = []
    for action in actions:
        roll = rng.random()
        if roll < 0.1:
            continue  # dropped
        if roll < 0.4:
            action = _mutated(rng, action)
        out.append(action)
        if rng.random() < 0.1:
            out.append(SignalAction(rng.choice(signal_names), MethodCall(
                "wait", {"t": rng.choice(("0", "0.05", "0.3", "1.5"))})))
    return tuple(out)


def _generate(rng: random.Random, scripts, index: int) -> TestScript:
    """One script recombined from *scripts* (all of one target)."""
    signal_names = sorted({a.signal for s in scripts for st in s.steps
                           for a in st.actions})
    pool = [step for script in scripts for step in script.steps]
    steps = []
    for number in range(rng.randint(1, 5)):
        step = rng.choice(pool)
        duration = rng.choice((step.duration, 0.0, 0.05,
                               round(rng.uniform(0.0, 3.0), 2)))
        steps.append(ScriptStep(
            number, duration, _varied_actions(rng, step.actions, signal_names),
            remark=step.remark,
        ))
    setup = _varied_actions(rng, rng.choice(scripts).setup, signal_names)
    return TestScript(f"generated_{index}", scripts[0].dut, steps, setup=setup)


def _observed(campaign, script: TestScript, ecu_factory, *,
              stop_on_error: bool, plan_cache: PlanCache | None) -> tuple:
    """The run's JSON report without its wall time, plus what that report
    leaves out: setup results, allocations (routes included) and step
    start times."""
    interpreter = TestStandInterpreter(
        campaign.stand_factory(), campaign.harness_factory(ecu_factory()),
        campaign.signals, stop_on_error=stop_on_error, plan_cache=plan_cache,
    )
    result = interpreter.run(script)
    report = json.loads(json_report(result))
    report.pop("wall_time_s")
    return report, result.setup, tuple(result.steps)


@pytest.mark.parametrize("target", TARGETS)
def test_vm_matches_classic_on_generated_scripts(target):
    rng = random.Random(f"{SEED}:{target}")
    campaign, faults = _campaign(target)
    ecus = [campaign.healthy_factory] + [fault.build for fault in faults]
    cache = PlanCache()
    for index in range(SCRIPTS_PER_TARGET):
        script = _generate(rng, campaign.scripts, index)
        ecu = rng.choice(ecus)
        stop = rng.random() < 0.5
        vm = _observed(campaign, script, ecu, stop_on_error=stop,
                       plan_cache=cache)
        classic = _observed(campaign, script, ecu, stop_on_error=stop,
                            plan_cache=None)
        assert vm == classic, f"{target} seed {SEED} script {index}"
    # Guard against comparing classic with classic: the VM must have served
    # most scripts, and a script it compiled must never degrade.
    stats = cache.stats.snapshot()
    assert stats["vm_runs"] > SCRIPTS_PER_TARGET // 2, stats
    assert stats["vm_degraded"] == 0, stats

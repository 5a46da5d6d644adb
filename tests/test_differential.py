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
leaves out (setup actions, allocations, step start times, and each
action exactly as spelled).  The classic walk then runs once more with the
harness's reading cache bypassed (``node_voltages.__wrapped__``), and must
again produce the same results.  Each script then has a respelled twin:
the same name, every method's case swapped, every parameter list reversed
with its names upper-cased, and every plain-number bound (and ``put_r``'s
``r``) written with a decimal comma between blanks.  The twin runs on the
VM against the plan cache that already holds the original's plan, and
must report its own spelling, as the classic walk does, and the
original's step and action verdicts.

Each script also runs, VM against classic, on a *generated stand*: the
target's stand put through one seeded transform that keeps verdicts -
resources renamed (or not) and reordered with the routes shuffled, a copy
of a resource appended with copies of its routes, or plain switches
replaced by direct wires.  It runs there before it runs on the bundled
stand, against the same plan cache, so a plan that one stand reused from
another would show.  With ``stop_on_error`` off, the VM compiler's walk
(:func:`repro.teststand.vm.walk_program`) must predict the classic walk's
allocation ERRORs on both stands: the same actions, in the same order,
with the same messages.  R-UNSERVABLE-STEP's promise of "an ERROR verdict
on every run" rests on that.  Finally every bundled campaign must print
byte-identical tables on each generated stand and on its own.  The seeds
are fixed, so a failure reproduces exactly.
"""

from __future__ import annotations

import copy
import random

import pytest

from repro.core.errors import AllocationError, ValueError_
from repro.core.script import MethodCall, ScriptStep, SignalAction, TestScript
from repro.core.values import parse_number
from repro.dut import harness as harness_module
from repro.targets import (
    CampaignSpec,
    build_campaign,
    campaignable_dut_names,
    composition_names,
)
from repro.teststand import (
    ConnectionMatrix,
    DirectWire,
    PlanCache,
    Resource,
    ResourceTable,
    Route,
    Switch,
    TestStand,
    TestStandInterpreter,
    Verdict,
)
from repro.teststand.vm import VmCompileError, walk_program

from parity import result_document

SEED = 1729

#: Generated scripts per target; the whole module stays well under 5 s.
SCRIPTS_PER_TARGET = 24

#: Chance that one mutation makes an action unallocatable; high enough
#: that some scripts fail more than one allocation, each of which the
#: compiler's walk must predict.
OUT_OF_RANGE_RATE = 0.1

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


def _respelled(script: TestScript) -> TestScript:
    """*script* under its own name, each method's case swapped, each
    action's parameters in reverse order with their names upper-cased, and
    every plain-number bound (``*_min``, ``*_max``) and ``put_r``'s ``r``
    written with a decimal comma and padded with blanks (``" 0,5 "``): the
    same test, spelled apart.  ``wait``'s ``t`` and payload literals stay
    as written."""
    def respelled_text(method: str, name: str, text: str) -> str:
        if not (name.endswith(("_min", "_max"))
                or (method == "put_r" and name == "r")):
            return text
        try:
            parse_number(text)
        except ValueError_:
            return text  # an expression
        return f" {text.replace('.', ',')} "

    def respell(action: SignalAction) -> SignalAction:
        method = action.call.key
        return SignalAction(action.signal, MethodCall(
            action.method.swapcase(),
            {name.upper(): respelled_text(method, name.lower(), text)
             for name, text in reversed(action.call.params.items())}))

    steps = [ScriptStep(step.number, step.duration,
                        tuple(respell(action) for action in step.actions),
                        remark=step.remark)
             for step in script.steps]
    return TestScript(script.name, script.dut, steps,
                      setup=tuple(respell(action) for action in script.setup))


# ---------------------------------------------------------------------------
# Generated stands: seeded transforms that keep every verdict
# ---------------------------------------------------------------------------

def _rebuilt(stand: TestStand, resources, routes) -> TestStand:
    return TestStand(
        stand.name, ResourceTable(resources), ConnectionMatrix(routes),
        supply_voltage=stand.supply_voltage, variables=dict(stand.variables),
        registry=stand.registry, description=stand.description,
    )


def _renamed_and_reordered(rng: random.Random, stand: TestStand) -> TestStand:
    """Resources reordered, and on a coin renamed; routes shuffled."""
    rename = rng.random() < 0.5
    labels = rng.sample(range(100), len(stand.resources))
    names = {
        resource.key: f"X{label}" if rename else resource.name
        for resource, label in zip(stand.resources, labels)
    }
    resources = [Resource(names[r.key], r.instrument, r.description)
                 for r in stand.resources]
    routes = [Route(names[r.resource_key], r.terminal, r.pin, r.connector)
              for r in stand.connections]
    rng.shuffle(resources)
    rng.shuffle(routes)
    return _rebuilt(stand, resources, routes)


def _with_copy(rng: random.Random, stand: TestStand) -> TestStand:
    """A copy of one routed resource appended, with copies of its routes."""
    original = rng.choice([r for r in stand.resources
                           if stand.connections.routes_for_resource(r.name)])
    twin = Resource(f"{original.name}_copy", copy.copy(original.instrument),
                    original.description)
    routes = list(stand.connections) + [
        Route(twin.name, r.terminal, r.pin, r.connector)
        for r in stand.connections.routes_for_resource(original.name)
    ]
    return _rebuilt(stand, [*stand.resources, twin], routes)


def _rewired(rng: random.Random, stand: TestStand) -> TestStand:
    """Some plain switches (not mux channels) replaced by direct wires."""
    switched = [r for r in stand.connections if type(r.connector) is Switch]
    wired = set(rng.sample(switched, rng.randint(min(1, len(switched)),
                                                 len(switched))))
    routes = [
        Route(r.resource, r.terminal, r.pin, DirectWire(r.connector.label))
        if r in wired else r
        for r in stand.connections
    ]
    return _rebuilt(stand, list(stand.resources), routes)


STAND_TRANSFORMS = (_renamed_and_reordered, _with_copy, _rewired)


class _GeneratedStand:
    """A stand factory: the bundled stand put through one transform.

    The stand is built once and reset before each further use, as the
    executor's stand pools reuse a stand between jobs.
    """

    def __init__(self, stand_factory, transform, seed: str):
        self.stand_factory = stand_factory
        self.transform = transform
        self.seed = seed
        self.stand = None

    def __call__(self) -> TestStand:
        if self.stand is None:
            self.stand = self.transform(random.Random(self.seed),
                                        self.stand_factory())
        else:
            self.stand.reset()
        return self.stand


def _generated_stands(target: str, campaign) -> list[_GeneratedStand]:
    return [
        _GeneratedStand(campaign.stand_factory, transform,
                        f"{SEED}:{target}:{transform.__name__}")
        for transform in STAND_TRANSFORMS
    ]


# ---------------------------------------------------------------------------
# Observing runs
# ---------------------------------------------------------------------------

def _observed(campaign, script: TestScript, ecu_factory, *,
              stop_on_error: bool, plan_cache: PlanCache | None,
              stand_factory=None) -> tuple:
    """The run's result document without its wall time, plus what that
    document leaves out: the setup and step records with their allocations
    (routes included) and each action result's action exactly as
    spelled."""
    interpreter = TestStandInterpreter(
        (stand_factory or campaign.stand_factory)(),
        campaign.harness_factory(ecu_factory()),
        campaign.signals, stop_on_error=stop_on_error, plan_cache=plan_cache,
    )
    result = interpreter.run(script)
    report = result_document(result)
    spellings = tuple(
        (item.action.signal, item.action.call.method,
         tuple(item.action.call.params.items()))
        for item in result.action_results
    )
    return report, result.setup, tuple(result.steps), spellings


def _verdicts(observed: tuple) -> list[tuple]:
    """Each step's verdict with the verdicts of its actions."""
    _, _, steps, _ = observed
    return [(step.verdict, [result.verdict for result in step.actions])
            for step in steps]


def _allocation_errors(observed: tuple) -> list[tuple]:
    """(action, message) of each classic result that is an allocation
    ERROR: an ERROR with no allocation that is not an unknown signal."""
    _, setup, steps, _ = observed
    results = [*setup, *(result for step in steps for result in step.actions)]
    return [(r.action, r.error) for r in results
            if r.verdict is Verdict.ERROR and r.allocation is None
            and not r.error.startswith("unknown signal")]


def _predicted_errors(interpreter: TestStandInterpreter,
                      script: TestScript) -> list[tuple]:
    """(action, message) of each allocation the compiler's walk fails, on
    *interpreter*'s stand with the variables its runs see."""
    return [
        (action, str(op.__cause__))
        for _, action, op in walk_program(
            script, interpreter.signals, interpreter.stand,
            policy=interpreter.policy, registry=interpreter.registry,
            variables=interpreter._variables(),
        )
        if isinstance(op, VmCompileError)
        and isinstance(op.__cause__, AllocationError)
    ]


@pytest.mark.parametrize("target", TARGETS)
def test_vm_matches_classic_on_generated_scripts(target, monkeypatch):
    rng = random.Random(f"{SEED}:{target}")
    campaign, faults = _campaign(target)
    ecus = [campaign.healthy_factory] + [fault.build for fault in faults]
    stands = _generated_stands(target, campaign)
    walkers = {
        factory: TestStandInterpreter(
            factory(), campaign.harness_factory(campaign.healthy_factory()),
            campaign.signals)
        for factory in (campaign.stand_factory, *stands)
    }
    cache = PlanCache()
    for index in range(SCRIPTS_PER_TARGET):
        script = _generate(rng, campaign.scripts, index)
        ecu = rng.choice(ecus)
        stop = rng.random() < 0.5
        stand = stands[index % len(stands)]
        where = f"{target} seed {SEED} script {index} {stand.transform.__name__}"
        generated = _observed(campaign, script, ecu, stop_on_error=stop,
                              plan_cache=cache, stand_factory=stand)
        generated_classic = _observed(campaign, script, ecu,
                                      stop_on_error=stop, plan_cache=None,
                                      stand_factory=stand)
        assert generated == generated_classic, where
        vm = _observed(campaign, script, ecu, stop_on_error=stop,
                       plan_cache=cache)
        classic = _observed(campaign, script, ecu, stop_on_error=stop,
                            plan_cache=None)
        assert vm == classic, f"{target} seed {SEED} script {index}"
        if not stop:
            assert _predicted_errors(walkers[stand], script) == \
                _allocation_errors(generated_classic), where
            assert _predicted_errors(walkers[campaign.stand_factory],
                                     script) == \
                _allocation_errors(classic), where
        with monkeypatch.context() as patch:
            patch.setattr(harness_module, "node_voltages",
                          harness_module.node_voltages.__wrapped__)
            uncached = _observed(campaign, script, ecu, stop_on_error=stop,
                                 plan_cache=None)
        assert uncached == classic, f"{target} seed {SEED} script {index}"
        twin = _respelled(script)
        twin_vm = _observed(campaign, twin, ecu, stop_on_error=stop,
                            plan_cache=cache)
        twin_classic = _observed(campaign, twin, ecu, stop_on_error=stop,
                                 plan_cache=None)
        assert twin_vm == twin_classic, f"{target} seed {SEED} twin {index}"
        assert _verdicts(twin_vm) == _verdicts(vm), \
            f"{target} seed {SEED} twin {index}"
    # Guard against comparing classic with classic: the VM must have served
    # most scripts, and a script it compiled must never degrade.
    stats = cache.stats.snapshot()
    assert stats["vm_runs"] > SCRIPTS_PER_TARGET // 2, stats
    assert stats["vm_degraded"] == 0, stats


@pytest.mark.parametrize("target", TARGETS)
def test_generated_stands_keep_campaign_tables(target):
    """Every transform keeps each bundled campaign's tables byte-identical."""
    campaign, faults = _campaign(target)

    def tables(stand_factory) -> tuple[str, str]:
        variant = copy.copy(campaign)
        variant.stand_factory = stand_factory
        result = variant.run(faults)
        return result.table(), result.execution.verdict_table()

    reference = tables(campaign.stand_factory)
    for stand in _generated_stands(target, campaign):
        assert tables(stand) == reference, stand.transform.__name__

"""Compiled execution plans: allocate once, run many.

The paper's interpreter *"searches an appropriate resource that can be
connected to the signal pin"* for **each method to be carried out** - and a
naive reproduction repeats that search for every action of every run, even
though the search result depends only on

* the script (which signals/methods it exercises, in which order),
* the stand topology (resource table + connection matrix),
* the allocation policy, and
* the stand variables the limit expressions reference (``ubatt`` ...),

none of which change between the runs of a campaign.  An
:class:`ExecutionPlan` therefore carries the compiled VM program of one
(script x stand-topology x policy x variables) combination: the bytecode
VM (:func:`repro.teststand.vm.compile_program`) runs the whole allocation
sequence once, in the same walk that emits the flat instruction stream
every later run executes.  The VM re-checks what a run could change
before it executes anything, and degrades the whole run to the classic
interpreter on any mismatch, so the verdict table is byte-identical with
plans on or off.

Plans live in a :class:`PlanCache` keyed by content fingerprints, never by
object identity: two stands built by the same factory share one plan, and a
stand whose topology differs in any observable way (an added resource, a
rewired route, another supply voltage) misses the cache and gets its own
plan.  :data:`GLOBAL_PLAN_CACHE` is the process-wide default the executor
backends use; worker processes each grow their own copy.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from typing import Mapping

from ..core.errors import ExpressionError, ScriptError
from ..core.script import MethodCall, ScriptStep, SignalAction, TestScript
from ..core.signals import Signal, SignalSet
from ..methods import (
    MethodOutcome,
    MethodRegistry,
    evaluate_call_parameter,
    limits_for_call,
)
from .stands import TestStand
from . import vm

__all__ = [
    "ExecutionPlan",
    "PlanCacheStats",
    "PlanCache",
    "GLOBAL_PLAN_CACHE",
    "compile_plan",
    "action_is_measurement",
    "split_step",
    "open_circuit_requested",
    "open_circuit_outcome",
    "wait_duration",
    "script_variables",
    "script_fingerprint",
    "stand_fingerprint",
    "registry_fingerprint",
]


# ---------------------------------------------------------------------------
# Shared action semantics (single source for interpreter and plan compiler)
# ---------------------------------------------------------------------------

def action_is_measurement(registry: MethodRegistry, method: str) -> bool:
    """Whether *method* is an expectation (evaluated after the step's dt).

    The registry decides where it can; unknown methods fall back to the
    ``get_*`` naming convention, mirroring what the interpreter has always
    done.  The VM compiler and the interpreter's step split must agree on
    this, otherwise a compiled allocation sequence would drift.
    """
    if method in registry:
        return registry.get(method).is_measurement
    return str(method).lower().startswith("get")


def split_step(
    step: ScriptStep, registry: MethodRegistry
) -> tuple[tuple[SignalAction, ...], tuple[SignalAction, ...]]:
    """A step's ``(stimuli, expectations)``, each in action order.

    The one split of a step, for the VM compiler's walk and the classic
    walk: stimuli are applied, the step's dt elapses, then the
    expectations are evaluated.
    """
    stimuli: list[SignalAction] = []
    expectations: list[SignalAction] = []
    for action in step.actions:
        if action_is_measurement(registry, action.method):
            expectations.append(action)
        else:
            stimuli.append(action)
    return tuple(stimuli), tuple(expectations)


def open_circuit_requested(
    action: SignalAction, signal: Signal, variables: Mapping[str, float]
) -> bool:
    """Whether the interpreter will realise this action as an open circuit.

    ``put_r r="INF"`` with an unbounded acceptance window never reaches the
    allocator - the pin is simply disconnected.  The VM compiler must make
    the same call (and apply the same release) to keep its scratch
    allocator state in lock-step with the real run.
    """
    if action.call.key != "put_r" or signal.is_bus:
        return False
    try:
        requested = evaluate_call_parameter(action.call, "r", variables)
    except Exception:
        return False
    if requested is None or not math.isinf(requested):
        return False
    acceptance = limits_for_call(action.call, "r", variables)
    return math.isinf(acceptance.high)


def open_circuit_outcome(action: SignalAction, signal: Signal) -> MethodOutcome:
    """The PASS outcome of an open-circuit realisation.

    Single source for the VM compiler and the interpreter's classic walk:
    compiled and freshly-decided open circuits must render byte-identically
    in reports, so the literal lives in exactly one place.
    """
    return MethodOutcome(
        method=action.method,
        passed=True,
        observed=math.inf,
        unit="Ohm",
        detail=f"realised as open circuit at {'/'.join(signal.pins)}",
    )


def wait_duration(call: MethodCall) -> float:
    """The seconds a ``wait`` action waits: its ``t``, read as a number.

    ``t`` is read like every other parameter (:meth:`MethodCall.parsed`:
    decimal commas, ``INF``); a blank or missing ``t`` waits 0.  Any other
    text raises :class:`~repro.core.errors.ScriptError`, which the executor
    does not retry: no attempt could wait for it.  Single source for the
    VM compiler, whose ``VmCompileError`` carries the same reason, and the
    classic walk.
    """
    try:
        duration = call.parsed("t")
        if duration is None:
            return 0.0
        if isinstance(duration, float):
            return duration
    except ExpressionError:
        pass
    raise ScriptError(f"duration t={call.param('t')!r} is not numeric")


def script_variables(script: TestScript,
                     variables: Mapping[str, float]) -> dict[str, float]:
    """The values of the variables *script* reads, by lower-case name.

    Read as expressions read them: names match case-insensitively and,
    of two spellings of one name, the later wins.  Every value must be a
    number, as expressions need.  A plan compiled for these values serves
    every run that has them, whatever else the run brings (the harness
    clock ``t`` of a stand that outlives its runs, say).
    """
    lowered = {str(name).lower(): float(value)
               for name, value in variables.items()}
    return {name: lowered[name] for name in script.variables
            if name in lowered}


# ---------------------------------------------------------------------------
# Fingerprints (content identity, never object identity)
# ---------------------------------------------------------------------------

class _HashedKey:
    """A fingerprint tuple with its hash computed once.

    The fingerprints below are deeply nested tuples; hashing one from
    scratch on every cache lookup (that is: every run) would cost more
    than the lookup saves.  Wrapping the tuple freezes the hash at
    construction while equality still compares full content, so hash
    collisions can never alias two different fingerprints.
    """

    __slots__ = ("value", "_hash")

    def __init__(self, value: tuple):
        self.value = value
        self._hash = hash(value)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _HashedKey):
            return self._hash == other._hash and self.value == other.value
        return NotImplemented

    def __reduce__(self):
        # String hashes are salted per process (PYTHONHASHSEED): a key
        # pickled into a worker must recompute its hash there, or
        # equal-content keys from the parent and the worker would never
        # compare equal.
        return (type(self), (self.value,))

    def __repr__(self) -> str:
        return f"_HashedKey({self.value!r})"


def script_fingerprint(script: TestScript, signals: SignalSet) -> "_HashedKey":
    """Execution-relevant content identity of (script, resolved signals).

    Covers every action exactly as spelled (order, signal, method,
    parameters in insertion order) plus the pin / bus resolution of every
    signal the script touches - everything the allocation sequence depends
    on - plus the step skeleton (number, settle duration, remark).  The
    skeleton was irrelevant while plans stopped at allocation, but the
    cached plan now carries the compiled VM program of the *whole
    measurement loop*, whose ``WAIT`` / ``END_STEP`` operands bake in
    exactly those step fields.  The spelling is exact because a VM run
    reports the compiled program's own action objects: a script that
    differs only in method case or parameter order must get its own plan,
    or its results would name the other script's actions.  A script is
    a value, so the result is memoised on the script object, keyed by the
    signal-set object: the same script run against a differently-pinned
    set must fingerprint afresh, or it would alias the other set's plan.
    (The memo keeps a strong reference to the set, so an ``is`` check
    cannot be fooled by id reuse; a pickled script leaves it behind.)
    """
    cached = script.__dict__.get("_allocation_fingerprint")
    if cached is not None and cached[0] is signals:
        return cached[1]

    actions: list[tuple] = []
    used: dict[str, None] = {}

    def _record(action: SignalAction, marker: str) -> None:
        used.setdefault(str(action.signal).lower(), None)
        actions.append((
            marker,
            action.signal,
            action.call.method,
            tuple(action.call.params.items()),
        ))

    for action in script.setup:
        _record(action, "s")
    for step in script.steps:
        for action in step.actions:
            _record(action, str(step.number))

    resolved: list[tuple] = []
    for key in used:
        try:
            signal = signals.get(key)
        except Exception:
            resolved.append((key, None))
            continue
        resolved.append((
            key,
            tuple(p.lower() for p in signal.pins),
            bool(signal.is_bus),
            str(signal.message).lower() if signal.message else None,
        ))

    steps_meta = tuple(
        (step.number, float(step.duration), step.remark)
        for step in script.steps
    )
    fingerprint = _HashedKey(
        (script.name, script.dut.lower(), tuple(actions), tuple(resolved),
         steps_meta)
    )
    script.__dict__["_allocation_fingerprint"] = (signals, fingerprint)
    return fingerprint


def stand_fingerprint(stand: TestStand) -> "_HashedKey":
    """Topology identity of a test stand: resources, routes, supply, variables.

    Two stands built by the same factory fingerprint identically and share
    one plan; any observable topology difference - another instrument, a
    different capability range, a rewired or re-labelled route, another
    supply voltage or stand variable - changes the fingerprint and therefore
    invalidates (that is: bypasses) every cached plan.  Memoised on the
    stand object; stands are treated as topologically immutable once they
    have executed a script, which every bundled builder guarantees.  The
    resource/route counts guard the memo anyway, so the common in-place
    mutations (adding a resource or wiring a new route between runs) are
    caught rather than silently running a stale plan.
    """
    guard = (len(stand.resources), len(stand.connections))
    cached = stand.__dict__.get("_topology_fingerprint")
    if cached is not None and cached[0] == guard:
        return cached[1]

    resources: list[tuple] = []
    # Table order is part of the topology: first_fit takes candidates in
    # exactly this order, so re-ordered resources must not share a plan.
    for resource in stand.resources:
        instrument = resource.instrument
        resources.append((
            resource.key,
            type(instrument).__name__,
            tuple(instrument.terminals),
            bool(instrument.is_bus_interface),
            tuple(
                (c.method.lower(), c.attribute, c.minimum, c.maximum, c.unit)
                for c in instrument.capabilities()
            ),
        ))

    # Route order is deliberately normalised away (sorted below): a
    # (resource, terminal, pin) triple is unique within a matrix -
    # ConnectionMatrix.add rejects duplicates regardless of connector - so
    # route_between() cannot depend on table order and two stands that
    # differ only in route insertion order genuinely behave identically.
    routes: list[tuple] = []
    for route in stand.connections:
        connector = route.connector
        routes.append((
            route.resource_key,
            route.terminal,
            route.pin_key,
            type(connector).__name__,
            connector.label,
            getattr(connector, "mux", None),
            getattr(connector, "channel", None),
        ))

    fingerprint = _HashedKey((
        stand.name,
        float(stand.supply_voltage),
        tuple(sorted(stand.variables.items())),
        tuple(resources),
        tuple(sorted(routes)),
    ))
    stand.__dict__["_topology_fingerprint"] = (guard, fingerprint)
    return fingerprint


def registry_fingerprint(registry: MethodRegistry) -> "_HashedKey":
    """Identity of the method vocabulary the split/persistence logic reads.

    Memoised on the registry object, guarded by the registry's mutation
    revision - ``register(..., replace=True)`` changes a spec without
    changing the length, so counting entries would not be enough.
    """
    revision = registry._revision
    cached = registry.__dict__.get("_plan_fingerprint")
    if cached is not None and cached[0] == revision:
        return cached[1]
    fingerprint = _HashedKey(tuple(
        (spec.key, bool(spec.is_measurement), bool(spec.is_stimulus))
        for spec in registry
    ))
    registry.__dict__["_plan_fingerprint"] = (revision, fingerprint)
    return fingerprint


# ---------------------------------------------------------------------------
# The plan itself
# ---------------------------------------------------------------------------

class ExecutionPlan:
    """The compiled execution of one (script x stand x policy x variables).

    ``program`` is the compiled VM instruction stream of the whole
    measurement loop (see :mod:`repro.teststand.vm`), or ``None`` when the
    combination is not VM-expressible - ``vm_reason`` then names the
    failing op and why, and every run takes the classic walk.
    """

    __slots__ = ("key", "program", "vm_reason")

    def __init__(self, key: tuple = (), *, program=None, vm_reason: str = ""):
        self.key = key
        self.program = program
        self.vm_reason = vm_reason

    def __repr__(self) -> str:
        return f"ExecutionPlan({'vm' if self.program is not None else 'no-vm'})"


def compile_plan(
    script: TestScript,
    signals: SignalSet,
    stand: TestStand,
    *,
    policy: str,
    registry: MethodRegistry,
    variables: Mapping[str, float],
    key: tuple = (),
) -> ExecutionPlan:
    """Compile *script* on *stand* into a cacheable :class:`ExecutionPlan`.

    The one compile pass is :func:`repro.teststand.vm.compile_program`:
    when the whole measurement loop is expressible as a flat instruction
    stream, the plan carries the compiled ``program``; otherwise
    ``vm_reason`` records the failing op and every run of the combination
    takes the classic path.
    """
    try:
        program = vm.compile_program(
            script, signals, stand,
            policy=policy, registry=registry, variables=variables,
        )
    except vm.VmCompileError as exc:
        return ExecutionPlan(key, vm_reason=f"{exc.op}: {exc.reason}")
    return ExecutionPlan(key, program=program)


# ---------------------------------------------------------------------------
# The cache
# ---------------------------------------------------------------------------

class PlanCacheStats:
    """Counters describing how well the plan cache and the VM are working.

    ``plan_hits`` / ``plan_misses`` count run-level lookups (a miss
    compiles); ``vm_runs`` counts runs the bytecode VM executed end to
    end, ``vm_degraded`` runs whose program existed but failed the
    prologue self-check and degraded to the classic walk.
    """

    __slots__ = (
        "plans_compiled", "plan_hits", "plan_misses",
        "vm_runs", "vm_degraded",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)

    def merge(self, snapshot: Mapping[str, float]) -> None:
        """Fold another stats snapshot (e.g. a worker process's) into this."""
        for name in self.__slots__:
            value = snapshot.get(name)
            if value is not None:
                setattr(self, name, getattr(self, name) + int(value))

    def snapshot(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


class PlanCache:
    """Thread-safe LRU cache of compiled execution plans.

    Keys are content fingerprints of (script, resolved signals, stand
    topology, policy, variables, method registry) - see the module
    docstring for why identity would be wrong on both sides.  The cache is
    shared by every worker thread of a process (the async backend's
    interleaved jobs included); worker *processes* each hold their own.
    """

    def __init__(self, maxsize: int = 256):
        self.maxsize = max(1, int(maxsize))
        self._plans: OrderedDict[tuple, ExecutionPlan] = OrderedDict()
        self._lock = threading.Lock()
        self.stats = PlanCacheStats()

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    def clear(self) -> None:
        """Drop every cached plan and reset the statistics."""
        with self._lock:
            self._plans.clear()
            self.stats.reset()

    def note_vm_run(self) -> None:
        """Count one run executed end-to-end by the VM fast path."""
        with self._lock:
            self.stats.vm_runs += 1

    def note_vm_degrade(self) -> None:
        """Count one run whose program failed its self-check pre-flight."""
        with self._lock:
            self.stats.vm_degraded += 1

    def merge_stats(self, snapshot: Mapping[str, float]) -> None:
        """Fold a worker process's stats delta into this cache's counters."""
        with self._lock:
            self.stats.merge(snapshot)

    def plan_for(
        self,
        script: TestScript,
        signals: SignalSet,
        stand: TestStand,
        *,
        policy: str,
        registry: MethodRegistry,
        variables: Mapping[str, float],
    ) -> ExecutionPlan:
        """The cached plan for this combination, compiling it on first use.

        A compile failure of any kind caches a plan without a program, so
        every run of the combination takes the classic walk.
        """
        read = script_variables(script, variables)
        key = (
            script_fingerprint(script, signals),
            stand_fingerprint(stand),
            str(policy),
            tuple(read.items()),
            registry_fingerprint(registry),
        )
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self._plans.move_to_end(key)
                self.stats.plan_hits += 1
                return plan
            self.stats.plan_misses += 1

        # Compile outside the lock: a compile is a full allocation pass,
        # and holding the cache-wide lock for it would serialise every
        # other worker's lookups during campaign warm-up.  Two workers
        # racing on the same key compile identical plans (the inputs are
        # the key); the first insert wins, the loser's work is discarded.
        try:
            plan = compile_plan(
                script, signals, stand,
                policy=policy, registry=registry, variables=read, key=key,
            )
            compiled = True
        except Exception:
            plan = ExecutionPlan(key)
            compiled = False

        with self._lock:
            existing = self._plans.get(key)
            if existing is not None:
                self._plans.move_to_end(key)
                return existing
            if compiled:
                self.stats.plans_compiled += 1
            self._plans[key] = plan
            while len(self._plans) > self.maxsize:
                self._plans.popitem(last=False)
            return plan


#: Process-wide default cache used by the interpreter and executor backends.
GLOBAL_PLAN_CACHE = PlanCache()

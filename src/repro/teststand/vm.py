"""Script bytecode VM: the whole run compiled to a flat instruction stream.

For each method it carries out, the paper's interpreter searches a
resource that can be connected to the signal pin.  The VM does that search
once per (script x stand-topology x registry x variables) combination:
:func:`walk_program` walks the script in the interpreter's order against a
scratch allocator, and :func:`compile_program` turns that walk into a flat
stream of instructions

========================  ====================================================
op                        meaning
========================  ====================================================
``SET``                   stimulus instrument calls with pre-resolved
                          signal, routes, instrument and capability window
                          (``put_*``)
``GET``                   measurement instrument calls, same operands
                          (``get_*``)
``WAIT``                  advance the harness clock by a step's settle dt,
                          or by a ``wait`` action's duration and emit its
                          PASS result
``OPEN_CIRCUIT``          realise ``put_r r="INF"`` by disconnecting the
                          signal's pins (pre-decided PASS outcome)
``END_STEP``              close the current step: build its
                          :class:`~repro.teststand.verdict.StepResult`
========================  ====================================================

Each segment (the setup, each step) then goes through :func:`batch_io`:
consecutive ``SET`` / ``GET`` ops on the *same resource* merge into one op
carrying an item tuple, paying the instrument's ``io_delay`` once per batch
(the round trip of one chained command list) instead of once per call.

Adjacent ``WAIT`` ops stay separate: one summed clock advance rounds
differently from two, and fires ECU timers and CAN flushes at other
instants than the classic walk does.

Execution is deliberately paranoid: a program **binds** to a concrete
stand instance (resolving resource keys to live instruments and re-checking
every constant capability window against *that* stand's capability rows),
and every run starts with a prologue that re-checks the live signal pinning
and the variable-dependent windows.  Any mismatch at any of those points
degrades **the whole run** to the classic interpreter before a single
instruction has touched the harness - so verdict tables are byte-identical
with the VM on or off.  Scripts the compiler cannot express (an allocation
that fails at compile time, a non-numeric ``wait`` duration, an unknown
signal) raise :class:`VmCompileError`; the plan then carries no program and
every run of the combination takes the classic path, which the
``X-UNCOMPILABLE-SCRIPT`` lint rule surfaces pre-flight.  Composed sheets
compile like any other: a composed run is its members' runs on one bus, and
the composition harness routes every instrument call the VM makes.

The instruction loop is written once, as a generator core
(:meth:`VmCursor.run`) that yields its wall-clock waits;
:meth:`VmCursor.execute` drives it with blocking sleeps and the async
interpreter path awaits it (see :func:`repro.instruments.base.drive`).

One deliberate contract makes the fast path fast: the VM hands every
``_perform`` call one shared per-run variables dict instead of a fresh copy
per call.  Instruments must not mutate their ``variables`` argument - which
:meth:`~repro.instruments.Instrument._perform` has always documented.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator, Mapping

from .. import chaos as _chaos
from ..core.errors import AllocationError, ExpressionError, TransientError
from ..core.script import MethodCall, ScriptStep, SignalAction, TestScript
from ..core.signals import Signal, SignalSet
from ..core.values import LimitExpression
from ..instruments.base import Core, drive
from ..methods import MethodRegistry, evaluate_call_parameter, limits_for_call
from .allocator import Allocator
from .stands import TestStand
from .verdict import ActionResult, StepResult, Verdict

__all__ = [
    "VM_OPS",
    "VmOp",
    "VmIoItem",
    "VmProgram",
    "VmCompileError",
    "VmCursor",
    "walk_program",
    "compile_program",
    "batch_io",
]

#: The instruction set, in documentation order.
VM_OPS = ("SET", "GET", "WAIT", "OPEN_CIRCUIT", "END_STEP")

#: How many (program x stand) bindings one stand instance memoises.
_BINDING_CACHE_SIZE = 8


class VmCompileError(Exception):
    """A (script x stand) combination the VM compiler cannot express.

    ``op`` names the instruction that could not be generated (e.g.
    ``"SET door_fl:put_r"``); ``reason`` says why.  Both feed the
    ``X-UNCOMPILABLE-SCRIPT`` lint rule and the plan's ``vm_reason``.  A
    failed allocation's ``__cause__`` is its
    :class:`~repro.core.errors.AllocationError`.
    """

    def __init__(self, op: str, reason: str):
        self.op = op
        self.reason = reason
        super().__init__(f"{op}: {reason}")


def _window_is_dynamic(call: MethodCall, attribute: str) -> bool:
    """Whether the call's window parameters may reference stand variables.

    A bound that reads as an expression is dynamic, and so is one that
    cannot be read: only a run can tell how it fails.
    """
    for suffix in ("", "_min", "_max"):
        try:
            if isinstance(call.parsed(attribute + suffix), LimitExpression):
                return True
        except ExpressionError:
            return True
    return False


class VmIoItem:
    """One pre-resolved instrument call inside a ``SET`` / ``GET`` op."""

    __slots__ = ("action", "signal", "allocation", "window", "dynamic",
                 "attribute")

    def __init__(self, action: SignalAction, signal: Signal, allocation,
                 attribute: str, window: tuple | None = None):
        self.action = action
        self.signal = signal
        self.allocation = allocation
        #: Pre-evaluated capability window (``(capability, nominal,
        #: acceptance)``) of the allocated resource, or ``None`` when the
        #: call carries nothing to range-check.
        self.window = window
        #: ``True`` when the window references stand variables and must be
        #: re-evaluated in each run's prologue; a constant window is
        #: checked once, when the program binds to a stand.
        self.dynamic = (window is not None
                        and _window_is_dynamic(action.call, attribute))
        #: The principal attribute (``"u"``, ``"r"``, ...) of the serving
        #: resource's capability for the method, the one its instrument
        #: and the capability window read; used to pre-evaluate the call's
        #: nominal value and acceptance limits per run.
        self.attribute = attribute

    def __repr__(self) -> str:
        return f"VmIoItem({self.signal.key}:{self.action.method})"


class VmOp:
    """One instruction of a :class:`VmProgram` (operands vary by ``code``)."""

    __slots__ = (
        "code", "items", "resource_key", "duration",
        "action", "signal", "outcome", "number", "remark",
    )

    def __init__(self, code: str, **operands):
        self.code = code
        self.items: tuple[VmIoItem, ...] = operands.get("items", ())
        self.resource_key: str = operands.get("resource_key", "")
        self.duration: float = operands.get("duration", 0.0)
        self.action = operands.get("action")
        self.signal = operands.get("signal")
        self.outcome = operands.get("outcome")
        self.number: int = operands.get("number", 0)
        self.remark: str = operands.get("remark", "")

    def __repr__(self) -> str:
        if self.code in ("SET", "GET"):
            calls = ",".join(f"{i.signal.key}:{i.action.method}" for i in self.items)
            return f"VmOp({self.code} {self.resource_key} [{calls}])"
        if self.code == "WAIT":
            return f"VmOp(WAIT {self.duration:g}s)"
        if self.code == "END_STEP":
            return f"VmOp(END_STEP {self.number})"
        return f"VmOp({self.code})"


class VmProgram:
    """The compiled instruction stream of one plan, shared across stands.

    ``ops`` is the flat stream; ``setup_size`` many leading instructions
    belong to the script's setup segment, the rest are step segments each
    closed by an ``END_STEP``.  Programs hold only content-safe operands
    (signals, calls, allocations, windows) - live instruments are resolved
    per stand instance by the binding step.
    """

    __slots__ = ("ops", "setup_size", "key")

    def __init__(self, ops: tuple[VmOp, ...], setup_size: int, *,
                 key: tuple = ()):
        self.ops = tuple(ops)
        self.setup_size = int(setup_size)
        self.key = key

    def __len__(self) -> int:
        return len(self.ops)

    def __repr__(self) -> str:
        return f"VmProgram({len(self.ops)} ops)"


def batch_io(ops: list[VmOp]) -> list[VmOp]:
    """Merge consecutive I/O ops on the same resource into one batch op.

    The batch carries every call as an item, executed strictly in order;
    the instrument's ``io_delay`` is paid once per batch - the round trip
    of one chained command list.  Verdicts cannot drift: each item still
    performs its own call and records its own result.
    """
    out: list[VmOp] = []
    for op in ops:
        if (op.code in ("SET", "GET") and out
                and out[-1].code in ("SET", "GET")
                and out[-1].resource_key == op.resource_key):
            previous = out[-1]
            out[-1] = VmOp(
                previous.code,
                resource_key=previous.resource_key,
                items=previous.items + op.items,
            )
            continue
        out.append(op)
    return out


# ---------------------------------------------------------------------------
# Compiler: script x stand -> instruction stream, in one walk
# ---------------------------------------------------------------------------

def walk_program(
    script: TestScript,
    signals: SignalSet,
    stand: TestStand,
    *,
    policy: str,
    registry: MethodRegistry,
    variables: Mapping[str, float],
) -> Iterator[tuple[ScriptStep | None, SignalAction | None,
                    VmOp | VmCompileError]]:
    """The one static walk of *script* on *stand*: ``(step, action, op)``.

    Walks the interpreter's exact execution order (setup, then per step all
    stimuli, the settle, all expectations) against a scratch
    :class:`~repro.teststand.allocator.Allocator` with the runs' policy,
    registry and variables, so each ``SET`` / ``GET`` op carries the
    allocation, capability window and ``dynamic`` flag a run would see.
    Open circuits release as they do at run time.  ``step`` is ``None`` in
    the setup; ``action`` is ``None`` for a step's settle ``WAIT`` and its
    ``END_STEP``.

    An action the VM cannot express yields its :class:`VmCompileError` in
    place of the op: an unknown signal (the run gives the classic
    per-action ERROR), a non-numeric ``wait`` duration (the run raises
    like the classic walk), or a failed allocation (``__cause__`` is the
    :class:`~repro.core.errors.AllocationError`, whose message the run
    reproduces).  The walk goes on after an error, the scratch holds as
    the failure left them, so it yields every allocation a run ends in an
    ERROR.  :func:`compile_program` and the lint rules R-UNSERVABLE-STEP,
    R-DEAD-STEP and X-UNCOMPILABLE-SCRIPT read it.
    """
    # Imported lazily: plan.py imports this module at its top level.
    from .plan import (
        action_is_measurement, open_circuit_outcome, open_circuit_requested,
        split_step,
    )

    allocator = Allocator(
        stand.resources, stand.connections, policy=policy, registry=registry
    )

    def compile_action(action: SignalAction) -> VmOp | VmCompileError:
        method_key = action.call.key
        opname = "GET" if action_is_measurement(registry, action.method) else "SET"
        where = f"{opname} {str(action.signal).lower()}:{method_key}"
        try:
            signal = signals.get(action.signal)
        except Exception as exc:
            return VmCompileError(where, f"unknown signal: {exc}")
        if method_key == "wait":
            raw = action.call.param("t", "0") or 0
            try:
                duration = float(raw)
            except (TypeError, ValueError):
                return VmCompileError(
                    f"WAIT {signal.key}:wait",
                    f"duration t={raw!r} is not numeric",
                )
            return VmOp("WAIT", duration=duration, action=action)
        if open_circuit_requested(action, signal, variables):
            allocator.release(signal.key)
            return VmOp("OPEN_CIRCUIT", action=action, signal=signal,
                        outcome=open_circuit_outcome(action, signal))
        try:
            allocation = allocator.allocate(signal, action.call, variables)
        except AllocationError as exc:
            error = VmCompileError(
                where,
                "no resource allocatable at compile time (the run must "
                "reproduce the full search's error)",
            )
            error.__cause__ = exc
            return error
        resource = stand.resources.get(allocation.resource)
        window = allocator.capability_window(resource, action.call, variables)
        attribute = resource.capability_for(action.method).attribute
        item = VmIoItem(action, signal, allocation, attribute, window)
        return VmOp(opname, resource_key=allocation.resource, items=(item,))

    for action in script.setup:
        yield None, action, compile_action(action)
    for step in script.steps:
        stimuli, expectations = split_step(step, registry)
        for action in stimuli:
            yield step, action, compile_action(action)
        yield step, None, VmOp("WAIT", duration=step.duration)
        for action in expectations:
            yield step, action, compile_action(action)
        yield step, None, VmOp("END_STEP", number=step.number,
                               duration=step.duration, remark=step.remark)


def compile_program(
    script: TestScript,
    signals: SignalSet,
    stand: TestStand,
    *,
    policy: str,
    registry: MethodRegistry,
    variables: Mapping[str, float],
    key: tuple = (),
) -> VmProgram:
    """Compile *script* on *stand* into a :class:`VmProgram` in one walk.

    Reads :func:`walk_program` and raises its first
    :class:`VmCompileError`.  The compiled windows are sound across runs
    because the variables they depend on are part of the plan-cache key,
    and the run prologue re-checks the variable-dependent ones anyway.

    :func:`batch_io` runs per segment (setup and each step separately), so
    batches never cross a segment boundary.
    """
    setup: list[VmOp] = []
    steps: list[VmOp] = []
    segment: list[VmOp] = []
    for step, _action, op in walk_program(
        script, signals, stand,
        policy=policy, registry=registry, variables=variables,
    ):
        if isinstance(op, VmCompileError):
            raise op
        if step is None:
            setup.append(op)
            continue
        segment.append(op)
        if op.code == "END_STEP":
            steps.extend(batch_io(segment))
            segment = []
    ops = batch_io(setup)
    setup_size = len(ops)
    ops.extend(steps)
    return VmProgram(tuple(ops), setup_size, key=key)


# ---------------------------------------------------------------------------
# Binding: program x stand instance -> executable stream
# ---------------------------------------------------------------------------

# Executable opcodes (tuple-based for dispatch speed in the run loop).
# ``_X_STEPS`` marks where the setup segment ends and the steps begin.
_X_IO = 0
_X_WAIT = 1
_X_OPEN = 2
_X_END = 3
_X_STEPS = 4


class VmBinding:
    """One program resolved against one concrete stand instance.

    ``ops`` is the executable stream: plain tuples whose first element is
    an ``_X_*`` opcode, with live instrument references and pre-computed
    bookkeeping operands; an ``_X_STEPS`` op separates the setup segment
    from the steps.  ``signal_shapes`` holds the compiled pinning
    the run prologue re-checks against the live signal set;
    ``dynamic_guards`` the variable-dependent windows re-evaluated against
    the run's variables (``guard_memo`` caches the verdict per variables
    shape - campaign runs repeat the same variables, so the evaluation
    happens once, while a genuinely new shape re-evaluates).
    """

    __slots__ = ("ops", "signal_shapes", "dynamic_guards",
                 "guard_memo", "signals_ok", "prepared_memo")

    def __init__(self, ops, signal_shapes, dynamic_guards):
        self.ops = ops
        self.signal_shapes = signal_shapes
        self.dynamic_guards = dynamic_guards
        self.guard_memo: dict[tuple, bool] = {}
        #: Pre-evaluated ``(nominal, limits)`` operand pairs per variables
        #: shape, aligned with the flat I/O item order; handed to
        #: ``Instrument._perform`` so instruments skip re-evaluating the
        #: same parameter expressions on every run.
        self.prepared_memo: dict[tuple, tuple] = {}
        #: Signal sets whose live pinning already matched ``signal_shapes``.
        #: Sound as an identity memo: ``Signal`` is frozen and a
        #: ``SignalSet`` only ever *gains* keys (duplicates raise), so a
        #: set that matched once matches forever.  Strong references keep
        #: ``is`` honest against id reuse.
        self.signals_ok: list = []


def _prepare_operands(binding: "VmBinding", variables: Mapping[str, float]) -> tuple:
    """Pre-evaluate every I/O item's ``(nominal, limits)`` pair.

    One entry per item in flat stream order, ``None`` when nothing
    evaluates.  Evaluation errors leave the slot ``None`` so the
    instrument re-runs the evaluation itself and raises exactly like the
    classic path.
    """
    out = []
    for op in binding.ops:
        if op[0] != _X_IO:
            continue
        for item in op[4]:
            attribute = item[8]
            call = item[1]
            try:
                nominal = evaluate_call_parameter(call, attribute, variables)
            except Exception:
                nominal = None
            try:
                limits = limits_for_call(call, attribute, variables)
            except Exception:
                limits = None
            if nominal is None and limits is None:
                out.append(None)
            else:
                out.append((nominal, limits))
    return tuple(out)


def _bind(program: VmProgram, stand: TestStand) -> VmBinding | None:
    """Resolve *program* against *stand*, or ``None`` when it does not fit.

    Re-checks, against this concrete stand instance, everything that is
    constant per (program x stand): every resource key resolves, every
    instrument still supports its method, and every constant capability
    window still fits the instrument's capability row.  Variable-dependent
    (``dynamic``) windows are collected for the per-run prologue instead.
    """
    bound: list[tuple] = []
    signal_shapes: dict[str, tuple] = {}
    dynamic_guards: list[tuple] = []

    def note_signal(signal: Signal) -> None:
        signal_shapes.setdefault(signal.key, (
            tuple(p.lower() for p in signal.pins),
            bool(signal.is_bus),
            str(signal.message).lower() if signal.message else None,
        ))

    def check_window(window, resource, method: str) -> bool:
        if window is None:
            return True
        _, nominal, acceptance = window
        try:
            capability = resource.capability_for(method)
        except Exception:
            return False
        return capability.can_serve(nominal, acceptance)

    for index, op in enumerate(program.ops):
        if index == program.setup_size:
            bound.append((_X_STEPS,))
        code = op.code
        if code in ("SET", "GET"):
            try:
                resource = stand.resources.get(op.resource_key)
            except AllocationError:
                return None
            instrument = resource.instrument
            items = []
            for item in op.items:
                note_signal(item.signal)
                if item.dynamic:
                    dynamic_guards.append(
                        (resource, item.action.call, item.window))
                elif not check_window(item.window, resource,
                                      item.action.method):
                    return None
                allocation = item.allocation
                items.append((
                    item.action,
                    item.action.call,
                    item.signal,
                    allocation.pins,
                    item.signal.key,
                    allocation.routes,
                    allocation.persistent,
                    allocation,
                    item.attribute,
                ))
            bound.append((_X_IO, instrument, instrument._perform,
                          resource.key, tuple(items)))
        elif code == "WAIT":
            bound.append((_X_WAIT, op.duration, op.action))
        elif code == "OPEN_CIRCUIT":
            note_signal(op.signal)
            bound.append((_X_OPEN, op.action, op.signal.key,
                          op.signal.pins, op.outcome))
        elif code == "END_STEP":
            bound.append((_X_END, op.number, op.duration, op.remark))
        else:  # pragma: no cover - unknown op means a compiler bug
            return None
    return VmBinding(tuple(bound), signal_shapes, tuple(dynamic_guards))


def binding_for(program: VmProgram, stand: TestStand) -> VmBinding | None:
    """The memoised binding of *program* on *stand* (``None`` = no fit).

    Bindings are cached on the stand instance keyed by the program's plan
    key with an identity re-check (plan keys are content fingerprints, but
    a program evicted and recompiled must re-bind).  Failed binds are
    memoised too - a stand that cannot carry the program today cannot
    carry it on the next run either.
    """
    cache: OrderedDict | None = stand.__dict__.get("_vm_bindings")
    if cache is None:
        cache = stand.__dict__["_vm_bindings"] = OrderedDict()
    cached = cache.get(program.key)
    if cached is not None and cached[0] is program:
        cache.move_to_end(program.key)
        return cached[1]
    binding = _bind(program, stand)
    cache[program.key] = (program, binding)
    while len(cache) > _BINDING_CACHE_SIZE:
        cache.popitem(last=False)
    return binding


# ---------------------------------------------------------------------------
# The cursor: one run of one bound program
# ---------------------------------------------------------------------------

class VmCursor:
    """Executes one bound program for one run, self-distrusting throughout.

    :meth:`validate` is the run prologue: it re-checks everything the
    compiled operands assume about *this* run (live signal pinning,
    variable-dependent capability windows) and returns ``False`` - before
    any instruction has executed - when the program cannot be trusted; the
    interpreter then runs the classic walk and the verdicts stay
    byte-identical.  :meth:`run` is the instruction loop as a generator
    core, :meth:`execute` its blocking driver.
    """

    __slots__ = ("binding", "allocator", "harness", "signals",
                 "stop_on_error", "_prepared")

    def __init__(
        self,
        program: VmProgram,
        stand: TestStand,
        *,
        signals: SignalSet,
        allocator: Allocator,
        harness,
        stop_on_error: bool = False,
    ):
        self.binding = binding_for(program, stand)
        self.signals = signals
        self.allocator = allocator
        self.harness = harness
        self.stop_on_error = bool(stop_on_error)
        self._prepared: tuple = ()

    def validate(self, variables: Mapping[str, float]) -> bool:
        """Run prologue: may this run trust the compiled operands?

        Checks the live signal pinning against the compiled shapes (a
        re-pinned adapter must degrade); a :class:`SignalSet` *instance*
        that matched once is memoised by identity, which is sound because
        signal sets are grow-only and signals immutable.  Checks the
        variable-dependent windows once per distinct variables shape: their
        limit expressions are re-evaluated through
        :meth:`~repro.teststand.allocator.Allocator.capability_window`
        with the live variables and the verdict memoised - all runs served
        by one cached plan share the variables that are part of its cache
        key, so campaigns pay the evaluation once per binding.
        """
        binding = self.binding
        if binding is None:
            return False
        signals = self.signals
        for seen in binding.signals_ok:
            if seen is signals:
                break
        else:
            for key, shape in binding.signal_shapes.items():
                try:
                    live = signals.get(key)
                except Exception:
                    return False
                if (tuple(p.lower() for p in live.pins), bool(live.is_bus),
                        str(live.message).lower() if live.message else None
                        ) != shape:
                    return False
            if len(binding.signals_ok) >= 4:
                del binding.signals_ok[0]
            binding.signals_ok.append(signals)
        memo_key = tuple(sorted(variables.items()))
        if binding.dynamic_guards:
            verdict = binding.guard_memo.get(memo_key)
            if verdict is None:
                verdict = self._evaluate_guards(variables)
                if len(binding.guard_memo) >= 8:
                    binding.guard_memo.clear()
                binding.guard_memo[memo_key] = verdict
            if not verdict:
                return False
        prepared = binding.prepared_memo.get(memo_key)
        if prepared is None:
            prepared = _prepare_operands(binding, variables)
            if len(binding.prepared_memo) >= 8:
                binding.prepared_memo.clear()
            binding.prepared_memo[memo_key] = prepared
        self._prepared = prepared
        return True

    def _evaluate_guards(self, variables: Mapping[str, float]) -> bool:
        """Re-evaluate every variable-dependent window with *variables*."""
        for resource, call, _window in self.binding.dynamic_guards:
            window = self.allocator.capability_window(
                resource, call, variables)
            if window is None:
                continue  # nothing to range-check: the classic path passes
            capability, nominal, acceptance = window
            if not capability.can_serve(nominal, acceptance):
                return False
        return True

    def execute(
        self, variables: Mapping[str, float]
    ) -> tuple[list[ActionResult], list[StepResult]]:
        """Execute the whole program; returns (setup results, step results)."""
        return drive(self.run(variables))

    def run(
        self, variables: Mapping[str, float]
    ) -> Core[tuple[list[ActionResult], list[StepResult]]]:
        """The instruction loop as a generator core.

        Yields each wall-clock wait - an I/O batch's ``io_delay``, once per
        batch (the round trip of one chained command list), and an injected
        chaos hang, once per call - and returns ``(setup results, step
        results)``.  Setup and step segments share the loop: a setup action
        that errors under ``stop_on_error`` ends the run, a step whose
        verdict is ERROR ends it at ``END_STEP``.
        """
        harness = self.harness
        allocator = self.allocator
        register = allocator._register
        stop = self.stop_on_error
        run_vars = dict(variables)
        # The VM binds instrument._perform directly, bypassing
        # Instrument.round_trip - so the chaos hooks live here too.  One
        # check per run keeps the clean path at a single bool test.
        chaos_on = _chaos.ACTIVE is not None
        error = Verdict.ERROR
        passed = Verdict.PASS
        failed = Verdict.FAIL
        prepared = self._prepared
        pi = 0

        setup_results: list[ActionResult] = []
        steps: list[StepResult] = []
        results = setup_results
        in_setup = True
        start_time = 0.0
        for op in self.binding.ops:
            code = op[0]
            if code == _X_IO:
                _, instrument, perform, resource_key, items = op
                delay = instrument.io_delay
                if delay > 0.0:
                    yield delay
                for (action, call, signal, pins, signal_key, routes,
                     persistent, allocation, _attr) in items:
                    pre = prepared[pi]
                    pi += 1
                    register(signal_key, resource_key, routes, persistent)
                    glitch = False
                    if chaos_on:
                        hang, glitch = _chaos.on_instrument_call()
                        if hang > 0.0:
                            yield hang
                    try:
                        outcome = perform(call, signal, pins, harness,
                                          run_vars, prepared=pre)
                    except TransientError:
                        raise  # to the executor's retry layer, not a verdict
                    except Exception as exc:
                        results.append(ActionResult(
                            action, error, allocation=allocation,
                            error=str(exc)))
                        if stop and in_setup:
                            # A broken setup invalidates every step.
                            return setup_results, steps
                        continue
                    if glitch:
                        outcome = _chaos.glitched(outcome)
                    results.append(ActionResult(
                        action, passed if outcome.passed else failed,
                        outcome=outcome, allocation=allocation))
            elif code == _X_WAIT:
                harness.advance(op[1])
                if op[2] is not None:  # a ``wait`` action, not a settle
                    results.append(ActionResult(op[2], passed))
            elif code == _X_END:
                result = StepResult(
                    number=op[1], duration=op[2],
                    actions=tuple(results), remark=op[3],
                    start_time=start_time,
                )
                steps.append(result)
                if stop and result.verdict is error:
                    break
                results = []
                start_time = harness.now
            elif code == _X_OPEN:
                _, action, signal_key, pins, outcome = op
                allocator.release(signal_key)
                for pin in pins:
                    harness.release_resistance(pin)
                results.append(ActionResult(action, passed, outcome=outcome))
            else:  # _X_STEPS
                in_setup = False
                results = []
                start_time = harness.now
        return setup_results, steps

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
                          signal, allocation, resource and prepared
                          operands (``put_*``)
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

A program keeps the variables it was compiled for: which resource the
search picks for a relative limit such as ``(0.7*ubatt)`` depends on them,
and the walk prepares every call's operands for them.  A program runs as
compiled on every stand instance the plan cache hands it to: the plan key
holds the stand's fingerprint, which covers every resource's capability
rows in table order, so each capability window the walk's search accepted
fits that stand too.  Execution is still deliberately paranoid: every run starts
with a prologue that refuses other values of the program's variables,
re-checks the live signal pinning and resolves the program's resource keys
to the stand's live instruments.  Any mismatch degrades **the whole run**
to the classic interpreter before a single instruction has touched the
harness - so verdict tables are byte-identical with the VM on or off.
Scripts the compiler cannot express (an allocation that fails at compile
time, a ``wait`` duration that is not a number, an unknown signal) raise
:class:`VmCompileError`; the plan then carries no program and every run of
the combination takes the classic path, which the
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

from typing import Iterator, Mapping

from .. import chaos as _chaos
from ..core.errors import AllocationError, ScriptError, TransientError
from ..core.script import MethodCall, ScriptStep, SignalAction, TestScript
from ..core.signals import Signal, SignalSet
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


class VmIoItem:
    """One pre-resolved instrument call inside a ``SET`` / ``GET`` op."""

    __slots__ = ("action", "signal", "allocation", "prepared")

    def __init__(self, action: SignalAction, signal: Signal, allocation,
                 prepared: tuple | None = None):
        self.action = action
        self.signal = signal
        self.allocation = allocation
        #: The call's ``(nominal, limits)`` pair for the program's
        #: variables (see :func:`_prepare_operands`), handed to the
        #: instrument's ``_perform``, or ``None`` when nothing evaluates.
        self.prepared = prepared

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


# Executable opcodes (tuple-based for dispatch speed in the run loop).
# ``_X_STEPS`` marks where the setup segment ends and the steps begin.
_X_IO = 0
_X_WAIT = 1
_X_OPEN = 2
_X_END = 3
_X_STEPS = 4


class VmProgram:
    """The compiled instruction stream of one plan, shared across stands.

    ``ops`` is the flat stream; ``setup_size`` many leading instructions
    belong to the script's setup segment, the rest are step segments each
    closed by an ``END_STEP``.  ``variables`` are the stand variables the
    program was compiled for, by lower-case name: its allocations and
    prepared operands hold for their values only, so it serves no run with
    other values of them.  Programs hold only content-safe operands
    (signals, calls, allocations, prepared operands) and name resources by
    key, so one program serves every stand instance its plan key fits.

    ``stream`` is what the run loop executes: ``ops`` coded as plain
    tuples whose first element is an ``_X_*`` opcode, with an ``_X_STEPS``
    op between the setup segment and the steps.  An I/O op names its
    resource by index into ``resource_keys``.  ``signal_shapes`` holds the
    compiled pinning the run prologue re-checks against the live signal
    set.
    """

    __slots__ = ("ops", "setup_size", "variables", "stream",
                 "resource_keys", "signal_shapes", "signals_ok")

    def __init__(self, ops: tuple[VmOp, ...], setup_size: int,
                 variables: Mapping[str, float]):
        self.ops = tuple(ops)
        self.setup_size = int(setup_size)
        self.variables = {str(name).lower(): value
                          for name, value in variables.items()}
        slots: dict[str, int] = {}
        shapes: dict[str, tuple] = {}

        def note_signal(signal: Signal) -> None:
            shapes.setdefault(signal.key, (
                tuple(p.lower() for p in signal.pins),
                bool(signal.is_bus),
                str(signal.message).lower() if signal.message else None,
            ))

        stream: list[tuple] = []
        for index, op in enumerate(self.ops):
            if index == self.setup_size:
                stream.append((_X_STEPS,))
            code = op.code
            if code in ("SET", "GET"):
                items = []
                for item in op.items:
                    note_signal(item.signal)
                    items.append((item.action, item.action.call, item.signal,
                                  item.allocation.pins, item.allocation,
                                  item.prepared))
                slot = slots.setdefault(op.resource_key, len(slots))
                stream.append((_X_IO, slot, tuple(items)))
            elif code == "WAIT":
                stream.append((_X_WAIT, op.duration, op.action))
            elif code == "OPEN_CIRCUIT":
                note_signal(op.signal)
                stream.append((_X_OPEN, op.action, op.signal.pins,
                               op.outcome))
            elif code == "END_STEP":
                stream.append((_X_END, op.number, op.duration, op.remark))
            else:  # pragma: no cover - unknown op means a compiler bug
                raise ValueError(f"unknown VM op {code!r}")
        self.stream = tuple(stream)
        self.resource_keys = tuple(slots)
        self.signal_shapes = shapes
        #: Signal sets whose live pinning already matched ``signal_shapes``.
        #: Sound as an identity memo: ``Signal`` is frozen and a
        #: ``SignalSet`` only ever *gains* keys (duplicates raise), so a
        #: set that matched once matches forever.  Strong references keep
        #: ``is`` honest against id reuse.  A tuple, replaced and never
        #: changed in place: runs in several threads share the program.
        self.signals_ok: tuple = ()

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

def _prepare_operands(call: MethodCall, attribute: str,
                      variables: Mapping[str, float]) -> tuple | None:
    """Pre-evaluate one call's ``(nominal, limits)`` pair for *variables*.

    *attribute* is the principal attribute of the serving resource's
    capability for the method, the one its instrument reads (not the
    registry's).  The pair is handed to ``Instrument._perform`` so
    instruments skip re-evaluating the same parameter expressions on every
    run; ``None`` when nothing evaluates.  A half whose evaluation fails
    stays ``None``, so the instrument re-runs the evaluation itself and
    raises exactly like the classic path.
    """
    try:
        nominal = evaluate_call_parameter(call, attribute, variables)
    except Exception:
        nominal = None
    try:
        limits = limits_for_call(call, attribute, variables)
    except Exception:
        limits = None
    if nominal is None and limits is None:
        return None
    return (nominal, limits)


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
    allocation a run with those variables would see, and its call's
    operands prepared for them.
    Open circuits release as they do at run time.  ``step`` is ``None`` in
    the setup; ``action`` is ``None`` for a step's settle ``WAIT`` and its
    ``END_STEP``.

    An action the VM cannot express yields its :class:`VmCompileError` in
    place of the op: an unknown signal (the run gives the classic
    per-action ERROR), a ``wait`` duration that is not a number (the
    classic walk raises the same reason), or a failed allocation
    (``__cause__`` is the :class:`~repro.core.errors.AllocationError`,
    whose message the run reproduces).  The walk goes on after an error, the scratch holds as
    the failure left them, so it yields every allocation a run ends in an
    ERROR.  :func:`compile_program` and the lint rules R-UNSERVABLE-STEP,
    R-DEAD-STEP and X-UNCOMPILABLE-SCRIPT read it.
    """
    # Imported lazily: plan.py imports this module at its top level.
    from .plan import (
        action_is_measurement, open_circuit_outcome, open_circuit_requested,
        split_step, wait_duration,
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
            try:
                duration = wait_duration(action.call)
            except ScriptError as exc:
                return VmCompileError(f"WAIT {signal.key}:wait", str(exc))
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
        capability = stand.resources.get(allocation.resource) \
            .capability_for(action.method)
        item = VmIoItem(action, signal, allocation, _prepare_operands(
            action.call, capability.attribute, variables))
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
) -> VmProgram:
    """Compile *script* on *stand* into a :class:`VmProgram` in one walk.

    Reads :func:`walk_program` and raises its first
    :class:`VmCompileError`.  The program keeps *variables*: its
    allocations and prepared operands hold for them only, and its run
    prologue refuses other values of them (the plan-cache key holds the
    values of the variables the script reads, and compiles for those).

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
    return VmProgram(tuple(ops), setup_size, variables)


# ---------------------------------------------------------------------------
# The cursor: one run of one program on one stand
# ---------------------------------------------------------------------------

class VmCursor:
    """Executes one program for one run on one stand, self-distrusting.

    :meth:`validate` is the run prologue: it re-checks everything the
    compiled operands assume about *this* run (the program's variables,
    the live signal pinning, the stand's resources) and returns ``False``
    - before any instruction has executed - when the program cannot be
    trusted; the interpreter then runs the classic walk and the verdicts
    stay byte-identical.  :meth:`run` is the instruction loop as a
    generator core, :meth:`execute` its blocking driver.
    """

    __slots__ = ("program", "stand", "instruments", "harness", "signals",
                 "stop_on_error")

    def __init__(
        self,
        program: VmProgram,
        stand: TestStand,
        *,
        signals: SignalSet,
        harness,
        stop_on_error: bool = False,
    ):
        self.program = program
        self.stand = stand
        #: The live instrument of each of the program's resource keys on
        #: this stand, in ``resource_keys`` order; :meth:`validate` fills it.
        self.instruments: tuple = ()
        self.signals = signals
        self.harness = harness
        self.stop_on_error = bool(stop_on_error)

    def validate(self, variables: Mapping[str, float]) -> bool:
        """Run prologue: may this run trust the compiled operands?

        Refuses a run whose values of the program's variables differ from
        the program's (names match case-insensitively; the run may bring
        others): the search could pick other resources for them, and the
        prepared operands hold for the program's only.  (The plan-cache key
        holds the values of the variables the script reads, and the program
        keeps those, so a cached program never meets others.)
        Checks the live signal pinning against the compiled shapes (a
        re-pinned adapter must degrade); a :class:`SignalSet` *instance*
        that matched once is memoised by identity, which is sound because
        signal sets are grow-only and signals immutable.  Resolves the
        program's resource keys on this stand and refuses a stand that
        lacks one.  The capability windows need no re-check: the plan key
        holds the stand's fingerprint, so the stand has the capability rows
        the compile walk's search accepted them against.
        """
        program = self.program
        lowered = {str(name).lower(): value for name, value in variables.items()}
        for name, value in program.variables.items():
            if lowered.get(name) != value:
                return False
        signals = self.signals
        for seen in program.signals_ok:
            if seen is signals:
                break
        else:
            for key, shape in program.signal_shapes.items():
                try:
                    live = signals.get(key)
                except Exception:
                    return False
                if (tuple(p.lower() for p in live.pins), bool(live.is_bus),
                        str(live.message).lower() if live.message else None
                        ) != shape:
                    return False
            program.signals_ok = program.signals_ok[-3:] + (signals,)
        resources = self.stand.resources
        try:
            self.instruments = tuple(resources.get(key).instrument
                                     for key in program.resource_keys)
        except AllocationError:
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
        instruments = self.instruments
        stop = self.stop_on_error
        run_vars = dict(variables)
        # The VM calls instrument._perform directly, bypassing
        # Instrument.round_trip - so the chaos hooks live here too.  One
        # check per run keeps the clean path at a single bool test.
        chaos_on = _chaos.ACTIVE is not None
        error = Verdict.ERROR
        passed = Verdict.PASS
        failed = Verdict.FAIL

        setup_results: list[ActionResult] = []
        steps: list[StepResult] = []
        results = setup_results
        in_setup = True
        start_time = 0.0
        for op in self.program.stream:
            code = op[0]
            if code == _X_IO:
                instrument = instruments[op[1]]
                delay = instrument.io_delay
                if delay > 0.0:
                    yield delay
                perform = instrument._perform
                for action, call, signal, pins, allocation, prepared in op[2]:
                    glitch = False
                    if chaos_on:
                        hang, glitch = _chaos.on_instrument_call()
                        if hang > 0.0:
                            yield hang
                    try:
                        outcome = perform(call, signal, pins, harness,
                                          run_vars, prepared=prepared)
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
                _, action, pins, outcome = op
                for pin in pins:
                    harness.release_resistance(pin)
                results.append(ActionResult(action, passed, outcome=outcome))
            else:  # _X_STEPS
                in_setup = False
                results = []
                start_time = harness.now
        return setup_results, steps

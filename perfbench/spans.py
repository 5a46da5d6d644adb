"""In-memory span tracer and the layer map of the campaign benchmark.

The tracer wraps the program's public entry points from the outside: each
wrapped call records one span ``(id, parent id, layer, start, end)`` into a
flat in-memory array, and :func:`aggregate` turns a batch of spans into
per-layer call counts and *self* time (span duration minus the time its
child spans cover).  Every benchmark op runs inside a root span named
:data:`OP`, whose self time is the op's unattributed residual, so the
layer self times of an op always add up to its wall.

Wrappers must be installed before the first plan compile: the bytecode VM
binds ``instrument._perform`` when it binds a program to a stand, so a
wrapper installed later never sees a VM-served instrument call.  Wrappers
use :func:`functools.wraps`, which keeps ``inspect.signature`` (the VM's
``prepared``-keyword probe) reading the wrapped function's signature.

Spans are recorded from one thread; the workloads run serial campaigns,
and the process backend's workers drop out of tracing at fork.
"""

from __future__ import annotations

import array
import functools
import inspect
import json
import os
import time

__all__ = [
    "OP",
    "LAYERS",
    "Tracer",
    "aggregate",
    "install_layers",
    "parse_importtime",
    "attribute_imports",
    "STARTUP_PACKAGES",
]

#: Name of the root span around one benchmark op.
OP = "op"

#: Packages whose import cost ``cli_cold`` reports on its own; everything
#: they pull in (stdlib included) is charged to them.
STARTUP_PACKAGES = ("numpy", "asyncio", "sqlite3")

_perf_counter = time.perf_counter

#: The layers the traced run reports, in report order: layer name and the
#: entry points it wraps as ``(module, owner, attribute)`` (owner ``None``
#: for a module-level function, ``"*Instrument"`` for every concrete
#: instrument class).  METRICS.md says which end-to-end metric each should
#: move, on which workload.
LAYERS: tuple[tuple[str, tuple[tuple[str, str | None, str], ...]], ...] = (
    ("cli.main_campaign",
     (("repro.cli", None, "main_campaign"),)),
    ("targets.build_campaign",
     (("repro.targets", None, "build_campaign"),)),
    ("targets.run_campaign",
     (("repro.targets", None, "run_campaign"),)),
    ("core.compiler.compile_suite",
     (("repro.core.compiler", "Compiler", "compile_suite"),)),
    ("teststand.plan.compile_plan",
     (("repro.teststand.plan", None, "compile_plan"),)),
    ("teststand.vm.compile_program",
     (("repro.teststand.vm", None, "compile_program"),)),
    ("teststand.vm.execute",
     (("repro.teststand.vm", "VmCursor", "execute"),)),
    ("teststand.interpreter.run",
     (("repro.teststand.interpreter", "TestStandInterpreter", "run"),)),
    ("instruments.perform",
     (("repro.instruments", "*Instrument", "_perform"),)),
    ("dut.harness.measure",
     tuple(("repro.dut.harness", "TestHarness", name) for name in (
         "measure_voltage", "measure_current", "measure_resistance",
         "last_can_payload", "last_can_signal"))),
    ("dut.harness.stimulus",
     tuple(("repro.dut.harness", "TestHarness", name) for name in (
         "set_ubatt", "apply_resistance", "release_resistance",
         "apply_voltage", "send_can_payload", "send_can_signal", "reset"))),
    ("dut.harness.advance",
     (("repro.dut.harness", "TestHarness", "advance"),)),
    ("dut.composition",
     tuple(("repro.dut.composition", "CompositionHarness", name) for name in (
         "set_ubatt", "advance", "reset", "apply_resistance",
         "release_resistance", "apply_voltage", "measure_voltage",
         "measure_current", "measure_resistance", "send_can_payload",
         "send_can_signal", "last_can_payload", "last_can_signal"))),
    ("dut.network.solve",
     (("repro.dut.network", "Network", "solve"),)),
    ("can.bus.transmit",
     (("repro.can.bus", "CanBus", "transmit"),)),
    ("teststand.executor.expand_jobs",
     (("repro.analysis.campaign", None, "expand_jobs"),)),
    ("teststand.executor.map_jobs",
     tuple(("repro.teststand.executor", owner, "map_jobs") for owner in (
         "SerialExecutor", "ThreadExecutor", "ProcessExecutor",
         "AsyncExecutor"))),
    ("teststand.executor.execute_job",
     (("repro.teststand.executor", None, "execute_job"),)),
    ("analysis.campaign.run",
     (("repro.analysis.campaign", "FaultCampaign", "run"),)),
    ("analysis.campaign.render",
     (("repro.analysis.campaign", "CampaignResult", "table"),
      ("repro.analysis.campaign", "CampaignResult", "summary"))),
    ("store.open",
     (("repro.store.store", "ResultStore", "__init__"),
      ("repro.store.store", "ResultStore", "_open"))),
    ("store.save_checkpoint",
     (("repro.store.store", "ResultStore", "save_checkpoint"),)),
    ("store.load_checkpoints",
     (("repro.store.store", "ResultStore", "load_checkpoints"),)),
    ("store.record_campaign",
     (("repro.store.store", "ResultStore", "record_campaign"),)),
    ("store.clear_checkpoints",
     (("repro.store.store", "ResultStore", "clear_checkpoints"),)),
    ("store.get_run",
     (("repro.store.store", "ResultStore", "get_run"),)),
    ("store.render",
     (("repro.store.store", "StoredRun", "render"),)),
)


class Tracer:
    """Records spans of wrapped calls into flat in-memory arrays.

    ``enabled`` gates recording: a disabled wrapper only forwards the call.
    Spans are stored five floats apiece (id, parent id, layer index, start,
    end) in one ``array('d')`` so that a long traced run stays small.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._spans = array.array("d")
        self._stack = [0]
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def __len__(self) -> int:
        return len(self._spans) // 5

    def wrap(self, name: str, fn):
        """*fn* wrapped so that each call records one span named *name*."""
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        nid = float(self.name_id(name))
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer._next_id += 1
            sid = tracer._next_id
            parent = stack[-1]
            stack.append(sid)
            start = _perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = _perf_counter()
                stack.pop()
                tracer._spans.extend((sid, parent, nid, start, end))

        return traced

    def _wrap_generator(self, name: str, fn):
        # A generator's span runs from its first ``next`` to exhaustion;
        # what its consumer does between yields (a checkpoint write, say)
        # records as child spans, the rest stays in its self time.
        nid = float(self.name_id(name))
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                yield from fn(*args, **kwargs)
                return
            tracer._next_id += 1
            sid = tracer._next_id
            parent = stack[-1]
            stack.append(sid)
            start = _perf_counter()
            try:
                yield from fn(*args, **kwargs)
            finally:
                end = _perf_counter()
                if stack[-1] == sid:
                    stack.pop()
                elif sid in stack:
                    stack.remove(sid)
                tracer._spans.extend((sid, parent, nid, start, end))

        return traced

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span named *name*."""
        return self.wrap(name, fn)(*args, **kwargs)

    def spans_since(self, mark: int) -> list[tuple[int, int, str, float, float]]:
        """Spans recorded after span count *mark*, as decoded tuples."""
        raw = self._spans[mark * 5:]
        names = self.names
        return [
            (int(raw[i]), int(raw[i + 1]), names[int(raw[i + 2])],
             raw[i + 3], raw[i + 4])
            for i in range(0, len(raw), 5)
        ]

    def dump(self, path: str, *, extra: dict | None = None) -> None:
        """Write every span to *path* as JSON lines.

        The first line describes the columns and names the layers (plus
        *extra*); each further line is one span ``[id, parent, layer index,
        start µs, end µs]``, times relative to the earliest start.
        """
        raw = self._spans
        origin = min(raw[3::5], default=0.0)
        header = {"columns": ["id", "parent", "layer", "start_us", "end_us"],
                  "layers": self.names, **(extra or {})}
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header) + "\n")
            for i in range(0, len(raw), 5):
                handle.write(
                    f"[{int(raw[i])},{int(raw[i + 1])},{int(raw[i + 2])},"
                    f"{(raw[i + 3] - origin) * 1e6:.1f},"
                    f"{(raw[i + 4] - origin) * 1e6:.1f}]\n")

    # -- installation -------------------------------------------------------

    def patch(self, owner, attribute: str, name: str) -> None:
        """Replace ``owner.attribute`` by its traced wrapper."""
        # A class's own dict entry, so an inherited method stays inherited
        # once restored.
        original = owner.__dict__[attribute] if isinstance(owner, type) \
            else getattr(owner, attribute)
        setattr(owner, attribute, self.wrap(name, original))
        self._patches.append((owner, attribute, original))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)
        self.enabled = False

    def _forked(self) -> None:
        self.enabled = False


def _concrete_instruments(base: type) -> list[type]:
    """Every subclass of *base* that defines its own ``_perform`` core."""
    found, pending = [], list(base.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "_perform" in cls.__dict__:
            found.append(cls)
    return sorted(found, key=lambda cls: cls.__qualname__)


def install_layers(tracer: Tracer) -> None:
    """Wrap every entry point of :data:`LAYERS` with *tracer*.

    Imports the program's modules, so call it before the first compile and
    after ``repro`` is importable.  Process-pool workers inherit the
    wrappers but stop recording at fork.
    """
    import importlib

    for name, entry_points in LAYERS:
        for module_name, owner_name, attribute in entry_points:
            module = importlib.import_module(module_name)
            if owner_name is None:
                tracer.patch(module, attribute, name)
            elif owner_name == "*Instrument":
                for cls in _concrete_instruments(module.Instrument):
                    tracer.patch(cls, attribute, name)
            else:
                tracer.patch(getattr(module, owner_name), attribute, name)
    os.register_at_fork(after_in_child=tracer._forked)


def aggregate(spans) -> dict[str, list]:
    """Layer -> ``[calls, self seconds]`` over a closed batch of spans.

    A span's self time is its duration minus the durations of its direct
    children, so the self times of a batch sum to the duration of its root
    spans.
    """
    covered: dict[int, float] = {}
    for _sid, parent, _name, start, end in spans:
        covered[parent] = covered.get(parent, 0.0) + (end - start)
    layers: dict[str, list] = {}
    for sid, _parent, name, start, end in spans:
        entry = layers.get(name)
        if entry is None:
            entry = layers[name] = [0, 0.0]
        entry[0] += 1
        entry[1] += (end - start) - covered.get(sid, 0.0)
    return layers


# ---------------------------------------------------------------------------
# -X importtime attribution
# ---------------------------------------------------------------------------

def parse_importtime(stderr: str) -> list[tuple[int, str, int]]:
    """``(depth, module, self microseconds)`` per ``-X importtime`` line.

    CPython prints a module's line when its import finishes, so children
    precede their parent and sit one indentation level (two spaces) deeper.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        label = fields[2][1:] if fields[2].startswith(" ") else fields[2]
        module = label.lstrip(" ")
        depth = (len(label) - len(module)) // 2
        entries.append((depth, module.strip(), int(fields[0])))
    return entries


def attribute_imports(entries, interpreter_roots=frozenset()) -> dict[str, float]:
    """Fold import self times into ``startup`` buckets, in milliseconds.

    A module is charged to its own top-level package when that is one of
    :data:`STARTUP_PACKAGES` or ``repro``; otherwise to the nearest
    importing ancestor among :data:`STARTUP_PACKAGES` (numpy's stdlib
    dependencies are numpy's cost); otherwise to ``other``.  Trees rooted at
    a module of *interpreter_roots* (what a bare interpreter imports at
    start-up) are skipped: a bare start already charges them.
    """
    buckets = {package: 0.0 for package in STARTUP_PACKAGES}
    buckets.update(repro=0.0, other=0.0)
    ancestors: list[str] = []
    # Reversed, the post-order listing puts every parent before its children.
    for depth, module, self_us in reversed(entries):
        del ancestors[depth:]
        ancestors.append(module)
        if ancestors[0] in interpreter_roots:
            continue
        top = module.split(".")[0]
        if top in buckets and top != "other":
            bucket = top
        else:
            bucket = next(
                (a.split(".")[0] for a in reversed(ancestors[:-1])
                 if a.split(".")[0] in STARTUP_PACKAGES),
                "other",
            )
        buckets[bucket] += self_us / 1000.0
    return buckets

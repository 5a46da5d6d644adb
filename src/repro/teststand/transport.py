"""How a process batch travels: shared inputs once, results by reference.

The jobs of a campaign share a few large objects: each distinct script,
the signal set, the stand / harness / ECU factories.  A :class:`Shipment`
(the parent's side of one batch) pickles each of them once, into a blob
of its own, and the job function with its extra arguments into one more.
A chunk's payload is those blobs for the objects its jobs use, plus its
own jobs pickled with a ``persistent_id`` that names each shared object by
its slot; its size depends on the chunk, not on the batch.

A worker keeps the batches it served last (:func:`open_batch`), keyed by
a token unique to the batch: the parent's pid and a counter.  It unpickles
each shared object at the first chunk that needs it, so every chunk it
serves of that batch runs the same script object (one plan fingerprint,
one action index) against the same signal set (one VM signal check).
Any chunk still runs from its own payload alone, on a worker that never
saw the batch.  Batches are never matched by script identity, name or
content: scripts are mutable, so each batch ships its own copy.

On the way home each action result names its action by position in the
job's script (setup first, then each step's actions), matched by exact
spelling: signal, method, and parameters in insertion order.  The parent
puts its own script's :class:`~repro.core.script.SignalAction` back in
that position; an action not found in the script travels whole.
"""

from __future__ import annotations

import io
import itertools
import os
import pickle
from collections import OrderedDict
from typing import Callable, Sequence

from ..core.script import SignalAction, TestScript
from .verdict import TestResult

__all__ = ["Shipment", "WorkerBatch", "open_batch", "WORKER_BATCHES"]

#: How many batches one worker keeps.
WORKER_BATCHES = 4

_TOKENS = itertools.count(1)

#: This worker's batches, least recently served first.
_BATCHES: OrderedDict[tuple[int, int], "WorkerBatch"] = OrderedDict()


def _script_actions(script: TestScript) -> tuple[SignalAction, ...]:
    actions = list(script.setup)
    for step in script.steps:
        actions.extend(step.actions)
    return tuple(actions)


def _spelling(action: SignalAction) -> tuple:
    # Not ``SignalAction ==``: that ignores method case and parameter
    # order, and a worker's cached programs hold action objects of an
    # earlier script.
    call = action.call
    return (action.signal, call.method, tuple(call.params.items()))


class _SlotPickler(pickle.Pickler):
    """Pickles a chunk's jobs, naming each shared object by its slot."""

    def __init__(self, file, slots: dict[int, int]):
        super().__init__(file, pickle.HIGHEST_PROTOCOL)
        self._slots = slots
        self.used: set[int] = set()

    def persistent_id(self, obj):
        slot = self._slots.get(id(obj))
        if slot is not None:
            self.used.add(slot)
        return slot


class _SlotUnpickler(pickle.Unpickler):
    def __init__(self, data: bytes, batch: "WorkerBatch", blobs: dict[int, bytes]):
        super().__init__(io.BytesIO(data))
        self._batch = batch
        self._blobs = blobs

    def persistent_load(self, slot: int):
        return self._batch.shared(slot, self._blobs)


class Shipment:
    """The parent's side of one process batch.

    Slots are keyed by object id: the caller keeps the batch's jobs, and
    so every shared object, alive while it uses the shipment.
    """

    def __init__(self, fn: Callable, jobs: Sequence, extra: tuple):
        self.token = (os.getpid(), next(_TOKENS))
        self.head = pickle.dumps((fn, extra), pickle.HIGHEST_PROTOCOL)
        self._slots: dict[int, int] = {}
        self._blobs: list[bytes] = []
        #: Each distinct script's actions, by position, keyed by its id.
        self._actions: dict[int, tuple[SignalAction, ...]] = {}
        for job in jobs:
            for shared in (job.script, job.signals, job.stand_factory,
                           job.harness_factory, job.ecu_factory):
                if id(shared) not in self._slots:
                    self._slots[id(shared)] = len(self._blobs)
                    self._blobs.append(
                        pickle.dumps(shared, pickle.HIGHEST_PROTOCOL))
            if id(job.script) not in self._actions:
                self._actions[id(job.script)] = _script_actions(job.script)

    def payload(self, chunk: list) -> tuple:
        """``(token, head, blobs, jobs)`` of one chunk: all a worker needs."""
        buffer = io.BytesIO()
        pickler = _SlotPickler(buffer, self._slots)
        pickler.dump(chunk)
        blobs = {slot: self._blobs[slot] for slot in sorted(pickler.used)}
        return self.token, self.head, blobs, buffer.getvalue()

    def restore(self, result: TestResult, script: TestScript) -> None:
        """Give a result that came home its job's script and actions."""
        result.script = script
        actions = self._actions[id(script)]
        for action_result in result.action_results:
            position = action_result.action
            if type(position) is int:
                object.__setattr__(action_result, "action", actions[position])


class WorkerBatch:
    """A worker's copy of one batch: its job function and shared objects."""

    def __init__(self, head: bytes):
        self.fn, self.extra = pickle.loads(head)
        self._shared: dict[int, object] = {}
        #: Action positions of each script, keyed by its id.
        self._positions: dict[int, tuple[TestScript, dict[tuple, int]]] = {}

    def jobs(self, data: bytes, blobs: dict[int, bytes]) -> list:
        """A chunk's ``(position, job)`` pairs."""
        return _SlotUnpickler(data, self, blobs).load()

    def shared(self, slot: int, blobs: dict[int, bytes]):
        if slot not in self._shared:
            self._shared[slot] = pickle.loads(blobs[slot])
        return self._shared[slot]

    def send_home(self, result: TestResult) -> None:
        """Strip *result* for the return trip: no script, and each action
        found in the script named by its position."""
        script = result.script
        entry = self._positions.get(id(script))
        if entry is None or entry[0] is not script:
            positions: dict[tuple, int] = {}
            for position, action in enumerate(_script_actions(script)):
                positions.setdefault(_spelling(action), position)
            entry = self._positions[id(script)] = (script, positions)
        positions = entry[1]
        result.script = None
        for action_result in result.action_results:
            position = positions.get(_spelling(action_result.action))
            if position is not None:
                object.__setattr__(action_result, "action", position)


def open_batch(token: tuple[int, int], head: bytes) -> WorkerBatch:
    """This worker's copy of the batch *token*, made from *head* if new."""
    batch = _BATCHES.get(token)
    if batch is None:
        batch = _BATCHES[token] = WorkerBatch(head)
        while len(_BATCHES) > WORKER_BATCHES:
            _BATCHES.popitem(last=False)
    else:
        _BATCHES.move_to_end(token)
    return batch

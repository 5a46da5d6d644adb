"""The record contract: every record class of ``repro`` behaves alike.

A record (``repro._record.Record``) writes its ``__init__`` in source and
gets equality, hashing, ``repr``, immutability and ``fields`` /
``replace`` from the base class, in the shape a frozen dataclass had.
These checks run over every record class in the package, on instances
collected from one pass of the bundled campaigns (plus one hand-built
instance of each record such a pass does not build), so a record added
later is covered as soon as it exists.
"""

from __future__ import annotations

import copy
import gc
import importlib
import inspect
import math
import os
import pickle
import pkgutil
import re
from pathlib import Path

import pytest

import repro
from repro._record import FrozenInstanceError, Record, fields, replace

SRC = Path(repro.__file__).resolve().parent

for _module in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(_module.name)


def _subclasses(cls: type) -> list[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


def _own(cls: type, method: str) -> bool:
    """Whether *cls* replaces the base's *method* with one of its own."""
    return getattr(cls, method) is not getattr(Record, method)


RECORDS = sorted(
    {cls for cls in _subclasses(Record) if cls.__module__.startswith("repro")},
    key=lambda cls: (cls.__module__, cls.__qualname__))
FROZEN = [cls for cls in RECORDS if not _own(cls, "__setattr__")]


def _hand_built() -> list[Record]:
    """One instance of each record a campaign pass does not build."""
    from repro.analysis import (
        Requirement, RequirementCatalogue, compare_suites, compute_coverage,
        trace_requirements,
    )
    from repro.chaos import ChaosPolicy
    from repro.core.values import Quantity
    from repro.dut.network import Network
    from repro.instruments import Capability
    from repro.lint.engine import LintReport
    from repro.lint.findings import LintFinding
    from repro.paper import locking_suite, paper_suite
    from repro.paper.example import compile_paper_script
    from repro.store.store import CaseRow, RunDiff, RunInfo, VerdictDelta
    from repro.targets import RunSpec
    from repro.teststand import Connector, DirectWire, ResiliencePolicy
    from repro.teststand.transport import _Pool

    network = Network()
    network.add_resistor("a", "gnd", 10.0)
    network.add_voltage_source("a", "gnd", 12.0)
    suite = paper_suite()
    requirement = Requirement("REQ-1", "the lamp follows the doors")
    finding = LintFinding("E-X", "error", "sheet:s step:1", "broken")
    delta = VerdictDelta("baseline/s#0", "pass", "fail")
    chaos = ChaosPolicy.from_profile("flaky-instruments", seed=42)
    return [
        compute_coverage(suite),
        compare_suites(suite, locking_suite()),
        requirement,
        trace_requirements(suite, RequirementCatalogue([requirement])),
        chaos, ResiliencePolicy(chaos=chaos, deadline=30.0),
        _Pool(os.getpid(), 1, 0, None),
        Quantity(1.5, "V"), Capability("get_u", "u", -60.0, 60.0, "V"),
        *network._resistors, *network._sources,
        finding, LintReport((finding,), ("E-X",)),
        RunInfo(1, 0.5, "wiper_ecu", "big_rack", "serial", 1, 0.1, 36,
                "fail", "abc", "1.0"),
        CaseRow(1, 0.5, "baseline/s#0", "s", "wiper_ecu", "baseline",
                "big_rack", "pass", True, 1.0, 0.01),
        delta, RunDiff(1, 2, (delta,), ("a",), ("b",)),
        RunSpec(compile_paper_script(), dut="interior_light_ecu"),
        Connector("K1"), DirectWire("W1"),
    ]


@pytest.fixture(scope="module")
def samples() -> dict[type, list[Record]]:
    """Instances of every record class, by class."""
    from repro.targets import (
        CampaignSpec, campaignable_dut_names, iter_duts, run_campaign,
    )

    specs = [CampaignSpec(dut=name) for name in campaignable_dut_names()]
    specs.append(CampaignSpec(composition="lock+cluster"))
    # Held while the collector is searched for what they reference.
    kept = [specs, *(run_campaign(spec) for spec in specs)]
    kept += [dut.suite_factory() for dut in iter_duts()
             if dut.suite_factory is not None]
    kept += _hand_built()
    found: dict[type, list[Record]] = {cls: [] for cls in RECORDS}
    for obj in gc.get_objects():
        if type(obj) in found and len(found[type(obj)]) < 20:
            found[type(obj)].append(obj)
    return found


def _values(record: Record) -> tuple:
    return tuple(getattr(record, name) for name in fields(record))


def test_every_record_is_covered(samples):
    assert len(RECORDS) >= 56
    assert [cls.__qualname__ for cls in RECORDS if not samples[cls]] == []


def test_no_module_uses_dataclasses():
    pattern = re.compile(r"^\s*(import dataclasses|from dataclasses import)",
                         re.MULTILINE)
    assert [str(path.relative_to(SRC)) for path in SRC.rglob("*.py")
            if pattern.search(path.read_text(encoding="utf-8"))] == []


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
def test_init_takes_the_fields_in_order_with_their_defaults(cls, samples):
    parameters = list(inspect.signature(cls.__init__).parameters.values())[1:]
    assert [p.name for p in parameters] == list(fields(cls))
    required = {}
    for parameter in parameters:
        assert parameter.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
        declared = getattr(cls, parameter.name, inspect.Parameter.empty)
        if declared is not inspect.Parameter.empty:
            # The default the field's annotation declares.
            assert type(parameter.default) is type(declared)
            assert parameter.default == declared
        elif parameter.default is inspect.Parameter.empty:
            required[parameter.name] = getattr(samples[cls][0],
                                               parameter.name)
        else:
            assert parameter.default is None  # a default factory
    factories = [p.name for p in parameters if p.default is None
                 and not hasattr(cls, p.name)]
    if factories:
        first, second = cls(**required), cls(**required)
        for name in factories:
            assert getattr(first, name) is not getattr(second, name)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
def test_equality_hash_and_repr(cls, samples):
    for record in samples[cls]:
        twin = replace(record)
        assert twin is not record and twin == record and not twin != record
        if _own(cls, "__eq__"):
            continue
        assert record.__eq__(object()) is NotImplemented
        subclass = type(cls.__name__, (cls,), {})
        alike = subclass(**{name: getattr(record, name)
                            for name in fields(record)})
        assert record.__eq__(alike) is NotImplemented
        assert alike.__eq__(record) is NotImplemented
        assert record != alike
        if cls.__hash__ is None:
            with pytest.raises(TypeError):
                hash(record)
        elif not _own(cls, "__hash__"):
            try:
                expected = hash(_values(record))
            except TypeError:
                with pytest.raises(TypeError):
                    hash(record)
            else:
                assert hash(record) == expected
        if not _own(cls, "__repr__"):
            shown = ", ".join(f"{name}={getattr(record, name)!r}"
                              for name in fields(record))
            assert repr(record) == f"{cls.__qualname__}({shown})"


@pytest.mark.parametrize("cls", FROZEN, ids=lambda cls: cls.__qualname__)
def test_frozen_records_refuse_assignment_and_deletion(cls, samples):
    record = samples[cls][0]
    name = fields(cls)[0]
    before = getattr(record, name)
    with pytest.raises(FrozenInstanceError,
                       match=f"cannot assign to field '{name}'"):
        setattr(record, name, object())
    with pytest.raises(FrozenInstanceError,
                       match=f"cannot delete field '{name}'"):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    assert getattr(record, name) is before


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
def test_pickle_and_copy_round_trip(cls, samples):
    record = samples[cls][0]
    if cls.__qualname__ == "_Pool":
        record = replace(record, executor=None)
    for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record),
                 copy.deepcopy(record)):
        assert type(twin) is cls
        # Test results and instruments compare by identity, so a record
        # holding one is compared with its copy by what both show.
        assert twin == record or repr(twin) == repr(record)


def test_the_test_stand_is_the_one_mutable_record(samples):
    from repro.teststand import TestStand

    stand = samples[TestStand][0]
    twin = copy.copy(stand)
    assert twin == stand
    twin.description = "changed"
    assert twin != stand and stand.description != "changed"
    del twin.description
    with pytest.raises(TypeError, match="unhashable"):
        hash(stand)
    assert [cls for cls in RECORDS if cls not in FROZEN] == [TestStand]


def test_a_one_field_record_compares_a_one_tuple():
    """An identical NaN compares equal inside a tuple, as it did for the
    dataclass; a bare ``nan == nan`` would not."""
    from repro.teststand import Connector

    label = math.nan
    assert Connector(label) == Connector(label)
    assert hash(Connector(label)) == hash((label,))


def test_repr_guards_against_recursion():
    from repro.analysis import FaultModel, FaultRunOutcome

    results: list = []
    outcome = FaultRunOutcome(FaultModel("f", "d", object), results)
    results.append(outcome)
    assert repr(outcome).endswith(", results=[...])")


def test_replace_checks_like_init():
    from repro.core import Interval
    from repro.core.errors import ValueError_

    interval = Interval(0, 1)
    assert replace(interval, high=2) == Interval(0.0, 2.0)
    with pytest.raises(ValueError_):
        replace(interval, low=3)
    with pytest.raises(TypeError):
        replace(interval, width=1)
    with pytest.raises(TypeError):
        replace(object())
    assert fields(Interval) == fields(interval) == ("low", "high")

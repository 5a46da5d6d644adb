"""Property-based round-trip tests (seeded ``random``, stdlib only).

Two serialisation layers carry every result this library produces:

* :mod:`repro.can.codec` packs physical signal values into CAN payload
  integers - if ``decode(encode(v)) != v`` anywhere in the raw range, bus
  checks silently compare against the wrong value;
* :mod:`repro.teststand.serialize` is the durable dict form of scripts
  and execution reports - the result store, the service API and
  ``--format json`` all assume ``from_dict(to_dict(x))`` loses nothing.

Rather than enumerating hand-picked cases, each test draws a few hundred
random instances from a fixed seed (deterministic across runs, no
third-party property framework) and asserts the round trip is exact.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.can.codec import SignalCoding, pack_field, unpack_field
from repro.core import Compiler
from repro.core.errors import ValueError_
from repro.core.script import MethodCall, ScriptStep, SignalAction, TestScript
from repro.dut import InteriorLightEcu
from repro.paper import interior_harness, paper_signal_set, paper_suite
from repro.teststand import SerialExecutor, build_paper_stand, expand_jobs, run_jobs
from repro.teststand.serialize import (
    report_from_dict,
    report_to_dict,
    script_from_dict,
    script_to_dict,
)

SEED = 0xB05  # fixed: failures must reproduce byte-for-byte


# ---------------------------------------------------------------------------
# can.codec: pack/unpack and physical encode/decode
# ---------------------------------------------------------------------------

class TestCodecRoundTrip:
    def test_pack_unpack_field_is_exact(self):
        rng = random.Random(SEED)
        for _ in range(500):
            bit_length = rng.randint(1, 64)
            start_bit = rng.randint(0, 64 - bit_length)
            raw = rng.randint(0, (1 << bit_length) - 1)
            payload = rng.getrandbits(64)
            packed = pack_field(payload, start_bit, bit_length, raw)
            assert unpack_field(packed, start_bit, bit_length) == raw

    def test_pack_leaves_other_bits_untouched(self):
        rng = random.Random(SEED + 1)
        for _ in range(500):
            bit_length = rng.randint(1, 64)
            start_bit = rng.randint(0, 64 - bit_length)
            raw = rng.randint(0, (1 << bit_length) - 1)
            payload = rng.getrandbits(64)
            packed = pack_field(payload, start_bit, bit_length, raw)
            mask = ((1 << bit_length) - 1) << start_bit
            assert packed & ~mask == payload & ~mask

    def test_raw_out_of_field_range_rejected(self):
        rng = random.Random(SEED + 2)
        for _ in range(100):
            bit_length = rng.randint(1, 63)
            with pytest.raises(ValueError_):
                pack_field(0, 0, bit_length, 1 << bit_length)

    #: Scalings the shipped catalogues use, plus awkward float edges:
    #: non-dyadic factors (0.1, 1/3), large offsets, negative offsets.
    FACTORS = (1.0, 0.1, 0.25, 0.5, 2.0, 10.0, 1.0 / 3.0, 0.125)
    OFFSETS = (0.0, -40.0, 1.5, 100.0, -0.5)

    def test_encode_decode_physical_is_exact_over_raw_range(self):
        """Every representable physical value survives encode -> decode.

        Exactness means the *raw* field value round-trips: the physical
        value is compared through the same float arithmetic ``decode``
        uses, so a failure is a genuine codec defect, never float noise.
        """
        rng = random.Random(SEED + 3)
        for _ in range(300):
            bit_length = rng.randint(1, 16)
            start_bit = rng.randint(0, 64 - bit_length)
            coding = SignalCoding(
                "s", start_bit, bit_length,
                factor=rng.choice(self.FACTORS),
                offset=rng.choice(self.OFFSETS),
            )
            raw = rng.randint(0, coding.max_raw)
            physical = raw * coding.factor + coding.offset
            payload = coding.encode(rng.getrandbits(64), physical)
            assert unpack_field(payload, start_bit, bit_length) == raw
            assert coding.decode(payload) == physical

    def test_disjoint_codings_decode_independently(self):
        """Random non-overlapping fields in one payload never interfere."""
        rng = random.Random(SEED + 4)
        for _ in range(100):
            # Partition the 64-bit payload into random disjoint fields.
            cuts = sorted(rng.sample(range(1, 64), rng.randint(1, 6)))
            bounds = [0, *cuts, 64]
            codings, raws = [], []
            for index in range(len(bounds) - 1):
                start, end = bounds[index], bounds[index + 1]
                coding = SignalCoding(f"f{index}", start, end - start)
                codings.append(coding)
                raws.append(rng.randint(0, coding.max_raw))
            payload = 0
            for coding, raw in zip(codings, raws):
                payload = pack_field(payload, coding.start_bit,
                                     coding.bit_length, raw)
            for coding, raw in zip(codings, raws):
                assert unpack_field(payload, coding.start_bit,
                                    coding.bit_length) == raw
            for a_index, coding_a in enumerate(codings):
                for coding_b in codings[a_index + 1:]:
                    assert not coding_a.overlaps(coding_b)


# ---------------------------------------------------------------------------
# teststand.serialize: scripts and execution reports
# ---------------------------------------------------------------------------

def _random_script(rng: random.Random) -> TestScript:
    """A structurally random (not necessarily executable) compiled script."""
    def action() -> SignalAction:
        method = rng.choice(("put_r", "put_can", "get_u", "wait"))
        params = {
            rng.choice(("r", "u", "t", "u_min", "u_max", "value")):
                str(rng.choice((0, 1, 5.5, "open", "12.0")))
            for _ in range(rng.randint(1, 3))
        }
        signal = rng.choice(("NIGHT", "DS_FR", "INT_ILL", "S_CL"))
        return SignalAction(signal, MethodCall(method, params))

    steps = [
        ScriptStep(
            number=number,
            duration=rng.choice((0.1, 0.5, 2.0)),
            actions=tuple(action() for _ in range(rng.randint(1, 4))),
            remark=rng.choice(("", "a remark", "umlauts")),
            requirement=rng.choice((None, "REQ-1")),
        )
        for number in range(rng.randint(1, 5))
    ]
    return TestScript(
        name=f"random_{rng.randint(0, 10**6)}",
        dut="interior_light_ecu",
        steps=steps,
        setup=tuple(action() for _ in range(rng.randint(0, 2))),
        variables=tuple(rng.sample(("ubatt", "t", "x"), rng.randint(0, 2))),
        metadata={"seed": str(rng.randint(0, 99))},
        description=rng.choice(("", "randomly generated")),
    )


class TestSerializeRoundTrip:
    def test_random_scripts_round_trip_exactly(self):
        """``to_dict`` is idempotent across ``from_dict`` and preserves
        every field, for hundreds of random script shapes."""
        rng = random.Random(SEED + 5)
        for _ in range(200):
            script = _random_script(rng)
            first = script_to_dict(script)
            restored = script_from_dict(first)
            assert script_to_dict(restored) == first
            # The dict is JSON-safe and stable under a JSON round trip.
            assert script_to_dict(script_from_dict(
                json.loads(json.dumps(first)))) == first

    def test_execution_report_round_trips_byte_identically(self):
        """The documented contract on a genuinely executed report."""
        scripts = Compiler().compile_suite(paper_suite())
        jobs = expand_jobs(
            scripts, paper_signal_set(), {"paper": build_paper_stand},
            interior_harness,
            {"baseline": InteriorLightEcu, "again": InteriorLightEcu},
        )
        report = run_jobs(jobs, SerialExecutor())
        first = report_to_dict(report)
        restored = report_from_dict(first)
        assert restored.verdict_table() == report.verdict_table()
        assert report_to_dict(restored) == first


# ---------------------------------------------------------------------------
# teststand.serialize: the stored text of an action-result list
# ---------------------------------------------------------------------------

#: The fields a random action result may vary, each from values that
#: compare equal across types or signs but write differently (and NaN,
#: which writes one text but equals nothing).  The first is the default.
_AWKWARD = {
    "observed": (1.5, None, 0.0, -0.0, 0, False, 1, 1.0, True, float("nan"),
                 float("inf"), -float("inf"), "1.0"),
    "passed": (True, 1, False, 0),
    "limits": (None, (-0.0, 1.0), (0.0, 1.0), (0, 1)),
    "persistent": (False, 0, True, 1),
    "params": (("u", "ri"), ("ri", "u"), ("u",), ()),
    "method": ("get_u", "GET_U"),
    "outcome": (True, False),
    "allocation": (True, False),
}


def _random_action_result(rng: random.Random):
    """A ``get_u`` result with up to two fields drawn from :data:`_AWKWARD`."""
    from repro.core.values import Interval
    from repro.methods import MethodOutcome
    from repro.teststand.allocator import Allocation
    from repro.teststand.verdict import ActionResult, Verdict

    value = {name: choices[0] for name, choices in _AWKWARD.items()}
    for name in rng.sample(sorted(_AWKWARD), rng.randint(0, 2)):
        value[name] = rng.choice(_AWKWARD[name])
    call = MethodCall(value["method"],
                      {name: "1" for name in value["params"]})
    limits = value["limits"]
    outcome = MethodOutcome(
        call.method, value["passed"], value["observed"],
        None if limits is None else Interval(*limits), "V", "ok")
    allocation = Allocation("INT_ILL", call.method, "DVM_1",
                            persistent=value["persistent"])
    return ActionResult(
        SignalAction("INT_ILL", call), Verdict.PASS,
        outcome=outcome if value["outcome"] else None,
        allocation=allocation if value["allocation"] else None)


class TestActionResultsText:
    def test_random_lists_write_their_reference_text(self, monkeypatch):
        """Whatever the table has seen before, the text of a list is
        ``json.dumps`` of its documents, for hundreds of random lists
        whose fields compare equal but write differently."""
        from repro.teststand import serialize
        from repro.teststand.verdict import TestResult

        table: dict = {}
        monkeypatch.setattr(serialize, "_TEXTS", table)
        monkeypatch.setattr(serialize, "TEXTS_MAX", 128)
        script = TestScript("t", "interior_light_ecu")
        rng = random.Random(SEED + 6)
        texts = set()
        for _ in range(600):
            results = tuple(_random_action_result(rng)
                            for _ in range(rng.randint(1, 2)))
            reference = json.dumps(serialize.result_to_dict(
                TestResult(script, "paper", setup=results))["setup"])
            assert serialize.action_results_text(results) == reference
            texts.add(reference)
        # Lists repeat, and the table filled and stopped growing.
        assert len(texts) < 600
        assert len(table) == 128

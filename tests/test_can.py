"""Tests for the CAN substrate: frames, codecs, database, bus."""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, strategies as st

from repro.can import (
    CanBus,
    CanDatabase,
    CanFrame,
    DuplicateNodeError,
    MessageDefinition,
    SignalCoding,
    pack_field,
    unpack_field,
)
from repro.can.database import MEMO_MAX
from repro.core.errors import ValueError_
from repro.dut.messages import body_can_database


class TestCanFrame:
    def test_basic(self):
        frame = CanFrame(0x100, b"\x01\x02")
        assert frame.dlc == 2
        assert frame.as_int() == 0x0201

    def test_from_int_roundtrip(self):
        frame = CanFrame.from_int(0x123, 0xABCD, 2)
        assert frame.as_int() == 0xABCD

    def test_standard_id_limit(self):
        with pytest.raises(ValueError_):
            CanFrame(0x800, b"")
        CanFrame(0x800, b"", extended=True)

    def test_payload_length_limit(self):
        with pytest.raises(ValueError_):
            CanFrame(0x1, bytes(9))

    def test_value_too_large_for_length(self):
        with pytest.raises(ValueError_):
            CanFrame.from_int(0x1, 256, 1)

    @given(st.integers(0, 0x7FF), st.integers(0, 2**32 - 1))
    def test_int_roundtrip_property(self, can_id, value):
        frame = CanFrame.from_int(can_id, value, 4)
        assert frame.as_int() == value


class TestSignalCoding:
    def test_pack_unpack(self):
        payload = pack_field(0, 4, 4, 0xA)
        assert unpack_field(payload, 4, 4) == 0xA
        assert unpack_field(payload, 0, 4) == 0

    def test_pack_overflow_rejected(self):
        with pytest.raises(ValueError_):
            pack_field(0, 0, 2, 4)

    def test_scaling(self):
        coding = SignalCoding("SPEED", 0, 12, factor=0.1)
        payload = coding.encode(0, 55.5)
        assert coding.decode(payload) == pytest.approx(55.5)

    def test_out_of_range_rejected(self):
        coding = SignalCoding("X", 0, 4)
        with pytest.raises(ValueError_):
            coding.encode(0, 16)

    def test_overlap_detection(self):
        a = SignalCoding("A", 0, 4)
        b = SignalCoding("B", 2, 4)
        c = SignalCoding("C", 4, 4)
        assert a.overlaps(b) and not a.overlaps(c)

    @given(st.integers(0, 56), st.integers(1, 8), st.data())
    def test_pack_unpack_property(self, start, length, data):
        value = data.draw(st.integers(0, (1 << length) - 1))
        base = data.draw(st.integers(0, 2**60))
        packed = pack_field(base, start, length, value)
        assert unpack_field(packed, start, length) == value


class TestMessageDefinition:
    def test_encode_decode(self):
        db = body_can_database()
        light = db.message("LIGHT_SENSOR")
        frame = light.encode({"NIGHT": 1, "BRIGHTNESS": 20})
        decoded = light.decode(frame)
        assert decoded["NIGHT"] == 1 and decoded["BRIGHTNESS"] == 20

    def test_partial_update_keeps_base(self):
        db = body_can_database()
        light = db.message("LIGHT_SENSOR")
        base = light.encode({"NIGHT": 1, "BRIGHTNESS": 50}).as_int()
        frame = light.encode({"NIGHT": 0}, base_payload=base)
        assert light.decode(frame)["BRIGHTNESS"] == 50

    def test_decode_wrong_id_rejected(self):
        db = body_can_database()
        frame = db.message("IGN_STATUS").encode_raw(1)
        with pytest.raises(ValueError_):
            db.message("LIGHT_SENSOR").decode(frame)

    def test_signal_must_fit_payload(self):
        with pytest.raises(ValueError_):
            MessageDefinition("M", 0x1, 1, (SignalCoding("S", 0, 16),))

    def test_overlapping_signals_rejected(self):
        with pytest.raises(ValueError_):
            MessageDefinition("M", 0x1, 2,
                              (SignalCoding("A", 0, 8), SignalCoding("B", 4, 8)))

    def test_repeated_payloads_share_frames_and_decodings_within_bounds(self):
        def message():
            return MessageDefinition(
                "M", 0x1, 2, (SignalCoding("A", 0, 8), SignalCoding("B", 8, 8)))

        msg, pristine = message(), pickle.dumps(message())
        frame = msg.encode_raw(0x0102)
        assert msg.encode({"A": 2, "B": 1}) is frame
        first = msg.decode(frame)
        first["A"] = 99
        assert msg.decode(frame) == {"A": 2, "B": 1}
        for payload in range(MEMO_MAX + 10):
            frame = msg.encode_raw(payload)
            assert frame.as_int() == payload
            assert msg.decode(frame) == {"A": payload & 0xFF, "B": payload >> 8}
        assert len(msg._frames) == len(msg._decoded) == MEMO_MAX
        # No memo travels in a pickle.
        assert pickle.dumps(msg) == pristine
        assert pickle.loads(pristine) == msg


class TestCanDatabase:
    def test_body_catalogue(self):
        db = body_can_database()
        assert len(db) == 8
        assert db.message_by_id(0x110).name == "LIGHT_SENSOR"
        assert db.message_for_signal("NIGHT").name == "LIGHT_SENSOR"
        assert db.message_for_signal("ign_st").name == "IGN_STATUS"

    def test_unknown_lookups(self):
        db = body_can_database()
        with pytest.raises(ValueError_):
            db.message("NOPE")
        with pytest.raises(ValueError_):
            db.message_by_id(0x7FF)
        with pytest.raises(ValueError_):
            db.message_for_signal("NOPE")

    def test_duplicate_name_and_id_rejected(self):
        first = MessageDefinition("A", 0x1, 1)
        with pytest.raises(ValueError_, match="duplicate message name 'a'"):
            CanDatabase((first, MessageDefinition("a", 0x2, 1)))
        with pytest.raises(ValueError_, match="duplicate CAN id 0x1"):
            CanDatabase((first, MessageDefinition("B", 0x1, 1)))

    def test_merged(self):
        merged = CanDatabase((MessageDefinition("A", 0x1, 1),)).merged_with(
            CanDatabase((MessageDefinition("B", 0x2, 1),)))
        assert "A" in merged and "B" in merged


class TestCanBus:
    def test_duplicate_node_name_raises_structured_error(self):
        """Node names attribute bus traffic; a duplicate must fail loudly
        with the offending bus and node carried on the exception."""
        bus = CanBus(name="body_bus")
        bus.attach("ecu")
        with pytest.raises(DuplicateNodeError) as excinfo:
            bus.attach("ecu")
        assert excinfo.value.bus == "body_bus"
        assert excinfo.value.node == "ecu"
        assert "ecu" in str(excinfo.value)
        # Stays a ValueError_ so pre-existing handlers keep working.
        assert isinstance(excinfo.value, ValueError_)
        # The failed attach must not have registered the duplicate: the
        # original node still receives traffic exactly once.
        other = bus.attach("other")
        other.transmit(CanFrame(0x1, b"\x01"))
        assert len(bus.nodes) == 2

    def test_broadcast_excludes_sender(self):
        bus = CanBus()
        a = bus.attach("a")
        b = bus.attach("b")
        c = bus.attach("c")
        a.transmit(CanFrame(0x1, b"\x01"))
        assert len(b.received) == 1 and len(c.received) == 1 and not a.received

    def test_listener_called(self):
        bus = CanBus()
        seen = []
        bus.attach("listener", listener=seen.append)
        sender = bus.attach("sender")
        sender.transmit(CanFrame(0x1, b"\x01"))
        assert len(seen) == 1

    def test_timestamping(self):
        bus = CanBus()
        node = bus.attach("a")
        other = bus.attach("b")
        bus.set_time(3.5)
        node.transmit(CanFrame(0x1, b""))
        assert other.received[0].timestamp == 3.5

    def test_last_frame_filter(self):
        bus = CanBus()
        rx = bus.attach("rx")
        tx = bus.attach("tx")
        tx.transmit(CanFrame(0x1, b"\x01"))
        tx.transmit(CanFrame(0x2, b"\x02"))
        assert rx.last_frame().can_id == 0x2
        assert rx.last_frame(0x1).data == b"\x01"
        assert rx.last_frame(0x7) is None

    def test_duplicate_node_name_rejected(self):
        bus = CanBus()
        bus.attach("a")
        with pytest.raises(ValueError_):
            bus.attach("a")

    def test_traffic_log_and_clear(self):
        bus = CanBus()
        tx = bus.attach("tx")
        bus.attach("rx")
        tx.transmit(CanFrame(0x1, b""))
        assert len(bus.traffic) == 1 and len(bus.frames(0x1)) == 1
        bus.clear_log()
        assert not bus.traffic

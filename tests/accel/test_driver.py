"""Tests for the device driver / modified-library API."""

import pytest

from repro.accel.adt import AdtView, adt_size_bytes
from repro.accel.driver import ProtoAccelerator
from repro.proto import parse_schema
from repro.soc.rocc import RoccFunct


@pytest.fixture()
def schema():
    return parse_schema("""
        message M { optional int64 x = 1; optional string s = 2; }
    """)


class TestRoccProtocol:
    def test_arena_assignment_on_construction(self, schema):
        accel = ProtoAccelerator()
        functs = [inst.funct for inst in accel.rocc.log]
        assert RoccFunct.DESER_ASSIGN_ARENA in functs
        assert RoccFunct.SER_ASSIGN_ARENA in functs

    def test_deser_issues_info_then_do(self, schema):
        accel = ProtoAccelerator()
        accel.register_schema(schema)
        m = schema["M"].new_message()
        m["x"] = 1
        accel.deserialize(schema["M"], m.serialize())
        functs = [inst.funct for inst in accel.rocc.log]
        info = functs.index(RoccFunct.DESER_INFO)
        assert functs[info + 1] is RoccFunct.DO_PROTO_DESER

    def test_batch_ends_with_completion_fence(self, schema):
        accel = ProtoAccelerator()
        accel.register_schema(schema)
        m = schema["M"].new_message()
        m["x"] = 1
        accel.deserialize_batch(schema["M"], [m.serialize()] * 3)
        assert accel.rocc.log[-1].funct is \
            RoccFunct.BLOCK_FOR_DESER_COMPLETION
        assert accel.rocc.inflight_deserializations == 0

    def test_ser_instruction_order(self, schema):
        accel = ProtoAccelerator()
        accel.register_schema(schema)
        m = schema["M"].new_message()
        m["x"] = 1
        accel.serialize(schema["M"], accel.load_object(m))
        functs = [inst.funct for inst in accel.rocc.log]
        info = functs.index(RoccFunct.SER_INFO)
        assert functs[info + 1] is RoccFunct.DO_PROTO_SER


class TestBatching:
    def test_deserialize_batch_returns_all(self, schema):
        accel = ProtoAccelerator()
        accel.register_schema(schema)
        messages = []
        for index in range(5):
            m = schema["M"].new_message()
            m["x"] = index
            messages.append(m)
        addresses, stats = accel.deserialize_batch(
            schema["M"], [m.serialize() for m in messages])
        assert len(addresses) == 5
        for addr, message in zip(addresses, messages):
            assert accel.read_message(schema["M"], addr) == message
        assert stats.wire_bytes == sum(len(m.serialize())
                                       for m in messages)

    def test_serialize_batch_round_trip(self, schema):
        accel = ProtoAccelerator()
        accel.register_schema(schema)
        m = schema["M"].new_message()
        m["s"] = "payload"
        outputs, stats = accel.serialize_batch(
            schema["M"], [accel.load_object(m)] * 4)
        assert all(output == m.serialize() for output in outputs)
        assert stats.output_bytes == 4 * len(m.serialize())


class TestMaintenance:
    def test_reset_arenas_allows_reuse(self, schema):
        accel = ProtoAccelerator(deser_arena_bytes=4096,
                                 ser_arena_bytes=4096)
        accel.register_schema(schema)
        m = schema["M"].new_message()
        m["s"] = "x" * 500
        for _ in range(8):
            accel.deserialize(schema["M"], m.serialize())
            accel.serialize(schema["M"], accel.load_object(m))
            accel.reset_arenas()

    def test_throughput_helper(self, schema):
        accel = ProtoAccelerator()
        assert accel.throughput_gbps(250, 1000) == pytest.approx(4.0)


def _record_writes(accel) -> list[tuple[int, int]]:
    """Log (address, length) of every later write to the device memory."""
    writes = []
    write = accel.memory.write

    def logged(addr, data):
        writes.append((addr, len(data)))
        write(addr, data)

    accel.memory.write = logged
    return writes


def _adt_writes(accel, descriptor, writes) -> list[tuple[int, int]]:
    lo = accel.adts.adt_address(descriptor)
    hi = lo + adt_size_bytes(descriptor)
    return [(addr, n) for addr, n in writes if addr < hi and addr + n > lo]


class TestLoadObjectAdts:
    def test_registered_type_keeps_adt_and_decode_cache(self, schema):
        accel = ProtoAccelerator()
        accel.register_schema(schema)
        view = AdtView(accel.memory, accel.adts.adt_address(schema["M"]))
        view.entry(1)
        view.entry(2)
        cached = dict(accel.memory._decode_cache)
        assert cached
        writes = _record_writes(accel)
        m = schema["M"].new_message()
        m["s"] = "payload"
        for _ in range(3):
            accel.serialize(schema["M"], accel.load_object(m))
        assert writes
        assert _adt_writes(accel, schema["M"], writes) == []
        assert accel.memory._decode_cache == cached

    def test_unregistered_type_builds_its_adt_once(self, schema):
        accel = ProtoAccelerator()
        assert not accel.adts.has_adt(schema["M"])
        writes = _record_writes(accel)
        m = schema["M"].new_message()
        m["x"] = 3
        out = accel.serialize(schema["M"], accel.load_object(m)).data
        assert out == m.serialize()
        assert accel.adts.has_adt(schema["M"])
        assert _adt_writes(accel, schema["M"], writes)
        writes.clear()
        accel.load_object(m)
        assert _adt_writes(accel, schema["M"], writes) == []

    def test_adt_built_in_pure_window_survives_heap_rollback(self, schema):
        """An ADT first built inside a pure-charging window lives above
        the window's heap mark; closing the window must not hand its
        bytes to later allocations."""
        accel = ProtoAccelerator()
        m = schema["M"].new_message()
        m["x"] = 7
        m["s"] = "y" * 40
        mark = accel.begin_pure_call()
        accel.serialize(schema["M"], accel.load_object(m))
        accel.end_pure_call(mark)
        assert accel.memory.heap_top > mark
        for _ in range(3):
            mark = accel.begin_pure_call()
            out = accel.serialize(schema["M"], accel.load_object(m)).data
            accel.end_pure_call(mark)
            assert out == m.serialize()
            assert accel.memory.heap_top == mark

"""Differential tests: the plan-driven object-image walkers against a
field-by-field reference walker.

``repro.memory.layout`` reads and writes each object, string and array
with as few ``SimMemory`` calls as it can, through per-type plans.  The
reference below walks the descriptor one field and one word at a time,
with one ``SimMemory`` call per hasbits word, slot, header word and
element.  It defines the contract the plans must keep:

- writing: the same image bytes, allocation calls (sizes, alignments,
  addresses), heap top, ``SimMemory.stats`` and decode-cache flushes;
- reading: the same :class:`Message`, down to ``_values``/``_hasbits``
  and the Python type of every value, and the same ``SimMemory.stats``.
"""

from __future__ import annotations

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.layout import (
    LayoutCache,
    read_message_image,
    read_string_object,
    write_message_image,
)
from repro.memory.memspace import BASE_ADDRESS, SimMemory
from repro.proto import parse_schema
from repro.proto.descriptor import FieldDescriptor, MessageDescriptor
from repro.proto.message import Message, RepeatedField
from repro.proto.types import CPP_SCALAR_BYTES, FieldType
from tests.strategies import image_schema_and_message, schema_and_message

# -- the reference walker -------------------------------------------------------

_SCALAR_PACK = {
    FieldType.DOUBLE: "<d",
    FieldType.FLOAT: "<f",
    FieldType.INT32: "<i",
    FieldType.SINT32: "<i",
    FieldType.SFIXED32: "<i",
    FieldType.ENUM: "<i",
    FieldType.INT64: "<q",
    FieldType.SINT64: "<q",
    FieldType.SFIXED64: "<q",
    FieldType.UINT32: "<I",
    FieldType.FIXED32: "<I",
    FieldType.UINT64: "<Q",
    FieldType.FIXED64: "<Q",
    FieldType.BOOL: "<B",
}


def element_width(fd: FieldDescriptor) -> int:
    if fd.field_type in (FieldType.STRING, FieldType.BYTES,
                         FieldType.MESSAGE):
        return 8
    return CPP_SCALAR_BYTES[fd.field_type]


def _pack_scalar(fd: FieldDescriptor, value) -> bytes:
    fmt = _SCALAR_PACK[fd.field_type]
    if fd.field_type is FieldType.BOOL:
        return struct.pack(fmt, 1 if value else 0)
    return struct.pack(fmt, value)


def _write_string_object(memory, alloc, payload: bytes) -> int:
    addr = alloc(32, 8)
    size = len(payload)
    if size <= 15:
        data_ptr = addr + 16
        memory.write_u64(addr, data_ptr)
        memory.write_u64(addr + 8, size)
        memory.write(addr + 16, payload.ljust(16, b"\x00"))
    else:
        data_ptr = alloc(size, 8)
        memory.write(data_ptr, payload)
        memory.write_u64(addr, data_ptr)
        memory.write_u64(addr + 8, size)
        memory.write_u64(addr + 16, size)  # heap capacity
        memory.write_u64(addr + 24, 0)
    return addr


def _string_payload(fd: FieldDescriptor, value) -> bytes:
    if fd.field_type is FieldType.STRING:
        return value.encode("utf-8")
    return bytes(value)


def _write_repeated(memory, alloc, cache, fd, items) -> int:
    header = alloc(24, 8)
    width = element_width(fd)
    count = len(items)
    array = alloc(max(count * width, 1), 8)
    memory.write_u64(header, array)
    memory.write_u64(header + 8, count)
    memory.write_u64(header + 16, count)
    for index, item in enumerate(items):
        slot = array + index * width
        if fd.field_type in (FieldType.STRING, FieldType.BYTES):
            memory.write_u64(
                slot, _write_string_object(memory, alloc,
                                           _string_payload(fd, item)))
        elif fd.field_type is FieldType.MESSAGE:
            memory.write_u64(
                slot, reference_write(memory, alloc, item, cache))
        else:
            memory.write(slot, _pack_scalar(fd, item))
    return header


def reference_write(memory, alloc, message: Message, cache: LayoutCache,
                    addr: int | None = None) -> int:
    """Field-by-field twin of :func:`write_message_image`."""
    layout = cache.layout(message.descriptor)
    if addr is None:
        addr = alloc(layout.object_size, 8)
    memory.fill(addr, layout.object_size, 0)
    memory.write_u64(addr, layout.vptr)
    hasbits = [0] * layout.hasbits_words
    for fd in message.descriptor.fields:
        if not message.has(fd.name):
            continue
        word, bit = layout.hasbit_position(fd.number)
        hasbits[word] |= 1 << bit
        slot = addr + layout.field_offsets[fd.number]
        value = message[fd.name]
        if fd.is_repeated:
            memory.write_u64(
                slot, _write_repeated(memory, alloc, cache, fd, list(value)))
        elif fd.field_type in (FieldType.STRING, FieldType.BYTES):
            memory.write_u64(
                slot, _write_string_object(memory, alloc,
                                           _string_payload(fd, value)))
        elif fd.field_type is FieldType.MESSAGE:
            memory.write_u64(
                slot, reference_write(memory, alloc, value, cache))
        else:
            memory.write(slot, _pack_scalar(fd, value))
    for word_index, word in enumerate(hasbits):
        memory.write_u64(addr + layout.hasbits_offset + word_index * 8, word)
    return addr


def _read_scalar(memory, fd: FieldDescriptor, addr: int):
    fmt = _SCALAR_PACK[fd.field_type]
    width = CPP_SCALAR_BYTES[fd.field_type]
    value = struct.unpack(fmt, memory.read(addr, width))[0]
    if fd.field_type is FieldType.BOOL:
        return bool(value)
    return value


def _read_string_value(memory, fd: FieldDescriptor, addr: int):
    payload = read_string_object(memory, addr).payload
    if fd.field_type is FieldType.STRING:
        try:
            return payload.decode("utf-8")
        except UnicodeDecodeError:
            return payload.decode("latin-1")
    return payload


def reference_read(memory, descriptor: MessageDescriptor, addr: int,
                   cache: LayoutCache) -> Message:
    """Field-by-field twin of :func:`read_message_image`."""
    layout = cache.layout(descriptor)
    message = Message(descriptor)
    hasbits = [
        memory.read_u64(addr + layout.hasbits_offset + w * 8)
        for w in range(layout.hasbits_words)
    ]
    for fd in descriptor.fields:
        word, bit = layout.hasbit_position(fd.number)
        if not hasbits[word] >> bit & 1:
            continue
        slot = addr + layout.field_offsets[fd.number]
        if fd.is_repeated:
            header = memory.read_u64(slot)
            array = memory.read_u64(header)
            count = memory.read_u64(header + 8)
            width = element_width(fd)
            repeated = message[fd.name]
            for index in range(count):
                item_addr = array + index * width
                if fd.field_type in (FieldType.STRING, FieldType.BYTES):
                    repeated.append(_read_string_value(
                        memory, fd, memory.read_u64(item_addr)))
                elif fd.field_type is FieldType.MESSAGE:
                    repeated.append(reference_read(
                        memory, fd.message_type,
                        memory.read_u64(item_addr), cache))
                else:
                    repeated.append(_read_scalar(memory, fd, item_addr))
            message._hasbits.add(fd.number)
        elif fd.field_type in (FieldType.STRING, FieldType.BYTES):
            message[fd.name] = _read_string_value(
                memory, fd, memory.read_u64(slot))
        elif fd.field_type is FieldType.MESSAGE:
            message[fd.name] = reference_read(
                memory, fd.message_type, memory.read_u64(slot), cache)
        else:
            message[fd.name] = _read_scalar(memory, fd, slot)
    return message


# -- comparison helpers ---------------------------------------------------------


def shape(value):
    """A structural normal form that tells apart everything ``==`` on
    messages forgives: value types (``True`` vs ``1``), NaN bit
    patterns, and hasbits of empty repeated fields."""
    if isinstance(value, Message):
        return ("message", value.descriptor.name, sorted(value._hasbits),
                {number: shape(item)
                 for number, item in sorted(value._values.items())})
    if isinstance(value, RepeatedField):
        return ("repeated", [shape(item) for item in value._items])
    if isinstance(value, float):
        return ("float", struct.pack("<d", value))
    return (type(value).__name__, value)


def _stats(memory: SimMemory) -> tuple[int, int, int, int]:
    s = memory.stats
    return s.reads, s.read_bytes, s.writes, s.written_bytes


def _contents(memory: SimMemory) -> dict[int, bytes]:
    return {page: bytes(backing)
            for page, backing in memory._pages.items()}


class _Recorder:
    """``memory.allocate`` that logs every (size, alignment, address)."""

    def __init__(self, memory: SimMemory):
        self.memory = memory
        self.calls: list[tuple[int, int, int]] = []

    def __call__(self, size: int, alignment: int) -> int:
        addr = self.memory.allocate(size, alignment)
        self.calls.append((size, alignment, addr))
        return addr


def _write_side(writer, message: Message, probe: tuple[int, int] | None,
                prefix: int = 0):
    """Write ``message`` with ``writer`` on a fresh memory (after
    ``prefix`` heap bytes), with a decode-cache entry covering ``probe``
    = (address, length) when given."""
    memory = SimMemory(4 << 20)
    if prefix:
        memory.allocate(prefix, 1)
    if probe is not None:
        memory.decode_cache_put("probe", probe[0], probe[1], True)
    before = _stats(memory)
    alloc = _Recorder(memory)
    addr = writer(memory, alloc, message, LayoutCache())
    after = _stats(memory)
    return {
        "addr": addr,
        "heap_top": memory.heap_top,
        "allocations": alloc.calls,
        "stats": tuple(b - a for a, b in zip(before, after)),
        "contents": _contents(memory),
        "flushed": memory.decode_cache_get("probe") is None,
    }


def assert_writes_match(message: Message,
                        probe: tuple[int, int] | None = None,
                        prefix: int = 0) -> dict:
    plan = _write_side(write_message_image, message, probe, prefix)
    reference = _write_side(reference_write, message, probe, prefix)
    assert plan["allocations"] == reference["allocations"]
    assert plan == reference
    return reference


def _image(message: Message):
    """A reference-written image of ``message``: (memory, addr, cache)."""
    memory = SimMemory(4 << 20)
    cache = LayoutCache()
    addr = reference_write(memory, memory.allocate, message, cache)
    return memory, addr, cache


def _read_side(reader, build, descriptor):
    memory, addr, cache = build()
    before = _stats(memory)
    message = reader(memory, descriptor, addr, cache)
    after = _stats(memory)
    return message, tuple(b - a for a, b in zip(before, after))


def assert_reads_match(build, descriptor: MessageDescriptor) -> Message:
    """Read the image ``build()`` returns with both walkers, each on its
    own fresh copy, and require identical results."""
    plan, plan_stats = _read_side(read_message_image, build, descriptor)
    reference, reference_stats = _read_side(reference_read, build,
                                            descriptor)
    assert shape(plan) == shape(reference)
    assert plan == reference
    assert plan_stats == reference_stats
    return plan


# -- fixtures -------------------------------------------------------------------

NODE_PROTO = """
enum Color { RED = 0; GREEN = 1; BLUE = 7; }

message Node {
  optional double d = 1;
  optional float f = 2;
  optional int32 i32 = 3;
  optional int64 i64 = 4;
  optional uint32 u32 = 5;
  optional uint64 u64 = 6;
  optional sint32 s32 = 7;
  optional sint64 s64 = 8;
  optional fixed32 x32 = 9;
  optional fixed64 x64 = 10;
  optional sfixed32 sx32 = 11;
  optional sfixed64 sx64 = 12;
  optional bool b = 13;
  optional string s = 14;
  optional bytes by = 15;
  optional Color c = 16;
  optional Node next = 17;
  repeated double rd = 20;
  repeated float rf = 21;
  repeated int32 ri32 = 22;
  repeated int64 ri64 = 23;
  repeated uint32 ru32 = 24;
  repeated uint64 ru64 = 25;
  repeated sint32 rs32 = 26;
  repeated sint64 rs64 = 27;
  repeated fixed32 rx32 = 28;
  repeated fixed64 rx64 = 29;
  repeated sfixed32 rsx32 = 30;
  repeated sfixed64 rsx64 = 31;
  repeated bool rb = 32;
  repeated string rs = 33;
  repeated bytes rby = 34;
  repeated Color rc = 35;
  repeated Node kids = 36;
  oneof pick {
    int32 pick_int = 150;
    string pick_str = 151;
    Node pick_node = 152;
  }
  optional int64 far = 200;
}
"""


@pytest.fixture(scope="module")
def node():
    return parse_schema(NODE_PROTO)["Node"]


def _full_node(descriptor: MessageDescriptor, depth: int = 0) -> Message:
    """A Node with every field set (sub-messages to depth 2)."""
    m = descriptor.new_message()
    m["d"] = -2.5
    m["f"] = 0.1
    m["i32"] = -(2**31)
    m["i64"] = 2**63 - 1
    m["u32"] = 2**32 - 1
    m["u64"] = 2**64 - 1
    m["s32"] = -5
    m["s64"] = -(2**63)
    m["x32"] = 0xDEADBEEF
    m["x64"] = 2**61
    m["sx32"] = -12345
    m["sx64"] = -(2**50)
    m["b"] = True
    m["s"] = "short"
    m["by"] = bytes(range(40))
    m["c"] = "BLUE"
    m["rd"] = [1.5, float("inf"), -0.0]
    m["rf"] = [0.25, -1e30]
    m["ri32"] = [0, -1, 2**31 - 1]
    m["ri64"] = [-(2**63)]
    m["ru32"] = [7]
    m["ru64"] = [2**64 - 1, 0]
    m["rs32"] = [-(2**31)]
    m["rs64"] = [3, -3]
    m["rx32"] = [1, 2, 3, 4]
    m["rx64"] = [2**40]
    m["rsx32"] = [-1]
    m["rsx64"] = [-(2**62)]
    m["rb"] = [True, False, True]
    m["rs"] = ["", "x" * 15, "y" * 16, "snow ☃"]
    m["rby"] = [b"", b"\x00\xff" * 20]
    m["rc"] = [0, 1, 7]
    m["far"] = 1
    if depth < 2:
        m["next"] = _full_node(descriptor, depth + 1)
        m["kids"] = [descriptor.new_message(),
                     _full_node(descriptor, depth + 1)]
        m["pick_node"] = _full_node(descriptor, depth + 1)
    else:
        m["pick_str"] = "a longer oneof member than the SSO buffer"
    return m


def _slot(cache_or_layout, descriptor, addr, name) -> int:
    layout = cache_or_layout.layout(descriptor)
    return addr + layout.field_offsets[descriptor.field_by_name(name).number]


def _set_hasbit(memory, cache, descriptor, addr, number) -> None:
    layout = cache.layout(descriptor)
    word, bit = layout.hasbit_position(number)
    word_addr = addr + layout.hasbits_offset + 8 * word
    memory.write_u64(word_addr, memory.read_u64(word_addr) | 1 << bit)


# -- writing ----------------------------------------------------------------------


class TestWrite:
    def test_every_field_type_recursive_multiword(self, node):
        message = _full_node(node)
        assert LayoutCache().layout(node).hasbits_words == 4
        written = assert_writes_match(message)
        assert written["stats"][2] > 100  # many field-by-field writes

    def test_empty_message_and_empty_repeated(self, node):
        assert_writes_match(node.new_message())
        message = node.new_message()
        message["rd"] = []      # hasbit set, nothing to write
        message["kids"] = []
        message["i32"] = 0
        assert_writes_match(message)

    def test_nan_floats(self, node):
        message = node.new_message()
        message["d"] = float("nan")
        message["f"] = float("nan")
        message["rd"] = [float("nan"), -float("nan")]
        message["rf"] = [float("-inf"), float("nan")]
        assert_writes_match(message)

    def test_unaligned_heap_start(self, node):
        assert_writes_match(_full_node(node), prefix=5)

    def test_two_oneof_members_set(self, node):
        message = node.new_message()
        # Bypass the setter's sibling clearing, as a raw object would.
        for number, value in ((150, 9), (151, "both")):
            message._values[number] = value
            message._hasbits.add(number)
        assert_writes_match(message)

    def test_decode_cache_flushes_match(self, node):
        message = _full_node(node)
        regions = assert_writes_match(message)["allocations"]
        end = regions[-1][2] + regions[-1][0]
        probes = [(BASE_ADDRESS - 64 + 8, 8), (end, 64), (end + 4096, 8)]
        for size, _, addr in regions[::23]:
            probes.append((addr, 1))
            probes.append((addr + size - 1, 1))
            probes.append((addr + size, 1))   # alignment padding or next
        flushed = {assert_writes_match(message, probe)["flushed"]
                   for probe in probes}
        assert flushed == {True, False}

    @settings(max_examples=60, deadline=None)
    @given(data=schema_and_message(), probe_at=st.integers(0, 4096),
           probe_len=st.integers(1, 64))
    def test_random_messages(self, data, probe_at, probe_len):
        _, message = data
        assert_writes_match(message, (BASE_ADDRESS + probe_at, probe_len))

    @settings(max_examples=60, deadline=None)
    @given(data=image_schema_and_message(), probe_at=st.integers(0, 4096))
    def test_random_image_schemas(self, data, probe_at):
        _, message = data
        assert_writes_match(message, (BASE_ADDRESS + probe_at, 8))


# -- reading ------------------------------------------------------------------------


class TestRead:
    def test_every_field_type_recursive_multiword(self, node):
        message = _full_node(node)
        back = assert_reads_match(lambda: _image(message), node)
        assert back == message

    def test_empty_message(self, node):
        empty = node.new_message()
        assert assert_reads_match(lambda: _image(empty), node) == empty

    def test_nan_floats(self, node):
        message = node.new_message()
        message["d"] = float("nan")
        message["rf"] = [float("nan"), 1.0]
        assert_reads_match(lambda: _image(message), node)

    def test_empty_repeated_with_hasbit(self, node):
        """A header whose size word is 0 but whose hasbit is set reads
        as an empty field that still carries its hasbit."""
        message = node.new_message()
        message["rs"] = ["gone"]
        message["ri64"] = [1, 2]

        def build():
            memory, addr, cache = _image(message)
            for name in ("rs", "ri64"):
                header = memory.read_u64(_slot(cache, node, addr, name))
                memory.write_u64(header + 8, 0)
            return memory, addr, cache

        back = assert_reads_match(build, node)
        assert 33 in back._hasbits and not back.has("rs")
        assert len(back["ri64"]) == 0

    def test_non_utf8_string_falls_back_to_latin1(self, node):
        message = node.new_message()
        message["s"] = "abc"
        message["rs"] = ["x" * 20]

        def build():
            memory, addr, cache = _image(message)
            sso = memory.read_u64(_slot(cache, node, addr, "s"))
            memory.write(sso + 16, b"\xff\xfe\x80")
            header = memory.read_u64(_slot(cache, node, addr, "rs"))
            heap = read_string_object(memory, memory.read_u64(
                memory.read_u64(header)))
            memory.write(heap.data_ptr, b"\xc3" * 20)
            return memory, addr, cache

        back = assert_reads_match(build, node)
        assert back["s"] == "\xff\xfe\x80"
        assert back["rs"][0] == "\xc3" * 20

    @pytest.mark.parametrize("first, second, winner", [
        ("pick_int", "pick_str", "pick_str"),
        ("pick_str", "pick_node", "pick_node"),
        ("pick_node", "pick_int", "pick_node"),
    ])
    def test_two_oneof_hasbits_last_declared_wins(self, node, first,
                                                  second, winner):
        message = node.new_message()
        values = {"pick_int": 5, "pick_str": "set too",
                  "pick_node": _full_node(node, depth=2)}
        message[first] = values[first]
        other = node.new_message()
        other[second] = values[second]

        def build():
            memory, addr, cache = _image(message)
            # Graft the second member's slot and hasbit onto the image.
            other_addr = reference_write(memory, memory.allocate, other,
                                         cache)
            slot = _slot(cache, node, addr, second)
            width = 4 if second == "pick_int" else 8
            memory.write(slot, memory.read(
                _slot(cache, node, other_addr, second), width))
            _set_hasbit(memory, cache, node, addr,
                        node.field_by_name(second).number)
            return memory, addr, cache

        back = assert_reads_match(build, node)
        assert back.which_oneof("pick") == winner
        assert back[winner] == values[winner]

    def test_out_of_bounds_pointer_raises_like_reference(self, node):
        message = node.new_message()
        message["s"] = "abc"

        def build():
            memory, addr, cache = _image(message)
            memory.write_u64(_slot(cache, node, addr, "s"), 1 << 40)
            return memory, addr, cache

        for reader in (read_message_image, reference_read):
            with pytest.raises(IndexError):
                _read_side(reader, build, node)

    @settings(max_examples=60, deadline=None)
    @given(data=schema_and_message())
    def test_random_messages(self, data):
        schema, message = data
        back = assert_reads_match(lambda: _image(message), schema["Root"])
        assert back == message

    @settings(max_examples=60, deadline=None)
    @given(data=image_schema_and_message())
    def test_random_image_schemas(self, data):
        schema, message = data
        back = assert_reads_match(lambda: _image(message), schema["Node"])
        assert back == message


def test_plan_round_trip_matches_reference_round_trip(node):
    """Plan write -> plan read gives what reference write -> reference
    read gives, on one shared memory."""
    message = _full_node(node)
    memory = SimMemory(4 << 20)
    cache = LayoutCache()
    plan_addr = write_message_image(memory, memory.allocate, message, cache)
    reference_addr = reference_write(memory, memory.allocate, message, cache)
    assert shape(read_message_image(memory, node, plan_addr, cache)) == \
        shape(reference_read(memory, node, reference_addr, cache))

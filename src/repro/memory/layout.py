"""Byte-for-byte C++ object images in simulated memory.

The accelerator serializes *from* and deserializes *into* the in-memory
representation generated C++ code uses (Section 2.1.3): message objects
with a vptr, a hasbits array, and typed field slots; ``std::string`` with
libstdc++'s small-string optimisation; and vector-like repeated fields.

Layout of a message object (all little-endian):

====================  =======================================================
offset                contents
====================  =======================================================
0                     vptr (8 B; a per-type sentinel in this model)
8                     sparse hasbits array (Section 4.2): one bit per field
                      number in ``[min_field_number, max_field_number]``,
                      indexed by ``number - min_field_number``, rounded up
                      to whole 64-bit words
after hasbits         one slot per field in declaration order, naturally
                      aligned: inline scalars, or 8 B pointers for strings/
                      bytes (``std::string*``), sub-messages and repeated
                      fields
====================  =======================================================

``std::string`` (32 B, libstdc++): ``[data_ptr, size, capacity | SSO buf]``
with a 15-byte SSO capacity -- the "small string optimisation" the paper's
deserializer handles in hardware (Section 4.4.7).

Repeated field (24 B header): ``[data_ptr, size, capacity]`` with a
contiguous element array (elements are inline scalars or 8 B pointers).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable, NamedTuple

from repro.memory.memspace import SimMemory
from repro.proto.descriptor import FieldDescriptor, MessageDescriptor
from repro.proto.message import Message, RepeatedField
from repro.proto.types import CPP_SCALAR_BYTES, FieldType

#: sizeof(std::string) in 64-bit libstdc++.
STRING_OBJECT_BYTES = 32

#: Longest string stored inline in the SSO buffer.
SSO_CAPACITY = 15

#: Header bytes of a repeated-field object: data pointer, size, capacity.
REPEATED_HEADER_BYTES = 24

_POINTER_BYTES = 8
_HASBITS_OFFSET = 8

#: :attr:`FieldPlan.kind` values; a repeated field adds ``_REPEATED``.
_SCALAR, _STRING, _BYTES, _MESSAGE = range(4)
_REPEATED = 4

#: Field type -> (kind, scalar codec, element width).  ``?`` packs any
#: truthy value as 1 and unpacks any nonzero byte as True, which is
#: exactly the C++ ``bool`` slot contract.
_CODINGS = {
    field_type: (_SCALAR, struct.Struct("<" + code),
                 CPP_SCALAR_BYTES[field_type])
    for field_type, code in (
        (FieldType.DOUBLE, "d"),
        (FieldType.FLOAT, "f"),
        (FieldType.INT32, "i"),
        (FieldType.SINT32, "i"),
        (FieldType.SFIXED32, "i"),
        (FieldType.ENUM, "i"),
        (FieldType.INT64, "q"),
        (FieldType.SINT64, "q"),
        (FieldType.SFIXED64, "q"),
        (FieldType.UINT32, "I"),
        (FieldType.FIXED32, "I"),
        (FieldType.UINT64, "Q"),
        (FieldType.FIXED64, "Q"),
        (FieldType.BOOL, "?"),
    )
}
_CODINGS[FieldType.STRING] = (_STRING, None, _POINTER_BYTES)
_CODINGS[FieldType.BYTES] = (_BYTES, None, _POINTER_BYTES)
_CODINGS[FieldType.MESSAGE] = (_MESSAGE, None, _POINTER_BYTES)

_U64 = struct.Struct("<Q")
#: The first two words of a std::string or repeated-field header.
_PTR_SIZE = struct.Struct("<QQ")
_REPEATED_HEADER = struct.Struct("<QQQ")
_SSO_STRING = struct.Struct("<QQ16s")
_HEAP_STRING = struct.Struct("<QQQQ")

Allocator = Callable[[int, int], int]


class FieldPlan(NamedTuple):
    """How the image walkers reach one field of a message object.

    Computed once per type by :meth:`LayoutCache.layout`, so reading or
    writing an image never re-derives offsets, widths or codecs from the
    descriptor.
    """

    number: int
    #: Hasbits word index and the field's presence bit within it.
    word: int
    mask: int
    #: Slot offset inside the object.
    offset: int
    #: ``_SCALAR``/``_STRING``/``_BYTES``/``_MESSAGE``, plus ``_REPEATED``.
    kind: int
    #: Codec of one scalar element (``None`` for pointer kinds).
    codec: struct.Struct | None
    #: Bytes per element: the slot of a singular scalar, or one entry of
    #: a repeated field's backing array.
    width: int
    sub_type: MessageDescriptor | None
    #: Oneof members that setting this field clears.
    siblings: tuple[int, ...]
    field: FieldDescriptor


@dataclass(frozen=True)
class MessageLayout:
    """Computed object layout for one message type."""

    descriptor: MessageDescriptor
    vptr: int
    hasbits_offset: int
    hasbits_words: int
    field_offsets: dict[int, int]  # field number -> byte offset
    object_size: int
    #: One entry per field, in declaration order.
    plan: tuple[FieldPlan, ...]
    #: Codec of the whole hasbits array.
    hasbits_codec: struct.Struct

    def hasbit_position(self, field_number: int) -> tuple[int, int]:
        """(word_index, bit_index) of a field's presence bit.

        The sparse representation indexes directly by field number relative
        to the type's minimum defined field number (Section 4.2), so the
        accelerator needs no per-field mapping table.
        """
        bit = field_number - self.descriptor.min_field_number
        return bit // 64, bit % 64


class LayoutCache:
    """Memoised descriptor -> :class:`MessageLayout` computation.

    Also assigns the per-type vptr sentinels that stand in for C++ vtable
    pointers (the ADT header stores a "pointer to a default instance (or
    vptr value)" -- Section 4.2).
    """

    _VPTR_BASE = 0x7F00_0000_0000

    def __init__(self) -> None:
        self._layouts: dict[int, MessageLayout] = {}
        self._vptr_by_type: dict[int, int] = {}
        self._type_by_vptr: dict[int, MessageDescriptor] = {}

    def vptr_for(self, descriptor: MessageDescriptor) -> int:
        key = id(descriptor)
        if key not in self._vptr_by_type:
            vptr = self._VPTR_BASE + 0x40 * (len(self._vptr_by_type) + 1)
            self._vptr_by_type[key] = vptr
            self._type_by_vptr[vptr] = descriptor
        return self._vptr_by_type[key]

    def type_for_vptr(self, vptr: int) -> MessageDescriptor:
        return self._type_by_vptr[vptr]

    def layout(self, descriptor: MessageDescriptor) -> MessageLayout:
        key = id(descriptor)
        cached = self._layouts.get(key)
        if cached is not None:
            return cached
        span = descriptor.field_number_span
        hasbits_words = max(1, -(-span // 64))
        offset = _HASBITS_OFFSET + hasbits_words * 8
        lowest = descriptor.min_field_number
        field_offsets: dict[int, int] = {}
        plan: list[FieldPlan] = []
        for fd in descriptor.fields:
            kind, codec, width = _CODINGS[fd.field_type]
            if fd.is_repeated:
                kind += _REPEATED
            # Slots are naturally aligned; every slot is at most 8 bytes.
            slot = width if kind == _SCALAR else _POINTER_BYTES
            offset = -(-offset // slot) * slot
            number = fd.number
            field_offsets[number] = offset
            bit = number - lowest
            siblings = (descriptor.oneof_siblings(number)
                        if fd.oneof_group is not None else ())
            plan.append(FieldPlan(number, bit >> 6, 1 << (bit & 63), offset,
                                  kind, codec, width, fd.message_type,
                                  siblings, fd))
            offset += slot
        object_size = -(-offset // 8) * 8
        layout = MessageLayout(
            descriptor=descriptor,
            vptr=self.vptr_for(descriptor),
            hasbits_offset=_HASBITS_OFFSET,
            hasbits_words=hasbits_words,
            field_offsets=field_offsets,
            object_size=object_size,
            plan=tuple(plan),
            hasbits_codec=struct.Struct(f"<{hasbits_words}Q"),
        )
        self._layouts[key] = layout
        return layout


# -- the access contract --------------------------------------------------------
#
# The walkers below move each object, string and array with as few
# ``SimMemory`` calls as they can, and add the accesses they merged to
# ``memory.stats``: the counters read as if every hasbits word, slot,
# header word and element were its own access, as in the field-by-field
# walk ``tests/memory/test_image_plans.py`` keeps as the reference.  The
# writer allocates children in that walk's order (declaration order,
# depth first) and writes the same byte ranges, so addresses -- hence
# every TLB and cycle charge downstream -- and decode-cache flushes are
# unchanged too.


# -- writing images -----------------------------------------------------------


def _write_string(memory: SimMemory, alloc: Allocator, payload: bytes) -> int:
    """Allocate and initialise a libstdc++ std::string; returns its address."""
    addr = alloc(STRING_OBJECT_BYTES, 8)
    size = len(payload)
    if size <= SSO_CAPACITY:
        memory.write(addr, _SSO_STRING.pack(addr + 16, size, payload))
        memory.stats.writes += 2  # data_ptr, size, buffer
    else:
        data_ptr = alloc(size, 8)
        memory.write(data_ptr, payload)
        # Heap capacity equals size; the fourth word is unused.
        memory.write(addr, _HEAP_STRING.pack(data_ptr, size, size, 0))
        memory.stats.writes += 3  # four header words
    return addr


def _write_repeated(memory: SimMemory, alloc: Allocator, cache: LayoutCache,
                    kind: int, codec, width: int, items: list) -> int:
    """Allocate a repeated-field object plus backing array."""
    header = alloc(REPEATED_HEADER_BYTES, 8)
    count = len(items)
    array = alloc(count * width, 8)
    if kind == _REPEATED + _SCALAR:
        data = struct.pack(f"<{count}{codec.format[1:]}", *items)
    else:
        if kind == _REPEATED + _MESSAGE:
            pointers = [write_message_image(memory, alloc, item, cache)
                        for item in items]
        elif kind == _REPEATED + _STRING:
            pointers = [_write_string(memory, alloc, item.encode("utf-8"))
                        for item in items]
        else:
            pointers = [_write_string(memory, alloc, bytes(item))
                        for item in items]
        data = struct.pack(f"<{count}Q", *pointers)
    memory.write(header, _REPEATED_HEADER.pack(array, count, count))
    memory.write(array, data)
    memory.stats.writes += count + 1  # three header words, each element
    return header


def write_message_image(memory: SimMemory, alloc: Allocator,
                        message: Message, cache: LayoutCache,
                        addr: int | None = None) -> int:
    """Materialise ``message`` as a C++ object image; returns its address.

    ``alloc`` decides where child objects go -- pass the software heap to
    set up serializer inputs, or an accelerator arena's allocate for objects
    the accelerator would own.  The object is assembled locally and
    written once, after its children.
    """
    layout = cache.layout(message.descriptor)
    if addr is None:
        addr = alloc(layout.object_size, 8)
    block = bytearray(layout.object_size)
    _U64.pack_into(block, 0, layout.vptr)
    words = [0] * layout.hasbits_words
    values = message._values
    present = message._hasbits
    # Zero fill, vptr and each hasbits word were separate writes.
    writes = 1 + layout.hasbits_words
    written = 8 + 8 * layout.hasbits_words
    for number, word, mask, offset, kind, codec, width, _, _, _ \
            in layout.plan:
        if kind >= _REPEATED:
            repeated = values.get(number)
            if repeated is None or not repeated._items:
                continue
            pointer = _write_repeated(memory, alloc, cache, kind, codec,
                                      width, repeated._items)
        elif number not in present:
            continue
        elif kind == _SCALAR:
            codec.pack_into(block, offset, values[number])
            words[word] |= mask
            writes += 1
            written += width
            continue
        elif kind == _MESSAGE:
            pointer = write_message_image(memory, alloc, values[number],
                                          cache)
        elif kind == _STRING:
            pointer = _write_string(memory, alloc,
                                    values[number].encode("utf-8"))
        else:
            pointer = _write_string(memory, alloc, bytes(values[number]))
        _U64.pack_into(block, offset, pointer)
        words[word] |= mask
        writes += 1
        written += 8
    layout.hasbits_codec.pack_into(block, layout.hasbits_offset, *words)
    memory.write(addr, block)
    stats = memory.stats
    stats.writes += writes
    stats.written_bytes += written
    return addr


# -- reading images -----------------------------------------------------------


@dataclass(frozen=True)
class StdString:
    """A decoded view of a std::string object image."""

    address: int
    data_ptr: int
    size: int
    is_sso: bool
    payload: bytes


def read_string_object(memory: SimMemory, addr: int) -> StdString:
    """Decode the std::string at ``addr``."""
    data_ptr = memory.read_u64(addr)
    size = memory.read_u64(addr + 8)
    is_sso = data_ptr == addr + 16
    payload = memory.read(data_ptr, size)
    return StdString(addr, data_ptr, size, is_sso, payload)


def _read_payload(memory: SimMemory, addr: int) -> bytes:
    """The payload of the std::string at ``addr``."""
    data_ptr, size = _PTR_SIZE.unpack(memory.read(addr, 16))
    payload = memory.read(data_ptr, size)
    memory.stats.reads += 1  # data_ptr and size
    return payload


def _decode_text(payload: bytes) -> str:
    """A ``string`` payload as text; images are not UTF-8-validated, so
    invalid bytes come back one character per byte."""
    try:
        return payload.decode("utf-8")
    except UnicodeDecodeError:
        return payload.decode("latin-1")


def _read_repeated(memory: SimMemory, cache: LayoutCache, kind: int, codec,
                   width: int, sub_type, header: int) -> list:
    """The elements of the repeated-field object at ``header``."""
    data_ptr, count = _PTR_SIZE.unpack(memory.read(header, 16))
    memory.stats.reads += 1  # data_ptr and size
    if not count:
        return []
    array = memory.read(data_ptr, count * width)
    memory.stats.reads += count - 1  # one read per element
    if kind == _REPEATED + _SCALAR:
        return list(struct.unpack(f"<{count}{codec.format[1:]}", array))
    pointers = struct.unpack(f"<{count}Q", array)
    if kind == _REPEATED + _MESSAGE:
        return [read_message_image(memory, sub_type, pointer, cache)
                for pointer in pointers]
    payloads = [_read_payload(memory, pointer) for pointer in pointers]
    if kind == _REPEATED + _STRING:
        return [_decode_text(payload) for payload in payloads]
    return payloads


def read_message_image(memory: SimMemory, descriptor: MessageDescriptor,
                       addr: int, cache: LayoutCache) -> Message:
    """Reconstruct a :class:`Message` from the object image at ``addr``.

    What application code observes through generated accessors: the
    serving layer reads every decoded request through it before the
    handler runs, and the fault-fallback serializer reads the response
    image it must encode.  Present fields are read in declaration order,
    so when a mutant image sets two members of one oneof, the last
    declared wins (as assigning them in that order would).  Values are
    stored without :class:`Message`'s setter validation: everything
    ``struct`` unpacks from a slot of the field's C++ type is already a
    valid value of that type.
    """
    layout = cache.layout(descriptor)
    block = memory.read(addr, layout.object_size)
    words = layout.hasbits_codec.unpack_from(block, layout.hasbits_offset)
    message = Message(descriptor)
    values = message._values
    present = message._hasbits
    # One read of the object replaces one per hasbits word and slot.
    reads = layout.hasbits_words - 1
    read_bytes = 8 * layout.hasbits_words - layout.object_size
    for number, word, mask, offset, kind, codec, width, sub_type, \
            siblings, fd in layout.plan:
        if not words[word] & mask:
            continue
        reads += 1
        if kind == _SCALAR:
            read_bytes += width
            value = codec.unpack_from(block, offset)[0]
        else:
            read_bytes += 8
            pointer = _U64.unpack_from(block, offset)[0]
            if kind == _MESSAGE:
                value = read_message_image(memory, sub_type, pointer, cache)
            elif kind == _STRING:
                value = _decode_text(_read_payload(memory, pointer))
            elif kind == _BYTES:
                value = _read_payload(memory, pointer)
            else:
                repeated = RepeatedField(fd)
                repeated._items = _read_repeated(memory, cache, kind, codec,
                                                 width, sub_type, pointer)
                values[number] = repeated
                present.add(number)
                continue
        for other in siblings:
            values.pop(other, None)
            present.discard(other)
        values[number] = value
        present.add(number)
    stats = memory.stats
    stats.reads += reads
    stats.read_bytes += read_bytes
    return message

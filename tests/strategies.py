"""Hypothesis strategies for random schemas and messages.

The core property tests draw (schema, message) pairs here: arbitrary
field-type mixes, optional/repeated labels, packed encodings, nested and
recursive sub-messages -- then assert the library's invariants (round
trips, accelerator/software equivalence, byte-size correctness).
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.proto.descriptor import (
    EnumDescriptor,
    FieldDescriptor,
    MessageDescriptor,
    Schema,
)
from repro.proto.message import Message
from repro.proto.types import FieldType, Label, is_packable

SCALAR_TYPES = [
    FieldType.DOUBLE, FieldType.FLOAT, FieldType.INT32, FieldType.INT64,
    FieldType.UINT32, FieldType.UINT64, FieldType.SINT32, FieldType.SINT64,
    FieldType.FIXED32, FieldType.FIXED64, FieldType.SFIXED32,
    FieldType.SFIXED64, FieldType.BOOL, FieldType.STRING, FieldType.BYTES,
]

#: Every non-message field type, enums included (object-image tests).
IMAGE_TYPES = SCALAR_TYPES + [FieldType.ENUM]

#: The enum type behind every ENUM field drawn here.
COLOR = EnumDescriptor("Color", {"RED": 0, "GREEN": 1, "BLUE": 7})

_INT_BOUNDS = {
    FieldType.INT32: (-(2**31), 2**31 - 1),
    FieldType.SINT32: (-(2**31), 2**31 - 1),
    FieldType.SFIXED32: (-(2**31), 2**31 - 1),
    FieldType.INT64: (-(2**63), 2**63 - 1),
    FieldType.SINT64: (-(2**63), 2**63 - 1),
    FieldType.SFIXED64: (-(2**63), 2**63 - 1),
    FieldType.UINT32: (0, 2**32 - 1),
    FieldType.FIXED32: (0, 2**32 - 1),
    FieldType.UINT64: (0, 2**64 - 1),
    FieldType.FIXED64: (0, 2**64 - 1),
    FieldType.ENUM: (-(2**31), 2**31 - 1),
}


def value_strategy(field_type: FieldType,
                   allow_nan: bool = False) -> st.SearchStrategy:
    """Values legal for one scalar field type (``allow_nan`` adds NaN and
    the infinities to float/double)."""
    if field_type is FieldType.BOOL:
        return st.booleans()
    if field_type is FieldType.DOUBLE:
        return st.floats(allow_nan=allow_nan, allow_infinity=allow_nan,
                         width=64)
    if field_type is FieldType.FLOAT:
        return st.floats(allow_nan=allow_nan, allow_infinity=allow_nan,
                         width=32)
    if field_type is FieldType.STRING:
        return st.text(max_size=64)
    if field_type is FieldType.BYTES:
        return st.binary(max_size=64)
    lo, hi = _INT_BOUNDS[field_type]
    return st.integers(min_value=lo, max_value=hi)


@st.composite
def field_descriptors(draw, number: int,
                      allow_message: bool = False,
                      sub_type_name: str | None = None,
                      allow_oneof: bool = False,
                      field_types=SCALAR_TYPES) -> FieldDescriptor:
    if allow_message and sub_type_name and draw(st.booleans()):
        label = draw(st.sampled_from([Label.OPTIONAL, Label.REPEATED]))
        return FieldDescriptor(
            name=f"f{number}", number=number,
            field_type=FieldType.MESSAGE, label=label,
            type_name=sub_type_name)
    field_type = draw(st.sampled_from(field_types))
    label = draw(st.sampled_from(
        [Label.OPTIONAL, Label.OPTIONAL, Label.REPEATED]))
    packed = (label is Label.REPEATED and is_packable(field_type)
              and draw(st.booleans()))
    oneof = None
    if (allow_oneof and label is Label.OPTIONAL
            and draw(st.integers(0, 3)) == 0):
        # Roughly a quarter of optional scalars join the shared group,
        # exercising sibling clearing through every downstream property
        # (wire round trips, accel equivalence, JSON/text round trips).
        oneof = "g"
    return FieldDescriptor(name=f"f{number}", number=number,
                           field_type=field_type, label=label,
                           packed=packed, oneof_group=oneof,
                           enum_type=(COLOR if field_type is FieldType.ENUM
                                      else None))


@st.composite
def schemas(draw) -> Schema:
    """A random schema: a Leaf type plus a Root that may reference it,
    optionally carrying a map field (a synthesized entry type)."""
    schema = Schema()
    leaf_fields = [
        draw(field_descriptors(number))
        for number in sorted(draw(st.sets(
            st.integers(min_value=1, max_value=40),
            min_size=1, max_size=6)))
    ]
    schema.add_message(MessageDescriptor("Leaf", leaf_fields))
    root_fields = [
        draw(field_descriptors(number, allow_message=True,
                               sub_type_name="Leaf", allow_oneof=True))
        for number in sorted(draw(st.sets(
            st.integers(min_value=1, max_value=60),
            min_size=1, max_size=8)))
    ]
    if draw(st.booleans()):
        entry = MessageDescriptor(
            "Root.KvEntry",
            [FieldDescriptor(name="key", number=1,
                             field_type=FieldType.STRING),
             FieldDescriptor(name="value", number=2,
                             field_type=FieldType.INT64)],
            full_name="Root.KvEntry", is_map_entry=True)
        schema.add_message(entry)
        root_fields.append(FieldDescriptor(
            name="kv", number=61, field_type=FieldType.MESSAGE,
            label=Label.REPEATED, type_name="Root.KvEntry"))
    schema.add_message(MessageDescriptor("Root", root_fields))
    schema.resolve()
    return schema


@st.composite
def populated_messages(draw, descriptor: MessageDescriptor,
                       depth: int = 0, allow_nan: bool = False) -> Message:
    """A random message of the given type with random field presence."""
    message = descriptor.new_message()
    for fd in descriptor.fields:
        if not draw(st.booleans()):
            continue
        if fd.is_map:
            entries = draw(st.dictionaries(st.text(max_size=8),
                                           st.integers(-(2**63), 2**63 - 1),
                                           min_size=1, max_size=3))
            for key, value in entries.items():
                message.map_set(fd.name, key, value)
            continue
        if fd.field_type is FieldType.MESSAGE:
            assert fd.message_type is not None
            if depth >= 2:
                continue
            children = draw(st.lists(
                populated_messages(fd.message_type, depth=depth + 1,
                                   allow_nan=allow_nan),
                min_size=1, max_size=3 if fd.is_repeated else 1))
            if fd.is_repeated:
                for child in children:
                    message[fd.name]._items.append(child)
                message._hasbits.add(fd.number)
            else:
                message[fd.name] = children[0]
            continue
        if fd.is_repeated:
            values = draw(st.lists(value_strategy(fd.field_type, allow_nan),
                                   min_size=1, max_size=5))
            message[fd.name] = values
        else:
            message[fd.name] = draw(value_strategy(fd.field_type, allow_nan))
    return message


@st.composite
def schema_and_message(draw):
    """A (schema, message-of-Root) pair."""
    schema = draw(schemas())
    message = draw(populated_messages(schema["Root"]))
    return schema, message


@st.composite
def image_schemas(draw) -> Schema:
    """A self-recursive ``Node`` type for object-image tests: every field
    type (enums included), a oneof group, a ``Node`` sub-message field,
    and half the time a field number past 128, so the hasbits array
    spans several 64-bit words."""
    numbers = draw(st.sets(st.integers(min_value=1, max_value=60),
                           min_size=1, max_size=10))
    if draw(st.booleans()):
        numbers.add(draw(st.integers(min_value=129, max_value=200)))
    fields = [
        draw(field_descriptors(number, allow_message=True,
                               sub_type_name="Node", allow_oneof=True,
                               field_types=IMAGE_TYPES))
        for number in sorted(numbers)
    ]
    schema = Schema()
    schema.add_enum(COLOR)
    schema.add_message(MessageDescriptor("Node", fields))
    schema.resolve()
    return schema


@st.composite
def image_schema_and_message(draw):
    """A (schema, Node message) pair whose floats may be NaN or infinite."""
    schema = draw(image_schemas())
    return schema, draw(populated_messages(schema["Node"], allow_nan=True))


@st.composite
def schema_and_two_messages(draw):
    """A (schema, message, message) triple sharing one Root type."""
    schema = draw(schemas())
    first = draw(populated_messages(schema["Root"]))
    second = draw(populated_messages(schema["Root"]))
    return schema, first, second


# -- adversarial wire mutations ----------------------------------------------

#: Mutation kinds for :func:`mutated_wire`.  Each targets a different
#: parser weakness: ``bitflip`` (key/length/value corruption),
#: ``truncate`` (unexpected EOF), ``delete``/``duplicate`` (framing
#: desync), ``insert`` (garbage between fields), ``saturate`` (0xFF runs
#: read as maximal varints/lengths), ``bogus_tag`` (field number 0 and
#: the deprecated/invalid wire types 3, 4, 6, 7).
WIRE_MUTATIONS = ("bitflip", "truncate", "delete", "duplicate", "insert",
                  "saturate", "bogus_tag")

#: Single-byte keys that are never legal here: wire types 3/4 (groups),
#: 6/7 (undefined), and field number 0 with every otherwise-valid type.
_BOGUS_KEYS = (0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07,
               0x0b, 0x0c, 0x0e, 0x0f)


def _apply_mutation(draw, wire: bytes, kind: str) -> bytes:
    if not wire and kind not in ("insert", "bogus_tag"):
        kind = "insert"  # nothing to corrupt in an empty buffer
    if kind == "bitflip":
        index = draw(st.integers(0, len(wire) - 1))
        flipped = bytearray(wire)
        flipped[index] ^= 1 << draw(st.integers(0, 7))
        return bytes(flipped)
    if kind == "truncate":
        return wire[:draw(st.integers(0, len(wire) - 1))]
    if kind == "delete":
        index = draw(st.integers(0, len(wire) - 1))
        count = draw(st.integers(1, min(4, len(wire) - index)))
        return wire[:index] + wire[index + count:]
    if kind == "duplicate":
        index = draw(st.integers(0, len(wire) - 1))
        count = draw(st.integers(1, min(6, len(wire) - index)))
        span = wire[index:index + count]
        return wire[:index + count] + span + wire[index + count:]
    if kind == "insert":
        index = draw(st.integers(0, len(wire)))
        blob = draw(st.binary(min_size=1, max_size=6))
        return wire[:index] + blob + wire[index:]
    if kind == "saturate":
        index = draw(st.integers(0, len(wire) - 1))
        count = draw(st.integers(1, min(11, len(wire) - index)))
        return wire[:index] + b"\xff" * count + wire[index + count:]
    if kind == "bogus_tag":
        index = draw(st.integers(0, len(wire)))
        key = draw(st.sampled_from(_BOGUS_KEYS))
        return wire[:index] + bytes([key]) + wire[index:]
    raise ValueError(f"unknown mutation {kind!r}")


@st.composite
def mutated_wire(draw, wire: bytes) -> bytes:
    """``wire`` after 1-3 adversarial mutations (may still be valid --
    differential tests compare verdicts, not assume rejection)."""
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(WIRE_MUTATIONS))
        wire = _apply_mutation(draw, wire, kind)
    return wire


@st.composite
def schema_wire_and_mutant(draw):
    """A (schema, valid wire, mutated wire) triple of one Root message.

    The shared entry point for decoder-differential tests (interpretive
    FSM vs codegen kernels vs software parser): every decoder must reach
    the same verdict on both buffers -- equal messages on accept,
    matching structured errors on reject."""
    from repro.proto.encoder import serialize_message
    schema, message = draw(schema_and_message())
    wire = serialize_message(message, check_required=False)
    mutant = draw(mutated_wire(wire))
    return schema, wire, mutant

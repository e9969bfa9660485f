"""Planned messages, held to the generic tagged-dict codec they stand in for.

Every message the mailbox op table declares is packed by its plan and by
``pack_value`` and must give the same bytes.  Decoded by its plan (and, for
a request, through the server's table), every truncation and four flips of
every byte must give ``unpack_value``'s value or raise its error with the
same text; where the generic path gives an int64 array the plan's list of
ints counts as the same value.  The shapes a plan does not lay out --
reordered, missing and extra keys, a field of another tag, an ack id
outside int64 -- take the generic path, and a hypothesis property holds
the encoder to ``pack_value`` for generated field values.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.encoding.plan import ANY, BOOL, INT, INTS, OPAQUE, STR, Plan, Table
from repro.encoding.xdr import pack_value, unpack_value
from repro.messaging import protocol
from repro.messaging.broker import Delivery
from repro.util.errors import EncodingError
from tests.encoding.test_xdr_kernel import _damaged, _same, kernel_values

#: one value per kind, for the canonical message of each declaration
SAMPLES = {STR: "jobs-é", INT: -(2**40), BOOL: True, OPAQUE: b"\x01\x02trace",
           ANY: {"n": [1, 2.5, "x"], "none": None}, INTS: [3, 2**62, -5]}

MESSAGES = {f"{name} {side}": getattr(op, side)
            for name, op in protocol.OPS.items() for side in ("request", "reply")}
MESSAGES["push"] = protocol.PUSH


def _kinded(plan: Plan) -> list:
    return [kind for kind in plan.fields.values() if kind in SAMPLES]


def _canonical(plan: Plan) -> tuple:
    return tuple(SAMPLES[kind] for kind in _kinded(plan))


def _as_generic(value):
    """*value* with every list of ints made the int64 array the generic path reads."""
    if isinstance(value, dict):
        return {key: _as_generic(item) for key, item in value.items()}
    if (isinstance(value, list) and value
            and all(type(item) is int for item in value)):
        return np.asarray(value, dtype=np.int64)
    return value


def _outcome(decode, data):
    try:
        return decode(data)
    except EncodingError as exc:
        return exc


def _agree(planned_decode, data) -> None:
    got, want = _outcome(planned_decode, data), _outcome(unpack_value, data)
    if isinstance(want, EncodingError):
        assert isinstance(got, EncodingError), (data, got, want)
        assert str(got) == str(want), data
    else:
        assert _same(_as_generic(got), want) or _same(got, want), (data, got, want)


@pytest.mark.parametrize("name", sorted(MESSAGES))
def test_canonical_message_is_the_generic_bytes(name):
    plan = MESSAGES[name]
    values = _canonical(plan)
    packed = plan.pack(*values)
    assert packed == pack_value(plan.as_dict(values))
    assert plan.unpack(packed) is not None


@pytest.mark.parametrize("name", sorted(MESSAGES))
def test_damaged_messages_decode_as_the_generic_codec(name):
    plan = MESSAGES[name]
    decoders = [plan.decode]
    if name.endswith("request"):
        decoders.append(protocol._REQUESTS.decode)
    for data in _damaged(plan.pack(*_canonical(plan))):
        for decode in decoders:
            _agree(decode, data)


def _push_outcome(read, data):
    try:
        delivery = read(data)
    except Exception as exc:  # the generic path's KeyError as much as its EncodingError
        return type(exc), str(exc)
    message = delivery.message
    return (delivery.mailbox, delivery.delivery_id, delivery.redelivered, delivery.attempt,
            message.seq, message.publisher, message.trace, repr(message.payload))


def test_damaged_pushes_read_as_the_generic_delivery():
    packed = protocol.PUSH.pack(*_canonical(protocol.PUSH))
    for data in _damaged(packed):
        got = _push_outcome(lambda d: protocol.read_push(d, b"t"), data)
        want = _push_outcome(
            lambda d: protocol._delivery_from(unpack_value(d), b"t"), data)
        assert got == want, data


def test_push_sink_reads_a_delivery_straight_from_the_fields():
    packed = protocol.PUSH.pack("q", 9, 4, [1.5], "p", False, 2)
    delivery = protocol.read_push(packed, None)
    assert isinstance(delivery, Delivery)
    assert (delivery.mailbox, delivery.delivery_id, delivery.seq, delivery.payload,
            delivery.message.publisher, delivery.redelivered, delivery.attempt,
            delivery.message.trace) == ("q", 9, 4, [1.5], "p", False, 2, b"")


# -- shapes the plan does not lay out take the generic path ---------------------

ACK = protocol.OPS["ack"].request
PUBLISH = protocol.OPS["publish"].request


@pytest.mark.parametrize("body", [
    {"sub_id": 3, "op": "ack", "delivery_ids": [1, 2]},  # reordered
    {"op": "ack", "sub_id": 3},  # missing
    {"op": "ack", "sub_id": 3, "delivery_ids": [1, 2], "extra": 0},  # extra
    {"op": "ack", "sub_id": "3", "delivery_ids": [1, 2]},  # another tag
    {"op": "ack", "sub_id": 3, "delivery_ids": [1, True]},  # a list, not an array
    {"op": "ack", "sub_id": 3, "delivery_ids": []},
    {"op": "ack", "sub_id": 3, "delivery_ids": [1.0, 2.0]},  # a float64 array
])
def test_foreign_shapes_decode_generically(body):
    data = pack_value(body)
    assert ACK.unpack(data) is None
    for decode in (ACK.decode, protocol._REQUESTS.decode):
        got = decode(data)
        assert _same(got, unpack_value(data)), got


@pytest.mark.parametrize("ids", [[], [True], [1, "2"], [2**63], [-(2**63) - 1], [1, 1.0]])
def test_ack_ids_that_are_not_an_int64_array_pack_generically(ids):
    try:
        want = pack_value({"op": "ack", "sub_id": 3, "delivery_ids": ids})
    except EncodingError as exc:
        with pytest.raises(EncodingError) as ours:
            ACK.pack(3, ids)
        assert str(ours.value) == str(exc)
    else:
        assert ACK.pack(3, ids) == want


def test_ack_ids_at_the_int64_bounds_are_planned():
    ids = [-(2**63), 2**63 - 1, 0]
    packed = ACK.pack(3, ids)
    assert packed == pack_value({"op": "ack", "sub_id": 3, "delivery_ids": ids})
    assert ACK.unpack(packed) == ["ack", 3, ids]


def test_an_ack_array_longer_than_the_message_is_the_generic_fault():
    head = ACK.pack(3, [1])[:-16]  # up to the array's length and byte count
    data = head + struct.pack(">II", 2**28, 2**31) + b"\0" * 8
    with pytest.raises(EncodingError) as ours:
        ACK.decode(data)
    with pytest.raises(EncodingError) as theirs:
        unpack_value(data)
    assert str(ours.value) == str(theirs.value)


def test_a_table_routes_on_the_whole_lead():
    table = Table([ACK, PUBLISH])
    assert table.decode(pack_value({"op": "ack", "sub_id": 1, "delivery_ids": [2]})) == {
        "op": "ack", "sub_id": 1, "delivery_ids": [2]}
    for body in ({"op": "bogus"}, {"op": "ack"}, "not a dict", {"kind": "ack"}):
        assert _same(table.decode(pack_value(body)), unpack_value(pack_value(body)))
    with pytest.raises(EncodingError, match="underflow"):
        table.decode(b"\0\0\0\7")


def test_a_table_takes_one_lead_key_and_str_leads():
    with pytest.raises(TypeError):
        Table([Plan({"op": "a", "n": INT}), Plan({"kind": "b", "n": INT})])
    with pytest.raises(TypeError):
        Table([Plan({"op": STR})])


def test_constant_only_messages_are_their_bytes():
    plan = Plan({"ok": True, "empty": True})
    assert plan.pack() == pack_value({"ok": True, "empty": True})
    assert plan.unpack(plan.pack()) == [True, True]
    assert plan.decode(pack_value({"ok": True, "empty": False})) == {"ok": True, "empty": False}


# -- the encoder against pack_value, for generated field values -----------------

_FITTING = {
    STR: st.text(max_size=9),
    INT: st.integers(-(2**63), 2**63 - 1),
    BOOL: st.booleans(),
    OPAQUE: st.binary(max_size=9),
    ANY: kernel_values,
    INTS: st.lists(st.integers(-(2**64), 2**64), max_size=4),
}


@st.composite
def _messages(draw):
    plan = draw(st.sampled_from(sorted(MESSAGES.items())))[1]
    values = tuple(draw(st.one_of(_FITTING[kind], kernel_values)) for kind in _kinded(plan))
    return plan, values


@given(_messages())
@settings(deadline=None, max_examples=100)
def test_plans_pack_what_pack_value_packs(message):
    plan, values = message
    try:
        want = pack_value(plan.as_dict(values))
    except EncodingError as exc:
        with pytest.raises(EncodingError) as ours:
            plan.pack(*values)
        assert str(ours.value) == str(exc)
        return
    packed = plan.pack(*values)
    assert packed == want
    _agree(plan.decode, packed)

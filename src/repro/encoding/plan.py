"""Planned tagged-dict messages: one declaration, compiled once.

A protocol whose messages are tagged XDR dicts with fixed keys
(:func:`~repro.encoding.xdr.pack_value`) spends most of each message on
the same key strings and type tags.  A :class:`Plan` is one such message
declared once: its keys in wire order, each mapped to the kind of value it
carries or to the constant it always carries.  Compiled at import, the
encoder writes the constant key and tag bytes as pre-joined runs and packs
each field with a precompiled ``Struct``; the decoder checks the runs by
slice compare and reads the fields by position.

The wire format stays the generic one: a plan's bytes are ``pack_value``
of the same dict, byte for byte.  What does not fit the plan takes the
generic path.  A value of another type is packed by ``pack_value``; bytes
whose constant runs differ (keys reordered, missing or extra, a field of
another tag, a foreign peer, damage) decode to ``unpack_value``'s value or
raise its error.

The kinds:

* :data:`STR`, :data:`INT` (hyper), :data:`BOOL`, :data:`OPAQUE` (bytes);
* :data:`ANY`, any tagged value, through the kernel's ``_pack`` / ``_walk``;
* :data:`INTS`, a non-empty list of int64: the NDARRAY an int list packs
  as, decoded to a list of ints rather than an array.  A list the generic
  path would not pack as an int64 array (empty, a bool or a non-int in it,
  a value outside int64) is packed by ``pack_value``.
"""

from __future__ import annotations

import struct
from typing import Any, Iterable

from repro.encoding.xdr import (
    _DTYPE_CODES,
    _I32,
    _I64,
    _PAD,
    _TAG_BOOL,
    _TAG_DICT,
    _TAG_INT,
    _TAG_NDARRAY,
    _TAG_OPAQUE,
    _TAG_STRING,
    _U32,
    _VOID,
    _pack,
    _walk,
    pack_value,
    unpack_value,
)
from repro.util.errors import EncodingError

__all__ = ["STR", "INT", "BOOL", "OPAQUE", "ANY", "INTS", "Plan", "Table"]


class Kind:
    """What a declared field carries; any other declared value is a constant."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:
        return self.name


STR, INT, BOOL, OPAQUE, ANY, INTS = (Kind(name) for name in
                                     ("STR", "INT", "BOOL", "OPAQUE", "ANY", "INTS"))

#: the constant bytes ahead of a kind's value: its tag, and an INTS array's
#: dtype code and rank
_TAGS = {
    STR: struct.pack(">i", _TAG_STRING),
    INT: struct.pack(">i", _TAG_INT),
    BOOL: struct.pack(">i", _TAG_BOOL),
    OPAQUE: struct.pack(">i", _TAG_OPAQUE),
    ANY: b"",
    INTS: struct.pack(">iII", _TAG_NDARRAY, _DTYPE_CODES["int64"], 1),
}

_PUT_U32 = struct.Struct(">I").pack
_PUT_I64 = struct.Struct(">q").pack
_PUT_COUNT = struct.Struct(">iI").pack
_COUNTS = struct.Struct(">II").unpack_from
_EMPTY = _PUT_U32(0)  # an empty string's or opaque's length, and nothing after
_TRUE = struct.pack(">i", 1)
_FALSE = struct.pack(">i", 0)
_DECODE_ERRORS = (struct.error, UnicodeDecodeError, EncodingError)


def _key(key: str) -> bytes:
    raw = key.encode("utf-8")
    return _PUT_U32(len(raw)) + raw + _PAD[: -len(raw) & 3]


class Plan:
    """One tagged-dict message compiled from its declaration.

    *fields* maps each key, in wire order, to a :class:`Kind` or to the
    constant the message always carries there.  :meth:`pack` takes the
    values of the kinded fields, in order; :meth:`unpack` gives back every
    field, constants included.
    """

    __slots__ = ("fields", "keys", "_blank", "_head", "_head_len", "_steps")

    def __init__(self, fields: dict):
        self.fields = dict(fields)
        self.keys = tuple(fields)
        blank: list = []
        runs: list[bytes] = []
        steps: list = []
        run = bytearray(_PUT_COUNT(_TAG_DICT, len(fields)))
        for slot, (key, kind) in enumerate(fields.items()):
            run += _key(key)
            if isinstance(kind, Kind):
                run += _TAGS[kind]
                runs.append(bytes(run))
                run = bytearray()
                steps.append((kind, slot))
                blank.append(None)
            else:
                _pack(run, kind, 1)
                blank.append(kind)
        runs.append(bytes(run))
        self._blank = blank
        self._head = runs[0]
        self._head_len = len(runs[0])
        # each field with the constant run that follows it
        self._steps = tuple((kind, slot, after, len(after))
                            for (kind, slot), after in zip(steps, runs[1:]))

    def as_dict(self, values: Iterable) -> dict:
        """The message as the dict ``pack_value`` would be given."""
        fields = self._blank[:]
        for (_kind, slot, _run, _size), value in zip(self._steps, values):
            fields[slot] = value
        return dict(zip(self.keys, fields))

    def pack(self, *values) -> bytes:
        """``pack_value(self.as_dict(values))``, from the runs where the values fit."""
        buf = bytearray(self._head)
        for value, (kind, _slot, run, _size) in zip(values, self._steps, strict=True):
            if kind is STR:
                if type(value) is not str:
                    return pack_value(self.as_dict(values))
                if value:
                    raw = value.encode("utf-8")
                    size = len(raw)
                    buf += _PUT_U32(size)
                    buf += raw
                    if size & 3:
                        buf += _PAD[: -size & 3]
                else:
                    buf += _EMPTY
            elif kind is INT:
                if type(value) is not int:
                    return pack_value(self.as_dict(values))
                try:
                    buf += _PUT_I64(value)
                except struct.error:
                    return pack_value(self.as_dict(values))
            elif kind is ANY:
                if value is None:
                    buf += _VOID
                else:
                    _pack(buf, value, 1)
            elif kind is BOOL:
                if value is True:
                    buf += _TRUE
                elif value is False:
                    buf += _FALSE
                else:
                    return pack_value(self.as_dict(values))
            elif kind is OPAQUE:
                if type(value) is not bytes:
                    return pack_value(self.as_dict(values))
                if value:
                    size = len(value)
                    buf += _PUT_U32(size)
                    buf += value
                    if size & 3:
                        buf += _PAD[: -size & 3]
                else:
                    buf += _EMPTY
            else:  # INTS
                if type(value) not in (list, tuple) or not value:
                    return pack_value(self.as_dict(values))
                for item in value:
                    if type(item) is not int:
                        return pack_value(self.as_dict(values))
                count = len(value)
                try:
                    buf += struct.pack(f">II{count}q", count, 8 * count, *value)
                except struct.error:
                    return pack_value(self.as_dict(values))
            buf += run
        return bytes(buf)

    def unpack(self, data) -> list | None:
        """Every field in declared order, or ``None`` for bytes that are not
        this message as the plan lays it out (``unpack_value`` reads them)."""
        view = memoryview(data)
        pos = self._head_len
        if view[:pos] != self._head:
            return None
        size = view.nbytes
        fields = self._blank[:]
        try:
            for kind, slot, run, run_size in self._steps:
                if kind is STR or kind is OPAQUE:
                    # a length past the end leaves pos past it: the run
                    # compare or the size check below refuses it
                    length = _U32(view, pos)[0]
                    pos += 4
                    end = pos + length
                    if kind is STR:
                        fields[slot] = str(view[pos:end], "utf-8")
                    else:
                        fields[slot] = bytes(view[pos:end])
                    pos = end + (-length & 3)
                elif kind is INT:
                    fields[slot] = _I64(view, pos)[0]
                    pos += 8
                elif kind is ANY:
                    if view[pos:pos + 4] == _VOID:
                        pos += 4  # None, fields[slot] already
                    else:
                        fields[slot], pos = _walk(view, pos, size, 1)
                elif kind is BOOL:
                    fields[slot] = _I32(view, pos)[0] != 0
                    pos += 4
                else:  # INTS
                    count, nbytes = _COUNTS(view, pos)
                    pos += 8
                    end = pos + nbytes
                    if nbytes != 8 * count or end > size:  # before sizing a Struct
                        return None
                    fields[slot] = list(struct.unpack_from(f">{count}q", view, pos))
                    pos = end
                if view[pos:pos + run_size] != run:
                    return None
                pos += run_size
        except _DECODE_ERRORS:
            return None
        return fields if pos == size else None

    def decode(self, data) -> Any:
        """The message as ``unpack_value`` reads it, an INTS field as a list."""
        fields = self.unpack(data)
        return unpack_value(data) if fields is None else dict(zip(self.keys, fields))


class Table:
    """Plans told apart by the string constant their first field carries
    (a request's op), all under the same first key."""

    __slots__ = ("_plans", "_at")

    def __init__(self, plans: Iterable[Plan]):
        self._plans: dict[bytes, Plan] = {}
        keys = set()
        for plan in plans:
            lead = plan._blank[0]
            if not isinstance(lead, str):
                raise TypeError(f"a table's plans lead with a str constant, not {lead!r}")
            keys.add(plan.keys[0])
            self._plans[plan._head[: 8 + len(_key(plan.keys[0])) + len(_key(lead)) + 4]] = plan
        if len(keys) > 1:
            raise TypeError(f"a table's plans lead with one key, not {sorted(keys)}")
        # the offset of the lead string's length: dict head, key, tag
        self._at = 8 + len(_key(keys.pop())) + 4 if keys else 0

    def decode(self, data) -> Any:
        """What the plan whose lead *data* carries decodes, else ``unpack_value``'s value."""
        view = memoryview(data)
        try:
            length = _U32(view, self._at)[0]
        except struct.error:
            return unpack_value(data)
        plan = self._plans.get(bytes(view[: self._at + 4 + length + (-length & 3)]))
        return unpack_value(data) if plan is None else plan.decode(data)

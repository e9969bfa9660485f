"""XDR (RFC 1014 subset) encoder/decoder with numpy fast paths.

Section 5 of the paper proposes an *XDR binding* "capable of delivering
numerical data on direct socket level connections", relying on "the
capability of Java I/O streams to encode numeric data in XDR format" instead
of constructing an XML document.  This module is the Python equivalent: a
binary codec whose hot path for numeric arrays is a single big-endian numpy
buffer copy, not a per-element loop (per the HPC guide: vectorize the hot
loop, keep a pure-Python reference implementation for testing).

Wire format notes
-----------------
* All primitives are 4-byte aligned, big-endian, as RFC 1014 specifies.
* Strings are UTF-8 ``opaque`` with a length prefix, padded to 4 bytes.
* On top of raw XDR primitives we define a small *tagged value* layer
  (:func:`pack_value` / :func:`unpack_value`) so RPC arguments of mixed
  types can round-trip: each value is prefixed by a one-int type tag.
  Homogeneous numeric arrays (python lists of float/int or numpy arrays)
  take the vectorised path and are tagged with their dtype.
"""

from __future__ import annotations

import math
import struct
from typing import Any

import numpy as np

from repro.util.errors import EncodingError

__all__ = [
    "XdrEncoder",
    "XdrDecoder",
    "pack_value",
    "unpack_value",
    "pack_call",
    "make_call_prefix",
    "pack_call_from_prefix",
    "unpack_call",
    "pack_reply",
    "unpack_reply",
]

_PAD = b"\x00\x00\x00"

# Type tags for the tagged-value layer.
_TAG_VOID = 0
_TAG_BOOL = 1
_TAG_INT = 2  # int64 (hyper)
_TAG_DOUBLE = 3
_TAG_STRING = 4
_TAG_OPAQUE = 5
_TAG_LIST = 6  # heterogeneous sequence of tagged values
_TAG_DICT = 7  # string-keyed mapping of tagged values
_TAG_NDARRAY = 8  # homogeneous numeric array (numpy)
_TAG_FLOAT32 = 9

#: dtypes the array fast path supports, with stable wire codes.
_DTYPE_CODES: dict[str, int] = {
    "int32": 1,
    "int64": 2,
    "float32": 3,
    "float64": 4,
    "uint32": 5,
    "uint64": 6,
    "int8": 7,
    "uint8": 8,
    "int16": 9,
    "uint16": 10,
    "complex64": 11,
    "complex128": 12,
}
_CODE_DTYPES = {code: np.dtype(name) for name, code in _DTYPE_CODES.items()}
# dtype objects hash by identity-ish semantics; caching by dtype skips the
# (surprisingly costly) ``dtype.name`` property on the per-array hot path
_DTYPE_CODE_CACHE: dict[np.dtype, int] = {}


class XdrEncoder:
    """Streaming XDR writer over a growable buffer."""

    def __init__(self) -> None:
        self._buf = bytearray()

    def getvalue(self) -> bytes:
        """The bytes encoded so far (a copy; see :meth:`view`)."""
        return bytes(self._buf)

    def view(self) -> memoryview:
        """Zero-copy view of the encoded bytes.

        Valid until the next ``pack_*`` call mutates the buffer — hand it
        to a transport (which only reads it) rather than storing it.
        """
        return memoryview(self._buf)

    def __len__(self) -> int:
        return len(self._buf)

    # -- RFC 1014 primitives ------------------------------------------------

    def pack_int(self, value: int) -> None:
        """Signed 32-bit integer."""
        try:
            self._buf += struct.pack(">i", value)
        except struct.error as exc:
            raise EncodingError(f"int32 out of range: {value}") from exc

    def pack_uint(self, value: int) -> None:
        """Unsigned 32-bit integer."""
        try:
            self._buf += struct.pack(">I", value)
        except struct.error as exc:
            raise EncodingError(f"uint32 out of range: {value}") from exc

    def pack_hyper(self, value: int) -> None:
        """Signed 64-bit integer."""
        try:
            self._buf += struct.pack(">q", value)
        except struct.error as exc:
            raise EncodingError(f"int64 out of range: {value}") from exc

    def pack_bool(self, value: bool) -> None:
        self.pack_int(1 if value else 0)

    def pack_float(self, value: float) -> None:
        """IEEE-754 single precision."""
        self._buf += struct.pack(">f", value)

    def pack_double(self, value: float) -> None:
        """IEEE-754 double precision."""
        self._buf += struct.pack(">d", value)

    def pack_opaque(self, data: bytes) -> None:
        """Variable-length opaque: uint32 length, bytes, pad to 4."""
        self.pack_uint(len(data))
        self._buf += data
        pad = (4 - len(data) % 4) % 4
        if pad:
            self._buf += _PAD[:pad]

    def pack_string(self, text: str) -> None:
        self.pack_opaque(text.encode("utf-8"))

    def pack_double_array(self, values) -> None:
        """Vectorised variable-length array of doubles (the paper's case)."""
        array = np.ascontiguousarray(values, dtype=">f8")
        self.pack_uint(array.size)
        self._buf += array.tobytes()

    def pack_ndarray(self, array: np.ndarray) -> None:
        """Homogeneous numeric array with dtype and shape on the wire.

        Layout: uint32 dtype-code, uint32 ndim, ndim × uint32 dims, raw
        big-endian buffer (no padding needed — all supported itemsizes keep
        4-byte alignment except [u]int8/16, which we pad like opaque).
        """
        _pack_ndarray(self._buf, np.asarray(array))


class XdrDecoder:
    """Streaming XDR reader over a bytes-like buffer."""

    def __init__(self, data: bytes):
        self._data = memoryview(data)
        self._pos = 0

    @property
    def position(self) -> int:
        return self._pos

    def remaining(self) -> int:
        return len(self._data) - self._pos

    def done(self) -> bool:
        """True when the whole buffer was consumed."""
        return self._pos == len(self._data)

    def _take(self, count: int) -> memoryview:
        if self._pos + count > len(self._data):
            raise _underflow(count, self._pos, len(self._data))
        view = self._data[self._pos : self._pos + count]
        self._pos += count
        return view

    def unpack_int(self) -> int:
        return struct.unpack(">i", self._take(4))[0]

    def unpack_uint(self) -> int:
        return struct.unpack(">I", self._take(4))[0]

    def unpack_hyper(self) -> int:
        return struct.unpack(">q", self._take(8))[0]

    def unpack_bool(self) -> bool:
        return self.unpack_int() != 0

    def unpack_float(self) -> float:
        return struct.unpack(">f", self._take(4))[0]

    def unpack_double(self) -> float:
        return struct.unpack(">d", self._take(8))[0]

    def unpack_opaque_view(self) -> memoryview:
        """Zero-copy view of a variable-length opaque (shares the buffer)."""
        length = self.unpack_uint()
        data = self._take(length)
        pad = (4 - length % 4) % 4
        if pad:
            self._take(pad)
        return data

    def unpack_opaque(self) -> bytes:
        return bytes(self.unpack_opaque_view())

    def unpack_string(self) -> str:
        # decodes straight off the buffer view: no intermediate bytes() copy
        try:
            return str(self.unpack_opaque_view(), "utf-8")
        except UnicodeDecodeError as exc:
            raise _bad_utf8(exc) from exc

    def unpack_double_array(self) -> np.ndarray:
        count = self.unpack_uint()
        raw = self._take(count * 8)
        return np.frombuffer(raw, dtype=">f8").astype(np.float64, copy=True)

    def unpack_ndarray(self) -> np.ndarray:
        array, self._pos = _read_ndarray(self._data, self._pos, len(self._data))
        return array


# -- tagged value layer -------------------------------------------------------
#
# One kernel under every tagged message.  The encoder appends fused
# tag+value packs to one bytearray; the decoder reads at a running integer
# offset through precompiled ``Struct.unpack_from`` on one memoryview.  No
# decoded value aliases the input buffer: ``str`` and ``bytes`` are built
# from the slice and an array body is copied out with ``astype(copy=True)``.

#: Containers (lists, dicts) a value may nest inside one another.  Past it
#: both directions raise :class:`EncodingError`, so a frame of nested list
#: tags, or a cyclic list, cannot end in ``RecursionError``.
_MAX_DEPTH = 100

_U32 = struct.Struct(">I").unpack_from
_I32 = struct.Struct(">i").unpack_from
_I64 = struct.Struct(">q").unpack_from
_F32 = struct.Struct(">f").unpack_from
_F64 = struct.Struct(">d").unpack_from
#: ``_UINTS[n]`` packs or reads n uint32s at once: an array's header words.
#: numpy's rank limit (64) plus dtype code, rank and byte count bounds n.
_UINTS = tuple(struct.Struct(f">{n}I") for n in range(68))

_PUT_U32 = struct.Struct(">I").pack
_PUT_TAG_U32 = struct.Struct(">iI").pack
_PUT_TAG_I64 = struct.Struct(">iq").pack
_PUT_TAG_F64 = struct.Struct(">id").pack
_VOID = struct.pack(">i", _TAG_VOID)
_FALSE = struct.pack(">ii", _TAG_BOOL, 0)
_TRUE = struct.pack(">ii", _TAG_BOOL, 1)
_NDARRAY = struct.pack(">i", _TAG_NDARRAY)

_NONE = type(None)
#: exact type -> the branch of :func:`_pack` that encodes it
_KINDS = {
    _NONE: _NONE,
    bool: bool,
    int: int,
    float: float,
    str: str,
    bytes: bytes,
    bytearray: bytes,
    memoryview: bytes,
    np.ndarray: np.ndarray,
    list: list,
    tuple: list,
    dict: dict,
}


def _kind_of(value: Any) -> type:
    """The branch for a subclass or a numpy scalar: the first base that fits."""
    if isinstance(value, bool):
        return bool
    if isinstance(value, int):
        return int
    if isinstance(value, float):
        return float
    if isinstance(value, str):
        return str
    if isinstance(value, (bytes, bytearray, memoryview)):
        return bytes
    if isinstance(value, (np.ndarray, np.generic)):
        return np.ndarray
    if isinstance(value, (list, tuple)):
        return list
    if isinstance(value, dict):
        return dict
    raise EncodingError(f"cannot XDR-encode {type(value).__name__}")


def _too_deep() -> EncodingError:
    return EncodingError(f"XDR value nests more than {_MAX_DEPTH} containers deep")


def _pack(buf: bytearray, value: Any, depth: int) -> None:
    """Append the tagged encoding of *value* to *buf*."""
    kind = _KINDS.get(type(value)) or _kind_of(value)
    if kind is str:
        raw = value.encode("utf-8")
        size = len(raw)
        buf += _PUT_TAG_U32(_TAG_STRING, size)
        buf += raw
        if size & 3:
            buf += _PAD[: -size & 3]
    elif kind is int:
        try:
            buf += _PUT_TAG_I64(_TAG_INT, value)
        except struct.error as exc:
            raise EncodingError(f"int64 out of range: {value}") from exc
    elif kind is dict:
        if depth >= _MAX_DEPTH:
            raise _too_deep()
        buf += _PUT_TAG_U32(_TAG_DICT, len(value))
        depth += 1
        for key, item in value.items():
            if not isinstance(key, str):
                raise EncodingError(f"XDR dict keys must be str, got {type(key).__name__}")
            raw = key.encode("utf-8")
            size = len(raw)
            buf += _PUT_U32(size)
            buf += raw
            if size & 3:
                buf += _PAD[: -size & 3]
            _pack(buf, item, depth)
    elif kind is float:
        buf += _PUT_TAG_F64(_TAG_DOUBLE, value)
    elif kind is bool:
        buf += _TRUE if value else _FALSE
    elif kind is _NONE:
        buf += _VOID
    elif kind is list:
        array = _try_as_numeric_array(value)
        if array is not None:
            buf += _NDARRAY
            _pack_ndarray(buf, array)
        else:
            if depth >= _MAX_DEPTH:
                raise _too_deep()
            buf += _PUT_TAG_U32(_TAG_LIST, len(value))
            depth += 1
            for item in value:
                _pack(buf, item, depth)
    elif kind is bytes:
        raw = bytes(value)  # a memoryview's len() counts items, not bytes
        size = len(raw)
        buf += _PUT_TAG_U32(_TAG_OPAQUE, size)
        buf += raw
        if size & 3:
            buf += _PAD[: -size & 3]
    else:
        # an array, or a numpy scalar as a 0-d array to preserve its dtype
        buf += _NDARRAY
        _pack_ndarray(buf, np.asarray(value))


def _try_as_numeric_array(seq) -> np.ndarray | None:
    """Lists of uniform numbers go down the vectorised array path."""
    if not seq:
        return None
    first = seq[0]  # decides which uniform kind, if any, is still possible
    if isinstance(first, float):
        if all(isinstance(v, float) for v in seq):
            return np.asarray(seq, dtype=np.float64)
    elif isinstance(first, int) and not isinstance(first, bool):
        if all(isinstance(v, int) and not isinstance(v, bool) for v in seq):
            try:
                return np.asarray(seq, dtype=np.int64)
            except OverflowError:
                return None
    return None


def _pack_ndarray(buf: bytearray, array: np.ndarray) -> None:
    """Append dtype code, rank, dims, byte count, big-endian body and pad."""
    dtype = array.dtype
    code = _DTYPE_CODE_CACHE.get(dtype)
    if code is None:
        name = dtype.name
        if name not in _DTYPE_CODES:
            raise EncodingError(f"unsupported array dtype: {dtype}")
        code = _DTYPE_CODE_CACHE[dtype] = _DTYPE_CODES[name]
    nbytes = array.nbytes
    try:
        buf += _UINTS[array.ndim + 3].pack(code, array.ndim, *array.shape, nbytes)
    except struct.error as exc:
        wide = next(n for n in (*array.shape, nbytes) if n > 0xFFFFFFFF)
        raise EncodingError(f"uint32 out of range: {wide}") from exc
    buf += np.ascontiguousarray(array, dtype=dtype.newbyteorder(">")).tobytes()
    if nbytes & 3:
        buf += _PAD[: -nbytes & 3]


def _underflow(need: int, pos: int, size: int) -> EncodingError:
    return EncodingError(
        f"XDR underflow: need {need} bytes at offset {pos}, have {size - pos}"
    )


def _bad_utf8(exc: UnicodeDecodeError) -> EncodingError:
    return EncodingError(f"invalid UTF-8 in XDR string: {exc}")


def _opaque_span(view: memoryview, pos: int, size: int) -> tuple[int, int, int]:
    """Bounds of the opaque at *pos*: body start, body end, offset after its pad."""
    if pos + 4 > size:
        raise _underflow(4, pos, size)
    length = _U32(view, pos)[0]
    pos += 4
    end = pos + length
    if end > size:
        raise _underflow(length, pos, size)
    after = end + (-length & 3)
    if after > size:  # pad bytes must be present
        raise _underflow(-length & 3, end, size)
    return pos, end, after


def _read_string(view: memoryview, pos: int, size: int) -> tuple[str, int]:
    start, end, pos = _opaque_span(view, pos, size)
    try:
        return str(view[start:end], "utf-8"), pos
    except UnicodeDecodeError as exc:
        raise _bad_utf8(exc) from exc


def _read_ndarray(view: memoryview, pos: int, size: int) -> tuple[np.ndarray, int]:
    """The array at *pos* (after its tag), copied out, and the offset after it."""
    if pos + 4 > size:
        raise _underflow(4, pos, size)
    code = _U32(view, pos)[0]
    dtype = _CODE_DTYPES.get(code)
    if dtype is None:
        raise EncodingError(f"unknown array dtype code: {code}")
    pos += 4
    if pos + 4 > size:
        raise _underflow(4, pos, size)
    ndim = _U32(view, pos)[0]
    if ndim > 32:
        raise EncodingError(f"implausible array rank: {ndim}")
    pos += 4
    body = pos + 4 * ndim + 4
    if body > size:
        pos += (size - pos) // 4 * 4  # the first header word that is not all there
        raise _underflow(4, pos, size)
    *shape, nbytes = _UINTS[ndim + 1].unpack_from(view, pos)
    end = body + nbytes
    if end > size:
        raise _underflow(nbytes, body, size)
    after = end + (-nbytes & 3)
    if after > size:
        raise _underflow(-nbytes & 3, end, size)
    try:
        array = np.frombuffer(view[body:end], dtype=dtype.newbyteorder(">"))
        if array.size != math.prod(shape):
            if ndim == 0:
                raise EncodingError("scalar array payload has wrong size")
            raise EncodingError(
                f"array payload size {array.size} != shape product {math.prod(shape)}"
            )
        return array.astype(dtype, copy=True).reshape(shape), after
    except ValueError as exc:
        # a byte count that is not whole items, or a zero-size shape whose
        # other dims overflow numpy
        raise EncodingError(f"malformed XDR array: {exc}") from exc


def _walk(view: memoryview, pos: int, size: int, depth: int) -> tuple[Any, int]:
    """Decode the tagged value at *pos*; returns it and the offset after it."""
    if pos + 4 > size:
        raise _underflow(4, pos, size)
    tag = _I32(view, pos)[0]
    pos += 4
    if tag == _TAG_STRING:
        # _read_string spelled out here and for dict keys below: strings and
        # keys are most of a control-plane message, a call each is 15 % of it
        if pos + 4 > size:
            raise _underflow(4, pos, size)
        length = _U32(view, pos)[0]
        pos += 4
        end = pos + length
        if end > size:
            raise _underflow(length, pos, size)
        after = end + (-length & 3)
        if after > size:
            raise _underflow(-length & 3, end, size)
        try:
            return str(view[pos:end], "utf-8"), after
        except UnicodeDecodeError as exc:
            raise _bad_utf8(exc) from exc
    if tag == _TAG_INT:
        if pos + 8 > size:
            raise _underflow(8, pos, size)
        return _I64(view, pos)[0], pos + 8
    if tag == _TAG_DICT:
        if depth >= _MAX_DEPTH:
            raise _too_deep()
        if pos + 4 > size:
            raise _underflow(4, pos, size)
        count = _U32(view, pos)[0]
        pos += 4
        depth += 1
        mapping = {}
        for _ in range(count):
            if pos + 4 > size:
                raise _underflow(4, pos, size)
            length = _U32(view, pos)[0]
            pos += 4
            end = pos + length
            if end > size:
                raise _underflow(length, pos, size)
            after = end + (-length & 3)
            if after > size:
                raise _underflow(-length & 3, end, size)
            try:
                key = str(view[pos:end], "utf-8")
            except UnicodeDecodeError as exc:
                raise _bad_utf8(exc) from exc
            mapping[key], pos = _walk(view, after, size, depth)
        return mapping, pos
    if tag == _TAG_LIST:
        if depth >= _MAX_DEPTH:
            raise _too_deep()
        if pos + 4 > size:
            raise _underflow(4, pos, size)
        count = _U32(view, pos)[0]
        pos += 4
        depth += 1
        items = []
        for _ in range(count):
            item, pos = _walk(view, pos, size, depth)
            items.append(item)
        return items, pos
    if tag == _TAG_VOID:
        return None, pos
    if tag == _TAG_BOOL:
        if pos + 4 > size:
            raise _underflow(4, pos, size)
        return _I32(view, pos)[0] != 0, pos + 4
    if tag == _TAG_DOUBLE:
        if pos + 8 > size:
            raise _underflow(8, pos, size)
        return _F64(view, pos)[0], pos + 8
    if tag == _TAG_OPAQUE:
        start, end, pos = _opaque_span(view, pos, size)
        return bytes(view[start:end]), pos
    if tag == _TAG_NDARRAY:
        return _read_ndarray(view, pos, size)
    if tag == _TAG_FLOAT32:
        if pos + 4 > size:
            raise _underflow(4, pos, size)
        return _F32(view, pos)[0], pos + 4
    raise EncodingError(f"unknown XDR value tag: {tag}")


def pack_value(value: Any) -> bytes:
    """Encode one tagged value to bytes."""
    buf = bytearray()
    _pack(buf, value, 0)
    return bytes(buf)


def unpack_value(data: bytes) -> Any:
    """Decode one tagged value; the buffer must be fully consumed."""
    view = memoryview(data)
    size = len(view)
    value, pos = _walk(view, 0, size, 0)
    if pos != size:
        raise EncodingError(f"{size - pos} trailing bytes after XDR value")
    return value


# -- RPC message layer ----------------------------------------------------------

_CALL = 0
_REPLY_OK = 1
_REPLY_FAULT = 2
_REPLY_OK_HEAD = struct.pack(">i", _REPLY_OK)


def pack_call(target: str, operation: str, args: tuple | list) -> bytes:
    """Encode an invocation: target port/instance, operation name, arguments."""
    return bytes(pack_call_from_prefix(make_call_prefix(target, operation), args))


def make_call_prefix(target: str, operation: str) -> bytes:
    """Pre-encode the constant head of a call message.

    The (kind, target, operation) triple is identical for every invocation
    of one operation through one stub; encoding it once and reusing it via
    :func:`pack_call_from_prefix` is the cached *marshalling plan* the stub
    layer keeps per operation.
    """
    enc = XdrEncoder()
    enc.pack_int(_CALL)
    enc.pack_string(target)
    enc.pack_string(operation)
    return enc.getvalue()


def pack_call_from_prefix(prefix: bytes, args: tuple | list) -> memoryview:
    """Encode a call from a :func:`make_call_prefix` head plus *args*.

    Returns a zero-copy view of the encoded buffer (safe to hand to a
    transport, which only reads it; every retry resends the same bytes).
    """
    buf = bytearray(prefix)
    buf += _PUT_U32(len(args))
    for arg in args:
        _pack(buf, arg, 0)
    return memoryview(buf)


def unpack_call(data: bytes) -> tuple[str, str, list]:
    """Decode an invocation produced by :func:`pack_call`."""
    view = memoryview(data)
    size = len(view)
    if size < 4:
        raise _underflow(4, 0, size)
    kind = _I32(view, 0)[0]
    if kind != _CALL:
        raise EncodingError(f"expected XDR call message, got kind {kind}")
    # the target and operation strings in one pass: _read_string's checks,
    # in its order, without its two calls per string
    try:
        if 8 > size:
            raise _underflow(4, 4, size)
        length = _U32(view, 4)[0]
        end = 8 + length
        if end > size:
            raise _underflow(length, 8, size)
        pos = end + (-length & 3)
        if pos > size:
            raise _underflow(-length & 3, end, size)
        target = str(view[8:end], "utf-8")
        if pos + 4 > size:
            raise _underflow(4, pos, size)
        length = _U32(view, pos)[0]
        start = pos + 4
        end = start + length
        if end > size:
            raise _underflow(length, start, size)
        pos = end + (-length & 3)
        if pos > size:
            raise _underflow(-length & 3, end, size)
        operation = str(view[start:end], "utf-8")
    except UnicodeDecodeError as exc:
        raise _bad_utf8(exc) from exc
    if pos + 4 > size:
        raise _underflow(4, pos, size)
    argc = _U32(view, pos)[0]
    pos += 4
    args = []
    for _ in range(argc):
        arg, pos = _walk(view, pos, size, 0)
        args.append(arg)
    if pos != size:
        raise EncodingError("trailing bytes after XDR call")
    return target, operation, args


def pack_reply(result: Any = None, fault: str | None = None) -> bytes:
    """Encode a reply: either a result value or a fault string."""
    if fault is not None:
        enc = XdrEncoder()
        enc.pack_int(_REPLY_FAULT)
        enc.pack_string(fault)
        return enc.getvalue()
    buf = bytearray(_REPLY_OK_HEAD)
    _pack(buf, result, 0)
    return bytes(buf)


def unpack_reply(data: bytes) -> Any:
    """Decode a reply; raises :class:`EncodingError` wrapping remote faults."""
    view = memoryview(data)
    size = len(view)
    if size < 4:
        raise _underflow(4, 0, size)
    kind = _I32(view, 0)[0]
    if kind == _REPLY_FAULT:
        raise EncodingError(f"remote fault: {_read_string(view, 4, size)[0]}")
    if kind != _REPLY_OK:
        raise EncodingError(f"expected XDR reply message, got kind {kind}")
    value, pos = _walk(view, 4, size, 0)
    if pos != size:
        raise EncodingError("trailing bytes after XDR reply")
    return value

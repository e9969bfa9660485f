"""The per-primitive tagged walk the offset kernel replaced, kept as its oracle.

Everything here goes through the public :class:`XdrEncoder` /
:class:`XdrDecoder` primitive methods (``pack_int``, ``unpack_uint``,
``unpack_opaque_view``, ...), one call per wire field, so it shares no code
with ``repro.encoding.xdr``'s ``_pack`` / ``_walk``.  That includes arrays:
the two ``*_ndarray`` functions below spell the layout out field by field
instead of calling the encoder's own ``pack_ndarray``, which now sits on the
kernel.  ``tests/encoding/test_xdr_kernel.py`` holds the kernel to this walk
byte for byte.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from repro.encoding.xdr import _CODE_DTYPES, _DTYPE_CODES, XdrDecoder, XdrEncoder
from repro.util.errors import EncodingError

TAG_VOID, TAG_BOOL, TAG_INT, TAG_DOUBLE, TAG_STRING = 0, 1, 2, 3, 4
TAG_OPAQUE, TAG_LIST, TAG_DICT, TAG_NDARRAY, TAG_FLOAT32 = 5, 6, 7, 8, 9
CALL, REPLY_OK, REPLY_FAULT = 0, 1, 2


def pack_ndarray(enc: XdrEncoder, array: np.ndarray) -> None:
    array = np.asarray(array)
    if array.dtype.name not in _DTYPE_CODES:
        raise EncodingError(f"unsupported array dtype: {array.dtype}")
    enc.pack_uint(_DTYPE_CODES[array.dtype.name])
    enc.pack_uint(array.ndim)
    for dim in array.shape:
        enc.pack_uint(dim)
    enc.pack_opaque(np.ascontiguousarray(array, dtype=array.dtype.newbyteorder(">")).tobytes())


def unpack_ndarray(dec: XdrDecoder) -> np.ndarray:
    code = dec.unpack_uint()
    if code not in _CODE_DTYPES:
        raise EncodingError(f"unknown array dtype code: {code}")
    dtype = _CODE_DTYPES[code]
    ndim = dec.unpack_uint()
    if ndim > 32:
        raise EncodingError(f"implausible array rank: {ndim}")
    shape = tuple(dec.unpack_uint() for _ in range(ndim))
    raw = dec.unpack_opaque_view()
    try:
        array = np.frombuffer(raw, dtype=dtype.newbyteorder(">"))
        expected = math.prod(shape) if shape else 1
        if ndim == 0 and array.size != 1:
            raise EncodingError("scalar array payload has wrong size")
        if array.size != expected:
            raise EncodingError(f"array payload size {array.size} != shape product {expected}")
        return array.astype(dtype, copy=True).reshape(shape)
    except ValueError as exc:
        raise EncodingError(f"malformed XDR array: {exc}") from exc


def pack_tagged(enc: XdrEncoder, value: Any) -> None:
    if value is None:
        enc.pack_int(TAG_VOID)
    elif isinstance(value, bool):
        enc.pack_int(TAG_BOOL)
        enc.pack_bool(value)
    elif isinstance(value, int):
        enc.pack_int(TAG_INT)
        enc.pack_hyper(value)
    elif isinstance(value, float):
        enc.pack_int(TAG_DOUBLE)
        enc.pack_double(value)
    elif isinstance(value, str):
        enc.pack_int(TAG_STRING)
        enc.pack_string(value)
    elif isinstance(value, (bytes, bytearray, memoryview)):
        enc.pack_int(TAG_OPAQUE)
        enc.pack_opaque(bytes(value))
    elif isinstance(value, np.ndarray):
        enc.pack_int(TAG_NDARRAY)
        pack_ndarray(enc, value)
    elif isinstance(value, np.generic):
        enc.pack_int(TAG_NDARRAY)
        pack_ndarray(enc, np.asarray(value))
    elif isinstance(value, (list, tuple)):
        as_array = _try_as_numeric_array(value)
        if as_array is not None:
            enc.pack_int(TAG_NDARRAY)
            pack_ndarray(enc, as_array)
        else:
            enc.pack_int(TAG_LIST)
            enc.pack_uint(len(value))
            for item in value:
                pack_tagged(enc, item)
    elif isinstance(value, dict):
        enc.pack_int(TAG_DICT)
        enc.pack_uint(len(value))
        for key, item in value.items():
            if not isinstance(key, str):
                raise EncodingError(f"XDR dict keys must be str, got {type(key).__name__}")
            enc.pack_string(key)
            pack_tagged(enc, item)
    else:
        raise EncodingError(f"cannot XDR-encode {type(value).__name__}")


def _try_as_numeric_array(seq) -> np.ndarray | None:
    if not seq:
        return None
    if all(isinstance(v, float) for v in seq):
        return np.asarray(seq, dtype=np.float64)
    if all(isinstance(v, int) and not isinstance(v, bool) for v in seq):
        try:
            return np.asarray(seq, dtype=np.int64)
        except OverflowError:
            return None
    return None


def unpack_tagged(dec: XdrDecoder) -> Any:
    tag = dec.unpack_int()
    if tag == TAG_VOID:
        return None
    if tag == TAG_BOOL:
        return dec.unpack_bool()
    if tag == TAG_INT:
        return dec.unpack_hyper()
    if tag == TAG_DOUBLE:
        return dec.unpack_double()
    if tag == TAG_FLOAT32:
        return dec.unpack_float()
    if tag == TAG_STRING:
        return dec.unpack_string()
    if tag == TAG_OPAQUE:
        return dec.unpack_opaque()
    if tag == TAG_NDARRAY:
        return unpack_ndarray(dec)
    if tag == TAG_LIST:
        count = dec.unpack_uint()
        return [unpack_tagged(dec) for _ in range(count)]
    if tag == TAG_DICT:
        count = dec.unpack_uint()
        return {dec.unpack_string(): unpack_tagged(dec) for _ in range(count)}
    raise EncodingError(f"unknown XDR value tag: {tag}")


def pack_value(value: Any) -> bytes:
    enc = XdrEncoder()
    pack_tagged(enc, value)
    return enc.getvalue()


def unpack_value(data) -> Any:
    dec = XdrDecoder(data)
    value = unpack_tagged(dec)
    if not dec.done():
        raise EncodingError(f"{dec.remaining()} trailing bytes after XDR value")
    return value


def pack_call(target: str, operation: str, args) -> bytes:
    enc = XdrEncoder()
    enc.pack_int(CALL)
    enc.pack_string(target)
    enc.pack_string(operation)
    enc.pack_uint(len(args))
    for arg in args:
        pack_tagged(enc, arg)
    return enc.getvalue()


def unpack_call(data) -> tuple[str, str, list]:
    dec = XdrDecoder(data)
    kind = dec.unpack_int()
    if kind != CALL:
        raise EncodingError(f"expected XDR call message, got kind {kind}")
    target = dec.unpack_string()
    operation = dec.unpack_string()
    argc = dec.unpack_uint()
    args = [unpack_tagged(dec) for _ in range(argc)]
    if not dec.done():
        raise EncodingError("trailing bytes after XDR call")
    return target, operation, args


def pack_reply(result: Any = None, fault: str | None = None) -> bytes:
    enc = XdrEncoder()
    if fault is not None:
        enc.pack_int(REPLY_FAULT)
        enc.pack_string(fault)
    else:
        enc.pack_int(REPLY_OK)
        pack_tagged(enc, result)
    return enc.getvalue()


def unpack_reply(data) -> Any:
    dec = XdrDecoder(data)
    kind = dec.unpack_int()
    if kind == REPLY_FAULT:
        raise EncodingError(f"remote fault: {dec.unpack_string()}")
    if kind != REPLY_OK:
        raise EncodingError(f"expected XDR reply message, got kind {kind}")
    value = unpack_tagged(dec)
    if not dec.done():
        raise EncodingError("trailing bytes after XDR reply")
    return value

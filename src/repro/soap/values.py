"""Python value ⇄ SOAP-encoded XML element conversion.

Implements SOAP 1.1 Section-5 style encoding with ``xsi:type`` annotations.
Two array modes are supported, matching the two costs the paper attributes
to XML messaging:

* ``items`` — every number becomes its own ``<item xsi:type="xsd:double">``
  element (text encoding cost: float → decimal string → float);
* ``base64`` — the array's big-endian bytes are base64-encoded into a single
  ``xsd:base64Binary`` text node ("the default BASE64 encoding adopted by
  SOAP for XSD data types", Section 5).

Both pay real CPU and wire overhead relative to XDR; the C1 benchmark
measures each.
"""

from __future__ import annotations

import base64
from typing import Any

import numpy as np

from repro.encoding.base64codec import (
    decode_array_base64,
    encode_array_base64,
    encode_array_base64_bytes,
)
from repro.util.errors import EncodingError, XmlError
from repro.xmlkit import NS_HARNESS, NS_SOAP_ENC, NS_XSD, NS_XSI, QName, XmlElement
from repro.xmlkit.serialize import escape, quoteattr

__all__ = [
    "value_to_element",
    "element_to_value",
    "encode_value_into",
    "ARRAY_MODES",
    "NSF_XSI",
    "NSF_HARNESS",
    "NSF_SOAPENC",
]

ARRAY_MODES = ("base64", "items")

#: Namespace-usage flags returned by :func:`encode_value_into`; the envelope
#: template layer maps the union over all arguments to a cached xmlns block.
NSF_XSI = 1
NSF_HARNESS = 2
NSF_SOAPENC = 4

_XSI_TYPE = QName(NS_XSI, "type")
_H_DTYPE = QName(NS_HARNESS, "dtype")
_H_SHAPE = QName(NS_HARNESS, "shape")
_ENC_ARRAY_TYPE = QName(NS_SOAP_ENC, "arrayType")

_BOOL_WORDS = {"true": True, "1": True, "false": False, "0": False}

import re as _re

# Characters XML 1.0 cannot represent at all (even escaped): control chars
# other than tab/newline/carriage-return, and surrogates.
_XML_INVALID = _re.compile(
    "[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff￾￿]"
)


def _check_xml_text(text: str, where: str) -> str:
    """SOAP is XML: strings with XML-unrepresentable characters must be
    rejected at encode time rather than producing a malformed envelope
    (binary payloads belong in xsd:base64Binary)."""
    match = _XML_INVALID.search(text)
    if match is not None:
        raise EncodingError(
            f"{where} contains character {match.group()!r} which XML 1.0 "
            "cannot represent; use bytes (base64Binary) for binary data"
        )
    return text


def value_to_element(name: str, value: Any, array_mode: str = "base64") -> XmlElement:
    """Encode *value* as an element called *name* with an ``xsi:type``."""
    if array_mode not in ARRAY_MODES:
        raise EncodingError(f"unknown array mode {array_mode!r}")
    element = XmlElement(QName("", name))
    _fill(element, value, array_mode)
    return element


def _fill(element: XmlElement, value: Any, array_mode: str) -> None:
    if value is None:
        element.set(QName(NS_XSI, "nil"), "true")
    elif isinstance(value, bool):
        element.set(_XSI_TYPE, "xsd:boolean")
        element.text = "true" if value else "false"
    elif isinstance(value, int):
        element.set(_XSI_TYPE, "xsd:long")
        element.text = str(value)
    elif isinstance(value, float):
        # repr(float) round-trips float64 exactly; plain float() first so
        # numpy scalars (float subclasses) don't leak their numpy repr
        element.set(_XSI_TYPE, "xsd:double")
        element.text = repr(float(value))
    elif isinstance(value, str):
        element.set(_XSI_TYPE, "xsd:string")
        element.text = _check_xml_text(value, "xsd:string value")
    elif isinstance(value, (bytes, bytearray)):
        element.set(_XSI_TYPE, "xsd:base64Binary")
        import base64 as _b64

        element.text = _b64.b64encode(bytes(value)).decode("ascii")
    elif isinstance(value, np.ndarray):
        _fill_ndarray(element, value, array_mode)
    elif isinstance(value, np.generic):
        _fill(element, value.item(), array_mode)
    elif isinstance(value, (list, tuple)):
        numeric = _as_numeric(value)
        if numeric is not None:
            _fill_ndarray(element, numeric, array_mode)
        else:
            element.set(_XSI_TYPE, "soapenc:Array")
            element.set(_ENC_ARRAY_TYPE, f"xsd:anyType[{len(value)}]")
            for item in value:
                child = element.element("item")
                _fill(child, item, array_mode)
    elif isinstance(value, dict):
        element.set(_XSI_TYPE, "harness:Struct")
        for key, item in value.items():
            if not isinstance(key, str):
                raise EncodingError("SOAP struct keys must be strings")
            child = element.element("entry", {"key": _check_xml_text(key, "struct key")})
            _fill(child, item, array_mode)
    else:
        raise EncodingError(f"cannot SOAP-encode {type(value).__name__}")


def _as_numeric(seq) -> np.ndarray | None:
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


def _fill_ndarray(element: XmlElement, array: np.ndarray, array_mode: str) -> None:
    array = np.asarray(array)
    shape = " ".join(str(d) for d in array.shape)
    if array_mode == "base64":
        element.set(_XSI_TYPE, "xsd:base64Binary")
        element.set(_H_DTYPE, array.dtype.name)
        element.set(_H_SHAPE, shape)
        element.text = encode_array_base64(array.ravel(), array.dtype.name)
        return
    # items mode: SOAP-ENC:Array of individually typed text elements
    flat = array.ravel()
    xsd_type = _xsd_scalar_type(array.dtype)
    element.set(_XSI_TYPE, "soapenc:Array")
    element.set(_ENC_ARRAY_TYPE, f"{xsd_type}[{flat.size}]")
    element.set(_H_DTYPE, array.dtype.name)
    element.set(_H_SHAPE, shape)
    if array.dtype.kind == "f":
        texts = [repr(float(v)) for v in flat]
    elif array.dtype.kind in "iu":
        texts = [str(int(v)) for v in flat]
    else:
        raise EncodingError(f"items mode cannot encode dtype {array.dtype}")
    for text in texts:
        element.element("item", {str(_XSI_TYPE.clark()): xsd_type}, text=text)


def _xsd_scalar_type(dtype: np.dtype) -> str:
    kind = dtype.kind
    if kind == "f":
        return "xsd:double" if dtype.itemsize == 8 else "xsd:float"
    if kind == "i":
        return "xsd:long" if dtype.itemsize == 8 else "xsd:int"
    if kind == "u":
        return "xsd:unsignedLong" if dtype.itemsize == 8 else "xsd:unsignedInt"
    raise EncodingError(f"no XSD scalar type for dtype {dtype}")


def element_to_value(element: XmlElement) -> Any:
    """Decode a SOAP-encoded element back into a Python value."""
    if element.get(QName(NS_XSI, "nil")) == "true" or element.get("nil") == "true":
        return None
    xsi_type = element.get(_XSI_TYPE) or element.get("type") or ""
    local = xsi_type.split(":", 1)[-1]
    dtype_attr = element.get(_H_DTYPE) or element.get("dtype")
    shape_attr = element.get(_H_SHAPE)
    shape = (
        tuple(int(d) for d in shape_attr.split()) if shape_attr is not None else None
    )

    if local == "boolean":
        word = element.text.strip().lower()
        if word not in _BOOL_WORDS:
            raise EncodingError(f"invalid xsd:boolean text: {element.text!r}")
        return _BOOL_WORDS[word]
    if local in ("int", "long", "short", "byte", "unsignedInt", "unsignedLong", "integer"):
        try:
            return int(element.text.strip())
        except ValueError as exc:
            raise EncodingError(f"invalid integer text: {element.text!r}") from exc
    if local in ("double", "float", "decimal"):
        try:
            return float(element.text.strip())
        except ValueError as exc:
            raise EncodingError(f"invalid float text: {element.text!r}") from exc
    if local == "string":
        return element.text
    if local == "base64Binary":
        if dtype_attr is not None:
            array = decode_array_base64(element.text.strip(), dtype_attr)
            if shape is not None:
                array = array.reshape(shape)
            return array
        import base64 as _b64

        try:
            return _b64.b64decode(element.text.strip().encode("ascii"), validate=True)
        except Exception as exc:
            raise EncodingError(f"invalid base64Binary: {exc}") from exc
    if local == "Array":
        items = element.find_all("item")
        if dtype_attr is not None:
            dtype = np.dtype(dtype_attr)
            if dtype.kind == "f":
                array = np.asarray([float(i.text) for i in items], dtype=dtype)
            else:
                array = np.asarray([int(i.text) for i in items], dtype=dtype)
            if shape is not None:
                array = array.reshape(shape)
            return array
        return [element_to_value(item) for item in items]
    if local == "Struct":
        out: dict[str, Any] = {}
        for entry in element.find_all("entry"):
            out[entry.require("key")] = element_to_value(entry)
        return out
    if not xsi_type:
        # Untyped: bare string content (lenient towards foreign SOAP stacks).
        return element.text
    raise EncodingError(f"unknown xsi:type {xsi_type!r}")


# -- streaming fast path -----------------------------------------------------------
#
# The tree path above (value_to_element / element_to_value) is the reference
# implementation; the functions below produce and consume byte-identical XML
# without materialising any XmlElement.  Encoding appends fragments straight
# to a caller-owned bytearray (base64 payloads never pass through ``str``);
# decoding consumes expat events via ValueFrame (see soap.envelope).

def encode_value_into(buf: bytearray, name: str, value: Any, array_mode: str, extra: str = "") -> int:
    """Append ``<name …>…</name>`` to *buf*; return the NSF_* flags used.

    *extra* is a pre-rendered attribute string spliced right after the tag
    name (the Struct path uses it for ``key=…``), matching the tree writer's
    attribute order.
    """
    if value is None:
        buf += f'<{name}{extra} xsi:nil="true"/>'.encode("utf-8")
        return NSF_XSI
    if isinstance(value, bool):
        word = "true" if value else "false"
        buf += f'<{name}{extra} xsi:type="xsd:boolean">{word}</{name}>'.encode("utf-8")
        return NSF_XSI
    if isinstance(value, int):
        buf += f'<{name}{extra} xsi:type="xsd:long">{value}</{name}>'.encode("utf-8")
        return NSF_XSI
    if isinstance(value, float):
        buf += f'<{name}{extra} xsi:type="xsd:double">{float(value)!r}</{name}>'.encode("utf-8")
        return NSF_XSI
    if isinstance(value, str):
        text = escape(_check_xml_text(value, "xsd:string value"))
        if text:
            buf += f'<{name}{extra} xsi:type="xsd:string">{text}</{name}>'.encode("utf-8")
        else:
            buf += f'<{name}{extra} xsi:type="xsd:string"/>'.encode("utf-8")
        return NSF_XSI
    if isinstance(value, (bytes, bytearray)):
        encoded = base64.b64encode(value)
        if encoded:
            buf += f'<{name}{extra} xsi:type="xsd:base64Binary">'.encode("utf-8")
            buf += encoded
            buf += f'</{name}>'.encode("utf-8")
        else:
            buf += f'<{name}{extra} xsi:type="xsd:base64Binary"/>'.encode("utf-8")
        return NSF_XSI
    if isinstance(value, np.ndarray):
        return _encode_ndarray_into(buf, name, value, array_mode, extra)
    if isinstance(value, np.generic):
        return encode_value_into(buf, name, value.item(), array_mode, extra)
    if isinstance(value, (list, tuple)):
        numeric = _as_numeric(value)
        if numeric is not None:
            return _encode_ndarray_into(buf, name, numeric, array_mode, extra)
        buf += (
            f'<{name}{extra} xsi:type="soapenc:Array"'
            f' soapenc:arrayType="xsd:anyType[{len(value)}]">'
        ).encode("utf-8")
        mark = len(buf)
        flags = NSF_XSI | NSF_SOAPENC
        for item in value:
            flags |= encode_value_into(buf, "item", item, array_mode)
        if len(buf) == mark:
            buf[mark - 1 :] = b"/>"
        else:
            buf += f'</{name}>'.encode("utf-8")
        return flags
    if isinstance(value, dict):
        buf += f'<{name}{extra} xsi:type="harness:Struct">'.encode("utf-8")
        mark = len(buf)
        # "harness:Struct" is an attribute *value*: it never forces an
        # xmlns:harness declaration (only harness-named attrs like
        # harness:dtype do), so the mask stays xsi-only here.
        flags = NSF_XSI
        for key, item in value.items():
            if not isinstance(key, str):
                raise EncodingError("SOAP struct keys must be strings")
            key_attr = f" key={quoteattr(_check_xml_text(key, 'struct key'))}"
            flags |= encode_value_into(buf, "entry", item, array_mode, key_attr)
        if len(buf) == mark:
            buf[mark - 1 :] = b"/>"
        else:
            buf += f'</{name}>'.encode("utf-8")
        return flags
    raise EncodingError(f"cannot SOAP-encode {type(value).__name__}")


_X_XSI_TYPE = f"{NS_XSI}}}type"
_X_XSI_NIL = f"{NS_XSI}}}nil"
_X_H_DTYPE = f"{NS_HARNESS}}}dtype"
_X_H_SHAPE = f"{NS_HARNESS}}}shape"


def expat_attr(attrs: dict[str, str], exact: str, plain: str, local: str) -> str | None:
    """The tree model's lenient attribute lookup over expat-shaped names.

    Mirrors ``element.get(QName(ns, local)) or element.get(local)``: the
    exact namespaced key wins unless absent/empty, then the unqualified
    name, then any attribute with a matching local part.
    """
    value = attrs.get(exact)
    if value:
        return value
    value = attrs.get(plain)
    if value is not None:
        return value
    for key in attrs:
        if key.rpartition("}")[2] == local:
            return attrs[key]
    return None


class ValueFrame:
    """One open element in the expat pull decoder.

    Collects exactly what :func:`element_to_value` reads from a tree node —
    the relevant attributes, the pre-child text, and per-child records —
    so the value materialises the moment the element closes, with no
    :class:`XmlElement` in between.  ``raw`` frames (typed-array items,
    fault details) skip value decoding entirely; only their text is kept.
    """

    __slots__ = ("local", "attrs", "text", "children", "has_children", "raw", "raw_children")

    def __init__(self, local: str, attrs: dict[str, str], raw: bool = False):
        self.local = local
        self.attrs = attrs
        self.text: list[str] = []
        self.children: list[tuple[str, str | None, Any, str]] = []
        self.has_children = False
        self.raw = raw
        # typed arrays read their items' raw text; decoding each item as a
        # value would double the text-conversion cost for nothing
        self.raw_children = raw or bool(
            attrs
            and expat_attr(attrs, _X_H_DTYPE, "dtype", "dtype") is not None
            and (expat_attr(attrs, _X_XSI_TYPE, "type", "type") or "").split(":", 1)[-1] == "Array"
        )

    def element_text(self) -> str:
        """The tree model's ``.text``: pre-child text, stripped when the
        element has children (that whitespace is indentation)."""
        text = "".join(self.text)
        return text.strip() if self.has_children else text

    def close(self) -> tuple[str, str | None, Any, str]:
        """Finish this frame into a ``(local, key, value, text)`` record."""
        text = self.element_text()
        key = expat_attr(self.attrs, "", "key", "key") if self.attrs else None
        value = None if self.raw else self._decode(text)
        return self.local, key, value, text

    def _shape(self):
        shape_attr = self.attrs.get(_X_H_SHAPE)
        return tuple(int(d) for d in shape_attr.split()) if shape_attr is not None else None

    def _decode(self, text: str) -> Any:
        attrs = self.attrs
        if not attrs:
            # no attributes at all: can't be nil or typed — plain text value
            return text
        if attrs.get(_X_XSI_NIL) == "true" or expat_attr(attrs, "", "nil", "nil") == "true":
            return None
        xsi_type = expat_attr(attrs, _X_XSI_TYPE, "type", "type") or ""
        local = xsi_type.split(":", 1)[-1]

        if local == "boolean":
            word = text.strip().lower()
            if word not in _BOOL_WORDS:
                raise EncodingError(f"invalid xsd:boolean text: {text!r}")
            return _BOOL_WORDS[word]
        if local in ("int", "long", "short", "byte", "unsignedInt", "unsignedLong", "integer"):
            try:
                return int(text.strip())
            except ValueError as exc:
                raise EncodingError(f"invalid integer text: {text!r}") from exc
        if local in ("double", "float", "decimal"):
            try:
                return float(text.strip())
            except ValueError as exc:
                raise EncodingError(f"invalid float text: {text!r}") from exc
        if local == "string":
            return text
        if local == "base64Binary":
            dtype_attr = expat_attr(attrs, _X_H_DTYPE, "dtype", "dtype")
            if dtype_attr is not None:
                array = decode_array_base64(text.strip(), dtype_attr)
                shape = self._shape()
                if shape is not None:
                    array = array.reshape(shape)
                return array
            try:
                return base64.b64decode(text.strip().encode("ascii"), validate=True)
            except Exception as exc:
                raise EncodingError(f"invalid base64Binary: {exc}") from exc
        if local == "Array":
            items = [c for c in self.children if c[0] == "item"]
            dtype_attr = expat_attr(attrs, _X_H_DTYPE, "dtype", "dtype")
            if dtype_attr is not None:
                dtype = np.dtype(dtype_attr)
                if dtype.kind == "f":
                    array = np.asarray([float(c[3]) for c in items], dtype=dtype)
                else:
                    array = np.asarray([int(c[3]) for c in items], dtype=dtype)
                shape = self._shape()
                if shape is not None:
                    array = array.reshape(shape)
                return array
            return [c[2] for c in items]
        if local == "Struct":
            out: dict[str, Any] = {}
            for child_local, key, value, _text in self.children:
                if child_local != "entry":
                    continue
                if key is None:
                    raise XmlError("<entry> missing required attribute 'key'")
                out[key] = value
            return out
        if not xsi_type:
            return text
        raise EncodingError(f"unknown xsi:type {xsi_type!r}")


#: dtype object -> dtype.name; ``np.dtype.name`` is a computed property
#: expensive enough to show up on the per-call hot path
_DTYPE_NAMES: dict = {}


def _dtype_name(dtype) -> str:
    name = _DTYPE_NAMES.get(dtype)
    if name is None:
        name = _DTYPE_NAMES[dtype] = dtype.name
    return name


def _encode_ndarray_into(buf: bytearray, name: str, array: np.ndarray, array_mode: str, extra: str) -> int:
    array = np.asarray(array)
    shape = " ".join(str(d) for d in array.shape)
    dtype_name = _dtype_name(array.dtype)
    if array_mode == "base64":
        encoded = encode_array_base64_bytes(array.ravel(), dtype_name)
        open_tag = (
            f'<{name}{extra} xsi:type="xsd:base64Binary"'
            f' harness:dtype="{dtype_name}" harness:shape="{shape}"'
        )
        if encoded:
            buf += f"{open_tag}>".encode("utf-8")
            buf += encoded
            buf += f"</{name}>".encode("utf-8")
        else:
            buf += f"{open_tag}/>".encode("utf-8")
        return NSF_XSI | NSF_HARNESS
    flat = array.ravel()
    xsd_type = _xsd_scalar_type(array.dtype)
    open_tag = (
        f'<{name}{extra} xsi:type="soapenc:Array"'
        f' soapenc:arrayType="{xsd_type}[{flat.size}]"'
        f' harness:dtype="{dtype_name}" harness:shape="{shape}"'
    )
    if array.dtype.kind == "f":
        texts = [repr(float(v)) for v in flat]
    elif array.dtype.kind in "iu":
        texts = [str(int(v)) for v in flat]
    else:
        raise EncodingError(f"items mode cannot encode dtype {array.dtype}")
    if texts:
        item_open = f'<item xsi:type="{xsd_type}">'
        middle = f"</item>{item_open}".join(texts)
        buf += f"{open_tag}>{item_open}{middle}</item></{name}>".encode("utf-8")
    else:
        buf += f"{open_tag}/>".encode("utf-8")
    return NSF_XSI | NSF_SOAPENC | NSF_HARNESS

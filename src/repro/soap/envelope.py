"""SOAP 1.1 envelope construction and parsing.

Implements the subset of SOAP 1.1 the paper's stack uses: RPC-style bodies,
``xsi:type``-annotated parameters, and ``<Fault>`` responses.

Two implementations coexist, byte-compatible with each other:

* the **streaming fast path** (default) — per-(target, operation) envelope
  templates cache every constant byte of the envelope (XML declaration,
  xmlns block, body/operation tags) so a call only renders its argument
  fragments straight into a byte buffer, and an expat pull decoder turns
  incoming envelopes directly into ``(target, operation, args)`` values
  with no intermediate :class:`XmlElement` tree;
* the ``*_tree`` **reference path** — the original infoset-based
  implementation, kept as the golden oracle for byte-identity tests, the
  fallback for envelope shapes outside the streaming subset, and the
  pre-optimization baseline the C1c benchmark measures against.

The XML cost that remains on the fast path (escaping, base64 text, expat
parsing) is the *inherent* cost of SOAP's wire format — the phenomenon the
C1 benchmarks measure — rather than framework overhead.
"""

from __future__ import annotations

from typing import Any
from xml.parsers import expat

from repro.soap.values import (
    ARRAY_MODES,
    ValueFrame,
    element_to_value,
    encode_value_into,
    expat_attr,
    value_to_element,
)
from repro.util.errors import EncodingError, SoapFaultError, XmlError
from repro.xmlkit import (
    NS_HARNESS,
    NS_SOAP_ENC,
    NS_SOAP_ENV,
    NS_XSI,
    QName,
    XmlElement,
    parse,
    to_string,
)
from repro.xmlkit.serialize import escape, quoteattr

__all__ = [
    "build_call_envelope",
    "build_reply_envelope",
    "build_fault_envelope",
    "parse_call_envelope",
    "parse_reply_envelope",
    "parse_reply_envelope_ex",
    "call_encoder",
    "CallEncoder",
    "build_call_envelope_tree",
    "build_reply_envelope_tree",
    "build_fault_envelope_tree",
    "parse_call_envelope_tree",
    "parse_reply_envelope_tree",
    "SOAP_CONTENT_TYPE",
]

SOAP_CONTENT_TYPE = "text/xml; charset=utf-8"

_ENVELOPE = QName(NS_SOAP_ENV, "Envelope")
_BODY = QName(NS_SOAP_ENV, "Body")
_HEADER = QName(NS_SOAP_ENV, "Header")
_FAULT = QName(NS_SOAP_ENV, "Fault")

# -- cached envelope skeleton bytes -------------------------------------------------

from repro.soap.values import NSF_HARNESS, NSF_SOAPENC, NSF_XSI  # noqa: E402

_XML_DECL = b'<?xml version="1.0" encoding="UTF-8"?>\n'
_BODY_OPEN = b"<soapenv:Body>"
_TAIL = b"</soapenv:Body></soapenv:Envelope>"

#: xmlns declarations in the serializer's order (sorted by prefix); the
#: soapenv entry has flag 0 because every envelope declares it.
_NS_DECLS = (
    (NSF_HARNESS, "harness", NS_HARNESS),
    (NSF_SOAPENC, "soapenc", NS_SOAP_ENC),
    (0, "soapenv", NS_SOAP_ENV),
    (NSF_XSI, "xsi", NS_XSI),
)

_HEADS: dict[int, bytes] = {}
_PRE_HEADS: dict[int, bytes] = {}


def _head(mask: int) -> bytes:
    """``<?xml…?><soapenv:Envelope xmlns…><soapenv:Body>`` for a namespace set."""
    head = _HEADS.get(mask)
    if head is None:
        decls = "".join(
            f' xmlns:{prefix}="{uri}"'
            for flag, prefix, uri in _NS_DECLS
            if not flag or mask & flag
        )
        head = _XML_DECL + f"<soapenv:Envelope{decls}>".encode("ascii") + _BODY_OPEN
        _HEADS[mask] = head
    return head


def _head_pre(mask: int) -> bytes:
    """:func:`_head` minus the Body open tag, so a caller can drop a
    ``<soapenv:Header>`` block between the two without re-copying the
    finished envelope (splicing a header into a large array payload
    costs a full memcpy of the envelope; building it in place is free)."""
    pre = _PRE_HEADS.get(mask)
    if pre is None:
        pre = _PRE_HEADS[mask] = _head(mask)[: -len(_BODY_OPEN)]
    return pre


_ARG_NAMES = tuple(f"arg{i}" for i in range(64))


def _arg_name(i: int) -> str:
    return _ARG_NAMES[i] if i < 64 else f"arg{i}"


class CallEncoder:
    """Cached marshalling plan for one ``(target, operation)`` pair.

    Everything constant across calls — the operation tag with its
    ``target`` attribute and the close tags — is rendered once here; the
    envelope head is shared via :func:`_head` keyed by the namespaces the
    arguments actually use.  ``encode`` builds each call in a private
    buffer, so one encoder is safe under concurrent use.
    """

    __slots__ = ("_open", "_selfclose", "_close", "_array_mode")

    def __init__(self, target: str, operation: str, array_mode: str = "base64"):
        lead = f"<{operation} target={quoteattr(target)}"
        self._open = f"{lead}>".encode("utf-8")
        self._selfclose = f"{lead}/>".encode("utf-8")
        self._close = f"</{operation}>".encode("utf-8")
        self._array_mode = array_mode

    def encode(self, args: tuple | list, header: bytes = b"") -> bytes:
        """Render one call; *header* (a finished ``<soapenv:Header>…``
        block) is stitched in ahead of the Body during the single join,
        byte-identical to splicing it afterwards but without the copy."""
        body = bytearray()
        mask = 0
        if args:
            if self._array_mode not in ARRAY_MODES:
                raise EncodingError(f"unknown array mode {self._array_mode!r}")
            for i, arg in enumerate(args):
                mask |= encode_value_into(body, _arg_name(i), arg, self._array_mode)
        if header:
            open_ = self._open if body else self._selfclose
            return b"".join(
                (_head_pre(mask), header, _BODY_OPEN, open_, body, self._close if body else b"", _TAIL)
            )
        if body:
            return b"".join((_head(mask), self._open, body, self._close, _TAIL))
        return b"".join((_head(mask), self._selfclose, _TAIL))


class _ReplyEncoder:
    __slots__ = ("_open", "_close", "_array_mode")

    def __init__(self, operation: str, array_mode: str):
        self._open = f"<{operation}Response>".encode("utf-8")
        self._close = f"</{operation}Response>".encode("utf-8")
        self._array_mode = array_mode

    def encode(self, result: Any) -> bytes:
        if self._array_mode not in ARRAY_MODES:
            raise EncodingError(f"unknown array mode {self._array_mode!r}")
        body = bytearray()
        mask = encode_value_into(body, "return", result, self._array_mode)
        return b"".join((_head(mask), self._open, body, self._close, _TAIL))


#: Template caches.  Bounded crudely — on overflow the whole cache is
#: dropped and rebuilt, which is cheap (template construction is a handful
#: of f-strings) and keeps lookups a plain dict get with no locking.
_TEMPLATE_LIMIT = 1024
_CALL_TEMPLATES: dict[tuple[str, str, str], CallEncoder] = {}
_REPLY_TEMPLATES: dict[tuple[str, str], _ReplyEncoder] = {}


def call_encoder(target: str, operation: str, array_mode: str = "base64") -> CallEncoder:
    """The cached :class:`CallEncoder` for ``(target, operation, mode)``."""
    key = (target, operation, array_mode)
    encoder = _CALL_TEMPLATES.get(key)
    if encoder is None:
        if len(_CALL_TEMPLATES) >= _TEMPLATE_LIMIT:
            _CALL_TEMPLATES.clear()
        encoder = _CALL_TEMPLATES[key] = CallEncoder(target, operation, array_mode)
    return encoder


def _reply_encoder(operation: str, array_mode: str) -> _ReplyEncoder:
    key = (operation, array_mode)
    encoder = _REPLY_TEMPLATES.get(key)
    if encoder is None:
        if len(_REPLY_TEMPLATES) >= _TEMPLATE_LIMIT:
            _REPLY_TEMPLATES.clear()
        encoder = _REPLY_TEMPLATES[key] = _ReplyEncoder(operation, array_mode)
    return encoder


# -- building (fast path) -----------------------------------------------------------


def build_call_envelope(
    target: str,
    operation: str,
    args: tuple | list,
    array_mode: str = "base64",
) -> bytes:
    """Serialize an RPC call envelope.

    The body holds one ``<{operation}>`` element carrying a ``target``
    attribute (the Harness II port/instance address) and one ``<arg{i}>``
    child per positional argument.
    """
    return call_encoder(target, operation, array_mode).encode(args)


def build_reply_envelope(result: Any, operation: str = "Response", array_mode: str = "base64") -> bytes:
    """Serialize a successful RPC reply with one ``<return>`` element."""
    return _reply_encoder(operation, array_mode).encode(result)


def build_fault_envelope(faultcode: str, faultstring: str, detail: str = "") -> bytes:
    """Serialize a SOAP ``<Fault>`` reply."""

    def child(tag: str, text: str) -> str:
        escaped = escape(text)
        return f"<{tag}>{escaped}</{tag}>" if escaped else f"<{tag}/>"

    middle = child("faultcode", faultcode) + child("faultstring", faultstring)
    if detail:
        middle += child("detail", detail)
    return b"".join(
        (_head(0), b"<soapenv:Fault>", middle.encode("utf-8"), b"</soapenv:Fault>", _TAIL)
    )


# -- parsing (expat pull fast path) -------------------------------------------------


class _Unsupported(Exception):
    """Envelope shape outside the streaming subset; retry with the tree parser."""


_X_BODY = f"{NS_SOAP_ENV}}}Body"


class _EnvelopeReader:
    """Expat handler set streaming an envelope straight to values.

    The skeleton (Envelope → Body → first child) is tracked with a depth
    counter; everything below the call/reply element runs through
    :class:`~repro.soap.values.ValueFrame` stacks, so arguments materialise
    as Python values the moment their element closes.
    """

    __slots__ = (
        "kind", "depth", "skip", "in_body", "saw_body", "body_child_seen",
        "stack", "args", "operation", "target", "result", "saw_return",
        "fault_error", "is_fault", "in_reply_root",
    )

    def __init__(self, kind: str):
        self.kind = kind  # "call" | "reply"
        self.depth = 0
        self.skip = 0
        self.in_body = False
        self.saw_body = False
        self.body_child_seen = False
        self.stack: list[ValueFrame] = []
        self.args: list[Any] = []
        self.operation = ""
        self.target = ""
        self.result: Any = None
        self.saw_return = False
        self.fault_error: SoapFaultError | None = None
        self.is_fault = False
        self.in_reply_root = False

    # -- expat handlers ---------------------------------------------------------

    def start(self, name: str, attrs: dict[str, str]) -> None:
        if self.skip:
            self.skip += 1
            return
        stack = self.stack
        if stack:
            parent = stack[-1]
            parent.has_children = True
            stack.append(ValueFrame(name.rpartition("}")[2], attrs, raw=parent.raw_children))
            self.depth += 1
            return
        d = self.depth
        self.depth = d + 1
        if d == 0:
            local = name.rpartition("}")[2]
            if local != "Envelope":
                raise EncodingError(f"not a SOAP envelope: <{local}>")
            return
        if d == 1:
            if not self.saw_body and name.rpartition("}")[2] == "Body":
                if name != _X_BODY:
                    # a local-name-only <Body> match: the tree model's
                    # namespace-lenient find() semantics decide — fall back
                    raise _Unsupported
                self.saw_body = True
                self.in_body = True
            else:
                # Header and anything else under Envelope: skip the subtree.
                # The skip counter owns depth bookkeeping from here, so the
                # increment above is rolled back.
                self.depth = d
                self.skip = 1
            return
        if d == 2:
            if self.body_child_seen:
                self.depth = d
                self.skip = 1  # only the first Body child is the message
                return
            self.body_child_seen = True
            local = name.rpartition("}")[2]
            if self.kind == "call":
                self.operation = local
                self.target = expat_attr(attrs, "", "target", "target") or ""
            elif local == "Fault":
                self.is_fault = True
                stack.append(ValueFrame(local, attrs, raw=True))
            else:
                self.in_reply_root = True
            return
        # d == 3: direct children of the call element / reply root
        local = name.rpartition("}")[2]
        if self.kind == "call":
            stack.append(ValueFrame(local, attrs))
            return
        if self.in_reply_root and local == "return" and not self.saw_return:
            self.saw_return = True
            stack.append(ValueFrame(local, attrs))
            return
        self.depth = d
        self.skip = 1

    def cdata(self, data: str) -> None:
        if self.skip:
            return
        stack = self.stack
        if stack:
            frame = stack[-1]
            if not frame.has_children:
                frame.text.append(data)

    def end(self, name: str) -> None:
        if self.skip:
            self.skip -= 1
            return
        self.depth -= 1
        stack = self.stack
        if stack:
            frame = stack.pop()
            if stack:
                stack[-1].children.append(frame.close())
            elif self.is_fault:
                self.fault_error = _fault_from_frame(frame)
            elif self.kind == "call":
                self.args.append(frame.close()[2])
            else:
                self.result = frame.close()[2]
            return
        if self.depth == 1 and self.in_body:
            self.in_body = False
            if not self.body_child_seen:
                raise EncodingError("SOAP body is empty")

    # -- results ---------------------------------------------------------------

    def finish_call(self) -> tuple[str, str, list]:
        if not self.saw_body:
            raise EncodingError("SOAP envelope has no <Body>")
        return self.target, self.operation, self.args

    def finish_reply(self) -> tuple[Any, SoapFaultError | None]:
        if not self.saw_body:
            raise EncodingError("SOAP envelope has no <Body>")
        if self.fault_error is not None:
            return None, self.fault_error
        if not self.saw_return:
            raise EncodingError("SOAP reply lacks a <return> element")
        return self.result, None


def _fault_from_frame(frame: ValueFrame) -> SoapFaultError:
    code = string = detail = None
    for local, _key, _value, text in frame.children:
        if local == "faultcode" and code is None:
            code = text
        elif local == "faultstring" and string is None:
            string = text
        elif local == "detail" and detail is None:
            detail = text
    return SoapFaultError(
        code if code is not None else "soapenv:Server",
        string if string is not None else "unknown fault",
        detail,
    )


def _run_reader(kind: str, data: bytes | bytearray | str) -> _EnvelopeReader:
    # expat reads a bytearray in place (an HTTP body buffer); other
    # bytes-likes, such as a TCP frame's memoryview slice, are copied
    if not isinstance(data, (bytes, bytearray, str)):
        data = bytes(data)
    reader = _EnvelopeReader(kind)
    parser = expat.ParserCreate(namespace_separator="}")
    parser.buffer_text = True
    parser.StartElementHandler = reader.start
    parser.EndElementHandler = reader.end
    parser.CharacterDataHandler = reader.cdata
    try:
        parser.Parse(data, True)
    except expat.ExpatError as exc:
        raise XmlError(f"malformed XML: {exc}") from exc
    return reader


def parse_call_envelope(data: bytes | str) -> tuple[str, str, list]:
    """Parse a call envelope into ``(target, operation, args)``."""
    try:
        reader = _run_reader("call", data)
    except _Unsupported:
        return parse_call_envelope_tree(data)
    return reader.finish_call()


def parse_reply_envelope_ex(data: bytes | str) -> tuple[Any, SoapFaultError | None]:
    """Parse a reply envelope once, returning ``(result, fault)``.

    Exactly one of the pair is meaningful: ``(value, None)`` for success
    replies, ``(None, SoapFaultError)`` for faults.  Callers that need to
    *inspect* a fault (rather than unwind on it) use this to avoid paying
    a second full envelope parse.
    """
    try:
        reader = _run_reader("reply", data)
    except _Unsupported:
        return _parse_reply_tree_ex(data)
    return reader.finish_reply()


def parse_reply_envelope(data: bytes | str) -> Any:
    """Parse a reply envelope; raises :class:`SoapFaultError` for faults."""
    result, fault = parse_reply_envelope_ex(data)
    if fault is not None:
        raise fault
    return result


# -- tree reference path ------------------------------------------------------------


def _skeleton() -> tuple[XmlElement, XmlElement]:
    envelope = XmlElement(_ENVELOPE)
    body = envelope.element(_BODY)
    return envelope, body


def build_call_envelope_tree(
    target: str,
    operation: str,
    args: tuple | list,
    array_mode: str = "base64",
) -> bytes:
    """Reference implementation of :func:`build_call_envelope` (full tree)."""
    envelope, body = _skeleton()
    call = body.element(QName("", operation), {"target": target})
    for i, arg in enumerate(args):
        call.append(value_to_element(f"arg{i}", arg, array_mode))
    return to_string(envelope, indent=False).encode("utf-8")


def build_reply_envelope_tree(result: Any, operation: str = "Response", array_mode: str = "base64") -> bytes:
    """Reference implementation of :func:`build_reply_envelope` (full tree)."""
    envelope, body = _skeleton()
    reply = body.element(QName("", f"{operation}Response"))
    reply.append(value_to_element("return", result, array_mode))
    return to_string(envelope, indent=False).encode("utf-8")


def build_fault_envelope_tree(faultcode: str, faultstring: str, detail: str = "") -> bytes:
    """Reference implementation of :func:`build_fault_envelope` (full tree)."""
    envelope, body = _skeleton()
    fault = body.element(_FAULT)
    fault.element("faultcode", text=faultcode)
    fault.element("faultstring", text=faultstring)
    if detail:
        fault.element("detail", text=detail)
    return to_string(envelope, indent=False).encode("utf-8")


def parse_call_envelope_tree(data: bytes | str) -> tuple[str, str, list]:
    """Reference implementation of :func:`parse_call_envelope` (full tree)."""
    root = parse(data)
    body = _require_body(root)
    if not body.children:
        raise EncodingError("SOAP body is empty")
    call = body.children[0]
    target = call.get("target") or ""
    args = [element_to_value(child) for child in call.children]
    return target, call.name.local, args


def parse_reply_envelope_tree(data: bytes | str) -> Any:
    """Reference implementation of :func:`parse_reply_envelope` (full tree)."""
    root = parse(data)
    body = _require_body(root)
    if not body.children:
        raise EncodingError("SOAP body is empty")
    first = body.children[0]
    if first.name == _FAULT or first.name.local == "Fault":
        code_el = first.find("faultcode")
        string_el = first.find("faultstring")
        detail_el = first.find("detail")
        raise SoapFaultError(
            code_el.text if code_el is not None else "soapenv:Server",
            string_el.text if string_el is not None else "unknown fault",
            detail_el.text if detail_el is not None else None,
        )
    ret = first.find("return")
    if ret is None:
        raise EncodingError("SOAP reply lacks a <return> element")
    return element_to_value(ret)


def _parse_reply_tree_ex(data: bytes | str) -> tuple[Any, SoapFaultError | None]:
    try:
        return parse_reply_envelope_tree(data), None
    except SoapFaultError as fault:
        return None, fault


def _require_body(root: XmlElement) -> XmlElement:
    if root.name.local != "Envelope":
        raise EncodingError(f"not a SOAP envelope: <{root.name.local}>")
    body = root.find(_BODY) or root.find("Body")
    if body is None:
        raise EncodingError("SOAP envelope has no <Body>")
    return body

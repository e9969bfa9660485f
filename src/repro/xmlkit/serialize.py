"""Serialize :class:`XmlElement` trees to text and parse them back.

The writer assigns namespace prefixes from
:data:`repro.xmlkit.qname.WELL_KNOWN_PREFIXES` (falling back to ``ns0``,
``ns1``, …) and declares every namespace on the root element, which is how
the WSDL listings in the paper's Figures 7 and 8 are laid out.

Parsing goes through ``xml.etree.ElementTree`` (expat) and converts into our
parent-linked model.

:func:`to_bytes` is the wire-path variant of :func:`to_string`: one pass
over the tree into a flat chunk list, a single UTF-8 encode at the end, and
a memoized namespace→prefix/declaration map keyed by the set of namespace
URIs the tree uses — byte-identical output to
``to_string(...).encode("utf-8")`` without the ``StringIO`` detour or a
repeated prefix assignment for recurring document shapes.
"""

from __future__ import annotations

import io
import xml.etree.ElementTree as ET

from repro.util.errors import XmlError
from repro.xmlkit.element import XmlElement
from repro.xmlkit.qname import WELL_KNOWN_PREFIXES, QName

__all__ = ["to_string", "to_bytes", "parse", "canonicalize", "escape", "quoteattr"]


# ``xml.sax.saxutils`` has this pair, but importing it imports
# ``urllib.request`` (and with it ``http.client``, ``email`` and ``ssl``);
# these give the same bytes without that import.


def escape(data: str) -> str:
    """*data* with ``&``, ``>`` and ``<`` as entities, ``&`` first."""
    return data.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def quoteattr(data: str) -> str:
    """*data* escaped, with newline, carriage return and tab as character
    references, in double quotes; in single quotes when it holds ``"`` but
    no ``'``, else with ``"`` as ``&quot;``."""
    data = escape(data).replace("\n", "&#10;").replace("\r", "&#13;").replace("\t", "&#9;")
    if '"' not in data:
        return f'"{data}"'
    if "'" not in data:
        return f"'{data}'"
    return '"{}"'.format(data.replace('"', "&quot;"))


def to_string(root: XmlElement, indent: bool = True, xml_declaration: bool = True) -> str:
    """Render the tree as a UTF-8 XML string with prefixes on the root."""
    prefixes, decls = _prefixes_and_decls(root)
    out: list[str] = []
    if xml_declaration:
        out.append('<?xml version="1.0" encoding="UTF-8"?>\n')
    _write_chunks(out, root, prefixes, decls, depth=0, indent=indent)
    return "".join(out)


#: Memoized (namespace-uri tuple) → (prefix map, rendered xmlns declarations).
#: Document shapes repeat heavily on the wire paths (SOAP envelopes, WSDL
#: manifests), so prefix assignment and declaration formatting are paid once
#: per distinct namespace set rather than once per document.
_NS_MEMO: dict[tuple[str, ...], tuple[dict[str, str], str]] = {}
_NS_MEMO_LIMIT = 256


def _prefixes_and_decls(root: XmlElement) -> tuple[dict[str, str], str]:
    uris = tuple(_collect_uris(root))
    memo = _NS_MEMO.get(uris)
    if memo is not None:
        return memo
    prefixes: dict[str, str] = {}
    auto = 0
    for uri in uris:
        preferred = WELL_KNOWN_PREFIXES.get(uri)
        if preferred and preferred not in prefixes.values():
            prefixes[uri] = preferred
        else:
            prefixes[uri] = f"ns{auto}"
            auto += 1
    decls = "".join(
        f' xmlns:{prefix}="{escape(uri)}"'
        for uri, prefix in sorted(prefixes.items(), key=lambda kv: kv[1])
    )
    if len(_NS_MEMO) >= _NS_MEMO_LIMIT:
        _NS_MEMO.clear()
    _NS_MEMO[uris] = (prefixes, decls)
    return prefixes, decls


def _collect_uris(root: XmlElement) -> list[str]:
    uris: list[str] = []
    for node in root.iter():
        if node.name.namespace and node.name.namespace not in uris:
            uris.append(node.name.namespace)
        for attr in node.attributes:
            if attr.namespace and attr.namespace not in uris:
                uris.append(attr.namespace)
    return uris


def to_bytes(root: XmlElement, indent: bool = False, xml_declaration: bool = True) -> bytes:
    """Render the tree straight to UTF-8 bytes in a single pass.

    Byte-identical to ``to_string(root, ...).encode("utf-8")``; used on the
    wire paths where the intermediate ``str`` document is pure overhead.
    """
    prefixes, decls = _prefixes_and_decls(root)
    out: list[str] = []
    if xml_declaration:
        out.append('<?xml version="1.0" encoding="UTF-8"?>\n')
    _write_chunks(out, root, prefixes, decls, depth=0, indent=indent)
    return "".join(out).encode("utf-8")


def _write_chunks(
    out: list[str],
    node: XmlElement,
    prefixes: dict[str, str],
    decls: str,
    depth: int,
    indent: bool,
) -> None:
    pad = "  " * depth if indent else ""
    name = node.name
    tag = f"{prefixes[name.namespace]}:{name.local}" if name.namespace else name.local
    out.append(f"{pad}<{tag}")
    if decls:
        out.append(decls)
    for attr, value in node.attributes.items():
        attr_text = (
            f"{prefixes[attr.namespace]}:{attr.local}" if attr.namespace else attr.local
        )
        out.append(f" {attr_text}={quoteattr(value)}")
    if not node.children and not node.text:
        out.append("/>\n" if indent else "/>")
        return
    out.append(">")
    if node.text:
        out.append(escape(node.text))
    if node.children:
        if indent:
            out.append("\n")
        for child in node.children:
            _write_chunks(out, child, prefixes, "", depth + 1, indent)
        out.append(pad)
    out.append(f"</{tag}>\n" if indent else f"</{tag}>")


def parse(text: str | bytes) -> XmlElement:
    """Parse an XML document into an :class:`XmlElement` tree."""
    try:
        et_root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise XmlError(f"malformed XML: {exc}") from exc
    return _convert(et_root)


def _convert(node: ET.Element) -> XmlElement:
    element = XmlElement(QName.parse(node.tag))
    for key, value in node.attrib.items():
        element.set(QName.parse(key), value)
    text = node.text or ""
    if len(node):
        # whitespace around children is indentation, not content
        text = text.strip()
    element.text = text
    for child in node:
        element.append(_convert(child))
    return element


def canonicalize(root: XmlElement) -> str:
    """A whitespace-free, attribute-sorted rendering used for comparisons.

    Not full C14N — just enough determinism for round-trip tests and for
    registry content hashing.
    """
    out = io.StringIO()

    def emit(node: XmlElement) -> None:
        out.write(f"<{node.name.clark()}")
        for attr in sorted(node.attributes, key=lambda q: (q.namespace, q.local)):
            out.write(f" {attr.clark()}={quoteattr(node.attributes[attr])}")
        out.write(">")
        if node.text:
            out.write(escape(node.text.strip()))
        for child in node.children:
            emit(child)
        out.write(f"</{node.name.clark()}>")

    emit(root)
    return out.getvalue()

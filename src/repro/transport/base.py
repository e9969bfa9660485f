"""Transport abstractions.

A transport moves opaque request/response byte payloads tagged with a
content type; which codec interprets them is the binding layer's business.
This separation mirrors the paper's layering: WSDL names the *access
mechanism* (binding + address), while the transport is just the pipe.

Three implementations ship: in-process (:mod:`repro.transport.inproc`),
framed TCP (:mod:`repro.transport.tcp` — the XDR binding's "direct socket
level connections"), and HTTP (:mod:`repro.transport.http` — the SOAP
binding's conventional carrier).
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Protocol

from repro.util.errors import TransportError

__all__ = ["TransportMessage", "RequestHandler", "ClientTransport", "Listener",
           "parse_url", "parse_address"]


class TransportMessage(NamedTuple):
    """An opaque payload plus the content type identifying its codec.

    ``payload`` is any bytes-like object: the zero-copy wire path hands
    codecs ``memoryview`` slices of receive buffers and ships encoder
    buffers without an intermediate ``bytes()`` copy.  Use
    :meth:`payload_bytes` at the rare boundary that needs real ``bytes``.
    """

    content_type: str
    payload: bytes | bytearray | memoryview

    def payload_bytes(self) -> bytes:
        """The payload as ``bytes`` (copies only when it isn't one already)."""
        payload = self.payload
        return payload if isinstance(payload, bytes) else bytes(payload)


#: Server-side callback: request message in, response message out.
RequestHandler = Callable[[TransportMessage], TransportMessage]


class ClientTransport(Protocol):
    """Client side of a request/response transport."""

    def request(self, message: TransportMessage, timeout: float | None = None) -> TransportMessage:
        """Send *message*, block for the response."""
        ...

    def close(self) -> None:
        """Release the connection."""
        ...


class Listener(Protocol):
    """Server side: a bound endpoint dispatching to a handler."""

    @property
    def url(self) -> str:
        """The dialable address of this endpoint."""
        ...

    def close(self) -> None:
        """Stop accepting requests."""
        ...


def parse_url(url: str) -> tuple[str, str]:
    """Split ``scheme://rest`` and validate the scheme is non-empty."""
    scheme, sep, rest = url.partition("://")
    if not sep or not scheme:
        raise ValueError(f"malformed transport url: {url!r}")
    return scheme, rest


def parse_address(url: str, scheme: str) -> tuple[str, int, str]:
    """``(host, port, path)`` of a ``scheme://host:port[/path]`` url; the
    path is ``/`` when the url has none."""
    got, rest = parse_url(url)
    if got != scheme:
        raise TransportError(f"not a {scheme} url: {url!r}")
    host_port, _, path = rest.partition("/")
    host, _, port_text = host_port.rpartition(":")
    try:
        return host, int(port_text), "/" + path
    except ValueError as exc:
        raise TransportError(f"bad {scheme} url (no port): {url!r}") from exc

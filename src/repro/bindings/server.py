"""Server-side binding endpoints.

:class:`BindingServer` exposes one :class:`ObjectDispatcher` over any mix of
bindings and manufactures the matching WSDL ``<port>`` descriptions, so a
service published with SOAP + XDR + local ports (as in Figure 8) is one
``expose_*`` call per access mechanism.
"""

from __future__ import annotations

import time
from functools import lru_cache

from repro.bindings.dispatcher import ObjectDispatcher
from repro.encoding.registry import CodecRegistry, default_registry
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.soap.codec import SoapMessageCodec
from repro.transport.base import TransportMessage
from repro.transport.http import HttpListener
from repro.transport.inproc import InProcListener
from repro.transport.tcp import TcpListener
from repro.util.errors import BindingError
from repro.util.ids import new_id
from repro.wsdl.extensions import SoapAddressExt, XdrAddressExt
from repro.wsdl.model import WsdlPort

__all__ = ["BindingServer"]

_REQUESTS = _metrics.registry.counter("server.requests")
_FAULTS = _metrics.registry.counter("server.faults")
_HANDLE_US = _metrics.registry.histogram("server.handle_us")


# A traced request records ``(operation, context cell, status, elapsed_us)``
# raw.  The cell is the one the service saw, so the span built from it —
# and the child id minted there, if the service never read it — agrees
# with whatever the service observed.


def _fold_server_spans(records) -> None:
    """One finisher batch of server records: one ``handle_us`` stripe
    lock, each value's exemplar tagged with that request's own context."""
    _operations, cells, _statuses, elapsed_us = zip(*records)
    _HANDLE_US.observe_many(elapsed_us, cells)


def _build_server_span(record) -> _trace.Span:
    operation, cell, status, elapsed_us = record
    ctx = cell.get()
    return _trace.Span(
        "server:" + operation, ctx.trace_id, ctx.span_id,
        ctx.parent_id, status, {"handle": elapsed_us},
    )


_SERVER_SPANS = _trace.SpanKind(_fold_server_spans, _build_server_span)


class BindingServer:
    """Multi-binding server front-end over a shared dispatcher."""

    def __init__(self, dispatcher: ObjectDispatcher, codecs: CodecRegistry | None = None):
        self.dispatcher = dispatcher
        self._codecs = codecs or default_registry
        self._fault_codec = SoapMessageCodec()
        self._listeners: list = []

    # -- request pipeline ------------------------------------------------------

    def _handle(self, message: TransportMessage) -> TransportMessage:
        """Decode → dispatch → encode, fault-mapping errors into the codec.

        The codec lookup itself runs under the fault mapping: an unknown or
        malformed ``Content-Type`` answers with a SOAP fault from the default
        codec instead of blowing up the transport (a 500 with an empty body
        on HTTP, a raw fault frame on TCP), so callers always get a reply
        they can decode.
        """
        if _trace.ENABLED:
            return self._handle_traced(message)
        _REQUESTS.inc()
        codec = self._fault_codec
        try:
            codec = self._codecs.get(_normalize(message.content_type))
            target, operation, args = codec.decode_call(message.payload)
            result = codec.encode_reply(self.dispatcher.invoke(target, operation, args))
        except Exception as exc:
            _FAULTS.inc()
            result = codec.encode_reply(fault=f"{type(exc).__name__}: {exc}")
        return TransportMessage(codec.content_type, result)

    def _handle_traced(self, message: TransportMessage) -> TransportMessage:
        """``_handle`` with a server span.

        The incoming context may already be active (TCP frames and HTTP
        headers are decoded by the transport layer); for SOAP over any
        transport that didn't, fall back to extracting the envelope's
        ``<harness:trace>`` header block here.
        """
        _REQUESTS.inc()
        incoming = _trace.peek()
        if incoming is None and message.content_type.startswith("text/xml"):
            try:
                incoming = _trace.extract_soap(bytes(message.payload))
            except Exception:  # noqa: BLE001 — a mangled trace block must
                incoming = None  # never fail the request; fresh context instead
        # the server's own context is minted lazily: a service that never
        # reads it costs nothing here, and the span built later from the
        # recorded cell shares the same memoized ids if it does
        cell = _trace.LazyChild(incoming)
        token = _trace.activate(cell)
        status = "ok"
        operation = "?"
        codec = self._fault_codec
        t0 = time.perf_counter()
        try:
            try:
                codec = self._codecs.get(_normalize(message.content_type))
                target, operation, args = codec.decode_call(message.payload)
                result = codec.encode_reply(
                    self.dispatcher.invoke(target, operation, args)
                )
            except Exception as exc:
                status = "fault"
                _FAULTS.inc()
                result = codec.encode_reply(fault=f"{type(exc).__name__}: {exc}")
            return TransportMessage(codec.content_type, result)
        finally:
            _trace.deactivate(token)
            elapsed_us = (time.perf_counter() - t0) * 1e6
            # the reply is not on the wire yet — everything below this
            # point is serialized into the caller's latency, so span
            # finalization goes to the finisher thread
            _trace.finisher.submit(_SERVER_SPANS, (operation, cell, status, elapsed_us))

    # -- exposure --------------------------------------------------------------

    def expose_soap_http(
        self, host: str = "127.0.0.1", port: int = 0, metrics_path: str = "/metrics",
        **listener_knobs,
    ) -> HttpListener:
        """Serve SOAP 1.1 over HTTP; returns the live listener.

        The listener also answers ``GET /metrics`` with the process
        registry in Prometheus text exposition (``metrics_path=""``
        disables it); hook a cluster collector's view in with
        ``listener.add_get_route``.

        *listener_knobs* pass through to :class:`HttpListener` — the
        reactor capacity knobs (``workers``, ``queue_max``,
        ``per_conn_max``, ``read_deadline_s``).
        """
        listener = HttpListener(self._handle, host, port, **listener_knobs)
        if metrics_path:
            listener.add_get_route(metrics_path, _prometheus_page)
        self._listeners.append(listener)
        return listener

    def expose_xdr_tcp(
        self, host: str = "127.0.0.1", port: int = 0, **listener_knobs
    ) -> TcpListener:
        """Serve XDR-framed RPC over TCP; returns the live listener.

        *listener_knobs* pass through to :class:`TcpListener` — the
        reactor capacity knobs (``workers``, ``queue_max``,
        ``per_conn_max``, ``read_deadline_s``).
        """
        listener = TcpListener(self._handle, host, port, **listener_knobs)
        self._listeners.append(listener)
        return listener

    def expose_inproc(self, name: str | None = None) -> InProcListener:
        """Serve over the in-process transport (still pays codec cost)."""
        listener = InProcListener(name or new_id("ep"), self._handle)
        self._listeners.append(listener)
        return listener

    def close(self) -> None:
        """Shut every listener down."""
        for listener in self._listeners:
            listener.close()
        self._listeners.clear()

    # -- WSDL port manufacture ----------------------------------------------------

    @staticmethod
    def soap_port(listener: HttpListener, binding_name: str, port_name: str) -> WsdlPort:
        """A ``<port>`` with a ``soap:address`` for *listener*."""
        return WsdlPort(port_name, binding_name, (SoapAddressExt(listener.url),))

    @staticmethod
    def xdr_port(listener: TcpListener, binding_name: str, port_name: str, target: str = "") -> WsdlPort:
        """A ``<port>`` with a ``harness:xdrAddress`` for *listener*."""
        host, _, port_text = listener.url.removeprefix("tcp://").rpartition(":")
        return WsdlPort(
            port_name, binding_name, (XdrAddressExt(host, int(port_text), target),)
        )


def _prometheus_page() -> tuple[str, bytes]:
    """The default ``GET /metrics`` route: this process's registry in
    Prometheus text exposition (no node label — one process, one target)."""
    from repro.obs.cluster import prometheus_text

    _trace.flush()  # land in-flight bookkeeping so the scrape is consistent
    text = prometheus_text({"": _metrics.registry.snapshot()})
    return "text/plain; version=0.0.4; charset=utf-8", text.encode("utf-8")


@lru_cache(maxsize=256)
def _normalize(content_type: str) -> str:
    """Map a full Content-Type header to a registered codec key.

    ``text/xml; charset=utf-8`` → ``text/xml``;
    ``text/xml; arrays=items`` keeps its array-mode parameter.

    Memoized: clients send the same handful of header strings for the
    lifetime of a connection, so the split/strip work is paid once per
    distinct header rather than once per request.
    """
    parts = [p.strip() for p in content_type.split(";")]
    base = parts[0]
    params = [p for p in parts[1:] if p.startswith("arrays=")]
    if params:
        return f"{base}; {params[0]}"
    return base

"""A client root held as its bare int keeps one trace id across every hop,
and a service's own view of its context matches the span built later."""

from __future__ import annotations

import pytest

from repro.bindings.dispatcher import ObjectDispatcher
from repro.bindings.server import BindingServer
from repro.bindings.stubs import TransportStub
from repro.encoding.registry import default_registry
from repro.messaging.broker import MessageBroker
from repro.messaging.tcpbind import MailboxTcpClient, MailboxTcpServer
from repro.obs import trace
from repro.transport.http import HttpTransport
from repro.transport.inproc import InProcTransport
from repro.transport.tcp import TcpTransport


class SeenService:
    """Keeps the context the *service* observed for each call."""

    def __init__(self):
        self.seen = []

    def whoami(self) -> str:
        ctx = trace.current()
        self.seen.append(ctx)
        return ctx.trace_id


@pytest.fixture
def service():
    dispatcher = ObjectDispatcher()
    svc = SeenService()
    dispatcher.register("Seen", svc)
    server = BindingServer(dispatcher)
    yield server, svc
    server.close()


def _stub(server, binding: str) -> TransportStub:
    if binding == "xdr":
        transport = TcpTransport(server.expose_xdr_tcp().url)
    elif binding == "soap":
        transport = HttpTransport(server.expose_soap_http().url)
    else:
        transport = InProcTransport(server.expose_inproc(f"seen-{binding}").url)
    codec = "text/xml" if binding == "soap" else "application/x-xdr"
    return TransportStub(("whoami",), "Seen", default_registry.get(codec), transport, binding)


def _spans(name: str) -> list:
    assert trace.flush()
    return [s for s in trace.recorder.last(50) if s.name == name]


@pytest.mark.parametrize("binding", ["xdr", "soap", "inproc"])
def test_lazy_root_keeps_one_trace_id_across_the_hop(service, binding):
    server, svc = service
    trace.enable(True)
    trace.recorder.clear()
    assert trace.peek() is None  # the stub mints the root itself
    with _stub(server, binding) as stub:
        served = stub.whoami()
    (client,) = _spans(f"client:{binding}:whoami")
    (server_span,) = _spans("server:whoami")
    assert served == client.trace_id == server_span.trace_id
    assert client.parent_id == ""
    assert server_span.parent_id == client.span_id


@pytest.mark.parametrize("binding", ["xdr", "inproc"])
def test_service_view_matches_its_recorded_span(service, binding):
    server, svc = service
    trace.enable(True)
    trace.recorder.clear()
    with _stub(server, binding) as stub:
        stub.whoami()
    (seen,) = svc.seen
    (server_span,) = _spans("server:whoami")
    assert (seen.trace_id, seen.span_id, seen.parent_id) == (
        server_span.trace_id, server_span.span_id, server_span.parent_id,
    )


def test_lazy_root_survives_a_mailbox_hop():
    trace.enable(True)
    root = trace.new_span()
    server = MailboxTcpServer(MessageBroker())
    client = MailboxTcpClient(*server.address, timeout_s=10.0)
    try:
        client.open("box")
        sub = client.subscribe("box", subscriber="reader")
        token = trace.activate(root)
        try:
            # packed from the int: the very bytes the context would give
            assert trace.current_wire() == trace.to_bytes(trace.resolve(root))
            client.publish("box", "hello")
        finally:
            trace.deactivate(token)
        delivery = sub.receive(timeout=5.0)
        assert delivery.payload == "hello"
        carried = trace.from_bytes(delivery.message.trace)
        assert carried == trace.resolve(root)
        assert trace.current_wire() == b""  # nothing active any more
    finally:
        client.close()
        server.close(drain_s=0.5)

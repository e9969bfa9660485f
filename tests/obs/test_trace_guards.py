"""Mangled trace metadata must never fail a request, and the finisher
must survive interpreter shutdown ordering (atexit flush/join)."""

from __future__ import annotations

import http.client
import socket

import pytest

from repro.bindings.dispatcher import ObjectDispatcher
from repro.bindings.server import BindingServer
from repro.encoding.registry import default_registry
from repro.obs import trace
from repro.obs.trace import _AsyncFinisher
from repro.transport.base import TransportMessage
from repro.transport import tcp as tcp_mod


class EchoService:
    def echo(self, text: str) -> str:
        return text


@pytest.fixture
def server():
    dispatcher = ObjectDispatcher()
    dispatcher.register("svc", EchoService())
    binding_server = BindingServer(dispatcher)
    yield binding_server
    binding_server.close()


class TestMalformedHeaderGuards:
    @pytest.mark.parametrize(
        "bad_header",
        [
            "garbage",
            "!!!!not-base64!!!!",
            "AAAA",  # truncated block
            "\x00\x01\x02",
        ],
    )
    def test_http_header_falls_back_to_fresh_context(self, server, bad_header):
        """A mangled X-Repro-Trace header answers 200 with a decodable
        reply — the server minted a fresh context instead of raising."""
        trace.enable(True)
        listener = server.expose_soap_http()
        codec = default_registry.get("text/xml")
        payload = codec.encode_call("svc", "echo", ("hello",))
        conn = http.client.HTTPConnection("127.0.0.1", listener.port, timeout=5)
        try:
            conn.request(
                "POST", "/", body=payload,
                headers={
                    "Content-Type": "text/xml; charset=utf-8",
                    trace.TRACE_HEADER: bad_header,
                },
            )
            response = conn.getresponse()
            body = response.read()
            assert response.status == 200
            assert codec.decode_reply(body) == "hello"
        finally:
            conn.close()

    def test_soap_extractor_guard_in_server_pipeline(self, server):
        """A corrupt <harness:trace> header block inside the envelope is
        dropped; the call still dispatches."""
        trace.enable(True)
        codec = default_registry.get("text/xml")
        payload = codec.encode_call("svc", "echo", ("hi",))
        ctx = trace.new_trace()
        spliced = trace.splice_soap(payload, ctx)
        corrupt = spliced.replace(ctx.trace_id.encode("ascii"), b"!" * 32)
        reply = server._handle(TransportMessage("text/xml; charset=utf-8", corrupt))
        assert codec.decode_reply(reply.payload) == "hi"

    def test_tcp_binary_trace_block_garbage_tolerated(self, server):
        """A frame flagged as carrying a trace block whose bytes are noise
        still gets a normal reply."""
        trace.enable(True)
        listener = server.expose_xdr_tcp()
        codec = default_registry.get("application/x-xdr")
        payload = codec.encode_call("svc", "echo", ("ping",))
        frame = tcp_mod._frame_prefix(
            7, codec.content_type, tcp_mod.STATUS_OK, len(payload),
            trace=b"\xff\xfe garbage trace bytes \x00\x01",
        ) + payload
        host, _, port_text = listener.url.removeprefix("tcp://").rpartition(":")
        with socket.create_connection((host, int(port_text)), timeout=5) as sock:
            sock.sendall(frame)
            corr_id, message, status, _trace_bytes = tcp_mod.FrameReader(sock).read_frame(5.0)
        assert corr_id == 7
        assert codec.decode_reply(message.payload) == "ping"


class TestFinisherShutdown:
    def test_shutdown_joins_and_later_submits_run_inline(self):
        finisher = _AsyncFinisher()
        seen = []
        finisher.submit(seen.append, ("before",))
        assert finisher.flush()
        finisher.shutdown()
        assert seen == ["before"]
        # the worker is gone; new work must not be lost
        finisher.submit(seen.append, ("after",))
        assert finisher.flush()
        assert seen == ["before", "after"]

    def test_shutdown_is_idempotent(self):
        finisher = _AsyncFinisher()
        finisher.submit(lambda *_: None, ())
        finisher.shutdown()
        finisher.shutdown()
        assert finisher.flush()

    def test_flush_without_worker_drains_inline(self):
        finisher = _AsyncFinisher()
        seen = []
        # enqueue directly: no worker thread exists, flush must not hang
        finisher._queue.append((seen.append, ("x",)))
        assert finisher.flush()
        assert seen == ["x"]

    def test_module_flush_safe_after_global_shutdown(self):
        """trace.flush() keeps working after the atexit hook has run —
        short-lived CLI runs flush their tail spans instead of dying."""
        original = trace.finisher
        try:
            original.shutdown()
            trace.enable(True)
            seen = []
            trace.finisher.submit(seen.append, ("tail",))
            assert trace.flush()
            assert seen == ["tail"]
        finally:
            trace.enable(False)
            trace.finisher = _AsyncFinisher()  # fresh worker for later tests

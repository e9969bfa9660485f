"""All three transports: routing, faults, lifecycle, concurrency."""

import threading
import time

import pytest

from repro.transport import (
    HttpListener,
    HttpTransport,
    InProcListener,
    InProcTransport,
    TcpListener,
    TcpTransport,
    TransportMessage,
    connect,
    parse_url,
)
from repro.util.errors import TransportClosedError, TransportError


def echo_handler(message: TransportMessage) -> TransportMessage:
    return TransportMessage(message.content_type, message.payload[::-1])


def fault_handler(message: TransportMessage) -> TransportMessage:
    raise ValueError("deliberate failure")


class TestParseUrl:
    def test_valid(self):
        assert parse_url("tcp://h:1") == ("tcp", "h:1")

    @pytest.mark.parametrize("bad", ["nope", "://x", ""])
    def test_invalid(self, bad):
        with pytest.raises(ValueError):
            parse_url(bad)

    def test_connect_unknown_scheme(self):
        with pytest.raises(TransportError):
            connect("gopher://x:1")


class TestInProc:
    def test_round_trip(self):
        listener = InProcListener("ep1", echo_handler)
        transport = InProcTransport(listener.url)
        reply = transport.request(TransportMessage("t", b"abc"))
        assert reply.payload == b"cba"

    def test_duplicate_name_rejected(self):
        InProcListener("dup", echo_handler)
        with pytest.raises(TransportError):
            InProcListener("dup", echo_handler)

    def test_unknown_endpoint(self):
        transport = InProcTransport("inproc://ghost")
        with pytest.raises(TransportError):
            transport.request(TransportMessage("t", b""))

    def test_closed_listener_rejects(self):
        listener = InProcListener("ep2", echo_handler)
        transport = InProcTransport(listener.url)
        listener.close()
        with pytest.raises(TransportError):
            transport.request(TransportMessage("t", b""))

    def test_closed_transport_rejects(self):
        listener = InProcListener("ep3", echo_handler)
        transport = InProcTransport(listener.url)
        transport.close()
        with pytest.raises(TransportClosedError):
            transport.request(TransportMessage("t", b""))

    def test_name_with_slash_rejected(self):
        with pytest.raises(TransportError):
            InProcListener("a/b", echo_handler)

    def test_wrong_scheme_rejected(self):
        with pytest.raises(TransportError):
            InProcTransport("tcp://h:1")


class TestTcp:
    @pytest.fixture
    def server(self):
        listener = TcpListener(echo_handler)
        yield listener
        listener.close()

    def test_round_trip(self, server):
        transport = TcpTransport(server.url)
        reply = transport.request(TransportMessage("application/x-xdr", b"hello"))
        assert reply.payload == b"olleh"
        assert reply.content_type == "application/x-xdr"
        transport.close()

    def test_large_payload(self, server):
        transport = TcpTransport(server.url)
        payload = bytes(range(256)) * 40000  # ~10 MB
        reply = transport.request(TransportMessage("t", payload))
        assert reply.payload == payload[::-1]
        transport.close()

    def test_many_requests_one_connection(self, server):
        transport = TcpTransport(server.url)
        for i in range(50):
            payload = f"msg{i}".encode()
            assert transport.request(TransportMessage("t", payload)).payload == payload[::-1]
        transport.close()

    def test_concurrent_clients(self, server):
        def hammer(n: int):
            transport = TcpTransport(server.url)
            for i in range(20):
                payload = f"{n}-{i}".encode()
                assert transport.request(TransportMessage("t", payload)).payload == payload[::-1]
            transport.close()

        from repro.util.concurrent import run_all

        run_all([lambda n=n: hammer(n) for n in range(8)])

    def test_fault_propagates_without_killing_connection(self):
        listener = TcpListener(fault_handler)
        transport = TcpTransport(listener.url)
        with pytest.raises(TransportError, match="deliberate failure"):
            transport.request(TransportMessage("t", b"x"))
        # connection still usable? server keeps serving after a fault
        with pytest.raises(TransportError, match="deliberate failure"):
            transport.request(TransportMessage("t", b"y"))
        transport.close()
        listener.close()

    def test_connect_refused(self):
        with pytest.raises(TransportError):
            TcpTransport("tcp://127.0.0.1:1")  # port 1: nothing listening

    def test_bad_url(self):
        with pytest.raises(TransportError):
            TcpTransport("tcp://noport")
        with pytest.raises(TransportError):
            TcpTransport("http://h:1")

    def test_closed_transport_rejects(self, server):
        transport = TcpTransport(server.url)
        transport.close()
        with pytest.raises(TransportClosedError):
            transport.request(TransportMessage("t", b""))


class TestHttp:
    @pytest.fixture
    def server(self):
        listener = HttpListener(echo_handler)
        yield listener
        listener.close()

    def test_round_trip(self, server):
        transport = HttpTransport(server.url)
        reply = transport.request(TransportMessage("text/xml", b"abc"))
        assert reply.payload == b"cba"
        transport.close()

    def test_content_type_header_round_trip(self, server):
        transport = HttpTransport(server.url)
        reply = transport.request(TransportMessage("text/xml; charset=utf-8", b"z"))
        assert reply.content_type.startswith("text/xml")
        transport.close()

    def test_keep_alive_many_requests(self, server):
        transport = HttpTransport(server.url)
        for i in range(30):
            payload = f"r{i}".encode()
            assert transport.request(TransportMessage("t", payload)).payload == payload[::-1]
        transport.close()

    def test_fault_maps_to_500(self):
        listener = HttpListener(fault_handler)
        transport = HttpTransport(listener.url)
        with pytest.raises(TransportError, match="500"):
            transport.request(TransportMessage("t", b"x"))
        transport.close()
        listener.close()

    def test_large_payload(self, server):
        transport = HttpTransport(server.url)
        payload = b"\x01\x02" * 500_000
        assert transport.request(TransportMessage("t", payload)).payload == payload[::-1]
        transport.close()

    def test_bad_url(self):
        with pytest.raises(TransportError):
            HttpTransport("http://nohost")
        with pytest.raises(TransportError):
            HttpTransport("tcp://h:1")

    def test_concurrent_clients(self, server):
        from repro.util.concurrent import run_all

        def hammer(n: int):
            transport = HttpTransport(server.url)
            for i in range(10):
                payload = f"{n}.{i}".encode()
                assert transport.request(TransportMessage("t", payload)).payload == payload[::-1]
            transport.close()

        run_all([lambda n=n: hammer(n) for n in range(6)])

    def test_stale_keepalive_retried_once(self, server):
        """A server that dropped the idle connection costs one transparent
        reconnect, not a visible TransportError."""
        import http.client

        transport = HttpTransport(server.url)
        assert transport.request(TransportMessage("t", b"warm")).payload == b"mraw"
        real_round_trip = transport._round_trip
        failures = iter([http.client.RemoteDisconnected("stale")])

        def flaky(message):
            try:
                raise next(failures)
            except StopIteration:
                return real_round_trip(message)

        transport._round_trip = flaky
        assert transport.request(TransportMessage("t", b"abc")).payload == b"cba"
        transport.close()

    def test_stale_keepalive_not_retried_twice(self, server):
        import http.client

        transport = HttpTransport(server.url)

        def always_stale(message):
            raise http.client.RemoteDisconnected("still stale")

        transport._round_trip = always_stale
        with pytest.raises(TransportError):
            transport.request(TransportMessage("t", b"abc"))
        transport.close()


class TestTcpTimeout:
    @pytest.mark.parametrize(
        "listen, connect",
        [(TcpListener, TcpTransport), (HttpListener, HttpTransport)],
        ids=["tcp", "http"],
    )
    def test_timeout_leaves_connection_usable(self, listen, connect):
        """A per-call timeout holds on an open connection, and the timeout
        leaves the transport usable: TCP abandons the correlation id, HTTP
        drops the connection, so the late reply is never mis-delivered."""
        from repro.util.errors import HarnessTimeoutError

        release = threading.Event()
        slow = [False]

        def handler(message: TransportMessage) -> TransportMessage:
            if slow[0]:
                release.wait(5.0)
            return TransportMessage(message.content_type, message.payload[::-1])

        listener = listen(handler)
        transport = connect(listener.url)
        try:
            assert transport.request(TransportMessage("t", b"warm"), timeout=5.0).payload == b"mraw"
            slow[0] = True
            started = time.monotonic()
            with pytest.raises(HarnessTimeoutError):
                transport.request(TransportMessage("t", b"x"), timeout=0.1)
            assert time.monotonic() - started < 1.0
            slow[0] = False
            release.set()
            # the same transport keeps working, and the answer belongs to
            # THIS request (the slow request's late reply is discarded)
            assert transport.request(TransportMessage("t", b"ab"), timeout=5.0).payload == b"ba"
        finally:
            release.set()
            transport.close()
            listener.close()

    def test_fresh_connection_works_after_timeout(self):
        from repro.util.errors import HarnessTimeoutError

        release = threading.Event()
        slow = [True]

        def handler(message: TransportMessage) -> TransportMessage:
            if slow[0]:
                release.wait(5.0)
            return TransportMessage(message.content_type, message.payload[::-1])

        listener = TcpListener(handler)
        timed_out = TcpTransport(listener.url)
        try:
            with pytest.raises(HarnessTimeoutError):
                timed_out.request(TransportMessage("t", b"x"), timeout=0.1)
            slow[0] = False
            release.set()
            fresh = TcpTransport(listener.url)
            assert fresh.request(TransportMessage("t", b"ab")).payload == b"ba"
            fresh.close()
        finally:
            release.set()
            timed_out.close()
            listener.close()

"""The reactor's per-call counts stay exact when kept under the admission lock.

``server.reactor.admitted``, ``inflight``, ``queue_depth`` and
``direct_writes`` are plain ints every listener in the process moves under
the one admission lock; the registry reads them at export.  Driven here
from several threads over a TCP and an HTTP listener at once, with a
one-thread TCP pool so that requests queue.
"""

import threading
import time

from repro.bindings.dispatcher import ObjectDispatcher
from repro.bindings.server import BindingServer
from repro.encoding.registry import default_registry
from repro.obs import metrics
from repro.transport import HttpTransport, TcpTransport, TransportMessage
from repro.transport.tcp import TcpListener

THREADS = 4
CALLS = 40

COUNTERS = ("server.reactor.admitted", "server.reactor.direct_writes", "server.requests")
GAUGES = ("server.reactor.inflight", "server.reactor.queue_depth")


class Echo:
    def echo(self, value: int) -> int:
        return value


def value(name: str) -> float:
    return metrics.registry.snapshot(name)[name]["value"]


def wait_until(predicate, timeout: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.005)
    return True


def call(transport, content_type: str, value_in: int) -> int:
    codec = default_registry.get(content_type)
    reply = transport.request(TransportMessage(
        content_type, codec.encode_call("Echo#0", "echo", (value_in,))), timeout=5.0)
    return codec.decode_reply(reply.payload)


class TestAdmissionCounts:
    def test_threads_over_tcp_and_http_count_every_call_once(self):
        dispatcher = ObjectDispatcher()
        dispatcher.register("Echo#0", Echo())
        server = BindingServer(dispatcher)
        tcp = server.expose_xdr_tcp(workers=1)
        http = server.expose_soap_http()
        metrics.registry.reset()
        errors: list = []

        def caller(n: int) -> None:
            tcp_client, http_client = TcpTransport(tcp.url), HttpTransport(http.url)
            try:
                for i in range(CALLS):
                    if i % 2:
                        got = call(http_client, "text/xml", n * CALLS + i)
                    else:
                        got = call(tcp_client, "application/x-xdr", n * CALLS + i)
                    assert got == n * CALLS + i
            except Exception as exc:  # noqa: BLE001 - reported by the main thread
                errors.append(exc)
            finally:
                tcp_client.close()
                http_client.close()

        threads = [threading.Thread(target=caller, args=(n,)) for n in range(THREADS)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)
            assert not errors, errors
            # a reply can reach its caller before the thread that wrote it
            # gives its admission back
            assert wait_until(lambda: value("server.reactor.inflight") == 0)
            total = THREADS * CALLS
            assert {name: value(name) for name in COUNTERS} == dict.fromkeys(COUNTERS, total)
            assert {name: value(name) for name in GAUGES} == dict.fromkeys(GAUGES, 0.0)
        finally:
            server.close()
        # closing both listeners takes nothing back
        assert {name: value(name) for name in COUNTERS} == dict.fromkeys(
            COUNTERS, THREADS * CALLS)

    def test_reset_zeroes_the_kept_counts_in_place(self):
        kept = {
            name: metrics.registry.counter(name)
            for name in ("server.reactor.admitted", "server.reactor.direct_writes")
        }
        kept.update({name: metrics.registry.gauge(name) for name in GAUGES})
        listener = TcpListener(lambda m: TransportMessage(m.content_type, bytes(m.payload)))
        client = TcpTransport(listener.url)
        try:
            client.request(TransportMessage("text/plain", b"one"), timeout=5.0)
            assert wait_until(lambda: kept["server.reactor.direct_writes"].value() >= 1)
            metrics.registry.reset()
            assert {name: m.value() for name, m in kept.items()} == dict.fromkeys(kept, 0)
            client.request(TransportMessage("text/plain", b"two"), timeout=5.0)
            assert wait_until(lambda: kept["server.reactor.direct_writes"].value() == 1)
        finally:
            client.close()
            listener.close()
        # the instruments cached before the reset are the ones that counted
        assert kept["server.reactor.admitted"].value() == 1
        assert metrics.registry.counter("server.reactor.admitted") is kept["server.reactor.admitted"]
        assert metrics.registry.gauge("server.reactor.inflight") is kept["server.reactor.inflight"]

"""Concurrency over shared stubs: correlation correctness under fire.

The multiplexed TCP transport shares a handful of sockets between many
in-flight requests; the correlation-id header is the only thing keeping
reply N from landing on caller M.  These tests hammer one stub (and one
raw transport) from many threads and assert every caller got *its* answer.
"""

import random
import socket
import sys
import threading

import pytest

from repro.bindings.dispatcher import ObjectDispatcher
from repro.bindings.server import BindingServer
from repro.bindings.stubs import TransportStub
from repro.encoding.registry import XdrMessageCodec
from repro.netsim import lan
from repro.transport.base import TransportMessage
from repro.transport.sim import SimListener, SimTransport
from repro.messaging import MailboxTcpClient, MailboxTcpServer, MessageBroker
from repro.transport import tcp as tcp_mod
from repro.transport.tcp import FrameReader, TcpListener, TcpTransport

THREADS = 8
CALLS_PER_THREAD = 25


class Arithmetic:
    """Deterministic per-argument results so replies are attributable."""

    def add(self, a, b):
        return a + b

    def tag(self, text):
        return f"tag:{text}"


def _hammer_stub(stub):
    """Each thread makes calls whose answers encode their inputs."""
    errors: list[BaseException] = []

    def worker(worker_id: int) -> None:
        try:
            for i in range(CALLS_PER_THREAD):
                a, b = worker_id * 1000 + i, i * 7
                assert stub.add(a, b) == a + b
                assert stub.tag(f"{worker_id}/{i}") == f"tag:{worker_id}/{i}"
        except BaseException as exc:  # noqa: BLE001 — collected for the main thread
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(n,)) for n in range(THREADS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, errors


class TestTcpStubConcurrency:
    @pytest.fixture
    def server(self):
        dispatcher = ObjectDispatcher()
        dispatcher.register("calc", Arithmetic())
        server = BindingServer(dispatcher)
        listener = server.expose_xdr_tcp()
        yield listener
        server.close()

    def test_threads_share_one_stub(self, server):
        stub = TransportStub(
            ("add", "tag"), "calc", XdrMessageCodec(),
            TcpTransport(f"tcp://127.0.0.1:{server.port}"), "xdr",
        )
        with stub:
            _hammer_stub(stub)

    def test_threads_share_one_stub_single_channel(self, server):
        # pool_size=1 forces every in-flight request onto ONE socket:
        # pure correlation-id demultiplexing, no pool to hide behind
        stub = TransportStub(
            ("add", "tag"), "calc", XdrMessageCodec(),
            TcpTransport(f"tcp://127.0.0.1:{server.port}", pool_size=1), "xdr",
        )
        with stub:
            _hammer_stub(stub)

    def test_serialized_mode_still_correct(self, server):
        stub = TransportStub(
            ("add", "tag"), "calc", XdrMessageCodec(),
            TcpTransport(f"tcp://127.0.0.1:{server.port}", multiplex=False), "xdr",
        )
        with stub:
            _hammer_stub(stub)

    def test_raw_transport_interleaving(self, server):
        """Distinct payload sizes per thread — framing must never mix them."""
        transport = TcpTransport(f"tcp://127.0.0.1:{server.port}", pool_size=1)
        codec = XdrMessageCodec()
        errors: list[BaseException] = []

        def worker(worker_id: int) -> None:
            try:
                for i in range(CALLS_PER_THREAD):
                    text = str(worker_id) * (worker_id + 1) + f"-{i}"
                    payload = codec.encode_call("calc", "tag", (text,))
                    reply = transport.request(
                        TransportMessage(codec.content_type, payload), timeout=10.0
                    )
                    assert codec.decode_reply(reply.payload) == f"tag:{text}"
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(n,)) for n in range(THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        transport.close()
        assert not errors, errors


class TestSimStubConcurrency:
    def test_threads_share_one_stub(self):
        net = lan(2)
        dispatcher = ObjectDispatcher()
        dispatcher.register("calc", Arithmetic())
        server = BindingServer(dispatcher)
        codec = XdrMessageCodec()
        SimListener(net, "node0", "calc-ep", server._handle)
        stub = TransportStub(
            ("add", "tag"), "calc", codec,
            SimTransport(net, "node1", "sim://node0/calc-ep"), "sim",
        )
        with stub:
            _hammer_stub(stub)


class TestFrameReader:
    def test_frames_survive_any_segmentation(self):
        """The client's buffered reader returns the same frames whether
        they arrive one per segment, many per segment, or cut mid-header and
        mid-body — small ones through its reused buffer, ones larger than
        the buffer in a buffer of their own."""
        rng = random.Random(2002)
        sizes = [0, 1, 100, 16 * 1024 - 30, 16 * 1024, 40_000, 7, 200_000, 3, 3, 16_380]
        frames = [
            tcp_mod._frame_prefix(
                i, "application/x-test", tcp_mod.STATUS_OK, size,
                trace=b"t%d" % i if i % 2 else b"",
            ) + bytes([i]) * size
            for i, size in enumerate(sizes, start=1)
        ]
        stream = b"".join(frames)
        ours, theirs = socket.socketpair()

        def dribble() -> None:
            pos = 0
            while pos < len(stream):
                n = rng.choice((1, 3, 11, 500, 9000, 70_000))
                theirs.sendall(stream[pos:pos + n])
                pos += n

        writer = threading.Thread(target=dribble)
        writer.start()
        try:
            reader = FrameReader(ours)
            for i, size in enumerate(sizes, start=1):
                corr_id, message, status, trace = reader.read_frame(5.0)
                assert (corr_id, status, trace) == (i, 0, b"t%d" % i if i % 2 else None)
                assert message.content_type == "application/x-test"
                assert message.payload == bytes([i]) * size
            with pytest.raises(socket.timeout):
                reader.read_frame(0.01)  # nothing buffered, nothing consumed
        finally:
            writer.join(timeout=5.0)
            ours.close()
            theirs.close()
        assert not writer.is_alive()


class TestPushAndReplyShareOneSocket:
    def test_pushes_racing_publish_replies_never_interleave(self):
        """One connection both publishes and consumes: deliveries are pushed
        by whichever worker ran a publish while other workers write publish
        replies to the same socket.  Writers hold the connection's write
        lock and queue behind a partial write, so the client's frame reader
        never sees a torn frame: every publish returns, every message is
        delivered exactly once and intact."""
        publishers, each = 6, 40
        body = b"m" * 48 * 1024  # large enough that writes go partial
        errors: list[BaseException] = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with MailboxTcpServer(MessageBroker(), workers=8) as server:
                with MailboxTcpClient(*server.address) as client:
                    client.open("q", capacity=publishers * each, overflow="reject")
                    subscription = client.subscribe("q", prefetch=publishers * each)

                    def publish(n: int) -> None:
                        try:
                            for i in range(each):
                                client.publish("q", (n, i, body))
                        except BaseException as exc:  # noqa: BLE001
                            errors.append(exc)

                    threads = [
                        threading.Thread(target=publish, args=(n,)) for n in range(publishers)
                    ]
                    for t in threads:
                        t.start()
                    got = []
                    for _ in range(publishers * each):
                        delivery = subscription.receive(timeout=10.0)
                        n, i, payload = delivery.message.payload
                        assert payload == body
                        got.append((n, i))
                    for t in threads:
                        t.join(timeout=10.0)
                    assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors
        assert sorted(got) == [(n, i) for n in range(publishers) for i in range(each)]

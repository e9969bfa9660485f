"""The pending-reply deadline sweep: no leaked correlation ids, no hangs.

A peer that dies *without* closing its socket (kill -9, cable pull) leaves
the connection open and never answers.  Before the sweep, a caller with
``timeout=None`` waited forever and its correlation-id entry was never
removed — the classic silent-server leak.  These tests stand up servers
that go silent mid-flight and assert callers get a typed
:class:`HarnessTimeoutError` within the sweep budget, and that the pending
table ends empty.
"""

import socket
import threading
import time

import pytest

from repro.transport.base import TransportMessage
from repro.transport.tcp import TcpListener, TcpTransport
from repro.util.errors import HarnessTimeoutError

MSG = TransportMessage("text/plain", b"ping")


class _BlackholeServer:
    """Accepts connections and reads frames but never ever replies.

    Models a peer whose process is gone but whose socket the kernel keeps
    half-open: requests are consumed, responses never come, FIN never sent.
    """

    def __init__(self):
        self._srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._srv.bind(("127.0.0.1", 0))
        self._srv.listen(8)
        self.port = self._srv.getsockname()[1]
        self._conns: list[socket.socket] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._thread.start()

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = self._srv.accept()
            except OSError:
                return
            self._conns.append(conn)
            threading.Thread(target=self._drain, args=(conn,), daemon=True).start()

    def _drain(self, conn: socket.socket) -> None:
        try:
            while conn.recv(65536):
                pass
        except OSError:
            pass

    def close(self) -> None:
        self._stop.set()
        try:
            self._srv.close()
        except OSError:
            pass
        for conn in self._conns:
            try:
                conn.close()
            except OSError:
                pass


@pytest.fixture
def blackhole():
    server = _BlackholeServer()
    yield server
    server.close()


class TestPendingSweep:
    def test_silent_server_times_out_untimed_caller(self, blackhole):
        """timeout=None against a dead-silent peer: swept, not hung."""
        transport = TcpTransport(
            f"tcp://127.0.0.1:{blackhole.port}", pending_max_s=0.3
        )
        try:
            started = time.monotonic()
            with pytest.raises(HarnessTimeoutError):
                transport.request(MSG, timeout=None)
            elapsed = time.monotonic() - started
            assert elapsed < 5.0, f"sweep took {elapsed:.1f}s, budget was 0.3s"
            # the leak itself: the correlation-id entry must be gone
            assert all(c.in_flight == 0 for c in transport._channels)
        finally:
            transport.close()

    def test_concurrent_untimed_callers_all_swept(self, blackhole):
        """Followers parked on the condition variable are woken too."""
        transport = TcpTransport(
            f"tcp://127.0.0.1:{blackhole.port}", pending_max_s=0.3, pool_size=1
        )
        results: list[BaseException | str] = []

        def caller() -> None:
            try:
                transport.request(MSG, timeout=None)
                results.append("no error")
            except BaseException as exc:  # noqa: BLE001 — collected for assert
                results.append(exc)

        threads = [threading.Thread(target=caller) for _ in range(4)]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10.0)
            assert not any(t.is_alive() for t in threads), "caller hung"
            assert len(results) == 4
            assert all(isinstance(r, HarnessTimeoutError) for r in results), results
            assert all(c.in_flight == 0 for c in transport._channels)
        finally:
            transport.close()

    def test_server_killed_mid_flight(self):
        """A real server that stops answering after its first reply.

        The handler blocks forever on the second request; the caller's
        pending entry must be swept even though the connection stays up.
        """
        answered = threading.Event()
        block = threading.Event()

        def handler(message: TransportMessage) -> TransportMessage:
            if answered.is_set():
                block.wait(30.0)  # the "killed" server: alive socket, no answer
            answered.set()
            return TransportMessage("text/plain", b"pong")

        listener = TcpListener(handler)
        transport = TcpTransport(
            f"tcp://127.0.0.1:{listener.port}", pending_max_s=0.3, pool_size=1
        )
        try:
            reply = transport.request(MSG, timeout=5.0)
            assert bytes(reply.payload) == b"pong"
            with pytest.raises(HarnessTimeoutError):
                transport.request(MSG, timeout=None)
            assert all(c.in_flight == 0 for c in transport._channels)
        finally:
            block.set()
            transport.close()
            listener.close()

    def test_sweep_disabled_preserves_caller_timeout_path(self, blackhole):
        """pending_max_s=0 turns the sweep off; explicit timeouts still work."""
        transport = TcpTransport(
            f"tcp://127.0.0.1:{blackhole.port}", pending_max_s=0.0
        )
        try:
            with pytest.raises(HarnessTimeoutError):
                transport.request(MSG, timeout=0.2)
            assert all(c.in_flight == 0 for c in transport._channels)
        finally:
            transport.close()

    def test_sweep_spares_answered_requests(self):
        """A healthy round trip under a tight sweep budget is untouched."""

        def handler(message: TransportMessage) -> TransportMessage:
            return TransportMessage("text/plain", b"ok:" + bytes(message.payload))

        listener = TcpListener(handler)
        transport = TcpTransport(
            f"tcp://127.0.0.1:{listener.port}", pending_max_s=0.5
        )
        try:
            for i in range(10):
                reply = transport.request(
                    TransportMessage("text/plain", b"%d" % i), timeout=None
                )
                assert bytes(reply.payload) == b"ok:%d" % i
        finally:
            transport.close()
            listener.close()


class TestSweepCost:
    def test_sweep_touches_only_expired_entries(self):
        """500 ids pending on one channel, 20 of them expired: expiries rise
        in registration order, so the sweep reads the 20 it fails and the
        first live one — whose expiry it returns — and nothing behind it."""
        from repro.transport.tcp import _Channel, _Pending

        reads = []

        class CountingPending(_Pending):
            __slots__ = ("_expiry",)

            @property
            def expires_at(self):
                reads.append(self)
                return self._expiry

            @expires_at.setter
            def expires_at(self, value):
                self._expiry = value

        ours, theirs = socket.socketpair()
        channel = _Channel("tcp://test", ours, pending_max_s=60.0)
        try:
            entries = [CountingPending(100.0 + i) for i in range(500)]
            channel._pending.update(enumerate(entries, start=1))
            earliest = channel._sweep_expired(now=119.5)
            assert earliest == 120.0
            assert len(reads) <= 2 * 21, "the sweep scanned past the first live entry"
            assert {id(e) for e in reads} == {id(e) for e in entries[:21]}
            assert all(e.done and isinstance(e.error, HarnessTimeoutError) for e in entries[:20])
            assert not any(e.done for e in entries[20:])
            assert list(channel._pending) == list(range(21, 501))
            assert channel._sweep_expired(now=1000.0) is None
            assert channel.in_flight == 0
        finally:
            ours.close()
            theirs.close()

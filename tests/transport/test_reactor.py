"""Reactor server core: admission control, load shedding, lifecycle.

Covers the event-loop transport's contract beyond plain round-trips
(those run in ``test_transports.py``, which exercises the reactor by
default): typed ``ServerBusyError`` shedding under flood, per-connection
caps, the slow-loris read deadline, drain-vs-abort shutdown, reconnect
after restart, fd hygiene under accept/close churn, frame reassembly
through a reused receive buffer, the write path's invariants (who writes
a reply, in what order, and when its admission token goes), and what
running requests on the pool threads that read them must not break:
overlap on one socket, isolation from a parked handler, shedding with
every thread parked, thread hygiene and the close-versus-read race.
"""

import os
import socket
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import metrics
from repro.transport import tcp as tcp_mod
from repro.transport.base import TransportMessage
from repro.transport.http import HttpListener, HttpTransport
from repro.transport.tcp import FrameParser, FrameReader, TcpListener, TcpTransport
from repro.util.errors import (
    HarnessError,
    HarnessTimeoutError,
    ServerBusyError,
    TransportClosedError,
    TransportError,
)


def echo(message: TransportMessage) -> TransportMessage:
    return TransportMessage(message.content_type, bytes(message.payload))


def slow_echo(delay: float):
    def handler(message: TransportMessage) -> TransportMessage:
        time.sleep(delay)
        return TransportMessage(message.content_type, bytes(message.payload))

    return handler


def counter_value(name: str) -> float:
    snap = metrics.registry.snapshot(name)
    return snap[name]["value"] if name in snap else 0.0


def request_frame(corr_id: int, payload: bytes, trace: bytes = b"") -> bytes:
    prefix = tcp_mod._frame_prefix(
        corr_id, "text/plain", tcp_mod.STATUS_OK, len(payload), trace=trace
    )
    return prefix + payload


def wait_until(condition, timeout: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if condition():
            return True
        time.sleep(0.005)
    return condition()


def slow_reader_socket(port: int, rcvbuf: int = 4096) -> socket.socket:
    """A client socket whose kernel receive buffer is tiny, so large
    replies back up into the server's outbox until it is read."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)  # before connect
    sock.settimeout(5.0)
    sock.connect(("127.0.0.1", port))
    return sock


class TestAdmissionShedding:
    def test_flood_fails_fast_with_typed_fault(self):
        """A flood beyond ``workers + queue_max`` answers ServerBusyError
        immediately instead of queueing unboundedly (satellite 1)."""
        listener = TcpListener(slow_echo(0.3), workers=1, queue_max=1)
        shed_before = counter_value("server.reactor.shed")
        transport = TcpTransport(listener.url, pool_size=1)
        results: list[object] = []
        lock = threading.Lock()

        def caller(n: int) -> None:
            t0 = time.monotonic()
            try:
                transport.request(
                    TransportMessage("text/plain", b"x" * n), timeout=5.0
                )
                outcome: object = "ok"
            except ServerBusyError:
                outcome = ("busy", time.monotonic() - t0)
            with lock:
                results.append(outcome)

        try:
            threads = [
                threading.Thread(target=caller, args=(n,)) for n in range(12)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            transport.close()
            listener.close()
        served = [r for r in results if r == "ok"]
        shed = [r for r in results if isinstance(r, tuple)]
        assert len(served) + len(shed) == 12
        assert served, "admission must let capacity-worth of requests through"
        assert shed, "over-capacity requests must be shed"
        # shed answers are immediate: far faster than waiting out the 0.3s
        # handler even once, let alone a 10-deep queue of it
        assert max(t for _, t in shed) < 0.25
        assert counter_value("server.reactor.shed") >= shed_before + len(shed)

    def test_per_connection_cap_protects_other_principals(self):
        """One connection may not occupy the whole server: its requests
        past ``per_conn_max`` shed while a second connection is served."""
        listener = TcpListener(
            slow_echo(0.25), workers=4, queue_max=64, per_conn_max=2
        )
        hog = TcpTransport(listener.url, pool_size=1)
        outcomes: list[str] = []
        lock = threading.Lock()

        def hog_caller() -> None:
            try:
                hog.request(TransportMessage("text/plain", b"hog"), timeout=5.0)
                result = "ok"
            except ServerBusyError:
                result = "busy"
            with lock:
                outcomes.append(result)

        try:
            threads = [threading.Thread(target=hog_caller) for _ in range(8)]
            for t in threads:
                t.start()
            time.sleep(0.05)  # hog's pipelined burst reaches the server first
            bystander = TcpTransport(listener.url, pool_size=1)
            try:
                reply = bystander.request(
                    TransportMessage("text/plain", b"bystander"), timeout=5.0
                )
                assert bytes(reply.payload) == b"bystander"
            finally:
                bystander.close()
            for t in threads:
                t.join()
        finally:
            hog.close()
            listener.close()
        assert "busy" in outcomes, "the hog must hit its per-connection cap"
        assert "ok" in outcomes

    def test_caps_reconfigure_live(self):
        listener = TcpListener(slow_echo(0.2), workers=1, queue_max=64)
        transport = TcpTransport(listener.url, pool_size=1)
        try:
            listener.admission.configure(queue_max=0)
            assert listener.admission.max_inflight == 1
            errors: list[Exception] = []

            def caller() -> None:
                try:
                    transport.request(
                        TransportMessage("text/plain", b"a"), timeout=5.0
                    )
                except ServerBusyError as exc:
                    errors.append(exc)

            threads = [threading.Thread(target=caller) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert errors, "queue_max=0 leaves only worker-width capacity"
        finally:
            transport.close()
            listener.close()

    def test_http_flood_answers_503_as_server_busy(self):
        listener = HttpListener(slow_echo(0.3), workers=1, queue_max=0)
        transports = [HttpTransport(listener.url) for _ in range(6)]
        outcomes: list[str] = []
        lock = threading.Lock()

        def caller(transport: HttpTransport) -> None:
            try:
                transport.request(
                    TransportMessage("text/plain", b"x"), timeout=5.0
                )
                result = "ok"
            except ServerBusyError:
                result = "busy"
            with lock:
                outcomes.append(result)

        try:
            threads = [
                threading.Thread(target=caller, args=(t,)) for t in transports
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            for transport in transports:
                transport.close()
            listener.close()
        assert "busy" in outcomes and "ok" in outcomes
        # ServerBusyError derives from the framework root, so policy layers
        # treating "typed faults only" as healthy degradation see it as such
        assert issubclass(ServerBusyError, HarnessError)


class TestReadDeadline:
    def test_half_header_slow_loris_is_disconnected(self):
        """A peer sending half a v2 header and stalling is dropped at the
        read deadline — progress does not extend the budget (satellite 2)."""
        listener = TcpListener(echo, read_deadline_s=0.3)
        closes_before = counter_value("server.reactor.deadline_closes")
        sock = socket.create_connection(("127.0.0.1", listener.port))
        try:
            sock.sendall(b"\x00\x00")  # half of the 4-byte length header
            sock.settimeout(3.0)
            t0 = time.monotonic()
            assert sock.recv(1) == b"", "server should close the connection"
            elapsed = time.monotonic() - t0
            assert 0.1 < elapsed < 2.0
        finally:
            sock.close()
            listener.close()
        assert counter_value("server.reactor.deadline_closes") >= closes_before + 1

    def test_idle_connection_is_not_deadlined(self):
        """The deadline arms per *started* message: a connection that is
        merely idle between requests stays open."""
        listener = TcpListener(echo, read_deadline_s=0.3)
        transport = TcpTransport(listener.url, pool_size=1)
        try:
            transport.request(TransportMessage("text/plain", b"a"), timeout=5.0)
            time.sleep(0.6)  # idle well past the mid-message deadline
            reply = transport.request(
                TransportMessage("text/plain", b"b"), timeout=5.0
            )
            assert bytes(reply.payload) == b"b"
        finally:
            transport.close()
            listener.close()


class TestLifecycle:
    def test_drain_shutdown_answers_in_flight_requests(self):
        listener = TcpListener(slow_echo(0.4), workers=2, drain_s=5.0)
        transport = TcpTransport(listener.url, pool_size=1)
        reply: list[bytes] = []
        errors: list[Exception] = []

        def caller() -> None:
            try:
                response = transport.request(
                    TransportMessage("text/plain", b"drain-me"), timeout=5.0
                )
                reply.append(bytes(response.payload))
            except Exception as exc:  # noqa: BLE001 — surfaced below
                errors.append(exc)

        thread = threading.Thread(target=caller)
        thread.start()
        time.sleep(0.1)  # let the request reach the worker
        listener.close()  # drains: the in-flight request must finish
        thread.join(timeout=5.0)
        transport.close()
        assert not errors, errors
        assert reply == [b"drain-me"]

    def test_abort_shutdown_drops_in_flight_requests(self):
        listener = TcpListener(slow_echo(1.0), workers=2, drain_s=0.0)
        transport = TcpTransport(listener.url, pool_size=1, pending_max_s=2.0)
        errors: list[Exception] = []
        done = threading.Event()

        def caller() -> None:
            try:
                transport.request(
                    TransportMessage("text/plain", b"doomed"), timeout=3.0
                )
            except (TransportClosedError, HarnessTimeoutError) as exc:
                errors.append(exc)
            finally:
                done.set()

        thread = threading.Thread(target=caller)
        thread.start()
        time.sleep(0.1)
        t0 = time.monotonic()
        listener.close()  # aborts: no drain window
        assert time.monotonic() - t0 < 0.9, "abort must not wait out the handler"
        assert done.wait(5.0)
        thread.join(timeout=5.0)
        transport.close()
        assert errors, "the aborted request must fail with a typed error"

    def test_client_reconnects_after_server_restart(self):
        listener = TcpListener(echo)
        port = listener.port
        transport = TcpTransport(listener.url, pool_size=1)
        try:
            assert bytes(
                transport.request(
                    TransportMessage("text/plain", b"one"), timeout=5.0
                ).payload
            ) == b"one"
            listener.close()
            listener = TcpListener(echo, port=port)
            # the pooled channel died with the old server; the transport
            # prunes it and dials afresh (the request that *discovers* the
            # death may fail — one retry is the documented contract)
            for attempt in range(2):
                try:
                    reply = transport.request(
                        TransportMessage("text/plain", b"two"), timeout=5.0
                    )
                    break
                except TransportClosedError:
                    if attempt:
                        raise
            assert bytes(reply.payload) == b"two"
        finally:
            transport.close()
            listener.close()


class TestFdHygiene:
    CHURN = 256

    @staticmethod
    def _fd_count() -> int:
        return len(os.listdir("/proc/self/fd"))

    @staticmethod
    def _wait_conns(value: float, timeout: float = 5.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if counter_value("server.reactor.conns") == value:
                return
            time.sleep(0.01)

    def test_socket_churn_leaks_no_fds(self):
        """256 accept/close cycles leave the process fd table where it
        started: socket count decouples from both threads *and* fds."""
        if not os.path.isdir("/proc/self/fd"):
            pytest.skip("needs /proc")
        listener = TcpListener(echo)
        transport = TcpTransport(listener.url, pool_size=1)
        try:
            # settle: one served request warms every lazy structure
            transport.request(TransportMessage("text/plain", b"warm"), timeout=5.0)
            baseline_conns = counter_value("server.reactor.conns")
            before = self._fd_count()
            for _ in range(4):
                socks = [
                    socket.create_connection(("127.0.0.1", listener.port))
                    for _ in range(self.CHURN // 4)
                ]
                for sock in socks:
                    sock.close()
                self._wait_conns(baseline_conns)
            self._wait_conns(baseline_conns)
            after = self._fd_count()
            assert after <= before + 4, f"fd leak: {before} -> {after}"
            # the server is still healthy after the churn
            reply = transport.request(
                TransportMessage("text/plain", b"after"), timeout=5.0
            )
            assert bytes(reply.payload) == b"after"
        finally:
            transport.close()
            listener.close()


# -- frame reassembly through a reused receive buffer ------------------------

RECV_BUFFER = 64 * 1024  # what the reactor receives into per pass


def drive_parser(parser: FrameParser, stream: bytes, cuts: list[int]) -> list:
    """Feed *stream* to *parser* the way ``ReactorServer._read`` does:
    each cut is one readiness event; bytes go to the parser's own body
    buffer when it has one, else through one reused receive buffer that is
    scribbled over afterwards (a parser must not keep views into it)."""
    rbuf = memoryview(bytearray(RECV_BUFFER))
    jobs, pos, turn = [], 0, 0
    while pos < len(stream):
        arrived = min(len(stream), pos + cuts[turn % len(cuts)])
        turn += 1
        while pos < arrived:
            view = parser.body_buffer()
            if view is None:
                n = min(arrived - pos, len(rbuf))
                rbuf[:n] = stream[pos:pos + n]
                jobs += parser.feed(rbuf[:n])
                rbuf[:n] = b"\xee" * n
            else:
                n = min(arrived - pos, len(view))
                view[:n] = stream[pos:pos + n]
                jobs += parser.body_filled(n)
            pos += n
    return jobs


def job_fields(job) -> tuple:
    return (job.corr_id, job.message.content_type, bytes(job.message.payload), job.trace)


payload_sizes = st.one_of(
    st.integers(0, 64),
    st.integers(RECV_BUFFER - 64, RECV_BUFFER + 64),  # around the buffer's edge
    st.integers(0, 200 * 1024),
    st.integers(256 * 1024, 600 * 1024),  # past the body buffer's first size
)
frame_specs = st.lists(st.tuples(payload_sizes, st.booleans()), min_size=1, max_size=20)
cut_lists = st.lists(st.integers(1, 3 * RECV_BUFFER), min_size=1, max_size=8)


class TestFrameReassembly:
    @settings(max_examples=60, deadline=None)
    @given(frame_specs, cut_lists)
    def test_any_cut_yields_the_same_jobs_in_order(self, specs, cuts):
        """1-20 valid frames (with and without a trace block) cut at
        arbitrary points parse to the same jobs, in the same order, as the
        same frames fed one at a time."""
        frames = [
            request_frame(
                i + 1, bytes([i % 251]) * size, trace=b"trace-%d" % i if traced else b""
            )
            for i, (size, traced) in enumerate(specs)
        ]
        one_at_a_time = []
        reference = FrameParser()
        for frame in frames:
            one_at_a_time += drive_parser(reference, frame, [len(frame)])
        assert not reference.mid_message
        parser = FrameParser()
        together = drive_parser(parser, b"".join(frames), cuts)
        assert not parser.mid_message
        assert [job_fields(j) for j in together] == [job_fields(j) for j in one_at_a_time]
        assert [j.corr_id for j in together] == list(range(1, len(frames) + 1))

    @pytest.mark.parametrize("length", [0, 10, 1025, 2**32 - 1])
    def test_bad_length_raises_before_any_body_allocation(self, length):
        """A declared length under the minimum or over the cap is refused
        from the header alone: nothing is allocated for it (2**32-1 would be
        4 GiB), even when valid frames precede it in the same read."""
        parser = FrameParser(max_message=1024)
        data = request_frame(1, b"ok") + length.to_bytes(4, "big") + b"\x00" * 32
        with pytest.raises(TransportError):
            parser.feed(memoryview(data))
        assert parser.body_buffer() is None

    def test_partial_header_is_held_over_and_counts_as_mid_message(self):
        parser = FrameParser()
        frame = request_frame(9, b"held")
        assert parser.feed(memoryview(frame[:3])) == []
        assert parser.mid_message and parser.body_buffer() is None
        (job,) = parser.feed(memoryview(frame[3:]))
        assert job_fields(job) == (9, "text/plain", b"held", None)
        assert not parser.mid_message


# -- the write path -----------------------------------------------------------

BIG = 256 * 1024


def sized_reply(message: TransportMessage) -> TransportMessage:
    """Answer a ``b"<size>:<fill byte>"`` request with that many of that byte."""
    size, _, fill = bytes(message.payload).partition(b":")
    return TransportMessage("text/plain", (fill or b"r") * int(size))


def big_request(corr_id: int) -> bytes:
    """Ask for a 256 KiB reply filled with a byte that names the request."""
    return request_frame(corr_id, b"%d:%c" % (BIG, 64 + corr_id))


class TestWritePath:
    def test_pipelined_echo_is_written_by_the_workers(self):
        """Small replies never touch the outbox: every one is a direct
        write by the worker that made it."""
        listener = TcpListener(echo)
        direct = counter_value("server.reactor.direct_writes")
        queued = counter_value("server.reactor.queued_writes")
        sock = socket.create_connection(("127.0.0.1", listener.port), timeout=5.0)
        try:
            sock.sendall(b"".join(request_frame(i, b"echo-%d" % i) for i in range(1, 51)))
            reader = FrameReader(sock)
            replies = dict(
                (corr_id, bytes(message.payload))
                for corr_id, message, _status, _trace in
                (reader.read_frame(5.0) for _ in range(50))
            )
            assert replies == {i: b"echo-%d" % i for i in range(1, 51)}
            assert wait_until(lambda: listener.admission.inflight == 0)
        finally:
            sock.close()
            listener.close()
        assert counter_value("server.reactor.direct_writes") == direct + 50
        assert counter_value("server.reactor.queued_writes") == queued

    def test_peer_that_stops_reading_moves_replies_to_the_outbox(self):
        listener = TcpListener(sized_reply)
        queued = counter_value("server.reactor.queued_writes")
        sock = slow_reader_socket(listener.port)
        try:
            # 8 MiB of replies: more than the server's send buffer can grow to
            sock.sendall(b"".join(big_request(i) for i in range(1, 33)))
            assert wait_until(
                lambda: counter_value("server.reactor.queued_writes") > queued
            )
            # unflushed replies keep their admission tokens (backpressure)
            assert listener.admission.inflight > 0
        finally:
            sock.close()
            listener.close()
        assert listener.admission.inflight == 0

    def test_slow_reader_gets_every_reply_once_and_whole(self):
        """32 pipelined 256 KiB replies to a client with a tiny receive
        buffer that reads slowly: partial writes, outbox fallback and
        EVENT_WRITE flushing never lose, repeat, reorder within a frame or
        corrupt a reply, and every admission token comes back."""
        listener = TcpListener(sized_reply)
        direct = counter_value("server.reactor.direct_writes")
        queued = counter_value("server.reactor.queued_writes")
        sock = slow_reader_socket(listener.port)
        try:
            reader = FrameReader(sock)
            sock.sendall(request_frame(100, b"5"))  # a small reply goes direct
            assert bytes(reader.read_frame(5.0)[1].payload) == b"rrrrr"
            sock.setblocking(True)
            sock.sendall(b"".join(big_request(i) for i in range(1, 33)))
            seen = []
            for _ in range(32):
                corr_id, message, status, _trace = reader.read_frame(10.0)
                assert status == tcp_mod.STATUS_OK
                assert message.payload == bytes([64 + corr_id]) * BIG
                seen.append(corr_id)
                time.sleep(0.002)
            assert sorted(seen) == list(range(1, 33))
            assert wait_until(lambda: listener.admission.inflight == 0)
        finally:
            sock.close()
            listener.close()
        assert counter_value("server.reactor.direct_writes") > direct
        assert counter_value("server.reactor.queued_writes") > queued

    def test_pushes_and_replies_keep_frames_whole_under_partial_writes(self):
        """Eight workers each push an unsolicited frame and then answer, on
        one connection whose peer reads slowly, so direct writes go partial
        and later frames queue behind them: no frame is torn or lost."""
        from repro.transport.reactor import Job, ReactorServer

        size = 64 * 1024

        def frame(corr_id: int) -> tuple[bytes, bytes]:
            payload = bytes([corr_id % 251]) * size
            prefix = tcp_mod._frame_prefix(
                corr_id, "text/plain", tcp_mod.STATUS_OK, len(payload)
            )
            return prefix, payload

        class PushThenReply(Job):
            wants_conn = True

            def __init__(self, corr_id, message, trace):
                self.corr_id = corr_id
                self.conn = None

            def run(self, app_handler):
                assert threading.current_thread() is not server._thread
                server.push(self.conn, frame(1000 + self.corr_id))
                return frame(self.corr_id)

        class Parser(FrameParser):
            job_class = PushThenReply

        server = ReactorServer(("127.0.0.1", 0), None, Parser, workers=8)
        queued = counter_value("server.reactor.queued_writes")
        sock = slow_reader_socket(server.address[1])
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            reader = FrameReader(sock)
            sock.setblocking(True)
            sock.sendall(b"".join(request_frame(i, b"") for i in range(1, 65)))
            seen = []
            for _ in range(128):
                corr_id, message, _status, _trace = reader.read_frame(10.0)
                assert message.payload == bytes([corr_id % 251]) * size
                seen.append(corr_id)
            assert sorted(seen) == [*range(1, 65), *range(1001, 1065)]
            assert wait_until(lambda: server.admission.inflight == 0)
            assert counter_value("server.reactor.queued_writes") > queued
        finally:
            sys.setswitchinterval(interval)
            sock.close()
            server.close()

    def test_abort_with_jobs_queued_releases_every_token(self):
        """``close(drain_s=0)`` while one job runs and others wait for the
        only worker: the waiting jobs never run, and their tokens — and the
        running one's, when its handler returns to a closed connection —
        are all released."""
        gate = threading.Event()
        ran = []

        def blocked(message: TransportMessage) -> TransportMessage:
            ran.append(bytes(message.payload))
            gate.wait(5.0)
            return message

        listener = TcpListener(blocked, workers=1, drain_s=0.0)
        sock = socket.create_connection(("127.0.0.1", listener.port), timeout=5.0)
        try:
            sock.sendall(b"".join(request_frame(i, b"job-%d" % i) for i in range(1, 6)))
            assert wait_until(lambda: listener.admission.inflight == 5)
            listener.close()
            assert listener.admission.inflight == 1  # only the running handler
            gate.set()
            assert wait_until(lambda: listener.admission.inflight == 0)
            assert ran == [b"job-1"]
        finally:
            gate.set()
            sock.close()

    def test_frame_then_half_header_is_answered_then_deadlined(self):
        """A partial header held over after a complete frame in the same
        read still starts the slow-loris clock."""
        listener = TcpListener(echo, read_deadline_s=0.3)
        closes = counter_value("server.reactor.deadline_closes")
        sock = socket.create_connection(("127.0.0.1", listener.port), timeout=5.0)
        try:
            sock.sendall(request_frame(1, b"whole") + b"\x00\x00")
            expected = request_frame(1, b"whole")
            got = b""
            while len(got) < len(expected):
                got += sock.recv(len(expected) - len(got))
            assert got == expected
            t0 = time.monotonic()
            assert sock.recv(1) == b"", "server should close the connection"
            assert 0.1 < time.monotonic() - t0 < 2.0
        finally:
            sock.close()
            listener.close()
        assert counter_value("server.reactor.deadline_closes") == closes + 1

    def test_worker_pool_is_spawned_on_demand(self):
        """A single caller uses at most two pool threads, whatever the
        ceiling: the one that reads and answers its request, and the one
        left waiting on the read epoll meanwhile."""
        listener = TcpListener(echo, workers=32)
        transport = TcpTransport(listener.url, pool_size=1)

        def workers() -> int:
            return sum(
                t.name.startswith("tcp-reactor-worker") for t in threading.enumerate()
            )

        try:
            before = workers()
            for i in range(1000):
                transport.request(TransportMessage("text/plain", b"%d" % i), timeout=5.0)
            assert 1 <= workers() - before <= 2
        finally:
            transport.close()
            listener.close()


def gauge_value(name: str) -> float:
    return metrics.registry.gauge(name).value()


def parked_handler(gate: threading.Event, parked: threading.Semaphore):
    """A handler that parks on *gate* when asked to (payload ``b"park"``)
    and echoes otherwise; *parked* counts the handlers that are waiting."""
    def handler(message: TransportMessage) -> TransportMessage:
        if bytes(message.payload) == b"park":
            parked.release()
            gate.wait(10.0)
        return TransportMessage(message.content_type, bytes(message.payload))

    return handler


def start_parked(url: str, n: int, parked: threading.Semaphore) -> list:
    """*n* callers, one socket each, whose requests park their handlers;
    returns once all *n* handlers are waiting."""
    transports, threads = [], []
    for _ in range(n):
        transport = TcpTransport(url, pool_size=1)
        thread = threading.Thread(
            target=lambda t=transport: t.request(
                TransportMessage("text/plain", b"park"), timeout=10.0
            ),
            daemon=True,
        )
        thread.start()
        transports.append(transport)
        threads.append(thread)
    for _ in range(n):
        assert parked.acquire(timeout=5.0), "handler never parked"
    return list(zip(transports, threads))


class TestProcessGauges:
    def test_gauges_sum_across_live_listeners(self):
        """``conns`` and ``inflight`` are process-wide: each listener moves
        them by its own deltas, so two live listeners add up, and one
        closing a connection leaves the other's count standing."""
        gate = threading.Event()
        parked = threading.Semaphore(0)
        tcp = TcpListener(parked_handler(gate, parked), workers=4)
        http = HttpListener(echo)
        conns0 = gauge_value("server.reactor.conns")
        inflight0 = gauge_value("server.reactor.inflight")
        socks = []
        try:
            socks = [
                socket.create_connection(("127.0.0.1", tcp.port), timeout=5.0),
                socket.create_connection(("127.0.0.1", tcp.port), timeout=5.0),
                socket.create_connection(("127.0.0.1", http.port), timeout=5.0),
            ]
            assert wait_until(lambda: gauge_value("server.reactor.conns") == conns0 + 3)
            # one request parked on each tcp socket: both count in flight
            for corr_id, sock in enumerate(socks[:2], start=1):
                sock.sendall(request_frame(corr_id, b"park"))
            for _ in range(2):
                assert parked.acquire(timeout=5.0)
            assert gauge_value("server.reactor.inflight") == inflight0 + 2
            socks.pop().close()  # the http listener's only connection
            assert wait_until(lambda: gauge_value("server.reactor.conns") == conns0 + 2)
            time.sleep(0.05)
            assert gauge_value("server.reactor.conns") == conns0 + 2
            gate.set()
            assert wait_until(lambda: gauge_value("server.reactor.inflight") == inflight0)
        finally:
            gate.set()
            for sock in socks:
                sock.close()
            tcp.close()
            http.close()
        assert wait_until(lambda: gauge_value("server.reactor.conns") == conns0)


class TestPoolReads:
    """What running requests on the threads that read them must not break."""

    def test_two_naps_on_one_channel_overlap(self):
        """Two 1 ms naps multiplexed on one socket finish together: the
        second request is handed to another pool thread, not run after the
        first by the thread that read both."""
        listener = TcpListener(slow_echo(0.001), workers=4)
        transport = TcpTransport(listener.url, pool_size=1)
        barrier = threading.Barrier(3, timeout=5.0)
        best = float("inf")

        def caller(tag: bytes) -> None:
            barrier.wait()
            reply = transport.request(TransportMessage("text/plain", tag), timeout=5.0)
            assert bytes(reply.payload) == tag
            barrier.wait()

        try:
            transport.request(TransportMessage("text/plain", b"warm"), timeout=5.0)
            for trial in range(20):
                threads = [
                    threading.Thread(target=caller, args=(b"%d-%d" % (trial, n),))
                    for n in range(2)
                ]
                for thread in threads:
                    thread.start()
                barrier.wait()
                t0 = time.perf_counter()
                barrier.wait()
                best = min(best, time.perf_counter() - t0)
                for thread in threads:
                    thread.join(5.0)
        finally:
            transport.close()
            listener.close()
        assert best < 0.0018, f"two 1 ms naps took {best * 1e3:.2f} ms at best"

    def test_parked_handler_does_not_delay_another_connection(self):
        """A handler parked on an Event holds one pool thread; echoes on
        another connection are read and answered by the others."""
        gate = threading.Event()
        parked = threading.Semaphore(0)
        listener = TcpListener(parked_handler(gate, parked), workers=4)
        other = None
        callers: list = []
        try:
            callers = start_parked(listener.url, 1, parked)
            other = TcpTransport(listener.url, pool_size=1)
            worst = 0.0
            for i in range(20):
                t0 = time.perf_counter()
                reply = other.request(TransportMessage("text/plain", b"e%d" % i), timeout=5.0)
                worst = max(worst, time.perf_counter() - t0)
                assert bytes(reply.payload) == b"e%d" % i
            assert worst < 0.05, f"an echo waited {worst * 1e3:.1f} ms behind a parked handler"
        finally:
            gate.set()
            if other is not None:
                other.close()
            for transport, thread in callers:
                thread.join(5.0)
                transport.close()
            listener.close()

    def test_flood_is_shed_while_every_worker_is_parked(self):
        """With every pool thread parked in a handler, the loop still reads
        the flood and sheds it at admission with typed busy replies, and no
        thread beyond the pool and the loop is started to do it."""
        gate = threading.Event()
        parked = threading.Semaphore(0)
        before = set(threading.enumerate())
        listener = TcpListener(parked_handler(gate, parked), workers=2, queue_max=0)
        flood = None
        callers = []
        peak = [0]
        flooding = threading.Event()

        def count_server_threads() -> None:
            while not flooding.is_set():
                live = set(threading.enumerate()) - before
                peak[0] = max(peak[0], sum(t.name.startswith("tcp-reactor") for t in live))
                time.sleep(0.001)

        sampler = threading.Thread(target=count_server_threads)
        sampler.start()
        try:
            callers = start_parked(listener.url, 2, parked)
            flood = TcpTransport(listener.url, pool_size=1)
            outcomes: list = []

            def flooder(n: int) -> None:
                t0 = time.monotonic()
                try:
                    flood.request(TransportMessage("text/plain", b"f%d" % n), timeout=5.0)
                    outcomes.append("ok")
                except ServerBusyError:
                    outcomes.append(time.monotonic() - t0)

            threads = [threading.Thread(target=flooder, args=(n,)) for n in range(16)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(5.0)
            assert len(outcomes) == 16
            assert "ok" not in outcomes
            assert max(outcomes) < 0.25
            flooding.set()
            sampler.join(5.0)
            assert peak[0] <= 2 + 1, f"{peak[0]} server threads for 2 workers and the loop"
        finally:
            flooding.set()
            gate.set()
            if flood is not None:
                flood.close()
            for transport, thread in callers:
                thread.join(5.0)
                transport.close()
            listener.close()


class TestThreadHygiene:
    @staticmethod
    def _closes_without_lingering_threads(start, use, close) -> None:
        before = set(threading.enumerate())
        server = start()
        try:
            use(server)
            spawned = set(threading.enumerate()) - before
            assert spawned, "the listener runs threads of its own"
        finally:
            close(server)
        assert wait_until(
            lambda: not any(t.is_alive() for t in spawned), timeout=1.0
        ), [t.name for t in spawned if t.is_alive()]

    def test_tcp_listener(self):
        def use(listener):
            transports = [TcpTransport(listener.url, pool_size=1) for _ in range(4)]
            threads = [
                threading.Thread(target=lambda t=t: [
                    t.request(TransportMessage("text/plain", b"x"), timeout=5.0)
                    for _ in range(20)
                ])
                for t in transports
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(10.0)
                assert not thread.is_alive()
            for transport in transports:
                transport.close()

        self._closes_without_lingering_threads(
            lambda: TcpListener(echo), use, lambda listener: listener.close()
        )

    def test_http_listener(self):
        def use(listener):
            transport = HttpTransport(listener.url)
            try:
                for _ in range(5):
                    transport.request(TransportMessage("text/plain", b"x"), timeout=5.0)
            finally:
                transport.close()

        self._closes_without_lingering_threads(
            lambda: HttpListener(echo), use, lambda listener: listener.close()
        )

    def test_mailbox_server(self):
        from repro.messaging import MailboxTcpClient, MailboxTcpServer, MessageBroker

        def use(server):
            with MailboxTcpClient(*server.address) as client:
                client.open("q")
                client.publish("q", b"m")
                sub = client.subscribe("q", subscriber="s")
                sub.ack(sub.receive(timeout=5.0))

        before = set(threading.enumerate())
        self._closes_without_lingering_threads(
            lambda: MailboxTcpServer(MessageBroker()), use, lambda server: server.close()
        )
        # the client's reader thread is not the server's, but it goes too
        assert wait_until(lambda: set(threading.enumerate()) <= before, timeout=1.0)


class TestCloseVersusRead:
    def test_dribblers_and_echoes_under_a_tight_read_deadline(self):
        """For 2 s, 64 connections at a time dribble a frame header byte by
        byte and are shut at ``read_deadline_s=0.05``, while 8 callers echo
        over connections they redial every 20 calls (so fds are freed and
        reused all along): every echo gets its own payload back, each
        dribbler is deadline-closed exactly once, and the fd table returns
        to where it started."""
        if not os.path.isdir("/proc/self/fd"):
            pytest.skip("needs /proc")
        fds_before = len(os.listdir("/proc/self/fd"))
        closes_before = counter_value("server.reactor.deadline_closes")
        listener = TcpListener(echo, workers=8, read_deadline_s=0.05)
        stop = threading.Event()
        failures: list = []
        echoed = [0] * 8

        def echo_caller(slot: int) -> None:
            n = 0
            try:
                while not stop.is_set():
                    transport = TcpTransport(listener.url, pool_size=1)
                    try:
                        for _ in range(20):
                            payload = b"%d:%d" % (slot, n)
                            reply = transport.request(
                                TransportMessage("text/plain", payload), timeout=5.0
                            )
                            if bytes(reply.payload) != payload:
                                failures.append((payload, bytes(reply.payload)))
                            n += 1
                    finally:
                        transport.close()
            except Exception as exc:  # noqa: BLE001 — surfaced below
                failures.append(exc)
            echoed[slot] = n

        def dribble(live: list) -> list:
            """One more header byte on every live dribbler; the ones the
            server has shut are closed and dropped."""
            still = []
            for sock, sent in live:
                try:
                    shut = sock.recv(1) == b""
                except BlockingIOError:
                    shut = False
                except OSError:
                    shut = True
                if not shut and sent < 3:
                    try:
                        sock.send(b"\x00")
                        sent += 1
                    except OSError:
                        pass
                if shut:
                    sock.close()
                else:
                    still.append((sock, sent))
            return still

        callers = [threading.Thread(target=echo_caller, args=(s,)) for s in range(8)]
        dialed = 0
        live: list = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave readers, writers and the sweep finely
        try:
            for thread in callers:
                thread.start()
            deadline = time.monotonic() + 2.0
            while time.monotonic() < deadline:
                while len(live) < 64:
                    sock = socket.create_connection(("127.0.0.1", listener.port), timeout=5.0)
                    sock.setblocking(False)
                    live.append((sock, 0))
                    dialed += 1
                live = dribble(live)
                time.sleep(0.002)
            stop.set()
            for thread in callers:
                thread.join(10.0)
            end = time.monotonic() + 5.0  # the last dribblers meet their deadline too
            while live and time.monotonic() < end:
                time.sleep(0.01)
                live = [(sock, 3) for sock, _ in dribble([(sock, 3) for sock, _ in live])]
            assert not live, f"{len(live)} dribblers were never shut"
        finally:
            sys.setswitchinterval(interval)
            stop.set()
            for sock, _ in live:
                sock.close()
            listener.close()
        assert not failures, failures[:5]
        assert all(echoed), echoed
        assert counter_value("server.reactor.deadline_closes") - closes_before == dialed
        assert wait_until(lambda: len(os.listdir("/proc/self/fd")) <= fds_before + 2)

    def test_sweep_shuts_a_socket_under_a_reader_and_the_loop_closes_it_after(self):
        """The read deadline passes while a thread holds the connection's
        read arm (its parser is stuck mid-feed): the sweep only shuts the
        socket down — the peer sees EOF, the fd stays open under the
        reader — and the loop closes it once the reader saw EOF and gave
        the arm back."""
        from repro.transport.reactor import ReactorServer

        holding, gate = threading.Event(), threading.Event()

        class StuckParser(FrameParser):
            def feed(self, data):
                if bytes(data) == b"\x00":  # the third header byte
                    holding.set()
                    gate.wait(5.0)
                return super().feed(data)

        server = ReactorServer(("127.0.0.1", 0), echo, StuckParser, read_deadline_s=0.05)
        closes = counter_value("server.reactor.deadline_closes")
        sock = socket.create_connection(server.address, timeout=5.0)
        try:
            sock.sendall(b"\x00\x00")  # half a header starts the clock
            assert wait_until(lambda: any(c.deadline for c in server._conns.values()))
            (conn,) = server._conns.values()
            sock.sendall(b"\x00")
            assert holding.wait(5.0)
            assert sock.recv(1) == b"", "the sweep should shut the socket down"
            assert counter_value("server.reactor.deadline_closes") == closes + 1
            assert not conn.closed and conn.sock.fileno() >= 0, "closed under its reader"
            gate.set()
            assert wait_until(lambda: conn.closed)
            assert counter_value("server.reactor.deadline_closes") == closes + 1
        finally:
            gate.set()
            sock.close()
            server.close()

    def test_requests_queued_before_the_sweep_are_not_admitted(self):
        """The sweep shuts a dribbler down while a thread holds its read arm
        and whole frames from the same peer wait in the kernel behind it.
        The socket still reads them after ``shutdown()``, but none is
        admitted or run: the next read ends the stream and the loop closes
        the fd."""
        from repro.transport.reactor import ReactorServer

        holding, gate = threading.Event(), threading.Event()
        ran = []

        class StuckParser(FrameParser):
            def feed(self, data):
                if bytes(data) == b"\x00":  # the third header byte
                    holding.set()
                    gate.wait(5.0)
                return super().feed(data)

        def counting_echo(message):
            ran.append(1)
            return echo(message)

        server = ReactorServer(
            ("127.0.0.1", 0), counting_echo, StuckParser, read_deadline_s=0.05
        )
        admitted = counter_value("server.reactor.admitted")
        frame = request_frame(1, b"x" * 64)
        sock = socket.create_connection(server.address, timeout=5.0)
        try:
            sock.sendall(frame[:2])  # half a header starts the clock
            assert wait_until(lambda: any(c.deadline for c in server._conns.values()))
            (conn,) = server._conns.values()
            sock.sendall(frame[2:3])
            assert holding.wait(5.0)
            sock.sendall(frame[3:] + frame * 16)  # queued behind the held arm
            assert sock.recv(1) == b"", "the sweep should shut the socket down"
            gate.set()
            assert wait_until(lambda: conn.closed), "a shut socket was kept open"
            assert counter_value("server.reactor.admitted") == admitted
            assert not ran
        finally:
            gate.set()
            sock.close()
            server.close()

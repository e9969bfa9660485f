"""Framed TCP transport — the XDR binding's "direct socket level connections".

Wire format per message, protocol v2 (both directions)::

    uint32 BE  total frame length (excluding these 4 bytes)
    uint64 BE  correlation id (echoed verbatim in the response frame)
    uint16 BE  content-type length |ct|
    |ct| bytes content type (ASCII)
    uint8      status (requests: 0; responses: 0 = ok, 1 = fault)
    payload    remaining bytes

The correlation id lets many in-flight requests share one socket: the
client demultiplexes response frames back to their callers by id, so a
slow request no longer blocks the requests behind it (no head-of-line
blocking).  A :class:`TcpTransport` keeps a small bounded pool of such
multiplexed channels per peer and picks the least-loaded one per call —
Harness components still open a near-minimal "number of entities that
need to be traversed" (one to a few sockets per peer), but concurrent
callers are never serialized client-side.

The frame path is zero-copy where it matters: writes are scatter-gather
(``sendmsg`` of header + payload, no concatenation), and payloads are
handed to codecs as ``memoryview`` slices of the frame's buffer.  Reads go
through one reused receive buffer per reader (:class:`FrameReader` on the
client, the reactor's loop-owned buffer on the server) into the same
:class:`FrameParser`: a small frame — header and body — arrives in one
``recv_into`` and is copied out once; a frame that is not all there gets a
buffer of its own and the rest of it lands there in place.

A request that times out simply abandons its correlation id — the late
reply, if it ever arrives, is demuxed to a missing id and dropped, so
the connection stays healthy instead of being poisoned.  Only a peer
that stalls *mid-frame* (framing can no longer be trusted) kills the
channel; the pool then dials a fresh one for the next caller.

Pending entries are additionally bounded by a deadline sweep: a peer
that dies *without* closing the socket (kill -9, cable pull, silent
black hole) leaves the connection open and never answers, so a caller
with ``timeout=None`` — and its correlation-id table entry — would
otherwise wait forever.  Every entry carries an expiry
(``pending_max_s`` after registration, env ``REPRO_TCP_PENDING_MAX_S``)
and whichever caller holds the read lease sweeps expired entries,
failing them with :class:`~repro.util.errors.HarnessTimeoutError`.
"""

from __future__ import annotations

import os
import select
import socket
import socketserver
import struct
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor

from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.transport import reactor as _reactor
from repro.transport.base import RequestHandler, TransportMessage, parse_url
from repro.util.errors import (
    HarnessTimeoutError,
    ServerBusyError,
    TransportClosedError,
    TransportError,
)

__all__ = [
    "TcpListener",
    "TcpTransport",
    "FrameParser",
    "FrameReader",
    "DEFAULT_POOL_SIZE",
    "DEFAULT_PENDING_MAX_S",
    "PROTOCOL_VERSION",
    "STATUS_OK",
    "STATUS_FAULT",
    "STATUS_BUSY",
]

PROTOCOL_VERSION = 2

_HEADER = struct.Struct(">I")   # frame length
_META = struct.Struct(">QH")    # correlation id, content-type length
_MIN_BODY = _META.size + 1      # meta + status byte, empty content type

STATUS_OK = 0
STATUS_FAULT = 1
#: The request was shed at admission (DESIGN.md §13): the server answered
#: immediately instead of queueing.  Clients surface this as
#: :class:`~repro.util.errors.ServerBusyError`; pre-reactor peers never
#: send it, so plain v2 decoders are unaffected.
STATUS_BUSY = 2

#: Status-byte flag marking a frame that carries a trace block between the
#: status byte and the payload (uint16 BE block length, then the block —
#: see :mod:`repro.obs.trace`).  Pre-observability peers never set it, so
#: plain v2 frames remain valid; decoders strip it before acting on status.
TRACE_FLAG = 0x80
_TLEN = struct.Struct(">H")

# Pool and demux accounting (process-wide; DESIGN.md §10 names them).
_DIALS = _metrics.registry.counter("tcp.client.dials")
_CHANNELS = _metrics.registry.gauge("tcp.client.channels")
_CHANNEL_FAILURES = _metrics.registry.counter("tcp.client.channel_failures")
_LATE_DROPS = _metrics.registry.counter("tcp.client.late_drops")
_SWEPT = _metrics.registry.counter("tcp.client.swept")
_SERVED_INLINE = _metrics.registry.counter("tcp.server.inline")
_SERVED_OFFLOADED = _metrics.registry.counter("tcp.server.offloaded")

#: Channels per peer a :class:`TcpTransport` may open (least-loaded pick).
try:
    DEFAULT_POOL_SIZE = max(1, int(os.environ.get("REPRO_TCP_POOL_SIZE", "2")))
except ValueError:
    DEFAULT_POOL_SIZE = 2

#: Budget for a peer that stalls mid-frame before the channel is poisoned.
_FRAME_GRACE_S = 5.0

#: Size of a :class:`FrameReader`'s reused receive buffer (one per client
#: socket); frames up to this size arrive in one ``recv_into``.
_RECV_BUFFER = 16 * 1024

#: Ceiling on how long a pending reply may sit unanswered before the sweep
#: fails it with :class:`HarnessTimeoutError` — the bound on correlation-id
#: table growth when a peer dies without closing the socket.  ``0`` disables.
try:
    DEFAULT_PENDING_MAX_S = max(0.0, float(os.environ.get("REPRO_TCP_PENDING_MAX_S", "60")))
except ValueError:
    DEFAULT_PENDING_MAX_S = 60.0


# -- frame primitives ---------------------------------------------------------


def _send_buffers(sock: socket.socket, buffers, grace_s: float = _FRAME_GRACE_S) -> None:
    """Write *buffers* fully, scatter-gather, without concatenating them.

    Resumable across partial sends, across a full buffer on a non-blocking
    socket (waits for room) and across ``socket.timeout`` on a blocking
    one; only *grace_s* with zero forward progress raises
    ``socket.timeout``.
    """
    views = _reactor._gather(buffers)
    stalled_since = None
    while views:
        try:
            sent = sock.sendmsg(views)
        except InterruptedError:
            continue
        except (BlockingIOError, socket.timeout) as exc:
            now = time.monotonic()
            if stalled_since is None:
                stalled_since = now
            left = grace_s - (now - stalled_since)
            if left <= 0:
                raise socket.timeout("peer stopped reading mid-frame") from None
            if isinstance(exc, BlockingIOError):
                room = select.poll()
                room.register(sock, select.POLLOUT)
                room.poll(left * 1e3)
            continue
        if sent:
            stalled_since = None
            _reactor._consume(views, sent)


def _frame_prefix(
    corr_id: int, content_type: str, status: int, payload_len: int, trace: bytes = b""
) -> bytes:
    ct = content_type.encode("ascii")
    if trace:
        status |= TRACE_FLAG
        length = _META.size + len(ct) + 1 + _TLEN.size + len(trace) + payload_len
        return (
            _HEADER.pack(length) + _META.pack(corr_id, len(ct)) + ct
            + bytes((status,)) + _TLEN.pack(len(trace)) + trace
        )
    length = _META.size + len(ct) + 1 + payload_len
    return _HEADER.pack(length) + _META.pack(corr_id, len(ct)) + ct + bytes((status,))


def _write_frame(
    sock: socket.socket, corr_id: int, message: TransportMessage, status: int = STATUS_OK
) -> None:
    payload = message.payload
    prefix = _frame_prefix(corr_id, message.content_type, status, len(payload))
    _send_buffers(sock, (prefix, payload))


def _read_exact(sock: socket.socket, count: int) -> memoryview:
    """Read exactly *count* bytes via ``recv_into`` on one preallocated buffer."""
    buf = bytearray(count)
    view = memoryview(buf)
    got = 0
    while got < count:
        n = sock.recv_into(view[got:], count - got)
        if not n:
            raise TransportClosedError("peer closed the connection mid-frame")
        got += n
    return view


def _parse_body(body: memoryview) -> tuple[int, TransportMessage, int, bytes | None]:
    corr_id, ct_len = _META.unpack_from(body)
    ct_end = _META.size + ct_len
    if ct_end + 1 > len(body):
        raise TransportError("corrupt frame: content type overruns body")
    content_type = str(body[_META.size:ct_end], "ascii")
    status = body[ct_end]
    payload_start = ct_end + 1
    trace: bytes | None = None
    if status & TRACE_FLAG:
        status &= ~TRACE_FLAG
        if payload_start + _TLEN.size > len(body):
            raise TransportError("corrupt frame: trace block length overruns body")
        (trace_len,) = _TLEN.unpack_from(body, payload_start)
        payload_start += _TLEN.size
        if payload_start + trace_len > len(body):
            raise TransportError("corrupt frame: trace block overruns body")
        trace = bytes(body[payload_start:payload_start + trace_len])
        payload_start += trace_len
    return corr_id, TransportMessage(content_type, body[payload_start:]), status, trace


def _read_frame(sock: socket.socket) -> tuple[int, TransportMessage, int, bytes | None]:
    (length,) = _HEADER.unpack(_read_exact(sock, _HEADER.size))
    if length < _MIN_BODY:
        raise TransportError(f"short frame: {length} bytes")
    return _parse_body(_read_exact(sock, length))


# -- server side --------------------------------------------------------------

#: Payload of a STATUS_BUSY frame; clients raise it as ServerBusyError.
_BUSY_PAYLOAD = b"server at capacity: request shed at admission"


def _handle_to_frame(
    app_handler, corr_id: int, message: TransportMessage, trace: bytes | None
):
    """Run the request pipeline and encode the response frame buffers.

    Shared by both server cores (reactor workers and thread-per-connection
    handlers).  The trace block is stashed un-parsed: it is decoded only if
    the service reads its context (or when the server span finalizes on the
    finisher thread), and a mangled block materializes as "no context".
    """
    token = None
    if _trace.ENABLED and trace is not None:
        token = _trace.activate_wire(trace, _trace.from_bytes)
    try:
        response = app_handler(message)
        status = STATUS_OK
    except Exception as exc:  # deliver faults instead of dropping the socket
        response = TransportMessage("text/plain", str(exc).encode("utf-8"))
        status = STATUS_FAULT
    finally:
        if token is not None:
            _trace.deactivate(token)
    payload = response.payload
    prefix = _frame_prefix(corr_id, response.content_type, status, len(payload))
    return (prefix, payload)


class _FrameJob(_reactor.Job):
    """One reassembled v2 frame awaiting decode/dispatch on the pool."""

    __slots__ = ("corr_id", "message", "trace")

    def __init__(self, corr_id: int, message: TransportMessage, trace: bytes | None):
        self.corr_id = corr_id
        self.message = message
        self.trace = trace

    def run(self, app_handler):
        return _handle_to_frame(app_handler, self.corr_id, self.message, self.trace)

    def busy_reply(self):
        return (
            _frame_prefix(self.corr_id, "text/plain", STATUS_BUSY, len(_BUSY_PAYLOAD)),
            _BUSY_PAYLOAD,
        )


class FrameParser(_reactor.MessageParser):
    """Incremental v2 frame reassembly for the reactor's recv loop.

    Every complete frame in the bytes the reactor received becomes a job,
    its body copied out once.  A frame that is not all there yet gets one
    preallocated body buffer — after its length passed the minimum and
    maximum checks — and the rest of it lands there in place across
    however many passes the kernel needs, so bulk payloads keep the
    zero-copy discipline and reach codecs as a ``memoryview`` of that
    buffer.  A header cut short is held over until the next pass.
    """

    __slots__ = ("_held", "_body", "_got", "_max")

    #: what a reassembled frame becomes: ``job_class(corr_id, message, trace)``
    job_class = _FrameJob

    def __init__(self, max_message: int = _reactor.DEFAULT_MAX_MESSAGE):
        self._held = b""  # a frame's first bytes, short of a whole header
        self._body: memoryview | None = None
        self._got = 0
        self._max = max_message

    @property
    def mid_message(self) -> bool:
        return self._body is not None or bool(self._held)

    def _job(self, body: memoryview):
        corr_id, message, _status, trace = _parse_body(body)
        return self.job_class(corr_id, message, trace)

    def body_buffer(self) -> memoryview | None:
        body = self._body
        return None if body is None else body[self._got:]

    def body_filled(self, n: int) -> list:
        self._got += n
        body = self._body
        if self._got < len(body):
            return []
        self._body = None
        return [self._job(body)]

    def feed(self, data: memoryview) -> list:
        if self._held:
            data = memoryview(self._held + bytes(data))
            self._held = b""
        jobs = []
        pos, end = 0, len(data)
        while end - pos >= _HEADER.size:
            (length,) = _HEADER.unpack_from(data, pos)
            if length < _MIN_BODY:
                raise TransportError(f"short frame: {length} bytes")
            if length > self._max:
                raise TransportError(
                    f"frame of {length} bytes exceeds the {self._max} byte cap"
                )
            pos += _HEADER.size
            if end - pos < length:
                body = memoryview(bytearray(length))
                body[: end - pos] = data[pos:end]
                self._body, self._got = body, end - pos
                return jobs
            jobs.append(self._job(memoryview(bytes(data[pos:pos + length]))))
            pos += length
        self._held = bytes(data[pos:end])
        return jobs


class _ReplyParser(FrameParser):
    """The same reassembly for the client side: frames come out as
    ``(corr_id, message, status, trace)``, under the listener's byte cap."""

    __slots__ = ()

    def _job(self, body: memoryview):
        return _parse_body(body)


class FrameReader:
    """Buffered reader of v2 frames from one client socket.

    Receives the way the reactor does — through one small reused buffer
    into a :class:`FrameParser` — so a reply that fits the buffer, header
    and body, costs one ``poll`` and one ``recv_into``, frames that arrive
    together are split out of the same read, and a frame that is not all
    there gets a buffer of its own where the rest lands in place.  The
    socket is switched to non-blocking mode: every wait is an explicit
    ``poll`` with the caller's budget, never a socket timeout.
    """

    __slots__ = ("_sock", "_poll", "_buf", "_parser", "_ready")

    def __init__(self, sock: socket.socket):
        sock.setblocking(False)
        self._sock = sock
        self._poll = select.poll()
        self._poll.register(sock, select.POLLIN)
        self._buf = memoryview(bytearray(_RECV_BUFFER))
        self._parser = _ReplyParser()
        self._ready: deque = deque()  # frames read ahead of their read_frame

    def read_frame(
        self, timeout: float | None = None
    ) -> tuple[int, TransportMessage, int, bytes | None]:
        """Return the next frame as ``(corr_id, message, status, trace)``.

        The frame's first byte may wait up to *timeout* (``None``: forever);
        a clean ``socket.timeout`` there consumed nothing.  After that the
        peer owes a whole frame: each further read gets a grace budget, and
        stalling mid-frame is a framing failure (``TransportClosedError``).
        """
        ready = self._ready
        parser = self._parser
        while not ready:
            started = parser.mid_message
            view = parser.body_buffer()
            shared = view is None
            if shared:
                view = self._buf
            wait = _FRAME_GRACE_S if started else timeout
            if not self._poll.poll(None if wait is None else max(0.0, wait) * 1e3):
                if started:
                    raise TransportClosedError("peer stalled mid-frame")
                raise socket.timeout("timed out")
            try:
                n = self._sock.recv_into(view)
            except (BlockingIOError, InterruptedError):
                continue  # spurious wake-up
            if not n:
                raise TransportClosedError(
                    "peer closed the connection" + (" mid-frame" if started else "")
                )
            ready.extend(parser.feed(view[:n]) if shared else parser.body_filled(n))
        return ready.popleft()


class _BoundedHandler(socketserver.BaseRequestHandler):
    """Thread-per-connection handler (the pre-reactor A/B baseline)."""

    def handle(self) -> None:  # one connection, many (possibly pipelined) frames
        server: "_ThreadedServer" = self.server  # type: ignore[assignment]
        sock: socket.socket = self.request
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        wlock = threading.Lock()  # response frames must not interleave
        busy = [0]  # requests currently executing on the worker pool
        conn_key = id(self)

        def write(buffers) -> None:
            try:
                with wlock:
                    _send_buffers(sock, buffers)
            except (ConnectionError, OSError):
                pass

        def offloaded(corr_id, message, trace, token) -> None:
            try:
                write(_handle_to_frame(server.app_handler, corr_id, message, trace))
            finally:
                token.release()
                with wlock:
                    busy[0] -= 1

        while True:
            try:
                corr_id, message, _status, trace = _read_frame(sock)
            except (TransportClosedError, TransportError, ConnectionError, OSError):
                return
            # Pipelined requests run concurrently on the worker pool; a lone
            # request is answered inline, sparing it the thread-pool hop.
            try:
                more, _, _ = select.select([sock], [], [], 0)
            except (OSError, ValueError):
                return
            with wlock:
                inline = not more and not busy[0]
            if inline:
                _SERVED_INLINE.inc()
                write(_handle_to_frame(server.app_handler, corr_id, message, trace))
                continue
            # the offload queue is admission-gated: a flood answers typed
            # busy frames instead of growing the executor queue unboundedly
            token = server.admission.try_admit(conn_key)
            if token is None:
                write(
                    (
                        _frame_prefix(
                            corr_id, "text/plain", STATUS_BUSY, len(_BUSY_PAYLOAD)
                        ),
                        _BUSY_PAYLOAD,
                    )
                )
                continue
            with wlock:
                busy[0] += 1
            _SERVED_OFFLOADED.inc()
            try:
                server.executor.submit(offloaded, corr_id, message, trace, token)
            except RuntimeError:  # server shutting down
                token.release()
                return


class _ThreadedServer(socketserver.ThreadingTCPServer):
    daemon_threads = True
    allow_reuse_address = True
    # stock backlog is 5; hundreds of near-simultaneous dials (the C9 scale
    # bench) would overflow it into SYN retries that skew every timing
    request_queue_size = 128

    def __init__(
        self,
        address,
        app_handler: RequestHandler,
        workers: int = 32,
        queue_max: int | None = None,
        per_conn_max: int | None = None,
    ):
        super().__init__(address, _BoundedHandler)
        self.app_handler = app_handler
        self.admission = _reactor.AdmissionController(workers, queue_max, per_conn_max)
        self.executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="tcp-worker"
        )

    def server_close(self) -> None:
        super().server_close()
        self.executor.shutdown(wait=False, cancel_futures=True)


def _reactor_default() -> bool:
    return os.environ.get("REPRO_SERVER_REACTOR", "1") not in ("0", "false", "no")


class TcpListener:
    """A framed-TCP server endpoint; URL scheme ``tcp://host:port``.

    By default the listener runs on the event-loop core
    (:mod:`repro.transport.reactor`): one reactor thread multiplexes every
    socket, ``workers`` bounds the pool that runs decode/dispatch, and
    admission control (``queue_max``, ``per_conn_max`` — env
    ``REPRO_SERVER_QUEUE_MAX`` / ``REPRO_SERVER_PER_CONN_MAX``) sheds
    over-capacity requests with typed busy frames.  ``read_deadline_s``
    bounds how long a peer may take to finish a started frame (slow-loris
    protection).  ``reactor=False`` (env ``REPRO_SERVER_REACTOR=0``)
    restores the thread-per-connection server — kept as the A/B baseline
    for ``benchmarks/bench_c9_concurrency.py`` — whose offload queue is
    admission-gated by the same controller.
    """

    def __init__(
        self,
        handler: RequestHandler,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 32,
        reactor: bool | None = None,
        queue_max: int | None = None,
        per_conn_max: int | None = None,
        read_deadline_s: float | None = None,
        drain_s: float = 1.0,
    ):
        self._drain_s = drain_s
        self._reactor = _reactor_default() if reactor is None else reactor
        if self._reactor:
            self._server = _reactor.ReactorServer(
                (host, port),
                handler,
                FrameParser,
                workers=workers,
                queue_max=queue_max,
                per_conn_max=per_conn_max,
                read_deadline_s=read_deadline_s,
                name="tcp-reactor",
            )
            self._host, self._port = self._server.address
            self._thread = None
        else:
            self._server = _ThreadedServer(
                (host, port), handler, workers=workers,
                queue_max=queue_max, per_conn_max=per_conn_max,
            )
            self._host, self._port = self._server.server_address[:2]
            self._thread = threading.Thread(
                target=self._server.serve_forever,
                kwargs={"poll_interval": 0.05},
                name=f"tcp-listener-{self._port}",
                daemon=True,
            )
            self._thread.start()

    @property
    def url(self) -> str:
        return f"tcp://{self._host}:{self._port}"

    @property
    def port(self) -> int:
        return self._port

    @property
    def admission(self) -> "_reactor.AdmissionController":
        """The live admission controller (shared vocabulary across cores)."""
        return self._server.admission

    def close(self) -> None:
        if self._reactor:
            self._server.close(self._drain_s)
        else:
            self._server.shutdown()
            self._server.server_close()


# -- client side --------------------------------------------------------------


class _Pending:
    """One in-flight request awaiting its correlated reply."""

    __slots__ = ("done", "message", "status", "error", "expires_at")

    def __init__(self, expires_at: float | None = None):
        self.done = False
        self.message: TransportMessage | None = None
        self.status = STATUS_OK
        self.error: Exception | None = None
        self.expires_at = expires_at  # monotonic deadline for the sweep


class _Channel:
    """One multiplexed socket: many in-flight requests, demuxed by id.

    There is no dedicated reader thread.  Callers take turns reading
    (leader/follower): a lone request keeps the classic send-then-recv-on-
    this-thread fast path — no extra context switch on the latency-critical
    single-caller case — while under concurrency whichever caller holds the
    read lease demultiplexes reply frames to the others by correlation id.
    """

    def __init__(self, url: str, sock: socket.socket, pending_max_s: float = 0.0):
        self._url = url
        self._sock = sock
        self._pending_max_s = max(0.0, pending_max_s)
        self._cv = threading.Condition()
        self._wlock = threading.Lock()
        self._pending: dict[int, _Pending] = {}
        self._next_id = 1
        self._reading = False  # a leader currently owns recv
        self._dead = False
        self._closing = False
        self._close_reason = "transport closed"
        self._reader = FrameReader(sock)  # used by whoever leads

    @property
    def in_flight(self) -> int:
        return len(self._pending)

    @property
    def dead(self) -> bool:
        return self._dead

    def request(
        self, message: TransportMessage, timeout: float | None
    ) -> tuple[TransportMessage, int]:
        corr_id, pending = self._register()
        try:
            trace = b""
            if _trace.ENABLED:
                ctx = _trace.current()
                if ctx is not None:
                    trace = _trace.to_bytes(ctx)
            payload = message.payload
            prefix = _frame_prefix(
                corr_id, message.content_type, STATUS_OK, len(payload), trace
            )
            with self._wlock:
                _send_buffers(self._sock, (prefix, payload))
        except (socket.timeout, ConnectionError, OSError) as exc:
            self._abandon(corr_id)
            self._fail(f"connection to {self._url} lost: {exc}")
            raise TransportClosedError(f"connection to {self._url} lost: {exc}") from exc
        return self._await(corr_id, pending, timeout)

    # -- demultiplexing ----------------------------------------------------

    def _register(self) -> tuple[int, _Pending]:
        with self._cv:
            if self._dead or self._closing:
                raise TransportClosedError(self._close_reason)
            corr_id = self._next_id
            self._next_id += 1
            expires_at = None
            if self._pending_max_s > 0:
                expires_at = time.monotonic() + self._pending_max_s
            pending = _Pending(expires_at)
            self._pending[corr_id] = pending
            return corr_id, pending

    def _abandon(self, corr_id: int) -> None:
        with self._cv:
            self._pending.pop(corr_id, None)

    def _await(
        self, corr_id: int, pending: _Pending, timeout: float | None
    ) -> tuple[TransportMessage, int]:
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            lead = False
            with self._cv:
                if pending.done:
                    break
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        # abandoning the id keeps the channel healthy: the
                        # late reply is demuxed to a missing id and dropped
                        self._pending.pop(corr_id, None)
                        raise HarnessTimeoutError(f"request to {self._url} timed out")
                if not self._reading:
                    self._reading = True
                    lead = True
                else:
                    self._cv.wait(remaining)
                    continue
            try:
                self._lead(pending, deadline)
            finally:
                with self._cv:
                    self._reading = False
                    self._cv.notify_all()
        if pending.error is not None:
            raise pending.error
        return pending.message, pending.status  # type: ignore[return-value]

    def _sweep_expired(self, now: float) -> float | None:
        """Fail every pending entry whose expiry has passed; return the
        earliest expiry still ahead (``None`` when nothing is pending).

        This is the bound on correlation-id table growth when the peer dies
        without closing the socket: the entry is removed and its caller is
        woken with :class:`HarnessTimeoutError` instead of waiting forever.
        Expiries are assigned under the lock that inserts the entry, so they
        rise in the dict's insertion order: the sweep stops at the first
        entry still alive, and that entry's expiry is the earliest.
        """
        with self._cv:
            pending = self._pending
            swept = False
            earliest = None
            while pending:
                corr_id = next(iter(pending))
                entry = pending[corr_id]
                if entry.expires_at > now:
                    earliest = entry.expires_at
                    break
                del pending[corr_id]
                entry.error = HarnessTimeoutError(
                    f"request to {self._url} unanswered after "
                    f"{self._pending_max_s}s; pending entry swept"
                )
                entry.done = True
                _SWEPT.inc()
                swept = True
            if swept:
                self._cv.notify_all()
            return earliest

    def _lead(self, pending: _Pending, deadline: float | None) -> None:
        """Read frames and dispatch them until *pending* is resolved.

        Never raises: socket failures poison the channel (waking every
        waiter with an error), a between-frames deadline simply returns so
        :meth:`_await` can time the caller out and hand the lease over.
        Each read waits at most until the caller's deadline *or* the
        earliest pending expiry, whichever comes first, so the sweep runs
        even when every caller passed ``timeout=None``.
        """
        while not pending.done:
            now = time.monotonic()
            bound = None
            if self._pending_max_s > 0:
                expiry = self._sweep_expired(now)
                if pending.done:  # our own entry may have just been swept
                    return
                if expiry is not None:
                    bound = expiry - now
            if deadline is not None:
                remaining = deadline - now
                if remaining <= 0:
                    return
                bound = remaining if bound is None else min(bound, remaining)
            try:
                frame = self._reader.read_frame(bound)
            except socket.timeout:
                if deadline is not None and time.monotonic() >= deadline:
                    return  # caller's deadline hit; _await raises for it
                continue  # sweep horizon reached: expire entries, keep reading
            except (TransportClosedError, TransportError, ConnectionError, OSError) as exc:
                self._fail(f"connection to {self._url} lost: {exc}")
                return
            except Exception as exc:  # defensive: never leave waiters hanging
                self._fail(f"reader failed on {self._url}: {exc}")
                return
            self._dispatch(*frame)

    def _dispatch(
        self, corr_id: int, message: TransportMessage, status: int,
        trace: bytes | None = None,
    ) -> None:
        with self._cv:
            pending = self._pending.pop(corr_id, None)
            if pending is None:
                _LATE_DROPS.inc()
                return  # late reply for a timed-out request: dropped
            pending.message = message
            pending.status = status
            pending.done = True
            self._cv.notify_all()

    def _fail(self, reason: str) -> None:
        with self._cv:
            if not self._dead:
                self._dead = True
                self._close_reason = reason
                _CHANNELS.dec()
                if not self._closing:
                    _CHANNEL_FAILURES.inc()
                for pending in self._pending.values():
                    pending.error = TransportClosedError(reason)
                    pending.done = True
                self._pending.clear()
                self._cv.notify_all()
        try:
            # shutdown first: a leader parked in poll() on this socket wakes
            # now, where a bare close() would leave it to its timeout
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass

    def close(self, drain_s: float = 1.0) -> None:
        """Stop accepting requests, drain in-flight ones, then close."""
        with self._cv:
            if self._dead:
                return
            self._closing = True
            deadline = time.monotonic() + max(0.0, drain_s)
            while self._pending:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._cv.wait(remaining)
        self._fail("transport closed")


class TcpTransport:
    """Client side of the framed-TCP transport.

    Keeps a bounded pool of up to ``pool_size`` multiplexed channels to the
    peer, dialed lazily and picked least-loaded per request, so concurrent
    callers share sockets without head-of-line blocking.  ``close`` drains
    in-flight requests gracefully before tearing channels down.

    ``pending_max_s`` caps how long any correlation-id entry may wait for
    its reply (default :data:`DEFAULT_PENDING_MAX_S`, env
    ``REPRO_TCP_PENDING_MAX_S``); a peer that dies without closing the
    socket therefore fails waiting callers with
    :class:`~repro.util.errors.HarnessTimeoutError` instead of leaking
    entries and hanging ``timeout=None`` callers forever.  ``0`` disables
    the sweep.

    ``multiplex=False`` restores the protocol-v1 *behaviour* — one channel,
    one request in flight at a time — and exists for A/B benchmarking the
    serialized wire path (``benchmarks/bench_c9_concurrency.py``).
    """

    def __init__(
        self,
        url: str,
        connect_timeout: float = 5.0,
        pool_size: int | None = None,
        multiplex: bool = True,
        drain_timeout: float = 1.0,
        pending_max_s: float | None = None,
    ):
        scheme, rest = parse_url(url)
        if scheme != "tcp":
            raise TransportError(f"not a tcp url: {url!r}")
        host, _, port_text = rest.rpartition(":")
        try:
            port = int(port_text)
        except ValueError as exc:
            raise TransportError(f"bad tcp url (no port): {url!r}") from exc
        self._url = url
        self._address = (host, port)
        self._connect_timeout = connect_timeout
        self._drain_timeout = drain_timeout
        self._pending_max_s = max(
            0.0, DEFAULT_PENDING_MAX_S if pending_max_s is None else pending_max_s
        )
        self._pool_size = max(1, pool_size if pool_size is not None else DEFAULT_POOL_SIZE)
        if not multiplex:
            self._pool_size = 1
        self._serial_lock = None if multiplex else threading.Lock()
        self._lock = threading.Lock()
        self._channels: list[_Channel] = []
        self._closed = False
        # dial eagerly so an unreachable peer fails at construction
        self._channels.append(self._dial())

    def _dial(self) -> _Channel:
        try:
            sock = socket.create_connection(self._address, timeout=self._connect_timeout)
        except OSError as exc:
            raise TransportError(f"cannot connect to {self._url}: {exc}") from exc
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        _DIALS.inc()
        _CHANNELS.inc()
        return _Channel(self._url, sock, pending_max_s=self._pending_max_s)

    def _pick(self) -> _Channel:
        with self._lock:
            if self._closed:
                raise TransportClosedError("transport closed")
            if any(channel.dead for channel in self._channels):
                self._channels = [c for c in self._channels if not c.dead]
            for channel in self._channels:
                if channel.in_flight == 0:
                    return channel
            if len(self._channels) < self._pool_size:
                channel = self._dial()
                self._channels.append(channel)
                return channel
            if not self._channels:
                channel = self._dial()
                self._channels.append(channel)
                return channel
            return min(self._channels, key=lambda c: c.in_flight)

    def request(self, message: TransportMessage, timeout: float | None = None) -> TransportMessage:
        if self._closed:
            raise TransportClosedError("transport closed")
        if self._serial_lock is not None:
            with self._serial_lock:  # protocol-v1 behaviour: one call at a time
                response, status = self._pick().request(message, timeout)
        else:
            response, status = self._pick().request(message, timeout)
        if status == STATUS_BUSY:
            raise ServerBusyError(
                f"{self._url} shed the request: "
                f"{bytes(response.payload).decode('utf-8', 'replace')}"
            )
        if status == STATUS_FAULT:
            raise TransportError(
                f"remote fault from {self._url}: "
                f"{bytes(response.payload).decode('utf-8', 'replace')}"
            )
        return response

    def close(self) -> None:
        """Graceful drain: no new requests, in-flight ones get to finish."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            channels = self._channels[:]
            self._channels.clear()
        for channel in channels:
            channel.close(self._drain_timeout)

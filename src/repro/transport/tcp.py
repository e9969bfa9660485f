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
callers are never serialized client-side.  :func:`connect` dials one
channel; the mailbox binding's client is one such channel with a push
sink, which takes the frames a server writes unasked.

The frame path is zero-copy where it matters: writes are scatter-gather
(``sendmsg`` of header + payload, no concatenation; one call takes a small
frame whole), and large payloads are handed to codecs as ``memoryview``
slices of the frame's buffer.  Reads go through one reused receive buffer
per reader (:class:`FrameReader` on the client, each reading thread's own
buffer on the server) into the same :class:`FrameParser`: a small frame —
header and body — arrives in one ``recv_into``, its header is parsed in
place and its payload copied out once; a frame that is not all there gets
a buffer of its own and the rest of it lands there in place.

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
(``pending_max_s`` after registration) and whichever caller holds the read lease sweeps expired entries,
failing them with :class:`~repro.util.errors.HarnessTimeoutError`.
"""

from __future__ import annotations

import functools
import select
import socket
import struct
import threading
import time
from collections import deque

from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.transport import reactor as _reactor
from repro.transport.base import TransportMessage, parse_address
from repro.util.errors import (
    HarnessTimeoutError,
    ServerBusyError,
    TransportClosedError,
    TransportError,
)

__all__ = [
    "TcpListener",
    "TcpTransport",
    "connect",
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

#: Channels per peer a :class:`TcpTransport` may open (least-loaded pick).
DEFAULT_POOL_SIZE = 2

#: Budget for a peer that stalls mid-frame before the channel is poisoned.
_FRAME_GRACE_S = 5.0

#: Size of a :class:`FrameReader`'s reused receive buffer (one per client
#: socket); frames up to this size arrive in one ``recv_into``.
_RECV_BUFFER = 16 * 1024

#: Ceiling on how long a pending reply may sit unanswered before the sweep
#: fails it with :class:`HarnessTimeoutError` — the bound on correlation-id
#: table growth when a peer dies without closing the socket.  ``0`` disables.
DEFAULT_PENDING_MAX_S = 60.0


# -- frame primitives ---------------------------------------------------------


def _send_buffers(sock: socket.socket, buffers, grace_s: float = _FRAME_GRACE_S) -> None:
    """Write *buffers* fully, scatter-gather, without concatenating them.

    One ``sendmsg`` takes a small frame whole.  Beyond that the write on
    the non-blocking *sock* is resumable across partial sends and across a
    full buffer (it waits for room); only *grace_s* with zero forward
    progress raises ``socket.timeout``.
    """
    views = _reactor._send(sock, buffers)
    stalled_since = None
    while views:
        try:
            sent = sock.sendmsg(views)
        except InterruptedError:
            continue
        except BlockingIOError:
            now = time.monotonic()
            if stalled_since is None:
                stalled_since = now
            left = grace_s - (now - stalled_since)
            if left <= 0:
                raise socket.timeout("peer stopped reading mid-frame") from None
            room = select.poll()
            room.register(sock, select.POLLOUT)
            room.poll(left * 1e3)
            continue
        if sent:
            stalled_since = None
            _reactor._consume(views, sent)


@functools.lru_cache(maxsize=64)
def _prefix_layout(content_type: str) -> tuple[struct.Struct, bytes, int]:
    """Packer, encoded content type, and body bytes ahead of the payload."""
    ct = content_type.encode("ascii")
    return struct.Struct(f">IQH{len(ct)}sB"), ct, _META.size + len(ct) + 1


def _frame_prefix(
    corr_id: int, content_type: str, status: int, payload_len: int, trace: bytes = b""
) -> bytes:
    packer, ct, head = _prefix_layout(content_type)
    if trace:
        return packer.pack(
            head + _TLEN.size + len(trace) + payload_len, corr_id, len(ct), ct,
            status | TRACE_FLAG,
        ) + _TLEN.pack(len(trace)) + trace
    return packer.pack(head + payload_len, corr_id, len(ct), ct, status)


def _parse_body(
    data: memoryview, pos: int, end: int, copy: bool
) -> tuple[int, TransportMessage, int, bytes | None]:
    """Parse the frame body at ``data[pos:end]``; the payload is copied out
    (*copy*: *data* is a receive buffer about to be reused) or sliced."""
    corr_id, ct_len = _META.unpack_from(data, pos)
    ct_end = pos + _META.size + ct_len
    if ct_end + 1 > end:
        raise TransportError("corrupt frame: content type overruns body")
    try:
        content_type = str(data[pos + _META.size:ct_end], "ascii")
    except UnicodeDecodeError:
        raise TransportError("corrupt frame: content type is not ASCII") from None
    status = data[ct_end]
    payload_start = ct_end + 1
    trace: bytes | None = None
    if status & TRACE_FLAG:
        status &= ~TRACE_FLAG
        if payload_start + _TLEN.size > end:
            raise TransportError("corrupt frame: trace block length overruns body")
        (trace_len,) = _TLEN.unpack_from(data, payload_start)
        payload_start += _TLEN.size
        if payload_start + trace_len > end:
            raise TransportError("corrupt frame: trace block overruns body")
        trace = bytes(data[payload_start:payload_start + trace_len])
        payload_start += trace_len
    payload = data[payload_start:end]
    if copy:
        payload = bytes(payload)
    return corr_id, TransportMessage(content_type, payload), status, trace


# -- server side --------------------------------------------------------------

#: Payload of a STATUS_BUSY frame; clients raise it as ServerBusyError.
_BUSY_PAYLOAD = b"server at capacity: request shed at admission"


class _FrameJob(_reactor.Job):
    """One reassembled v2 frame awaiting decode/dispatch on a pool thread."""

    __slots__ = ("corr_id", "message", "trace")

    def __init__(self, corr_id: int, message: TransportMessage, trace: bytes | None):
        self.corr_id = corr_id
        self.message = message
        self.trace = trace

    def run(self, app_handler):
        """Run the request pipeline and encode the response frame buffers.

        The trace block is stashed un-parsed: it is decoded only if the
        service reads its context (or something reads its server span), and
        a mangled block materializes as "no context".
        """
        token = None
        if _trace.ENABLED and self.trace is not None:
            token = _trace.activate_wire(self.trace, _trace.from_bytes)
        try:
            response = app_handler(self.message)
            status = STATUS_OK
        except Exception as exc:  # deliver faults instead of dropping the socket
            response = TransportMessage("text/plain", str(exc).encode("utf-8"))
            status = STATUS_FAULT
        finally:
            if token is not None:
                _trace.deactivate(token)
        payload = response.payload
        prefix = _frame_prefix(self.corr_id, response.content_type, status, len(payload))
        return (prefix, payload)

    def busy_reply(self):
        return (
            _frame_prefix(self.corr_id, "text/plain", STATUS_BUSY, len(_BUSY_PAYLOAD)),
            _BUSY_PAYLOAD,
        )


class FrameParser(_reactor.MessageParser):
    """Incremental v2 frame reassembly for the reactor's reads.

    Every complete frame in the bytes the reactor received becomes a job:
    its header is parsed where it landed and its payload copied out once.
    A frame that is not all there yet gets a body buffer of its own —
    after its length passed the minimum and maximum checks — and the rest
    of it lands there in place across however many passes the kernel
    needs, so bulk payloads keep the zero-copy discipline and reach codecs
    as a ``memoryview`` of that buffer (grown by the rule in
    :class:`~repro.transport.reactor.MessageParser`).  A header cut short
    is held over until the next pass.
    """

    __slots__ = ("_held", "_max")

    #: what a reassembled frame becomes: ``job_class(corr_id, message, trace)``
    job_class = _FrameJob

    def __init__(self, max_message: int = _reactor.DEFAULT_MAX_MESSAGE):
        super().__init__()
        self._held = b""  # a frame's first bytes, short of a whole header
        self._max = max_message

    @property
    def mid_message(self) -> bool:
        return self._body is not None or bool(self._held)

    def _job(self, data: memoryview, pos: int, end: int, copy: bool):
        corr_id, message, _status, trace = _parse_body(data, pos, end, copy)
        return self.job_class(corr_id, message, trace)

    def body_done(self, body: memoryview) -> list:
        return [self._job(body, 0, len(body), False)]

    def receive(self, recv_into, rbuf: memoryview) -> tuple[int, bool, list]:
        """:meth:`MessageParser.receive`, with the common request — one
        whole frame alone in the read — parsed without ``feed``."""
        if self._body is not None or self._held:
            return super().receive(recv_into, rbuf)
        n = recv_into(rbuf)
        if n > _HEADER.size:
            (length,) = _HEADER.unpack_from(rbuf)
            if length == n - _HEADER.size and _MIN_BODY <= length <= self._max:
                return n, n == len(rbuf), [self._job(rbuf, _HEADER.size, n, True)]
        if not n:
            return 0, False, []
        return n, n == len(rbuf), self.feed(rbuf[:n])

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
                self._start_body(data[pos:end], length)
                return jobs
            jobs.append(self._job(data, pos, pos + length, True))
            pos += length
        if pos < end:
            self._held = bytes(data[pos:end])
        return jobs


class _ReplyParser(FrameParser):
    """The same reassembly for the client side: frames come out as
    ``(corr_id, message, status, trace)``, under the listener's byte cap."""

    __slots__ = ()

    def _job(self, data: memoryview, pos: int, end: int, copy: bool):
        return _parse_body(data, pos, end, copy)


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
            started = parser._body is not None or parser._held != b""  # mid_message
            wait = _FRAME_GRACE_S if started else timeout
            if not self._poll.poll(None if wait is None else max(0.0, wait) * 1e3):
                if started:
                    raise TransportClosedError("peer stalled mid-frame")
                raise socket.timeout("timed out")
            try:
                if started:
                    n, _full, frames = parser.receive(self._sock.recv_into, self._buf)
                else:
                    buf = self._buf
                    n = self._sock.recv_into(buf)
                    if n > _HEADER.size:
                        # the common reply: one whole frame, alone in the
                        # read, parsed here (the parser's checks, its body
                        # parse) and nothing held over
                        (length,) = _HEADER.unpack_from(buf)
                        if length == n - _HEADER.size and _MIN_BODY <= length <= parser._max:
                            return _parse_body(buf, _HEADER.size, n, True)
                    frames = parser.feed(buf[:n]) if n else []
            except (BlockingIOError, InterruptedError):
                continue  # spurious wake-up
            if not n:
                raise TransportClosedError(
                    "peer closed the connection" + (" mid-frame" if started else "")
                )
            if len(frames) == 1:
                return frames[0]  # the common case: one reply per read
            ready.extend(frames)
        return ready.popleft()


class TcpListener(_reactor.ReactorListener):
    """A framed-TCP server endpoint; URL scheme ``tcp://host:port``.

    A :class:`~repro.transport.reactor.ReactorListener`: up to ``workers``
    pool threads wait on one read epoll and each reads, decodes, dispatches
    and answers the request it woke for; one loop thread accepts, flushes
    and closes.  Admission control (``queue_max``, ``per_conn_max``) sheds
    over-capacity requests with typed busy frames.  ``read_deadline_s``
    bounds how long a peer may take to finish a started frame (slow-loris
    protection).
    """

    scheme = "tcp"
    name = "tcp-reactor"
    new_parser = FrameParser


# -- client side --------------------------------------------------------------

_NEVER = float("inf")


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
    single-caller case, and the read lease taken after the send, so a long
    send never delays another caller's replies; the reply is filed and the
    lease handed back in one hold of the channel lock — while under
    concurrency whichever caller holds the read lease demultiplexes reply
    frames to the others by correlation id.

    A peer may also push: a frame whose content type is *push_ct* answers
    no request and goes to ``on_push(corr_id, message, trace)``, called
    outside the channel lock by whichever thread holds the read lease, so
    pushes written before a reply are filed before that reply wakes its
    caller.  A thread that must hear pushes while no request is in flight
    parks on the channel (:meth:`park`).
    """

    def __init__(self, url: str, sock: socket.socket, pending_max_s: float = 0.0,
                 push_ct: str | None = None, on_push=None):
        self._url = url
        self._sock = sock
        self._pending_max_s = max(0.0, pending_max_s)
        self._push_ct = push_ct
        self._on_push = on_push
        self._lock = threading.Lock()
        self._cv = threading.Condition(self._lock)
        self._waiting = 0  # threads parked on _cv: notify only when there are some
        self._wlock = threading.Lock()
        self._pending: dict[int, _Pending] = {}
        #: no pending entry expires before this (a lower bound: entries that
        #: were answered leave it behind, and the sweep then raises it)
        self._sweep_at = _NEVER
        self._next_id = 1
        self._reading = False  # a leader currently owns recv
        self._dead = False
        self._closing = False
        self._close_reason = "transport closed"
        self._reader = FrameReader(sock)  # used by whoever leads

    @property
    def in_flight(self) -> int:
        return len(self._pending)

    def request(
        self, message: TransportMessage, timeout: float | None, trace: bytes = b""
    ) -> tuple[TransportMessage, int]:
        # the one clock read of a call that is answered at the first wait:
        # the sweep expiry, the caller's deadline and the first read's bound
        # all start here, before the send
        now = time.monotonic()
        corr_id, pending = self._register(now)
        try:
            payload = message.payload
            prefix = _frame_prefix(
                corr_id, message.content_type, STATUS_OK, len(payload), trace
            )
            with self._wlock:
                _send_buffers(self._sock, (prefix, payload))
        except (socket.timeout, ConnectionError, OSError) as exc:
            self._fail(f"connection to {self._url} lost: {exc}")
            raise TransportClosedError(f"connection to {self._url} lost: {exc}") from exc
        return self._await(corr_id, pending, timeout, now)

    def park(self) -> None:
        """Lead until the channel dies: the reader of a peer that pushes.

        Takes the read lease once it is free and keeps it, filing replies
        for every other caller and pushes for the sink.  It leads for a
        pending entry that is never registered, so :meth:`close` does not
        wait for it; only the channel's death returns.
        """
        with self._lock:
            while self._reading and not self._dead:
                self._waiting += 1
                self._cv.wait()
                self._waiting -= 1
            if self._dead:
                return
            self._reading = True
        self._lead(_Pending(), None, None)

    # -- demultiplexing ----------------------------------------------------

    def _register(self, now: float) -> tuple[int, _Pending]:
        with self._lock:
            if self._dead or self._closing:
                raise TransportClosedError(self._close_reason)
            corr_id = self._next_id
            self._next_id = corr_id + 1
            expires_at = None
            if self._pending_max_s > 0:
                expires_at = now + self._pending_max_s
                if expires_at < self._sweep_at:
                    self._sweep_at = expires_at
            pending = self._pending[corr_id] = _Pending(expires_at)
            return corr_id, pending

    def _hand_back(self) -> None:
        """Give the read lease back (channel lock held)."""
        self._reading = False
        if self._waiting:
            self._cv.notify_all()

    def _await(
        self, corr_id: int, pending: _Pending, timeout: float | None, now: float | None
    ) -> tuple[TransportMessage, int]:
        """Wait for *pending*, leading reads while no one else does.  *now*
        is the clock read the call began with; a later turn reads again."""
        deadline = None if timeout is None else now + timeout
        while True:
            with self._lock:
                if pending.done:
                    break
                remaining = None
                if deadline is not None:
                    if now is None:
                        now = time.monotonic()
                    remaining = deadline - now
                    if remaining <= 0:
                        # abandoning the id keeps the channel healthy: the
                        # late reply is demuxed to a missing id and dropped
                        self._pending.pop(corr_id, None)
                        raise HarnessTimeoutError(f"request to {self._url} timed out")
                if self._reading:
                    self._waiting += 1
                    self._cv.wait(remaining)
                    self._waiting -= 1
                    now = None
                    continue
                self._reading = True
            self._lead(pending, deadline, now)  # returns with the lease given back
            now = None
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
        with self._lock:
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
            self._sweep_at = _NEVER if earliest is None else earliest
            if swept and self._waiting:
                self._cv.notify_all()
            return earliest

    def _lead(self, pending: _Pending, deadline: float | None, now: float | None) -> None:
        """Read frames and dispatch them until *pending* is resolved, then
        give the read lease back.  *now*, when given, is a clock read from
        before the lease was taken; the first turn uses it.

        Never raises: socket failures poison the channel (waking every
        waiter with an error), a between-frames deadline simply returns so
        :meth:`_await` can time the caller out.  Each read waits at most
        until the caller's deadline *or* the earliest pending expiry,
        whichever comes first, so the sweep runs even when every caller
        passed ``timeout=None``.
        """
        read_frame = self._reader.read_frame
        push_ct, on_push = self._push_ct, self._on_push
        lock = self._lock
        handed = False
        try:
            while True:
                bound = None
                if deadline is not None or self._sweep_at != _NEVER:
                    if now is None:
                        now = time.monotonic()
                    if now >= self._sweep_at:
                        self._sweep_expired(now)
                        if pending.done:  # our own entry may have just been swept
                            return
                    if self._sweep_at != _NEVER:
                        bound = self._sweep_at - now
                    if deadline is not None:
                        remaining = deadline - now
                        if remaining <= 0:
                            return
                        bound = remaining if bound is None else min(bound, remaining)
                now = None
                try:
                    corr_id, message, status, trace = read_frame(bound)
                    if message.content_type == push_ct:
                        on_push(corr_id, message, trace)
                        continue
                except socket.timeout:
                    continue  # deadline or sweep horizon: the top decides
                except (TransportClosedError, TransportError, ConnectionError, OSError) as exc:
                    self._fail(f"connection to {self._url} lost: {exc}")
                    return
                except Exception as exc:  # defensive: never leave waiters hanging
                    self._fail(f"reader failed on {self._url}: {exc}")
                    return
                with lock:
                    entry = self._pending.pop(corr_id, None)
                    if entry is not None:
                        entry.message = message
                        entry.status = status
                        entry.done = True
                        if entry is pending:
                            # the lease goes back in the same hold (_hand_back)
                            self._reading = False
                            if self._waiting:
                                self._cv.notify_all()
                            handed = True
                            return
                        if self._waiting:
                            self._cv.notify_all()
                if entry is None:
                    _LATE_DROPS.inc()  # late reply for a timed-out request: dropped
        finally:
            if not handed:
                with lock:
                    self._hand_back()

    def _fail(self, reason: str) -> None:
        with self._lock:
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
        with self._lock:
            if self._dead:
                return
            self._closing = True
            deadline = time.monotonic() + max(0.0, drain_s)
            while self._pending:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._waiting += 1
                self._cv.wait(remaining)
                self._waiting -= 1
        self._fail("transport closed")


def connect(url: str, timeout: float, pending_max_s: float = 0.0,
            push_ct: str | None = None, on_push=None) -> _Channel:
    """Dial *url* (``tcp://host:port``) and return a channel over the socket.

    *timeout* bounds the dial; an unreachable peer raises
    :class:`TransportError`.  *pending_max_s* is the channel's sweep
    (``0``: none); *push_ct* and *on_push* its push sink.
    """
    host, port, _path = parse_address(url, "tcp")
    try:
        sock = socket.create_connection((host, port), timeout=timeout)
    except OSError as exc:
        raise TransportError(f"cannot connect to {url}: {exc}") from exc
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    _DIALS.inc()
    _CHANNELS.inc()
    return _Channel(url, sock, pending_max_s, push_ct, on_push)


class TcpTransport:
    """Client side of the framed-TCP transport.

    Keeps a bounded pool of up to ``pool_size`` multiplexed channels to the
    peer, dialed lazily and picked least-loaded per request, so concurrent
    callers share sockets without head-of-line blocking.  ``close`` drains
    in-flight requests gracefully before tearing channels down.

    ``pending_max_s`` caps how long any correlation-id entry may wait for
    its reply (default :data:`DEFAULT_PENDING_MAX_S`); a peer that dies without closing the
    socket therefore fails waiting callers with
    :class:`~repro.util.errors.HarnessTimeoutError` instead of leaking
    entries and hanging ``timeout=None`` callers forever.  ``0`` disables
    the sweep.

    ``pool_size=1`` keeps every request on one socket, still demultiplexed
    by correlation id.
    """

    def __init__(
        self,
        url: str,
        connect_timeout: float = 5.0,
        pool_size: int | None = None,
        drain_timeout: float = 1.0,
        pending_max_s: float = DEFAULT_PENDING_MAX_S,
    ):
        self._url = url
        self._connect_timeout = connect_timeout
        self._drain_timeout = drain_timeout
        self._pending_max_s = max(0.0, pending_max_s)
        self._pool_size = max(1, pool_size if pool_size is not None else DEFAULT_POOL_SIZE)
        self._lock = threading.Lock()
        self._channels: list[_Channel] = []
        self._closed = False
        # dial eagerly so an unreachable peer fails at construction
        self._channels.append(connect(url, connect_timeout, self._pending_max_s))

    def _pick(self) -> _Channel:
        for channel in self._channels:  # an idle live channel needs no lock
            if not (channel._pending or channel._dead):
                return channel
        with self._lock:
            if self._closed:
                raise TransportClosedError("transport closed")
            if any(channel._dead for channel in self._channels):
                self._channels = [c for c in self._channels if not c._dead]
            if len(self._channels) < self._pool_size:  # also when none is left
                channel = connect(self._url, self._connect_timeout, self._pending_max_s)
                self._channels.append(channel)
                return channel
            return min(self._channels, key=lambda c: len(c._pending))

    def request(self, message: TransportMessage, timeout: float | None = None) -> TransportMessage:
        if self._closed:
            raise TransportClosedError("transport closed")
        trace = _trace.current_wire() if _trace.ENABLED else b""
        response, status = self._pick().request(message, timeout, trace)
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

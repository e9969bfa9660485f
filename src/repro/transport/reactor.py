"""Event-loop transport core: a selectors reactor with admission control.

This is the one server core under both network bindings (XDR/TCP and
SOAP/HTTP).  A thread-per-connection server ties the number of open
sockets to the number of live threads, which caps a kernel at a few dozen
concurrent clients before thread churn and GIL convoy dominate.  HARNESS
II's DVM is meant to serve *many* clients per kernel — the TCP v2
correlation-id protocol was designed so one socket can carry thousands of
in-flight calls — so the server side here decouples the two:

* one **reactor thread** per listener multiplexes every socket through a
  ``selectors`` loop: non-blocking accept and incremental message
  reassembly through **one receive buffer owned by the loop** — a wake is
  one ``recv_into``, every complete message in it becomes a job, and only
  a message that outgrows the buffer gets a body buffer of its own, where
  the rest lands in place (each protocol supplies the parser);
* a **worker pool** — threads spawned on demand up to ``workers``, fed by
  one ``queue.SimpleQueue`` — runs decode → dispatch → encode, so slow or
  blocking service operations never stall socket handling, and socket
  count no longer adds threads.  The worker that finishes a response
  **writes it itself** with one ``sendmsg``; the loop's per-connection
  outbox is the fallback for a partial write, a full socket buffer or a
  reply that closes the connection;
* an **admission controller** in between decides, *before* a request is
  queued, whether the server has capacity: a global in-flight cap
  (``workers + queue_max``) and a per-principal cap (per-connection until
  the auth layer lands).  Requests over either limit are answered with an
  immediate, typed *server busy* reply built by the protocol — load is
  shed at the door instead of queueing unboundedly.

A connection slot is held until the response has been fully handed to
the kernel, so a client that stops reading its replies exerts
backpressure on itself rather than growing the outbox without bound.

Write-side invariants (``_write``, ``_flush`` and ``_close_conn`` keep
them; ``tests/transport/test_reactor.py`` checks them):

* frames on one connection never interleave: every socket write, by a
  worker or by the loop, holds that connection's ``wlock``;
* order: a thread writes directly only while the connection's outbox is
  empty, tested under ``wlock`` — a partial write parks its tail in the
  outbox under the same lock hold, so no later response can overtake it;
* an :class:`AdmissionToken` is released exactly once, after the last
  byte of its reply is handed to the kernel, whichever thread wrote it; a
  writer that finds the connection closed releases the token and drops
  the frame, and jobs still queued when the server closes release theirs;
* close and write exclude each other (close takes ``wlock``); the loop
  alone arms ``EVENT_WRITE``, closes sockets and runs ``on_conn_close``;
* handlers never run on the loop thread.

Half-written messages carry a **read deadline** (``read_deadline_s``,
env ``REPRO_SERVER_READ_DEADLINE_S``): a peer that sends half a header
and stalls — the slow-loris shape — is disconnected when the deadline
passes, mirroring the client side's ``pending_max_s`` sweep.

Everything here is protocol-agnostic; :mod:`repro.transport.tcp` and
:mod:`repro.transport.http` supply parser/job classes (see
:class:`MessageParser` and :class:`Job`) and keep their wire formats.
DESIGN.md §13 has the policy table and the shed fault contract.
"""

from __future__ import annotations

import os
import queue
import selectors
import socket
import threading
import time
from collections import deque

from repro.obs import metrics as _metrics

__all__ = [
    "AdmissionController",
    "AdmissionToken",
    "Job",
    "MessageParser",
    "ReactorServer",
    "DEFAULT_QUEUE_MAX",
    "DEFAULT_PER_CONN_MAX",
    "DEFAULT_READ_DEADLINE_S",
    "DEFAULT_MAX_MESSAGE",
]


def _env_int(name: str, default: int, floor: int = 0) -> int:
    try:
        return max(floor, int(os.environ.get(name, default)))
    except ValueError:
        return default


def _env_float(name: str, default: float, floor: float = 0.0) -> float:
    try:
        return max(floor, float(os.environ.get(name, default)))
    except ValueError:
        return default


#: Requests that may wait for a worker beyond the pool's own width.  The
#: global in-flight cap is ``workers + queue_max``.
DEFAULT_QUEUE_MAX = _env_int("REPRO_SERVER_QUEUE_MAX", 1024)

#: In-flight requests one connection (= one principal, pre-auth) may hold.
DEFAULT_PER_CONN_MAX = _env_int("REPRO_SERVER_PER_CONN_MAX", 256, floor=1)

#: Budget for completing a started message before the peer is dropped.
DEFAULT_READ_DEADLINE_S = _env_float("REPRO_SERVER_READ_DEADLINE_S", 30.0)

#: Largest single message a connection may announce (64 MiB).
DEFAULT_MAX_MESSAGE = 64 * 1024 * 1024

#: Bytes read from one connection per loop pass before yielding to others.
_READ_QUANTUM = 256 * 1024

#: Size of the loop's receive buffer: one per reactor, shared by every
#: connection, so receive memory does not grow with the connection count.
_RECV_BUFFER = 64 * 1024

# Admission/reactor accounting (process-wide; DESIGN.md §13 names them).
_CONNS = _metrics.registry.gauge("server.reactor.conns")
_ACCEPTS = _metrics.registry.counter("server.reactor.accepts")
_INFLIGHT = _metrics.registry.gauge("server.reactor.inflight")
_QUEUE_DEPTH = _metrics.registry.gauge("server.reactor.queue_depth")
_ADMITTED = _metrics.registry.counter("server.reactor.admitted")
_SHED = _metrics.registry.counter("server.reactor.shed")
_SHED_CONN = _metrics.registry.counter("server.reactor.shed_per_conn")
_DEADLINE_CLOSES = _metrics.registry.counter("server.reactor.deadline_closes")
#: replies written whole by the thread that finished them / replies that
#: went through the loop's outbox (partial write, full buffer, close_after)
_DIRECT_WRITES = _metrics.registry.counter("server.reactor.direct_writes")
_QUEUED_WRITES = _metrics.registry.counter("server.reactor.queued_writes")
_LOOP_ERRORS = _metrics.registry.counter("server.reactor.loop_errors")


class AdmissionToken:
    """One admitted request's claim on server capacity.

    Released exactly once — when its response is fully flushed, when its
    connection dies first, or when the server shuts down — whichever
    happens first (``release`` is idempotent).
    """

    __slots__ = ("_controller", "_key", "_released")

    def __init__(self, controller: "AdmissionController", key: int):
        self._controller = controller
        self._key = key
        self._released = False

    def release(self) -> None:
        self._controller._release(self)


class AdmissionController:
    """Capacity gatekeeper: global in-flight cap + per-principal caps.

    ``workers + queue_max`` bounds everything admitted but not yet fully
    answered (executing, waiting for a worker, or flushing), which in turn
    bounds the worker pool's job queue — the unbounded ``SimpleQueue`` is
    never reachable past this gate.
    ``per_conn_max`` keeps one principal from occupying the whole server.
    Caps are adjustable at runtime (:meth:`configure`) so operators — and
    chaos scenarios — can squeeze or widen capacity live.
    """

    def __init__(
        self,
        workers: int,
        queue_max: int | None = None,
        per_conn_max: int | None = None,
    ):
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        # env knobs are re-read per construction so deployments (and tests)
        # can retune without reimporting; the module constants are defaults
        self.workers = max(1, workers)
        self.queue_max = (
            _env_int("REPRO_SERVER_QUEUE_MAX", DEFAULT_QUEUE_MAX)
            if queue_max is None else max(0, queue_max)
        )
        self.per_conn_max = (
            _env_int("REPRO_SERVER_PER_CONN_MAX", DEFAULT_PER_CONN_MAX, floor=1)
            if per_conn_max is None else max(1, per_conn_max)
        )
        self._inflight = 0
        self._per_key: dict[int, int] = {}
        self._closing = False

    @property
    def max_inflight(self) -> int:
        return self.workers + self.queue_max

    @property
    def inflight(self) -> int:
        with self._lock:
            return self._inflight

    def configure(
        self, queue_max: int | None = None, per_conn_max: int | None = None
    ) -> None:
        """Adjust caps live; in-flight work is never revoked, only new
        admissions see the tightened (or widened) limits."""
        with self._lock:
            if queue_max is not None:
                self.queue_max = max(0, int(queue_max))
            if per_conn_max is not None:
                self.per_conn_max = max(1, int(per_conn_max))

    def try_admit(self, key: int) -> AdmissionToken | None:
        """Claim capacity for principal *key*; ``None`` means shed."""
        with self._lock:
            if self._closing or self._inflight >= self.max_inflight:
                _SHED.inc()
                return None
            held = self._per_key.get(key, 0)
            if held >= self.per_conn_max:
                _SHED.inc()
                _SHED_CONN.inc()
                return None
            self._inflight += 1
            self._per_key[key] = held + 1
            _ADMITTED.inc()
            _INFLIGHT.set(self._inflight)
            _QUEUE_DEPTH.set(max(0, self._inflight - self.workers))
            return AdmissionToken(self, key)

    def _release(self, token: AdmissionToken) -> None:
        with self._lock:
            if token._released:
                return
            token._released = True
            self._inflight -= 1
            held = self._per_key.get(token._key, 0) - 1
            if held <= 0:
                self._per_key.pop(token._key, None)
            else:
                self._per_key[token._key] = held
            _INFLIGHT.set(self._inflight)
            _QUEUE_DEPTH.set(max(0, self._inflight - self.workers))
            if self._inflight == 0:
                self._idle.notify_all()

    def start_closing(self) -> None:
        """Refuse all further admissions (drain mode)."""
        with self._lock:
            self._closing = True

    def wait_idle(self, timeout: float) -> bool:
        """Block until nothing is in flight (or *timeout*); True when idle."""
        deadline = time.monotonic() + max(0.0, timeout)
        with self._lock:
            while self._inflight:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._idle.wait(remaining)
            return True


class Job:
    """One fully reassembled request, ready for the worker pool.

    Protocol modules subclass this; the reactor only relies on:

    ``run(app_handler) -> buffers``
        Decode, dispatch, encode — executed on a worker thread; returns
        the response as a sequence of bytes-like buffers to write.
    ``busy_reply() -> buffers``
        The immediate typed *server busy* answer — built on the reactor
        thread when admission says shed, so it must be allocation-cheap.
    ``close_after``
        True when the connection must close once the reply is flushed
        (e.g. HTTP ``Connection: close``).
    ``wants_conn``
        True when the job needs a handle on its originating connection
        (set as ``job.conn`` before dispatch) — how subscription-style
        protocols learn where to :meth:`ReactorServer.push` frames later.
    """

    __slots__ = ()

    close_after = False
    wants_conn = False

    def run(self, app_handler):  # pragma: no cover - interface
        raise NotImplementedError

    def busy_reply(self):  # pragma: no cover - interface
        raise NotImplementedError


class MessageParser:
    """Incremental reassembly driven by the reactor's recv loop.

    The reactor receives into its own buffer and hands the bytes that
    landed to ``feed(data)``; *data* is only valid during the call, so the
    parser copies out what it keeps (a completed small message, or the
    fragment of one that is still arriving).  A parser that knows how much
    of a large message is still missing may return that unfilled region
    from ``body_buffer()``: the reactor then receives straight into it and
    reports the count through ``body_filled(n)``.  Both return the
    :class:`Job` objects that completed.  ``mid_message`` is True while a
    partially received message is held — the hook for the read-deadline
    sweep — and every length a peer announces is checked before anything
    is allocated for it.
    """

    __slots__ = ()

    mid_message = False

    def feed(self, data: memoryview) -> list[Job]:  # pragma: no cover - interface
        raise NotImplementedError

    def body_buffer(self) -> memoryview | None:
        return None

    def body_filled(self, n: int) -> list[Job]:  # pragma: no cover - interface
        raise NotImplementedError


def _gather(buffers) -> list[memoryview]:
    """The non-empty *buffers* as contiguous views, ready for ``sendmsg``."""
    views = []
    for buf in buffers:
        if len(buf):
            view = memoryview(buf)
            if not view.c_contiguous:  # e.g. a reversed slice; kernel needs contiguous
                view = memoryview(bytes(view))
            views.append(view)
    return views


def _consume(views: list[memoryview], sent: int) -> None:
    """Drop the first *sent* bytes from *views*, in place."""
    while sent and views:
        head = views[0]
        if sent >= len(head):
            sent -= len(head)
            del views[0]
        else:
            views[0] = head[sent:]
            sent = 0


class _Connection:
    """Reactor-side state for one accepted socket.

    The loop thread owns everything but the write side: ``sock`` writes,
    ``outbox`` and ``closed`` are guarded by ``wlock`` (see the module
    docstring's invariants).
    """

    __slots__ = (
        "sock", "fd", "key", "parser", "wlock", "outbox", "deadline", "interest",
        "closed", "broken",
    )

    def __init__(self, sock: socket.socket, parser: MessageParser, key: int):
        self.sock = sock
        self.fd = sock.fileno()
        self.key = key  # admission principal id; never reused, unlike fds
        self.parser = parser
        self.wlock = threading.Lock()
        # responses handed to the loop and not yet fully flushed, in order:
        # [views(list of memoryview), token|None, close_after]
        self.outbox: deque = deque()
        self.deadline: float | None = None
        self.interest = selectors.EVENT_READ
        self.closed = False
        self.broken = False  # a direct write failed; the loop closes the socket


class _WorkerPool:
    """Threads spawned on demand, up to *max_workers*, fed by one queue.

    A worker calls ``run(item)`` and then ``deliver(item, result)``.
    ``submit`` is called by the loop thread only.  ``_idle`` is the number
    of workers free to take an item minus the items waiting for one; a
    submit that finds none free spawns a thread while below the ceiling,
    otherwise the item waits its turn.  A worker counts itself free
    *between* the two calls: ``deliver`` is a non-blocking write, and the
    reply it sends is what brings the peer's next request — counted after
    it, a single caller would look like two and get a second thread.
    """

    def __init__(self, max_workers: int, name: str, run, deliver):
        self._max = max(1, max_workers)
        self._name = name
        self._run = run
        self._deliver = deliver
        self._items: queue.SimpleQueue = queue.SimpleQueue()
        self._lock = threading.Lock()
        self._idle = 0
        self._threads: list[threading.Thread] = []

    def submit(self, item) -> None:
        with self._lock:
            spawn = self._idle <= 0 and len(self._threads) < self._max
            if not spawn:
                self._idle -= 1
        self._items.put(item)
        if spawn:
            thread = threading.Thread(
                target=self._work, name=f"{self._name}_{len(self._threads)}", daemon=True
            )
            self._threads.append(thread)
            thread.start()

    def _work(self) -> None:
        get = self._items.get
        run = self._run
        deliver = self._deliver
        lock = self._lock
        while True:
            item = get()
            if item is None:
                return
            result = run(item)
            with lock:
                self._idle += 1
            deliver(item, result)

    def shutdown(self) -> list:
        """Stop the workers once idle; returns the items no worker took."""
        stranded = []
        while True:
            try:
                stranded.append(self._items.get_nowait())
            except queue.Empty:
                break
        for _ in self._threads:
            self._items.put(None)
        return stranded


class ReactorServer:
    """One listening socket + one reactor thread + one worker pool.

    *parser_factory* is called per accepted connection and returns the
    protocol's :class:`MessageParser`.  *app_handler* is the binding
    server's request pipeline, invoked on worker threads only.
    """

    def __init__(
        self,
        address: tuple[str, int],
        app_handler,
        parser_factory,
        workers: int = 32,
        queue_max: int | None = None,
        per_conn_max: int | None = None,
        read_deadline_s: float | None = None,
        name: str = "reactor",
    ):
        self.app_handler = app_handler
        self._parser_factory = parser_factory
        self.admission = AdmissionController(workers, queue_max, per_conn_max)
        self.read_deadline_s = (
            _env_float("REPRO_SERVER_READ_DEADLINE_S", DEFAULT_READ_DEADLINE_S)
            if read_deadline_s is None else max(0.0, read_deadline_s)
        )
        self._pool = _WorkerPool(workers, f"{name}-worker", self._run_job, self._deliver)
        self._selector = selectors.DefaultSelector()
        self._listen = socket.create_server(address, backlog=1024, reuse_port=False)
        self._listen.setblocking(False)
        self.address = self._listen.getsockname()[:2]
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._conns: dict[int, _Connection] = {}
        self._next_key = 0
        self._rbuf = memoryview(bytearray(_RECV_BUFFER))  # loop thread only
        #: optional callback fired (on the reactor thread) when a connection
        #: dies — subscription protocols hook consumer-death detection here.
        #: Must not block: it runs inside the event loop.
        self.on_conn_close = None
        #: connections a worker left something on for the loop (a queued
        #: response to flush, or a broken socket to close)
        self._attention: deque = deque()
        self._running = True
        self._accepting = True
        self._lock = threading.Lock()  # guards _running/_accepting transitions
        self._selector.register(self._listen, selectors.EVENT_READ, "accept")
        self._selector.register(self._wake_r, selectors.EVENT_READ, "wake")
        self._thread = threading.Thread(
            target=self._loop, name=f"{name}-loop", daemon=True
        )
        self._thread.start()

    # -- cross-thread entry points ---------------------------------------------

    def _wake(self) -> None:
        try:
            self._wake_w.send(b"\x00")
        except (BlockingIOError, OSError):
            pass  # a wakeup is already pending (or we are shutting down)

    def _complete(self, conn: _Connection, buffers, token, close_after: bool) -> None:
        """Write a finished response from the calling thread, or leave it
        with the loop when the socket would not take all of it."""
        if self._write(conn, buffers, token, close_after):
            self._attention.append(conn)
            self._wake()

    def push(self, conn: _Connection, buffers) -> bool:
        """Write unsolicited *buffers* to *conn* (server push).

        Callable from any thread; the frame takes the same write path as
        replies — under the connection's write lock, behind anything
        already queued — so pushes and replies never interleave mid-frame.
        Returns ``False`` when the connection is already closed (the frame
        is dropped — the caller's redelivery machinery owns the message,
        not the wire).
        """
        if conn.closed:
            return False
        self._complete(conn, buffers, None, False)
        return True

    def close(self, drain_s: float = 1.0) -> None:
        """Stop accepting, drain in-flight requests, then tear down.

        ``drain_s=0`` aborts: in-flight requests lose their connections.
        Either way every socket is closed, jobs no worker took release
        their admission tokens, and the loop and idle workers stop.
        """
        with self._lock:
            if not self._running:
                return
            self._accepting = False
        self.admission.start_closing()
        self._wake()  # reactor deregisters the listen socket
        if drain_s > 0:
            self.admission.wait_idle(drain_s)
        with self._lock:
            self._running = False
        self._wake()
        self._thread.join(timeout=5.0)
        for _conn, _job, token in self._pool.shutdown():
            token.release()

    # -- the loop --------------------------------------------------------------

    def _loop(self) -> None:
        next_sweep = time.monotonic() + 0.1
        try:
            while True:
                with self._lock:
                    if not self._running:
                        break
                    accepting = self._accepting
                if not accepting and self._listen.fileno() >= 0:
                    try:
                        self._selector.unregister(self._listen)
                    except KeyError:
                        pass
                    self._listen.close()
                try:
                    events = self._selector.select(timeout=0.1)
                except OSError:
                    events = []
                for key, mask in events:
                    what = key.data
                    try:
                        if what == "accept":
                            self._accept()
                        elif what == "wake":
                            self._drain_wake()
                        else:
                            if mask & selectors.EVENT_WRITE:
                                self._flush(what)
                            if mask & selectors.EVENT_READ and not what.closed:
                                self._readable(what)
                    except Exception:
                        _LOOP_ERRORS.inc()
                        if isinstance(what, _Connection):
                            self._close_conn(what)
                while self._attention:
                    self._flush(self._attention.popleft())
                now = time.monotonic()
                if now >= next_sweep:
                    next_sweep = now + 0.1
                    self._sweep_deadlines(now)
        finally:
            self._teardown()

    def _teardown(self) -> None:
        for conn in list(self._conns.values()):
            self._close_conn(conn)
        self._selector.close()
        for sock in (self._listen, self._wake_r, self._wake_w):
            try:
                sock.close()
            except OSError:
                pass

    def _accept(self) -> None:
        while True:
            try:
                sock, _addr = self._listen.accept()
            except (BlockingIOError, OSError):
                return
            sock.setblocking(False)
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:
                pass  # not a TCP socket (tests use socketpairs)
            self._next_key += 1
            conn = _Connection(sock, self._parser_factory(), self._next_key)
            self._conns[conn.fd] = conn
            self._selector.register(sock, selectors.EVENT_READ, conn)
            _ACCEPTS.inc()
            _CONNS.set(len(self._conns))

    def _drain_wake(self) -> None:
        try:
            while len(self._wake_r.recv(4096)) == 4096:
                pass
        except (BlockingIOError, OSError):
            pass

    def _readable(self, conn: _Connection) -> None:
        parser = conn.parser
        sock = conn.sock
        completed = False
        budget = _READ_QUANTUM
        while budget > 0 and not conn.closed:
            # a message that outgrew the loop's buffer fills its own
            view = parser.body_buffer()
            shared = view is None
            if shared:
                view = self._rbuf
            try:
                n = sock.recv_into(view)
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                n = 0
            if not n:
                self._close_conn(conn)
                return
            try:
                jobs = parser.feed(view[:n]) if shared else parser.body_filled(n)
            except Exception:
                # framing violation (oversize, corrupt): the stream can no
                # longer be trusted, so the connection dies
                _LOOP_ERRORS.inc()
                self._close_conn(conn)
                return
            completed = completed or bool(jobs)
            for job in jobs:
                self._dispatch(conn, job)
            if n < len(view):
                break  # the kernel had no more: do not provoke EAGAIN
            budget -= n
        # read-deadline bookkeeping: a message in progress (a partial header
        # held over between passes counts) gets one fixed completion budget
        # from its first byte — progress does not extend it, which is what
        # defeats drip-feeding; only a completed message restarts it
        if not parser.mid_message:
            conn.deadline = None
        elif (completed or conn.deadline is None) and self.read_deadline_s > 0:
            conn.deadline = time.monotonic() + self.read_deadline_s

    def _dispatch(self, conn: _Connection, job: Job) -> None:
        if job.wants_conn:
            job.conn = conn
        token = self.admission.try_admit(conn.key)
        if token is None:
            if self._write(conn, job.busy_reply(), None, job.close_after):
                self._flush(conn)
            return
        self._pool.submit((conn, job, token))

    def _run_job(self, item):
        """Worker thread: run one admitted job; returns its response."""
        _conn, job, _token = item
        try:
            return job.run(self.app_handler)
        except Exception:
            return ()  # protocol.run already fault-maps; belt+braces

    def _deliver(self, item, buffers) -> None:
        conn, job, token = item
        self._complete(conn, buffers, token, job.close_after)

    # -- writes ----------------------------------------------------------------

    def _write(self, conn: _Connection, buffers, token, close_after: bool) -> bool:
        """Send a response on *conn* from the calling thread (any thread).

        Writes directly — one ``sendmsg`` — only while nothing is queued
        ahead of it on the connection; whatever the kernel did not take,
        and any reply that must close the connection afterwards, goes to
        the outbox in the same lock hold.  Returns True when the loop has
        work left on *conn*: the caller flushes (loop thread) or posts the
        connection for attention (any other thread).
        """
        views = _gather(buffers)
        with conn.wlock:
            open_ = not (conn.closed or conn.broken)
            if open_ and views and not close_after and not conn.outbox:
                try:
                    _consume(views, conn.sock.sendmsg(views))
                except (BlockingIOError, InterruptedError):
                    pass  # socket buffer full: the whole frame is queued
                except OSError:
                    conn.broken = True  # closing the socket is the loop's job
                    open_ = False
            queued = open_ and (bool(views) or close_after)
            if queued:
                conn.outbox.append([views, token, close_after])
        if queued:
            _QUEUED_WRITES.inc()
            return True
        # fully handed to the kernel, or dropped with its connection: either
        # way the request's capacity claim ends here
        if token is not None:
            token.release()
        if open_:
            _DIRECT_WRITES.inc()
            return False
        return conn.broken and not conn.closed

    def _flush(self, conn: _Connection) -> None:
        """Loop thread: write out *conn*'s outbox; arm or disarm
        ``EVENT_WRITE`` by what is left; close when a reply asked for it."""
        done = []
        close = blocked = False
        with conn.wlock:
            if conn.closed:
                return
            close = conn.broken
            while conn.outbox and not close:
                views, token, close_after = conn.outbox[0]
                try:
                    _consume(views, conn.sock.sendmsg(views))
                except (BlockingIOError, InterruptedError):
                    blocked = True
                    break
                except OSError:
                    close = True
                    break
                if views:
                    blocked = True  # partial: the socket buffer is full
                    break
                conn.outbox.popleft()
                done.append(token)
                close = close_after
        for token in done:
            if token is not None:
                token.release()
        if close:
            self._close_conn(conn)
        else:
            self._want_write(conn, blocked)

    def _want_write(self, conn: _Connection, want: bool) -> None:
        interest = selectors.EVENT_READ | (selectors.EVENT_WRITE if want else 0)
        if interest != conn.interest and not conn.closed:
            conn.interest = interest
            try:
                self._selector.modify(conn.sock, interest, conn)
            except (KeyError, ValueError, OSError):
                pass

    # -- lifecycle -------------------------------------------------------------

    def _sweep_deadlines(self, now: float) -> None:
        expired = [
            conn for conn in self._conns.values()
            if conn.deadline is not None and conn.deadline <= now
        ]
        for conn in expired:
            _DEADLINE_CLOSES.inc()
            self._close_conn(conn)

    def _close_conn(self, conn: _Connection) -> None:
        """Loop thread: close *conn*.  Takes the write lock, so no writer is
        mid-``sendmsg`` when the socket goes, and every writer after it sees
        ``closed`` and drops its frame."""
        with conn.wlock:
            if conn.closed:
                return
            conn.closed = True
            stranded = list(conn.outbox)
            conn.outbox.clear()
            try:
                self._selector.unregister(conn.sock)
            except (KeyError, ValueError, OSError):
                pass
            try:
                conn.sock.close()
            except OSError:
                pass
        self._conns.pop(conn.fd, None)
        # responses that never made the wire still free their capacity
        for _views, token, _close in stranded:
            if token is not None:
                token.release()
        _CONNS.set(len(self._conns))
        callback = self.on_conn_close
        if callback is not None:
            try:
                callback(conn)
            except Exception:
                _LOOP_ERRORS.inc()

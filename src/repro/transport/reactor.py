"""Reactor transport core: leader/followers reads with admission control.

This is the one server core under both network bindings (XDR/TCP and
SOAP/HTTP) and the mailbox server.  A thread-per-connection server ties
the number of open sockets to the number of live threads; HARNESS II's DVM
is meant to serve *many* clients per kernel — one TCP v2 socket can carry
thousands of in-flight calls — so the server side decouples the two:

* a **pool** of up to ``workers`` threads, spawned on demand, waits on one
  read ``epoll`` where every connection is armed ``EPOLLIN |
  EPOLLONESHOT``.  The kernel wakes one waiter per readable connection;
  that thread reads into its own receive buffer, re-arms the connection,
  admits the complete messages, runs the first itself and **writes its
  reply itself** with one ``sendmsg``.  Further messages from the same read
  go to other pool threads through a job queue whose doorbell sits in the
  same epoll.  A lone call costs two thread switches: caller → pool thread
  → caller;
* one **loop thread** accepts, flushes the per-connection outboxes behind
  ``EVENT_WRITE`` (the fallback for a partial write, a full socket buffer
  and a reply that closes the connection), closes sockets and sweeps read
  deadlines.  While every pool thread is busy it also reads, but only
  admits or sheds and queues: it never runs a handler, so a blocked
  handler never stalls other connections and shedding stays immediate;
* an **admission controller** decides, *before* a request runs or is
  queued, whether the server has capacity: a global in-flight cap
  (``workers + queue_max``) and a per-principal cap (per-connection until
  the auth layer lands).  Requests over either limit get an immediate,
  typed *server busy* reply built by the protocol.

A connection slot is held until the response has been fully handed to the
kernel, so a client that stops reading its replies exerts backpressure on
itself.  Invariants (``tests/transport/test_reactor.py`` checks them):

* one reader per connection: only the thread holding its one-shot read arm
  receives, feeds the parser and re-arms;
* only the loop closes a socket, and only once its read arm has come back
  (the holder saw EOF or an error and did not re-arm); the deadline sweep,
  a failed write and a ``close_after`` reply ``shutdown()`` instead, and the
  next read of a shut connection gives the arm back and admits nothing — a
  freed fd is never reused under a reader;
* frames on one connection never interleave: every socket write holds the
  connection's ``wlock``, and a thread writes directly only while the
  outbox is empty — a partial write parks its tail there in the same hold;
* an :class:`AdmissionToken` is released exactly once, after the last byte
  of its reply reached the kernel or with its dropped frame (connection
  closed, server closed with the job still queued);
* close takes ``wlock``; the loop alone arms ``EVENT_WRITE`` and runs
  ``on_conn_close``; handlers never run on the loop thread.

Half-written messages carry a **read deadline** (``read_deadline_s``)
against slow-loris peers, mirroring the client side's ``pending_max_s``
sweep.  Everything here is protocol-agnostic: :mod:`repro.transport.tcp`
and :mod:`repro.transport.http` supply :class:`MessageParser` and
:class:`Job` classes and keep their wire formats, and their listeners are
one :class:`ReactorListener` each.  Every knob is a constructor argument
whose default is a module constant.  DESIGN.md §13 has the policy table.
"""

from __future__ import annotations

import os
import select
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
    "ReactorListener",
    "ReactorServer",
    "DEFAULT_QUEUE_MAX",
    "DEFAULT_PER_CONN_MAX",
    "DEFAULT_READ_DEADLINE_S",
    "DEFAULT_MAX_MESSAGE",
]


#: Requests that may wait for a worker beyond the pool's own width.  The
#: global in-flight cap is ``workers + queue_max``.
DEFAULT_QUEUE_MAX = 1024

#: In-flight requests one connection (= one principal, pre-auth) may hold.
DEFAULT_PER_CONN_MAX = 256

#: Budget for completing a started message before the peer is dropped.
DEFAULT_READ_DEADLINE_S = 30.0

#: Largest single message a connection may announce (64 MiB).
DEFAULT_MAX_MESSAGE = 64 * 1024 * 1024

#: Bytes read from one connection per turn before yielding to others.
_READ_QUANTUM = 256 * 1024

#: Smallest body buffer a partial message starts with (bodies up to this
#: size get their whole length at once); a larger one grows as its bytes
#: arrive.
_BODY_MIN = 256 * 1024

#: Size of a reading thread's receive buffer: one per pool thread and one
#: for the loop, shared by every connection that thread reads, so receive
#: memory does not grow with the connection count.
_RECV_BUFFER = 64 * 1024

#: A connection's (and the doorbell's) arm in the read epoll.
_ARM = select.EPOLLIN | select.EPOLLONESHOT

#: How long a closing server waits for its pool threads to stop.
_STOP_GRACE_S = 0.25

# Admission/reactor accounting (process-wide: every listener adds its own
# share, so the gauges sum across TCP, HTTP and mailbox servers; DESIGN.md
# §13 names them).
_CONNS = _metrics.registry.gauge("server.reactor.conns")
_ACCEPTS = _metrics.registry.counter("server.reactor.accepts")
_SHED = _metrics.registry.counter("server.reactor.shed")
_SHED_CONN = _metrics.registry.counter("server.reactor.shed_per_conn")
_DEADLINE_CLOSES = _metrics.registry.counter("server.reactor.deadline_closes")
#: replies that went through the loop's outbox (partial write, full
#: buffer, close_after); ``direct_writes`` below counts the rest
_QUEUED_WRITES = _metrics.registry.counter("server.reactor.queued_writes")
_LOOP_ERRORS = _metrics.registry.counter("server.reactor.loop_errors")

#: The one lock of every admission controller in the process.  Admitting
#: and releasing take it anyway, so the per-call counts below are plain
#: ints under it rather than instruments with locks of their own.
_ADMISSION_LOCK = threading.Lock()


class _Tally:
    """The per-call admission counts of every listener in the process,
    guarded by :data:`_ADMISSION_LOCK`; the registry reads them at export.

    ``admitted`` and ``direct_writes`` (replies written whole by the thread
    that finished them) only rise; ``inflight`` and ``queue_depth`` are
    levels.  A closing listener leaves them as they are.
    """

    __slots__ = ("admitted", "inflight", "queue_depth", "direct_writes")

    def __init__(self):
        self.admitted = self.inflight = self.queue_depth = self.direct_writes = 0


_TALLY = _Tally()


def _keep(kind: type, field: str) -> None:
    def zero() -> None:
        with _ADMISSION_LOCK:
            setattr(_TALLY, field, 0)

    _metrics.registry.kept(
        f"server.reactor.{field}", kind, lambda: getattr(_TALLY, field), zero
    )


_keep(_metrics.Counter, "admitted")
_keep(_metrics.Gauge, "inflight")
_keep(_metrics.Gauge, "queue_depth")
_keep(_metrics.Counter, "direct_writes")


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
    bounds the server's job queue — it is never reachable past this gate.
    ``per_conn_max`` keeps one principal from occupying the whole server.
    Caps are adjustable at runtime (:meth:`configure`) so operators — and
    chaos scenarios — can squeeze or widen capacity live.  The process-wide
    gauges move by this controller's deltas, so they add up across
    listeners.  Every controller holds the one process-wide admission
    lock, under which it also keeps those counts.
    """

    def __init__(
        self,
        workers: int,
        queue_max: int = DEFAULT_QUEUE_MAX,
        per_conn_max: int = DEFAULT_PER_CONN_MAX,
    ):
        self._lock = _ADMISSION_LOCK
        self._idle = threading.Condition(self._lock)
        self.workers = max(1, workers)
        self.queue_max = max(0, queue_max)
        self.per_conn_max = max(1, per_conn_max)
        self.max_inflight = self.workers + self.queue_max
        self._inflight = 0
        self._per_key: dict[int, int] = {}
        self._closing = False

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
                self.max_inflight = self.workers + self.queue_max
            if per_conn_max is not None:
                self.per_conn_max = max(1, int(per_conn_max))

    def try_admit(self, key: int) -> AdmissionToken | None:
        """Claim capacity for principal *key*; ``None`` means shed."""
        with self._lock:
            inflight = self._inflight
            if self._closing or inflight >= self.max_inflight:
                _SHED.inc()
                return None
            held = self._per_key.get(key, 0)
            if held >= self.per_conn_max:
                _SHED.inc()
                _SHED_CONN.inc()
                return None
            self._inflight = inflight + 1
            self._per_key[key] = held + 1
            tally = _TALLY
            tally.admitted += 1
            tally.inflight += 1
            if inflight >= self.workers:  # beyond the pool's width: it waits
                tally.queue_depth += 1
        return AdmissionToken(self, key)

    def _release(self, token: AdmissionToken, direct: bool = False) -> None:
        """Give *token*'s capacity back; *direct*: its reply was written
        whole by the thread that made it (counted even if already released)."""
        with self._lock:
            tally = _TALLY
            if direct:
                tally.direct_writes += 1
            if token._released:
                return
            token._released = True
            inflight = self._inflight = self._inflight - 1
            held = self._per_key.get(token._key, 0) - 1
            if held <= 0:
                self._per_key.pop(token._key, None)
            else:
                self._per_key[token._key] = held
            tally.inflight -= 1
            if inflight >= self.workers:  # this one had waited for a worker
                tally.queue_depth -= 1
            if inflight == 0 and self._closing:  # wait_idle runs only then
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
    """One fully reassembled request, ready to run on a pool thread.

    Protocol modules subclass this; the reactor only relies on:

    ``run(app_handler) -> buffers``
        Decode, dispatch, encode — executed on a pool thread; returns the
        response as a sequence of bytes-like buffers to write.
    ``busy_reply() -> buffers``
        The immediate typed *server busy* answer — built by whichever
        thread read the request when admission says shed, so it must be
        allocation-cheap.
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
    """Incremental reassembly driven by the reactor's reads.

    The reading thread receives into its own buffer and hands the bytes
    that landed to ``feed(data)``; *data* is only valid during the call, so
    the parser copies out what it keeps (a completed small message, or the
    fragment of one that is still arriving).  A body of known length that
    is not all there gets a buffer of its own (:meth:`_start_body`), and
    ``body_buffer()`` returns its unfilled region: the reactor then
    receives straight into it and reports the count through
    ``body_filled(n)``, which hands the whole body to ``body_done(body)``.
    ``feed`` and ``body_filled`` return the :class:`Job` objects that
    completed.  ``mid_message`` is True while a partially received message
    is held — the hook for the read-deadline sweep — and every length a
    peer announces is checked before anything is allocated for it.  One
    thread at a time feeds a connection's parser (the one holding its read
    arm).

    The body buffer starts at the declared length or :data:`_BODY_MIN` and
    twice the bytes in hand, whichever is less, and doubles (up to the
    declared length) each time it fills: a peer pays in bytes sent for the
    memory its claimed length costs.
    """

    __slots__ = ("_body", "_got", "_want")

    mid_message = False

    def __init__(self):
        self._body: memoryview | None = None
        self._got = 0
        self._want = 0  # the declared length of the body in _body

    def feed(self, data: memoryview) -> list[Job]:  # pragma: no cover - interface
        raise NotImplementedError

    def body_done(self, body: memoryview) -> list[Job]:  # pragma: no cover - interface
        raise NotImplementedError

    def _start_body(self, held: memoryview, declared: int) -> None:
        """Give a *declared*-byte body, of which *held* is here, its buffer."""
        self._got, self._want = len(held), declared
        self._grow(held, min(declared, max(_BODY_MIN, 2 * len(held))))

    def _grow(self, held, size: int) -> None:
        body = memoryview(bytearray(size))
        body[:self._got] = held
        self._body = body

    def body_buffer(self) -> memoryview | None:
        body = self._body
        return None if body is None else body[self._got:]

    def body_filled(self, n: int) -> list[Job]:
        self._got += n
        body = self._body
        if self._got < len(body):
            return []
        if self._got < self._want:
            self._grow(body, min(self._want, 2 * len(body)))
            return []
        self._body = None
        return self.body_done(body)

    def receive(self, recv_into, rbuf: memoryview) -> tuple[int, bool, list[Job]]:
        """One read with *recv_into*: into the unfilled body when there is
        one, else into the reader's *rbuf*.  Returns the byte count (0 at
        the end of the stream), whether the read filled the space it had,
        and the messages it completed.  Socket errors and framing
        violations propagate."""
        view = self.body_buffer()
        shared = view is None
        if shared:
            view = rbuf
        n = recv_into(view)
        if not n:
            return 0, False, []
        return n, n == len(view), self.feed(view[:n]) if shared else self.body_filled(n)


def _gather(buffers) -> list[memoryview]:
    """The non-empty *buffers* as contiguous byte views, ready for ``sendmsg``."""
    views = []
    for buf in buffers:
        view = memoryview(buf)
        if view.nbytes:
            if not view.c_contiguous:  # e.g. a reversed slice; kernel needs contiguous
                view = memoryview(bytes(view))
            elif view.format != "B" or view.ndim != 1:
                view = view.cast("B")
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


def _send(sock: socket.socket, buffers) -> list[memoryview]:
    """One ``sendmsg`` of *buffers*; returns what the kernel did not take as
    byte views — none when it took the whole frame, the common case, which
    builds no views.  A full socket buffer (or a blocking socket's timeout)
    leaves it all; other errors raise."""
    try:
        sent = sock.sendmsg(buffers)
    except BufferError:  # a non-contiguous buffer: send byte views of it
        return _send(sock, _gather(buffers))
    except (BlockingIOError, InterruptedError, TimeoutError):
        sent = 0
    total = 0
    for buf in buffers:
        total += len(buf) if type(buf) is bytes else memoryview(buf).nbytes
    if sent == total:
        return []
    views = _gather(buffers)
    _consume(views, sent)
    return views


def _shut(conn: "_Connection") -> None:
    """End *conn* from any thread (``wlock`` held): nothing more is written,
    and the EOF this makes readable brings the read arm back to the loop,
    which closes the socket — never under a reader."""
    if not (conn.shut or conn.closed):
        conn.shut = True
        try:
            conn.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # already disconnected: the reader sees EOF or an error


class _Connection:
    """Reactor-side state for one accepted socket.  ``parser`` and
    ``deadline`` belong to the holder of the read arm; writes, ``outbox``,
    ``shut`` and ``closed`` are guarded by ``wlock``."""

    __slots__ = (
        "sock", "fd", "key", "parser", "wlock", "outbox", "deadline", "interest",
        "shut", "eof", "closed",
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
        self.interest = False  # registered with the loop for EVENT_WRITE
        self.shut = False  # shutdown() called: nothing more is written
        self.eof = False  # the read arm came back for good: the loop may close
        self.closed = False


class ReactorServer:
    """One listening socket, one loop thread and a pool of reading threads.

    *parser_factory* is called per accepted connection and returns the
    protocol's :class:`MessageParser`.  *app_handler* is the binding
    server's request pipeline, invoked on pool threads only.
    """

    def __init__(
        self,
        address: tuple[str, int],
        app_handler,
        parser_factory,
        workers: int = 32,
        queue_max: int = DEFAULT_QUEUE_MAX,
        per_conn_max: int = DEFAULT_PER_CONN_MAX,
        read_deadline_s: float = DEFAULT_READ_DEADLINE_S,
        name: str = "reactor",
    ):
        self.app_handler = app_handler
        self._parser_factory = parser_factory
        self.admission = AdmissionController(workers, queue_max, per_conn_max)
        self.read_deadline_s = max(0.0, read_deadline_s)
        self._name = name
        self._selector = selectors.DefaultSelector()
        self._listen = socket.create_server(address, backlog=1024, reuse_port=False)
        self._listen.setblocking(False)
        self.address = self._listen.getsockname()[:2]
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._conns: dict[int, _Connection] = {}
        self._next_key = 0
        self._rbuf = memoryview(bytearray(_RECV_BUFFER))  # the loop's own
        #: optional callback fired (on the loop thread) when a connection
        #: dies — subscription protocols hook consumer-death detection here.
        #: Must not block: it runs inside the event loop.
        self.on_conn_close = None
        self._attention: deque = deque()  # see _post
        # -- the pool's side: one read epoll, a job queue and its doorbell
        self._rpoll = select.epoll()
        # always readable; arming it hands one waiting thread the queue
        self._bell = os.eventfd(1, os.EFD_NONBLOCK | os.EFD_CLOEXEC)
        self._rpoll.register(self._bell, select.EPOLLONESHOT)  # disarmed
        self._jobs: deque = deque()  # admitted (conn, job, token) awaiting a thread
        self._idle: deque = deque()  # one entry per pool thread free to read
        self._threads: list[threading.Thread] = []
        self._spawn_lock = threading.Lock()
        self._loop_reads = False  # loop thread only: the read epoll is in its selector
        self._stopping = False
        self._running = True
        self._accepting = True
        self._lock = threading.Lock()  # one close() at a time
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

    def _post(self, conn: _Connection) -> None:
        """Leave *conn* with the loop: a queued response to flush, or (its
        read arm back for good) a socket to close."""
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
        if conn.closed or conn.shut:
            return False
        self._write(conn, buffers, None, False)
        return True

    def close(self, drain_s: float = 1.0) -> None:
        """Stop accepting, drain in-flight requests, then tear down.

        ``drain_s=0`` aborts: in-flight requests lose their connections.
        Either way every socket is closed, queued jobs release their
        admission tokens, and the loop and idle pool threads stop.
        """
        with self._lock:
            if not self._running:
                return
            self._accepting = False
        self.admission.start_closing()
        self._wake()  # reactor deregisters the listen socket
        if drain_s > 0:
            self.admission.wait_idle(drain_s)
        self._running = False
        self._wake()
        self._thread.join(timeout=5.0)

    # -- the pool --------------------------------------------------------------

    def _spawn(self) -> None:
        """Start a pool thread, counted free from the start (the caller
        holds ``_spawn_lock`` and checked the ceiling)."""
        self._idle.append(None)
        thread = threading.Thread(
            target=self._work, name=f"{self._name}-worker_{len(self._threads)}",
            daemon=True,
        )
        self._threads.append(thread)
        thread.start()

    def _busy(self) -> None:
        """This pool thread stops counting as free.  The last one to go
        starts another, or at the ceiling has the loop read (admit and
        shed) until one frees up."""
        self._idle.pop()
        if self._idle or self._stopping:
            return
        with self._spawn_lock:
            if self._idle:
                return
            if len(self._threads) < self.admission.workers:
                self._spawn()
                return
        self._wake()

    def _work(self) -> None:
        """Pool thread: wait on the read epoll; read, admit and run."""
        rbuf = memoryview(bytearray(_RECV_BUFFER))
        poll = self._rpoll.poll
        jobs = self._jobs
        while True:
            # counted in _idle here: by the spawner, or at the end of a turn;
            # an empty queue is tested here, without the call
            events = None
            item = self._take() if jobs else None
            if item is None and not self._stopping:
                try:
                    events = poll(-1, 1)
                except (OSError, ValueError):
                    pass  # torn down: _stopping is set
            self._busy()
            if self._stopping:
                self._ring()  # wake the next waiter, which stops in turn
                if item is not None:
                    item[2].release()
                return
            free = False
            try:
                if events:
                    fd = events[0][0]
                    if fd == self._bell:
                        item = self._take()
                        self._ring_on()
                    else:
                        item = self._read(self._conns[fd], rbuf, True)
                while item is not None:
                    conn, job, token = item
                    try:
                        buffers = job.run(self.app_handler)
                    except Exception:
                        buffers = ()  # protocol.run already fault-maps; belt+braces
                    # free again before the reply goes out: the reply is what
                    # brings a lone caller's next request, and counted after
                    # it that caller would look like two and get a new thread
                    self._idle.append(None)
                    free = True
                    self._write(conn, buffers, token, job.close_after)
                    item = self._take() if jobs else None
                    if item is not None:
                        self._busy()
                        free = False
            except Exception:
                _LOOP_ERRORS.inc()  # this thread serves on
            if not free:
                self._idle.append(None)

    def _take(self):
        """A queued job, if any is left and the server is not stopping."""
        if self._jobs and not self._stopping:
            try:
                return self._jobs.popleft()
            except IndexError:
                pass  # another thread took it
        return None

    def _queue(self, item) -> None:
        """Hand an admitted job to the next free pool thread (a thread that
        frees up takes the queue before it waits again, so no job waits
        for a ring that no one is free to answer)."""
        self._jobs.append(item)
        if self._idle:
            self._ring()

    def _ring(self) -> None:
        try:
            self._rpoll.modify(self._bell, _ARM)
        except (OSError, ValueError):
            pass  # torn down

    def _ring_on(self) -> None:
        """The doorbell fired and is disarmed: ring again while jobs wait
        and a thread is free to take one."""
        if self._jobs and self._idle:
            self._ring()

    # -- reads -----------------------------------------------------------------

    def _read(self, conn: _Connection, rbuf: memoryview, pooled: bool):
        """Read *conn* while holding its read arm, re-arm it (or leave it
        with the loop to close) and admit what completed.  A pool thread
        (*pooled*) gets back the first admitted job to run itself; the rest,
        and everything the loop reads, is queued."""
        parser = conn.parser
        recv_into = conn.sock.recv_into
        jobs: list = []
        eof = False
        budget = _READ_QUANTUM
        while True:
            try:
                n, full, got = parser.receive(recv_into, rbuf)
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                n = 0
            except Exception:
                # framing violation (oversize, corrupt): the stream can no
                # longer be trusted, so the connection dies
                _LOOP_ERRORS.inc()
                n = 0
            if not n:
                eof = True
                break
            jobs += got
            budget -= n
            if not full or budget <= 0:
                break  # the kernel had no more (do not provoke EAGAIN)
        # read-deadline bookkeeping: a message in progress (a partial header
        # held over between reads counts) gets one fixed completion budget
        # from its first byte — progress does not extend it, which is what
        # defeats drip-feeding; only a completed message restarts it
        if not parser.mid_message:
            conn.deadline = None
        elif (jobs or conn.deadline is None) and self.read_deadline_s > 0:
            conn.deadline = time.monotonic() + self.read_deadline_s
        if conn.shut:  # the stream ended: bytes queued before it are not admitted
            eof, jobs = True, []
        if eof:
            conn.eof = True  # the arm stays with the loop, which closes
            self._post(conn)
        else:
            try:
                self._rpoll.modify(conn.fd, _ARM)
            except (OSError, ValueError):
                pass  # torn down under us
        first = None
        for job in jobs:
            if job.wants_conn:
                job.conn = conn
            token = self.admission.try_admit(conn.key)
            if token is None:
                self._write(conn, job.busy_reply(), None, job.close_after)
            elif pooled and first is None:
                first = (conn, job, token)
            else:
                self._queue((conn, job, token))
        return first

    def _read_for_pool(self) -> None:
        """Loop thread, every pool thread busy: admit or shed what is
        readable and queue the admitted jobs — never run one here."""
        for fd, _mask in self._rpoll.poll(0, 64):
            try:
                if fd == self._bell:
                    self._ring_on()  # busy threads take queued jobs anyway
                else:
                    self._read(self._conns[fd], self._rbuf, False)
            except Exception:
                _LOOP_ERRORS.inc()  # the events after it still hold arms

    # -- the loop --------------------------------------------------------------

    def _loop(self) -> None:
        next_sweep = time.monotonic() + 0.1
        try:
            while self._running:
                if not self._accepting and self._listen.fileno() >= 0:
                    try:
                        self._selector.unregister(self._listen)
                    except KeyError:
                        pass
                    self._listen.close()
                # the loop reads only while every pool thread is busy at
                # the ceiling (the thread that takes the last slot wakes it)
                starved = not self._idle and len(self._threads) >= self.admission.workers
                if starved != self._loop_reads:
                    self._loop_reads = starved
                    if starved:
                        self._selector.register(self._rpoll, selectors.EVENT_READ, "read")
                    else:
                        self._selector.unregister(self._rpoll)
                try:
                    events = self._selector.select(timeout=0.1)
                except OSError:
                    events = []
                for key, _mask in events:
                    what = key.data
                    try:
                        if what == "accept":
                            self._accept()
                        elif what == "wake":
                            self._drain_wake()
                        elif what == "read":
                            self._read_for_pool()
                        else:
                            self._flush(what)
                    except Exception:
                        _LOOP_ERRORS.inc()
                        if isinstance(what, _Connection):
                            with what.wlock:
                                _shut(what)
                while self._attention:
                    conn = self._attention.popleft()
                    if conn.eof:
                        self._close_conn(conn)
                    else:
                        self._flush(conn)
                now = time.monotonic()
                if now >= next_sweep:
                    next_sweep = now + 0.1
                    self._sweep_deadlines(now)
        finally:
            self._teardown()

    def _teardown(self) -> None:
        """Stop the pool, release queued jobs' tokens, close every socket."""
        self._stopping = True
        conns = list(self._conns.values())
        for conn in conns:
            with conn.wlock:
                _shut(conn)  # a thread mid-read sees EOF
        self._ring()  # each waiting pool thread wakes the next, and stops
        while self._jobs:
            self._jobs.popleft()[2].release()
        # sockets and the epoll close once the pool has left them; a thread
        # still inside a handler holds no read arm and stops when it returns
        deadline = time.monotonic() + _STOP_GRACE_S
        for thread in self._threads:
            thread.join(max(0.0, deadline - time.monotonic()))
        for conn in conns:
            self._close_conn(conn)
        self._selector.close()
        for closable in (self._rpoll, self._listen, self._wake_r, self._wake_w):
            closable.close()
        os.close(self._bell)

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
            _ACCEPTS.inc()
            _CONNS.inc()  # before the arm: a reply on it implies the count
            if not self._threads:
                with self._spawn_lock:
                    self._spawn()
            self._rpoll.register(conn.fd, _ARM)

    def _drain_wake(self) -> None:
        try:
            while len(self._wake_r.recv(4096)) == 4096:
                pass
        except (BlockingIOError, OSError):
            pass

    # -- writes ----------------------------------------------------------------

    def _write(self, conn: _Connection, buffers, token, close_after: bool) -> None:
        """Send a response on *conn* from the calling thread (any thread).

        Writes directly — one ``sendmsg`` — only while nothing is queued
        ahead of it on the connection; whatever the kernel did not take,
        and any reply that must close the connection afterwards, goes to
        the outbox in the same lock hold and the connection is left with
        the loop to flush.
        """
        with conn.wlock:
            open_ = not (conn.closed or conn.shut)
            if not open_:
                views = None
            elif close_after or conn.outbox:
                views = _gather(buffers)
            else:
                try:
                    views = _send(conn.sock, buffers)
                except OSError:
                    # the peer is gone: shut the socket, whose EOF brings
                    # the read arm back to the loop to close
                    _shut(conn)
                    open_ = False
            queued = open_ and (bool(views) or close_after)
            if queued:
                conn.outbox.append([views, token, close_after])
        if queued:
            _QUEUED_WRITES.inc()
            self._post(conn)
            return
        # fully handed to the kernel, or dropped with its connection: either
        # way the request's capacity claim ends here
        if token is not None:
            token._controller._release(token, open_)
        elif open_:
            with _ADMISSION_LOCK:
                _TALLY.direct_writes += 1

    def _flush(self, conn: _Connection) -> None:
        """Loop thread: write out *conn*'s outbox; arm or disarm
        ``EVENT_WRITE`` by what is left; shut the socket when a reply
        asked for it."""
        done = []
        blocked = False
        with conn.wlock:
            if conn.closed or conn.shut:
                return
            while conn.outbox:
                views, token, close_after = conn.outbox[0]
                try:
                    _consume(views, conn.sock.sendmsg(views))
                except (BlockingIOError, InterruptedError):
                    blocked = True
                    break
                except OSError:
                    _shut(conn)
                    break
                if views:
                    blocked = True  # partial: the socket buffer is full
                    break
                conn.outbox.popleft()
                done.append(token)
                if close_after:
                    _shut(conn)
                    break
        for token in done:
            if token is not None:
                token.release()
        self._want_write(conn, blocked and not conn.shut)

    def _want_write(self, conn: _Connection, want: bool) -> None:
        if want != conn.interest and not conn.closed:
            conn.interest = want
            try:
                if want:
                    self._selector.register(conn.sock, selectors.EVENT_WRITE, conn)
                else:
                    self._selector.unregister(conn.sock)
            except (KeyError, ValueError, OSError):
                pass

    # -- lifecycle -------------------------------------------------------------

    def _sweep_deadlines(self, now: float) -> None:
        for conn in list(self._conns.values()):
            deadline = conn.deadline
            if deadline is not None and deadline <= now and not conn.shut:
                _DEADLINE_CLOSES.inc()
                with conn.wlock:
                    _shut(conn)

    def _close_conn(self, conn: _Connection) -> None:
        """Loop thread, read arm back: close *conn*.  Takes the write lock,
        so no writer is mid-``sendmsg`` when the socket goes, and every
        writer after it sees ``closed`` and drops its frame."""
        with conn.wlock:
            if conn.closed:
                return
            conn.closed = True
            stranded = list(conn.outbox)
            conn.outbox.clear()
            if conn.interest:
                try:
                    self._selector.unregister(conn.sock)
                except (KeyError, ValueError, OSError):
                    pass
            try:
                conn.sock.close()  # which takes it out of the read epoll too
            except OSError:
                pass
        self._conns.pop(conn.fd, None)
        # responses that never made the wire still free their capacity
        for _views, token, _close in stranded:
            if token is not None:
                token.release()
        _CONNS.dec()
        callback = self.on_conn_close
        if callback is not None:
            try:
                callback(conn)
            except Exception:
                _LOOP_ERRORS.inc()


class ReactorListener(ReactorServer):
    """A binding's server endpoint on the reactor core, dialed at
    :attr:`url`.

    A subclass names its URL ``scheme``, the ``name`` its threads carry
    and, as ``new_parser()``, the parser factory every accepted connection
    is given; the knobs are the :class:`ReactorServer`'s, and ``close()``
    drains for the ``drain_s`` given here.
    """

    def __init__(
        self,
        handler,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 32,
        queue_max: int = DEFAULT_QUEUE_MAX,
        per_conn_max: int = DEFAULT_PER_CONN_MAX,
        read_deadline_s: float = DEFAULT_READ_DEADLINE_S,
        drain_s: float = 1.0,
    ):
        self._drain_s = drain_s
        super().__init__(
            (host, port), handler, self.new_parser, workers, queue_max,
            per_conn_max, read_deadline_s, self.name,
        )

    @property
    def url(self) -> str:
        return f"{self.scheme}://{self.address[0]}:{self.address[1]}"

    @property
    def port(self) -> int:
        return self.address[1]

    def close(self, drain_s: float | None = None) -> None:
        super().close(self._drain_s if drain_s is None else drain_s)

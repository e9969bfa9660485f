"""Trace contexts propagated across every Harness transport.

A :class:`TraceContext` is (trace id, span id, parent span id, baggage):
the trace id names one end-to-end invocation no matter how many hops it
takes, span ids name the hops, and baggage is a small set of key/value
pairs that travels with the call.  Ids are 64-bit, written as 16 lowercase
hex digits.

Three wire forms carry the same context (property-tested to agree):

* **binary** (:func:`to_bytes` / :func:`from_bytes`) — ``"RT" | version |
  trace | span | parent | n | (klen k vlen v)*``, attached to TCP
  protocol-v2 frames behind a status-byte flag;
* **text** (:func:`to_header` / :func:`from_header`) —
  ``trace-span-parent[;k=v,…]`` with percent-encoded baggage, carried in
  the ``X-Repro-Trace`` HTTP header;
* **SOAP** (:func:`splice_soap` / :func:`extract_soap`) — a
  ``<soapenv:Header><harness:trace …>`` block spliced ahead of the Body
  (the streaming envelope reader skips Header subtrees, so call parsing is
  unaffected).

The in-process and simulated transports need no wire form: invocation is
synchronous in the caller's thread, so the contextvar flows by itself.

Tracing is globally off by default.  Hot paths read the module attribute
:data:`ENABLED` — one dict lookup — and do nothing else when it is false.

When it is on, a traced call *records raw* (a tuple and one queue append),
the finisher thread *folds* whole batches of those records into the
metrics, and ids, contexts and :class:`Span` objects are *built when read*:
a client root stays one 128-bit int until something asks for its hex ids.
"""

from __future__ import annotations

import atexit
import os
import random
import re
import struct
import threading
from collections import deque
from time import monotonic as _monotonic, sleep as _sleep
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from itertools import compress, repeat
from operator import is_
from typing import NamedTuple
from urllib.parse import quote, unquote

__all__ = [
    "TraceContext",
    "TraceWireError",
    "Span",
    "SpanRecorder",
    "recorder",
    "new_trace",
    "new_span",
    "current",
    "current_wire",
    "resolve",
    "activate",
    "activate_wire",
    "peek",
    "LazyChild",
    "deactivate",
    "use",
    "SpanKind",
    "finisher",
    "flush",
    "report_to",
    "enable",
    "enabled",
    "to_bytes",
    "from_bytes",
    "to_header",
    "from_header",
    "soap_header_block",
    "splice_soap",
    "extract_soap",
    "TRACE_HEADER",
    "SOAP_MARKER",
]

#: HTTP request header carrying the text wire form.
TRACE_HEADER = "X-Repro-Trace"

_ZERO = "0" * 16
_HEX16 = re.compile(r"[0-9a-f]{16}$")


class TraceWireError(ValueError):
    """A wire form that is truncated, corrupt, or not a trace at all."""


@dataclass(frozen=True)
class TraceContext:
    """One hop of one distributed invocation."""

    trace_id: str
    span_id: str
    parent_id: str = ""
    baggage: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        for name in ("trace_id", "span_id"):
            value = getattr(self, name)
            if not _HEX16.fullmatch(value):
                raise TraceWireError(f"{name} must be 16 hex digits, got {value!r}")
        if self.trace_id == _ZERO:
            raise TraceWireError("trace_id must be nonzero")
        if self.parent_id and not _HEX16.fullmatch(self.parent_id):
            raise TraceWireError(f"parent_id must be 16 hex digits, got {self.parent_id!r}")

    def child(self) -> "TraceContext":
        """A new span in the same trace, parented to this one."""
        return _make(self.trace_id, _new_id(), self.span_id, self.baggage)

    def with_baggage(self, key: str, value: str) -> "TraceContext":
        kept = tuple((k, v) for k, v in self.baggage if k != key)
        return TraceContext(
            self.trace_id, self.span_id, self.parent_id, kept + ((key, value),)
        )

    def bag(self, key: str, default: str | None = None) -> str | None:
        for k, v in self.baggage:
            if k == key:
                return v
        return default


# Ids need uniqueness, not unpredictability: a process-local PRNG seeded
# from the OS avoids a syscall per id (three per traced call adds up).
# getrandbits on a shared Random is a single C call, atomic under the GIL.
_id_source = random.Random(os.urandom(16))


def _new_id() -> str:
    value = 0
    while not value:
        value = _id_source.getrandbits(64)
    return f"{value:016x}"


_setattr = object.__setattr__


def _make(trace_id: str, span_id: str, parent_id: str,
          baggage: tuple[tuple[str, str], ...]) -> TraceContext:
    """Trusted constructor for fields already known to be well-formed
    (freshly minted ids, or ids a wire parser regex just matched): skips
    the dataclass ``__init__`` and its validation.  Hot-path only —
    anything user-supplied goes through :class:`TraceContext` proper."""
    ctx = object.__new__(TraceContext)
    _setattr(ctx, "trace_id", trace_id)
    _setattr(ctx, "span_id", span_id)
    _setattr(ctx, "parent_id", parent_id)
    _setattr(ctx, "baggage", baggage)
    return ctx


_LOW64 = (1 << 64) - 1


def _new_root() -> int:
    """A fresh root context as one bare 128-bit int: trace id in the high
    half, span id in the low half, both nonzero.

    Contexts are held this way until read: the binary wire block packs
    straight from the int (:func:`current_wire`), and the hex ids and the
    :class:`TraceContext` are made only by :func:`resolve`.
    """
    bits = _id_source.getrandbits(128)
    while not (bits >> 64 and bits & _LOW64):
        bits = _id_source.getrandbits(128)
    return bits


def _root_context(bits: int) -> TraceContext:
    text = f"{bits:032x}"
    return _make(text[:16], text[16:], "", ())


def new_trace(baggage: tuple[tuple[str, str], ...] = ()) -> TraceContext:
    """A fresh root context (its span has no parent)."""
    if baggage:
        return TraceContext(_new_id(), _new_id(), "", tuple(baggage))
    return _root_context(_new_root())


# -- current-context management (contextvar: per-thread, per-task) ---------------

_current: ContextVar[TraceContext | None] = ContextVar("repro-trace", default=None)

#: Global tracing switch.  Instrumented hot paths read this attribute and
#: skip all trace work when false; flip it with :func:`enable`.
ENABLED = False


def enable(on: bool = True) -> None:
    global ENABLED
    ENABLED = bool(on)


def enabled() -> bool:
    return ENABLED


def resolve(ctx) -> TraceContext | None:
    """The :class:`TraceContext` a context value stands for: itself, a lazy
    cell's memoized value (materialized on first read), the root a bare
    int holds (made afresh, equal every time), or None."""
    if ctx is None or ctx.__class__ is TraceContext:
        return ctx
    if ctx.__class__ is int:
        return _root_context(ctx)
    return ctx.get()


def current() -> TraceContext | None:
    return resolve(_current.get())


def new_span():
    """The context for a new outgoing call: a child of the current context,
    or, with none active, a fresh root held as its bare 128-bit int
    (activate it like a :class:`TraceContext`; :func:`resolve` turns it
    into one)."""
    parent = _current.get()
    if parent is not None:
        parent = resolve(parent)
        if parent is not None:
            return parent.child()
    return _new_root()


def current_wire() -> bytes:
    """The binary wire block (:func:`to_bytes`) of the current context, or
    ``b""`` when there is none.  A root still held as its int is packed
    straight from it, with no hex round trip."""
    ctx = _current.get()
    if ctx.__class__ is int:
        return _FIXED.pack(_MAGIC, _VERSION, ctx >> 64, ctx & _LOW64, 0, 0)
    ctx = resolve(ctx)
    return to_bytes(ctx) if ctx is not None else b""


def activate(ctx):
    """Install *ctx* (a :class:`TraceContext`, a lazy cell or root, or None)
    as the current context; returns the reset token."""
    return _current.set(ctx)


class _LazyWire:
    """Wire bytes a transport stashed un-parsed.

    Decoding the block and minting ids is bookkeeping the caller should
    not wait on: the cell defers the parse until somebody actually reads
    the context (a service calling :func:`current`) or its server span.
    A mangled block materializes as None — same outcome as the eager path,
    decided later.
    """

    __slots__ = ("raw", "parse", "value", "done")

    def __init__(self, raw, parse):
        self.raw = raw
        self.parse = parse
        self.value: TraceContext | None = None
        self.done = False

    def get(self) -> TraceContext | None:
        if not self.done:
            self.done = True
            try:
                self.value = self.parse(self.raw)
            except Exception:  # any mangled block means "no context" — a
                self.value = None  # corrupt frame must never fail the call
        return self.value


class LazyChild:
    """The server-side span context, minted on first use.

    *source* is whatever the transport activated: a real
    :class:`TraceContext`, an un-parsed :class:`_LazyWire`, a caller's
    in-process root, or None.  The child (or fresh root) is memoized so
    the service's view and the span built later always agree on ids.
    """

    __slots__ = ("source", "value")

    def __init__(self, source):
        self.source = source
        self.value: TraceContext | None = None

    def get(self) -> TraceContext:
        value = self.value
        if value is None:
            value = self._mint()
            # the service and a reader of its span may both be first here:
            # whoever publishes first decides the id everyone sees
            with _MINTING:
                if self.value is None:
                    self.value = value
                value = self.value
        return value

    def _mint(self) -> TraceContext:
        incoming = self.source
        if (
            incoming.__class__ is _LazyWire
            and not incoming.done
            and incoming.parse is from_bytes
        ):
            # nobody materialized the parent: decode the fixed head and mint
            # the child in one step, skipping the intermediate context object
            child = _child_from_wire(incoming.raw)
            if child is not None:
                return child
        incoming = resolve(incoming)
        return incoming.child() if incoming is not None else new_trace()


_MINTING = threading.Lock()


def activate_wire(raw, parse):
    """Install *raw* wire bytes as the current context without parsing
    them; *parse* runs only if the context is actually read."""
    return _current.set(_LazyWire(raw, parse))


def peek():
    """The raw current value — a :class:`TraceContext`, an un-materialized
    lazy cell, or None — without forcing a parse."""
    return _current.get()


def deactivate(token) -> None:
    _current.reset(token)


@contextmanager
def use(ctx: TraceContext | None):
    token = _current.set(ctx)
    try:
        yield ctx
    finally:
        _current.reset(token)


# -- asynchronous bookkeeping (span finalization off the critical path) ----------
#
# Span finalization — observing histograms, recording the span — would
# otherwise run at the worst possible instants: on the server between the
# service returning and the reply write, and on the client just after the
# reply arrives, when the CPU is cache-cold from the transit wait.  Both
# sides therefore *record raw*: one tuple appended to the finisher queue.
# The finisher thread *folds* each drained batch per instrument (one
# counter add and one stripe lock per histogram per batch) while the
# caller is off in its next blocking wait, and lands the raw records in
# the span ring, where :class:`Span` objects are *built on read*.
# Readers that need a consistent view (console reports, tests, snapshots
# over RPC) call :func:`flush` first.

#: Most items the finisher queue holds.  A submission that finds it full
#: folds a batch on the submitting thread: a wedged or starved worker
#: costs its callers time, never unbounded memory or a lost count.
_QUEUE_CAP = 1024

#: Where the finisher and the span ring count their own errors and queue
#: depth.  :mod:`repro.obs.metrics` imports this module, so instead of
#: being imported here it installs its process registry (:func:`report_to`).
_registry = None


def report_to(registry) -> None:
    """Count the finisher's and the span ring's own errors and depth into
    *registry* (a :class:`~repro.obs.metrics.MetricsRegistry`)."""
    global _registry
    _registry = registry


def _count_error(name: str, exc: Exception | None = None) -> None:
    registry = _registry
    if registry is not None:
        registry.count_error(name, exc)


class SpanKind:
    """A kind of per-call record the finisher folds per batch.

    ``finisher.submit(kind, record)`` queues the *record* tuple raw.  Each
    drain hands every record queued for *kind* to ``fold(records)`` once,
    in submission order, and lands the ``(kind, record)`` pairs in the
    span ring as they are; ``build(record)`` makes the :class:`Span` when
    something reads the ring (at once, when a tee is installed).
    """

    __slots__ = ("fold", "build")

    def __init__(self, fold, build):
        self.fold = fold
        self.build = build


class _AsyncFinisher:
    """Single daemon thread draining ``(fn, args)`` bookkeeping items.

    ``submit`` is the per-call hot path and is nothing but a
    ``deque.append`` (atomic under the GIL) — deliberately NOT an event
    set, because waking a parked thread is a futex syscall plus a
    scheduler pass, which costs more on the caller than the bookkeeping
    it displaces.  Instead the worker self-wakes on a short tick and
    drains whatever accumulated; that tick parks in the kernel, so its
    cost lands on idle time, not on any caller.  :meth:`flush` forces an
    immediate drain for readers that need a consistent view.

    An item whose *fn* is a :class:`SpanKind` is a record folded with the
    rest of its batch; any other callable is called with its args.  Both
    run in submission order.  A finalizer that raises is counted
    (``obs.finisher.errors`` and ``obs.finisher.errors.<ExcType>``) and
    dropped: bookkeeping must not take the process down.

    The worker starts lazily on the first submission.  The first start
    registers an ``atexit`` hook that joins the worker after a final
    drain, so a short-lived CLI run (``scenario run``, a one-shot console
    script) does not lose the tail spans still sitting in the queue when
    the interpreter exits.  After the worker has exited — shutdown, or an
    interpreter already tearing down — :meth:`flush` drains the queue
    inline on the caller's thread instead of waiting forever on a dead
    worker.
    """

    __slots__ = (
        "_queue", "_event", "_thread", "_start_lock", "_inline", "_busy", "_stopping",
    )

    #: Worker tick: the latency ceiling for a span/metric becoming
    #: visible without an explicit flush.
    _TICK_S = 0.005

    def __init__(self):
        self._queue = deque()
        self._event = threading.Event()
        self._thread = None
        self._start_lock = threading.Lock()
        self._inline = threading.Lock()  # held by a thread draining inline
        self._busy = False
        self._stopping = False

    def submit(self, fn, args=()) -> None:
        queue = self._queue
        queue.append((fn, args))
        if self._thread is None:
            self._start()
        if len(queue) >= _QUEUE_CAP and self._inline.acquire(False):
            # the worker is behind: fold a batch here instead of growing
            # (a submitter that finds another one folding just appends)
            try:
                self._fold(self._take())
            finally:
                self._inline.release()

    def _start(self) -> None:
        with self._start_lock:
            if self._thread is None:
                thread = threading.Thread(
                    target=self._run, name="repro-obs-finisher", daemon=True
                )
                self._thread = thread
                thread.start()
                atexit.register(self.shutdown)

    def _run(self) -> None:
        queue, event = self._queue, self._event
        while True:
            event.wait(self._TICK_S)
            event.clear()
            self._busy = True
            while queue:
                self._fold(self._take())
            self._busy = False
            if self._stopping and not queue:
                return

    def _take(self) -> list:
        """Pop everything queued right now, oldest first."""
        queue = self._queue
        depth = len(queue)
        registry = _registry
        if registry is not None:
            # the cap is said again with each depth: registry.reset() zeroes it
            registry.gauge("obs.finisher.depth").set(depth)
            registry.gauge("obs.finisher.cap").set(_QUEUE_CAP)
        batch = []
        pop = queue.popleft
        try:
            for _ in range(depth):
                batch.append(pop())
        except IndexError:  # a concurrent drainer took the rest
            pass
        return batch

    def _fold(self, batch: list) -> None:
        """Run one drained batch in submission order: each run of
        :class:`SpanKind` records is folded and landed (:func:`_land`); any
        other callable is called where it was queued."""
        first = 0
        for n, (fn, args) in enumerate(batch):
            if fn.__class__ is SpanKind:
                continue
            if n > first:
                _land(batch[first:n])
            first = n + 1
            try:
                fn(*args)
            except Exception as exc:  # noqa: BLE001 — counted, never propagated
                _count_error("obs.finisher.errors", exc)
        if first < len(batch):
            _land(batch[first:] if first else batch)

    def _drain_inline(self) -> None:
        """Run queued finalizers on the calling thread (no worker left)."""
        with self._inline:
            while self._queue:
                self._fold(self._take())

    def shutdown(self, timeout: float = 5.0) -> None:
        """Stop the worker after a final drain (idempotent; atexit hook)."""
        thread = self._thread
        self._stopping = True
        if thread is not None and thread.is_alive():
            self._event.set()
            thread.join(timeout)
        self._drain_inline()  # anything submitted after the worker left

    def drained(self) -> bool:
        return not self._queue and not self._busy and not self._inline.locked()

    def flush(self, timeout: float = 5.0) -> bool:
        """Block until every submitted finalizer has run (or *timeout*).

        Safe at any lifecycle point: with the worker gone (post-shutdown,
        interpreter exit) the queue is drained inline instead.
        """
        if self.drained():
            return True
        thread = self._thread
        if thread is None or not thread.is_alive():
            self._drain_inline()
            return self.drained()
        deadline = _monotonic() + timeout
        while not self.drained():
            self._event.set()  # cut the worker's tick short
            if not thread.is_alive():
                self._drain_inline()
                return self.drained()
            if _monotonic() >= deadline:
                return False
            _sleep(0.0005)
        return True


finisher = _AsyncFinisher()


def flush(timeout: float = 5.0) -> bool:
    """Wait for all pending span/metric bookkeeping to land."""
    return finisher.flush(timeout)


# -- binary wire form (TCP frames) -----------------------------------------------

_MAGIC = b"RT"
_VERSION = 1
_FIXED = struct.Struct(">2sBQQQB")  # magic, version, trace, span, parent, n items
_KLEN = struct.Struct(">H")


def to_bytes(ctx: TraceContext) -> bytes:
    if not ctx.baggage:  # the overwhelmingly common frame: no list, no join
        return _FIXED.pack(
            _MAGIC,
            _VERSION,
            int(ctx.trace_id, 16),
            int(ctx.span_id, 16),
            int(ctx.parent_id, 16) if ctx.parent_id else 0,
            0,
        )
    if len(ctx.baggage) > 255:
        raise TraceWireError("baggage too large for the wire (max 255 items)")
    parts = [
        _FIXED.pack(
            _MAGIC,
            _VERSION,
            int(ctx.trace_id, 16),
            int(ctx.span_id, 16),
            int(ctx.parent_id, 16) if ctx.parent_id else 0,
            len(ctx.baggage),
        )
    ]
    for key, value in ctx.baggage:
        k, v = key.encode("utf-8"), value.encode("utf-8")
        if len(k) > 0xFFFF or len(v) > 0xFFFF:
            raise TraceWireError("baggage item too large for the wire")
        parts.append(_KLEN.pack(len(k)) + k + _KLEN.pack(len(v)) + v)
    return b"".join(parts)


def from_bytes(data: bytes | bytearray | memoryview) -> TraceContext:
    data = bytes(data)
    if len(data) < _FIXED.size:
        raise TraceWireError(f"trace block truncated: {len(data)} bytes")
    magic, version, trace, span, parent, n = _FIXED.unpack_from(data)
    if magic != _MAGIC:
        raise TraceWireError(f"not a trace block (magic {magic!r})")
    if version != _VERSION:
        raise TraceWireError(f"unknown trace block version {version}")
    if not trace or not span:
        raise TraceWireError("trace and span ids must be nonzero")
    offset = _FIXED.size
    baggage = []
    for _ in range(n):
        key, offset = _take(data, offset)
        value, offset = _take(data, offset)
        baggage.append((key, value))
    if offset != len(data):
        raise TraceWireError(f"{len(data) - offset} trailing bytes after trace block")
    return _make(
        f"{trace:016x}", f"{span:016x}", f"{parent:016x}" if parent else "",
        tuple(baggage),
    )


def _child_from_wire(raw) -> TraceContext | None:
    """The server child for a baggage-free binary block, minted without
    materializing the parent context.  None means "take the general
    path": baggage present, or the block is suspect."""
    if len(raw) != _FIXED.size:
        return None
    magic, version, trace, span, _parent, n = _FIXED.unpack(
        raw if isinstance(raw, bytes) else bytes(raw)
    )
    if magic != _MAGIC or version != _VERSION or n or not trace or not span:
        return None
    return _make(f"{trace:016x}", _new_id(), f"{span:016x}", ())


def _take(data: bytes, offset: int) -> tuple[str, int]:
    if offset + _KLEN.size > len(data):
        raise TraceWireError("trace block truncated inside baggage")
    (length,) = _KLEN.unpack_from(data, offset)
    offset += _KLEN.size
    if offset + length > len(data):
        raise TraceWireError("trace block truncated inside baggage item")
    try:
        text = data[offset:offset + length].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise TraceWireError(f"baggage is not UTF-8: {exc}") from None
    return text, offset + length


# -- text wire form (HTTP header) ------------------------------------------------

_HEADER_RE = re.compile(r"([0-9a-f]{16})-([0-9a-f]{16})-([0-9a-f]{16})$")


def to_header(ctx: TraceContext) -> str:
    text = f"{ctx.trace_id}-{ctx.span_id}-{ctx.parent_id or _ZERO}"
    if ctx.baggage:
        items = ",".join(
            f"{quote(k, safe='')}={quote(v, safe='')}" for k, v in ctx.baggage
        )
        text = f"{text};{items}"
    return text


def from_header(text: str) -> TraceContext:
    ids, sep, tail = text.partition(";")
    match = _HEADER_RE.fullmatch(ids)
    if match is None:
        raise TraceWireError(f"malformed trace header: {text[:80]!r}")
    baggage = []
    if sep:
        if not tail:
            raise TraceWireError("empty baggage section in trace header")
        for item in tail.split(","):
            # empty keys are legal (percent-encoding of "" is ""), so only
            # the separator is mandatory
            key, eq, value = item.partition("=")
            if not eq:
                raise TraceWireError(f"malformed baggage item {item!r}")
            try:
                baggage.append((unquote(key, errors="strict"), unquote(value, errors="strict")))
            except UnicodeDecodeError as exc:
                raise TraceWireError(f"baggage is not UTF-8: {exc}") from None
    trace, span, parent = match.groups()
    if trace == _ZERO:
        raise TraceWireError("trace_id must be nonzero")
    return _make(trace, span, "" if parent == _ZERO else parent, tuple(baggage))


# -- SOAP wire form (envelope header block) --------------------------------------

# NS_HARNESS from repro.xmlkit, inlined as bytes: obs sits below the soap
# layer and must not import it (soap.codec imports obs for the splice).
_NS = b"http://harness.mathcs.emory.edu/wsdl/harness/"

#: Cheap containment probe: only payloads carrying this marker are parsed.
SOAP_MARKER = b"<harness:trace"

_SOAP_TRACE_RE = re.compile(
    rb'<harness:trace xmlns:harness="[^"]+" '
    rb'id="([0-9a-f]{16})" span="([0-9a-f]{16})" parent="([0-9a-f]{16})">'
    rb'((?:<harness:bag key="[^"<>]*">[^<]*</harness:bag>)*)'
    rb"</harness:trace>"
)
_BAG_RE = re.compile(rb'<harness:bag key="([^"<>]*)">([^<]*)</harness:bag>')
_BODY_OPEN = b"<soapenv:Body>"


def soap_header_block(ctx: TraceContext) -> bytes:
    """The self-contained ``<soapenv:Header>…`` bytes for *ctx*.

    Keys and values are percent-encoded (as in the HTTP form), so the block
    is always XML-safe ASCII regardless of what the baggage holds.
    """
    bags = b"".join(
        b'<harness:bag key="%s">%s</harness:bag>'
        % (quote(k, safe="").encode("ascii"), quote(v, safe="").encode("ascii"))
        for k, v in ctx.baggage
    )
    return (
        b'<soapenv:Header><harness:trace xmlns:harness="%s" '
        b'id="%s" span="%s" parent="%s">%s</harness:trace></soapenv:Header>'
        % (
            _NS,
            ctx.trace_id.encode("ascii"),
            ctx.span_id.encode("ascii"),
            (ctx.parent_id or _ZERO).encode("ascii"),
            bags,
        )
    )


def splice_soap(envelope: bytes, ctx: TraceContext) -> bytes:
    """Insert the trace header block ahead of ``<soapenv:Body>``.

    Envelopes without a recognizable Body (foreign XML) pass through
    unchanged — tracing never breaks a payload it does not understand.
    """
    if not isinstance(envelope, (bytes, bytearray)):
        envelope = bytes(envelope)
    index = envelope.find(_BODY_OPEN)
    if index < 0:
        return bytes(envelope)
    return b"%s%s%s" % (envelope[:index], soap_header_block(ctx), envelope[index:])


def extract_soap(data: bytes | bytearray | memoryview) -> TraceContext | None:
    """The context carried in a SOAP payload, or None when it carries none.

    A payload *containing* the trace marker but failing to parse raises
    :class:`TraceWireError` — a mangled header must not be silently read as
    "no trace".
    """
    if not isinstance(data, (bytes, bytearray)):
        data = bytes(data)
    if SOAP_MARKER not in data:
        return None
    match = _SOAP_TRACE_RE.search(data)
    if match is None:
        raise TraceWireError("malformed harness:trace SOAP header block")
    trace, span, parent, bags = match.groups()
    baggage = []
    for key, value in _BAG_RE.findall(bags):
        try:
            baggage.append(
                (
                    unquote(key.decode("ascii"), errors="strict"),
                    unquote(value.decode("ascii"), errors="strict"),
                )
            )
        except UnicodeDecodeError as exc:
            raise TraceWireError(f"baggage is not UTF-8: {exc}") from None
    parent_text = parent.decode("ascii")
    trace_text = trace.decode("ascii")
    if trace_text == _ZERO:
        raise TraceWireError("trace_id must be nonzero")
    return _make(
        trace_text,
        span.decode("ascii"),
        "" if parent_text == _ZERO else parent_text,
        tuple(baggage),
    )


# -- span recording --------------------------------------------------------------


class Span(NamedTuple):
    """One finished, timed hop (client or server side of a call).

    A NamedTuple, not a dataclass: spans are minted on every traced call,
    and tuple construction is the cheapest object creation Python offers.
    """

    name: str
    trace_id: str
    span_id: str
    parent_id: str = ""
    status: str = "ok"
    timings_us: dict = {}

    def describe(self) -> str:
        timings = " ".join(f"{k}={v:.0f}us" for k, v in self.timings_us.items())
        return f"{self.name} [{self.status}] trace={self.trace_id} span={self.span_id} {timings}".rstrip()


def _built(item) -> Span:
    """A ring entry as a span: a raw ``(kind, record)`` pair is built now."""
    return item[0].build(item[1]) if item.__class__ is tuple else item


def _land(items: list) -> None:
    """Fold a run of finisher ``(kind, record)`` items — each kind once,
    over its records in order — then land them in the span ring."""
    kinds, records = zip(*items)
    for kind in dict.fromkeys(kinds):
        try:
            kind.fold(list(compress(records, map(is_, kinds, repeat(kind)))))
        except Exception as exc:  # noqa: BLE001 — counted, never propagated
            _count_error("obs.finisher.errors", exc)
    try:
        recorder._land(items)
    except Exception as exc:  # noqa: BLE001 — a build that raised under a tee
        _count_error("obs.finisher.errors", exc)


class SpanRecorder:
    """Bounded in-memory ring of finished spans (newest kept).

    ``record`` is lock-free: ``deque.append`` with a maxlen is atomic in
    CPython.  The finisher lands its batches raw — ``(kind, record)``
    pairs — and :meth:`last` builds a :class:`Span` only for what it
    returns.  Readers (cold path) retry the snapshot if a concurrent
    append moves the ring under them.

    ``tee``, when set, is called with every recorded span (the end-to-end
    benchmark's per-layer tap), so with a tee installed every record is
    built as it lands.  Unset it costs one attribute read
    per batch; a tee that raises is counted (``obs.recorder.tee_errors``)
    and dropped.
    """

    def __init__(self, capacity: int = 512):
        self._spans: deque = deque(maxlen=capacity)
        self.tee = None

    def record(self, span: Span) -> None:
        self._spans.append(span)
        tee = self.tee
        if tee is not None:
            _tee(tee, span)

    def _land(self, items: list) -> None:
        tee = self.tee
        if tee is None:
            self._spans.extend(items)
            return
        append = self._spans.append
        for item in items:
            span = _built(item)
            append(span)
            _tee(tee, span)

    def _raw(self) -> list:
        while True:
            try:
                return list(self._spans)
            except RuntimeError:  # deque mutated during iteration
                continue

    def last(self, n: int = 10) -> list[Span]:
        """The most recent *n* spans, newest first."""
        return [_built(item) for item in self._raw()[::-1][: max(0, n)]]

    def clear(self) -> None:
        # Land queued bookkeeping first: "start fresh" must not see spans
        # from *before* the clear trickling in on the finisher's next tick
        # (the reactor server made request turnaround faster than one tick,
        # which turned that trickle from theoretical into reproducible).
        finisher.flush(timeout=1.0)
        self._spans.clear()

    def __len__(self) -> int:
        return len(self._spans)


def _tee(tee, span: Span) -> None:
    try:
        tee(span)
    except Exception:  # noqa: BLE001 — a tap must not break recording
        _count_error("obs.recorder.tee_errors")


#: Process-wide recorder the instrumented stubs/servers report into.
recorder = SpanRecorder()

"""Spans recorded from outside the program, and the arithmetic on them.

The traced run assembles the call path by hand from the program's public
pieces and puts one recording wrapper around each: a codec wrapper, a client
transport wrapper and a dispatcher subclass.  Every wrapper appends one
:class:`Span` per call to a :class:`SpanLog` held in memory; nothing is
written or summarised until the run is over.

A span knows its parent only where the caller is on the same thread.  The
server half of a call (decode, dispatch, encode reply) runs on a reactor
worker, so those spans are recorded parentless and :func:`adopt` hands them
to the client's ``transport.request`` span that encloses them in time.  With
one caller that is exact; two overlapping callers can both enclose a span,
and then it may go to the other caller's request, which is making the same
call at the same moment.
"""

from __future__ import annotations

import itertools
import threading
from time import perf_counter_ns
from typing import Any, Iterable, NamedTuple

from repro.bindings.dispatcher import ObjectDispatcher
from repro.transport.base import TransportMessage

__all__ = [
    "Span",
    "SpanError",
    "SpanLog",
    "RecordingCodec",
    "RecordingTransport",
    "RecordingDispatcher",
    "adopt",
    "self_times",
    "by_op",
]


class Span(NamedTuple):
    span_id: int
    name: str
    start: int  # perf_counter_ns
    end: int
    parent: int  # span_id of the span that caused this one; 0 = none
    op_id: int  # the benchmark op this belongs to; 0 = not known where recorded


class SpanError(ValueError):
    """The span list does not form a tree of nested intervals."""


class SpanLog:
    """An append-only span list with a per-thread stack of open spans."""

    def __init__(self) -> None:
        self._rows: list[tuple] = []  # Span fields; made into Spans when read
        self._ids = itertools.count(1)
        self._open = threading.local()

    def begin(self, name: str, op_id: int = 0) -> tuple:
        """Open a span under this thread's innermost open span."""
        parent = getattr(self._open, "token", None)
        if parent is not None and not op_id:
            op_id = parent[3]
        token = (next(self._ids), name, parent, op_id, perf_counter_ns())
        self._open.token = token
        return token

    def end(self, token: tuple) -> None:
        end = perf_counter_ns()
        span_id, name, parent, op_id, start = token
        self._open.token = parent
        self._rows.append((span_id, name, start, end, parent[0] if parent else 0, op_id))

    @property
    def spans(self) -> list[Span]:
        return [Span(*row) for row in self._rows]

    def clear(self) -> None:
        self._rows.clear()


class RecordingCodec:
    """A ``MessageCodec`` that records one span per encode or decode.

    Offers ``call_encoder`` like the codecs it wraps, so the stub's
    per-operation plan cache applies on the traced path as on the real one.
    *layer* prefixes the span names (``encoding`` or ``soap``).  The four
    methods are spelled out, not routed through one generic wrapper: that
    wrapper's ``*args`` call was a fifth of the tracing overhead on an echo.
    """

    def __init__(self, inner, log: SpanLog, layer: str):
        self._inner = inner
        self._log = log
        self._names = {
            verb: f"{layer}.{verb}"
            for verb in ("encode_call", "decode_call", "encode_reply", "decode_reply")
        }
        self.content_type = inner.content_type

    def call_encoder(self, target: str, operation: str):
        make = getattr(self._inner, "call_encoder", None)
        if make is not None:
            encode = make(target, operation)
        else:
            inner = self._inner

            def encode(args):
                return inner.encode_call(target, operation, args)

        log, name = self._log, self._names["encode_call"]

        def recorded(args):
            token = log.begin(name)
            try:
                return encode(args)
            finally:
                log.end(token)

        return recorded

    def encode_call(self, target: str, operation: str, args):
        token = self._log.begin(self._names["encode_call"])
        try:
            return self._inner.encode_call(target, operation, args)
        finally:
            self._log.end(token)

    def decode_call(self, data):
        token = self._log.begin(self._names["decode_call"])
        try:
            return self._inner.decode_call(data)
        finally:
            self._log.end(token)

    def encode_reply(self, result: Any = None, fault: str | None = None):
        token = self._log.begin(self._names["encode_reply"])
        try:
            return self._inner.encode_reply(result, fault)
        finally:
            self._log.end(token)

    def decode_reply(self, data):
        token = self._log.begin(self._names["decode_reply"])
        try:
            return self._inner.decode_reply(data)
        finally:
            self._log.end(token)


class RecordingTransport:
    """A ``ClientTransport`` that records one ``transport.request`` span per
    call and adds up the payload bytes it sent and received."""

    def __init__(self, inner, log: SpanLog):
        self._inner = inner
        self._log = log
        self.calls = 0
        self.request_bytes = 0
        self.reply_bytes = 0

    def request(
        self, message: TransportMessage, timeout: float | None = None
    ) -> TransportMessage:
        token = self._log.begin("transport.request")
        try:
            response = self._inner.request(message, timeout=timeout)
        finally:
            self._log.end(token)
        self.calls += 1
        self.request_bytes += len(message.payload)
        self.reply_bytes += len(response.payload)
        return response

    def close(self) -> None:
        self._inner.close()


class RecordingDispatcher(ObjectDispatcher):
    """An ``ObjectDispatcher`` that records one ``bindings.dispatch`` span
    (dispatcher plus handler) per invocation.  *probe*, when given, is called
    at the start of every invocation, on the serving thread."""

    def __init__(self, log: SpanLog, probe=None):
        super().__init__()
        self._log = log
        self._probe = probe

    def invoke(self, target: str, operation: str, args) -> Any:
        if self._probe is not None:
            self._probe()
        token = self._log.begin("bindings.dispatch")
        try:
            return super().invoke(target, operation, args)
        finally:
            self._log.end(token)


def adopt(spans: Iterable[Span], adopter: str = "transport.request") -> list[Span]:
    """Re-parent server-side spans under the request that encloses them.

    A span with no parent and no op id was recorded on a serving thread.  It
    goes to an *adopter* span that encloses it in time and has not yet taken
    a span of that name, and inherits that span's op id; its own children
    follow.  Among several such adopters the one that ends first takes it:
    taking orphans in start order, that choice never strands a later one.
    A span nothing encloses is an error.
    """
    spans = list(spans)
    adopters = sorted((s for s in spans if s.name == adopter), key=lambda s: s.start)
    orphans = sorted(
        (s for s in spans if not s.parent and not s.op_id), key=lambda s: s.start
    )
    taken: dict[int, set[str]] = {}
    new_home: dict[int, Span] = {}
    active: list[Span] = []
    upcoming = iter(adopters)
    pending = next(upcoming, None)
    for orphan in orphans:
        while pending is not None and pending.start <= orphan.start:
            active.append(pending)
            pending = next(upcoming, None)
        active = [a for a in active if a.end >= orphan.start]
        home = min(
            (
                a
                for a in active
                if a.end >= orphan.end and orphan.name not in taken.get(a.span_id, ())
            ),
            key=lambda a: a.end,
            default=None,
        )
        if home is None:
            raise SpanError(f"no {adopter!r} span encloses {orphan}")
        taken.setdefault(home.span_id, set()).add(orphan.name)
        new_home[orphan.span_id] = home

    op_of: dict[int, int] = {}
    adopted: list[Span] = []
    # span ids rise in begin order, so a parent is always settled before
    # its children
    for span in sorted(spans, key=lambda s: s.span_id):
        home = new_home.get(span.span_id)
        if home is not None:
            span = span._replace(parent=home.span_id, op_id=home.op_id)
        elif not span.op_id and span.parent in op_of:
            span = span._replace(op_id=op_of[span.parent])
        op_of[span.span_id] = span.op_id
        adopted.append(span)
    return adopted


def self_times(spans: Iterable[Span]) -> dict[int, int]:
    """Each span's duration minus the part of it its children cover (ns).

    Raises :class:`SpanError` when a span names a parent that is not in the
    list, or starts before or ends after its parent.
    """
    spans = list(spans)
    by_id = {s.span_id: s for s in spans}
    children: dict[int, list[Span]] = {}
    for span in spans:
        if not span.parent:
            continue
        parent = by_id.get(span.parent)
        if parent is None:
            raise SpanError(f"{span} names a parent that was never recorded")
        if span.start < parent.start or span.end > parent.end:
            raise SpanError(f"{span} is not inside its parent {parent}")
        children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        covered = 0
        reach = span.start
        for child in sorted(children.get(span.span_id, ()), key=lambda s: s.start):
            if child.end > reach:
                covered += child.end - max(child.start, reach)
                reach = child.end
        result[span.span_id] = (span.end - span.start) - covered
    return result


def by_op(spans: Iterable[Span]) -> dict[int, dict[str, tuple[int, int]]]:
    """``{op_id: {span name: (duration ns, self ns)}}``; spans of one name
    within one op are added up.  Spans without an op id are left out."""
    spans = list(spans)
    own = self_times(spans)
    table: dict[int, dict[str, tuple[int, int]]] = {}
    for span in spans:
        if not span.op_id:
            continue
        row = table.setdefault(span.op_id, {})
        duration, self_ns = row.get(span.name, (0, 0))
        row[span.name] = (
            duration + span.end - span.start,
            self_ns + own[span.span_id],
        )
    return table

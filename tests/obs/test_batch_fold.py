"""The finisher folds per-call records per batch and builds spans on read.

Folding any sequence of observations in any batch split must leave exactly
what the per-observation path leaves: histogram counts, count, sum, min
and max, exemplar buckets and their trace ids, and the span ring as
``recorder.last(n)`` and a tee see it.  The finisher also counts what it
survives and never holds more than its cap.
"""

from __future__ import annotations

import sys
import threading
import time
import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bindings.dispatcher import ObjectDispatcher
from repro.bindings.server import BindingServer
from repro.bindings.stubs import TransportStub
from repro.encoding.registry import default_registry
from repro.obs import metrics, trace
from repro.obs.metrics import Histogram, HistogramGroup
from repro.obs.trace import Span, SpanKind, SpanRecorder, _AsyncFinisher
from repro.transport.inproc import InProcTransport

# values across every bucket of the default ladder, +inf included
values = st.floats(min_value=0.0, max_value=2e6, allow_nan=False) | st.integers(0, 2_000_000)
cuts = st.lists(st.integers(min_value=0, max_value=80), max_size=8)


def _split(items: list, at: list[int]) -> list[list]:
    """*items* cut into consecutive batches at the (sorted) positions *at*."""
    bounds = [0, *sorted({min(a, len(items)) for a in at}), len(items)]
    return [items[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def _contexts() -> list:
    """What a record may carry: no context, real contexts, a root still held
    as its int, and a server cell that mints its ids on first read."""
    return [None, trace.new_trace(), trace.new_trace().child(), trace.new_span(),
            trace.LazyChild(None)]


def _observed_under(ctx, observe, *args) -> None:
    token = trace.activate(ctx)
    try:
        observe(*args)
    finally:
        trace.deactivate(token)


class TestFoldEqualsPerObservation:
    @settings(max_examples=150, deadline=None)
    @given(obs=st.lists(st.tuples(values, st.integers(0, 4)), max_size=60), at=cuts)
    def test_histogram(self, obs, at):
        trace.enable(True)
        ctxs = _contexts()
        one, folded = Histogram("one"), Histogram("folded")
        for value, k in obs:
            _observed_under(ctxs[k], one.observe, value)
        for batch in _split(obs, at):
            folded.observe_many([v for v, _ in batch], [ctxs[k] for _, k in batch])
        assert folded._merge() == one._merge()
        assert folded.exemplars == one.exemplars
        assert folded.export() == one.export()

    @settings(max_examples=150, deadline=None)
    @given(
        obs=st.lists(st.tuples(st.tuples(values, values, values), st.integers(0, 4)),
                     max_size=60),
        at=cuts,
    )
    def test_histogram_group(self, obs, at):
        trace.enable(True)
        ctxs = _contexts()
        one = HistogramGroup(("a", "b", "c"))
        folded = HistogramGroup(("a", "b", "c"))
        for row, k in obs:
            _observed_under(ctxs[k], one.observe, *row)
        for batch in _split(obs, at):
            folded.observe_rows([row for row, _ in batch], [ctxs[k] for _, k in batch])
        for mine, theirs in zip(folded.members, one.members):
            assert mine._merge() == theirs._merge()
            assert mine.exemplars == theirs.exemplars

    @settings(max_examples=150, deadline=None)
    @given(
        items=st.lists(st.tuples(st.booleans(), st.integers(0, 999)), max_size=40),
        at=cuts,
        teed=st.booleans(),
        n=st.integers(0, 12),
    )
    def test_span_ring(self, items, at, teed, n):
        """Records and plain callables in any batch split: each kind folds
        its records in order, callables run where they were queued, and the
        ring (8 slots, so a batch can outgrow it) reads as per-record."""
        ran = []
        kind = SpanKind(
            fold=lambda records: ran.extend(("span", r[0]) for r in records),
            build=lambda r: Span(f"s{r[0]}", "a" * 16, f"{r[0] + 1:016x}"),
        )
        queued = [
            (kind, (i,)) if is_span else (ran.append, (("call", i),))
            for is_span, i in items
        ]
        reference, ref_teed = SpanRecorder(capacity=8), []
        if teed:
            reference.tee = ref_teed.append
        for is_span, i in items:
            if is_span:
                reference.record(kind.build((i,)))

        ring, got_teed = SpanRecorder(capacity=8), []
        if teed:
            ring.tee = got_teed.append
        saved, trace.recorder = trace.recorder, ring
        try:
            finisher = _AsyncFinisher()
            for batch in _split(queued, at):
                finisher._fold(batch)
        finally:
            trace.recorder = saved
        assert ran == [("span" if is_span else "call", i) for is_span, i in items]
        assert len(ring) == len(reference)
        for count in (n, 8, 20):
            assert ring.last(count) == reference.last(count)
        assert got_teed == ref_teed


class EchoService:
    def echo(self, value):
        return value


def _inproc_stub(name: str):
    dispatcher = ObjectDispatcher()
    dispatcher.register("svc", EchoService())
    server = BindingServer(dispatcher)
    listener = server.expose_inproc(name)
    stub = TransportStub(
        ("echo",), "svc", default_registry.get("application/x-xdr"),
        InProcTransport(listener.url), "inproc",
    )
    return server, stub


class TestFinisherSurvival:
    def test_failing_finalizer_fold_and_tee_are_counted(self):
        finisher = _AsyncFinisher()
        try:
            def boom():
                raise ValueError("finalizer failed")

            finisher.submit(boom)
            broken = SpanKind(
                fold=lambda records: 1 / 0, build=lambda r: Span("r", "a" * 16, "b" * 16)
            )
            finisher.submit(broken, ("r",))
            ran = []
            finisher.submit(ran.append, ("after",))  # the worker lives on
            assert finisher.flush()
            assert ran == ["after"]
        finally:
            finisher.shutdown()
            trace.recorder.clear()

        spans = SpanRecorder()
        spans.tee = lambda span: {}["missing"]
        spans.record(Span("s", "a" * 16, "b" * 16))
        assert len(spans) == 1  # a failing tee never costs the recording

        snap = metrics.registry.snapshot("obs.")
        assert snap["obs.finisher.errors"]["value"] == 2
        assert snap["obs.finisher.errors.ValueError"]["value"] == 1
        assert snap["obs.finisher.errors.ZeroDivisionError"]["value"] == 1
        assert snap["obs.recorder.tee_errors"]["value"] == 1

    def test_wedged_worker_bounds_the_queue_and_loses_no_count(self, monkeypatch):
        """With the worker stuck, callers fold at the cap: the queue never
        outgrows it, memory stops growing, and after the worker comes back
        every call is counted."""
        cap = 64
        monkeypatch.setattr(trace, "_QUEUE_CAP", cap)
        monkeypatch.setattr(trace, "recorder", SpanRecorder(capacity=16))
        server, stub = _inproc_stub("wedge")
        gate = threading.Event()
        try:
            trace.enable(True)
            stub.echo(0)
            assert trace.flush()
            trace.finisher.submit(gate.wait, (10.0,))
            deadline = time.monotonic() + 2.0
            while trace.finisher._queue and time.monotonic() < deadline:
                time.sleep(0.001)  # until the worker is inside the gate
            assert not trace.finisher._queue

            calls, deepest, marks = 10 * cap, 0, []
            tracemalloc.start()
            try:
                for i in range(calls):
                    stub.echo(i)
                    deepest = max(deepest, len(trace.finisher._queue))
                    if (i + 1) % cap == 0:
                        marks.append(tracemalloc.get_traced_memory()[0])
            finally:
                tracemalloc.stop()
        finally:
            gate.set()
            server.close()
        assert trace.flush(timeout=5.0)

        assert deepest <= cap
        # an unbounded queue would hold ~2 records per call: > 100 KiB more
        # between the second and the last mark
        assert marks[-1] - marks[1] < 32 * 1024, marks
        snap = metrics.registry.snapshot()
        assert snap["stub.inproc.calls"]["value"] == calls + 1
        assert snap["stub.inproc.total_us"]["count"] == calls + 1
        assert snap["server.handle_us"]["count"] == calls + 1
        assert snap["obs.finisher.cap"]["value"] == cap
        assert 0 < snap["obs.finisher.depth"]["value"] <= cap

    def test_callers_worker_and_readers_race_without_losing_a_count(self, monkeypatch):
        """More callers than cores, a cap small enough that callers and the
        worker fold side by side, and a reader building spans meanwhile:
        every call is counted once and every span reads the same twice."""
        monkeypatch.setattr(trace, "_QUEUE_CAP", 16)
        server, stub = _inproc_stub("race")
        threads, per_thread, errors = 8, 150, []
        done = threading.Event()

        def caller():
            try:
                for i in range(per_thread):
                    stub.echo(i)
            except BaseException as exc:  # noqa: BLE001 — surfaced below
                errors.append(exc)

        def reader():
            while not done.is_set():
                trace.recorder.last(64)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            trace.enable(True)
            workers = [threading.Thread(target=caller) for _ in range(threads)]
            watcher = threading.Thread(target=reader)
            watcher.start()
            for t in workers:
                t.start()
            for t in workers:
                t.join(timeout=60.0)
            done.set()
            watcher.join(timeout=10.0)
        finally:
            sys.setswitchinterval(interval)
            done.set()
            server.close()
        assert not any(t.is_alive() for t in workers) and not watcher.is_alive()
        assert not errors, errors
        assert trace.flush(timeout=10.0)
        total = threads * per_thread
        snap = metrics.registry.snapshot()
        assert snap["stub.inproc.calls"]["value"] == total
        assert snap["stub.inproc.encode_us"]["count"] == total
        assert snap["server.handle_us"]["count"] == total
        assert trace.recorder.last(512) == trace.recorder.last(512)

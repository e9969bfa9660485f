"""Unit tests for the lock-striped metrics registry."""

import threading

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS_US,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = Counter("t.count")
        assert c.value() == 0
        c.inc()
        c.inc(4)
        assert c.value() == 5

    def test_reset_zeroes_in_place(self):
        c = Counter("t.count")
        c.inc(7)
        c.reset()
        assert c.value() == 0
        c.inc()
        assert c.value() == 1

    def test_concurrent_increments_are_exact(self):
        c = Counter("t.count")
        per_thread = 2_000

        def worker():
            for _ in range(per_thread):
                c.inc()

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value() == 8 * per_thread

    def test_export(self):
        c = Counter("t.count")
        c.inc(3)
        assert c.export() == {"type": "counter", "value": 3}


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge("t.level")
        g.set(10)
        g.inc(2)
        g.dec(5)
        assert g.value() == 7

    def test_export_and_reset(self):
        g = Gauge("t.level")
        g.set(3.5)
        assert g.export() == {"type": "gauge", "value": 3.5}
        g.reset()
        assert g.value() == 0.0


class TestHistogram:
    def test_count_and_sum(self):
        h = Histogram("t.lat")
        for v in (3, 30, 300, 3000):
            h.observe(v)
        export = h.export()
        assert export["count"] == 4
        assert export["sum"] == pytest.approx(3333)
        assert export["min"] == 3
        assert export["max"] == 3000

    def test_bucket_assignment(self):
        h = Histogram("t.lat", bounds=(10, 100))
        h.observe(5)       # <= 10
        h.observe(10)      # <= 10 (bounds are upper-inclusive via bisect_left)
        h.observe(50)      # <= 100
        h.observe(1_000)   # +inf
        buckets = h.export()["buckets"]
        assert buckets == {"10": 2, "100": 1, "+inf": 1}

    def test_percentile_interpolates(self):
        h = Histogram("t.lat", bounds=(10, 100, 1000))
        for _ in range(100):
            h.observe(50)
        # every observation sits in the (10, 100] bucket
        assert 10 <= h.percentile(0.5) <= 100
        assert 10 <= h.percentile(0.99) <= 100

    def test_empty_percentile_is_zero(self):
        h = Histogram("t.lat")
        assert h.percentile(0.5) == 0.0
        assert h.export()["count"] == 0

    def test_values_above_last_bound_land_in_inf(self):
        h = Histogram("t.lat")
        h.observe(10 * DEFAULT_BUCKETS_US[-1])
        assert h.export()["buckets"]["+inf"] == 1

    def test_concurrent_observations_are_exact(self):
        h = Histogram("t.lat")
        per_thread = 1_000

        def worker(seed):
            for i in range(per_thread):
                h.observe((seed * 37 + i) % 5_000)

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert h.count == 8 * per_thread

    def test_needs_at_least_one_bound(self):
        with pytest.raises(ValueError):
            Histogram("t.lat", bounds=())


class TestRegistry:
    def test_same_name_returns_same_instrument(self):
        r = MetricsRegistry()
        assert r.counter("a") is r.counter("a")
        assert r.histogram("h") is r.histogram("h")
        assert len(r) == 2

    def test_kind_mismatch_raises(self):
        r = MetricsRegistry()
        r.counter("x")
        with pytest.raises(TypeError):
            r.gauge("x")

    def test_snapshot_prefix_filter(self):
        r = MetricsRegistry()
        r.counter("tcp.client.dials").inc()
        r.counter("server.requests").inc(2)
        snap = r.snapshot("tcp.")
        assert list(snap) == ["tcp.client.dials"]
        assert snap["tcp.client.dials"]["value"] == 1
        assert len(r.snapshot()) == 2

    def test_reset_keeps_cached_references_live(self):
        r = MetricsRegistry()
        c = r.counter("kept")
        c.inc(5)
        r.reset()
        assert c.value() == 0
        c.inc()
        # the registry still sees the same (zeroed then bumped) instrument
        assert r.snapshot()["kept"]["value"] == 1


class TestExemplars:
    """Trace exemplars: bucket-crossing outliers tagged with the current
    trace id, captured only while tracing is enabled (DESIGN.md §12)."""

    def test_no_capture_while_tracing_disabled(self):
        from repro.obs import trace

        hist = Histogram("h")
        ctx = trace.new_trace()
        token = trace.activate(ctx)
        try:
            hist.observe(10_000.0)
        finally:
            trace.deactivate(token)
        assert hist.exemplars == {}

    def test_rising_ladder_captures_bucket_crossings(self):
        from repro.obs import trace

        trace.enable(True)
        hist = Histogram("h")
        a, b = trace.new_trace(), trace.new_trace()
        token = trace.activate(a)
        try:
            hist.observe(30.0)       # first sight of bucket le=50
            hist.observe(7.0)        # lower bucket: NOT an outlier anymore
        finally:
            trace.deactivate(token)
        token = trace.activate(b)
        try:
            hist.observe(40.0)       # same high-water: no recapture
            hist.observe(9_000.0)    # new high-water: captured under b
        finally:
            trace.deactivate(token)
        assert set(hist.exemplars) == {3, 10}  # le=50 and le=10000
        assert hist.exemplars[3] == (a.trace_id, 30.0)
        assert hist.exemplars[10] == (b.trace_id, 9_000.0)

    def test_no_context_skips_without_burning_the_ladder(self):
        from repro.obs import trace

        trace.enable(True)
        hist = Histogram("h")
        hist.observe(30.0)  # no active context: nothing captured...
        assert hist.exemplars == {}
        ctx = trace.new_trace()
        token = trace.activate(ctx)
        try:
            hist.observe(30.0)  # ...and the same bucket can still capture
        finally:
            trace.deactivate(token)
        assert hist.exemplars[3] == (ctx.trace_id, 30.0)

    def test_export_includes_exemplars_only_when_present(self):
        from repro.obs import trace

        hist = Histogram("h")
        hist.observe(5.0)
        assert "exemplars" not in hist.export()
        trace.enable(True)
        ctx = trace.new_trace()
        token = trace.activate(ctx)
        try:
            hist.observe(60.0)
        finally:
            trace.deactivate(token)
        doc = hist.export()
        assert doc["exemplars"]["100"] == {"trace_id": ctx.trace_id, "value": 60.0}

    def test_reset_clears_exemplars_and_ladder(self):
        from repro.obs import trace

        trace.enable(True)
        hist = Histogram("h")
        ctx = trace.new_trace()
        token = trace.activate(ctx)
        try:
            hist.observe(30.0)
            hist.reset()
            assert hist.exemplars == {}
            hist.observe(30.0)  # ladder restarted: same bucket recaptures
        finally:
            trace.deactivate(token)
        assert 3 in hist.exemplars

    def test_group_members_capture_independently(self):
        """The stub's four phase histograms keep one exemplar ladder each:
        a call that is slow only in transit claims a new bucket in the
        transit and total series and leaves encode and decode alone."""
        from repro.bindings.stubs import TransportStub, _fold_client_spans
        from repro.obs import metrics as obs_metrics
        from repro.obs import trace

        trace.enable(True)
        stub = TransportStub(("echo",), "svc", None, None, "phases")
        obs = stub._instruments()
        first, second = trace.new_trace(), trace.new_trace()
        # (obs, span name, context, status, t0, t1, t2, t3, end): 30 µs a phase
        _fold_client_spans([(obs, "c", first, "ok", 0.0, 30e-6, 60e-6, 90e-6, 90e-6)])
        # the second call waits 9 ms in transit
        _fold_client_spans([(obs, "c", second, "ok", 0.0, 30e-6, 9.03e-3, 9.06e-3, 9.06e-3)])
        snap = obs_metrics.registry.snapshot("stub.phases.")
        ladders = {
            name.split(".")[-1]: {
                bucket: ex["trace_id"] for bucket, ex in snap[name]["exemplars"].items()
            }
            for name in snap
            if name.endswith("_us")
        }
        assert ladders == {
            "encode_us": {"50": first.trace_id},
            "transit_us": {"50": first.trace_id, "10000": second.trace_id},
            "decode_us": {"50": first.trace_id},
            "total_us": {"100": first.trace_id, "10000": second.trace_id},
        }

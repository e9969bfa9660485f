"""Instruments whose number their layer keeps (``MetricsRegistry.kept``)."""

import pytest

from repro.obs.metrics import Counter, Gauge, KeptCounter, KeptGauge, MetricsRegistry


class Store:
    def __init__(self):
        self.count = 0

    def zero(self):
        self.count = 0


def test_a_kept_counter_reads_its_layer_and_is_a_counter():
    registry, store = MetricsRegistry(), Store()
    kept = registry.kept("layer.count", Counter, lambda: store.count, store.zero)
    store.count = 7
    assert isinstance(kept, KeptCounter)
    assert registry.counter("layer.count") is kept
    assert registry.snapshot("layer.") == {"layer.count": {"type": "counter", "value": 7}}
    with pytest.raises(TypeError, match="kept by its layer"):
        kept.inc()


def test_a_kept_gauge_exports_a_float_level_and_refuses_writes():
    registry, store = MetricsRegistry(), Store()
    kept = registry.kept("layer.level", Gauge, lambda: store.count, store.zero)
    store.count = -2
    assert isinstance(kept, KeptGauge)
    assert registry.gauge("layer.level") is kept
    assert registry.snapshot("layer.") == {"layer.level": {"type": "gauge", "value": -2.0}}
    for write in (kept.set, kept.inc, kept.dec):
        with pytest.raises(TypeError, match="kept by its layer"):
            write(1)


def test_reset_zeroes_kept_numbers_in_place():
    registry, store = MetricsRegistry(), Store()
    kept = registry.kept("layer.count", Counter, lambda: store.count, store.zero)
    store.count = 3
    registry.reset()
    assert store.count == 0 and kept.value() == 0
    store.count = 1
    assert registry.counter("layer.count").value() == 1


def test_a_name_keeps_its_kind():
    registry, store = MetricsRegistry(), Store()
    registry.counter("plain")
    with pytest.raises(TypeError, match="already registered"):
        registry.kept("plain", Counter, lambda: store.count, store.zero)
    registry.kept("layer.level", Gauge, lambda: store.count, store.zero)
    with pytest.raises(TypeError, match="already registered"):
        registry.counter("layer.level")

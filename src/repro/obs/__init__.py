"""Observability: process-wide metrics and cross-transport trace propagation.

The paper's DVM spreads one logical invocation over containers, codecs, and
transports; this package makes that path *visible* without changing it:

* :mod:`repro.obs.metrics` — a process-wide :class:`MetricsRegistry` of
  lock-striped counters, gauges, and fixed-bucket histograms, exported as a
  plain-dict snapshot (the ``metrics`` console command and the
  ``dvm.metrics_snapshot()`` RPC are views over it).
* :mod:`repro.obs.trace` — a :class:`TraceContext` (trace id, span id,
  baggage) carried across every transport: a flag-extended block on TCP
  protocol-v2 frames, an ``X-Repro-Trace`` header on HTTP, a SOAP header
  block on envelopes, and plain contextvar flow for the in-process and
  simulated transports.

Tracing is off by default and costs one module-attribute check per call
when disabled (``benchmarks/bench_obs_overhead.py`` keeps both numbers
honest).

Built on those two, the cluster plane (DESIGN.md §12):

* :mod:`repro.obs.cluster` — a :class:`ClusterCollector` pulling per-node
  snapshots over RPC with typed staleness markers, an exact bucket merge,
  and Prometheus text exposition;
* :mod:`repro.obs.slo` — declarative SLO specs evaluated as multi-window
  error-budget burn rates over merged snapshots.

A scenario run's flight dumps — its recent events and metric deltas,
written when something breaks — are the tail of its one record stream,
:class:`repro.scenario.events.EventLog`.
"""

from repro.obs.cluster import (
    ClusterCollector,
    NodeSnapshot,
    NodeStatus,
    merge_metrics,
    prometheus_text,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    percentile_from_counts,
    registry,
)
from repro.obs.slo import BurnSeries, SloEngine, SloSpec
from repro.obs.trace import (
    Span,
    SpanRecorder,
    TraceContext,
    TraceWireError,
    activate,
    current,
    deactivate,
    enable,
    enabled,
    new_trace,
    recorder,
    use,
)

__all__ = [
    "BurnSeries",
    "ClusterCollector",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NodeSnapshot",
    "NodeStatus",
    "SloEngine",
    "SloSpec",
    "merge_metrics",
    "percentile_from_counts",
    "prometheus_text",
    "registry",
    "Span",
    "SpanRecorder",
    "TraceContext",
    "TraceWireError",
    "activate",
    "current",
    "deactivate",
    "enable",
    "enabled",
    "new_trace",
    "recorder",
    "use",
]

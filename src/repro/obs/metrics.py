"""Process-wide metrics: lock-striped counters, gauges, histograms.

Instruments live in a :class:`MetricsRegistry` keyed by dotted name
(``stub.xdr.transit_us``, ``tcp.client.channels`` — DESIGN.md §10 has the
naming scheme).  The module-level :data:`registry` is the process default
every instrumented layer reports into; tests and the benchmark A/B call
:meth:`MetricsRegistry.reset`, which zeroes instruments *in place* so
references cached on hot paths stay valid.

Counters and histograms are striped over a small set of independently
locked cells indexed by thread id, so concurrent writers on different
threads rarely contend; reads merge the stripes.  Gauges are single-cell
(they record levels, not rates, and are updated at pool/lifecycle events
rather than per call).

When tracing is enabled, histograms also capture **exemplars**: the
(trace id, value) of observations that land in a bucket above every
bucket seen so far, so a fat tail in a snapshot links directly to a
dumpable trace (DESIGN.md §12 has the capture rules).

The trace finisher folds whole batches of per-call records at once
(:meth:`Histogram.observe_many`): one stripe lock per histogram per
batch, with each record's own trace context handed in for exemplar
capture.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from threading import get_ident

import repro.obs.trace as _trace

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS_US",
    "percentile_from_counts",
    "registry",
]

_STRIPES = 8  # power of two: thread id -> stripe by mask
_MASK = _STRIPES - 1

#: Default histogram bounds, in microseconds: a 1-2.5-5 ladder from 5 µs to
#: 1 s.  Everything above the last bound lands in the implicit +inf bucket.
DEFAULT_BUCKETS_US = (
    5, 10, 25, 50, 100, 250, 500,
    1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000, 1_000_000,
)


def percentile_from_counts(bounds, counts, count, lo, hi, p: float) -> float:
    """Linear-interpolated quantile over fixed-bucket counts.

    *bounds* are the finite upper bounds, *counts* has one extra entry for
    the implicit +inf bucket, *lo*/*hi* are the observed min/max.  This is
    the single quantile definition for the whole observability stack:
    :class:`Histogram` snapshots use it directly, and the cluster merge
    (:mod:`repro.obs.cluster`) reuses it over summed per-node buckets so a
    merged p99 is bit-identical to what one histogram holding every
    observation would report.
    """
    if not count:
        return 0.0
    rank = max(1, math.ceil(p * count))
    seen = 0
    for i, c in enumerate(counts):
        if not c:
            continue
        if seen + c >= rank:
            upper = bounds[i] if i < len(bounds) else hi
            lower = bounds[i - 1] if i > 0 else min(lo, upper)
            lower = min(lower, upper)
            return lower + (upper - lower) * ((rank - seen) / c)
        seen += c
    return hi  # unreachable unless counts drifted mid-merge


def _search_edges(bounds: tuple) -> tuple:
    """The bounds ``bisect`` compares observations against: as floats when
    that is exact (a float-to-float compare costs half an int-to-float
    one), else as given.  Either way every value lands in the same bucket."""
    edges = tuple(float(b) for b in bounds)
    return edges if edges == bounds else bounds


class _Cell:
    """One stripe: a lock and the state it guards."""

    __slots__ = ("lock", "value")

    def __init__(self):
        self.lock = threading.Lock()
        self.value = 0


class Counter:
    """A monotonically increasing count, striped across threads."""

    __slots__ = ("name", "_cells")

    def __init__(self, name: str):
        self.name = name
        self._cells = tuple(_Cell() for _ in range(_STRIPES))

    def inc(self, n: int = 1) -> None:
        # manual acquire/release rather than ``with``: nothing between
        # them can raise, and this runs 2-3x on every traced call
        cell = self._cells[get_ident() & _MASK]
        lock = cell.lock
        lock.acquire()
        cell.value += n
        lock.release()

    def value(self) -> int:
        total = 0
        for cell in self._cells:
            with cell.lock:
                total += cell.value
        return total

    def reset(self) -> None:
        for cell in self._cells:
            with cell.lock:
                cell.value = 0

    def export(self):
        return {"type": "counter", "value": self.value()}


class Gauge:
    """A level that can go up and down (pool sizes, in-flight counts)."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str):
        self.name = name
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def inc(self, n: float = 1) -> None:
        with self._lock:
            self._value += n

    def dec(self, n: float = 1) -> None:
        with self._lock:
            self._value -= n

    def value(self) -> float:
        with self._lock:
            return self._value

    def reset(self) -> None:
        self.set(0.0)

    def export(self):
        return {"type": "gauge", "value": self.value()}


class _HistCell:
    """One histogram stripe: bucket counts plus running sum/min/max."""

    __slots__ = ("lock", "counts", "count", "total", "min", "max")

    def __init__(self, n_buckets: int):
        self.lock = threading.Lock()
        self.counts = [0] * n_buckets
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def zero(self) -> None:
        self.counts = [0] * len(self.counts)
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf


class Histogram:
    """Fixed-bucket histogram (upper bounds + implicit +inf), striped.

    ``observe`` is the hot path: one ``bisect`` and one short lock hold on
    this thread's stripe.  Percentiles are estimated at snapshot time by
    linear interpolation inside the winning bucket — good to a bucket
    width, which is what fixed buckets buy.

    With tracing enabled, an observation landing in a bucket strictly
    above every previously-exemplified bucket captures the current trace
    id as that bucket's **exemplar** — a rising high-water ladder, so the
    capture cost is a handful of events per histogram lifetime, and the
    check itself is one attribute read and one compare per observe (and
    only the compare when tracing is off).
    """

    __slots__ = ("name", "bounds", "_edges", "_cells", "exemplars", "_exemplar_high")

    def __init__(self, name: str, bounds=DEFAULT_BUCKETS_US):
        self.name = name
        self.bounds = tuple(sorted(bounds))
        if not self.bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self._edges = _search_edges(self.bounds)
        n = len(self.bounds) + 1  # + the +inf bucket
        self._cells = tuple(_HistCell(n) for _ in range(_STRIPES))
        self.exemplars: dict[int, tuple[str, float]] = {}
        self._exemplar_high = -1

    def observe(self, value: float) -> None:
        # bisect before taking the lock (it is the only call that can
        # raise on a bad value); manual acquire/release because the
        # guarded body is straight-line arithmetic on hot paths
        index = bisect_left(self._edges, value)
        if _trace.ENABLED and index > self._exemplar_high:
            self._note_exemplars((index,), (value,))
        cell = self._cells[get_ident() & _MASK]
        lock = cell.lock
        lock.acquire()
        cell.counts[index] += 1
        cell.count += 1
        cell.total += value
        if value < cell.min:
            cell.min = value
        if value > cell.max:
            cell.max = value
        lock.release()

    def observe_many(self, values, contexts=None) -> None:
        """Observe *values* in order under one stripe-lock round — exactly
        what one :meth:`observe` per value would leave behind.

        *contexts*, when given, holds the trace context of each value (a
        :class:`~repro.obs.trace.TraceContext` or a lazy cell) for
        exemplar capture in place of the thread's current one.
        """
        if not values:
            return
        edges = self._edges
        indexes = [bisect_left(edges, v) for v in values]  # may raise: pre-lock
        if _trace.ENABLED and max(indexes) > self._exemplar_high:
            self._note_exemplars(indexes, values, contexts)
        cell = self._cells[get_ident() & _MASK]
        lock = cell.lock
        lock.acquire()
        counts = cell.counts
        for index in indexes:
            counts[index] += 1
        cell.count += len(indexes)
        total = cell.total
        for v in values:  # in order, one add at a time: the same float sum
            total += v
        cell.total = total
        low, high = min(values), max(values)
        if low < cell.min:
            cell.min = low
        if high > cell.max:
            cell.max = high
        lock.release()

    def _note_exemplars(self, indexes, values, contexts=None) -> None:
        """Walk observations in order against the exemplar ladder: each
        one landing above the high-water bucket captures its trace id.

        The trace is ``contexts[i]`` when given, else the thread's current
        context.  Unlocked on purpose: dict stores are GIL-atomic, and a
        lost race merely keeps a different (equally valid) exemplar.  An
        observation without a context is skipped without raising the
        ladder, so a later attributable outlier can still claim the bucket.
        """
        for i, index in enumerate(indexes):
            if index > self._exemplar_high:
                if contexts is None:
                    ctx = _trace.current()
                else:
                    ctx = _trace.resolve(contexts[i])
                if ctx is not None:
                    self._exemplar_high = index
                    self.exemplars[index] = (ctx.trace_id, values[i])

    def _merge(self):
        counts = [0] * (len(self.bounds) + 1)
        count, total = 0, 0.0
        lo, hi = math.inf, -math.inf
        for cell in self._cells:
            with cell.lock:
                for i, c in enumerate(cell.counts):
                    counts[i] += c
                count += cell.count
                total += cell.total
                lo = min(lo, cell.min)
                hi = max(hi, cell.max)
        return counts, count, total, lo, hi

    @property
    def count(self) -> int:
        return self._merge()[1]

    def percentile(self, p: float) -> float:
        """Estimated value at quantile *p* in [0, 1] (0.0 when empty)."""
        counts, count, _total, lo, hi = self._merge()
        return percentile_from_counts(self.bounds, counts, count, lo, hi, p)

    def reset(self) -> None:
        for cell in self._cells:
            with cell.lock:
                cell.zero()
        self.exemplars.clear()
        self._exemplar_high = -1

    def export(self):
        counts, count, total, lo, hi = self._merge()
        bounds = self.bounds
        data = {
            "type": "histogram",
            "count": count,
            "sum": round(total, 3),
            "min": round(lo, 3) if count else 0.0,
            "max": round(hi, 3) if count else 0.0,
            "p50": round(percentile_from_counts(bounds, counts, count, lo, hi, 0.50), 3),
            "p99": round(percentile_from_counts(bounds, counts, count, lo, hi, 0.99), 3),
            "buckets": {
                **{str(b): counts[i] for i, b in enumerate(bounds)},
                "+inf": counts[-1],
            },
        }
        if self.exemplars:
            data["exemplars"] = {
                (str(bounds[i]) if i < len(bounds) else "+inf"): {
                    "trace_id": trace_id,
                    "value": round(value, 3),
                }
                for i, (trace_id, value) in sorted(dict(self.exemplars).items())
            }
        return data


class MetricsRegistry:
    """Name → instrument table; instruments are created on first use.

    Asking for an existing name with a mismatched kind raises — metric
    names are a schema, and silent kind changes would corrupt snapshots.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, name: str, kind: type, factory):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = factory()
                self._metrics[name] = metric
        if not isinstance(metric, kind):
            raise TypeError(
                f"metric {name!r} already registered as {type(metric).__name__}, "
                f"not {kind.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter, lambda: Counter(name))

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge, lambda: Gauge(name))

    def histogram(self, name: str, bounds=DEFAULT_BUCKETS_US) -> Histogram:
        return self._get(name, Histogram, lambda: Histogram(name, bounds))

    def count_error(self, name: str, exc: BaseException | None = None) -> None:
        """Bump counter *name*, and ``<name>.<ExceptionType>`` for *exc*."""
        self.counter(name).inc()
        if exc is not None:
            self.counter(f"{name}.{type(exc).__name__}").inc()

    def snapshot(self, prefix: str = "") -> dict:
        """Every instrument (optionally name-filtered) as plain dicts."""
        with self._lock:
            metrics = sorted(self._metrics.items())
        return {
            name: metric.export()
            for name, metric in metrics
            if name.startswith(prefix)
        }

    def reset(self) -> None:
        """Zero every instrument *in place* (cached references stay valid)."""
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            metric.reset()

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)


#: The process-wide default registry all instrumented layers report into.
registry = MetricsRegistry()

# the trace finisher and span ring count their own errors and depth here
_trace.report_to(registry)

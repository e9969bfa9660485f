"""Observability overhead — tracing on vs off, same wire, same service.

Every instrumented hot path is gated on one module attribute
(``repro.obs.trace.ENABLED``), so the disabled cost is a single dict lookup
per call.  This experiment measures the *enabled* cost: full trace
propagation (context create/child, wire encode/decode on every hop) plus
four histogram observations and a recorded span per call, A/B'd against
the identical stack with tracing off.

Shapes match the repo's standing experiments:

* **C1 shape** — SOAP over loopback HTTP, 16 384 float64 elements in
  call and reply (the C1 encoding experiment's scientific-array row);
* **C9 shape** — XDR over multiplexed TCP, 2 ms GIL-releasing service
  time (the C9b concurrency experiment's per-call shape);
* **micro** — a bare scalar echo over XDR/TCP: the fixed per-call tracing
  cost against the smallest possible call, the worst case by
  construction.  It is gated at its own budget (``MICRO_BUDGET_PCT``), so
  a regression of the per-call bookkeeping shows even where the 3% shapes
  would hide it.

Methodology: individual *calls* run in (off, on) pairs — not round-grained
arms, because loopback p50 drifts by hundreds of microseconds over
seconds, swamping any coarse A/B.  Pair order is counterbalanced
(odd-numbered pairs run traced-first) to cancel positional bias, the
overhead estimate is the **median of per-pair deltas** over the median
untraced latency (the pair delta cancels drift that a ratio of independent
medians cannot), and the gate reads the median across rounds so one noisy
round cannot flip it.  Caveat recorded in EXPERIMENTS.md: on a single-CPU
host every instrumented instruction is serial with the caller and runs
cache-cold after the service sleep, so these numbers are a *ceiling* on
the overhead a multi-core deployment would see.

The cluster observability plane (DESIGN.md §12) adds a second A/B with the
same pair discipline: a background :class:`~repro.obs.cluster.ClusterCollector`
poller — pulling and merging per-node snapshots from four simulated nodes
every ``POLL_INTERVAL_S`` — toggled on for one call of each pair and off
for the other, tracing disabled throughout.  It answers "what does cluster
collection cost the serving hot path while it runs?" under the same 3%
budget.  A separate correctness gate (not a latency gate) fills per-node
histograms with seeded random values and asserts the cluster-merged
buckets, count, and p50/p99 equal a reference histogram holding every
observation — the merged quantiles must be *exact*, not approximate.

Acceptance (asserted in ``test_report_obs_overhead``): tracing enabled
costs **<= 3%** p50 on the C1 and C9 shapes and **<= 15%** on the micro
shape; background cluster collection costs **<= 3%** p50 on the
C1 and C9 shapes; merged snapshots are exact.

Runs under pytest (``pytest benchmarks/bench_obs_overhead.py``) and as a
script (``python benchmarks/bench_obs_overhead.py [--quick]`` — the CI
smoke).  A full run rewrites ``BENCH_obs.json`` next to this file;
``--quick`` writes its record only to ``--out PATH``.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import threading
import time
from pathlib import Path

from repro.bindings.dispatcher import ObjectDispatcher
from repro.bindings.server import BindingServer
from repro.bindings.stubs import TransportStub
from repro.encoding.registry import default_registry
from repro.obs import metrics, trace
from repro.obs.cluster import ClusterCollector, merge_metrics
from repro.transport.http import HttpTransport
from repro.transport.tcp import TcpTransport

ROUNDS = 6
QUICK_ROUNDS = 3

#: (off, on) pairs per round, per shape.  Both gated shapes ride ~70-120 us
#: budgets while their per-pair deltas swing by hundreds of microseconds
#: (C1 is 4 ms of allocation-heavy CPU per call; C9 wakes cache-cold after
#: its 2 ms sleep), so the medians need deep sampling to converge.
PAIRS = {"c1": 100, "c9": 150, "micro": 250}
QUICK_PAIRS = {"c1": 30, "c9": 60, "micro": 80}

ELEMENTS = 16384  # C1 shape: float64 elements in call and reply
SERVICE_TIME_S = 0.002  # C9 shape: GIL-releasing service time

OVERHEAD_BUDGET_PCT = 3.0

#: The micro shape's budget: the full-run figure recorded when per-call
#: trace bookkeeping moved to record / fold per batch / build on read
#: (+13.43%), rounded up to the next 5%.
MICRO_BUDGET_PCT = 15.0

#: Cluster A/B: simulated membership size and poll cadence while "on".
#: One collect+merge round over four nodes costs ~2 ms of CPU, so the
#: cadence sets the duty cycle the hot path must absorb: 100 ms between
#: rounds is ~2% — still 150x denser than a production 15 s Prometheus
#: scrape.  The gate reads the *p50* effect, i.e. the amortized cost a
#: typical call pays; the per-collision worst case shows up in the round
#: delta spread, not the median.
CLUSTER_NODES = 4
POLL_INTERVAL_S = 0.100

#: Merged-snapshot exactness gate: seeded random bucket fills per trial.
MERGE_TRIALS = 25
QUICK_MERGE_TRIALS = 8
MERGE_SEED = 20260808

RESULT_PATH = Path(__file__).with_name("BENCH_obs.json")


def _print_table(title: str, header: list[str], rows: list[list]) -> None:
    # local copy of benchmarks.conftest.print_table so the module also runs
    # as a plain script
    print(f"\n=== {title} ===")
    widths = [
        max(len(str(header[i])), *(len(str(r[i])) for r in rows)) if rows else len(str(header[i]))
        for i in range(len(header))
    ]
    print("  ".join(str(header[i]).ljust(widths[i]) for i in range(len(header))))
    for row in rows:
        print("  ".join(str(row[i]).ljust(widths[i]) for i in range(len(row))))


class ShapeService:
    def echo(self, text: str) -> str:
        return text

    def roundtrip(self, values: list) -> list:
        return values

    def work(self, tag: str) -> str:
        time.sleep(SERVICE_TIME_S)  # releases the GIL, like real I/O-bound work
        return tag


def _round_stats_us(call, pairs: int) -> tuple[float, float]:
    """One round: *pairs* counterbalanced (untraced, traced) call pairs.

    Returns (median per-pair delta, median untraced latency) in
    microseconds.  Odd pairs run traced-first so a systematic cost of
    "being the second call" cancels instead of biasing one arm.
    """
    perf = time.perf_counter
    deltas, offs = [], []
    for i in range(pairs):
        traced_first = bool(i & 1)
        trace.enable(traced_first)
        t0 = perf()
        call()
        first = perf() - t0
        trace.enable(not traced_first)
        t0 = perf()
        call()
        second = perf() - t0
        on, off = (first, second) if traced_first else (second, first)
        deltas.append(on - off)
        offs.append(off)
    trace.enable(False)
    return statistics.median(deltas) * 1e6, statistics.median(offs) * 1e6


def _measure_shape(call, rounds: int, pairs: int) -> dict:
    """Pair-interleaved A/B against one live call shape."""
    trace.enable(False)
    round_deltas, round_offs = [], []
    try:
        _round_stats_us(call, max(pairs // 4, 5))  # warm-up: connections, plans
        for _ in range(rounds):
            delta, off = _round_stats_us(call, pairs)
            round_deltas.append(delta)
            round_offs.append(off)
            trace.flush()  # drain async bookkeeping between rounds
    finally:
        trace.enable(False)
        trace.flush()
    delta_p50 = statistics.median(round_deltas)
    off_p50 = statistics.median(round_offs)
    return {
        "rounds": rounds,
        "pairs_per_round": pairs,
        "off_p50_us": round(off_p50, 2),
        "on_delta_p50_us": round(delta_p50, 2),
        "overhead_pct": round(delta_p50 / off_p50 * 100.0, 2),
        "round_delta_us": [round(d, 2) for d in round_deltas],
        "round_off_us": [round(m, 2) for m in round_offs],
    }


class _ClusterPoller:
    """Background collect+merge loop with a per-pair on/off switch.

    While active it runs :meth:`ClusterCollector.cluster_snapshot` —
    ``CLUSTER_NODES`` registry pulls plus the full merge — every
    ``POLL_INTERVAL_S``; while inactive it parks on the switch.  The A/B
    toggles the switch per call, so "on" calls race a live collection
    round exactly as a scraped deployment's requests do.
    """

    def __init__(self, interval_s: float = POLL_INTERVAL_S, nodes: int = CLUSTER_NODES):
        names = [f"bench-node{i}" for i in range(nodes)]
        self._collector = ClusterCollector(
            lambda: names, lambda node: metrics.registry.snapshot()
        )
        self._interval = interval_s
        self._active = threading.Event()
        self._stop = threading.Event()
        self.polls = 0
        self._thread = threading.Thread(
            target=self._run, name="bench-cluster-poller", daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.is_set():
            if not self._active.wait(0.05):
                continue
            self._collector.cluster_snapshot()
            self.polls += 1
            self._stop.wait(self._interval)

    def set_active(self, on: bool) -> None:
        if on:
            self._active.set()
        else:
            self._active.clear()

    def close(self) -> None:
        self._stop.set()
        self._active.set()
        self._thread.join(timeout=2.0)


def _round_stats_cluster_us(call, pairs: int, poller: _ClusterPoller) -> tuple[float, float]:
    """One round of counterbalanced (collector-off, collector-on) pairs.

    Same pair discipline as :func:`_round_stats_us`, but the toggled
    variable is the background poller instead of tracing (tracing stays
    off, so this isolates the collection cost).
    """
    perf = time.perf_counter
    deltas, offs = [], []
    for i in range(pairs):
        on_first = bool(i & 1)
        poller.set_active(on_first)
        t0 = perf()
        call()
        first = perf() - t0
        poller.set_active(not on_first)
        t0 = perf()
        call()
        second = perf() - t0
        on, off = (first, second) if on_first else (second, first)
        deltas.append(on - off)
        offs.append(off)
    poller.set_active(False)
    return statistics.median(deltas) * 1e6, statistics.median(offs) * 1e6


def _measure_cluster_shape(call, rounds: int, pairs: int, poller: _ClusterPoller) -> dict:
    """Pair-interleaved collector-on/off A/B against one live call shape."""
    trace.enable(False)
    round_deltas, round_offs = [], []
    _round_stats_cluster_us(call, max(pairs // 4, 5), poller)  # warm-up
    for _ in range(rounds):
        delta, off = _round_stats_cluster_us(call, pairs, poller)
        round_deltas.append(delta)
        round_offs.append(off)
    delta_p50 = statistics.median(round_deltas)
    off_p50 = statistics.median(round_offs)
    return {
        "rounds": rounds,
        "pairs_per_round": pairs,
        "off_p50_us": round(off_p50, 2),
        "on_delta_p50_us": round(delta_p50, 2),
        "overhead_pct": round(delta_p50 / off_p50 * 100.0, 2),
        "round_delta_us": [round(d, 2) for d in round_deltas],
        "round_off_us": [round(m, 2) for m in round_offs],
    }


def _merged_snapshot_gate(trials: int = MERGE_TRIALS, nodes: int = CLUSTER_NODES) -> dict:
    """Property check: cluster-merged histograms are *exactly* the
    histogram of the union of observations.

    Each trial fills one private histogram per simulated node with seeded
    random integer-valued latencies spanning every bucket (integers keep
    the per-node ``sum`` rounding lossless, so sums must match to the
    cent), merges them through :func:`merge_metrics`, and compares
    buckets, count, sum, min/max, p50, and p99 against a reference
    histogram that observed every value directly.
    """
    rng = random.Random(MERGE_SEED)
    mismatches = []
    for trial in range(trials):
        reference = metrics.Histogram(f"gate.reference.{trial}")
        per_node = {}
        for n in range(nodes):
            hist = metrics.Histogram("gate.handle_us")
            for _ in range(rng.randrange(20, 400)):
                value = float(int(10 ** rng.uniform(0.0, 6.5)))
                hist.observe(value)
                reference.observe(value)
            per_node[f"node{n}"] = {"gate.handle_us": hist.export()}
        merged = merge_metrics(per_node)["gate.handle_us"]
        expected = reference.export()
        for key in ("buckets", "count", "sum", "min", "max", "p50", "p99"):
            if merged[key] != expected[key]:
                mismatches.append(
                    f"trial {trial}: {key} merged={merged[key]!r} "
                    f"expected={expected[key]!r}"
                )
    return {
        "trials": trials,
        "nodes": nodes,
        "seed": MERGE_SEED,
        "exact": not mismatches,
        "mismatches": mismatches[:10],
    }


def run_sweep(
    rounds: int = ROUNDS, pairs: dict | None = None, merge_trials: int = MERGE_TRIALS
) -> dict:
    """A/B all shapes (tracing and cluster collection); returns the
    machine-readable result document."""
    pairs = pairs or PAIRS
    dispatcher = ObjectDispatcher()
    dispatcher.register("shape", ShapeService())
    server = BindingServer(dispatcher)
    http = server.expose_soap_http()
    tcp = server.expose_xdr_tcp()
    operations = ("echo", "roundtrip", "work")
    values = [float(i) for i in range(ELEMENTS)]
    shapes = {}
    cluster_shapes = {}
    poller = None
    try:
        with TransportStub(
            operations, "shape", default_registry.get("text/xml"),
            HttpTransport(http.url), "soap",
        ) as soap_stub:
            shapes["c1_soap_http_16kxf64"] = _measure_shape(
                lambda: soap_stub.roundtrip(values), rounds, pairs["c1"]
            )
        with TransportStub(
            operations, "shape", default_registry.get("application/x-xdr"),
            TcpTransport(tcp.url), "xdr",
        ) as xdr_stub:
            shapes["c9_xdr_tcp_2ms"] = _measure_shape(
                lambda: xdr_stub.work("xyzzy"), rounds, pairs["c9"]
            )
            shapes["micro_xdr_tcp_echo"] = _measure_shape(
                lambda: xdr_stub.echo("xyzzy"), rounds, pairs["micro"]
            )

        # cluster-collection A/B: tracing off, background collect+merge
        # rounds toggled per pair against the same two gated shapes
        poller = _ClusterPoller()
        with TransportStub(
            operations, "shape", default_registry.get("text/xml"),
            HttpTransport(http.url), "soap",
        ) as soap_stub:
            cluster_shapes["c1_soap_http_16kxf64"] = _measure_cluster_shape(
                lambda: soap_stub.roundtrip(values), rounds, pairs["c1"], poller
            )
        with TransportStub(
            operations, "shape", default_registry.get("application/x-xdr"),
            TcpTransport(tcp.url), "xdr",
        ) as xdr_stub:
            cluster_shapes["c9_xdr_tcp_2ms"] = _measure_cluster_shape(
                lambda: xdr_stub.work("xyzzy"), rounds, pairs["c9"], poller
            )
    finally:
        if poller is not None:
            poller.close()
        server.close()
        trace.flush()
        metrics.registry.reset()
        trace.recorder.clear()
    return {
        "experiment": "observability overhead (tracing on vs off)",
        "budgets_pct": {
            "c1_soap_http_16kxf64": OVERHEAD_BUDGET_PCT,
            "c9_xdr_tcp_2ms": OVERHEAD_BUDGET_PCT,
            "micro_xdr_tcp_echo": MICRO_BUDGET_PCT,
        },
        "disabled_cost": "one module attribute read per instrumented site",
        "shapes": shapes,
        "cluster": {
            "nodes": CLUSTER_NODES,
            "poll_interval_s": POLL_INTERVAL_S,
            "polls": poller.polls if poller is not None else 0,
            "shapes": cluster_shapes,
        },
        "merged_snapshot_gate": _merged_snapshot_gate(merge_trials),
    }


def _report(result: dict) -> None:
    rows = [
        [
            name,
            f"{shape['off_p50_us']:.1f}",
            f"{shape['on_delta_p50_us']:+.1f}",
            f"{shape['overhead_pct']:+.2f}%",
            f"<= {result['budgets_pct'][name]:g}%",
        ]
        for name, shape in result["shapes"].items()
    ]
    _print_table(
        "observability overhead (p50 per call)",
        ["shape", "off p50 us", "traced delta us", "overhead", "gated"],
        rows,
    )
    cluster = result.get("cluster", {})
    rows = [
        [
            name,
            f"{shape['off_p50_us']:.1f}",
            f"{shape['on_delta_p50_us']:+.1f}",
            f"{shape['overhead_pct']:+.2f}%",
            "<= 3%",
        ]
        for name, shape in cluster.get("shapes", {}).items()
    ]
    if rows:
        _print_table(
            f"cluster collection overhead ({cluster['nodes']} nodes, "
            f"collect+merge every {cluster['poll_interval_s'] * 1e3:.0f} ms)",
            ["shape", "off p50 us", "collector delta us", "overhead", "gated"],
            rows,
        )
    gate = result.get("merged_snapshot_gate", {})
    if gate:
        verdict = "exact" if gate["exact"] else f"MISMATCH: {gate['mismatches']}"
        print(
            f"\nmerged-snapshot gate: {gate['trials']} trials x "
            f"{gate['nodes']} nodes -> {verdict}"
        )


def _write_json(result: dict, quick: bool, out: Path | None = None) -> None:
    """Write *result* to *out* when given.  A full run also rewrites the
    committed ``BENCH_obs.json`` next to this file; a quick one never does."""
    text = json.dumps(result, indent=2) + "\n"
    for path in ([] if quick else [RESULT_PATH]) + ([out] if out is not None else []):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        print(f"wrote {path}")


def _gate(result: dict, scale: float = 1.0) -> list[str]:
    """Budget violations (empty means pass), every budget times *scale*."""
    failures = []
    for name, budget in result["budgets_pct"].items():
        budget *= scale
        overhead = result["shapes"][name]["overhead_pct"]
        if overhead > budget:
            failures.append(
                f"{name}: tracing costs {overhead:+.2f}% p50 "
                f"(budget {budget:g}%)"
            )
    budget_pct = OVERHEAD_BUDGET_PCT * scale
    for name, shape in result.get("cluster", {}).get("shapes", {}).items():
        overhead = shape["overhead_pct"]
        if overhead > budget_pct:
            failures.append(
                f"{name}: cluster collection costs {overhead:+.2f}% p50 "
                f"(budget {budget_pct}%)"
            )
    gate = result.get("merged_snapshot_gate")
    if gate is not None and not gate["exact"]:
        failures.append(
            f"merged snapshot not exact: {'; '.join(gate['mismatches'][:3])}"
        )
    return failures


# -- pytest entry point ----------------------------------------------------------------


def test_report_obs_overhead():
    result = run_sweep()
    _report(result)
    _write_json(result, quick=True)
    assert not _gate(result), _gate(result)


# -- script entry point ----------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="smoke mode: fewer rounds and calls (used by CI)",
    )
    parser.add_argument(
        "--out", type=Path, default=None,
        help="also write the JSON record here (the only place --quick writes it)",
    )
    options = parser.parse_args(argv)

    rounds = QUICK_ROUNDS if options.quick else ROUNDS
    pairs = QUICK_PAIRS if options.quick else PAIRS
    merge_trials = QUICK_MERGE_TRIALS if options.quick else MERGE_TRIALS
    result = run_sweep(rounds, pairs, merge_trials)
    _report(result)
    _write_json(result, quick=options.quick, out=options.out)

    # quick mode is a smoke (does the A/B run, is the overhead sane?) and
    # samples too shallowly to hold the experiment budgets on a noisy shared
    # runner — it gates at twice each budget; full runs enforce them exactly
    failures = _gate(result, 2.0 if options.quick else 1.0)
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())

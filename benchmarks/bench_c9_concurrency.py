"""C9 wire-path concurrency — multiplexed vs serialized XDR/TCP.

The protocol-v2 wire path tags every frame with a correlation id so many
in-flight requests share a socket, and the server offloads decode/dispatch
to a pool instead of handling frames head-of-line.  This experiment
measures what that buys: N client threads hammer ONE stub whose service op
holds the connection for a small, GIL-releasing service time (modelling an
I/O- or compute-bound component), once over the multiplexed transport and
once over a bench-local lock around a ``TcpTransport(pool_size=1)`` (one
socket, one call in flight — the protocol-v1 behaviour, kept as the A/B
baseline).

Expected shape: serialized throughput is flat (~1/service_time) no matter
how many client threads pile up, multiplexed throughput scales with
concurrency until the server pool saturates, and at concurrency 1 the two
are indistinguishable — the correlation header costs nanoseconds.

Acceptance (asserted in ``test_report_c9``): multiplexed throughput at
concurrency 8 is **>= 3x** serialized, and single-client p50 latency is
within **10%** of the serialized baseline.

The scale rows gate the reactor server core against the thread-per-
connection core's figures, recorded before that core was deleted
(:data:`THREADED_RECORD`, EXPERIMENTS.md C9c).

Runs under pytest (``pytest benchmarks/bench_c9_concurrency.py``) and as a
script (``python benchmarks/bench_c9_concurrency.py [--quick]`` — the CI
smoke, exits nonzero if multiplexed throughput at concurrency 8 is under
3x the serialized baseline or a scale or saturation gate fails).  A full
run rewrites ``BENCH_c9.json`` next to this file; ``--quick`` writes its
record only to ``--out PATH``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import threading
import time
from pathlib import Path

from repro.bindings.dispatcher import ObjectDispatcher
from repro.bindings.server import BindingServer
from repro.bindings.stubs import TransportStub
from repro.encoding.registry import XdrMessageCodec
from repro.transport.tcp import TcpTransport

#: service time per call; time.sleep releases the GIL, so a concurrent
#: server can overlap calls while a serialized wire path cannot
SERVICE_TIME_S = 0.002

#: REPRO_BENCH_PAYLOAD_N pins the argument size across before/after runs
#: (same knob benchmarks/conftest.py exposes to fixture-based benchmarks)
PAYLOAD_N = int(os.environ.get("REPRO_BENCH_PAYLOAD_N", 64))

LEVELS = [1, 2, 4, 8, 16, 32]
QUICK_LEVELS = [1, 8]

#: connection-scale sweep: N callers, each with its OWN socket, against the
#: reactor core
SCALE_LEVELS = [64, 256, 1024]
QUICK_SCALE_LEVELS = [16, 64]
#: worker-pool size the server gets in the scale sweep
SCALE_WORKERS = 8

#: The thread-per-connection core's scale rows at SCALE_WORKERS workers,
#: last measured on commit THREADED_RECORD_COMMIT: per-metric medians of
#: three runs, 16 and 64 callers from ``--quick``, 256 from the full sweep
#: (EXPERIMENTS.md C9c).  It was never measured past 256 callers: at 1024
#: it needed one OS thread per socket and collapsed into connection resets.
THREADED_RECORD_COMMIT = "f529f9a"
THREADED_RECORD = {
    16: {"throughput_rps": 10285.0, "p99_ms": 4.4},
    64: {"throughput_rps": 11017.0, "p99_ms": 14.4},
    256: {"throughput_rps": 10399.0, "p99_ms": 56.7},
}

#: saturation sweep: a deliberately small reactor (capacity = workers +
#: queue_max in flight) under rising offered load; excess must shed as
#: typed ServerBusyError, admitted calls must keep a bounded p99
SATURATION_WORKERS = 4
SATURATION_QUEUE_MAX = 8
SATURATION_LEVELS = [8, 32, 128]
QUICK_SATURATION_LEVELS = [8, 32]

RESULT_PATH = Path(__file__).with_name("BENCH_c9.json")


def _print_table(title: str, header: list[str], rows: list[list]) -> None:
    # local copy of benchmarks.conftest.print_table so the module also runs
    # as a plain script (python benchmarks/bench_c9_concurrency.py)
    print(f"\n=== {title} ===")
    widths = [
        max(len(str(header[i])), *(len(str(r[i])) for r in rows)) if rows else len(str(header[i]))
        for i in range(len(header))
    ]
    print("  ".join(str(header[i]).ljust(widths[i]) for i in range(len(header))))
    for row in rows:
        print("  ".join(str(row[i]).ljust(widths[i]) for i in range(len(row))))


class SlowService:
    """A component whose operations take real (GIL-releasing) time."""

    def work(self, data: str) -> int:
        time.sleep(SERVICE_TIME_S)
        return len(data)

    def echo(self, data: str) -> int:
        # instant: the scale sweep measures the wire path + scheduler, not
        # service time
        return len(data)


class _SerializedTransport:
    """One socket, one call in flight: the serialized A/B baseline."""

    def __init__(self, url: str):
        self._transport = TcpTransport(url, pool_size=1)
        self._lock = threading.Lock()

    def request(self, message, timeout=None):
        with self._lock:
            return self._transport.request(message, timeout)

    def close(self) -> None:
        self._transport.close()


def _measure_level(port: int, concurrency: int, calls_per_thread: int, serialized: bool) -> dict:
    """Throughput + latency percentiles for one (transport mode, level)."""
    url = f"tcp://127.0.0.1:{port}"
    transport = _SerializedTransport(url) if serialized else TcpTransport(url)
    stub = TransportStub(("work",), "svc", XdrMessageCodec(), transport, "xdr")
    payload = "x" * PAYLOAD_N
    barrier = threading.Barrier(concurrency + 1)
    latencies_s: list[list[float]] = [[] for _ in range(concurrency)]
    errors: list[BaseException] = []

    def worker(slot: int) -> None:
        try:
            barrier.wait()
            for _ in range(calls_per_thread):
                t0 = time.perf_counter()
                assert stub.work(payload) == PAYLOAD_N
                latencies_s[slot].append(time.perf_counter() - t0)
        except BaseException as exc:  # noqa: BLE001 — surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(n,)) for n in range(concurrency)]
    for t in threads:
        t.start()
    barrier.wait()
    t0 = time.perf_counter()
    for t in threads:
        t.join()
    elapsed_s = time.perf_counter() - t0
    stub.close()
    if errors:
        raise errors[0]

    flat = sorted(x for per_thread in latencies_s for x in per_thread)
    return {
        "concurrency": concurrency,
        "calls": concurrency * calls_per_thread,
        "throughput_rps": round(concurrency * calls_per_thread / elapsed_s, 1),
        "p50_ms": round(statistics.median(flat) * 1e3, 3),
        "p99_ms": round(flat[min(len(flat) - 1, int(len(flat) * 0.99))] * 1e3, 3),
    }


def _percentile(sorted_values: list[float], p: float) -> float:
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1, int(len(sorted_values) * p))]


def _drive_callers(port: int, callers: int, calls_per_caller: int, op: str) -> dict:
    """N callers, each with its own socket, hammering *op* concurrently.

    Unlike :func:`_measure_level` (one shared stub, multiplexed frames) this
    is the connection-scale shape: every caller dials its own
    ``TcpTransport`` so the server holds *callers* open sockets for the
    duration.  Shed requests (typed :class:`ServerBusyError`) are counted
    separately from successes; any other exception fails the run.
    """
    from repro.util.errors import ServerBusyError

    transports, stubs = [], []
    for _ in range(callers):  # sequential dials: no listen-backlog stampede
        transport = TcpTransport(f"tcp://127.0.0.1:{port}", pool_size=1)
        transports.append(transport)
        stubs.append(TransportStub((op,), "svc", XdrMessageCodec(), transport, "xdr"))
    payload = "x" * PAYLOAD_N
    barrier = threading.Barrier(callers + 1)
    ok_latencies: list[list[float]] = [[] for _ in range(callers)]
    shed_latencies: list[list[float]] = [[] for _ in range(callers)]
    errors: list[BaseException] = []

    def worker(slot: int) -> None:
        invoke = getattr(stubs[slot], op)
        try:
            barrier.wait()
            for _ in range(calls_per_caller):
                t0 = time.perf_counter()
                try:
                    assert invoke(payload) == PAYLOAD_N
                except ServerBusyError:
                    shed_latencies[slot].append(time.perf_counter() - t0)
                else:
                    ok_latencies[slot].append(time.perf_counter() - t0)
        except BaseException as exc:  # noqa: BLE001 — surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(n,)) for n in range(callers)]
    for t in threads:
        t.start()
    barrier.wait()
    t0 = time.perf_counter()
    for t in threads:
        t.join()
    elapsed_s = time.perf_counter() - t0
    for transport in transports:
        transport.close()
    if errors:
        raise errors[0]

    ok = sorted(x for per in ok_latencies for x in per)
    shed = sorted(x for per in shed_latencies for x in per)
    total = callers * calls_per_caller
    assert len(ok) + len(shed) == total, "lost calls"
    return {
        "callers": callers,
        "calls": total,
        "ok": len(ok),
        "shed": len(shed),
        "throughput_rps": round(len(ok) / elapsed_s, 1),
        "p50_ms": round(_percentile(ok, 0.50) * 1e3, 3),
        "p99_ms": round(_percentile(ok, 0.99) * 1e3, 3),
        "shed_p99_ms": round(_percentile(shed, 0.99) * 1e3, 3),
    }


def _with_server(workers: int, queue_max: int, measure) -> dict:
    """Run *measure(port)* against a fresh listener."""
    dispatcher = ObjectDispatcher()
    dispatcher.register("svc", SlowService())
    server = BindingServer(dispatcher)
    listener = server.expose_xdr_tcp(workers=workers, queue_max=queue_max)
    try:
        row = measure(listener.port)
        # the scaling claim: server-side threads stay O(workers) no matter
        # how many sockets are open (loop thread + pool)
        row["server_threads"] = sum(
            t.name.startswith("tcp-reactor") for t in threading.enumerate()
        )
        return row
    finally:
        server.close()


def run_scale(levels: list[int], calls_per_caller: int = 10) -> dict:
    """Connection-scale sweep: N callers, one socket each, on the reactor.

    The listener gets ``SCALE_WORKERS`` pool workers and a queue deep
    enough that nothing is shed — this sweep isolates what socket handling
    costs, not admission policy.  Each row carries the thread-per-
    connection figure recorded at that level (``None`` where there is
    none); the 1024 row demonstrates a thousand sockets on a fixed thread
    count (one reactor thread + the pool).
    """
    rows = []
    for callers in levels:
        queue_max = 2 * callers + 16  # never shed in this sweep
        reactor_row = _with_server(
            SCALE_WORKERS, queue_max,
            lambda port: _drive_callers(port, callers, calls_per_caller, "echo"),
        )
        assert reactor_row["shed"] == 0, "scale sweep must not shed"
        rows.append({"reactor": reactor_row, "threaded": THREADED_RECORD.get(callers)})
    return {
        "workers": SCALE_WORKERS,
        "calls_per_caller": calls_per_caller,
        "threaded_commit": THREADED_RECORD_COMMIT,
        "levels": rows,
    }


def run_saturation(levels: list[int], calls_per_caller: int = 10) -> dict:
    """Graceful-degradation sweep: offered load past a tiny fixed capacity.

    The listener admits at most ``workers + queue_max`` in-flight requests;
    every caller above that must get an *immediate* typed busy frame.  The
    interesting numbers are the admitted-call p99 (must stay bounded as
    offered load grows — no collapse) and the shed-reply p99 (must stay
    tiny — shedding happens at admission, not after queueing).
    """
    rows = []
    for callers in levels:
        rows.append(
            _with_server(
                SATURATION_WORKERS, SATURATION_QUEUE_MAX,
                lambda port: _drive_callers(port, callers, calls_per_caller, "work"),
            )
        )
    return {
        "workers": SATURATION_WORKERS,
        "queue_max": SATURATION_QUEUE_MAX,
        "capacity_inflight": SATURATION_WORKERS + SATURATION_QUEUE_MAX,
        "service_time_ms": SERVICE_TIME_S * 1e3,
        "calls_per_caller": calls_per_caller,
        "levels": rows,
    }


def run_sweep(levels: list[int], calls_per_thread: int = 25) -> dict:
    """The full A/B sweep; returns the machine-readable result document."""
    dispatcher = ObjectDispatcher()
    dispatcher.register("svc", SlowService())
    server = BindingServer(dispatcher)
    listener = server.expose_xdr_tcp()
    try:
        rows = []
        for level in levels:
            serialized = _measure_level(listener.port, level, calls_per_thread, serialized=True)
            multiplexed = _measure_level(listener.port, level, calls_per_thread, serialized=False)
            rows.append({"serialized": serialized, "multiplexed": multiplexed})
    finally:
        server.close()
    return {
        "experiment": "C9 wire-path concurrency (XDR/TCP)",
        "service_time_ms": SERVICE_TIME_S * 1e3,
        "payload_chars": PAYLOAD_N,
        "calls_per_thread": calls_per_thread,
        "levels": rows,
    }


def _speedup_at(result: dict, concurrency: int) -> float:
    for row in result["levels"]:
        if row["serialized"]["concurrency"] == concurrency:
            return row["multiplexed"]["throughput_rps"] / row["serialized"]["throughput_rps"]
    raise KeyError(f"no level {concurrency} in sweep")


def _report(result: dict) -> None:
    rows = []
    for row in result["levels"]:
        ser, mux = row["serialized"], row["multiplexed"]
        rows.append([
            ser["concurrency"],
            f"{ser['throughput_rps']:.0f}", f"{mux['throughput_rps']:.0f}",
            f"{mux['throughput_rps'] / ser['throughput_rps']:.2f}x",
            f"{ser['p50_ms']:.2f}", f"{mux['p50_ms']:.2f}",
            f"{mux['p99_ms']:.2f}",
        ])
    _print_table(
        f"C9: one stub, N threads (service time {result['service_time_ms']:.1f} ms)",
        ["threads", "ser rps", "mux rps", "speedup", "ser p50 ms", "mux p50 ms", "mux p99 ms"],
        rows,
    )


def _report_scale(scale: dict) -> None:
    rows = []
    for row in scale["levels"]:
        reactor, threaded = row["reactor"], row["threaded"]
        rows.append([
            reactor["callers"],
            f"{reactor['throughput_rps']:.0f}",
            f"{threaded['throughput_rps']:.0f}" if threaded else "-",
            f"{reactor['p99_ms']:.1f}",
            f"{threaded['p99_ms']:.1f}" if threaded else "-",
            reactor["server_threads"],
        ])
    _print_table(
        f"C9 scale: N sockets, reactor ({scale['workers']} workers) vs the "
        f"thread-per-connection record ({scale['threaded_commit']})",
        ["callers", "reactor rps", "threaded rps", "reactor p99 ms", "threaded p99 ms", "srv threads"],
        rows,
    )


def _report_saturation(saturation: dict) -> None:
    rows = []
    for row in saturation["levels"]:
        rows.append([
            row["callers"], row["ok"], row["shed"],
            f"{row['throughput_rps']:.0f}",
            f"{row['p99_ms']:.1f}", f"{row['shed_p99_ms']:.1f}",
        ])
    _print_table(
        f"C9 saturation: capacity {saturation['capacity_inflight']} in flight "
        f"({saturation['workers']} workers + {saturation['queue_max']} queue), "
        f"{saturation['service_time_ms']:.0f} ms service",
        ["callers", "ok", "shed", "admitted rps", "admitted p99 ms", "shed p99 ms"],
        rows,
    )


def _write_json(result: dict, quick: bool, out: Path | None = None) -> None:
    """Write *result* to *out* when given.  A full run also rewrites the
    committed ``BENCH_c9.json`` next to this file; a quick one never does."""
    text = json.dumps(result, indent=2) + "\n"
    for path in ([] if quick else [RESULT_PATH]) + ([out] if out is not None else []):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        print(f"wrote {path}")


# -- gates -----------------------------------------------------------------------------
#
# This host note is part of the gate design: client and server share one
# process (and typically one CPU), so *throughput* at equal Python work is
# GIL-bound and was near-identical across the two server cores.  What the
# reactor buys — and what is gated, against THREADED_RECORD — is the tail
# (p99 at 256 sockets), survival at 1024 sockets (the thread-per-connection
# core suffered connection resets there, which is why it has no record),
# a fixed server thread count, and graceful shedding under overload.
# ``budget`` relaxes every bound (2.0 in --quick mode per the CI smoke
# contract).


def _check_scale_gates(scale: dict, budget: float = 1.0) -> list[str]:
    failures = []
    for row in scale["levels"]:
        reactor, threaded = row["reactor"], row["threaded"]
        callers = reactor["callers"]
        if reactor["ok"] != reactor["calls"]:
            failures.append(f"scale {callers}: reactor lost calls ({reactor['ok']}/{reactor['calls']})")
        if reactor["server_threads"] > scale["workers"] + 1:
            failures.append(
                f"scale {callers}: reactor used {reactor['server_threads']} server threads "
                f"(cap: {scale['workers']} workers + 1 loop)"
            )
        if threaded is not None:
            if reactor["p99_ms"] > threaded["p99_ms"] * budget:
                failures.append(
                    f"scale {callers}: reactor p99 {reactor['p99_ms']:.1f} ms worse than "
                    f"thread-per-connection {threaded['p99_ms']:.1f} ms (budget {budget:g}x)"
                )
            if reactor["throughput_rps"] < threaded["throughput_rps"] * 0.6 / budget:
                failures.append(
                    f"scale {callers}: reactor throughput {reactor['throughput_rps']:.0f} rps "
                    f"under {0.6 / budget:.2f}x of threaded {threaded['throughput_rps']:.0f} rps"
                )
        else:
            if reactor["p99_ms"] > 1500.0 * budget:
                failures.append(
                    f"scale {callers}: reactor-only p99 {reactor['p99_ms']:.1f} ms "
                    f"over the {1500.0 * budget:.0f} ms bound"
                )
    return failures


def _check_saturation_gates(saturation: dict, budget: float = 1.0) -> list[str]:
    failures = []
    capacity = saturation["capacity_inflight"]
    for row in saturation["levels"]:
        callers = row["callers"]
        if row["ok"] + row["shed"] != row["calls"]:
            failures.append(f"saturation {callers}: lost calls")
        if callers > capacity and row["shed"] == 0:
            failures.append(
                f"saturation {callers}: offered load over capacity {capacity} yet nothing shed"
            )
        if row["p99_ms"] > 200.0 * budget:
            failures.append(
                f"saturation {callers}: admitted p99 {row['p99_ms']:.1f} ms over "
                f"the {200.0 * budget:.0f} ms bound (queueing not bounded?)"
            )
        if row["shed"] and row["shed_p99_ms"] > 100.0 * budget:
            failures.append(
                f"saturation {callers}: shed replies took {row['shed_p99_ms']:.1f} ms p99 "
                f"(shedding must answer at admission, bound {100.0 * budget:.0f} ms)"
            )
    return failures


# -- pytest entry point ----------------------------------------------------------------


def test_report_c9_concurrency():
    result = run_sweep(QUICK_LEVELS)
    result["scale"] = run_scale(QUICK_SCALE_LEVELS)
    result["saturation"] = run_saturation(QUICK_SATURATION_LEVELS)
    _report(result)
    _report_scale(result["scale"])
    _report_saturation(result["saturation"])
    _write_json(result, quick=True)

    speedup = _speedup_at(result, 8)
    assert speedup >= 3.0, (
        f"multiplexed throughput at 8 threads is only {speedup:.2f}x serialized (need >= 3x)"
    )

    single = result["levels"][0]
    assert single["serialized"]["concurrency"] == 1
    ser_p50, mux_p50 = single["serialized"]["p50_ms"], single["multiplexed"]["p50_ms"]
    assert mux_p50 <= ser_p50 * 1.10, (
        f"single-client p50 regressed: {mux_p50:.3f} ms multiplexed "
        f"vs {ser_p50:.3f} ms serialized (budget: +10%)"
    )

    failures = _check_scale_gates(result["scale"], budget=2.0)
    failures += _check_saturation_gates(result["saturation"], budget=2.0)
    assert not failures, "; ".join(failures)


# -- script entry point ----------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="smoke mode: reduced caller counts, 2x gate budgets (used by CI)",
    )
    parser.add_argument(
        "--out", type=Path, default=None,
        help="also write the JSON record here (the only place --quick writes it)",
    )
    options = parser.parse_args(argv)

    quick = options.quick
    budget = 2.0 if quick else 1.0
    result = run_sweep(
        QUICK_LEVELS if quick else LEVELS, calls_per_thread=15 if quick else 25
    )
    result["scale"] = run_scale(
        QUICK_SCALE_LEVELS if quick else SCALE_LEVELS,
        calls_per_caller=5 if quick else 10,
    )
    result["saturation"] = run_saturation(
        QUICK_SATURATION_LEVELS if quick else SATURATION_LEVELS,
        calls_per_caller=5 if quick else 10,
    )
    _report(result)
    _report_scale(result["scale"])
    _report_saturation(result["saturation"])
    _write_json(result, quick=options.quick, out=options.out)

    failures = []
    speedup = _speedup_at(result, 8)
    print(f"\nspeedup at concurrency 8: {speedup:.2f}x")
    if speedup < 3.0:
        failures.append(
            f"multiplexed throughput at 8 threads is only {speedup:.2f}x serialized (need >= 3x)"
        )
    failures += _check_scale_gates(result["scale"], budget=budget)
    failures += _check_saturation_gates(result["saturation"], budget=budget)
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Recovery experiment — the cost and latency of the self-healing DVM.

Two questions about the robustness layer:

1. **Time-to-recovery vs heartbeat interval.**  With the failure detector
   and failover manager running on the wall clock's timer thread
   (``enable_self_healing(start_threads=True)``), how long after
   a node crash does a restartable component answer again from its new
   home?  Expected shape: recovery time scales with ``evict_after x
   heartbeat_interval`` — detection dominates, the failover itself (pickle
   revive + re-publish) is microseconds.

2. **Fault-free fast-path overhead.**  An :class:`InvocationPolicy` on a
   stub must be nearly free when nothing fails: the added work is one
   breaker ``allow()``, one closure, one ``record_success()``.  Acceptance
   criterion: **<5%** over the bare stub on the sim transport path.

Runs under pytest (``pytest benchmarks/bench_recovery.py``) and as a
script (``python benchmarks/bench_recovery.py [--quick]`` — the CI smoke).
"""

from __future__ import annotations

import argparse
import gc
import threading
import time

from repro.bindings.policy import InvocationPolicy
from repro.core.builder import HarnessDvm
from repro.netsim.topology import lan
from repro.plugins.services import CounterService

EVICT_AFTER = 3
INTERVALS_S = [0.02, 0.05, 0.10]
QUICK_INTERVALS_S = [0.02, 0.05]


def _print_table(title: str, header: list[str], rows: list[list]) -> None:
    # local copy of benchmarks.conftest.print_table so the module also runs
    # as a plain script (python benchmarks/bench_recovery.py)
    print(f"\n=== {title} ===")
    widths = [
        max(len(str(header[i])), *(len(str(r[i])) for r in rows)) if rows else len(str(header[i]))
        for i in range(len(header))
    ]
    print("  ".join(str(header[i]).ljust(widths[i]) for i in range(len(header))))
    for row in rows:
        print("  ".join(str(row[i]).ljust(widths[i]) for i in range(len(row))))


# -- 1. time-to-recovery ---------------------------------------------------------------


def measure_recovery_time(heartbeat_s: float, timeout_s: float = 30.0) -> float:
    """Seconds from node crash to the component answering from its new home."""
    net = lan(3, seed=11)
    hosts = [h.name for h in net.hosts()]
    with HarnessDvm("bench-recovery", net) as harness:
        harness.add_nodes(*hosts)
        harness.deploy(
            hosts[0], CounterService, name="counter",
            bindings=("local-instance", "sim"), restartable=True,
        )
        stub = harness.stub(hosts[1], "counter", resilient=True)
        stub.increment(1)

        recovered = threading.Event()
        harness.events.subscribe("recovery.failover", lambda event: recovered.set())
        _detector, failover = harness.enable_self_healing(
            observer=hosts[2],
            evict_after=EVICT_AFTER,
            heartbeat_interval_s=heartbeat_s,
            checkpoint_interval_s=heartbeat_s,
            start_threads=True,
        )
        failover.checkpoint()  # baseline snapshot before the first periodic one

        start = time.perf_counter()
        net.host(hosts[0]).crash()
        if not recovered.wait(timeout_s):
            raise RuntimeError(f"no recovery within {timeout_s}s at interval {heartbeat_s}")
        assert stub.increment(1) >= 2  # the pre-existing stub keeps working
        elapsed = time.perf_counter() - start
        stub.close()
        return elapsed


def recovery_rows(intervals: list[float]) -> list[list]:
    rows = []
    for interval in intervals:
        elapsed = measure_recovery_time(interval)
        rows.append([
            f"{interval * 1000:.0f}",
            f"{EVICT_AFTER * interval * 1000:.0f}",
            f"{elapsed * 1000:.1f}",
        ])
    return rows


def test_report_recovery_time():
    rows = recovery_rows(INTERVALS_S)
    _print_table(
        "time-to-recovery vs heartbeat interval (evict_after=3)",
        ["heartbeat (ms)", "detection floor (ms)", "recovery (ms)"],
        rows,
    )
    measured = [float(r[2]) for r in rows]
    # detection dominates: recovery can't beat (evict_after - 1) heartbeats …
    for interval, ms in zip(INTERVALS_S, measured):
        assert ms >= (EVICT_AFTER - 1) * interval * 1000
    # … so a 5x longer heartbeat must cost more wall-clock than the shortest
    assert measured[-1] > measured[0]


# -- 2. fault-free fast-path overhead ----------------------------------------------------


def _timed_calls(stub, calls: int) -> float:
    start = time.perf_counter()
    for _ in range(calls):
        stub.increment(1)
    return time.perf_counter() - start


def measure_fastpath_overhead(calls: int = 2000, repeats: int = 9) -> dict:
    """Bare stub vs policy-wrapped stub on the fault-free sim path.

    Overhead is the *median of paired ratios*: each repeat times the two
    stubs back-to-back and contributes one policy/bare ratio, so slow
    clock-speed drift cancels instead of polluting the comparison.
    """
    net = lan(2, seed=3)
    hosts = [h.name for h in net.hosts()]
    with HarnessDvm("bench-fastpath", net) as harness:
        harness.add_nodes(*hosts)
        harness.deploy(hosts[0], CounterService, name="counter", bindings=("sim",))
        bare = harness.stub(hosts[1], "counter", prefer=("sim",))
        policied = harness.stub(
            hosts[1], "counter", prefer=("sim",), policy=InvocationPolicy()
        )
        for stub in (bare, policied):  # warm up codec + dispatch caches
            _timed_calls(stub, calls // 10)
        bare_trials, policy_trials = [], []
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(repeats):
                bare_trials.append(_timed_calls(bare, calls))
                policy_trials.append(_timed_calls(policied, calls))
        finally:
            if gc_was_enabled:
                gc.enable()
        ratios = sorted(p / b for p, b in zip(policy_trials, bare_trials))
        bare.close()
        policied.close()
    return {
        "bare_us": min(bare_trials) / calls * 1e6,
        "policy_us": min(policy_trials) / calls * 1e6,
        "overhead": ratios[len(ratios) // 2] - 1.0,
    }


def test_fastpath_overhead_under_5_percent():
    result = measure_fastpath_overhead()
    if result["overhead"] >= 0.05:
        # shared-box noise floor can exceed the signal (~1%): re-measure
        # with more statistical power before concluding the budget is blown
        result = measure_fastpath_overhead(calls=4000, repeats=15)
    _print_table(
        "fault-free invocation fast path (sim transport)",
        ["stub", "per-call (us)"],
        [
            ["bare", f"{result['bare_us']:.2f}"],
            ["policy", f"{result['policy_us']:.2f}"],
            ["overhead", f"{result['overhead'] * 100:+.2f}%"],
        ],
    )
    assert result["overhead"] < 0.05, (
        f"policy fast path costs {result['overhead'] * 100:.2f}% (budget: 5%)"
    )


# -- script entry point ----------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="smoke mode: fewer intervals and calls (used by CI)",
    )
    options = parser.parse_args(argv)

    intervals = QUICK_INTERVALS_S if options.quick else INTERVALS_S
    _print_table(
        "time-to-recovery vs heartbeat interval (evict_after=3)",
        ["heartbeat (ms)", "detection floor (ms)", "recovery (ms)"],
        recovery_rows(intervals),
    )

    calls = 500 if options.quick else 2000
    repeats = 3 if options.quick else 5
    result = measure_fastpath_overhead(calls=calls, repeats=repeats)
    _print_table(
        "fault-free invocation fast path (sim transport)",
        ["stub", "per-call (us)"],
        [
            ["bare", f"{result['bare_us']:.2f}"],
            ["policy", f"{result['policy_us']:.2f}"],
            ["overhead", f"{result['overhead'] * 100:+.2f}%"],
        ],
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""C10 control-plane crossover — epidemic gossip vs full synchrony at fleet scale.

Section 6 scopes the coherency spectrum; this experiment measures where its
ends cross.  For each fleet size the same batch of state updates is pushed
through three schemes over the same random-regular substrate:

* **full-synchrony** — every write broadcasts to all n members: convergence
  is immediate but each update costs O(n) messages;
* **gossip** — writes stay local, push-pull anti-entropy over per-origin
  digests reconciles the fleet in O(log n) rounds of O(n·fanout) messages,
  amortized over the whole update batch;
* **neighborhood-gossip** — eager ring-neighbour pushes plus the epidemic:
  more messages per write, fewer rounds to converge.

The second leg is the registry crossover: S services placed on a
consistent-hash ring with R-way replication (:class:`ShardedRegistry`)
versus one centralized registry host, under a thundering herd of by-name
lookups with a per-host service-time model — the centralized host queues,
the sharded ring spreads, and the gap shows up in simulated p99.

Acceptance (asserted in ``test_report_c10_gossip`` and the script gates):

* every gossip run converges within the round cap;
* at the largest fleet measured, gossip messages-per-update is **>= 5x**
  cheaper than full synchrony;
* sharded registry p99 beats the centralized baseline at every n >= 1000;
* in full mode, the 10k-node gossip leg (updates + convergence) finishes
  under 60 s of wall time.

Runs under pytest (``pytest benchmarks/bench_c10_gossip.py``) and as a
script (``python benchmarks/bench_c10_gossip.py [--quick] [--out PATH]`` —
the CI smoke uses ``--quick``; the nightly soak runs the full sweep and
uploads ``--out`` as the audit trail).  A full run rewrites
``BENCH_c10.json`` next to this file; ``--quick`` writes only to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

from repro.dvm.gossip import GossipState, NeighborhoodGossipState
from repro.dvm.state import FullSynchronyState
from repro.netsim import topology as _topology
from repro.plugins.services import CounterService
from repro.registry.distributed import CentralizedLookup
from repro.registry.sharded import ShardedRegistry
from repro.tools.wsdlgen import generate_wsdl

SEED = 3
DEGREE = 4
FANOUT = 2
RADIUS = 2
#: anti-entropy rounds before a non-converging run is declared broken
MAX_ROUNDS = 64

SIZES = [100, 1000, 10000]
QUICK_SIZES = [100, 1000]

#: update batch sizes: full synchrony pays O(n) messages *per update*, so a
#: handful suffices to measure its per-update cost; gossip amortizes whole
#: rounds over the batch, so it gets a realistic burst
FULLSYNC_UPDATES = 8
GOSSIP_UPDATES_CAP = 128

#: registry leg: S services, q-lookup thundering herd, per-host service time
N_SERVICES = 16
N_LOOKUPS = 2000
QUICK_LOOKUPS = 500
REPLICATION = 2
SERVICE_TIME_S = 0.0002

RESULT_PATH = Path(__file__).with_name("BENCH_c10.json")


def _print_table(title: str, header: list[str], rows: list[list]) -> None:
    # local copy of benchmarks.conftest.print_table so the module also runs
    # as a plain script (python benchmarks/bench_c10_gossip.py)
    print(f"\n=== {title} ===")
    widths = [
        max(len(str(header[i])), *(len(str(r[i])) for r in rows)) if rows else len(str(header[i]))
        for i in range(len(header))
    ]
    print("  ".join(str(header[i]).ljust(widths[i]) for i in range(len(header))))
    for row in rows:
        print("  ".join(str(row[i]).ljust(widths[i]) for i in range(len(row))))


# -- convergence / amplification sweep -------------------------------------------------


def _measure_scheme(n: int, scheme: str) -> dict:
    """Apply a batch of updates through *scheme* on an n-node substrate and
    drive anti-entropy to convergence; returns the measured row."""
    names = [f"node{i}" for i in range(n)]
    network = _topology.random_regular(n, DEGREE, seed=SEED, detail_stats=False)
    if scheme == "full-synchrony":
        protocol = FullSynchronyState(network, members=names)
        updates = min(n, FULLSYNC_UPDATES)
    elif scheme == "gossip":
        protocol = GossipState(network, members=names, fanout=FANOUT, seed=SEED)
        updates = min(n, GOSSIP_UPDATES_CAP)
    elif scheme == "neighborhood-gossip":
        protocol = NeighborhoodGossipState(
            network, members=names, radius=RADIUS, fanout=FANOUT, seed=SEED
        )
        updates = min(n, GOSSIP_UPDATES_CAP)
    else:  # pragma: no cover — guarded by the caller
        raise ValueError(scheme)

    network.reset_stats()
    wall0 = time.perf_counter()
    for i in range(updates):
        # numeric values ride the columnar ndarray fast path in delta batches;
        # the convergence/amplification claim is about version spread, not
        # value payload shape
        protocol.update(names[i % n], f"component/svc{i}", i)
    rounds = 0
    if hasattr(protocol, "gossip_round"):
        while not protocol.converged() and rounds < MAX_ROUNDS:
            protocol.gossip_round()
            rounds += 1
        converged = protocol.converged()
    else:
        converged = True  # broadcast is synchronous by construction
    wall_s = time.perf_counter() - wall0

    return {
        "scheme": scheme,
        "n": n,
        "updates": updates,
        "rounds": rounds,
        "converged": converged,
        "messages": network.total_messages,
        "bytes": network.total_bytes,
        "msgs_per_update": round(network.total_messages / updates, 1),
        "wall_s": round(wall_s, 3),
    }


def run_convergence(sizes: list[int]) -> dict:
    rows = []
    for n in sizes:
        per_scheme = {}
        for scheme in ("full-synchrony", "gossip", "neighborhood-gossip"):
            per_scheme[scheme] = _measure_scheme(n, scheme)
        rows.append({"n": n, "schemes": per_scheme})
    return {
        "degree": DEGREE,
        "fanout": FANOUT,
        "radius": RADIUS,
        "fullsync_updates": FULLSYNC_UPDATES,
        "gossip_updates_cap": GOSSIP_UPDATES_CAP,
        "max_rounds": MAX_ROUNDS,
        "levels": rows,
    }


# -- registry crossover ----------------------------------------------------------------


def _simulated_percentile(latencies: list[float], p: float) -> float:
    values = sorted(latencies)
    if not values:
        return 0.0
    return values[min(len(values) - 1, int(len(values) * p))]


def _drive_lookups(network, lookups: int, do_lookup) -> dict:
    """One thundering herd of by-name lookups; per-lookup simulated latency.

    ``begin_burst`` zeroes the queue depths, so the k-th lookup landing on
    one host queues behind the k-1 before it — the centralized registry's
    serialization becomes visible in the percentiles while sharded load
    stays flat.
    """
    n_hosts = len(network.hosts())
    network.begin_burst()
    latencies = []
    for i in range(lookups):
        caller = f"node{(i * 7) % n_hosts}"
        service = f"svc{(i * 5) % N_SERVICES}"
        before = network.simulated_time
        found = do_lookup(caller, service)
        assert found, f"lookup {service} from {caller} came back empty"
        latencies.append(network.simulated_time - before)
    return {
        "lookups": lookups,
        "p50_ms": round(_simulated_percentile(latencies, 0.50) * 1e3, 3),
        "p99_ms": round(_simulated_percentile(latencies, 0.99) * 1e3, 3),
        "max_ms": round(max(latencies) * 1e3, 3),
    }


def _measure_registry(n: int, lookups: int) -> dict:
    documents = [
        generate_wsdl(CounterService, service_name=f"svc{i}") for i in range(N_SERVICES)
    ]

    # centralized: every name lives on node0; every lookup queues there
    network = _topology.lan(n, seed=SEED, detail_stats=False)
    for host in network.hosts():
        network.set_service_time(host.name, SERVICE_TIME_S)
    central = CentralizedLookup(network, "node0")
    for i, document in enumerate(documents):
        central.register(f"node{(i * 3) % n}", document)
    central_row = _drive_lookups(
        network,
        lookups,
        lambda caller, service: central.discover(
            caller, f"//portType[@name='{service}PortType']"
        ),
    )

    # sharded: consistent-hash placement, R-way replication, ring-order reads
    network = _topology.lan(n, seed=SEED, detail_stats=False)
    for host in network.hosts():
        network.set_service_time(host.name, SERVICE_TIME_S)
    sharded = ShardedRegistry(network, replication=REPLICATION)
    for i, document in enumerate(documents):
        sharded.register(f"node{(i * 3) % n}", document)
    sharded_row = _drive_lookups(
        network,
        lookups,
        lambda caller, service: sharded.lookup_name(caller, service),
    )

    return {"n": n, "central": central_row, "sharded": sharded_row}


def run_registry(sizes: list[int], lookups: int) -> dict:
    return {
        "services": N_SERVICES,
        "replication": REPLICATION,
        "service_time_ms": SERVICE_TIME_S * 1e3,
        "levels": [_measure_registry(n, lookups) for n in sizes],
    }


# -- reporting -------------------------------------------------------------------------


def _report_convergence(result: dict) -> None:
    rows = []
    for level in result["levels"]:
        for scheme in ("full-synchrony", "gossip", "neighborhood-gossip"):
            row = level["schemes"][scheme]
            rows.append([
                row["n"], scheme, row["updates"],
                row["rounds"] if row["rounds"] else "-",
                "yes" if row["converged"] else "NO",
                row["messages"], f"{row['msgs_per_update']:.0f}",
                f"{row['wall_s']:.2f}",
            ])
    _print_table(
        f"C10 convergence: random-regular degree {result['degree']}, fanout {result['fanout']}",
        ["n", "scheme", "updates", "rounds", "converged", "messages", "msgs/update", "wall s"],
        rows,
    )


def _report_registry(result: dict) -> None:
    rows = []
    for level in result["levels"]:
        central, sharded = level["central"], level["sharded"]
        rows.append([
            level["n"],
            f"{central['p50_ms']:.2f}", f"{central['p99_ms']:.2f}",
            f"{sharded['p50_ms']:.2f}", f"{sharded['p99_ms']:.2f}",
            f"{central['p99_ms'] / sharded['p99_ms']:.1f}x" if sharded["p99_ms"] else "-",
        ])
    _print_table(
        f"C10 registry herd: {result['levels'][0]['central']['lookups']} by-name lookups, "
        f"{result['services']} services, {result['service_time_ms']:.1f} ms service time",
        ["n", "central p50 ms", "central p99 ms", "sharded p50 ms", "sharded p99 ms", "p99 gain"],
        rows,
    )


def _write_json(result: dict, quick: bool, out: Path | None = None) -> None:
    """Write *result* to *out* when given.  A full run also rewrites the
    committed ``BENCH_c10.json`` next to this file; a quick one never does."""
    text = json.dumps(result, indent=2) + "\n"
    for path in ([] if quick else [RESULT_PATH]) + ([out] if out is not None else []):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        print(f"wrote {path}")


# -- gates -----------------------------------------------------------------------------


def _check_convergence_gates(result: dict, budget: float = 1.0) -> list[str]:
    failures = []
    for level in result["levels"]:
        n = level["n"]
        for scheme in ("gossip", "neighborhood-gossip"):
            row = level["schemes"][scheme]
            if not row["converged"]:
                failures.append(
                    f"convergence {n}: {scheme} did not converge in {MAX_ROUNDS} rounds"
                )
    largest = result["levels"][-1]
    fullsync = largest["schemes"]["full-synchrony"]["msgs_per_update"]
    gossip = largest["schemes"]["gossip"]["msgs_per_update"]
    ratio = fullsync / gossip if gossip else 0.0
    bound = 5.0 / budget
    if ratio < bound:
        failures.append(
            f"convergence {largest['n']}: gossip amplification only {ratio:.1f}x "
            f"cheaper than full synchrony (need >= {bound:g}x)"
        )
    ten_k = next((lvl for lvl in result["levels"] if lvl["n"] >= 10000), None)
    if ten_k is not None:
        wall = ten_k["schemes"]["gossip"]["wall_s"]
        if wall > 60.0:
            failures.append(
                f"convergence {ten_k['n']}: gossip leg took {wall:.1f}s wall "
                "(bound: 60s)"
            )
    return failures


def _check_registry_gates(result: dict, budget: float = 1.0) -> list[str]:
    failures = []
    for level in result["levels"]:
        n, central, sharded = level["n"], level["central"], level["sharded"]
        if n >= 1000 and sharded["p99_ms"] * (1.0 / budget) >= central["p99_ms"]:
            failures.append(
                f"registry {n}: sharded p99 {sharded['p99_ms']:.2f} ms does not beat "
                f"central {central['p99_ms']:.2f} ms"
            )
    return failures


# -- pytest entry point ----------------------------------------------------------------


def test_report_c10_gossip():
    result = {
        "experiment": "C10 gossip control plane vs full synchrony",
        "convergence": run_convergence(QUICK_SIZES),
        "registry": run_registry(QUICK_SIZES, QUICK_LOOKUPS),
    }
    _report_convergence(result["convergence"])
    _report_registry(result["registry"])
    _write_json(result, quick=True)
    failures = _check_convergence_gates(result["convergence"], budget=2.0)
    failures += _check_registry_gates(result["registry"], budget=2.0)
    assert not failures, "; ".join(failures)


# -- script entry point ----------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="smoke mode: sizes 100/1000, fewer lookups, 2x gate budgets (used by CI)",
    )
    parser.add_argument(
        "--out", type=Path, default=None,
        help="also write the JSON record here (the only place --quick writes it)",
    )
    options = parser.parse_args(argv)

    quick = options.quick
    budget = 2.0 if quick else 1.0
    result = {
        "experiment": "C10 gossip control plane vs full synchrony",
        "convergence": run_convergence(QUICK_SIZES if quick else SIZES),
        "registry": run_registry(
            QUICK_SIZES if quick else SIZES, QUICK_LOOKUPS if quick else N_LOOKUPS
        ),
    }
    _report_convergence(result["convergence"])
    _report_registry(result["registry"])
    _write_json(result, quick=options.quick, out=options.out)

    failures = _check_convergence_gates(result["convergence"], budget=budget)
    failures += _check_registry_gates(result["registry"], budget=budget)
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

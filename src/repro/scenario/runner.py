"""The scenario runner: play a fault script against a live deployment.

:func:`run_scenario` builds the manifest's world — seeded netsim topology,
DVM with the chosen coherency scheme, deployed services, failure detector
and failover manager — then walks a tick-driven timeline:

1. advance the clock to the tick's nominal time, which fires the periodic
   work registered on it (``Clock.every``) in this order: a gossip round
   (gossip-family coherency), a checkpoint of restartable components, one
   failure-detector heartbeat round, each on the manifest's cadence;
2. apply every fault whose scripted time has come (each announced as a
   ``scenario.fault`` event *before* it lands, so the audit trail shows the
   injection and its consequences in causal order);
3. fire the workload's calls for this tick.

Everything rides the scenario's single :class:`~repro.util.clock.VirtualClock`
(the default), so the entire run is deterministic and takes milliseconds of
wall time; ``wall=True`` swaps in the real clock for soak-style runs.  The
collected :class:`~repro.scenario.events.EventLog` plus the evaluated
:mod:`~repro.scenario.checks` become the run's artifacts: ``events.jsonl``
(byte-identical across same-seed re-runs) and ``result.json``.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.bindings.stubs import load_type
from repro.core.builder import HarnessDvm
from repro.dvm.gossip import GossipState
from repro.netsim import topology as _topology
from repro.obs import metrics as _metrics
from repro.scenario.checks import CheckContext, run_checks
from repro.scenario.events import EventLog, dump_label, scrub
from repro.scenario.faults import apply_fault
from repro.scenario.manifest import ScenarioManifest, load_manifest
from repro.scenario.workload import (
    MailboxWorkloadDriver,
    ReactorWorkloadDriver,
    WorkloadDriver,
    WorkloadStats,
)
from repro.util.clock import VirtualClock, WallClock
from repro.util.errors import ScenarioError
from repro.util.events import EventBus
from repro.util.ids import reset_ids

__all__ = ["ScenarioRuntime", "ScenarioResult", "run_scenario"]

#: Counters whose per-tick deltas are noted in the run's log.
_FLIGHT_COUNTERS = (
    "server.requests",
    "server.faults",
    "dvm.detector.misses",
    "dvm.detector.suspected",
    "dvm.detector.evicted",
    "invoke.breaker.opened",
)

#: Bus topics whose first occurrence (per subject) dumps the log's tail.
FLIGHT_TRIGGERS = ("invoke.breaker.open", "dvm.member.dead")

#: How many of the log's last records a flight dump holds.
_FLIGHT_RECORDS = 256


def _build_network(manifest: ScenarioManifest):
    topo = manifest.topology
    if topo.kind == "lan":
        return _topology.lan(topo.hosts, seed=manifest.seed)
    if topo.kind == "wan":
        return _topology.wan(topo.hosts, seed=manifest.seed)
    if topo.kind == "two_clusters":
        return _topology.two_clusters(topo.per_cluster, seed=manifest.seed)
    if topo.kind == "mesh":
        return _topology.mesh_neighborhoods(
            topo.hosts, topo.neighborhood, seed=manifest.seed
        )
    if topo.kind == "random_regular":
        return _topology.random_regular(topo.hosts, topo.degree, seed=manifest.seed)
    raise ScenarioError(f"unknown topology kind {topo.kind!r}")  # pragma: no cover


class ScenarioRuntime:
    """The live world a scenario manipulates.

    Fault handlers and checkers reach the fabric (``network``), the
    deployment (``harness``), and the timeline (``clock``) through this
    object; :meth:`rejoin` is the restart-fault hook that re-enrolls an
    evicted node with a fresh kernel.
    """

    def __init__(self, manifest: ScenarioManifest, wall: bool = False):
        # id strings leak their decimal width into wire payload sizes, so
        # same-seed runs in one process diverge by sub-microsecond simulated
        # transfer costs unless the counter restarts with the world
        reset_ids()
        self.manifest = manifest
        self.virtual = not wall
        self.clock = VirtualClock() if self.virtual else WallClock()
        # the tick timeline the runner advances and registers periodic work
        # on: the clock itself, or a virtual clock of scenario time under
        # wall time, where ticks are not paced and only latencies are real
        self.timeline = self.clock if self.virtual else VirtualClock()
        # set by ReactorWorkloadDriver when workload.mode == "reactor"; the
        # reactor_capacity fault action reconfigures it mid-run
        self.reactor_admission = None
        self.network = _build_network(manifest)
        self.events = EventBus()
        # the run's one record stream: the audit trail plus per-tick metric
        # deltas, whose tail run_scenario dumps when a breaker opens, a node
        # dies, or a check fails
        self.log = EventLog(self.clock)
        self.log.attach(self.events)  # before construction: joins/deploys recorded
        self._flight_prev: dict[str, int] = {
            name: _metrics.registry.counter(name).value() for name in _FLIGHT_COUNTERS
        }
        self.harness = HarnessDvm(
            manifest.name,
            self.network,
            coherency=manifest.dvm.coherency,
            neighborhood_radius=manifest.dvm.neighborhood_radius,
            gossip_fanout=manifest.dvm.gossip_fanout,
            gossip_seed=manifest.seed,
            events=self.events,
            clock=self.clock,
            lookup_cache_ttl_s=manifest.dvm.lookup_cache_ttl_s,
        )
        for host in sorted(h.name for h in self.network.hosts()):
            self.harness.add_node(host)
        for service in manifest.services:
            self.harness.deploy(
                service.node,
                load_type(service.type),
                name=service.name,
                bindings=service.bindings,
                restartable=service.restartable,
            )
        healing = manifest.self_healing
        if healing.enabled:
            self.harness.enable_self_healing(
                observer=healing.observer,
                suspect_after=healing.suspect_after,
                evict_after=healing.evict_after,
                heartbeat_interval_s=healing.heartbeat_every_ticks * manifest.tick_s,
                checkpoint_interval_s=healing.checkpoint_every_ticks * manifest.tick_s,
                indirect_probes=healing.indirect_probes,
                sample=healing.sample,
                coalesce_after=healing.coalesce_after,
                start_threads=False,
            )

    def rejoin(self, node: str) -> None:
        """Re-enroll a restarted host that was evicted while down."""
        if node not in self.harness.dvm.nodes():
            self.harness.add_node(node)

    def advance_to(self, target: float) -> None:
        """Catch the timeline up to *target* (never moves it backwards),
        firing whatever is due on the way."""
        self.timeline.sleep(max(0.0, target - self.timeline.now()))

    def credit(self, delta: float) -> None:
        """Account simulated network time spent by a call as clock time."""
        if self.virtual and delta > 0:
            self.clock.advance(delta)

    def sample_flight_metrics(self) -> dict:
        """This tick's deltas of the flight counter set (nonzero only),
        noted in the log so a dump shows what the rates were doing just
        before the trigger."""
        deltas = {}
        for name in _FLIGHT_COUNTERS:
            value = _metrics.registry.counter(name).value()
            delta = value - self._flight_prev.get(name, 0)
            self._flight_prev[name] = value
            if delta:
                deltas[name] = delta
        if deltas:
            self.log.note("metrics", deltas)
        return deltas

    def close(self) -> None:
        self.log.detach()
        self.harness.close()


@dataclass(frozen=True)
class ScenarioResult:
    """Everything a scenario run produced, JSON-ready via :meth:`as_dict`."""

    name: str
    seed: int
    passed: bool
    checks: tuple = ()
    workload: dict = field(default_factory=dict)
    events_sha256: str = ""
    n_events: int = 0
    final_members: tuple = ()
    wall_s: float = 0.0
    events_path: str | None = None

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "passed": self.passed,
            "checks": [c.as_dict() for c in self.checks],
            "workload": dict(self.workload),
            "events_sha256": self.events_sha256,
            "n_events": self.n_events,
            "final_members": list(self.final_members),
            "wall_s": round(self.wall_s, 6),
        }


def run_scenario(
    manifest: ScenarioManifest | str | Path,
    out_dir: str | Path | None = None,
    seed: int | None = None,
    wall: bool = False,
) -> ScenarioResult:
    """Execute one manifest end to end and return its :class:`ScenarioResult`.

    *manifest* may be a parsed :class:`~repro.scenario.manifest.ScenarioManifest`
    or a path to one.  *seed* overrides the manifest's seed; *out_dir*, when
    given, receives ``events.jsonl`` and ``result.json``.
    """
    if isinstance(manifest, (str, Path)):
        manifest = load_manifest(manifest)
    if seed is not None:
        manifest = manifest.with_seed(seed)
    # a manifest can demand the real clock (reactor workloads drive real
    # sockets; their latencies are wall time whatever the caller asked for)
    wall = wall or manifest.wall
    started = time.monotonic()
    runtime = ScenarioRuntime(manifest, wall=wall)
    tick = manifest.tick_s
    t0 = manifest.settle_ticks * tick
    pending_faults = list(manifest.faults)
    driver = None
    trigger_subs = []
    dumped: set[str] = set()  # "topic:subject" keys: one dump each per run

    def flight_dump(trigger: str, label: str) -> None:
        """Publish the (deterministic) dump announcement; write the log's
        tail only when the run has an output directory.  The event is
        unconditional so same-seed runs with and without ``out_dir`` hash
        identically — the soak harness's determinism check depends on it."""
        filename = f"flight-{label}.jsonl"
        if out_dir is not None:
            path = Path(out_dir) / filename
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(
                "".join(
                    json.dumps(scrub(entry), sort_keys=True, default=str) + "\n"
                    for entry in runtime.log.tail(_FLIGHT_RECORDS)
                ),
                encoding="utf-8",
            )
        runtime.events.publish(
            "obs.flight.dumped",
            {"trigger": trigger, "node": label, "file": filename},
            source="obs",
        )

    def on_trigger(event) -> None:
        payload = event.payload if isinstance(event.payload, dict) else {}
        subject = payload.get("node") or payload.get("target") or "unknown"
        label = dump_label(str(subject))
        key = f"{event.topic}:{label}"
        if key not in dumped:
            dumped.add(key)
            flight_dump(event.topic, label)

    try:
        for topic in FLIGHT_TRIGGERS:
            trigger_subs.append(runtime.events.subscribe(topic, on_trigger))
        runtime.events.publish(
            "scenario.start",
            {
                "name": manifest.name,
                "seed": manifest.seed,
                "ticks": manifest.n_ticks,
                "tick_s": tick,
                "topology": manifest.topology.kind,
                "coherency": manifest.dvm.coherency,
            },
            source="scenario",
        )
        if manifest.workload is not None:
            driver_cls = {
                "reactor": ReactorWorkloadDriver,
                "mailbox": MailboxWorkloadDriver,
            }.get(manifest.workload.mode, WorkloadDriver)
            driver = driver_cls(
                runtime, manifest.workload, random.Random(f"{manifest.seed}:workload")
            )

        # periodic work is timeline registrations, fired inside its advance
        # and, when due together, in this order.  Settle ticks end with a
        # pass and run ticks begin with one: passes sit on the tick grid from
        # the first tick's end (from t=0 with no settling) to the last tick
        first = min(manifest.settle_ticks, 1) * tick
        harness = runtime.harness
        cadence = []  # (interval, fn, error metric)
        if isinstance(harness.dvm.protocol, GossipState):
            cadence.append((tick, harness.dvm.protocol.gossip_round, "dvm.gossip.pump_errors"))
        if manifest.self_healing.enabled:
            failover, detector = harness.failover, harness.detector
            cadence.append((failover.interval_s, failover.checkpoint, "recovery.failover.pump_errors"))
            cadence.append((detector.interval_s, detector.tick, "dvm.detector.pump_errors"))
        timers = [
            runtime.timeline.every(interval, fn, name=name, start=first)
            for interval, fn, name in cadence
        ]

        def apply_due(now_scripted: float) -> None:
            while pending_faults and pending_faults[0].at <= now_scripted:
                fault = pending_faults.pop(0)
                runtime.events.publish(
                    "scenario.fault",
                    {"at": fault.at, "action": fault.action, "params": scrub(fault.params)},
                    source="scenario",
                )
                apply_fault(runtime, fault.action, fault.params)

        for i in range(manifest.n_ticks):
            runtime.advance_to(t0 + i * tick)
            apply_due(i * tick)
            if driver is not None:
                summary = driver.step()
                summary["tick"] = i
                runtime.events.publish(
                    "scenario.workload.tick", summary, source="scenario"
                )
            runtime.sample_flight_metrics()
        for timer in timers:  # nothing fires after the last tick
            timer.cancel()
        apply_due(manifest.duration_s)  # script entries timed at/after the last tick

        # let the driver settle in-flight state (e.g. the mailbox driver's
        # pending acks and final backlog drain) before invariants evaluate
        if driver is not None and hasattr(driver, "finish"):
            driver.finish()
        stats = driver.stats if driver is not None else WorkloadStats()
        checks = run_checks(
            CheckContext(manifest=manifest, runtime=runtime, stats=stats, log=runtime.log)
        )
        passed = all(c.passed for c in checks)
        if not passed:
            flight_dump("scenario.check.failed", "checks")
        runtime.events.publish(
            "scenario.end",
            {
                "passed": passed,
                "checks": {c.check: c.passed for c in checks},
                "issued": stats.issued,
                "ok": stats.ok,
            },
            source="scenario",
        )
        events_path: str | None = None
        if out_dir is not None:
            out = Path(out_dir)
            events_path = str(runtime.log.write_jsonl(out / "events.jsonl"))
        result = ScenarioResult(
            name=manifest.name,
            seed=manifest.seed,
            passed=passed,
            checks=tuple(checks),
            workload=stats.summary(),
            events_sha256=runtime.log.sha256(),
            n_events=len(runtime.log),
            final_members=tuple(runtime.harness.dvm.nodes()),
            wall_s=time.monotonic() - started,
            events_path=events_path,
        )
        if out_dir is not None:
            path = Path(out_dir) / "result.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(
                json.dumps(result.as_dict(), indent=2, sort_keys=True) + "\n",
                encoding="utf-8",
            )
        return result
    finally:
        for sub in trigger_subs:
            sub.cancel()
        if driver is not None:
            driver.close()
        runtime.close()

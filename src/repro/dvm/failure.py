"""Heartbeat failure detection for the DVM — the "robustness" half of §1.

The paper motivates Harness with "improving robustness … and adaptation"
through dynamic reconfiguration of the DVM; reconfiguration needs a trigger.
:class:`FailureDetector` provides it: an observer node pings every other
enrolled member over the fabric's ``dvm-ping`` endpoint and tracks
consecutive misses per member — a miss-count accrual detector, the discrete
cousin of the φ-accrual detectors used by later grid middleware.  A member
accrues suspicion monotonically:

    ALIVE --(suspect_after misses)--> SUSPECTED --(evict_after)--> DEAD

Reaching DEAD triggers :meth:`DistributedVirtualMachine.evict_node`: the
member leaves the coherency protocol, its components are deregistered from
the unified namespace, and ``dvm.member.dead`` is published — which is the
event the recovery layer's failover manager listens for.

Two SWIM-style refinements make the detector scale to gossip-sized fleets:

* **Indirect probing** (``indirect_probes=k``): when a direct ping would
  push a member over the suspicion threshold, the observer first asks *k*
  random healthy members to ping the target on its behalf over the
  ``dvm-probe`` endpoint.  One ack refutes the suspicion — a slow or lossy
  observer→target path no longer triggers eviction storms; only a member no
  proxy can reach keeps accruing misses.
* **Event coalescing** (``coalesce_after``): each tick batches its
  suspicion/recovery/eviction outcomes.  Below the threshold the familiar
  per-member events are published (back compatible); at or above it one
  batched event per topic carries the whole cohort — 1k simultaneous
  suspicions are one bus publication, and the evictions go through
  :meth:`DistributedVirtualMachine.evict_nodes` as one membership event.

``sample=m`` additionally bounds a tick to ``m`` members drawn from a
seeded randomized round-robin cycle (every member is still probed within
``ceil(n/m)`` ticks), so a 10k-member detector does no O(n) scan per tick.

The detector is *tick-driven* for determinism (tests and the simulated
fabric advance it explicitly); :meth:`start` registers the same ticks on a
clock's ``every`` schedule — a virtual clock for reproducible runs, a wall
clock's timer thread for deployments.
"""

from __future__ import annotations

import enum
import random

from repro.netsim.fabric import VirtualNetwork
from repro.obs import metrics as _metrics
from repro.transport.base import TransportMessage
from repro.util.clock import Clock, WallClock
from repro.util.errors import DvmError, TransportError

__all__ = [
    "NodeHealth",
    "FailureDetector",
    "PING_ENDPOINT",
    "PROBE_ENDPOINT",
    "bind_ping_endpoint",
    "bind_probe_endpoint",
]

PING_ENDPOINT = "dvm-ping"
PROBE_ENDPOINT = "dvm-probe"
_CT = "application/x-harness-ping"

_MISSES = _metrics.registry.counter("dvm.detector.misses")
_SUSPECTED = _metrics.registry.counter("dvm.detector.suspected")
_EVICTED = _metrics.registry.counter("dvm.detector.evicted")
_RECOVERED = _metrics.registry.counter("dvm.detector.recovered")
_PROBES = _metrics.registry.counter("dvm.detector.indirect_probes")
_REFUTED = _metrics.registry.counter("dvm.detector.refuted")


def bind_ping_endpoint(network: VirtualNetwork, host_name: str) -> None:
    """Expose the heartbeat endpoint on a host (idempotent)."""

    def pong(message: TransportMessage) -> TransportMessage:
        return TransportMessage(_CT, message.payload)

    host = network.host(host_name)
    host.unbind(PING_ENDPOINT)
    host.bind(PING_ENDPOINT, pong)


def bind_probe_endpoint(network: VirtualNetwork, host_name: str) -> None:
    """Expose the SWIM ping-req endpoint: ping a named target on request.

    The payload is the target's host name; the proxy pings it over its own
    fabric path and answers ``ack``/``nack`` — a different network route
    than the suspicious observer's, which is the whole point.
    """

    def probe(message: TransportMessage) -> TransportMessage:
        target = message.payload.decode("utf-8")
        try:
            network.request(
                host_name, target, PING_ENDPOINT, TransportMessage(_CT, b"ping")
            )
            return TransportMessage(_CT, b"ack")
        except TransportError:
            return TransportMessage(_CT, b"nack")

    host = network.host(host_name)
    host.unbind(PROBE_ENDPOINT)
    host.bind(PROBE_ENDPOINT, probe)


class NodeHealth(enum.Enum):
    """Detector-side view of a member's liveness."""

    ALIVE = "alive"
    SUSPECTED = "suspected"
    DEAD = "dead"


class FailureDetector:
    """Pings DVM members and evicts the ones that stop answering.

    ``suspect_after`` consecutive missed heartbeats mark a member SUSPECTED
    (``dvm.member.suspected`` published, nothing evicted yet — a suspected
    member that answers again is fully rehabilitated); ``evict_after``
    misses mark it DEAD and trigger eviction.  The *observer* defaults to
    the first enrolled node and falls over to the next alive member if the
    observer itself dies.

    ``indirect_probes=k`` enables SWIM confirmation: a member about to cross
    the suspicion threshold is first probed through ``k`` random healthy
    proxies, and one ack refutes the miss entirely.  ``sample=m`` probes
    only ``m`` members per tick (randomized round-robin, seeded).
    ``coalesce_after`` is the batching threshold: a tick producing at least
    that many suspicions/recoveries/evictions publishes one batched event
    per topic instead of per-member events.

    Once started (:meth:`start`) each round waits ``interval_s`` scaled by
    a uniformly drawn ±``jitter`` factor, so a fleet of detectors never
    phase-locks its ping bursts onto the fabric.  The jitter stream is
    seeded (``seed``) and therefore reproducible: the same seed yields the
    exact same firing times.
    """

    def __init__(
        self,
        dvm,
        observer: str | None = None,
        suspect_after: int = 2,
        evict_after: int = 3,
        interval_s: float = 0.5,
        jitter: float = 0.1,
        seed: int | None = None,
        indirect_probes: int = 0,
        sample: int | None = None,
        coalesce_after: int = 8,
    ):
        if suspect_after < 1 or evict_after < suspect_after:
            raise DvmError("need 1 <= suspect_after <= evict_after")
        if not 0.0 <= jitter < 1.0:
            raise DvmError("need 0 <= jitter < 1")
        if indirect_probes < 0:
            raise DvmError("indirect_probes must be >= 0")
        if sample is not None and sample < 1:
            raise DvmError("sample must be >= 1 (or None for every member)")
        if coalesce_after < 1:
            raise DvmError("coalesce_after must be >= 1")
        self.dvm = dvm
        self.observer = observer
        self.suspect_after = suspect_after
        self.evict_after = evict_after
        self.interval_s = interval_s
        self.jitter = jitter
        self.indirect_probes = indirect_probes
        self.sample = sample
        self.coalesce_after = coalesce_after
        self._rng = random.Random(seed)
        self._misses: dict[str, int] = {}
        self._health: dict[str, NodeHealth] = {}
        self._probe_cycle: list[str] = []
        self._timer = None

    # -- introspection ------------------------------------------------------------

    def health(self, member: str) -> NodeHealth:
        return self._health.get(member, NodeHealth.ALIVE)

    def statuses(self) -> dict[str, NodeHealth]:
        return {m: self.health(m) for m in self.dvm.nodes()}

    def contactable(self, member: str) -> bool:
        """Whether *member* may be sent a non-heartbeat request.

        SUSPECTED members are still contacted (they may merely be slow and
        a successful call rehabilitates nothing the detector tracks), DEAD
        ones are not — the cluster metrics collector uses this to avoid
        hanging a pull on a corpse and marks the node STALE instead.
        """
        return self.health(member) is not NodeHealth.DEAD

    # -- one heartbeat round -------------------------------------------------------

    def _pick_observer(self) -> str | None:
        members = self.dvm.nodes()
        if not members:
            return None
        if self.observer in members and self.dvm.network.host(self.observer).up:
            return self.observer
        for member in members:
            if self.dvm.network.host(member).up:
                return member
        return None

    def _probe_targets(self, observer: str) -> list[str]:
        """The members to ping this tick: all of them, or a ``sample`` drawn
        from a seeded randomized round-robin cycle (full coverage every
        ``ceil(n/sample)`` ticks, no O(n) scan per tick)."""
        members = [m for m in self.dvm.nodes() if m != observer]
        if self.sample is None or self.sample >= len(members):
            return members
        current = set(members)
        cycle = [m for m in self._probe_cycle if m in current]
        picked: list[str] = []
        while len(picked) < self.sample:
            if not cycle:
                cycle = members[:]
                self._rng.shuffle(cycle)
            candidate = cycle.pop()
            if candidate not in picked:
                picked.append(candidate)
        self._probe_cycle = cycle
        return picked

    def tick(self) -> list[str]:
        """One heartbeat round; returns the members evicted this round.

        Outcomes are gathered over the whole round and published coalesced:
        fewer than ``coalesce_after`` per topic keeps the per-member events,
        at or above it one batched event carries the cohort and evictions go
        through :meth:`~DistributedVirtualMachine.evict_nodes` as a single
        membership change.
        """
        observer = self._pick_observer()
        if observer is None:
            return []
        suspected: list[dict] = []
        recovered: list[str] = []
        dead: list[str] = []
        for member in self._probe_targets(observer):
            alive = self._ping(observer, member)
            if (
                not alive
                and self.indirect_probes
                and self._misses.get(member, 0) + 1 >= self.suspect_after
            ):
                # SWIM: before suspecting, ask k proxies to try their path
                alive = self._indirectly_reachable(observer, member)
            if alive:
                self._misses.pop(member, None)
                # full rehabilitation: a suspected member that answers, or a
                # previously-evicted one that re-enrolled, is ALIVE again
                if self._health.get(member, NodeHealth.ALIVE) is not NodeHealth.ALIVE:
                    self._health[member] = NodeHealth.ALIVE
                    _RECOVERED.inc()
                    recovered.append(member)
                continue
            misses = self._misses.get(member, 0) + 1
            self._misses[member] = misses
            _MISSES.inc()
            if misses >= self.evict_after:
                self._health[member] = NodeHealth.DEAD
                _EVICTED.inc()
                self._misses.pop(member, None)
                dead.append(member)
            elif misses >= self.suspect_after and (
                self._health.get(member) is not NodeHealth.SUSPECTED
            ):
                self._health[member] = NodeHealth.SUSPECTED
                _SUSPECTED.inc()
                suspected.append({"node": member, "misses": misses})
        self._publish_coalesced("dvm.member.suspected", suspected)
        self._publish_coalesced("dvm.member.recovered", recovered)
        if dead:
            if len(dead) >= self.coalesce_after:
                self.dvm.evict_nodes(dead, by=observer)
            else:
                for member in dead:
                    self.dvm.evict_node(member, by=observer)
        return dead

    def _publish_coalesced(self, topic: str, items: list) -> None:
        if not items:
            return
        if len(items) < self.coalesce_after:
            for item in items:
                self.dvm.events.publish(topic, item, source=self.dvm.name)
        else:
            self.dvm.events.publish(
                topic,
                {"nodes": items, "count": len(items), "coalesced": True},
                source=self.dvm.name,
            )

    def _indirectly_reachable(self, observer: str, member: str) -> bool:
        """Ask up to ``indirect_probes`` healthy proxies to ping *member*."""
        candidates = [
            m
            for m in self.dvm.nodes()
            if m != observer
            and m != member
            and self._health.get(m, NodeHealth.ALIVE) is NodeHealth.ALIVE
        ]
        if not candidates:
            return False
        proxies = self._rng.sample(
            candidates, min(self.indirect_probes, len(candidates))
        )
        for proxy in proxies:
            _PROBES.inc()
            try:
                reply = self.dvm.network.request(
                    observer,
                    proxy,
                    PROBE_ENDPOINT,
                    TransportMessage(_CT, member.encode("utf-8")),
                )
            except TransportError:
                continue
            if reply.payload == b"ack":
                _REFUTED.inc()
                return True
        return False

    def _ping(self, observer: str, member: str) -> bool:
        try:
            self.dvm.network.request(
                observer, member, PING_ENDPOINT, TransportMessage(_CT, b"ping")
            )
            return True
        except TransportError:
            # HostDownError, MessageDroppedError, unbound endpoint: all count
            # as a missed heartbeat — the accrual threshold absorbs lossy
            # links, so a single dropped ping never evicts anybody.
            return False

    # -- periodic mode -------------------------------------------------------------

    def start(self, clock: Clock | None = None) -> None:
        """Tick every ``interval_s`` ± ``jitter`` (seeded) on *clock*: by
        default the DVM's clock, else a wall clock of the detector's own."""
        if self._timer is None:
            clock = clock or self.dvm.clock or WallClock()
            self._timer = clock.every(
                self.interval_s,
                self.tick,
                jitter=self.jitter,
                rng=self._rng,
                name="dvm.detector.pump_errors",
            )

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

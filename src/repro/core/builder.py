"""HarnessDvm: the assembled Harness II system (DVM + kernels + plugins).

Figure 1's construction sequence — "DVM's are created by users and
'constructed' by first adding nodes … and subsequently deploying plugins on
each node.  Some plugins may be node specific while others are replicated"
— maps to :meth:`HarnessDvm.add_node`, :meth:`load_plugin` (node-specific)
and :meth:`load_plugin_everywhere` (replicated baseline).
"""

from __future__ import annotations

from functools import partial
from inspect import signature

from repro.container.component import ComponentHandle
from repro.core.kernel import HarnessKernel
from repro.core.plugin import Plugin
from repro.dvm.gossip import GossipState, NeighborhoodGossipState
from repro.dvm.machine import DistributedVirtualMachine
from repro.dvm.state import (
    DecentralizedState,
    DvmStateProtocol,
    FullSynchronyState,
    NeighborhoodState,
)
from repro.netsim.fabric import VirtualNetwork
from repro.obs.metrics import registry
from repro.util.clock import WallClock
from repro.util.errors import DvmError
from repro.util.events import EventBus

__all__ = ["HarnessDvm", "COHERENCY_SCHEMES"]

#: scheme name → protocol class; HarnessDvm passes each the knobs it takes
COHERENCY_SCHEMES: dict[str, type[DvmStateProtocol]] = {
    "full-synchrony": FullSynchronyState,
    "decentralized": DecentralizedState,
    "neighborhood": NeighborhoodState,
    "gossip": GossipState,
    "neighborhood-gossip": NeighborhoodGossipState,
}


class HarnessDvm:
    """A complete Harness II deployment: one kernel per node over a DVM.

    ``coherency`` selects the DVM-enabling component by name; applications
    never see the difference (experiment C7).
    """

    def __init__(
        self,
        name: str,
        network: VirtualNetwork,
        coherency: str = "full-synchrony",
        neighborhood_radius: int = 2,
        gossip_fanout: int = 2,
        gossip_interval_s: float = 0.25,
        gossip_seed: int = 0,
        events: EventBus | None = None,
        clock=None,
        lookup_cache_ttl_s: float = 2.0,
    ):
        if coherency not in COHERENCY_SCHEMES:
            raise DvmError(
                f"unknown coherency scheme {coherency!r} "
                f"(available: {sorted(COHERENCY_SCHEMES)})"
            )
        scheme = COHERENCY_SCHEMES[coherency]
        knobs = {
            "radius": neighborhood_radius,
            "fanout": gossip_fanout,
            "interval_s": gossip_interval_s,
            "seed": gossip_seed,
        }
        takes = signature(scheme).parameters
        # a class forwarding **kwargs to its base takes every knob
        if not any(p.kind is p.VAR_KEYWORD for p in takes.values()):
            knobs = {k: v for k, v in knobs.items() if k in takes}
        self.name = name
        self.network = network
        self.events = events or EventBus()
        self.dvm = DistributedVirtualMachine(
            name,
            network,
            partial(scheme, **knobs),
            events=self.events,
            clock=clock,
            lookup_cache_ttl_s=lookup_cache_ttl_s,
        )
        # periodic work (heartbeats, checkpoints, gossip rounds) registers on
        # the injected clock, or on one wall clock (one timer thread) for
        # the whole deployment
        self.clock = clock if clock is not None else WallClock()
        self.kernels: dict[str, HarnessKernel] = {}
        self.detector = None  # set by enable_self_healing
        self.failover = None
        # an evicted node's kernel must not linger in the kernel table
        self._death_sub = self.events.subscribe("dvm.member.dead", self._on_member_dead)
        self._gossip_sub = None
        protocol = self.dvm.protocol
        if isinstance(protocol, GossipState):
            # epidemic schemes keep reads local; control-plane publications
            # (deploy/publish/move) are rare enough to pay an anti-entropy
            # sweep so a fresh record is visible from any node immediately
            self._gossip_sub = self.events.subscribe(
                "dvm.component.deployed", lambda event: protocol.quiesce()
            )

    # -- construction -----------------------------------------------------------

    def add_node(self, host_name: str) -> HarnessKernel:
        """Enroll a host: boot a kernel there and join the DVM."""
        if host_name in self.kernels:
            raise DvmError(f"node {host_name!r} already has a kernel")
        kernel = HarnessKernel(host_name, network=self.network, events=self.events)
        self.kernels[host_name] = kernel
        self.dvm.add_node(host_name, container=kernel.container)
        return kernel

    def add_nodes(self, *host_names: str) -> list[HarnessKernel]:
        return [self.add_node(h) for h in host_names]

    def kernel(self, host_name: str) -> HarnessKernel:
        try:
            return self.kernels[host_name]
        except KeyError:
            raise DvmError(f"no kernel on {host_name!r}") from None

    # -- plugins --------------------------------------------------------------------

    def load_plugin(self, host_name: str, plugin: Plugin | type | str) -> Plugin:
        """Load a node-specific plugin."""
        return self.kernel(host_name).load_plugin(plugin)

    def load_plugin_everywhere(self, plugin: type | str) -> dict[str, Plugin]:
        """Load a replicated plugin on every enrolled node (the 'consistent
        baseline for common parallel processing applications')."""
        return {host: kernel.load_plugin(plugin) for host, kernel in self.kernels.items()}

    # -- component operations (delegate to the DVM) --------------------------------------

    def deploy(self, host_name: str, component, **kwargs) -> ComponentHandle:
        return self.dvm.deploy(host_name, component, **kwargs)

    def undeploy(self, host_name: str, service_name: str) -> None:
        self.dvm.undeploy(host_name, service_name)

    def lookup(self, from_node: str, service_name: str):
        return self.dvm.lookup(from_node, service_name)

    def stub(self, from_node: str, service_name: str, prefer=None, policy=None, resilient=False):
        return self.dvm.stub(
            from_node, service_name, prefer=prefer, policy=policy, resilient=resilient
        )

    def status(self, from_node: str) -> dict:
        status = self.dvm.status(from_node)
        status["plugins"] = {
            host: kernel.plugins() for host, kernel in self.kernels.items()
        }
        return status

    def metrics_snapshot(self, prefix: str = "") -> dict:
        return self.dvm.metrics_snapshot(prefix)

    def move(self, service_name: str, to_node: str) -> ComponentHandle:
        from repro.core.migration import move_component

        return move_component(self.dvm, service_name, to_node)

    # -- self-healing -----------------------------------------------------------------

    def enable_self_healing(
        self,
        observer: str | None = None,
        suspect_after: int = 2,
        evict_after: int = 3,
        heartbeat_interval_s: float = 0.5,
        checkpoint_interval_s: float = 0.5,
        checkpoint_home: str | None = None,
        indirect_probes: int = 0,
        sample: int | None = None,
        coalesce_after: int = 8,
        start_threads: bool = False,
    ):
        """Attach a failure detector and failover manager to this deployment.

        With ``start_threads=False`` (the default, and what tests use) the
        caller drives ``detector.tick()`` / ``failover.checkpoint()``
        explicitly — fully deterministic.  ``start_threads=True`` registers
        both at their configured intervals on :attr:`clock`: exact firings
        inside ``advance`` on a virtual clock, one timer thread for the
        whole deployment on the wall clock.

        Returns ``(detector, failover)``.
        """
        from repro.dvm.failure import FailureDetector
        from repro.recovery.failover import FailoverManager

        if self.detector is None:
            self.detector = FailureDetector(
                self.dvm,
                observer=observer,
                suspect_after=suspect_after,
                evict_after=evict_after,
                interval_s=heartbeat_interval_s,
                indirect_probes=indirect_probes,
                sample=sample,
                coalesce_after=coalesce_after,
            )
        if self.failover is None:
            self.failover = FailoverManager(
                self.dvm, home=checkpoint_home, interval_s=checkpoint_interval_s
            )
        if start_threads:
            self.failover.start(self.clock)
            self.detector.start(self.clock)
        return self.detector, self.failover

    def _on_member_dead(self, event) -> None:
        payload = event.payload or {}
        nodes = payload.get("nodes")  # coalesced cohort eviction
        if nodes is None:
            nodes = [payload.get("node", "")]
        for name in nodes:
            if isinstance(name, dict):
                name = name.get("node", "")
            kernel = self.kernels.pop(name, None)
            if kernel is not None:
                try:
                    kernel.shutdown()  # idempotent; eviction closed the container already
                except Exception as exc:
                    registry.count_error("core.builder.shutdown_errors", exc)

    # -- teardown ----------------------------------------------------------------------

    def close(self) -> None:
        if self.detector is not None:
            self.detector.stop()
        if self.failover is not None:
            self.failover.close()
        if isinstance(self.dvm.protocol, GossipState):
            self.dvm.protocol.stop()  # its pump, if started on self.clock
        for kernel in self.kernels.values():
            kernel.shutdown()
        self.kernels.clear()
        self._death_sub.cancel()
        if self._gossip_sub is not None:
            self._gossip_sub.cancel()
        # kernel.shutdown() already closed each container; the DVM only
        # drops its node table here.
        self.dvm._nodes.clear()

    def __enter__(self) -> "HarnessDvm":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

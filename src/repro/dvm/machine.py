"""The Distributed Virtual Machine — Figure 6's distributed component container.

"It supplies a unified name space, status query, lookup service and
management point for a set of component containers.  In effect, that level
of abstraction introduces the notion of a distributed global state."

The DVM state (membership + the component directory) lives in a pluggable
:class:`~repro.dvm.state.DvmStateProtocol`; the DVM itself only defines the
API, exactly as Section 6 prescribes ("the Harness II framework defines
only the DVM API and does not mandate any particular solution to maintain
global state coherency").  Applications written against this class run
unchanged on any coherency scheme — experiment C7.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from repro.bindings.context import ClientContext
from repro.bindings.factory import DynamicStubFactory
from repro.bindings.policy import InvocationPolicy
from repro.bindings.resilient import ResilientStub
from repro.bindings.stubs import ServiceStub
from repro.container.component import ComponentHandle
from repro.container.container import ComponentContainer, LightweightContainer
from repro.dvm.failure import (
    PING_ENDPOINT,
    PROBE_ENDPOINT,
    bind_ping_endpoint,
    bind_probe_endpoint,
)
from repro.dvm.state import DvmStateProtocol
from repro.netsim.fabric import VirtualNetwork
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.util.clock import Clock
from repro.util.errors import DvmError, MembershipError, ServiceNotFoundError
from repro.util.events import EventBus
from repro.util.ids import HarnessName
from repro.util.ttl_cache import TtlCache
from repro.wsdl.io import document_from_string
from repro.wsdl.model import WsdlDocument

__all__ = ["DvmNode", "DistributedVirtualMachine"]

_MEMBER_PREFIX = "member/"
_COMPONENT_PREFIX = "component/"

_LOOKUP_HITS = _metrics.registry.counter("dvm.lookup.hits")
_LOOKUP_MISSES = _metrics.registry.counter("dvm.lookup.misses")
_LOOKUP_PARSES = _metrics.registry.counter("dvm.lookup.parses")

#: parsed documents the content-keyed memo under ``lookup`` keeps
_PARSE_MEMO_SIZE = 256


@lru_cache(maxsize=_PARSE_MEMO_SIZE)
def _parse_wsdl(text: str) -> WsdlDocument:
    """Parse a component record's WSDL text, once per distinct text.

    The key is the text itself, so an entry cannot be stale: a republished
    or redeployed component with other text parses afresh, and what the TTL
    cache above this decides (when to ask the state protocol again) is not
    touched.  ``WsdlDocument`` is frozen, so nodes share one parsed document
    the way the TTL cache already shares it between calls.
    """
    _LOOKUP_PARSES.inc()
    return document_from_string(text)


def _record(host_name: str, handle: ComponentHandle) -> dict:
    """The component record every node reads: owner, WSDL text, recovery flags."""
    return {
        "node": host_name,
        "wsdl": handle.document._compact_text,
        "restartable": bool(handle.metadata.get("restartable")),
        "bindings": list(handle.metadata.get("bindings", ())),
    }


@dataclass
class DvmNode:
    """One enrolled node: a virtual host plus its component container."""

    name: str
    container: ComponentContainer

    def close(self) -> None:
        self.container.close()


class DistributedVirtualMachine:
    """A named DVM assembling containers over a coherency protocol.

    Construction mirrors Figure 1: create the DVM, ``add_node`` for each
    machine, then ``deploy`` plugins/components on nodes.  The DVM name
    roots a :class:`~repro.util.HarnessName` namespace; component names are
    ``/<dvm>/<node>/<service>``.
    """

    def __init__(
        self,
        name: str,
        network: VirtualNetwork,
        protocol_factory: Callable[[VirtualNetwork], DvmStateProtocol],
        events: EventBus | None = None,
        lookup_cache_ttl_s: float = 2.0,
        clock: Clock | None = None,
    ):
        self.name = name
        self.network = network
        self.events = events or EventBus()
        self.clock = clock  # threaded through to stub policies (None = wall clock)
        self.protocol = protocol_factory(network)
        if self.protocol.members:
            raise DvmError("protocol_factory must return a protocol with no members")
        self.root = HarnessName.root() / name
        self._lock = threading.RLock()
        self._nodes: dict[str, DvmNode] = {}
        # Registry-lookup fast path: successful lookups (owner + parsed WSDL)
        # are cached for a short TTL so a hot stub does not re-fetch and
        # re-parse per call.  Any membership or component event flushes the
        # cache — the TTL only bounds staleness for changes that produce no
        # event.  ``lookup_cache_ttl_s=0`` disables caching entirely.  On a
        # virtual clock the cache ages in simulated time, keeping scenario
        # runs free of wall-clock nondeterminism.
        if clock is not None:
            self._lookup_cache = TtlCache(lookup_cache_ttl_s, clock=clock.now)
        else:
            self._lookup_cache = TtlCache(lookup_cache_ttl_s)
        self.events.subscribe("dvm.member", self._on_topology_event)
        self.events.subscribe("dvm.component", self._on_topology_event)
        # gossip-family protocols announce convergence transitions on the bus
        if hasattr(self.protocol, "bind_bus"):
            self.protocol.bind_bus(self.events, source=name)

    # -- membership -------------------------------------------------------------

    def add_node(self, host_name: str, container: ComponentContainer | None = None) -> DvmNode:
        """Enroll a host (it must exist in the network fabric)."""
        self.network.host(host_name)  # existence check
        with self._lock:
            if host_name in self._nodes:
                raise MembershipError(f"node {host_name!r} already in DVM {self.name!r}")
            if container is None:
                container = LightweightContainer(
                    name=f"{self.name}-{host_name}", host=host_name,
                    network=self.network,
                )
            node = DvmNode(host_name, container)
            self._nodes[host_name] = node
        bind_ping_endpoint(self.network, host_name)  # heartbeat target
        bind_probe_endpoint(self.network, host_name)  # SWIM ping-req proxy
        self.protocol.add_member(host_name)
        self.protocol.update(host_name, f"{_MEMBER_PREFIX}{host_name}", "joined")
        self.events.publish("dvm.member.joined", host_name, source=self.name)
        return node

    def remove_node(self, host_name: str) -> None:
        """Withdraw a node; its components leave the DVM namespace."""
        with self._lock:
            node = self._nodes.pop(host_name, None)
        if node is None:
            raise MembershipError(f"node {host_name!r} not in DVM {self.name!r}")
        for handle in node.container.components():
            self._forget_component(host_name, handle.name)
        self.protocol.update(host_name, f"{_MEMBER_PREFIX}{host_name}", "left")
        self.protocol.remove_member(host_name)
        node.close()
        self.events.publish("dvm.member.left", host_name, source=self.name)

    def evict_node(self, host_name: str, by: str) -> list[dict]:
        """Forcibly expel a *dead* node, acting as the surviving node *by*.

        Unlike :meth:`remove_node` — a cooperative withdrawal initiated by
        the leaving node itself — eviction is initiated by a witness: the
        dead node cannot originate state updates, so everything here is
        written with ``by`` as the origin, and the node leaves the coherency
        protocol *first* so synchronous schemes stop pushing to it.

        Returns the lost components' records (name, wsdl, restartable,
        bindings) — the failover manager's work list, also carried on the
        ``dvm.member.dead`` event.
        """
        with self._lock:
            node = self._nodes.pop(host_name, None)
        if node is None:
            raise MembershipError(f"node {host_name!r} not in DVM {self.name!r}")
        if by == host_name or by not in self.nodes():
            raise MembershipError(f"eviction witness {by!r} must be a surviving member")
        self.protocol.remove_member(host_name)
        lost = self._reap_node(host_name, node, by)
        self.events.publish(
            "dvm.member.dead",
            {"node": host_name, "by": by, "components": lost},
            source=self.name,
        )
        return lost

    def evict_nodes(self, host_names: list[str], by: str) -> list[dict]:
        """Evict a whole cohort of dead nodes as one membership change.

        Semantically ``evict_node`` for each name, but the bus sees a single
        coalesced ``dvm.member.dead`` event — payload ``{"nodes": [...],
        "by": ..., "components": [...], "count": N}`` with every lost
        component record carrying its own ``node`` — so a 1k-member outage
        is one publication, not 1k.  The failure detector switches to this
        path above its ``coalesce_after`` threshold.
        """
        names = list(dict.fromkeys(host_names))
        if not names:
            return []
        popped: list[tuple[str, DvmNode]] = []
        with self._lock:
            missing = [n for n in names if n not in self._nodes]
            if missing:
                raise MembershipError(
                    f"node(s) {missing!r} not in DVM {self.name!r}"
                )
            for name in names:
                popped.append((name, self._nodes.pop(name)))
        if by in names or by not in self.nodes():
            raise MembershipError(f"eviction witness {by!r} must be a surviving member")
        # leave the coherency protocol first, all of them, so synchronous
        # schemes stop pushing to any member of the dead cohort
        for name, _node in popped:
            self.protocol.remove_member(name)
        lost: list[dict] = []
        for name, node in popped:
            lost.extend(self._reap_node(name, node, by))
        self.events.publish(
            "dvm.member.dead",
            {"nodes": names, "by": by, "components": lost, "count": len(names)},
            source=self.name,
        )
        return lost

    def _reap_node(self, host_name: str, node: DvmNode, by: str) -> list[dict]:
        """Deregister a popped node's components and mark it dead; the
        caller has already removed it from the coherency protocol."""
        lost: list[dict] = []
        for handle in node.container.components():
            record = self.protocol.get(by, f"{_COMPONENT_PREFIX}{handle.name}")
            # a copy: the stored value is shared between replicas, never written
            lost.append(dict(record) if record else _record(host_name, handle))
            lost[-1].setdefault("name", handle.name)
            lost[-1].setdefault("node", host_name)
            self.protocol.update(by, f"{_COMPONENT_PREFIX}{handle.name}", None)
            self.events.publish(
                "dvm.component.lost",
                {"service": handle.name, "node": host_name},
                source=self.name,
            )
        self.protocol.update(by, f"{_MEMBER_PREFIX}{host_name}", "dead")
        for endpoint in (PING_ENDPOINT, PROBE_ENDPOINT):
            try:
                self.network.host(host_name).unbind(endpoint)
            except Exception:
                pass
        node.close()
        return lost

    def node(self, host_name: str) -> DvmNode:
        with self._lock:
            node = self._nodes.get(host_name)
        if node is None:
            raise MembershipError(f"node {host_name!r} not in DVM {self.name!r}")
        return node

    def nodes(self) -> list[str]:
        with self._lock:
            return sorted(self._nodes)

    def members_seen_by(self, node: str) -> list[str]:
        """Membership as observed from *node* through the state protocol."""
        snapshot = self.protocol.snapshot(node, prefix=_MEMBER_PREFIX)
        return sorted(
            key[len(_MEMBER_PREFIX):]
            for key, value in snapshot.items()
            if value == "joined"
        )

    # -- deployment / unified namespace ----------------------------------------------

    def deploy(
        self,
        host_name: str,
        component: type | object,
        name: str | None = None,
        bindings: tuple[str, ...] = ("local-instance", "sim"),
        restartable: bool = False,
        **kwargs,
    ) -> ComponentHandle:
        """Deploy a component on a node and publish it DVM-wide.

        The WSDL text travels through the state protocol, so its cost is
        charged according to the coherency scheme in force.

        ``restartable=True`` marks the deployment for automatic failover:
        the recovery layer checkpoints the instance and, should the hosting
        node die, revives it on a surviving node (see
        :mod:`repro.recovery`).  The flag travels in the component record so
        any node can drive the recovery.
        """
        node = self.node(host_name)
        handle = node.container.deploy(component, name=name, bindings=bindings, **kwargs)
        handle.metadata["restartable"] = restartable
        handle.metadata["bindings"] = tuple(bindings)
        self._announce(host_name, handle)
        return handle

    def publish(self, host_name: str, service_name: str) -> None:
        """Announce a component already deployed in a node's container.

        Supports the staged-publication flow of Section 6: deploy privately
        into the container, validate, then publish into the DVM namespace.
        """
        node = self.node(host_name)
        self._announce(host_name, node.container.component_named(service_name))

    def _announce(self, host_name: str, handle: ComponentHandle) -> None:
        """Write a component's record into the DVM state and tell the bus."""
        self.protocol.update(
            host_name, f"{_COMPONENT_PREFIX}{handle.name}", _record(host_name, handle)
        )
        self.events.publish("dvm.component.deployed", handle, source=self.name)

    def undeploy(self, host_name: str, service_name: str) -> None:
        node = self.node(host_name)
        handle = node.container.component_named(service_name)
        node.container.undeploy(handle.instance_id)
        self._forget_component(host_name, service_name)

    def _forget_component(self, host_name: str, service_name: str) -> None:
        self.protocol.update(host_name, f"{_COMPONENT_PREFIX}{service_name}", None)
        # undeploy publishes no event, so the lookup cache is flushed here
        self._lookup_cache.invalidate()

    def _on_topology_event(self, event) -> None:
        self._lookup_cache.invalidate()

    def lookup(self, from_node: str, service_name: str) -> tuple[str, WsdlDocument]:
        """Locate a component anywhere in the DVM: (owning node, WSDL)."""
        key = (from_node, service_name)
        hit, cached = self._lookup_cache.get(key)
        if hit:
            _LOOKUP_HITS.inc()
            return cached
        _LOOKUP_MISSES.inc()
        record = self.protocol.get(from_node, f"{_COMPONENT_PREFIX}{service_name}")
        if not record:
            # misses are never cached: a component published a moment later
            # must become visible immediately (staged publication)
            raise ServiceNotFoundError(
                f"no component {service_name!r} visible from {from_node} in DVM {self.name!r}"
            )
        result = (record["node"], _parse_wsdl(record["wsdl"]))
        self._lookup_cache.put(key, result)
        return result

    def stub(
        self,
        from_node: str,
        service_name: str,
        prefer: tuple[str, ...] | None = None,
        policy: InvocationPolicy | None = None,
        resilient: bool = False,
    ) -> ServiceStub:
        """A ready-to-call stub for a component, local bindings preferred.

        A caller on the owning node gets the local-instance path; remote
        callers fall back per the factory's preference order.

        ``policy`` attaches an invocation policy (retry/backoff/breaker) to
        network stubs.  ``resilient=True`` wraps the stub so that endpoint
        death triggers a fresh lookup through the DVM namespace — after a
        failover the same stub transparently reaches the component's new
        home.
        """
        if resilient:
            return ResilientStub(
                lambda: self.stub(from_node, service_name, prefer=prefer, policy=policy),
                clock=self.clock,
                events=self.events,
            )
        owner, document = self.lookup(from_node, service_name)
        container_uri = self.node(
            owner if owner == from_node else from_node
        ).container.uri
        context = ClientContext(
            container_uri=container_uri, host=from_node, network=self.network
        )
        factory = DynamicStubFactory(
            context, policy=policy, events=self.events, clock=self.clock
        )
        return factory.create(document, prefer=prefer)

    def component_index(self, from_node: str) -> dict[str, str]:
        """Unified namespace view: service name → owning node."""
        snapshot = self.protocol.snapshot(from_node, prefix=_COMPONENT_PREFIX)
        return {
            key[len(_COMPONENT_PREFIX):]: value["node"]
            for key, value in snapshot.items()
            if value
        }

    def qualified_name(self, host_name: str, service_name: str) -> HarnessName:
        """The component's name in the global Harness namespace."""
        return self.root / host_name / service_name

    # -- status query -------------------------------------------------------------------

    def status(self, from_node: str) -> dict:
        """The DVM status as observed from *from_node*."""
        return {
            "dvm": self.name,
            "scheme": self.protocol.scheme,
            "members": self.members_seen_by(from_node),
            "components": self.component_index(from_node),
        }

    def metrics_snapshot(self, prefix: str = "") -> dict:
        """The DVM's observability state: registry snapshot plus DVM-level
        cache/bus statistics.  Exposed over RPC by ``MetricsService`` (the
        XDR codec carries the nested dicts natively) and by the console's
        ``metrics`` command.
        """
        return {
            "dvm": self.name,
            "scheme": self.protocol.scheme,
            "nodes": self.nodes(),
            "tracing": _trace.ENABLED,
            "lookup_cache": {
                "hits": self._lookup_cache.hits,
                "misses": self._lookup_cache.misses,
            },
            "events": {
                "published": self.events.published,
                "delivered": self.events.delivered,
            },
            "metrics": _metrics.registry.snapshot(prefix),
        }

    def close(self) -> None:
        """Tear the whole DVM down."""
        with self._lock:
            nodes = list(self._nodes.values())
            self._nodes.clear()
        for node in nodes:
            node.close()

    def __enter__(self) -> "DistributedVirtualMachine":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

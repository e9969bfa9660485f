"""Consistent-hash sharded lookup: the registry leg of the C10 crossover.

Section 5 frames discovery as a spectrum between one centralized registry
(single point of failure, serialization bottleneck) and full flooding
(every query is O(n) messages).  At gossip-fleet scale neither end works:
the central host saturates, and flooding 10k hosts per lookup is absurd.
:class:`ShardedRegistry` is the scale-out point on that spectrum —

* **Placement** is a consistent-hash ring (:class:`HashRing`): blake2b
  positions ``vnodes`` virtual points per host on a 64-bit circle, and a
  service name's shard is the first ``replication`` distinct hosts
  clockwise of its hash.  Adding or removing one host remaps only ~1/n of
  the keyspace — :meth:`rebalance` then moves exactly those entries.
* **Registration** writes the WSDL to all R owners (each leg charged to
  the fabric), so any single shard host can die without losing the name.
* **By-name lookup** asks the owners in ring order and returns the first
  answer — one round trip in the common case, a replica fallback when the
  primary is down.  Exhausting reachable owners raises a *typed*
  :class:`~repro.util.errors.ServiceNotFoundError`; a fully dark shard
  (all R owners down) raises :class:`~repro.util.errors.RegistryError`
  naming the dead replicas.  Callers never hang and never see a KeyError —
  the PR 5 error-taxonomy contract.

Expression queries (:meth:`discover`) still scatter to every host — an
XPath match can live anywhere — so the scheme's sweet spot is exactly what
the DVM needs: cheap point lookups of well-known component names.
"""

from __future__ import annotations

import bisect
import hashlib

from repro.netsim.fabric import _UNREACHABLE, VirtualNetwork
from repro.obs import metrics as _metrics
from repro.registry.distributed import _NAME_CT, DistributedLookup, _LookupNode
from repro.transport.base import TransportMessage
from repro.util.errors import RegistryError, ServiceNotFoundError
from repro.wsdl.io import document_from_string
from repro.wsdl.model import WsdlDocument

__all__ = ["HashRing", "ShardedRegistry"]

_LOOKUPS = _metrics.registry.counter("registry.shard.lookups")
_FALLBACKS = _metrics.registry.counter("registry.shard.replica_fallbacks")
_REBALANCED = _metrics.registry.counter("registry.shard.rebalanced")


def _point(data: str) -> int:
    """A position on the 64-bit hash circle (blake2b, stable across runs)."""
    return int.from_bytes(
        hashlib.blake2b(data.encode("utf-8"), digest_size=8).digest(), "big"
    )


class HashRing:
    """Consistent hashing with virtual nodes.

    Each host owns ``vnodes`` points on the circle; a key's owners are the
    first *r* distinct hosts clockwise of its hash.  With ~64 vnodes the
    per-host load imbalance stays within a few percent, and membership
    changes remap only the arcs adjacent to the changed host's points.
    """

    def __init__(self, hosts=(), vnodes: int = 64):
        if vnodes < 1:
            raise RegistryError("vnodes must be >= 1")
        self.vnodes = vnodes
        self._points: list[int] = []  # sorted hash positions
        self._owners: list[str] = []  # parallel: host at each position
        self._hosts: set[str] = set()
        # batch construction: hash everything, sort once — O(V log V) where
        # the incremental add() path would pay O(V^2) list inserts at fleet
        # scale (10k hosts x 64 vnodes)
        pairs: list[tuple[int, str]] = []
        for host in dict.fromkeys(hosts):
            self._hosts.add(host)
            pairs.extend(
                (_point(f"{host}#{v}"), host) for v in range(self.vnodes)
            )
        pairs.sort()
        self._points = [point for point, _ in pairs]
        self._owners = [host for _, host in pairs]

    def add(self, host: str) -> None:
        if host in self._hosts:
            return
        self._hosts.add(host)
        for v in range(self.vnodes):
            point = _point(f"{host}#{v}")
            index = bisect.bisect(self._points, point)
            self._points.insert(index, point)
            self._owners.insert(index, host)

    def remove(self, host: str) -> None:
        if host not in self._hosts:
            return
        self._hosts.discard(host)
        keep = [i for i, owner in enumerate(self._owners) if owner != host]
        self._points = [self._points[i] for i in keep]
        self._owners = [self._owners[i] for i in keep]

    def hosts(self) -> set[str]:
        return set(self._hosts)

    def owners(self, key: str, r: int = 1) -> list[str]:
        """The first *r* distinct hosts clockwise of ``hash(key)``."""
        if not self._points:
            raise RegistryError("hash ring is empty")
        r = min(r, len(self._hosts))
        start = bisect.bisect(self._points, _point(key)) % len(self._points)
        found: list[str] = []
        for step in range(len(self._points)):
            owner = self._owners[(start + step) % len(self._points)]
            if owner not in found:
                found.append(owner)
                if len(found) == r:
                    break
        return found

    def owner(self, key: str) -> str:
        return self.owners(key, 1)[0]

    def __len__(self) -> int:
        return len(self._hosts)


class ShardedRegistry(DistributedLookup):
    """R-way replicated, consistent-hash placed service registry."""

    def __init__(self, network: VirtualNetwork, replication: int = 2, vnodes: int = 64):
        if replication < 1:
            raise RegistryError("replication factor must be >= 1")
        super().__init__(network)
        self.replication = replication
        self.ring = HashRing(self.nodes, vnodes=vnodes)

    # -- placement ---------------------------------------------------------------

    def owners(self, service_name: str) -> list[str]:
        """The ``replication`` hosts responsible for *service_name*."""
        return self.ring.owners(service_name, self.replication)

    # -- the scheme --------------------------------------------------------------

    def register(self, host_name: str, document: WsdlDocument) -> None:
        """Write the WSDL to every shard owner (local leg free, rest charged)."""
        self._node(host_name)  # typed fault for unknown hosts
        placed = 0
        down: list[str] = []
        for owner in self.owners(document.name):
            if owner == host_name:
                self._node(owner).registry.register(document)
                placed += 1
                continue
            try:
                self._send_wsdl(host_name, owner, document)
                placed += 1
            except _UNREACHABLE:
                down.append(owner)
        if placed == 0:
            raise RegistryError(
                f"no shard owner reachable for {document.name!r} (down: {down})"
            )

    def lookup_name(self, host_name: str, service_name: str) -> WsdlDocument:
        """Point lookup: ask the owners in ring order, first answer wins.

        An unreachable owner falls through to the next replica.  All owners
        reachable but none holding the name is a :class:`ServiceNotFoundError`;
        every owner unreachable is a :class:`RegistryError` naming the dark
        shard.
        """
        self._node(host_name)
        _LOOKUPS.inc()
        owners = self.owners(service_name)
        down: list[str] = []
        for attempt, owner in enumerate(owners):
            if owner == host_name:
                try:
                    entry = self._node(owner).registry.lookup_name(service_name)
                except ServiceNotFoundError:
                    continue
                if attempt:
                    _FALLBACKS.inc()
                return entry.document
            try:
                response = self.network.request(
                    host_name,
                    owner,
                    self.endpoint,
                    TransportMessage(_NAME_CT, service_name.encode("utf-8")),
                )
            except _UNREACHABLE:
                down.append(owner)
                continue
            if response.payload:
                if attempt:
                    _FALLBACKS.inc()
                return document_from_string(response.payload)
        if len(down) == len(owners):
            raise RegistryError(
                f"shard for {service_name!r} is dark: all {len(owners)} "
                f"replica(s) down ({down})"
            )
        raise ServiceNotFoundError(
            f"no service {service_name!r} on shard {owners} "
            f"(down: {down or 'none'})"
        )

    # -- membership and rebalancing ----------------------------------------------

    def add_host(self, host_name: str) -> int:
        """Bring a (new) fabric host into the ring; returns entries moved."""
        if host_name not in self.nodes:
            self.nodes[host_name] = _LookupNode(self, host_name)
        self.ring.add(host_name)
        return self.rebalance()

    def remove_host(self, host_name: str) -> int:
        """Take a host out of the ring (crashed or retired); its entries
        keep serving from the surviving replicas.  Returns entries copied
        while restoring the replication factor."""
        self.nodes.pop(host_name, None)
        self.ring.remove(host_name)
        return self.rebalance()

    def rebalance(self) -> int:
        """Re-place every entry per the current ring; returns copies made.

        Each transfer is charged to the fabric from the holding host to the
        new owner.  Entries a host no longer owns are dropped *after* all
        owners hold a copy — the ring never under-replicates mid-move.
        Unreachable owners are skipped; the next rebalance retries them.
        """
        moved = 0
        # copy phase: every entry to every owner that lacks it
        for host, node in list(self.nodes.items()):
            for entry in node.registry.entries():
                for owner in self.owners(entry.name):
                    if owner == host:
                        continue
                    target = self._node(owner)
                    try:
                        target.registry.lookup_name(entry.name)
                        continue  # replica already present
                    except ServiceNotFoundError:
                        pass
                    try:
                        self._send_wsdl(host, owner, entry.document)
                        moved += 1
                        _REBALANCED.inc()
                    except _UNREACHABLE:
                        continue
        # drop phase: shed entries whose shard moved away from this host
        for host, node in list(self.nodes.items()):
            for entry in node.registry.entries():
                if host not in self.owners(entry.name):
                    node.registry.unregister(entry.key)
        return moved

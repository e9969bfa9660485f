"""Distributed lookup schemes over the simulated fabric.

Section 5: "For the discovery mechanism, there is a whole range of
implementation approaches.  At one extreme, there are centralized lookup
services.  They are easy to implement and use, but they introduce a single
point of failure and a potential scalability bottleneck.  At the other
extreme, a completely decentralized approach leads to a registration phase
that is fully localized and does not involve any network traffic, whereas
the discovery phase performs an active lookup that can be expensive and
difficult to manage.  Most frameworks provide solutions that are
intermediate to these extremes."

Three schemes below realize the two extremes and one intermediate
(neighborhood replication); :mod:`repro.registry.sharded` adds a fourth.
Each scheme is two lists: the hosts a registration is written to and the
hosts a discovery asks.  Under them sit one lookup node per host and one
ask-and-merge loop (:meth:`DistributedLookup._gather`).  All exchange *real
serialized bytes* over the :class:`~repro.netsim.VirtualNetwork` so the C5
benchmark's message/byte accounting is honest.
"""

from __future__ import annotations

from repro.netsim.fabric import _UNREACHABLE, VirtualNetwork
from repro.registry.local import ServiceRegistry
from repro.transport.base import TransportMessage
from repro.util.errors import RegistryError, ServiceNotFoundError
from repro.wsdl.io import document_from_string, document_to_string
from repro.wsdl.model import WsdlDocument

__all__ = [
    "DistributedLookup",
    "CentralizedLookup",
    "DecentralizedLookup",
    "NeighborhoodLookup",
]

_SEP = b"\x1e"  # record separator between WSDL documents in responses
_QUERY_CT = "application/x-harness-query"
_NAME_CT = "application/x-harness-name"
_WSDL_CT = "text/xml; wsdl"


def _wsdl_bytes(document: WsdlDocument) -> bytes:
    return document_to_string(document, indent=False).encode("utf-8")


class _LookupNode:
    """Per-host state: a local registry plus the network endpoint.

    It answers an XML query (every match), a by-name query (the one entry,
    or an empty payload) and a WSDL registration.
    """

    def __init__(self, scheme: "DistributedLookup", host_name: str):
        self.registry = ServiceRegistry(name=f"{host_name}.registry")
        self.host_name = host_name
        host = scheme.network.host(host_name)
        # a host rejoining after removal replaces its stale handler
        # (remove_host leaves the endpoint bound)
        host.unbind(scheme.endpoint)
        host.bind(scheme.endpoint, self._serve)

    def _serve(self, message: TransportMessage) -> TransportMessage:
        op = self._OPS.get(message.content_type)
        if op is None:
            raise RegistryError(f"lookup node cannot handle {message.content_type!r}")
        return op(self, message.payload)

    def _name_op(self, payload) -> TransportMessage:
        try:
            entry = self.registry.lookup_name(payload.decode("utf-8"))
        except ServiceNotFoundError:
            return TransportMessage(_WSDL_CT, b"")
        return TransportMessage(_WSDL_CT, _wsdl_bytes(entry.document))

    def _query_op(self, payload) -> TransportMessage:
        matches = self.registry.find(payload.decode("utf-8"))
        return TransportMessage(_WSDL_CT, _SEP.join(_wsdl_bytes(m.document) for m in matches))

    def _register_op(self, payload) -> TransportMessage:
        self.registry.register(document_from_string(payload))
        return TransportMessage("text/plain", b"ok")

    #: content type -> the method serving it
    _OPS = {_NAME_CT: _name_op, _QUERY_CT: _query_op, _WSDL_CT: _register_op}


class DistributedLookup:
    """Base: one lookup node per host in the network."""

    #: endpoint name bound on every host
    endpoint = "lookup"

    def __init__(self, network: VirtualNetwork):
        self.network = network
        self.nodes: dict[str, _LookupNode] = {
            host.name: _LookupNode(self, host.name) for host in network.hosts()
        }

    def register(self, host_name: str, document: WsdlDocument) -> None:
        """Publish *document* from *host_name* according to the scheme."""
        raise NotImplementedError

    def discover(self, host_name: str, expression: str) -> list[WsdlDocument]:
        """Find services matching the XML query, as seen from *host_name*.

        The local registry first (free), then every other reachable host:
        a match can live anywhere.
        """
        found = [m.document for m in self._node(host_name).registry.find(expression)]
        return self._gather(host_name, self.nodes, expression, found)

    # -- shared plumbing -----------------------------------------------------

    def _node(self, host_name: str) -> _LookupNode:
        """The lookup node on *host_name*, or a typed fault — never KeyError."""
        try:
            return self.nodes[host_name]
        except KeyError:
            raise RegistryError(f"unknown lookup host {host_name!r}") from None

    def _gather(
        self, host: str, peers, expression: str, found: list[WsdlDocument]
    ) -> list[WsdlDocument]:
        """Ask *peers* in order; add each match whose name *found* lacks.

        *host* itself and peers unreachable right now are skipped.
        """
        seen = {document.name for document in found}
        for peer in peers:
            if peer == host:
                continue
            try:
                documents = self._query(host, peer, expression)
            except _UNREACHABLE:
                continue
            for document in documents:
                if document.name not in seen:
                    seen.add(document.name)
                    found.append(document)
        return found

    def _send_wsdl(self, src: str, dst: str, document: WsdlDocument) -> None:
        message = TransportMessage(_WSDL_CT, _wsdl_bytes(document))
        self.network.request(src, dst, self.endpoint, message)

    def _query(self, src: str, dst: str, expression: str) -> list[WsdlDocument]:
        response = self.network.request(
            src, dst, self.endpoint,
            TransportMessage(_QUERY_CT, expression.encode("utf-8")),
        )
        if not response.payload:
            return []
        return [document_from_string(chunk) for chunk in response.payload.split(_SEP)]


class CentralizedLookup(DistributedLookup):
    """One well-known registry host; everything flows through it.

    Easy and cheap to query (one round trip) but the registry host is a
    single point of failure and every operation serializes through it.
    """

    def __init__(self, network: VirtualNetwork, registry_host: str):
        super().__init__(network)
        if registry_host not in self.nodes:
            raise RegistryError(f"unknown registry host {registry_host!r}")
        self.registry_host = registry_host

    def register(self, host_name: str, document: WsdlDocument) -> None:
        self._node(host_name)  # typed fault for unknown hosts
        self._send_wsdl(host_name, self.registry_host, document)

    def discover(self, host_name: str, expression: str) -> list[WsdlDocument]:
        self._node(host_name)
        return self._query(host_name, self.registry_host, expression)


class DecentralizedLookup(DistributedLookup):
    """Registration is purely local; discovery floods the whole DVM.

    "a registration phase that is fully localized and does not involve any
    network traffic, whereas the discovery phase performs an active lookup
    that can be expensive" (Section 5).
    """

    def register(self, host_name: str, document: WsdlDocument) -> None:
        self._node(host_name).registry.register(document)  # zero messages


class NeighborhoodLookup(DistributedLookup):
    """Intermediate scheme: replicate registrations to *k* ring neighbours.

    Registration costs k messages; discovery checks self + k neighbours and
    only floods the remainder when the neighbourhood misses — the paper's
    "full synchrony across small neighborhoods but … distributed queries
    for farther hosts" idea applied to lookup.
    """

    def __init__(self, network: VirtualNetwork, replication: int = 2):
        super().__init__(network)
        if replication < 1:
            raise RegistryError("replication factor must be >= 1")
        self.replication = replication
        self._ring = sorted(self.nodes)

    def _neighbors(self, host_name: str) -> list[str]:
        self._node(host_name)  # typed fault for unknown hosts
        index = self._ring.index(host_name)
        return [
            self._ring[(index + step) % len(self._ring)]
            for step in range(1, self.replication + 1)
            if self._ring[(index + step) % len(self._ring)] != host_name
        ]

    def register(self, host_name: str, document: WsdlDocument) -> None:
        self._node(host_name).registry.register(document)
        for neighbor in self._neighbors(host_name):
            try:
                self._send_wsdl(host_name, neighbor, document)
            except _UNREACHABLE:
                continue

    def discover(self, host_name: str, expression: str) -> list[WsdlDocument]:
        found = [m.document for m in self._node(host_name).registry.find(expression)]
        neighborhood = self._neighbors(host_name)
        found = self._gather(host_name, neighborhood, expression, found)
        if found:
            return found
        # neighbourhood miss: fall back to flooding the rest of the ring
        farther = [peer for peer in self._ring if peer not in neighborhood]
        return self._gather(host_name, farther, expression, found)

"""DVM distributed-state coherency protocols.

Section 6: "the Harness II framework defines only the DVM API and does not
mandate any particular solution to maintain global state coherency.
Concrete implementations are provided by the DVM-enabling components that
may vary in implementation from the full synchrony method to complete
decentralization."

Three DVM-enabling components are provided:

* :class:`FullSynchronyState` — "the entire state information is replicated
  across all participating nodes.  All system events are synchronously
  distributed to maintain coherency. … may be appropriate for relatively
  small DVMs running applications with many critical components."
* :class:`DecentralizedState` — "state change events are not propagated to
  other nodes.  Instead, every request for state information triggers a
  distributed query spanning across the DVM. … appropriate for loosely
  coupled, massively distributed applications such as Seti@home."
* :class:`NeighborhoodState` — the mixed solution: "full synchrony across
  small neighborhoods but … distributed queries for farther hosts."

All three expose the same functional interface (:class:`DvmStateProtocol`),
which is the portability property experiment C7 asserts.  Entries carry
``(lamport, origin)`` versions merged last-writer-wins, so decentralized
reads converge deterministically.  Messages are XDR-encoded real bytes over
the :class:`~repro.netsim.VirtualNetwork` — the C4 benchmark compares
protocols by the fabric's message/byte/simulated-time accounting.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable

import numpy as np

from repro.encoding.xdr import pack_value, unpack_value
from repro.netsim.fabric import HostDownError, MessageDroppedError, VirtualNetwork
from repro.obs import metrics as _metrics
from repro.transport.base import TransportMessage
from repro.util.concurrent import AtomicCounter
from repro.util.errors import CoherencyError, DvmError

#: "this peer is effectively unreachable right now" — a crashed/partitioned
#: host or a message lost beyond the retry budget.  Every best-effort path
#: (decentralized reads, neighbourhood pushes, state transfer) skips peers
#: failing with these.
_UNREACHABLE = (HostDownError, MessageDroppedError)

__all__ = [
    "StateEntry",
    "DvmStateProtocol",
    "FullSynchronyState",
    "DecentralizedState",
    "NeighborhoodState",
]

_CT = "application/x-harness-state"
_ENDPOINT = "dvm-state"

# -- message plans ------------------------------------------------------------
#
# Tagged XDR is concatenative: a dict is its tag, its count, then a key string
# and a tagged value per item, each 4-byte aligned.  So the bytes of a message
# whose last value varies are a constant head plus that value's own bytes, and
# the head can be packed once.  Every head below is cut from what
# ``pack_value`` itself emits, so the wire stays byte-for-byte what it was;
# the decoder is untouched.  (The ``get`` request has no head of its own: it is
# one message per key, interned whole in the table below.)


_VOID = pack_value(None)


def _head(template: dict) -> bytes:
    """``pack_value(template)`` without the void value it ends with."""
    return pack_value(template)[: -len(_VOID)]


#: ``{"kind": "update", "entry": E}`` and ``{"entry": E}`` up to E
_UPDATE_HEAD = _head({"kind": "update", "entry": None})
_ENTRY_HEAD = _head({"entry": None})
#: the two replies that never vary
_MISS_REPLY = TransportMessage(_CT, pack_value({"entry": None}))
_OK_REPLY = TransportMessage(_CT, pack_value({"ok": True}))


# -- the message table --------------------------------------------------------
#
# A step of any scheme moves a handful of distinct messages many times: one
# ``get`` asked of fifteen peers, one update pushed to fifteen members, two
# digests probed around a gossip round.  The table keeps each distinct message
# once, under what it says.  **Decode** is ``unpack_value`` memoised on the
# payload bytes: equal bytes, one shared result.  **Build** is the mirror
# image: a message under a name that determines its bytes is made once.
# Nothing here is protocol state.  An entry is a pure function of its key, so
# it cannot be stale and evicting it costs one decode or one build; what the
# schemes decide (whom to ask, what is newer) happens after the table.
#
# A shared result is read-only by contract: its ndarrays have the write flag
# cleared, and nothing in ``repro`` writes to a decoded dict or list (an entry
# value "is not mutated once stamped", see ``StateEntry._wire``).

#: entries the table holds, decoded payloads and built messages together;
#: the oldest goes when a new one would exceed it
_TABLE_CAP = 256
#: a payload longer than this is decoded every time and never retained
#: (a snapshot reply or a full gossip dump at 16 members is past it)
_TABLE_MAX_PAYLOAD = 8192

#: ``unpack_value`` runs the table made / lookups a retained result answered
_DECODES = _metrics.registry.counter("dvm.state.decodes")
_DECODE_SHARED = _metrics.registry.counter("dvm.state.decode_shared")
#: messages the table had made / lookups a retained message answered
_BUILDS = _metrics.registry.counter("dvm.state.builds")
_BUILD_SHARED = _metrics.registry.counter("dvm.state.build_shared")
_TABLE_ENTRIES = _metrics.registry.gauge("dvm.state.table_entries")
_TABLE_CAPACITY = _metrics.registry.gauge("dvm.state.table_cap")

_ABSENT = object()


def _read_only(value):
    """Clear the write flag of every ndarray in a decoded *value*; returns it."""
    kind = type(value)
    if kind is np.ndarray:
        value.setflags(write=False)
    elif kind is dict:
        for item in value.values():
            _read_only(item)
    elif kind is list:
        for item in value:
            _read_only(item)
    return value


class _MessageTable:
    """Content-keyed and bounded: payload bytes → decoded value, name → message.

    One dict holds both kinds (a payload is ``bytes``, a name is a tuple, so
    they cannot collide) under one cap.  A hit is one lock-free dict probe;
    only an insert takes the lock, to evict the oldest entry with it.
    """

    __slots__ = ("_entries", "_lock")

    def __init__(self) -> None:
        self._entries: dict = {}
        self._lock = threading.Lock()

    def decode(self, payload) -> Any:
        """``unpack_value(payload)``, shared between equal ``bytes`` payloads.

        A view, an oversize payload and a payload that raises are decoded as
        if the table were not there, and leave nothing in it.
        """
        if type(payload) is not bytes or len(payload) > _TABLE_MAX_PAYLOAD:
            _DECODES.inc()
            return unpack_value(payload)
        value = self._entries.get(payload, _ABSENT)
        if value is not _ABSENT:
            _DECODE_SHARED.inc()
            return value
        _DECODES.inc()
        value = _read_only(unpack_value(payload))
        self._insert(payload, value)
        return value

    def build(self, name: tuple, make: Callable, *args) -> Any:
        """``make(*args)``, made once for as long as *name* is retained.

        The caller vouches that *name* determines what ``make`` returns.
        """
        message = self._entries.get(name)
        if message is not None:
            _BUILD_SHARED.inc()
            return message
        _BUILDS.inc()
        message = make(*args)
        self._insert(name, message)
        return message

    def _insert(self, key, value) -> None:
        entries = self._entries
        with self._lock:
            before = len(entries)
            if before >= _TABLE_CAP and key not in entries:
                del entries[next(iter(entries))]
            entries[key] = value
            size = len(entries)
        if size != before:
            # a full table turning over has nothing new to report; the cap is
            # said again with each change because ``registry.reset()`` zeroes it
            _TABLE_ENTRIES.set(size)
            _TABLE_CAPACITY.set(_TABLE_CAP)


_TABLE = _MessageTable()


def _make_get_request(key: str) -> TransportMessage:
    return TransportMessage(_CT, pack_value({"kind": "get", "key": key}))


def _get_request(key: str) -> TransportMessage:
    """The ``get`` request for *key*: one message per key, sent to every peer."""
    return _TABLE.build(("get", key), _make_get_request, key)


def _update_request(entry: "StateEntry") -> TransportMessage:
    """The ``update`` request carrying *entry*: built once, sent to every member."""
    return TransportMessage(_CT, _UPDATE_HEAD + entry._wire)


@dataclass(frozen=True)
class StateEntry:
    """A versioned state value: last-writer-wins on (lamport, origin)."""

    key: str
    value: Any
    lamport: int
    origin: str

    def newer_than(self, other: "StateEntry | None") -> bool:
        if other is None:
            return True
        return (self.lamport, self.origin) > (other.lamport, other.origin)

    def to_wire(self) -> dict:
        return {"key": self.key, "value": self.value, "lamport": self.lamport, "origin": self.origin}

    @cached_property
    def _wire(self) -> bytes:
        """``pack_value(self.to_wire())``, packed on first use.

        An entry is frozen and its value is not mutated once stamped (gossip
        already shares one entry object between replicas), so every push of
        it and every ``get`` served from it splices the same bytes.
        """
        return pack_value(self.to_wire())

    @classmethod
    def from_wire(cls, data: dict) -> "StateEntry":
        return cls(data["key"], data["value"], data["lamport"], data["origin"])


class _StateNode:
    """Per-member local store plus the network endpoint serving peers."""

    def __init__(self, protocol: "DvmStateProtocol", host_name: str):
        self.host_name = host_name
        self.store: dict[str, StateEntry] = {}
        self.lock = threading.RLock()
        self._protocol = protocol
        host = protocol.network.host(host_name)
        # a node re-enrolled after eviction replaces its stale handler
        # (remove_member leaves the endpoint bound, see its docstring)
        host.unbind(_ENDPOINT)
        host.bind(_ENDPOINT, self._serve)

    def apply(self, entry: StateEntry) -> bool:
        """Merge an entry; True when it superseded the stored one."""
        with self.lock:
            current = self.store.get(entry.key)
            if entry.newer_than(current):
                self.store[entry.key] = entry
                return True
            return False

    def get(self, key: str) -> StateEntry | None:
        with self.lock:
            return self.store.get(key)

    def snapshot(self) -> dict[str, StateEntry]:
        with self.lock:
            return dict(self.store)

    def _serve(self, message: TransportMessage) -> TransportMessage:
        request = _TABLE.decode(message.payload)
        kind = request["kind"]
        if kind == "get":
            entry = self.get(request["key"])
            if entry is None:
                return _MISS_REPLY
            return TransportMessage(_CT, _ENTRY_HEAD + entry._wire)
        if kind == "update":
            self.apply(StateEntry.from_wire(request["entry"]))
            return _OK_REPLY
        if kind == "snapshot":
            prefix = request.get("prefix", "")
            with self.lock:
                entries = [
                    e.to_wire() for k, e in self.store.items() if k.startswith(prefix)
                ]
            return TransportMessage(_CT, pack_value({"entries": entries}))
        raise CoherencyError(f"unknown state request kind {kind!r}")


class DvmStateProtocol:
    """Shared plumbing + the uniform interface of all coherency schemes."""

    #: human-readable protocol tag used by benchmarks and status queries
    scheme = "abstract"

    #: per-member node type; schemes with richer endpoints (gossip) override
    node_class = _StateNode

    def __init__(
        self,
        network: VirtualNetwork,
        members: list[str] | None = None,
        send_retries: int = 0,
    ):
        members = list(members or [])
        self.network = network
        self.members = list(members)
        self.nodes: dict[str, _StateNode] = {
            name: self.node_class(self, name) for name in self.members
        }
        self._clock = AtomicCounter()
        # Bounded resends over lossy links.  State operations are idempotent
        # (entries merge last-writer-wins), so resending either phase of a
        # dropped exchange is always safe; each resend is charged to the
        # fabric like any other message.  0 = drops surface to the caller.
        self.send_retries = send_retries

    # -- the uniform interface ---------------------------------------------------

    def update(self, origin: str, key: str, value: Any) -> StateEntry:
        """Apply a state change originating at *origin*."""
        raise NotImplementedError

    def get(self, node: str, key: str) -> Any:
        """The value of *key* as observed from *node* (None if absent)."""
        raise NotImplementedError

    def snapshot(self, node: str, prefix: str = "") -> dict[str, Any]:
        """All known key→value pairs (optionally under *prefix*) from *node*."""
        raise NotImplementedError

    # -- membership -----------------------------------------------------------------

    def add_member(self, name: str) -> None:
        """Enroll a new node into the protocol (DVM grow operation)."""
        if name in self.nodes:
            raise DvmError(f"node {name!r} is already a member")
        existing = list(self.members)
        self.members.append(name)
        self.nodes[name] = self.node_class(self, name)
        self._on_member_added(name, existing)

    def _on_member_added(self, name: str, existing: list[str]) -> None:
        """Scheme-specific join work (e.g. state transfer to the newcomer)."""

    def _pull_state(self, newcomer: str, sources: list[str]) -> None:
        """Transfer the current replica to *newcomer* from the first live source."""
        node = self.nodes[newcomer]
        for source in sources:
            try:
                for entry in self._remote_snapshot(newcomer, source, ""):
                    node.apply(entry)
                return
            except _UNREACHABLE:
                continue

    def remove_member(self, name: str) -> None:
        """Drop a node (its endpoint stays bound but is no longer consulted)."""
        if name not in self.nodes:
            raise DvmError(f"node {name!r} is not a member")
        self.members.remove(name)
        del self.nodes[name]

    # -- helpers ---------------------------------------------------------------------

    def _node(self, name: str) -> _StateNode:
        try:
            return self.nodes[name]
        except KeyError:
            raise DvmError(f"node {name!r} is not a DVM member") from None

    def _stamp(self, origin: str, key: str, value: Any) -> StateEntry:
        return StateEntry(key, value, self._clock.increment(), origin)

    def _request(self, src: str, dst: str, message: TransportMessage):
        """One packed request, resent up to ``send_retries`` times; raw reply back."""
        for _ in range(self.send_retries):
            try:
                return self.network.request(src, dst, _ENDPOINT, message)
            except MessageDroppedError:
                continue
        return self.network.request(src, dst, _ENDPOINT, message)  # the last drop surfaces

    def _send(self, src: str, dst: str, request: dict) -> dict:
        message = TransportMessage(_CT, pack_value(request))
        return _TABLE.decode(self._request(src, dst, message).payload)

    def _remote_get(
        self, src: str, dst: str, request: TransportMessage
    ) -> StateEntry | None:
        """Ask *dst* for the key a :func:`_get_request` names."""
        payload = self._request(src, dst, request).payload
        if payload == _MISS_REPLY.payload:
            return None
        wire = _TABLE.decode(payload).get("entry")
        return StateEntry.from_wire(wire) if wire else None

    def _remote_snapshot(self, src: str, dst: str, prefix: str) -> list[StateEntry]:
        reply = self._send(src, dst, {"kind": "snapshot", "prefix": prefix})
        return [StateEntry.from_wire(w) for w in reply.get("entries", [])]

    def _push(self, src: str, dst: str, update: TransportMessage) -> None:
        """Send one :func:`_update_request` to *dst*."""
        payload = self._request(src, dst, update).payload
        if payload != _OK_REPLY.payload:
            unpack_value(payload)  # nothing to read, but a malformed reply still raises


class FullSynchronyState(DvmStateProtocol):
    """Synchronous replication to every member; local reads."""

    scheme = "full-synchrony"

    def _on_member_added(self, name: str, existing: list[str]) -> None:
        # a newcomer must start from the full replica
        self._pull_state(name, existing)

    def update(self, origin: str, key: str, value: Any) -> StateEntry:
        entry = self._stamp(origin, key, value)
        self._node(origin).apply(entry)
        message = _update_request(entry)
        failures = []
        for member in self.members:
            if member == origin:
                continue
            try:
                self._push(origin, member, message)
            except _UNREACHABLE as exc:
                failures.append(f"{member}: {exc}")
        if failures:
            raise CoherencyError(
                f"synchronous update of {key!r} failed on: {'; '.join(failures)}"
            )
        return entry

    def get(self, node: str, key: str) -> Any:
        entry = self._node(node).get(key)
        return entry.value if entry else None

    def snapshot(self, node: str, prefix: str = "") -> dict[str, Any]:
        return {
            k: e.value
            for k, e in self._node(node).snapshot().items()
            if k.startswith(prefix)
        }


class DecentralizedState(DvmStateProtocol):
    """Local writes; reads flood the DVM and merge by version."""

    scheme = "decentralized"

    def update(self, origin: str, key: str, value: Any) -> StateEntry:
        entry = self._stamp(origin, key, value)
        self._node(origin).apply(entry)
        return entry

    def get(self, node: str, key: str) -> Any:
        best = self._node(node).get(key)
        request = _get_request(key)
        for member in self.members:
            if member == node:
                continue
            try:
                remote = self._remote_get(node, member, request)
            except _UNREACHABLE:
                continue
            if remote is not None and remote.newer_than(best):
                best = remote
        return best.value if best else None

    def snapshot(self, node: str, prefix: str = "") -> dict[str, Any]:
        merged: dict[str, StateEntry] = {
            k: e for k, e in self._node(node).snapshot().items() if k.startswith(prefix)
        }
        for member in self.members:
            if member == node:
                continue
            try:
                for entry in self._remote_snapshot(node, member, prefix):
                    if entry.newer_than(merged.get(entry.key)):
                        merged[entry.key] = entry
            except _UNREACHABLE:
                continue
        return {k: e.value for k, e in merged.items()}


class NeighborhoodState(DvmStateProtocol):
    """Full synchrony across ring neighbourhoods, flooding beyond them."""

    scheme = "neighborhood"

    def __init__(
        self,
        network: VirtualNetwork,
        members: list[str] | None = None,
        radius: int = 2,
        *,
        send_retries: int = 0,
    ):
        super().__init__(network, members, send_retries=send_retries)
        if radius < 1:
            raise DvmError("neighborhood radius must be >= 1")
        self.radius = radius
        self._ring = sorted(self.members)

    def _on_member_added(self, name: str, existing: list[str]) -> None:
        self._ring = sorted(self.members)
        if existing:
            # seed the newcomer from its neighbourhood (preferred) or anyone
            sources = [p for p in self.neighbors(name) if p in existing] or existing
            self._pull_state(name, sources)

    def remove_member(self, name: str) -> None:
        super().remove_member(name)
        self._ring = sorted(self.members)

    def neighbors(self, node: str) -> list[str]:
        """The nodes within ``radius`` ring hops (both directions)."""
        index = self._ring.index(node)
        out: list[str] = []
        for step in range(1, self.radius + 1):
            for direction in (+1, -1):
                peer = self._ring[(index + direction * step) % len(self._ring)]
                if peer != node and peer not in out:
                    out.append(peer)
        return out

    def update(self, origin: str, key: str, value: Any) -> StateEntry:
        entry = self._stamp(origin, key, value)
        self._node(origin).apply(entry)
        message = _update_request(entry)
        for neighbor in self.neighbors(origin):
            try:
                self._push(origin, neighbor, message)
            except _UNREACHABLE:
                continue
        return entry

    def get(self, node: str, key: str) -> Any:
        # Within the neighbourhood reads are coherent: merge self + all
        # neighbours by version (a writer's replicas land on *its*
        # neighbours, so overlapping neighbourhoods see the newest entry).
        # Only when the whole neighbourhood misses do we flood the ring.
        best = self._node(node).get(key)
        request = _get_request(key)
        neighborhood = self.neighbors(node)
        for peer in neighborhood:
            try:
                remote = self._remote_get(node, peer, request)
            except _UNREACHABLE:
                continue
            if remote is not None and remote.newer_than(best):
                best = remote
        if best is not None:
            return best.value
        for peer in self._ring:
            if peer == node or peer in neighborhood:
                continue
            try:
                remote = self._remote_get(node, peer, request)
            except _UNREACHABLE:
                continue
            if remote is not None and remote.newer_than(best):
                best = remote
        return best.value if best else None

    def snapshot(self, node: str, prefix: str = "") -> dict[str, Any]:
        merged: dict[str, StateEntry] = {
            k: e for k, e in self._node(node).snapshot().items() if k.startswith(prefix)
        }
        for peer in self._ring:
            if peer == node:
                continue
            try:
                for entry in self._remote_snapshot(node, peer, prefix):
                    if entry.newer_than(merged.get(entry.key)):
                        merged[entry.key] = entry
            except _UNREACHABLE:
                continue
        return {k: e.value for k, e in merged.items()}

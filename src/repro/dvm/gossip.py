"""Epidemic anti-entropy coherency: the DVM control plane at 10k nodes.

§6 scopes the coherency spectrum from full synchrony to complete
decentralization; this module adds the scheme that makes the decentralized
end *converge* at scale.  :class:`GossipState` keeps writes local (like
:class:`~repro.dvm.state.DecentralizedState`) and reconciles replicas with
push-pull anti-entropy: every round each member contacts ``fanout`` random
peers, the pair exchange compact **version digests** first and only then
the entries one side is missing — O(n·fanout) messages per round and
O(log n) rounds to converge, versus the O(n) messages *per write* full
synchrony pays.

Digests are per-origin high-water marks: origin names are interned to
small integers and a digest is one int64 ndarray — the sorted origin ids
followed by the highest lamport incorporated per origin — riding the
zero-copy XDR ndarray path as a single opaque blob.  Because every entry carries a ``(lamport, origin)`` version drawn
from one atomic clock and merges last-writer-wins (commutative, idempotent,
convergent — property-tested), "all lamports of origin o up to h" is an
exact summary of what a replica holds, and the delta for a peer is
"every live entry of o above your floor".  Floors only advance on full
digest exchanges (which transfer the complete range); opportunistic
single-entry pushes merge the entry but leave the floor alone, so a floor
never overstates what a replica has seen.

Convergence detection is O(1): each replica tracks the sum of its floors,
the protocol tracks the global per-origin ceiling, and the fleet has
converged exactly when ``sum(replica totals) == n_members * sum(ceilings)``
(floors are monotone and bounded by the ceilings, so sum equality implies
element-wise equality).  :meth:`GossipState.converged` costs two integer
compares at any scale.

:class:`NeighborhoodGossipState` layers eager ring-neighbour pushes on top
— the mesh regime: writes reach the neighbourhood in the same tick and the
epidemic carries them the rest of the way.
"""

from __future__ import annotations

import random
import threading

import numpy as np

from repro.dvm.state import (
    _CT,
    _TABLE,
    DvmStateProtocol,
    NeighborhoodState,
    StateEntry,
    _StateNode,
    _get_request,
)
from repro.encoding.xdr import pack_value
from repro.netsim.fabric import _UNREACHABLE, VirtualNetwork
from repro.obs import metrics as _metrics
from repro.transport.base import TransportMessage
from repro.util.clock import Clock, WallClock
from repro.util.errors import CoherencyError, DvmError

__all__ = ["GossipState", "NeighborhoodGossipState"]

_ROUNDS = _metrics.registry.counter("dvm.gossip.rounds")
_EXCHANGES = _metrics.registry.counter("dvm.gossip.exchanges")
_DELTAS = _metrics.registry.counter("dvm.gossip.deltas_applied")
_UNREACHED = _metrics.registry.counter("dvm.gossip.unreachable")
_CONVERGED = _metrics.registry.counter("dvm.gossip.convergences")


class _GossipView:
    """One replica's anti-entropy bookkeeping, parallel to its store.

    ``versions`` are the floors (origin id → highest lamport fully
    incorporated), ``by_origin`` indexes the *live* entries for delta
    collection (superseded entries drop out — their effect survives in the
    superseding entry), ``total`` caches ``sum(versions.values())`` for the
    O(1) convergence check, and the packed digest arrays are cached until
    ``stamp`` moves.  These by-stamp caches are the O(1) front: a replica
    that has not moved answers from them without naming anything.  Behind
    them the state plane's message table shares one packed message between
    *replicas* that hold the same thing, which is what a converging fleet
    mostly is.
    """

    __slots__ = (
        "versions",
        "by_origin",
        "total",
        "stamp",
        "digest_cache",
        "sync_cache",
        "dump_cache",
        "reply_cache",
        "push_cache",
    )

    def __init__(self) -> None:
        self.versions: dict[int, int] = {}
        self.by_origin: dict[int, dict[str, StateEntry]] = {}
        self.total = 0
        self.stamp = 0
        self.digest_cache: tuple[int, np.ndarray, bytes] | None = None
        self.sync_cache: tuple[int, bytes] | None = None
        # full-dump caches for empty-floored peers (the dominant exchange
        # shape while an epidemic is spreading): the columnar batch, the
        # packed sync reply carrying it, and the packed push carrying it
        self.dump_cache: tuple[int, dict | None] | None = None
        self.reply_cache: tuple[int, bytes] | None = None
        self.push_cache: tuple[int, tuple[bytes, int] | None] | None = None


# Two replicas with equal digests build byte-identical sync requests (the
# digest is canonical and the payload is packed by one shared helper), so
# "nothing to exchange" is detectable by comparing raw bytes — the converged
# steady state costs zero codec work per probe.  The reply for that case is
# likewise packed exactly once.
_SYNC_SAME = pack_value({"same": True})


class _GossipNode(_StateNode):
    """A state node that additionally serves digest-sync and delta pushes."""

    def _shortcut(self, payload):
        if self._protocol._sync_same_fast(self.host_name, payload):
            return TransportMessage(_CT, _SYNC_SAME)  # the replicas already agree
        return None

    def _sync_op(self, request: dict) -> TransportMessage:
        return TransportMessage(_CT, self._protocol._answer_sync(self.host_name, request.get("d")))

    def _deltas_op(self, request: dict) -> TransportMessage:
        applied = self._protocol._apply_deltas(
            self.host_name, request.get("deltas"), request.get("d")
        )
        return TransportMessage(_CT, pack_value({"applied": applied}))

    _OPS = {**_StateNode._OPS, "sync": _sync_op, "deltas": _deltas_op}


def _same_digest(digest, raw: bytes) -> bool:
    """Whether a wire digest is, byte for byte, the digest whose bytes are *raw*.

    Digests are canonical, so equal replicas have equal bytes.  Anything that
    is not an int64 array of that length just reads as different, and the
    exchange goes the long way round.
    """
    return (
        isinstance(digest, np.ndarray)
        and digest.dtype == np.int64
        and digest.nbytes == len(raw)
        and digest.tobytes() == raw
    )


def _floors(digest) -> dict[int, int]:
    """Decode a wire digest (ids ++ highs, one int64 array) into floors."""
    if digest is None or len(digest) == 0:
        return {}
    flat = np.asarray(digest).tolist()
    half = len(flat) // 2
    return dict(zip(flat[:half], flat[half:]))


class GossipState(DvmStateProtocol):
    """Decentralized writes reconciled by push-pull epidemic anti-entropy.

    Tunables: ``fanout`` peers contacted per member per round (higher =
    fewer rounds, more messages), ``interval_s`` the round pacing for
    :meth:`start`, ``pull_on_miss`` bounds a local read miss to
    ``fanout`` random peers instead of flooding the DVM.  Peer choice is
    seeded — same seed, same epidemic.

    The scheme's cost shape: a *write* is free (local apply); a *round* is
    ``O(members × fanout)`` messages whose payloads shrink to bare digests
    once replicas agree; convergence takes ``O(log members)`` rounds with
    high probability.
    """

    scheme = "gossip"
    node_class = _GossipNode

    def __init__(
        self,
        network: VirtualNetwork,
        members: list[str] | None = None,
        fanout: int = 2,
        interval_s: float = 0.25,
        seed: int = 0,
        pull_on_miss: bool = True,
        send_retries: int = 0,
    ):
        if fanout < 1:
            raise DvmError("gossip fanout must be >= 1")
        self._views: dict[str, _GossipView] = {}
        super().__init__(network, members, send_retries=send_retries)
        self.fanout = fanout
        self.interval_s = interval_s
        self.pull_on_miss = pull_on_miss
        self._rng = random.Random(seed)
        # origin interning: wire digests/deltas carry small ints, not names.
        # (A deployment would piggyback new intern bindings on the exchange;
        # the in-process table stands in for that and is charged nothing.)
        self._origin_ids: dict[str, int] = {}
        self._origin_names: list[str] = []
        self._origin_max: list[int] = []
        self._origin_total = 0
        self._sum_totals = 0
        self._totals_lock = threading.Lock()
        # entry interning: one StateEntry object per (origin, lamport) no
        # matter how many replicas absorb it — at 10k nodes the alternative
        # is millions of identical frozen dataclasses.  A version enters when
        # a replica absorbs it and leaves when any replica supersedes it, so
        # the table follows the live keys, not the updates ever made (a
        # replica still behind re-interns the version when it absorbs it).
        self._entry_cache: dict[tuple[int, int], StateEntry] = {}
        self._rounds = 0
        self._was_converged = False
        self._bus = None
        self._bus_source = ""
        self._timer = None
        for name in self.members:
            self._views[name] = _GossipView()

    # -- the uniform interface ---------------------------------------------------

    def update(self, origin: str, key: str, value) -> StateEntry:
        node = self._node(origin)
        view = self._views[origin]
        entry = self._stamp(origin, key, value)
        oid = self._intern(origin)
        with node.lock:
            if self._absorb_locked(node, view, entry, oid):
                self._entry_cache[(oid, entry.lamport)] = entry
            self._grant_locked(view, oid, entry.lamport)
        with self._totals_lock:
            ceiling = self._origin_max[oid]
            if entry.lamport > ceiling:
                self._origin_total += entry.lamport - ceiling
                self._origin_max[oid] = entry.lamport
        self._was_converged = False
        return entry

    def get(self, node: str, key: str):
        best = self._node(node).get(key)
        if best is None and self.pull_on_miss:
            best = self._pull_miss(node, key)
        return best.value if best else None

    def _pull_miss(self, node: str, key: str) -> StateEntry | None:
        """A bounded read repair: ask ``fanout`` distinct peers, absorb the best."""
        candidates = [m for m in self.members if m != node]
        if not candidates:
            return None
        # without replacement: at small n the repair degenerates to asking
        # everyone, so a freshly published record is always found
        peers = self._rng.sample(candidates, min(self.fanout, len(candidates)))
        best = self._newest(node, peers, _get_request(key), None)
        if best is not None:
            local = self.nodes[node]
            with local.lock:
                self._absorb_locked(
                    local, self._views[node], best, self._intern(best.origin)
                )
        return best

    # -- membership -----------------------------------------------------------------

    def _on_member_added(self, name: str, existing: list[str]) -> None:
        self._views[name] = _GossipView()
        # seed the newcomer with one full anti-entropy exchange; the
        # epidemic fills any gap if every candidate is unreachable
        for source in existing:
            try:
                self._exchange(name, source)
                return
            except _UNREACHABLE:
                continue

    def remove_member(self, name: str) -> None:
        super().remove_member(name)
        view = self._views.pop(name, None)
        if view is not None and view.total:
            with self._totals_lock:
                self._sum_totals -= view.total

    # -- digest bookkeeping ----------------------------------------------------------

    def _intern(self, origin: str) -> int:
        oid = self._origin_ids.get(origin)
        if oid is None:
            with self._totals_lock:
                oid = self._origin_ids.get(origin)
                if oid is None:
                    oid = len(self._origin_names)
                    self._origin_names.append(origin)
                    self._origin_max.append(0)
                    self._origin_ids[origin] = oid
        return oid

    def _absorb_locked(
        self, node: _StateNode, view: _GossipView, entry: StateEntry, oid: int
    ) -> bool:
        """LWW-merge one entry into a replica; caller holds ``node.lock``."""
        store = node.store
        previous = store.get(entry.key)
        if not entry.newer_than(previous):
            return False
        store[entry.key] = entry
        if previous is not None:
            previous_oid = self._intern(previous.origin)
            self._entry_cache.pop((previous_oid, previous.lamport), None)
            if previous_oid != oid:
                bucket = view.by_origin.get(previous_oid)
                if bucket is not None:
                    bucket.pop(entry.key, None)
        bucket = view.by_origin.get(oid)
        if bucket is None:
            bucket = view.by_origin[oid] = {}
        bucket[entry.key] = entry
        return True

    def _grant_locked(self, view: _GossipView, oid: int, floor: int) -> None:
        """Advance a replica's floor after a *complete* range transfer."""
        old = view.versions.get(oid, 0)
        if floor <= old:
            return
        view.versions[oid] = floor
        view.stamp += 1
        view.digest_cache = None
        delta = floor - old
        view.total += delta
        with self._totals_lock:
            self._sum_totals += delta

    def _digest_locked(self, view: _GossipView) -> tuple[np.ndarray, bytes]:
        """A replica's digest and its raw bytes, cached until its stamp moves."""
        cached = view.digest_cache
        if cached is not None and cached[0] == view.stamp:
            return cached[1], cached[2]
        # canonical (sorted by origin id) so two identical replicas produce
        # byte-identical digests: equality is then one compare of raw bytes.
        # One flat array (ids then highs) = one codec round-trip on the wire.
        versions = view.versions
        oids = sorted(versions)
        digest = np.array(oids + [versions[oid] for oid in oids], dtype=np.int64)
        raw = digest.tobytes()
        view.digest_cache = (view.stamp, digest, raw)
        return digest, raw

    def _collect_locked(
        self, view: _GossipView, floors: dict[int, int]
    ) -> dict | None:
        """Live entries the peer's floors say it is missing, columnar.

        Keys travel as one ``\\x1e``-joined string (one opaque, not one tag
        per key), lamports and origin ids as int64 ndarrays on the zero-copy
        XDR path — per-entry tag overhead is paid only for the value column,
        and even that collapses to a single ndarray when values are
        homogeneous numerics.  ``None`` when the peer is already caught up
        (the wire then carries one VOID tag).
        """
        full = not floors
        if full:
            # "peer has nothing" dominates while an epidemic spreads; the
            # full dump only changes when the stamp moves, so cache it
            cached = view.dump_cache
            if cached is not None and cached[0] == view.stamp:
                return cached[1]
        keys: list[str] = []
        values: list = []
        lamports: list[int] = []
        oids: list[int] = []
        versions = view.versions
        for oid, bucket in view.by_origin.items():
            floor = floors.get(oid, 0)
            if versions.get(oid, 0) <= floor:
                continue
            for key, entry in bucket.items():
                if entry.lamport > floor:
                    keys.append(key)
                    values.append(entry.value)
                    lamports.append(entry.lamport)
                    oids.append(oid)
        if not keys:
            batch = None
        else:
            batch = {
                "k": "\x1e".join(keys),
                "v": values,
                "l": np.asarray(lamports, dtype=np.int64),
                "o": np.asarray(oids, dtype=np.int64),
            }
        if full:
            view.dump_cache = (view.stamp, batch)
        return batch

    # -- the exchange ----------------------------------------------------------------

    def _packed(
        self, kind: str, digest: bytes, batch: dict | None, message: dict
    ) -> bytes:
        """``pack_value(message)``, packed once for every replica that says it.

        The name is the digest's bytes plus the versions the batch carries.
        Every ``(origin, lamport)`` is stamped by this protocol's one atomic
        clock and so names one entry; the clock itself scopes the name to
        this protocol, and the columns fix the batch's order.  Together they
        determine the bytes.
        """
        if batch is None:
            name = (self._clock, kind, digest)
        else:
            name = (
                self._clock, kind, digest,
                batch["l"].tobytes(), batch["o"].tobytes(),
            )
        return _TABLE.build(name, pack_value, message)

    def _sync_payload_locked(self, view: _GossipView) -> bytes:
        """The packed sync request for a replica, cached until its stamp moves."""
        cached = view.sync_cache
        if cached is not None and cached[0] == view.stamp:
            return cached[1]
        digest, raw = self._digest_locked(view)
        payload = self._packed("sync", raw, None, {"kind": "sync", "d": digest})
        view.sync_cache = (view.stamp, payload)
        return payload

    def _sync_same_fast(self, name: str, payload) -> bool:
        """True when an incoming sync request matches this replica byte-for-byte."""
        view = self._views.get(name)
        node = self.nodes.get(name)
        if view is None or node is None:
            return False
        with node.lock:
            return payload == self._sync_payload_locked(view)

    def _answer_sync(self, name: str, peer_digest) -> bytes:
        """Server side of push-pull, packed: my missing-for-you deltas + my digest.

        An ignorant peer gets the full dump: the same bytes for every such
        peer until this replica's stamp moves, so that answer is kept per
        stamp.
        """
        view = self._views.get(name)
        node = self.nodes.get(name)
        if view is None or node is None:
            # an evicted node's endpoint stays bound; answer as an empty
            # replica so a racing peer learns nothing rather than faulting
            return pack_value({"deltas": None, "d": np.empty(0, dtype=np.int64)})
        ignorant = peer_digest is None or len(peer_digest) == 0
        with node.lock:
            if ignorant:
                cached = view.reply_cache
                if cached is not None and cached[0] == view.stamp:
                    return cached[1]
            digest, raw = self._digest_locked(view)
            # identical digests (canonical order) = nothing to exchange:
            # one compare of raw bytes replaces the floors/collect machinery,
            # which is what keeps converged 10k-node rounds cheap
            if not ignorant and _same_digest(peer_digest, raw):
                return _SYNC_SAME
            deltas = self._collect_locked(view, _floors(peer_digest))
            payload = self._packed(
                "reply", raw, deltas, {"deltas": deltas, "d": digest}
            )
            if ignorant:
                view.reply_cache = (view.stamp, payload)
        return payload

    def _push_locked(
        self, view: _GossipView, digest: np.ndarray, raw: bytes, floors: dict[int, int]
    ) -> tuple[bytes, int] | None:
        """The packed ``deltas`` push for a peer at *floors*, and its entry count.

        ``None`` when the peer lacks nothing.  The full dump for an
        empty-floored peer is kept per stamp.
        """
        if not floors:
            cached = view.push_cache
            if cached is not None and cached[0] == view.stamp:
                return cached[1]
        batch = self._collect_locked(view, floors)
        if batch is None:
            result = None
        else:
            payload = self._packed(
                "deltas", raw, batch,
                {"kind": "deltas", "deltas": batch, "d": digest},
            )
            result = (payload, int(len(batch["l"])))
        if not floors:
            view.push_cache = (view.stamp, result)
        return result

    def _apply_deltas(self, name: str, batch, grant_digest) -> int:
        """Merge a columnar delta batch; floors advance only with a digest."""
        view = self._views.get(name)
        node = self.nodes.get(name)
        if view is None or node is None:
            return 0  # evicted mid-flight; drop the batch
        names = self._origin_names
        cache = self._entry_cache
        versions = view.versions
        applied = 0
        with node.lock:
            if batch:
                keys = batch["k"].split("\x1e")
                values = batch["v"]
                if isinstance(values, np.ndarray):
                    # a homogeneous-numeric value column packs as an ndarray;
                    # restore Python scalars so stored values keep their type
                    values = values.tolist()
                lamports = np.asarray(batch["l"]).tolist()
                oids = np.asarray(batch["o"]).tolist()
                store = node.store
                by_origin = view.by_origin
                for key, value, lamport, oid in zip(keys, values, lamports, oids):
                    if lamport <= versions.get(oid, 0):
                        # the floor already covers this version: the entry (or
                        # its superseder) is in the store — skip the merge
                        continue
                    entry = cache.get((oid, lamport))
                    fresh = entry is None
                    if fresh:
                        entry = StateEntry(key, value, lamport, names[oid])
                    if key not in store:
                        # fresh key: the dominant case while spreading —
                        # inline the absorb without the LWW machinery
                        store[key] = entry
                        bucket = by_origin.get(oid)
                        if bucket is None:
                            bucket = by_origin[oid] = {}
                        bucket[key] = entry
                    elif not self._absorb_locked(node, view, entry, oid):
                        continue
                    applied += 1
                    if fresh:
                        cache[(oid, lamport)] = entry
            if grant_digest is not None and len(grant_digest):
                # batched floor advance: one stamp bump and one totals-lock
                # acquisition per digest, not one per origin (the per-origin
                # path was 7M no-op calls per 10k round)
                gained = 0
                flat = np.asarray(grant_digest).tolist()
                half = len(flat) // 2
                for oid, high in zip(flat[:half], flat[half:]):
                    old = versions.get(oid, 0)
                    if high > old:
                        versions[oid] = high
                        gained += high - old
                if gained:
                    view.stamp += 1
                    view.digest_cache = None
                    view.total += gained
                    with self._totals_lock:
                        self._sum_totals += gained
        if applied:
            _DELTAS.inc(applied)
        return applied

    def _exchange(self, initiator: str, peer: str) -> int:
        """One push-pull anti-entropy exchange; returns entries transferred."""
        view = self._views[initiator]
        node = self.nodes[initiator]
        with node.lock:
            payload = self._sync_payload_locked(view)
        response = self._request(initiator, peer, TransportMessage(_CT, payload))
        if response.payload == _SYNC_SAME:
            # byte-compare fast path: no unpack when the pair already agrees
            _EXCHANGES.inc()
            return 0
        reply = _TABLE.decode(response.payload)
        if reply.get("same"):
            _EXCHANGES.inc()
            return 0
        peer_digest = reply.get("d")
        pulled = reply.get("deltas")
        transferred = self._apply_deltas(initiator, pulled, peer_digest)
        # push leg: whatever the peer's digest says it lacks from my
        # (now-merged) replica — skipped entirely when we already agree
        push = None
        with node.lock:
            my_digest, raw = self._digest_locked(view)
            if not _same_digest(peer_digest, raw):
                push = self._push_locked(view, my_digest, raw, _floors(peer_digest))
        if push is not None:
            self._request(initiator, peer, TransportMessage(_CT, push[0]))
            transferred += push[1]
        _EXCHANGES.inc()
        return transferred

    # -- rounds and convergence --------------------------------------------------------

    def _gossip_peers(self, index: int, members: list[str]) -> list[str]:
        n = len(members)
        fanout = min(self.fanout, n - 1)
        chosen: list[str] = []
        for _ in range(fanout):
            j = self._rng.randrange(n - 1)
            if j >= index:
                j += 1
            peer = members[j]
            if peer not in chosen:
                chosen.append(peer)
        return chosen

    def gossip_round(self) -> dict:
        """Every live member initiates ``fanout`` exchanges; one epidemic round."""
        members = list(self.members)
        stats = {"exchanges": 0, "entries": 0, "unreachable": 0, "down": 0}
        network = self.network
        for index, name in enumerate(members):
            if self._sum_totals == len(self._views) * self._origin_total:
                break  # fleet agreed mid-round: the rest would be no-ops
            if name not in self._views:
                continue  # evicted mid-round
            if not network.host(name).up:
                stats["down"] += 1
                continue
            for peer in self._gossip_peers(index, members):
                if peer not in self._views:
                    continue
                try:
                    stats["entries"] += self._exchange(name, peer)
                except _UNREACHABLE:
                    stats["unreachable"] += 1
                    _UNREACHED.inc()
                    continue
                stats["exchanges"] += 1
        self._rounds += 1
        _ROUNDS.inc()
        self._announce_convergence()
        return stats

    def converged(self) -> bool:
        """O(1): every replica's floor-sum equals members × origin ceilings."""
        n = len(self._views)
        if n == 0:
            return True
        return self._sum_totals == n * self._origin_total

    def run_until_converged(self, max_rounds: int = 64) -> int:
        """Gossip until the fleet agrees; returns the rounds taken."""
        rounds = 0
        while not self.converged():
            if rounds >= max_rounds:
                raise CoherencyError(
                    f"gossip did not converge within {max_rounds} rounds "
                    f"({len(self._views)} members, fanout={self.fanout})"
                )
            self.gossip_round()
            rounds += 1
        return rounds

    def quiesce(self, max_rounds: int = 16) -> bool:
        """Best-effort anti-entropy sweep: rounds until agreement or the cap.

        Unlike :meth:`run_until_converged` this never raises — unreachable
        members just leave the fleet unconverged for a later round (or the
        background pump) to finish.  The builder runs this after
        control-plane publications: deploys are rare, so paying a sweep
        there keeps every *read* local while lookups anywhere still see a
        fresh record (the C7 portability contract).
        """
        for _ in range(max_rounds):
            if self.converged():
                return True
            self.gossip_round()
        return self.converged()

    def _announce_convergence(self) -> None:
        now = self.converged()
        if now and not self._was_converged:
            _CONVERGED.inc()
            if self._bus is not None:
                self._bus.publish(
                    "dvm.gossip.converged",
                    {"rounds": self._rounds, "members": len(self._views)},
                    source=self._bus_source,
                )
        self._was_converged = now

    def bind_bus(self, events, source: str = "") -> None:
        """Publish ``dvm.gossip.converged`` transitions on *events*."""
        self._bus = events
        self._bus_source = source

    # -- periodic mode -------------------------------------------------------------

    def start(self, clock: Clock | None = None) -> None:
        """Run gossip rounds every ``interval_s`` on *clock* (by default a
        wall clock of the protocol's own)."""
        if self._timer is None:
            self._timer = (clock or WallClock()).every(
                self.interval_s, self.gossip_round, name="dvm.gossip.pump_errors"
            )

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None


class NeighborhoodGossipState(GossipState):
    """Gossip plus eager ring-neighbour pushes — the mesh regime.

    A write reaches the ``radius`` ring neighbours immediately (floors
    untouched: an eager push is opportunistic, only digest exchanges grant),
    then anti-entropy spreads it epidemic-fashion.  Costs more messages per
    write than pure gossip, converges in fewer rounds — the intermediate
    point on the C10 crossover curve.
    """

    scheme = "neighborhood-gossip"

    def __init__(
        self,
        network: VirtualNetwork,
        members: list[str] | None = None,
        radius: int = 2,
        **kwargs,
    ):
        if radius < 1:
            raise DvmError("neighborhood radius must be >= 1")
        self.radius = radius
        self._ring: list[str] = []
        super().__init__(network, members, **kwargs)
        self._ring = sorted(self.members)

    def _on_member_added(self, name: str, existing: list[str]) -> None:
        self._ring = sorted(self.members)
        super()._on_member_added(name, existing)

    def remove_member(self, name: str) -> None:
        super().remove_member(name)
        self._ring = sorted(self.members)

    neighbors = NeighborhoodState.neighbors

    def update(self, origin: str, key: str, value) -> StateEntry:
        entry = super().update(origin, key, value)
        oid = self._origin_ids[origin]
        batch = {
            "k": entry.key,
            "v": [entry.value],
            "l": np.asarray([entry.lamport], dtype=np.int64),
            "o": np.asarray([oid], dtype=np.int64),
        }
        for neighbor in self.neighbors(origin):
            try:
                self._send(origin, neighbor, {"kind": "deltas", "deltas": batch})
            except _UNREACHABLE:
                continue
        return entry

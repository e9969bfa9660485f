"""Deterministic simulated network fabric.

The paper's testbed is a heterogeneous collection of hosts spread over
multiple administrative domains; we don't have one.  ``netsim`` substitutes
a *cost-modelled* fabric: any number of virtual hosts in one process,
message delivery is a synchronous function call, but every message is
charged ``latency + size/bandwidth`` seconds of simulated time and counted
in per-link statistics.  Experiments C4 and C5 (state coherency, lookup
schemes) compare protocols by *simulated* cost — message counts and
simulated seconds — which is exactly what distinguishes full synchrony from
decentralized queries, independent of wall-clock noise.

Failure injection: hosts can be crashed and links partitioned, which the
C5 benchmark uses to demonstrate the centralized registry's single point of
failure.  Links can also be *flaky* rather than binary up/down: a
:class:`LinkModel` carries probabilistic message drop and duplication rates
(plus latency jitter), all drawn from the network's seeded RNG so lossy
runs stay reproducible.

Every exchange is a request and a reply.  A handler's failure crosses back
as a fault reply (:mod:`repro.util.faults`), never as a live exception:
:class:`VirtualHost` catches it, and the reply leg is charged and may be
dropped like any other.

Scale: the fabric is sized for 10k-host gossip sweeps (C10).  Link models
resolve exact pair → host-group pair → default, so a clustered topology
needs O(groups²) rules instead of O(hosts²) entries; partition membership
is an O(1) dict probe, not a scan over groups; each message leg takes one
lock round-trip; and per-pair :class:`LinkStats` can be switched off
(``detail_stats=False``) when only the totals matter.  An opt-in per-host
service-time model (:meth:`VirtualNetwork.set_service_time` +
:meth:`VirtualNetwork.begin_burst`) charges queueing delay when many
requests land on one host in a burst — how a centralized registry's
bottleneck becomes visible in simulated latency percentiles.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field, replace

from repro.encoding.xdr import pack_value, unpack_value
from repro.obs import metrics as _metrics
from repro.transport.base import RequestHandler, TransportMessage
from repro.util.errors import HarnessTimeoutError, TransportError
from repro.util.faults import fault_reply, raise_fault

__all__ = [
    "LinkModel",
    "LinkStats",
    "VirtualHost",
    "VirtualNetwork",
    "HostDownError",
    "MessageDroppedError",
    "FAULT_CT",
]

#: the content type of a fault reply, an XDR-packed ``fault_reply`` dict
FAULT_CT = "application/x-harness-fault"


class HostDownError(TransportError):
    """The destination host is crashed or unreachable (partitioned)."""


class MessageDroppedError(TransportError):
    """A message was lost on a lossy link.

    ``phase`` records where the loss happened: ``"request"`` means the
    message never reached the destination (the operation did *not* execute —
    retrying is always safe), ``"response"`` means the destination processed
    the request but the reply was lost (retrying is only safe for
    idempotent operations).
    """

    def __init__(self, src: str, dst: str, phase: str):
        super().__init__(f"message {src} -> {dst} dropped in {phase} phase")
        self.src = src
        self.dst = dst
        self.phase = phase


#: "this peer is effectively unreachable right now": a crashed or partitioned
#: host, or a message lost beyond the retry budget.  Every best-effort path
#: over the fabric (state reads and pushes, state transfer, registry floods,
#: replica pushes and fall-through) skips a peer failing with these.
_UNREACHABLE = (HostDownError, MessageDroppedError)


@dataclass(frozen=True)
class LinkModel:
    """Latency/bandwidth cost model for one direction of a link.

    ``cost(n)`` = ``latency_s + n / bandwidth_Bps`` (+ jitter drawn from a
    seeded RNG when ``jitter_s`` > 0, so runs stay reproducible).

    ``drop_rate`` / ``duplicate_rate`` make the link *flaky*: each message
    crossing it is independently lost (raising
    :class:`MessageDroppedError`) or delivered twice with the given
    probability, drawn from the owning network's seeded RNG.
    """

    latency_s: float = 1e-4
    bandwidth_Bps: float = 100e6  # ~100 MB/s LAN default
    jitter_s: float = 0.0
    drop_rate: float = 0.0
    duplicate_rate: float = 0.0

    def cost(self, nbytes: int, rng: random.Random | None = None) -> float:
        base = self.latency_s + nbytes / self.bandwidth_Bps
        if self.jitter_s and rng is not None:
            base += rng.uniform(0.0, self.jitter_s)
        return base


#: Within-host loopback: negligible but non-zero.
LOOPBACK = LinkModel(latency_s=1e-6, bandwidth_Bps=5e9)


@dataclass
class LinkStats:
    """Accumulated traffic on one (src, dst) host pair."""

    messages: int = 0
    bytes: int = 0
    simulated_s: float = 0.0


class VirtualHost:
    """One simulated machine: named endpoints plus an up/down flag."""

    def __init__(self, name: str):
        self.name = name
        self._endpoints: dict[str, RequestHandler] = {}
        self.up = True

    def bind(self, endpoint: str, handler: RequestHandler) -> str:
        """Expose *handler* as ``sim://<host>/<endpoint>``; returns the URL."""
        if endpoint in self._endpoints:
            raise TransportError(f"endpoint {endpoint!r} already bound on {self.name}")
        self._endpoints[endpoint] = handler
        return f"sim://{self.name}/{endpoint}"

    def unbind(self, endpoint: str) -> None:
        self._endpoints.pop(endpoint, None)

    def crash(self) -> None:
        """Take the host down: all messages to it fail until :meth:`restart`."""
        self.up = False

    def restart(self) -> None:
        self.up = True

    def _dispatch(self, endpoint: str, message: TransportMessage) -> TransportMessage:
        """The endpoint's reply, or a fault reply for whatever it raised."""
        try:
            handler = self._endpoints.get(endpoint)
            if handler is None:
                raise TransportError(f"host {self.name} has no endpoint {endpoint!r}")
            return handler(message)
        except Exception as exc:
            _metrics.registry.count_error("netsim.faults", exc)
            return TransportMessage(FAULT_CT, pack_value(fault_reply(exc)))


class VirtualNetwork:
    """The fabric: hosts, links, partitions, and global traffic accounting."""

    def __init__(
        self,
        default_link: LinkModel | None = None,
        seed: int = 0,
        detail_stats: bool = True,
    ):
        self._hosts: dict[str, VirtualHost] = {}
        self._links: dict[tuple[str, str], LinkModel] = {}
        self._groups: dict[str, str] = {}
        self._group_links: dict[tuple[str, str], LinkModel] = {}
        self._default_link = default_link or LinkModel()
        self._partition_of: dict[str, int] = {}
        self._service: dict[str, float] = {}
        self._queue_depth: dict[str, int] = {}
        self._rng = random.Random(seed)
        self._lock = threading.RLock()
        #: per-(src, dst) LinkStats; skipped entirely when False so 10k-host
        #: sweeps don't grow an O(pairs) dict (totals are still maintained)
        self.detail_stats = detail_stats
        self.stats: dict[tuple[str, str], LinkStats] = {}
        self.simulated_time = 0.0
        self.total_messages = 0
        self.total_bytes = 0

    # -- topology ---------------------------------------------------------------

    def add_host(self, name: str) -> VirtualHost:
        with self._lock:
            if name in self._hosts:
                raise TransportError(f"duplicate host name {name!r}")
            host = VirtualHost(name)
            self._hosts[name] = host
            return host

    def host(self, name: str) -> VirtualHost:
        try:
            return self._hosts[name]
        except KeyError:
            raise TransportError(f"unknown host {name!r}") from None

    def hosts(self) -> list[VirtualHost]:
        return list(self._hosts.values())

    def set_link(self, src: str, dst: str, model: LinkModel, symmetric: bool = True) -> None:
        """Override the cost model between two hosts."""
        self.set_links([(src, dst)], model, symmetric)

    def set_links(
        self,
        pairs: "list[tuple[str, str]]",
        model: LinkModel,
        symmetric: bool = True,
    ) -> None:
        """Override many host pairs under one lock round-trip (bulk builders)."""
        with self._lock:
            links = self._links
            for src, dst in pairs:
                links[(src, dst)] = model
                if symmetric:
                    links[(dst, src)] = model

    def assign_group(self, host: str, group: str) -> None:
        """Tag *host* with a link group (see :meth:`set_group_link`)."""
        with self._lock:
            self._groups[host] = group

    def set_group_link(
        self, src_group: str, dst_group: str, model: LinkModel, symmetric: bool = True
    ) -> None:
        """Cost model between two host groups — one rule instead of O(n²) pairs.

        Resolution order is exact pair → group pair → network default, so a
        clustered topology declares cluster-internal links with a single rule
        and per-pair overrides (e.g. fault injection) still win.
        """
        with self._lock:
            self._group_links[(src_group, dst_group)] = model
            if symmetric:
                self._group_links[(dst_group, src_group)] = model

    def link_model(self, src: str, dst: str) -> LinkModel:
        if src == dst:
            return LOOPBACK
        model = self._links.get((src, dst))
        if model is not None:
            return model
        if self._group_links:
            src_group = self._groups.get(src)
            if src_group is not None:
                dst_group = self._groups.get(dst)
                if dst_group is not None:
                    model = self._group_links.get((src_group, dst_group))
                    if model is not None:
                        return model
        return self._default_link

    def set_link_faults(
        self,
        src: str,
        dst: str,
        drop_rate: float = 0.0,
        duplicate_rate: float = 0.0,
        jitter_s: float = 0.0,
        symmetric: bool = True,
    ) -> None:
        """Make a link flaky, keeping its existing latency/bandwidth model."""
        for a, b in ((src, dst), (dst, src)) if symmetric else ((src, dst),):
            model = replace(
                self.link_model(a, b),
                drop_rate=drop_rate,
                duplicate_rate=duplicate_rate,
                jitter_s=jitter_s,
            )
            self.set_link(a, b, model, symmetric=False)

    def set_default_faults(
        self, drop_rate: float = 0.0, duplicate_rate: float = 0.0, jitter_s: float = 0.0
    ) -> None:
        """Make every link without an explicit override flaky."""
        with self._lock:
            self._default_link = replace(
                self._default_link,
                drop_rate=drop_rate,
                duplicate_rate=duplicate_rate,
                jitter_s=jitter_s,
            )

    # -- partitions --------------------------------------------------------------

    def partition(self, *groups: set[str] | list[str]) -> None:
        """Split the network: hosts can only reach others in their group."""
        with self._lock:
            # host → index of the first group containing it: reachability
            # becomes two dict probes instead of a scan over the groups
            partition_of: dict[str, int] = {}
            for index, group in enumerate(groups):
                for host in group:
                    partition_of.setdefault(host, index)
            self._partition_of = partition_of

    def heal(self) -> None:
        """Remove all partitions."""
        with self._lock:
            self._partition_of = {}

    def _reachable(self, src: str, dst: str) -> bool:
        """Whether a partition lets *src* reach *dst* (call only while one is set)."""
        src_part = self._partition_of.get(src)
        if src_part is None:
            # src not in any group: unrestricted
            return True
        return self._partition_of.get(dst) == src_part

    # -- messaging ---------------------------------------------------------------

    def request(
        self,
        src: str,
        dst: str,
        endpoint: str,
        message: TransportMessage,
        timeout: float | None = None,
    ) -> TransportMessage:
        """Synchronous request/response with cost accounting both ways.

        Flaky links may drop either leg (:class:`MessageDroppedError`) or
        duplicate the request — the handler then runs twice, which is what
        exercises idempotency downstream.  When *timeout* is given and the
        simulated round-trip exceeds it, :class:`HarnessTimeoutError` is
        raised *after* dispatch: the destination did the work, the caller
        just gave up waiting, exactly the ambiguity real timeouts carry.

        A handler's failure is a reply too, charged and drawn like any other,
        then raised here (:mod:`repro.util.faults`; default TransportError).
        """
        n_request = len(message.payload)
        duplicated = False
        # One lock round-trip covers the whole forward leg: charge, liveness
        # and partition checks, drop/duplicate draws.  RNG draw order matches
        # the historical per-helper path (jitter → drop → duplicate) so
        # seeded fault patterns are stable across the refactor.
        with self._lock:
            forward = self.link_model(src, dst)
            elapsed = self._account(src, dst, n_request, forward)
            target = self._hosts.get(dst)
            if target is None:
                raise TransportError(f"unknown host {dst!r}")
            if not target.up:
                raise HostDownError(f"host {dst} is down")
            if self._partition_of and not self._reachable(src, dst):
                raise HostDownError(f"{src} and {dst} are partitioned")
            if forward.drop_rate and self._rng.random() < forward.drop_rate:
                raise MessageDroppedError(src, dst, "request")
            if forward.duplicate_rate and self._rng.random() < forward.duplicate_rate:
                elapsed += self._account(src, dst, n_request, forward)
                duplicated = True
        if duplicated:
            target._dispatch(endpoint, message)  # duplicate delivery; reply discarded
        response = target._dispatch(endpoint, message)
        if self._service:
            elapsed += self._serve_cost(dst)
        with self._lock:
            backward = self.link_model(dst, src)
            elapsed += self._account(dst, src, len(response.payload), backward)
            if backward.drop_rate and self._rng.random() < backward.drop_rate:
                raise MessageDroppedError(dst, src, "response")
        if timeout is not None and elapsed > timeout:
            raise HarnessTimeoutError(
                f"request {src} -> {dst}/{endpoint} took {elapsed:.6f}s simulated "
                f"(timeout {timeout:.6f}s)"
            )
        if response.content_type == FAULT_CT:
            raise_fault(unpack_value(response.payload), TransportError)
        return response

    # -- service-time model -------------------------------------------------------

    def set_service_time(self, host: str, seconds: float) -> None:
        """Charge *seconds* of server time per request handled by *host*.

        Opt-in (zero cost when unused).  Combined with :meth:`begin_burst`
        this models queueing: the k-th request of a burst landing on one host
        waits behind the k−1 before it, so a centralized bottleneck shows up
        in simulated latency while sharded load stays flat.
        """
        with self._lock:
            if seconds <= 0:
                self._service.pop(host, None)
            else:
                self._service[host] = float(seconds)

    def begin_burst(self) -> None:
        """Reset queue depths: subsequent requests form one concurrent burst."""
        with self._lock:
            self._queue_depth.clear()

    def _serve_cost(self, dst: str) -> float:
        with self._lock:
            service_s = self._service.get(dst)
            if service_s is None:
                return 0.0
            depth = self._queue_depth.get(dst, 0)
            self._queue_depth[dst] = depth + 1
            cost = service_s * (depth + 1)
            self.simulated_time += cost
            return cost

    # -- accounting ---------------------------------------------------------------

    def charge(self, src: str, dst: str, nbytes: int) -> float:
        """Account a raw transfer without endpoint dispatch (bulk moves)."""
        with self._lock:
            return self._account(src, dst, nbytes, self.link_model(src, dst))

    def _account(
        self, src: str, dst: str, nbytes: int, model: LinkModel
    ) -> float:
        """Charge one message to the books; caller holds the lock."""
        cost = model.cost(nbytes, self._rng)
        if self.detail_stats:
            stats = self.stats.get((src, dst))
            if stats is None:
                stats = self.stats[(src, dst)] = LinkStats()
            stats.messages += 1
            stats.bytes += nbytes
            stats.simulated_s += cost
        self.simulated_time += cost
        self.total_messages += 1
        self.total_bytes += nbytes
        return cost

    def reset_stats(self) -> None:
        """Zero the accounting (between benchmark phases)."""
        with self._lock:
            self.stats.clear()
            self.simulated_time = 0.0
            self.total_messages = 0
            self.total_bytes = 0

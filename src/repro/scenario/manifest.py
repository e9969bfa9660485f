"""Declarative fault-scenario manifests.

A manifest is one JSON document that declares everything a chaos run needs:

* a **topology** — which :mod:`repro.netsim.topology` builder to use and how
  many hosts it gets;
* the **services** deployed on it and whether they are ``restartable``;
* a **workload mix** — which operations are fired at which service, from
  which nodes, at what per-tick rate, under which invocation policy;
* a timed **fault script** — ``kill node1 @ t=2s``, ``partition A/B @ 4s``,
  ``heal @ 6s``, jitter bursts, lossy links, slow consumers, blackholes;
* **pass criteria** expressed as named invariant checkers (see
  :mod:`repro.scenario.checks`).

Each key is stated once.  A section's keys, defaults and value types are
its spec dataclass's fields (read by :func:`_build`); a fault's or check's
parameters are the keyword-only signature of its handler in
:mod:`~repro.scenario.faults` or :mod:`~repro.scenario.checks`; the
vocabularies of coherency schemes, mailbox modes and invocation policies
are imported from the modules that own them.

Parsing is strict: unknown or missing keys, values that do not convert,
unknown fault actions and check names, and fault or check parameters that
do not bind are :class:`~repro.util.errors.ScenarioError`\\ s at load time,
not silent no-ops at t=8s of a soak run.  Every field that feeds a random
decision is seeded from the manifest's single ``seed``, which is what makes
a re-run byte-identical (see DESIGN.md §11).
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, field, fields, replace
from inspect import signature
from pathlib import Path
from typing import Any, Callable, Mapping

from repro.bindings.policy import InvocationPolicy
from repro.core.builder import COHERENCY_SCHEMES
from repro.messaging.broker import DELIVERY_MODES, OVERFLOW_POLICIES
from repro.netsim import topology as _topology
from repro.scenario.checks import CHECKERS
from repro.scenario.faults import FAULT_CHECKS, FAULT_HANDLERS
from repro.transport.reactor import ReactorListener
from repro.util.errors import ScenarioError

__all__ = [
    "ScenarioManifest",
    "TopologySpec",
    "DvmSpec",
    "ServiceSpec",
    "SelfHealingSpec",
    "OpSpec",
    "MailboxSpec",
    "WorkloadSpec",
    "FaultAction",
    "CheckSpec",
    "parse_manifest",
    "load_manifest",
    "TOPOLOGIES",
]

#: topology kind → builder of its network from a TopologySpec and the seed
TOPOLOGIES: dict[str, Callable] = {
    "lan": lambda spec, seed: _topology.lan(spec.hosts, seed=seed),
    "wan": lambda spec, seed: _topology.wan(spec.hosts, seed=seed),
    "two_clusters": lambda spec, seed: _topology.two_clusters(spec.per_cluster, seed=seed),
    "mesh": lambda spec, seed: _topology.mesh_neighborhoods(
        spec.hosts, spec.neighborhood, seed=seed
    ),
    "random_regular": lambda spec, seed: _topology.random_regular(
        spec.hosts, spec.degree, seed=seed
    ),
}

#: reactor-listener knobs a ``mode="reactor"`` workload may configure
_SERVER_KEYS = frozenset({"workers", "queue_max", "per_conn_max", "read_deadline_s"})


def _strict(mapping: Mapping, where: str, allowed, required=()) -> None:
    """Reject unknown or missing keys — manifest typos must fail loudly."""
    if not isinstance(mapping, Mapping):
        raise ScenarioError(f"{where} must be a mapping, got {type(mapping).__name__}")
    unknown = set(mapping) - set(allowed)
    if unknown:
        raise ScenarioError(f"{where}: unknown keys {sorted(unknown)}")
    missing = set(required) - set(mapping)
    if missing:
        raise ScenarioError(f"{where}: missing required keys {sorted(missing)}")


def _array(value) -> tuple:
    """A list-valued field takes a JSON array, never a string's characters."""
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"want a JSON array, got {type(value).__name__}")
    return tuple(value)


def _each(parse: Callable) -> Callable:
    """Converter of a JSON array of sections, each parsed by *parse*."""
    return lambda value: tuple(parse(item) for item in _array(value))


def _convert(where: str, key: str, value, to: Callable):
    try:
        return to(value)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{where}: bad value {value!r} for {key!r} ({exc})") from None


def _build(cls, data: Mapping, where: str, **convert):
    """Build the spec dataclass *cls* from the manifest section *data*.

    The fields state the schema: their names are the allowed keys, a field
    without a default is required, and an absent key takes the default.  A
    given value goes through its converter in *convert*, else through the
    type of the default (a JSON array for a tuple, text for a required
    field); null stays null where the default is None.
    """
    specs = {f.name: f for f in fields(cls)}
    required = [
        name
        for name, f in specs.items()
        if f.default is MISSING and f.default_factory is MISSING
    ]
    _strict(data, where, specs, required)
    values = {}
    for key, value in data.items():
        default = specs[key].default
        if value is None and default is None:
            values[key] = None
            continue
        if key in convert:
            to = convert[key]
        elif default is MISSING:
            to = str
        elif isinstance(default, tuple):
            to = _array
        else:
            to = type(default)
        values[key] = _convert(where, key, value, to)
    try:
        return cls(**values)
    except ValueError as exc:  # the dataclass's own __post_init__ checks
        raise ScenarioError(f"{where}: {exc}") from None


def _bind(fn: Callable, params: Mapping, where: str) -> None:
    """Check *params* against the keyword-only parameters of the handler
    *fn*: they are its allowed keys, and those without a default required."""
    _, *takes = signature(fn).parameters.values()
    _strict(
        params,
        where,
        [p.name for p in takes],
        [p.name for p in takes if p.default is p.empty],
    )


@dataclass(frozen=True)
class TopologySpec:
    """Which netsim topology builder to run and its shape parameters."""

    kind: str = "lan"
    hosts: int = 3
    neighborhood: int = 2  # mesh only
    per_cluster: int = 2  # two_clusters only
    degree: int = 4  # random_regular only

    @classmethod
    def from_dict(cls, data: Mapping) -> "TopologySpec":
        spec = _build(cls, data, "topology")
        if spec.kind not in TOPOLOGIES:
            raise ScenarioError(
                f"topology: unknown kind {spec.kind!r} (choose from {tuple(TOPOLOGIES)})"
            )
        if spec.kind == "two_clusters":
            if spec.per_cluster < 1:
                raise ScenarioError("topology: per_cluster must be >= 1")
        elif spec.hosts < 1:
            raise ScenarioError("topology: hosts must be >= 1")
        if spec.kind == "random_regular":
            if spec.degree < 1 or spec.degree >= spec.hosts:
                raise ScenarioError("topology: need 1 <= degree < hosts")
            if (spec.hosts * spec.degree) % 2:
                raise ScenarioError("topology: hosts*degree must be even")
        return spec


@dataclass(frozen=True)
class DvmSpec:
    """DVM construction knobs: coherency scheme and lookup-cache TTL."""

    coherency: str = "full-synchrony"
    neighborhood_radius: int = 2
    gossip_fanout: int = 2
    lookup_cache_ttl_s: float = 2.0

    @classmethod
    def from_dict(cls, data: Mapping) -> "DvmSpec":
        spec = _build(cls, data, "dvm")
        if spec.coherency not in COHERENCY_SCHEMES:
            raise ScenarioError(f"dvm: unknown coherency scheme {spec.coherency!r}")
        if spec.gossip_fanout < 1:
            raise ScenarioError("dvm: gossip_fanout must be >= 1")
        return spec


@dataclass(frozen=True)
class ServiceSpec:
    """One component deployment: import path, home node, restartability."""

    name: str
    type: str  # ``pkg.module:Class``
    node: str
    restartable: bool = False
    bindings: tuple[str, ...] = ("local-instance", "sim")

    @classmethod
    def from_dict(cls, data: Mapping) -> "ServiceSpec":
        spec = _build(cls, data, "service")
        if ":" not in spec.type:
            raise ScenarioError(f"service {spec.name!r}: type must be 'pkg.module:Class'")
        return spec


@dataclass(frozen=True)
class SelfHealingSpec:
    """Detector/failover configuration, cadenced in ticks for determinism."""

    enabled: bool = True
    observer: str | None = None
    suspect_after: int = 2
    evict_after: int = 3
    heartbeat_every_ticks: int = 1
    checkpoint_every_ticks: int = 1
    indirect_probes: int = 0
    sample: int | None = None
    coalesce_after: int = 8

    @classmethod
    def from_dict(cls, data: Mapping) -> "SelfHealingSpec":
        spec = _build(cls, data, "self_healing", observer=str, sample=int)
        if spec.heartbeat_every_ticks < 1 or spec.checkpoint_every_ticks < 1:
            raise ScenarioError("self_healing: cadences must be >= 1 tick")
        if spec.indirect_probes < 0:
            raise ScenarioError("self_healing: indirect_probes must be >= 0")
        if spec.sample is not None and spec.sample < 1:
            raise ScenarioError("self_healing: sample must be >= 1 (or omitted)")
        if spec.coalesce_after < 1:
            raise ScenarioError("self_healing: coalesce_after must be >= 1")
        return spec


@dataclass(frozen=True)
class OpSpec:
    """One entry of the workload mix: operation, args, relative weight."""

    op: str
    args: tuple = ()
    weight: float = 1.0

    @classmethod
    def from_dict(cls, data: Mapping) -> "OpSpec":
        spec = _build(cls, data, "workload op")
        if spec.weight <= 0:
            raise ScenarioError(f"workload op {spec.op!r}: weight must be > 0")
        return spec


@dataclass(frozen=True)
class MailboxSpec:
    """The mailbox a ``mode="mailbox"`` workload declares on its broker."""

    mode: str = "first-reader"
    capacity: int = 64
    overflow: str = "reject"

    @classmethod
    def from_dict(cls, data: Mapping) -> "MailboxSpec":
        spec = _build(cls, data, "workload mailbox")
        if spec.mode not in DELIVERY_MODES:
            raise ScenarioError(
                f"workload mailbox: unknown mode {spec.mode!r} "
                f"(choose from {DELIVERY_MODES})"
            )
        if spec.overflow not in OVERFLOW_POLICIES:
            raise ScenarioError(
                f"workload mailbox: unknown overflow {spec.overflow!r} "
                f"(choose from {OVERFLOW_POLICIES})"
            )
        return spec


def _policy(data: Mapping) -> dict:
    """Raw :class:`~repro.bindings.policy.InvocationPolicy` kwargs, checked
    by building one."""
    _build(InvocationPolicy, data, "workload policy", deadline_s=float)
    return {"jitter": 0.0, **data}  # keep retry schedules seeded-deterministic


def _server(data: Mapping) -> dict:
    """Reactor-listener knobs, each converted to the type of the listener's
    default for it."""
    _strict(data, "workload server", _SERVER_KEYS)
    takes = signature(ReactorListener).parameters
    return {
        key: _convert("workload server", key, value, type(takes[key].default))
        for key, value in data.items()
    }


def _only(mode: str, **default) -> Any:
    """A workload field that only ``mode=<mode>`` may set."""
    return field(**default, metadata={"mode": mode})


@dataclass(frozen=True)
class WorkloadSpec:
    """The traffic a scenario drives while faults play out.

    ``mode="rpc"`` invokes operations on a stub; ``mode="lookup"`` performs
    DVM namespace lookups (``ops`` are ignored) — the thundering-herd shape.
    ``mode="shard_lookup"`` drives by-name queries against a
    :class:`~repro.registry.sharded.ShardedRegistry` built over the same
    fabric (``replication`` owners per name); killing a shard owner mid-run
    exercises the replica-fallback path.
    ``mode="reactor"`` bypasses the simulated fabric entirely and drives a
    *real* reactor listener (:mod:`repro.transport.reactor`) with
    ``concurrency`` blocking caller threads per tick; ``server`` holds the
    listener's capacity knobs (``workers``/``queue_max``/``per_conn_max``/
    ``read_deadline_s``) and the manifest must set ``wall: true`` since
    real sockets do not run on a virtual clock.
    ``mode="mailbox"`` runs a messaging broker
    (:class:`~repro.messaging.bindings.SimMailboxHost` on ``broker_node``)
    over the fabric: ``from_nodes`` publish ``calls_per_tick`` messages per
    tick into the mailbox named by ``service`` and each node in
    ``consumers`` drains up to ``consume_per_tick`` per tick, acking
    ``ack_delay_ticks`` ticks later (>0 keeps deliveries in-flight so a
    consumer crash leaves unacked messages to redeliver).  ``mailbox``
    declares the queue (:class:`MailboxSpec`) and ``lease_s`` is the
    consumer-liveness lease in scenario seconds.
    ``policy`` holds raw :class:`~repro.bindings.policy.InvocationPolicy`
    kwargs; ``jitter`` defaults to 0.0 here (not the library default) so the
    retry schedule never consults an unseeded RNG.
    A field made with :func:`_only` may be set only in its mode.
    """

    service: str
    from_nodes: tuple[str, ...]
    calls_per_tick: int = 1
    mode: str = "rpc"
    ops: tuple[OpSpec, ...] = ()
    resilient: bool = False
    policy: Mapping[str, Any] | None = None
    concurrency: int = 16
    server: Mapping[str, Any] | None = None
    call_timeout_s: float = 5.0
    replication: int = _only("shard_lookup", default=2)
    broker_node: str = _only("mailbox", default="")
    consumers: tuple[str, ...] = _only("mailbox", default=())
    consume_per_tick: int = _only("mailbox", default=1)
    ack_delay_ticks: int = _only("mailbox", default=0)
    lease_s: float | None = _only("mailbox", default=2.0)
    mailbox: MailboxSpec = _only("mailbox", default_factory=MailboxSpec)

    @classmethod
    def from_dict(cls, data: Mapping) -> "WorkloadSpec":
        spec = _build(
            cls,
            data,
            "workload",
            from_nodes=_array,
            ops=_each(OpSpec.from_dict),
            policy=_policy,
            server=_server,
            lease_s=lambda value: value if value is None else float(value),
            mailbox=MailboxSpec.from_dict,
        )
        if spec.mode not in ("rpc", "lookup", "reactor", "shard_lookup", "mailbox"):
            raise ScenarioError(f"workload: unknown mode {spec.mode!r}")
        for f in fields(cls):
            needs = f.metadata.get("mode", spec.mode)
            if f.name in data and needs != spec.mode:
                raise ScenarioError(f"workload: {f.name!r} needs mode={needs!r}")
        if spec.server is not None and spec.mode != "reactor":
            raise ScenarioError("workload: 'server' knobs need mode='reactor'")
        if spec.mode in ("rpc", "reactor") and not spec.ops:
            raise ScenarioError(f"workload: {spec.mode} mode needs at least one op")
        if not spec.from_nodes:
            raise ScenarioError("workload: from_nodes must not be empty")
        if spec.calls_per_tick < 1:
            raise ScenarioError("workload: calls_per_tick must be >= 1")
        if spec.concurrency < 1:
            raise ScenarioError("workload: concurrency must be >= 1")
        if spec.call_timeout_s <= 0:
            raise ScenarioError("workload: call_timeout_s must be positive")
        if spec.replication < 1:
            raise ScenarioError("workload: replication must be >= 1")
        if spec.mode == "mailbox":
            if not spec.broker_node:
                raise ScenarioError("workload: mailbox mode needs 'broker_node'")
            if not spec.consumers:
                raise ScenarioError("workload: mailbox mode needs 'consumers'")
            if spec.consume_per_tick < 1:
                raise ScenarioError("workload: consume_per_tick must be >= 1")
            if spec.ack_delay_ticks < 0:
                raise ScenarioError("workload: ack_delay_ticks must be >= 0")
            if spec.lease_s is not None and spec.lease_s <= 0:
                raise ScenarioError("workload: lease_s must be positive (or null)")
        return spec


@dataclass(frozen=True)
class FaultAction:
    """One timed entry of the fault script: do *action* at *at* seconds."""

    at: float
    action: str
    params: Mapping[str, Any] = field(default_factory=dict)

    @classmethod
    def from_dict(cls, data: Mapping) -> "FaultAction":
        if not isinstance(data, Mapping) or "at" not in data or "action" not in data:
            raise ScenarioError(f"fault entries need 'at' and 'action': {data!r}")
        action = str(data["action"])
        if action not in FAULT_HANDLERS:
            raise ScenarioError(
                f"unknown fault action {action!r} (choose from {sorted(FAULT_HANDLERS)})"
            )
        at = _convert(f"fault {action!r}", "at", data["at"], float)
        if at < 0:
            raise ScenarioError(f"fault {action!r}: 'at' must be >= 0")
        params = {k: v for k, v in data.items() if k not in ("at", "action")}
        _bind(FAULT_HANDLERS[action], params, f"fault {action!r}")
        check = FAULT_CHECKS.get(action)
        if check is not None:
            check(**params)
        return cls(at=at, action=action, params=params)


@dataclass(frozen=True)
class CheckSpec:
    """One named invariant checker plus its parameters."""

    check: str
    params: Mapping[str, Any] = field(default_factory=dict)

    @classmethod
    def from_dict(cls, data: Mapping) -> "CheckSpec":
        if not isinstance(data, Mapping) or "check" not in data:
            raise ScenarioError(f"check entries need a 'check' name: {data!r}")
        check = str(data["check"])
        if check not in CHECKERS:
            raise ScenarioError(f"unknown check {check!r} (choose from {sorted(CHECKERS)})")
        params = {k: v for k, v in data.items() if k != "check"}
        _bind(CHECKERS[check], params, f"check {check!r}")
        return cls(check=check, params=params)


@dataclass(frozen=True)
class ScenarioManifest:
    """A fully parsed, validated chaos scenario."""

    name: str
    description: str = ""
    claim: str = ""
    seed: int = 0
    #: run on the real clock with real sockets — such scenarios are
    #: *not* byte-identical across runs, so the soak harness skips the
    #: determinism re-run for them (see library.run_all)
    wall: bool = False
    duration_s: float = 10.0
    tick_s: float = 0.5
    settle_ticks: int = 0
    topology: TopologySpec = field(default_factory=TopologySpec)
    dvm: DvmSpec = field(default_factory=DvmSpec)
    services: tuple[ServiceSpec, ...] = ()
    self_healing: SelfHealingSpec = field(default_factory=SelfHealingSpec)
    workload: WorkloadSpec | None = None
    faults: tuple[FaultAction, ...] = ()
    checks: tuple[CheckSpec, ...] = ()

    @property
    def n_ticks(self) -> int:
        """Timeline length in ticks (duration rounded to whole ticks)."""
        return max(1, round(self.duration_s / self.tick_s))

    def with_seed(self, seed: int) -> "ScenarioManifest":
        """A copy of this manifest running under a different seed."""
        return replace(self, seed=int(seed))


def parse_manifest(data: Mapping) -> ScenarioManifest:
    """Build a validated :class:`ScenarioManifest` from a plain mapping."""
    manifest = _build(
        ScenarioManifest,
        data,
        "manifest",
        topology=TopologySpec.from_dict,
        dvm=DvmSpec.from_dict,
        services=_each(ServiceSpec.from_dict),
        self_healing=SelfHealingSpec.from_dict,
        workload=WorkloadSpec.from_dict,
        faults=lambda value: tuple(
            sorted(_each(FaultAction.from_dict)(value), key=lambda f: f.at)
        ),
        checks=_each(CheckSpec.from_dict),
    )
    if manifest.duration_s <= 0 or manifest.tick_s <= 0:
        raise ScenarioError("duration_s and tick_s must be positive")
    if (
        manifest.workload is not None
        and manifest.workload.mode == "reactor"
        and not manifest.wall
    ):
        raise ScenarioError(
            "workload mode 'reactor' drives real sockets; set \"wall\": true"
        )
    if manifest.settle_ticks < 0:
        raise ScenarioError("settle_ticks must be >= 0")
    for fault in manifest.faults:
        if fault.at > manifest.duration_s:
            raise ScenarioError(
                f"fault {fault.action!r} at t={fault.at}s lands after "
                f"duration {manifest.duration_s}s"
            )
    return manifest


def load_manifest(path: str | Path) -> ScenarioManifest:
    """Load a manifest from a JSON file."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path.name}: invalid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ScenarioError(f"{path.name}: manifest must be a mapping")
    return parse_manifest(data)

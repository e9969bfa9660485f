"""The fault-script vocabulary: named actions applied to a running scenario.

Each action is a small function taking the live
:class:`~repro.scenario.runner.ScenarioRuntime`; its keyword-only
parameters are the action's manifest keys, which the manifest parser binds
at load time, so a misspelled or missing one fails before the run.  The runner publishes every application as a
``scenario.fault`` event *before* applying it, so the audit trail shows the
injection and its consequences (detector transitions, breaker flips,
failovers) as one correlated sequence.

Vocabulary:

``kill``
    Crash a host: every message to it raises ``HostDownError``.
``restart``
    Bring a crashed host back; with ``rejoin`` (default true) an evicted
    node is re-enrolled into the DVM with a fresh kernel.
``partition`` / ``heal``
    Split the fabric into named groups / remove all partitions.
``link_faults`` / ``default_faults``
    Make one link (or every defaulted link) lossy: drop/duplicate/jitter.
``slow_link`` / ``slow_node``
    Degrade latency/bandwidth of one link, or of every link touching a
    node — the *slow consumer* shape.
``blackhole`` / ``unblackhole``
    Silently drop all traffic to and from a node while it stays "up" —
    unlike ``kill`` there is no crisp connection-refused signal, which is
    what exercises timeout paths and registry-blackhole lookups.
``reactor_capacity``
    Reconfigure the live reactor listener's admission controller
    (``queue_max`` / ``per_conn_max``) mid-run — only meaningful with
    ``workload.mode == "reactor"``, where real sockets hit a real
    event-loop server and shed requests surface as ``ServerBusyError``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Mapping

from repro.util.errors import ScenarioError

__all__ = ["apply_fault", "fault_handler", "FAULT_HANDLERS"]

FAULT_HANDLERS: dict[str, Callable] = {}

#: action → check of its parameter values that needs no runtime, made by
#: ``parse_manifest`` at load and again when the fault fires
FAULT_CHECKS: dict[str, Callable] = {}


def fault_handler(name: str, check: Callable | None = None) -> Callable:
    """Register an action implementation under *name*; *check*, called with
    the action's parameters, raises :class:`ScenarioError` on values the
    action cannot take."""

    def register(fn: Callable) -> Callable:
        FAULT_HANDLERS[name] = fn
        if check is not None:
            FAULT_CHECKS[name] = check
        return fn

    return register


def apply_fault(runtime, action: str, params: Mapping) -> None:
    """Apply *action* to *runtime*; unknown actions are typed errors."""
    handler = FAULT_HANDLERS.get(action)
    if handler is None:
        raise ScenarioError(f"unknown fault action {action!r}")
    check = FAULT_CHECKS.get(action)
    if check is not None:
        check(**params)
    handler(runtime, **params)


@fault_handler("kill")
def _kill(runtime, *, node) -> None:
    runtime.network.host(node).crash()


@fault_handler("restart")
def _restart(runtime, *, node, rejoin=True) -> None:
    runtime.network.host(node).restart()
    if rejoin:
        runtime.rejoin(node)


def _some_groups(*, groups) -> None:
    if not groups:
        raise ScenarioError("partition fault needs non-empty 'groups'")


@fault_handler("partition", check=_some_groups)
def _partition(runtime, *, groups) -> None:
    runtime.network.partition(*[set(group) for group in groups])


@fault_handler("heal")
def _heal(runtime) -> None:
    runtime.network.heal()


@fault_handler("link_faults")
def _link_faults(
    runtime, *, src, dst, drop_rate=0.0, duplicate_rate=0.0, jitter_s=0.0, symmetric=True
) -> None:
    runtime.network.set_link_faults(
        src,
        dst,
        drop_rate=float(drop_rate),
        duplicate_rate=float(duplicate_rate),
        jitter_s=float(jitter_s),
        symmetric=bool(symmetric),
    )


@fault_handler("default_faults")
def _default_faults(runtime, *, drop_rate=0.0, duplicate_rate=0.0, jitter_s=0.0) -> None:
    runtime.network.set_default_faults(
        drop_rate=float(drop_rate),
        duplicate_rate=float(duplicate_rate),
        jitter_s=float(jitter_s),
    )


def _degrade(runtime, src: str, dst: str, latency_s, bandwidth_Bps, symmetric: bool) -> None:
    """Set the given latency/bandwidth on a link; None keeps the model's."""
    pairs = ((src, dst), (dst, src)) if symmetric else ((src, dst),)
    for a, b in pairs:
        model = runtime.network.link_model(a, b)
        runtime.network.set_link(
            a,
            b,
            replace(
                model,
                latency_s=float(model.latency_s if latency_s is None else latency_s),
                bandwidth_Bps=float(
                    model.bandwidth_Bps if bandwidth_Bps is None else bandwidth_Bps
                ),
            ),
            symmetric=False,
        )


@fault_handler("slow_link")
def _slow_link(
    runtime, *, src, dst, latency_s=None, bandwidth_Bps=None, symmetric=True
) -> None:
    _degrade(runtime, src, dst, latency_s, bandwidth_Bps, symmetric=bool(symmetric))


@fault_handler("slow_node")
def _slow_node(runtime, *, node, latency_s=None, bandwidth_Bps=None) -> None:
    for host in runtime.network.hosts():
        if host.name != node:
            _degrade(runtime, host.name, node, latency_s, bandwidth_Bps, symmetric=True)


@fault_handler("blackhole")
def _blackhole(runtime, *, node) -> None:
    _set_blackhole(runtime, node, drop_rate=1.0)


@fault_handler("unblackhole")
def _unblackhole(runtime, *, node) -> None:
    _set_blackhole(runtime, node, drop_rate=0.0)


def _set_blackhole(runtime, node: str, drop_rate: float) -> None:
    for host in runtime.network.hosts():
        if host.name != node:
            runtime.network.set_link_faults(
                host.name, node, drop_rate=drop_rate, symmetric=True
            )


def _some_knob(*, queue_max=None, per_conn_max=None) -> None:
    if queue_max is None and per_conn_max is None:
        raise ScenarioError(
            "reactor_capacity fault needs 'queue_max' and/or 'per_conn_max'"
        )


@fault_handler("reactor_capacity", check=_some_knob)
def _reactor_capacity(runtime, *, queue_max=None, per_conn_max=None) -> None:
    admission = getattr(runtime, "reactor_admission", None)
    if admission is None:
        raise ScenarioError(
            "reactor_capacity fault requires workload mode 'reactor' "
            "(no live reactor listener in this scenario)"
        )
    knobs = {}
    if queue_max is not None:
        knobs["queue_max"] = int(queue_max)
    if per_conn_max is not None:
        knobs["per_conn_max"] = int(per_conn_max)
    admission.configure(**knobs)

"""Automatic component failover — closing the paper's reconfiguration loop.

Section 1 motivates Harness with "improving robustness … through
reconfiguration": when a node dies, the DVM should not merely notice (that
is the :class:`~repro.dvm.failure.FailureDetector`'s job) but *repair
itself*.  This module supplies the repair:

* :class:`CheckpointStore` keeps the latest migration snapshot
  (:func:`~repro.core.migration.serialize_component` bytes) of every
  ``restartable`` component, refreshed by :meth:`FailoverManager.checkpoint`
  on a configurable interval (:meth:`FailoverManager.start` registers it on
  a clock's ``every`` schedule).  Checkpoint bytes are charged to the fabric
  between the owning node and the store's home node, so the cost of fault
  tolerance shows up in the same cost model as everything else.
* :class:`FailoverManager` subscribes to ``dvm.member.dead`` (published by
  :meth:`~repro.dvm.machine.DistributedVirtualMachine.evict_node`).  For
  every restartable component the dead node hosted, it picks a surviving
  node, revives the instance from its last checkpoint, and re-publishes it
  in the DVM namespace — after which a pre-existing
  :class:`~repro.bindings.resilient.ResilientStub` re-resolves and completes
  its next call as if nothing happened.

Because the :class:`~repro.util.events.EventBus` is synchronous, failover
runs *inside* the eviction: by the time ``evict_node`` returns, the
component already lives on its new home.  Progress is published under
``recovery.*`` topics (``recovery.checkpoint``, ``recovery.failover``,
``recovery.failover.failed``).
"""

from __future__ import annotations

import threading
from typing import Callable

from repro.core.migration import deserialize_component, serialize_component
from repro.obs import metrics as _metrics
from repro.util.clock import Clock, WallClock
from repro.util.errors import RecoveryError
from repro.util.events import Event

__all__ = ["CheckpointStore", "FailoverManager", "least_loaded_node"]

_CHECKPOINTS = _metrics.registry.counter("recovery.checkpoints")
_FAILOVERS = _metrics.registry.counter("recovery.failovers")
_FAILOVER_FAILURES = _metrics.registry.counter("recovery.failover_failures")


class CheckpointStore:
    """Latest serialized snapshot per service, with provenance.

    Only the newest checkpoint per service is retained — failover restarts
    from the most recent state, it does not replay history.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._blobs: dict[str, tuple[str, bytes]] = {}

    def put(self, service: str, node: str, blob: bytes) -> None:
        with self._lock:
            self._blobs[service] = (node, blob)

    def get(self, service: str) -> tuple[str, bytes] | None:
        with self._lock:
            return self._blobs.get(service)

    def discard(self, service: str) -> None:
        with self._lock:
            self._blobs.pop(service, None)

    def services(self) -> list[str]:
        with self._lock:
            return sorted(self._blobs)

    def __len__(self) -> int:
        with self._lock:
            return len(self._blobs)


def least_loaded_node(dvm, record: dict) -> str | None:
    """Default placement: the surviving node hosting the fewest components."""
    candidates = dvm.nodes()
    if not candidates:
        return None
    return min(
        candidates, key=lambda n: (len(dvm.node(n).container.components()), n)
    )


class FailoverManager:
    """Checkpoints restartable components and revives them after eviction.

    ``home`` names the node conceptually holding the checkpoint store;
    checkpoint and restore transfers are charged to the fabric against it
    (``home=None`` models a store co-located with each owner — free).
    ``placement`` maps ``(dvm, lost_record) -> node`` and defaults to
    :func:`least_loaded_node`.
    """

    def __init__(
        self,
        dvm,
        store: CheckpointStore | None = None,
        placement: Callable[[object, dict], str | None] | None = None,
        home: str | None = None,
        interval_s: float = 0.5,
    ):
        self.dvm = dvm
        self.store = store or CheckpointStore()
        self.placement = placement or least_loaded_node
        self.home = home
        self.interval_s = interval_s
        self.recovered: list[dict] = []  # audit trail of completed failovers
        self._lock = threading.Lock()
        self._timer = None
        self._subscription = dvm.events.subscribe("dvm.member.dead", self._on_member_dead)

    # -- checkpointing -------------------------------------------------------------

    def checkpoint(self) -> int:
        """Snapshot every live restartable component; returns how many."""
        count = 0
        for host in self.dvm.nodes():
            try:
                node = self.dvm.node(host)
            except Exception as exc:  # evicted between nodes() and node()
                _metrics.registry.count_error("recovery.checkpoint.node_errors", exc)
                continue
            for handle in node.container.components():
                if not handle.metadata.get("restartable"):
                    continue
                try:
                    blob = serialize_component(handle.instance)
                except Exception as exc:  # unserializable: keep the previous snapshot
                    _metrics.registry.count_error("recovery.checkpoint.serialize_errors", exc)
                    continue
                if self.home is not None and self.home != host:
                    self.dvm.network.charge(host, self.home, len(blob))
                self.store.put(handle.name, host, blob)
                count += 1
                _CHECKPOINTS.inc()
                self.dvm.events.publish(
                    "recovery.checkpoint",
                    {"service": handle.name, "node": host, "bytes": len(blob)},
                    source=self.dvm.name,
                )
        return count

    # -- failover ------------------------------------------------------------------

    def _on_member_dead(self, event: Event) -> None:
        payload = event.payload or {}
        # coalesced cohort events carry "nodes" and no top-level "node";
        # either way each lost record names its own dead host
        dead = payload.get("node", "")
        for record in payload.get("components", ()):
            if record and record.get("restartable"):
                self._failover(record, dead_node=record.get("node", dead))

    def _failover(self, record: dict, dead_node: str) -> None:
        service = record.get("name", "")
        target = self.placement(self.dvm, record)
        checkpoint = self.store.get(service)
        if target is None or checkpoint is None:
            _FAILOVER_FAILURES.inc()
            self.dvm.events.publish(
                "recovery.failover.failed",
                {
                    "service": service,
                    "from": dead_node,
                    "reason": "no surviving node" if target is None else "no checkpoint",
                },
                source=self.dvm.name,
            )
            return
        _origin, blob = checkpoint
        try:
            instance = deserialize_component(blob)
            if self.home is not None and self.home != target:
                self.dvm.network.charge(self.home, target, len(blob))
            bindings = tuple(record.get("bindings") or ("local-instance", "sim"))
            handle = self.dvm.deploy(
                target, instance, name=service, bindings=bindings, restartable=True
            )
        except Exception as exc:
            _FAILOVER_FAILURES.inc()
            self.dvm.events.publish(
                "recovery.failover.failed",
                {"service": service, "from": dead_node, "reason": str(exc)},
                source=self.dvm.name,
            )
            return
        self.store.put(service, target, blob)
        done = {
            "service": service,
            "from": dead_node,
            "to": target,
            "bytes": len(blob),
            "instance_id": handle.instance_id,
        }
        with self._lock:
            self.recovered.append(done)
        _FAILOVERS.inc()
        self.dvm.events.publish("recovery.failover", done, source=self.dvm.name)

    # -- lifecycle -----------------------------------------------------------------

    def start(self, clock: Clock | None = None) -> None:
        """Checkpoint every ``interval_s`` on *clock*: by default the DVM's
        clock, else a wall clock of the manager's own."""
        if self._subscription is None or not self._subscription.active:
            raise RecoveryError("failover manager is closed")
        if self._timer is None:
            clock = clock or self.dvm.clock or WallClock()
            self._timer = clock.every(
                self.interval_s, self.checkpoint, name="recovery.failover.pump_errors"
            )

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def close(self) -> None:
        self.stop()
        if self._subscription is not None:
            self._subscription.cancel()
            self._subscription = None

    def __enter__(self) -> "FailoverManager":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

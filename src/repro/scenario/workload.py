"""Deterministic workload driver for scenario runs.

Fires a declared mix of operations at a deployed service, records every
call's outcome, and keeps the run's two clocks in sync: each call advances
the scenario's :class:`~repro.util.clock.VirtualClock` by the simulated
network time the call consumed, so invocation-policy deadlines, breaker
cooldowns, and the audit trail's timestamps all live on one timeline.

Outcome accounting distinguishes the cases the invariant checkers care
about:

* **ok** — the call returned a result;
* **typed failure** — the call raised a :class:`~repro.util.errors.HarnessError`
  subclass (a *graceful* reject: timeout, open breaker, host down, dropped
  message, service not found);
* **untyped failure** — anything else escaped, which the
  ``typed_faults_only`` checker treats as a defect.

Every call resolves — the simulated fabric is synchronous — so "no hang"
is expressed as a bound on per-call simulated latency (``max_call_s``).
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass

from repro.bindings.policy import InvocationPolicy
from repro.bindings.resilient import ResilientStub
from repro.obs import metrics as _metrics
from repro.scenario.manifest import OpSpec, WorkloadSpec
from repro.util.errors import HarnessError

__all__ = [
    "CallRecord",
    "WorkloadStats",
    "WorkloadDriver",
    "ReactorWorkloadDriver",
    "MailboxWorkloadDriver",
    "LOOKUP_OP",
    "SHARD_LOOKUP_OP",
]

#: special op name: perform a DVM namespace lookup instead of an invocation
LOOKUP_OP = "__lookup__"

#: special op name: by-name query against the sharded registry
SHARD_LOOKUP_OP = "__shard_lookup__"


@dataclass(frozen=True)
class CallRecord:
    """One workload call: when it started, how it ended, what it cost."""

    op: str
    t: float  # simulated start time
    ok: bool
    error: str | None  # exception class name for failures
    typed: bool  # failure was a HarnessError subclass (ok calls: True)
    latency_s: float  # simulated seconds the call consumed


class WorkloadStats:
    """Aggregated view over the run's :class:`CallRecord` list."""

    def __init__(self):
        self.records: list[CallRecord] = []

    def add(self, record: CallRecord) -> None:
        self.records.append(record)

    @property
    def issued(self) -> int:
        return len(self.records)

    @property
    def ok(self) -> int:
        return sum(1 for r in self.records if r.ok)

    @property
    def failed(self) -> int:
        return self.issued - self.ok

    @property
    def success_rate(self) -> float:
        return self.ok / self.issued if self.issued else 1.0

    def error_counts(self) -> dict[str, int]:
        """Failure histogram by exception class name (sorted keys)."""
        counts: dict[str, int] = {}
        for r in self.records:
            if not r.ok and r.error:
                counts[r.error] = counts.get(r.error, 0) + 1
        return dict(sorted(counts.items()))

    def untyped_failures(self) -> list[CallRecord]:
        return [r for r in self.records if not r.ok and not r.typed]

    def latencies(self, ok_only: bool = True) -> list[float]:
        return [r.latency_s for r in self.records if r.ok or not ok_only]

    def percentile(self, p: float, ok_only: bool = True) -> float:
        """Simulated-latency percentile (0 when nothing qualifies)."""
        values = sorted(self.latencies(ok_only=ok_only))
        if not values:
            return 0.0
        index = min(len(values) - 1, max(0, round(p / 100.0 * (len(values) - 1))))
        return values[index]

    def max_latency(self) -> float:
        return max((r.latency_s for r in self.records), default=0.0)

    def summary(self) -> dict:
        """JSON-ready digest for ``result.json``."""
        return {
            "issued": self.issued,
            "ok": self.ok,
            "failed": self.failed,
            "success_rate": round(self.success_rate, 6),
            "errors": self.error_counts(),
            "untyped_failures": len(self.untyped_failures()),
            "latency_s": {
                "p50": round(self.percentile(50), 9),
                "p95": round(self.percentile(95), 9),
                "p99": round(self.percentile(99), 9),
                "max": round(self.max_latency(), 9),
            },
        }


class _OpMix:
    """The manifest's weighted op draw: one ``rng.random()`` per pick, so
    the same seed replays the same op sequence."""

    def __init__(self, ops):
        self._cumulative: list[tuple[float, OpSpec]] = []
        total = 0.0
        for op in ops:
            total += op.weight
            self._cumulative.append((total, op))
        self._total = total

    def choose(self, rng: random.Random) -> OpSpec:
        point = rng.random() * self._total
        for bound, op in self._cumulative:
            if point < bound:
                return op
        return self._cumulative[-1][1]


def _tally(stats: WorkloadStats, records) -> dict:
    """Add a tick's *records* to *stats*; returns the tick's summary."""
    ok = 0
    errors: dict[str, int] = {}
    for record in records:
        stats.add(record)
        if record.ok:
            ok += 1
        elif record.error:
            errors[record.error] = errors.get(record.error, 0) + 1
    return {"issued": len(records), "ok": ok, "errors": dict(sorted(errors.items()))}


class WorkloadDriver:
    """Issues the manifest's call mix, one tick at a time.

    Stubs are built lazily and cached per caller node; ``resilient=True``
    wraps each in a :class:`~repro.bindings.resilient.ResilientStub` wired
    to the scenario clock and a seeded RNG so redial backoff is simulated
    time, not wall sleeps.  Op choice is a seeded weighted draw — the same
    seed replays the same call sequence.
    """

    def __init__(self, runtime, spec: WorkloadSpec, rng: random.Random):
        self._runtime = runtime
        self._spec = spec
        self._rng = rng
        self._stubs: dict[str, object] = {}
        self._policy = InvocationPolicy(**spec.policy) if spec.policy else None
        self._mix = _OpMix(spec.ops)
        self.stats = WorkloadStats()
        self._call_index = 0
        self._shards = None
        if spec.mode == "shard_lookup":
            # place every manifest service on its consistent-hash shard; the
            # workload then point-queries by name while faults take owners down
            from repro.bindings.stubs import load_type
            from repro.registry.sharded import ShardedRegistry
            from repro.tools.wsdlgen import generate_wsdl

            self._shards = ShardedRegistry(
                runtime.network, replication=spec.replication
            )
            for service in runtime.manifest.services:
                self._shards.register(
                    service.node,
                    generate_wsdl(load_type(service.type), service_name=service.name),
                )

    # -- stub management ----------------------------------------------------

    def _stub(self, node: str):
        stub = self._stubs.get(node)
        if stub is None:
            harness = self._runtime.harness
            if self._spec.resilient:
                service = self._spec.service
                # a tight redial budget keeps a failed call from burning
                # whole seconds of simulated time on backoff sleeps, which
                # would smear the scenario timeline past its tick schedule
                stub = ResilientStub(
                    lambda n=node: harness.dvm.stub(n, service, policy=self._policy),
                    max_redials=2,
                    redial_backoff_s=0.02,
                    clock=self._runtime.clock,
                    events=harness.events,
                    rng=random.Random(self._rng.getrandbits(32)),
                )
            else:
                stub = harness.stub(node, self._spec.service, policy=self._policy)
            self._stubs[node] = stub
        return stub

    def _drop_stub(self, node: str) -> None:
        stub = self._stubs.pop(node, None)
        if stub is not None:
            try:
                stub.close()
            except Exception as exc:  # counted, not raised: teardown goes on
                _metrics.registry.count_error("scenario.workload.close_errors", exc)

    # -- one tick of traffic ------------------------------------------------

    def step(self) -> dict:
        """Issue ``calls_per_tick`` calls; returns the tick's summary."""
        records = []
        for _ in range(self._spec.calls_per_tick):
            node = self._spec.from_nodes[self._call_index % len(self._spec.from_nodes)]
            self._call_index += 1
            records.append(self._one_call(node))
        return _tally(self.stats, records)

    def _one_call(self, node: str) -> CallRecord:
        runtime = self._runtime
        start = runtime.clock.now()
        sim_before = runtime.network.simulated_time
        op_name = {"lookup": LOOKUP_OP, "shard_lookup": SHARD_LOOKUP_OP}.get(
            self._spec.mode
        )
        error: str | None = None
        typed = True
        ok = False
        try:
            if self._spec.mode == "lookup":
                runtime.harness.lookup(node, self._spec.service)
            elif self._spec.mode == "shard_lookup":
                self._shards.lookup_name(node, self._spec.service)
            else:
                op = self._mix.choose(self._rng)
                op_name = op.op
                stub = self._stub(node)
                stub.invoke(op.op, *op.args)
            ok = True
        except HarnessError as exc:
            error = type(exc).__name__
        except Exception as exc:  # untyped escape: a defect the checkers flag
            error = type(exc).__name__
            typed = False
        # keep the scenario timeline honest: the call's simulated network
        # cost becomes clock time, so policies and the audit trail agree
        runtime.credit(runtime.network.simulated_time - sim_before)
        latency = runtime.clock.now() - start
        return CallRecord(
            op=op_name or "?",
            t=round(start, 9),
            ok=ok,
            error=error,
            typed=typed,
            latency_s=round(latency, 9),
        )

    def close(self) -> None:
        for node in list(self._stubs):
            self._drop_stub(node)


class ReactorWorkloadDriver:
    """``mode="reactor"``: real sockets against a real reactor listener.

    Unlike :class:`WorkloadDriver` this bypasses the simulated fabric: the
    manifest's services are instantiated into a fresh dispatcher behind a
    :class:`~repro.transport.tcp.TcpListener` running the event-loop core
    with the manifest's ``server`` capacity knobs, and every tick fires
    ``calls_per_tick`` blocking calls from up to ``concurrency`` caller
    threads over one multiplexed transport.  Shed requests surface as
    :class:`~repro.util.errors.ServerBusyError` — a *typed* failure, so
    the stock checkers (``typed_faults_only``, ``slo_burn_under``,
    ``p99_under``) evaluate real admission-control behaviour.

    The listener's admission controller is published as
    ``runtime.reactor_admission`` so the ``reactor_capacity`` fault action
    can squeeze or widen capacity mid-run.  Wall clock only: latencies are
    real, so records — and the events they feed — are not byte-identical
    across runs (the manifest must say ``wall: true``).
    """

    def __init__(self, runtime, spec: WorkloadSpec, rng: random.Random):
        from repro.bindings.dispatcher import ObjectDispatcher
        from repro.bindings.server import BindingServer
        from repro.bindings.stubs import TransportStub, load_type
        from repro.encoding.registry import default_registry
        from repro.transport.tcp import TcpTransport

        self._runtime = runtime
        self._spec = spec
        self._rng = rng
        dispatcher = ObjectDispatcher()
        for service in runtime.manifest.services:
            dispatcher.register(service.name, load_type(service.type)())
        self._server = BindingServer(dispatcher)
        self._listener = self._server.expose_xdr_tcp(**dict(spec.server or {}))
        runtime.reactor_admission = self._listener.admission
        operations = tuple(dict.fromkeys(op.op for op in spec.ops))
        self._stub = TransportStub(
            operations,
            spec.service,
            default_registry.get("application/x-xdr"),
            TcpTransport(self._listener.url, pool_size=1),
            "xdr",
            timeout=spec.call_timeout_s,
        )
        self._mix = _OpMix(spec.ops)
        self.stats = WorkloadStats()

    def step(self) -> dict:
        """Fire this tick's burst concurrently; returns the tick summary."""
        clock = self._runtime.clock
        # ops are drawn up front from the seeded RNG (the *sequence* stays
        # deterministic; only outcomes and latencies are wall-dependent)
        ops = [self._mix.choose(self._rng) for _ in range(self._spec.calls_per_tick)]
        records: list[CallRecord | None] = [None] * len(ops)
        gate = threading.Semaphore(self._spec.concurrency)

        def call(index: int, op: OpSpec) -> None:
            start = clock.now()
            error: str | None = None
            typed = True
            ok = False
            try:
                self._stub.invoke(op.op, *op.args)
                ok = True
            except HarnessError as exc:
                error = type(exc).__name__
            except Exception as exc:  # untyped escape: a defect checkers flag
                error = type(exc).__name__
                typed = False
            finally:
                gate.release()
            records[index] = CallRecord(
                op=op.op,
                t=round(start, 9),
                ok=ok,
                error=error,
                typed=typed,
                latency_s=round(clock.now() - start, 9),
            )

        threads = []
        for index, op in enumerate(ops):
            gate.acquire()
            thread = threading.Thread(target=call, args=(index, op), daemon=True)
            thread.start()
            threads.append(thread)
        for thread in threads:
            thread.join()
        assert None not in records  # every thread joined
        return _tally(self.stats, records)

    def close(self) -> None:
        try:
            self._stub.close()
        except Exception as exc:  # counted, not raised: the server still closes
            _metrics.registry.count_error("scenario.workload.close_errors", exc)
        self._server.close()


class MailboxWorkloadDriver:
    """``mode="mailbox"``: drive a messaging broker over the simulated fabric.

    A :class:`~repro.messaging.bindings.SimMailboxHost` serves the mailbox
    named by ``workload.service`` on ``broker_node``; ``from_nodes`` publish
    ``calls_per_tick`` messages per tick and each ``consumers`` node drains
    up to ``consume_per_tick``, acking ``ack_delay_ticks`` ticks later —
    the in-flight window a ``kill`` fault exploits to leave unacked
    deliveries behind.  Consumer liveness is lease-based on the *scenario*
    clock (the broker is built on ``runtime.clock``, not network transfer
    time): a killed consumer stops renewing, the sweep requeues its unacked
    messages, and a survivor sees them flagged ``redelivered``.

    Both publishes and successful consumes become :class:`CallRecord`\\ s
    (ops ``publish``/``consume``); a full ``reject`` mailbox surfaces as a
    typed ``MailboxFullError`` publish failure — real back-pressure, not a
    latency proxy.  The driver keeps a message **audit** on the runtime
    (``runtime.mailbox_audit``): every accepted publish's seq, every acked
    seq, and a live broker-stats closure — what the ``no_lost_messages``
    and ``queue_depth_under`` checkers reconcile against the event log's
    ``mbox.dropped`` records.  :meth:`finish` runs after the last tick and
    before the checks: it settles pending acks and drains the remaining
    backlog so "still queued" never masquerades as "lost".
    """

    def __init__(self, runtime, spec: WorkloadSpec, rng: random.Random):
        from repro.messaging.bindings import SimMailboxClient, SimMailboxHost
        from repro.messaging.broker import MessageBroker

        self._runtime = runtime
        self._spec = spec
        self._rng = rng
        self.stats = WorkloadStats()
        self._mailbox = spec.service
        # lease deadlines must live on the scenario timeline (ticks), not on
        # accumulated network-transfer seconds — hence an explicit broker on
        # the scenario clock rather than SimMailboxHost's default _NetClock
        broker = MessageBroker(
            clock=runtime.clock, events=runtime.events, node=spec.broker_node
        )
        self._broker = broker
        self._host = SimMailboxHost(runtime.network, spec.broker_node, broker=broker)
        self._clients: dict[str, SimMailboxClient] = {}
        cfg = dict(spec.mailbox or {})
        self._client(spec.from_nodes[0]).open(
            self._mailbox,
            mode=cfg.get("mode", "first-reader"),
            capacity=int(cfg.get("capacity", 64)),
            overflow=cfg.get("overflow", "reject"),
        )
        self._subs = {}
        for node in spec.consumers:
            self._subs[node] = self._client(node).subscribe(
                self._mailbox, subscriber=node, lease_s=spec.lease_s
            )
        # node -> [(ack-due tick, delivery), ...]
        self._pending_acks: dict[str, list] = {node: [] for node in spec.consumers}
        self._tick = 0
        self._call_index = 0
        self._n_published = 0
        self.audit = {
            "mailbox": self._mailbox,
            "published": set(),
            "acked": set(),
            "stats": lambda: broker.stats(self._mailbox).as_dict(),
        }
        runtime.mailbox_audit = self.audit

    def _client(self, node: str):
        from repro.messaging.bindings import SimMailboxClient

        client = self._clients.get(node)
        if client is None:
            client = SimMailboxClient(
                self._runtime.network, node, self._spec.broker_node,
                clock=self._runtime.clock,
            )
            self._clients[node] = client
        return client

    def _alive(self, node: str) -> bool:
        return self._runtime.network.host(node).up

    def step(self) -> dict:
        self._tick += 1
        records = []
        for _ in range(self._spec.calls_per_tick):
            node = self._spec.from_nodes[
                self._call_index % len(self._spec.from_nodes)
            ]
            self._call_index += 1
            records.append(self._publish_one(node))
        self._flush_due_acks()
        for node, sub in self._subs.items():
            if not self._alive(node):
                # a dead consumer never acks: its held deliveries stay
                # unacked broker-side until the lease sweep requeues them
                self._pending_acks[node].clear()
                continue
            for _ in range(self._spec.consume_per_tick):
                rec = self._consume_one(node, sub)
                if rec is None:
                    break
                records.append(rec)
        return _tally(self.stats, records)

    def _publish_one(self, node: str) -> CallRecord:
        runtime = self._runtime
        start = runtime.clock.now()
        sim_before = runtime.network.simulated_time
        error: str | None = None
        typed = True
        ok = False
        try:
            seq = self._client(node).publish(
                self._mailbox, {"n": self._n_published}, publisher=node
            )
            self.audit["published"].add(seq)
            self._n_published += 1
            ok = True
        except HarnessError as exc:
            error = type(exc).__name__
        except Exception as exc:  # untyped escape: a defect the checkers flag
            error = type(exc).__name__
            typed = False
        runtime.credit(runtime.network.simulated_time - sim_before)
        return CallRecord(
            op="publish", t=round(start, 9), ok=ok, error=error, typed=typed,
            latency_s=round(runtime.clock.now() - start, 9),
        )

    def _consume_one(self, node: str, sub) -> CallRecord | None:
        runtime = self._runtime
        start = runtime.clock.now()
        sim_before = runtime.network.simulated_time
        error: str | None = None
        typed = True
        ok = False
        empty = False
        try:
            delivery = sub.try_receive()
            if delivery is None:
                empty = True
            else:
                if self._spec.ack_delay_ticks <= 0:
                    sub.ack(delivery)
                    self.audit["acked"].add(delivery.seq)
                else:
                    self._pending_acks[node].append(
                        (self._tick + self._spec.ack_delay_ticks, delivery)
                    )
                ok = True
        except HarnessError as exc:
            error = type(exc).__name__
        except Exception as exc:
            error = type(exc).__name__
            typed = False
        runtime.credit(runtime.network.simulated_time - sim_before)
        if empty:
            return None
        return CallRecord(
            op="consume", t=round(start, 9), ok=ok, error=error, typed=typed,
            latency_s=round(runtime.clock.now() - start, 9),
        )

    def _flush_due_acks(self, everything: bool = False) -> None:
        for node, pending in self._pending_acks.items():
            if not self._alive(node):
                pending.clear()
                continue
            keep = []
            for due, delivery in pending:
                if not everything and due > self._tick:
                    keep.append((due, delivery))
                    continue
                sim_before = self._runtime.network.simulated_time
                try:
                    self._subs[node].ack(delivery)
                    self.audit["acked"].add(delivery.seq)
                except HarnessError:
                    # the lease sweep beat us to it — the delivery was
                    # already requeued, so it stays accounted as in flight
                    pass
                self._runtime.credit(
                    self._runtime.network.simulated_time - sim_before
                )
            pending[:] = keep

    def finish(self) -> None:
        """Settle the run before the checks: acks out, backlog drained."""
        self._flush_due_acks(everything=True)
        self._drain({n: s for n, s in self._subs.items() if self._alive(n)})
        # a consumer killed near the end may still hold a live lease; age
        # every lease out and sweep so its unacked messages requeue.  The
        # advance lapses the survivors' leases too, so the requeued backlog
        # is drained through a fresh subscription from a live node.
        dead = [node for node in self._subs if not self._alive(node)]
        if dead and self._spec.lease_s is not None:
            if self._runtime.virtual:
                self._runtime.clock.sleep(self._spec.lease_s)
            survivor = next(
                (n for n in (*self._spec.consumers, *self._spec.from_nodes)
                 if self._alive(n)),
                None,
            )
            if survivor is not None:
                self._client(survivor).stats(self._mailbox)  # triggers the sweep
                drain_sub = self._client(survivor).subscribe(
                    self._mailbox, subscriber=f"{survivor}:drain", lease_s=None
                )
                self._drain({survivor: drain_sub})
                drain_sub.close(requeue=False)

    def _drain(self, subs: dict) -> None:
        progressed = True
        while progressed:
            progressed = False
            for node, sub in subs.items():
                if not self._alive(node):
                    continue
                try:
                    delivery = sub.try_receive()
                except HarnessError:
                    continue  # subscription lapsed mid-drain; others carry on
                if delivery is not None:
                    sub.ack(delivery)
                    self.audit["acked"].add(delivery.seq)
                    progressed = True

    def close(self) -> None:
        for node, sub in self._subs.items():
            if self._alive(node):
                try:
                    sub.close(requeue=False)
                except HarnessError:
                    pass
        self._host.close()

"""The seven workloads: set-up, warm-up, and one timed round each.

Every workload drives the program through its public constructors with
defaults everywhere, server and client in one process.  A round is a fixed
number of ops made from the seed; each op's result is kept and checked after
the timed section it ran in.  README.md says why each workload exists.
"""

from __future__ import annotations

import gc
import threading
import time
from time import perf_counter_ns, process_time_ns
from typing import Callable, NamedTuple

import numpy as np

from repro.bindings import ClientContext, DynamicStubFactory
from repro.container import LightweightContainer
from repro.core.builder import HarnessDvm
from repro.messaging import MailboxTcpClient, MailboxTcpServer, MessageBroker
from repro.netsim import LAN_LINK, VirtualNetwork
from repro.obs import trace as obs_trace

__all__ = [
    "SCHEMES", "WORKLOADS", "BenchService", "Round", "make", "round_rng", "timed_rounds",
]

ARRAY_ELEMENTS = 16384  # float64: 128 KiB each way
NAP_S = 0.001


class BenchService:
    """The deployed component: one operation per RPC call shape."""

    def echo(self, value: int) -> int:
        return value

    def scale(self, values: np.ndarray) -> np.ndarray:
        return values * 2.0

    def nap(self, tag: str) -> str:
        time.sleep(NAP_S)  # releases the GIL, like I/O-bound service work
        return tag


class Round(NamedTuple):
    """What one timed round measured."""

    latencies_ns: list[int]
    ops_per_s: float
    cpu_us_per_op: float
    attempted: int
    failed: int


def timed_calls(call: Callable, values: list) -> tuple[list[int], list]:
    """Call *call* on each value in turn; per-call times (ns) and results.
    A call that raises (a typed fault, a timeout) has its exception as result."""
    latencies, results = [], []
    for value in values:
        t0 = perf_counter_ns()
        try:
            result = call(value)
        except Exception as exc:
            result = exc
        latencies.append(perf_counter_ns() - t0)
        results.append(result)
    return latencies, results


def closed_loop(call: Callable, inputs: list, check: Callable, batch: int) -> Round:
    """One caller, next op only after the previous one returned.

    The timed section is a batch of ops; results are checked between
    batches, so checking costs neither wall nor CPU time in the figures
    and a batch of large results is the most that is held.
    """
    latencies: list[int] = []
    wall = cpu = failed = 0
    for first in range(0, len(inputs), batch):
        chunk = inputs[first:first + batch]
        cpu0 = process_time_ns()
        wall0 = perf_counter_ns()
        taken, results = timed_calls(call, chunk)
        wall += perf_counter_ns() - wall0
        cpu += process_time_ns() - cpu0
        latencies += taken
        failed += sum(not check(v, r) for v, r in zip(chunk, results))
    n = len(inputs)
    return Round(latencies, n / (wall / 1e9), cpu / 1e3 / n, n, failed)


def overlapped(call: Callable, inputs: list, check: Callable, callers: int) -> Round:
    """*callers* threads, each a closed loop over its share of *inputs*."""
    shares = [inputs[slot::callers] for slot in range(callers)]
    done: list = [None] * callers
    gate = threading.Barrier(callers + 1)

    def caller(slot: int) -> None:
        gate.wait()
        done[slot] = timed_calls(call, shares[slot])

    threads = [threading.Thread(target=caller, args=(s,)) for s in range(callers)]
    for thread in threads:
        thread.start()
    cpu0 = process_time_ns()
    gate.wait()
    wall0 = perf_counter_ns()
    for thread in threads:
        thread.join()
    wall = perf_counter_ns() - wall0
    cpu = process_time_ns() - cpu0
    latencies = [ns for taken, _ in done for ns in taken]
    failed = sum(
        not check(v, r)
        for share, (_, results) in zip(shares, done)
        for v, r in zip(share, results)
    )
    n = len(inputs)
    return Round(latencies, n / (wall / 1e9), cpu / 1e3 / n, n, failed)


# -- RPC workloads -----------------------------------------------------------


def round_rng(seed: int, index: int) -> np.random.Generator:
    """The generator for round *index* (the warm-up is round -1)."""
    return np.random.default_rng([seed, index + 1])


def _ints(rng: np.random.Generator, n: int) -> list:
    return rng.integers(-(2**31), 2**31, size=n).tolist()


def _arrays(rng: np.random.Generator, n: int) -> list:
    pool = rng.random((16, ARRAY_ELEMENTS))
    return [pool[i % len(pool)] for i in range(n)]


def _tags(rng: np.random.Generator, n: int) -> list:
    return [rng.bytes(32).hex() for _ in range(n)]  # 64 characters


def _same(value, result) -> bool:
    return type(result) is type(value) and result == value


def _doubled(value, result) -> bool:
    return isinstance(result, np.ndarray) and np.array_equal(result, value * 2.0)


#: operation -> (input generator, result check, raw bytes of one argument)
OPERATIONS = {
    "echo": (_ints, _same, 4),
    "scale": (_arrays, _doubled, ARRAY_ELEMENTS * 8),
    "nap": (_tags, _same, 64),
}


class RpcWorkload:
    """A deployed :class:`BenchService` called through a factory-made stub."""

    kind = "rpc"
    service: type = BenchService  # the selfcheck deploys a faulty one

    def __init__(self, seed: int, scale: float, *, protocol: str, operation: str,
                 ops: int, batch: int, callers: int = 1, program_trace: bool = False):
        self.seed = seed
        self.protocol = protocol
        self.operation = operation
        self.ops = max(callers * 4, int(ops * scale))
        self.batch = batch
        self.callers = callers
        self.program_trace = program_trace
        self.make_inputs, self.check, self.raw_bytes = OPERATIONS[operation]
        self.parts: dict[str, float] = {}

    def setup(self) -> None:
        t0 = time.perf_counter()
        self.container = LightweightContainer("e2e", host="benchhost")
        self.handle = self.container.deploy(self.service, bindings=(self.protocol,))
        t1 = time.perf_counter()
        factory = DynamicStubFactory(ClientContext(host="clienthost"))
        self.stub = factory.create(self.handle.document, prefer=(self.protocol,))
        t2 = time.perf_counter()
        self.parts["container.deploy_us"] = (t1 - t0) * 1e6
        self.parts["bindings.stub_create_us"] = (t2 - t1) * 1e6
        self.call = getattr(self.stub, self.operation)
        if self.program_trace:
            obs_trace.enable(True)

    def inputs(self, index: int, n: int | None = None) -> list:
        rng = round_rng(self.seed, index)
        return self.make_inputs(rng, self.ops if n is None else n)

    def warmup(self) -> None:
        self.drive(self.call, self.inputs(-1, max(self.callers * 4, self.ops // 10)))

    def drive(self, call: Callable, inputs: list) -> Round:
        if self.callers == 1:
            result = closed_loop(call, inputs, self.check, self.batch)
        else:
            result = overlapped(call, inputs, self.check, self.callers)
        if self.program_trace:
            # span bookkeeping is deferred to a finisher thread; it is part
            # of what tracing costs, so it lands before the next round
            obs_trace.flush()
        return result

    def round(self, index: int) -> Round:
        return self.drive(self.call, self.inputs(index))

    def close(self) -> None:
        obs_trace.enable(False)
        self.stub.close()
        self.container.close()


# -- mailbox_push ------------------------------------------------------------


#: the open-loop generator sleeps until this long before a publish is due
#: and yields in a loop from there: a sleeping CPU on this VM wakes 100 us
#: late, give or take 50, and that is the timer's latency, not the program's
SPIN_NS = 300_000


def wait_until(due_ns: int) -> int:
    """Wait until *due_ns* on the perf_counter clock; returns the time then."""
    while (now := perf_counter_ns()) < due_ns:
        left = due_ns - now
        time.sleep((left - SPIN_NS) / 1e9 if left > SPIN_NS else 0)
    return now


class MailboxWorkload:
    """One first-reader mailbox over TCP: a paced phase, then a drain."""

    kind = "mailbox"
    RATE_PER_S = 300.0
    MAILBOX = "q"

    def __init__(self, seed: int, scale: float, *, paced: int, drain: int):
        self.seed = seed
        self.paced = max(4, int(paced * scale))
        self.drain = max(4, int(drain * scale))
        self.sent = 0
        self.parts: dict[str, float] = {}

    def setup(self) -> None:
        self.broker = MessageBroker()
        self.server = MailboxTcpServer(self.broker)
        self.publisher = MailboxTcpClient(*self.server.address)
        self.consumer = MailboxTcpClient(*self.server.address)
        self.publisher.open(self.MAILBOX, capacity=self.drain, overflow="reject")
        self.subscription = self.consumer.subscribe(self.MAILBOX, subscriber="consumer")

    def payloads(self, index: int, n: int) -> list:
        rng = round_rng(self.seed, index)
        return [f"{i}:{rng.bytes(24).hex()}" for i in range(n)]

    def warmup(self) -> None:
        self.round(-1, paced=max(4, self.paced // 5), drain=max(4, self.drain // 10))

    def _consume(self, n: int, out: list, detail: list | None) -> None:
        """Receive and ack *n* deliveries; a timeout ends the loop early."""
        subscription = self.subscription
        try:
            for _ in range(n):
                delivery = subscription.receive(timeout=5.0)
                received = perf_counter_ns()
                subscription.ack(delivery)
                if detail is not None:
                    detail.append((received, perf_counter_ns()))
                out.append((delivery.seq, delivery.payload, delivery.redelivered, received))
        except Exception as exc:
            out.append(exc)

    def _wrong(self, first_seq: int, payloads: list, got: list) -> int:
        """Deliveries that were not exactly-once and in order."""
        good = 0
        for offset, (expected, item) in enumerate(zip(payloads, got)):
            if isinstance(item, Exception):
                break
            seq, payload, redelivered, _ = item
            if seq != first_seq + offset or payload != expected or redelivered:
                break
            good += 1
        return len(payloads) - good

    def round(self, index: int, paced: int | None = None, drain: int | None = None,
              detail: dict | None = None) -> Round:
        paced = self.paced if paced is None else paced
        drain = self.drain if drain is None else drain
        payloads = self.payloads(index, paced + drain)
        first_seq = self.sent + 1
        publish = self.publisher.publish
        period_ns = int(1e9 / self.RATE_PER_S)
        acks = None if detail is None else detail.setdefault("acks", [])

        # phase A: open loop, a publish is due every 1/RATE seconds whether
        # or not the last one has been delivered
        got: list = []
        consumer = threading.Thread(target=self._consume, args=(paced, got, acks))
        consumer.start()
        start = perf_counter_ns() + period_ns
        due_at, late, published = [], [], []
        failed = 0
        for i in range(paced):
            due = start + i * period_ns
            now = wait_until(due)
            due_at.append(due)
            late.append(now - due)
            try:
                publish(self.MAILBOX, payloads[i])
            except Exception:
                failed += 1
            published.append((now, perf_counter_ns()))
        consumer.join()
        latencies = [
            item[3] - due for due, item in zip(due_at, got) if not isinstance(item, Exception)
        ]

        # phase B: fill the mailbox, then time one consumer draining it; the
        # CPU figure is this phase's (phase A's would count the generator)
        cpu0 = process_time_ns()
        for payload in payloads[paced:]:
            try:
                publish(self.MAILBOX, payload)
            except Exception:
                failed += 1
        drained: list = []
        wall0 = perf_counter_ns()
        self._consume(drain, drained, acks)
        wall = perf_counter_ns() - wall0
        cpu = process_time_ns() - cpu0

        self.sent += paced + drain
        failed += self._wrong(first_seq, payloads, got + drained)
        if self.broker.stats(self.MAILBOX).acked != self.sent:
            failed = paced + drain
        if detail is not None:
            detail.setdefault("late", []).extend(late)
            detail.setdefault("publish", []).extend(published)
            detail.setdefault("received", []).extend(
                item[3] for item in got if not isinstance(item, Exception)
            )
        n = paced + drain
        return Round(latencies, drain / (wall / 1e9), cpu / 1e3 / drain, n, min(failed, n))

    def close(self) -> None:
        self.subscription.close()
        self.consumer.close()
        self.publisher.close()
        self.server.close(drain_s=0.5)


# -- dvm_mixed ---------------------------------------------------------------

SCHEMES = ("full-synchrony", "decentralized", "neighborhood", "gossip")


class DvmWorkload:
    """Four DVMs, one per coherency scheme, stepped in lockstep on sim fabrics."""

    kind = "dvm"
    HOSTS = 16
    WRITE_SHARE = 0.2

    def __init__(self, seed: int, scale: float, *, steps: int):
        self.seed = seed
        self.steps = max(8, int(steps * scale))
        self.parts: dict[str, float] = {}

    def setup(self) -> None:
        self.dvms: dict[str, HarnessDvm] = {}
        self.hosts: dict[str, list[str]] = {}
        deploys = []
        for number, scheme in enumerate(SCHEMES):
            # container URIs are process-wide, so each fabric names its
            # hosts apart; otherwise this is netsim.lan(16)
            hosts = [f"dvm{number}n{i}" for i in range(self.HOSTS)]
            network = VirtualNetwork(default_link=LAN_LINK, seed=self.seed)
            for host in hosts:
                network.add_host(host)
            dvm = HarnessDvm(
                f"e2e-{scheme}", network, coherency=scheme, neighborhood_radius=2,
                gossip_seed=self.seed, lookup_cache_ttl_s=0,
            )
            dvm.add_nodes(*hosts)
            for i, host in enumerate(hosts):
                t0 = time.perf_counter()
                dvm.deploy(host, BenchService, name=f"svc{i}")
                deploys.append(time.perf_counter() - t0)
            self.dvms[scheme] = dvm
            self.hosts[scheme] = hosts
        deploys.sort()
        self.parts["container.deploy_us"] = deploys[len(deploys) // 2] * 1e6

    def steps_for(self, index: int, n: int | None = None) -> list[tuple[bool, int, int]]:
        """(is a write, index of the acting node, index of the service)."""
        n = self.steps if n is None else n
        rng = round_rng(self.seed, index)
        # the share of writes is exact in every round, only their places
        # are drawn: a write costs several reads
        writes = rng.permutation(np.arange(n) < round(n * self.WRITE_SHARE))
        nodes = rng.integers(0, self.HOSTS, size=n)
        services = rng.integers(0, self.HOSTS, size=n)
        return list(zip(writes.tolist(), nodes.tolist(), services.tolist()))

    def warmup(self) -> None:
        self.round(-1, n=max(8, self.steps // 10))

    def step(self, scheme: str, write: bool, node: int, service: int):
        """One step on one DVM; a read returns (owner, document name)."""
        dvm, hosts = self.dvms[scheme], self.hosts[scheme]
        if write:
            dvm.dvm.publish(hosts[service], f"svc{service}")
            return None
        owner, document = dvm.lookup(hosts[node], f"svc{service}")
        return owner, document.name

    def right(self, scheme: str, write: bool, service: int, result) -> bool:
        if write:
            return result is None
        return result == (self.hosts[scheme][service], f"svc{service}")

    def round(self, index: int, n: int | None = None) -> Round:
        steps = self.steps_for(index, n)
        cpu0 = process_time_ns()
        wall0 = perf_counter_ns()
        latencies, results = timed_calls(
            lambda step: [self.step(scheme, *step) for scheme in SCHEMES], steps
        )
        wall = perf_counter_ns() - wall0
        cpu = process_time_ns() - cpu0
        failed = 0
        for (write, _, service), result in zip(steps, results):
            if isinstance(result, Exception) or not all(
                self.right(scheme, write, service, r) for scheme, r in zip(SCHEMES, result)
            ):
                failed += 1
        n = len(steps)
        return Round(latencies, n / (wall / 1e9), cpu / 1e3 / n, n, failed)

    def close(self) -> None:
        for dvm in self.dvms.values():
            dvm.close()


# -- the set -----------------------------------------------------------------

#: name -> (class, settings).  Op counts are sized so a round takes about
#: half a second pinned to one 2.1 GHz core; the round count follows from
#: --seconds.
WORKLOADS: dict[str, tuple[type, dict]] = {
    "xdr_echo": (RpcWorkload, dict(protocol="xdr", operation="echo", ops=3500, batch=500)),
    "xdr_array": (RpcWorkload, dict(protocol="xdr", operation="scale", ops=1200, batch=16)),
    "soap_array": (RpcWorkload, dict(protocol="soap", operation="scale", ops=200, batch=16)),
    "xdr_overlap": (
        RpcWorkload, dict(protocol="xdr", operation="nap", ops=700, batch=0, callers=2)
    ),
    "xdr_echo_traced": (
        RpcWorkload,
        dict(protocol="xdr", operation="echo", ops=3000, batch=500, program_trace=True),
    ),
    "mailbox_push": (MailboxWorkload, dict(paced=120, drain=500)),
    "dvm_mixed": (DvmWorkload, dict(steps=150)),
}


def make(name: str, seed: int, scale: float = 1.0):
    """The workload *name*, its op counts multiplied by *scale*."""
    cls, settings = WORKLOADS[name]
    return cls(seed, scale, **settings)


def timed_rounds(workload, seconds: float, first_index: int = 0, at_least: int = 3) -> list[Round]:
    """Rounds of the fixed op count until *seconds* have passed."""
    rounds = []
    deadline = time.perf_counter() + seconds
    while len(rounds) < at_least or time.perf_counter() < deadline:
        gc.collect()
        rounds.append(workload.round(first_index + len(rounds)))
    return rounds

"""C11 messaging — fan-out wire economy and push vs RPC-polling work queues.

Two legs, one claim: mailbox delivery semantics are not just *safer* than
ad-hoc RPC patterns, they are *cheaper on the wire*.

**Fan-out amplification (sim fabric).**  Delivering one payload to T task
mailboxes spread over H hosts costs T inter-kernel messages with per-task
``hmsg.send`` but only H with ``hmsg.fanout`` (what hpvmd's mcast/bcast
ride) — the amplification factor is exactly tasks-per-host, measured on
the virtual fabric's message counters.

**Work queue: server push vs RPC polling (real TCP).**  The same bounded
``first-reader`` mailbox drained two ways:

* *push* — ``MailboxTcpServer`` pushes deliveries through per-connection
  credit flow; consumers ack every message, and the acks travel in
  batches of up to half the credit window (one round trip per batch);
* *poll* — consumers hammer an RPC ``poll`` verb on a conventional
  binding server; an empty queue costs a round trip *and* the poll
  interval of discovery latency.

The drain leg measures throughput with the queue pre-filled, from the
consumers' start to the last message consumed.  Its wire ops are counted:
polling a *hot* queue costs one round trip per message; push costs one
frame per message plus one ack request per batch (push + ack buys
exactly-once with redelivery, which pull-and-forget cannot give).  The
paced leg publishes on a timer and measures end-to-end delivery latency,
where polling pays its discovery interval on every message and push does
not.

Acceptance (asserted in ``test_report_c11_messaging`` and the script
gates):

* fan-out amplification is exactly tasks-per-host at every level, and
  every fanned-out payload is actually delivered;
* both drain modes consume every message exactly once (the work-queue
  contract, at speed);
* push median delivery latency beats poll median latency (budgeted 2x in
  quick mode);
* push costs under ``PUSH_WIRE_OPS_MAX`` (1.5) wire ops per message,
  counted as push frames plus ack requests, and polling cannot do
  materially better than one op per message.

Runs under pytest (``pytest benchmarks/bench_c11_messaging.py``) and as a
script (``python benchmarks/bench_c11_messaging.py [--quick] [--out PATH]``
— the CI smoke uses ``--quick``; the nightly soak runs the full sweep).
A full run rewrites ``BENCH_c11.json`` next to this file; ``--quick``
writes only to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import threading
import time
from pathlib import Path

from repro.bindings.dispatcher import ObjectDispatcher
from repro.bindings.server import BindingServer
from repro.bindings.stubs import TransportStub
from repro.core.kernel import HarnessKernel
from repro.encoding.registry import XdrMessageCodec
from repro.messaging.broker import MessageBroker
from repro.messaging.tcpbind import MailboxTcpClient, MailboxTcpServer
from repro.netsim import lan
from repro.plugins.hmsg import MessageTransportPlugin
from repro.transport.tcp import TcpTransport
from repro.util.errors import HarnessTimeoutError

SEED = 11

#: fan-out leg: H receiver hosts, swept tasks-per-host
FANOUT_HOSTS = 4
FANOUT_TASKS_PER_HOST = [4, 16, 64]
QUICK_FANOUT_TASKS = [4, 16]
FANOUT_PAYLOAD = "x" * 256

#: drain leg: pre-filled queue, C consumers, each its own TCP connection
DRAIN_MESSAGES = 400
QUICK_DRAIN_MESSAGES = 150
DRAIN_CONSUMERS = 4
#: push frames + ack requests per message: one frame each, plus one ack
#: request per half credit window when acks batch (two when they do not)
PUSH_WIRE_OPS_MAX = 1.5

#: paced leg: one message every PACE_S; the poller checks every POLL_S
PACED_MESSAGES = 80
QUICK_PACED_MESSAGES = 30
PACE_S = 0.003
POLL_S = 0.005

RESULT_PATH = Path(__file__).with_name("BENCH_c11.json")


def _print_table(title: str, header: list[str], rows: list[list]) -> None:
    # local copy of benchmarks.conftest.print_table so the module also runs
    # as a plain script (python benchmarks/bench_c11_messaging.py)
    print(f"\n=== {title} ===")
    widths = [
        max(len(str(header[i])), *(len(str(r[i])) for r in rows)) if rows else len(str(header[i]))
        for i in range(len(header))
    ]
    print("  ".join(str(header[i]).ljust(widths[i]) for i in range(len(header))))
    for row in rows:
        print("  ".join(str(row[i]).ljust(widths[i]) for i in range(len(row))))


def _percentile(sorted_values: list[float], p: float) -> float:
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1, int(len(sorted_values) * p))]


# -- fan-out amplification (sim fabric) ------------------------------------------------


def _measure_fanout(tasks_per_host: int) -> dict:
    """Per-task sends vs per-host fanout for the same T-task delivery."""
    network = lan(FANOUT_HOSTS + 1, seed=SEED)
    kernels = []
    for i in range(FANOUT_HOSTS + 1):
        kernel = HarnessKernel(f"node{i}", network=network)
        kernel.load_plugin(MessageTransportPlugin)
        kernels.append(kernel)
    try:
        sender = kernels[0].get_service("message-transport")
        boxes_by_host = {}
        for h in range(1, FANOUT_HOSTS + 1):
            receiver = kernels[h].get_service("message-transport")
            boxes = [f"task{h}_{t}" for t in range(tasks_per_host)]
            for box in boxes:
                receiver.open_mailbox(box)
            boxes_by_host[f"node{h}"] = boxes

        network.reset_stats()
        for host, boxes in boxes_by_host.items():
            for box in boxes:
                sender.send(host, box, FANOUT_PAYLOAD, tag=1)
        naive_messages = network.total_messages
        naive_bytes = network.total_bytes

        network.reset_stats()
        for host, boxes in boxes_by_host.items():
            sender.fanout(host, boxes, FANOUT_PAYLOAD, tag=2)
        fanout_messages = network.total_messages
        fanout_bytes = network.total_bytes

        # every task actually got both rounds
        delivered = 0
        for h in range(1, FANOUT_HOSTS + 1):
            receiver = kernels[h].get_service("message-transport")
            for box in boxes_by_host[f"node{h}"]:
                assert receiver.recv(box, tag=1, timeout=2).data == FANOUT_PAYLOAD
                assert receiver.recv(box, tag=2, timeout=2).data == FANOUT_PAYLOAD
                delivered += 1
        assert delivered == FANOUT_HOSTS * tasks_per_host
    finally:
        for kernel in kernels:
            kernel.shutdown()

    return {
        "hosts": FANOUT_HOSTS,
        "tasks_per_host": tasks_per_host,
        "tasks": FANOUT_HOSTS * tasks_per_host,
        "naive_messages": naive_messages,
        "fanout_messages": fanout_messages,
        "naive_bytes": naive_bytes,
        "fanout_bytes": fanout_bytes,
        "amplification": round(naive_messages / fanout_messages, 1)
        if fanout_messages else 0.0,
    }


def run_fanout(levels: list[int]) -> dict:
    return {"payload_bytes": len(FANOUT_PAYLOAD),
            "levels": [_measure_fanout(t) for t in levels]}


# -- work queue: push drain (real TCP) -------------------------------------------------


class _Tally:
    """Thread-safe exactly-once ledger for a drain run.

    ``finished_at`` is the ``perf_counter`` reading at the last expected
    record: the drain's clock stops there, not when the consumers next
    notice (a receive or poll interval later)."""

    def __init__(self, expected: int):
        self.expected = expected
        self.seqs: list[int] = []
        self.finished_at: float | None = None
        self._lock = threading.Lock()

    def record(self, seq: int) -> None:
        with self._lock:
            self.seqs.append(seq)
            if len(self.seqs) == self.expected:
                self.finished_at = time.perf_counter()

    def done(self) -> bool:
        with self._lock:
            return len(self.seqs) >= self.expected

    def verify(self) -> None:
        assert sorted(self.seqs) == list(range(1, self.expected + 1)), (
            f"exactly-once violated: {len(self.seqs)} consumed of "
            f"{self.expected}")


def _run_push_drain(messages: int, consumers: int) -> dict:
    broker = MessageBroker()
    server = MailboxTcpServer(broker)
    producer = MailboxTcpClient(*server.address, timeout_s=10.0)
    ack_requests: list = []  # appended by several server workers at once
    dispatch = server._dispatch

    def counting_dispatch(request, job):
        if request.get("op") == "ack":
            ack_requests.append(None)
        return dispatch(request, job)

    server._dispatch = counting_dispatch
    try:
        producer.open("q", capacity=messages, overflow="reject")
        for i in range(messages):
            producer.publish("q", i)

        tally = _Tally(messages)
        barrier = threading.Barrier(consumers + 1)

        def consume(slot: int) -> None:
            client = MailboxTcpClient(*server.address, timeout_s=10.0)
            try:
                sub = client.subscribe("q", subscriber=f"c{slot}")
                barrier.wait()
                while not tally.done():
                    try:
                        delivery = sub.receive(timeout=0.1)
                    except HarnessTimeoutError:
                        continue
                    sub.ack(delivery)
                    tally.record(delivery.seq)
            finally:
                client.close()

        threads = [threading.Thread(target=consume, args=(n,))
                   for n in range(consumers)]
        for t in threads:
            t.start()
        barrier.wait()
        t0 = time.perf_counter()
        for t in threads:
            t.join()
        elapsed_s = tally.finished_at - t0
        tally.verify()
        stats = broker.stats("q")
        assert stats.acked == messages
        # every delivery is one push frame; acks travel in batches
        push_frames = stats.delivered
    finally:
        producer.close()
        server.close(drain_s=0.5)
    return {"mode": "push", "messages": messages, "consumers": consumers,
            "wall_s": round(elapsed_s, 4),
            "throughput_rps": round(messages / elapsed_s, 1),
            "wire_ops_per_msg": round((push_frames + len(ack_requests)) / messages, 2),
            "push_frames": push_frames, "ack_requests": len(ack_requests)}


# -- work queue: RPC-polling drain (real TCP) ------------------------------------------


class PollQueueService:
    """The conventional alternative: a queue drained by an RPC ``poll`` verb.

    ``poll`` pops-and-acks one message (at-most-once pull, the usual shape
    of polling consumers) and counts every call — including the empty ones
    that make polling expensive."""

    def __init__(self, broker: MessageBroker, mailbox: str):
        self.broker = broker
        self.mailbox = mailbox
        self._sub = broker.subscribe(mailbox, subscriber="poller")
        self._lock = threading.Lock()
        self.polls = 0
        self.empty_polls = 0

    def poll(self) -> dict:
        with self._lock:
            self.polls += 1
        delivery = self._sub.try_receive()
        if delivery is None:
            with self._lock:
                self.empty_polls += 1
            return {"empty": True}
        self._sub.ack(delivery)
        return {"empty": False, "seq": delivery.seq,
                "payload": delivery.payload}


def _run_poll_drain(messages: int, consumers: int) -> dict:
    broker = MessageBroker()
    broker.open("q", capacity=messages, overflow="reject")
    for i in range(messages):
        broker.publish("q", i)
    service = PollQueueService(broker, "q")
    dispatcher = ObjectDispatcher()
    dispatcher.register("q", service)
    server = BindingServer(dispatcher)
    listener = server.expose_xdr_tcp()
    try:
        tally = _Tally(messages)
        barrier = threading.Barrier(consumers + 1)

        def consume(slot: int) -> None:
            transport = TcpTransport(f"tcp://127.0.0.1:{listener.port}")
            stub = TransportStub(("poll",), "q", XdrMessageCodec(),
                                 transport, "xdr")
            try:
                barrier.wait()
                while not tally.done():
                    reply = stub.poll()
                    if reply.get("empty"):
                        time.sleep(POLL_S)
                        continue
                    tally.record(int(reply["seq"]))
            finally:
                stub.close()

        threads = [threading.Thread(target=consume, args=(n,))
                   for n in range(consumers)]
        for t in threads:
            t.start()
        barrier.wait()
        t0 = time.perf_counter()
        for t in threads:
            t.join()
        elapsed_s = tally.finished_at - t0
        tally.verify()
        assert broker.stats("q").acked == messages
    finally:
        server.close()
    return {"mode": "poll", "messages": messages, "consumers": consumers,
            "wall_s": round(elapsed_s, 4),
            "throughput_rps": round(messages / elapsed_s, 1),
            "wire_ops_per_msg": round(service.polls / messages, 2),
            "empty_polls": service.empty_polls}


# -- paced delivery latency ------------------------------------------------------------


def _run_push_paced(messages: int) -> dict:
    broker = MessageBroker()
    server = MailboxTcpServer(broker)
    broker.open("paced", capacity=messages, overflow="reject")
    client = MailboxTcpClient(*server.address, timeout_s=10.0)
    try:
        sub = client.subscribe("paced", subscriber="listener")
        latencies: list[float] = []

        def consume() -> None:
            while len(latencies) < messages:
                try:
                    delivery = sub.receive(timeout=2.0)
                except HarnessTimeoutError:
                    return
                latencies.append(time.perf_counter() - delivery.payload)
                sub.ack(delivery)

        thread = threading.Thread(target=consume)
        thread.start()
        for _ in range(messages):
            broker.publish("paced", time.perf_counter())
            time.sleep(PACE_S)
        thread.join(timeout=10.0)
        assert len(latencies) == messages
    finally:
        client.close()
        server.close(drain_s=0.5)
    return _latency_row("push", latencies)


def _run_poll_paced(messages: int) -> dict:
    broker = MessageBroker()
    broker.open("paced", capacity=messages, overflow="reject")
    service = PollQueueService(broker, "paced")
    dispatcher = ObjectDispatcher()
    dispatcher.register("q", service)
    server = BindingServer(dispatcher)
    listener = server.expose_xdr_tcp()
    try:
        latencies: list[float] = []

        def consume() -> None:
            transport = TcpTransport(f"tcp://127.0.0.1:{listener.port}")
            stub = TransportStub(("poll",), "q", XdrMessageCodec(),
                                 transport, "xdr")
            try:
                while len(latencies) < messages:
                    reply = stub.poll()
                    if reply.get("empty"):
                        time.sleep(POLL_S)
                        continue
                    latencies.append(time.perf_counter() - reply["payload"])
            finally:
                stub.close()

        thread = threading.Thread(target=consume)
        thread.start()
        for _ in range(messages):
            broker.publish("paced", time.perf_counter())
            time.sleep(PACE_S)
        thread.join(timeout=20.0)
        assert len(latencies) == messages
    finally:
        server.close()
    return _latency_row("poll", latencies)


def _latency_row(mode: str, latencies: list[float]) -> dict:
    ordered = sorted(latencies)
    return {
        "mode": mode,
        "messages": len(latencies),
        "p50_ms": round(statistics.median(ordered) * 1e3, 3),
        "p99_ms": round(_percentile(ordered, 0.99) * 1e3, 3),
        "mean_ms": round(statistics.fmean(ordered) * 1e3, 3),
    }


def run_workqueue(messages: int, paced_messages: int) -> dict:
    return {
        "consumers": DRAIN_CONSUMERS,
        "poll_interval_ms": POLL_S * 1e3,
        "pace_ms": PACE_S * 1e3,
        "drain": [_run_push_drain(messages, DRAIN_CONSUMERS),
                  _run_poll_drain(messages, DRAIN_CONSUMERS)],
        "paced": [_run_push_paced(paced_messages),
                  _run_poll_paced(paced_messages)],
    }


# -- reporting -------------------------------------------------------------------------


def _report_fanout(result: dict) -> None:
    rows = [[
        level["hosts"], level["tasks_per_host"], level["tasks"],
        level["naive_messages"], level["fanout_messages"],
        f"{level['amplification']:.0f}x",
        level["naive_bytes"], level["fanout_bytes"],
    ] for level in result["levels"]]
    _print_table(
        f"C11 fan-out: {FANOUT_HOSTS} hosts, per-task send vs per-host fanout",
        ["hosts", "tasks/host", "tasks", "send msgs", "fanout msgs",
         "amplification", "send bytes", "fanout bytes"],
        rows,
    )


def _report_workqueue(result: dict) -> None:
    rows = [[
        row["mode"], row["messages"], row["consumers"],
        f"{row['wall_s']:.4f}", f"{row['throughput_rps']:.0f}",
        f"{row['wire_ops_per_msg']:.2f}",
    ] for row in result["drain"]]
    _print_table(
        f"C11 drain: pre-filled queue, {result['consumers']} consumers, push vs poll",
        ["mode", "messages", "consumers", "wall s", "msgs/s", "wire ops/msg"],
        rows,
    )
    rows = [[
        row["mode"], row["messages"], f"{row['p50_ms']:.2f}",
        f"{row['p99_ms']:.2f}", f"{row['mean_ms']:.2f}",
    ] for row in result["paced"]]
    _print_table(
        f"C11 paced delivery: one message per {result['pace_ms']:.0f} ms, "
        f"poll interval {result['poll_interval_ms']:.0f} ms",
        ["mode", "messages", "p50 ms", "p99 ms", "mean ms"],
        rows,
    )


def _write_json(result: dict, quick: bool, out: Path | None = None) -> None:
    """Write *result* to *out* when given.  A full run also rewrites the
    committed ``BENCH_c11.json`` next to this file; a quick one never does."""
    text = json.dumps(result, indent=2) + "\n"
    for path in ([] if quick else [RESULT_PATH]) + ([out] if out is not None else []):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        print(f"wrote {path}")


# -- gates -----------------------------------------------------------------------------


def _check_fanout_gates(result: dict) -> list[str]:
    # the fabric charges each kernel send as request + ack, so gate the
    # *ratios*, which the cost model cannot shift: per-task delivery costs
    # exactly tasks-per-host times what per-host fanout costs, and the
    # fanout cost depends on hosts alone, not on how many tasks they hold
    failures = []
    for level in result["levels"]:
        expected = level["tasks_per_host"] * level["fanout_messages"]
        if level["naive_messages"] != expected:
            failures.append(
                f"fanout {level['tasks_per_host']}/host: amplification "
                f"{level['amplification']:.1f}x, expected exactly "
                f"{level['tasks_per_host']}x")
    per_host_costs = {level["fanout_messages"] for level in result["levels"]}
    if len(per_host_costs) > 1:
        failures.append(
            f"fanout: per-host cost varies with tasks-per-host "
            f"({sorted(per_host_costs)}) — fanout is not O(hosts)")
    return failures


def _check_workqueue_gates(result: dict, budget: float = 1.0) -> list[str]:
    failures = []
    push_paced, poll_paced = result["paced"]
    bound = 2.0 / budget
    if push_paced["p50_ms"] * bound > poll_paced["p50_ms"]:
        failures.append(
            f"paced: push p50 {push_paced['p50_ms']:.2f} ms not {bound:g}x under "
            f"poll p50 {poll_paced['p50_ms']:.2f} ms")
    push_drain, poll_drain = result["drain"]
    if push_drain["wire_ops_per_msg"] >= PUSH_WIRE_OPS_MAX:
        failures.append(
            f"drain: push wire ops/msg {push_drain['wire_ops_per_msg']:.2f} not under "
            f"{PUSH_WIRE_OPS_MAX} (acks are not batching)")
    if poll_drain["wire_ops_per_msg"] <= push_drain["wire_ops_per_msg"] - 1.0:
        failures.append(
            f"drain: poll wire ops/msg {poll_drain['wire_ops_per_msg']:.2f} "
            f"implausibly below push's {push_drain['wire_ops_per_msg']:.2f}")
    return failures


# -- pytest entry point ----------------------------------------------------------------


def test_report_c11_messaging():
    result = {
        "experiment": "C11 mailbox messaging: fan-out economy, push vs poll",
        "fanout": run_fanout(QUICK_FANOUT_TASKS),
        "workqueue": run_workqueue(QUICK_DRAIN_MESSAGES, QUICK_PACED_MESSAGES),
    }
    _report_fanout(result["fanout"])
    _report_workqueue(result["workqueue"])
    _write_json(result, quick=True)
    failures = _check_fanout_gates(result["fanout"])
    failures += _check_workqueue_gates(result["workqueue"], budget=2.0)
    assert not failures, "; ".join(failures)


# -- script entry point ----------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="smoke mode: smaller sweeps, 2x gate budgets (used by CI)",
    )
    parser.add_argument(
        "--out", type=Path, default=None,
        help="also write the JSON record here (the only place --quick writes it)",
    )
    options = parser.parse_args(argv)

    quick = options.quick
    budget = 2.0 if quick else 1.0
    result = {
        "experiment": "C11 mailbox messaging: fan-out economy, push vs poll",
        "fanout": run_fanout(QUICK_FANOUT_TASKS if quick else FANOUT_TASKS_PER_HOST),
        "workqueue": run_workqueue(
            QUICK_DRAIN_MESSAGES if quick else DRAIN_MESSAGES,
            QUICK_PACED_MESSAGES if quick else PACED_MESSAGES),
    }
    _report_fanout(result["fanout"])
    _report_workqueue(result["workqueue"])
    _write_json(result, quick=options.quick, out=options.out)

    failures = _check_fanout_gates(result["fanout"])
    failures += _check_workqueue_gates(result["workqueue"], budget=budget)
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

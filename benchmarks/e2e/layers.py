"""The traced run: per-layer figures for one workload.

Layers are the ``src/repro/`` package names.  RPC workloads are re-run on a
path assembled by hand from the same public pieces the container and the
factory use, with the recording wrappers of :mod:`spans` around each; the
mailbox and DVM workloads time each call into the layer separately.  Every
count here comes from a fixed number of seeded ops, so it repeats exactly
for a seed however long the untraced part of the run was.

A figure is reported only by the workloads whose path crosses the layer;
``run`` fills in 0 for the rest.
"""

from __future__ import annotations

import itertools
import os
import statistics
import time
from time import perf_counter_ns

import repro.soap  # noqa: F401  (registers the text/xml codec)
from repro.bindings import (
    BindingServer,
    ClientContext,
    DynamicStubFactory,
    TransportStub,
)
from repro.core.builder import HarnessDvm
from repro.encoding.registry import CodecRegistry, default_registry
from repro.messaging import MessageBroker
from repro.netsim import lan
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.registry.distributed import (
    CentralizedLookup,
    DecentralizedLookup,
    NeighborhoodLookup,
)
from repro.registry.sharded import ShardedRegistry
from repro.tools.wsdlgen import generate_wsdl
from repro.transport import (
    HttpListener,
    HttpTransport,
    TcpListener,
    TcpTransport,
    TransportMessage,
)
from repro.wsdl.io import document_from_string, document_to_string

from benchmarks.e2e import spans
from benchmarks.e2e.workloads import SCHEMES, BenchService, round_rng, timed_rounds

TRACED_ROUNDS = 3
#: traced rounds draw their inputs from round numbers no timed round reaches
FIRST_TRACED_ROUND = 1_000_000


def p50_us(values_ns) -> float:
    return statistics.median(values_ns) / 1e3


def percentile_us(values_ns, share: float) -> float:
    ordered = sorted(values_ns)
    return ordered[min(len(ordered) - 1, int(len(ordered) * share))] / 1e3


def measure(workload, seconds: float, home_cpus) -> tuple[dict[str, float], int, int]:
    """Per-layer figures for *workload*, plus ops attempted and failed here.

    The traced rounds come first, straight after the warm-up, so that what
    they count does not depend on how many timed rounds fit into *seconds*
    of untraced real-path rounds after them.  *home_cpus* is the affinity
    the process had before it pinned itself.
    """
    # each returns (figures, ops attempted, ops failed, traced op p50 or None)
    layer = {"rpc": rpc_layers, "mailbox": mailbox_layers, "dvm": dvm_layers}[workload.kind]
    figures, attempted, failed, traced_p50 = layer(workload, home_cpus)
    untraced = timed_rounds(workload, seconds)
    latencies = [ns for r in untraced for ns in r.latencies_ns]
    figures["client.op_p90_us"] = percentile_us(latencies, 0.90)
    figures["client.op_p99_us"] = percentile_us(latencies, 0.99)
    figures.update(workload.parts)
    if traced_p50 is not None:
        untraced_p50 = statistics.median(p50_us(r.latencies_ns) for r in untraced)
        figures["trace.overhead_share"] = (traced_p50 - untraced_p50) / untraced_p50
    attempted += sum(r.attempted for r in untraced)
    failed += sum(r.failed for r in untraced)
    return figures, attempted, failed


# -- RPC ---------------------------------------------------------------------

CODEC_SPANS = ("encode_call", "decode_call", "encode_reply", "decode_reply")


def _counter(name: str) -> float:
    return obs_metrics.registry.counter(name).value()


def rpc_layers(w, home_cpus) -> tuple[dict[str, float], int, int, float | None]:
    soap = w.protocol == "soap"
    codec_layer = "soap" if soap else "encoding"
    log = spans.SpanLog()
    depth = obs_metrics.registry.gauge("server.reactor.queue_depth")
    depth_seen = [0.0]

    def sample_depth() -> None:
        depth_seen[0] = max(depth_seen[0], depth.value())

    counted = ("tcp.client.dials", "tcp.server.offloaded", "server.requests",
               "server.reactor.admitted", "server.reactor.shed")
    before = {name: _counter(name) for name in counted}

    content_type = "text/xml" if soap else "application/x-xdr"
    codec = spans.RecordingCodec(default_registry.get(content_type), log, codec_layer)
    codecs = CodecRegistry()
    codecs.register(codec)
    dispatcher = spans.RecordingDispatcher(log, probe=sample_depth)
    dispatcher.register("bench", BenchService())
    server = BindingServer(dispatcher, codecs=codecs)
    if soap:
        listener = server.expose_soap_http()
        transport = spans.RecordingTransport(HttpTransport(listener.url), log)
    else:
        listener = server.expose_xdr_tcp()
        transport = spans.RecordingTransport(TcpTransport(listener.url), log)
    stub = TransportStub((w.operation,), "bench", codec, transport, w.protocol)
    call = getattr(stub, w.operation)
    op_ids = itertools.count(1)

    def traced_call(value):
        token = log.begin("client.op", next(op_ids))
        try:
            return call(value)
        finally:
            log.end(token)

    attempted = failed = 0
    try:
        w.drive(call, w.inputs(-1, max(w.callers * 4, w.ops // 10)))
        log.clear()
        transport.calls = transport.request_bytes = transport.reply_bytes = 0
        for r in range(TRACED_ROUNDS):
            done = w.drive(traced_call, w.inputs(FIRST_TRACED_ROUND + r))
            attempted += done.attempted
            failed += done.failed
    finally:
        stub.close()
        server.close()
    delta = {name: _counter(name) - before[name] for name in counted}

    table = spans.by_op(spans.adopt(log.spans)).values()

    def column(name: str, own: bool = False) -> list[int]:
        return [row[name][own] for row in table if name in row]

    root_p50 = p50_us(column("client.op"))
    figures = {
        "bindings.stub_self_us": p50_us(column("client.op", own=True)),
        "bindings.dispatch_us": p50_us(column("bindings.dispatch")),
        "transport.self_us": p50_us(column("transport.request", own=True)),
    }
    for verb in CODEC_SPANS:
        figures[f"{codec_layer}.{verb}_us"] = p50_us(column(f"{codec_layer}.{verb}"))
    # the reported medians add up to the traced op's median, or the
    # residual says by how much they do not
    figures["trace.residual_share"] = (root_p50 - sum(figures.values())) / root_p50

    request_bytes = transport.request_bytes / transport.calls
    reply_bytes = transport.reply_bytes / transport.calls
    served = delta["server.requests"]
    figures.update({
        f"{codec_layer}.expansion_ratio": (request_bytes + reply_bytes) / (2 * w.raw_bytes),
        "transport.request_bytes": request_bytes,
        "transport.reply_bytes": reply_bytes,
        "transport.dials": delta["tcp.client.dials"],
        "transport.offloaded_share": delta["tcp.server.offloaded"] / served if served else 0.0,
        "transport.reactor_admitted": delta["server.reactor.admitted"],
        "transport.reactor_shed": delta["server.reactor.shed"],
        "transport.queue_depth_max": depth_seen[0],
        "transport.bare_rtt_us": bare_rtt_us(soap, int(request_bytes), int(reply_bytes)),
        "container.local_instance_call_us": local_instance_call_us(w),
    })
    if w.operation == "echo" and not w.program_trace and home_cpus is not None:
        figures["sched.unpinned_p50_us"] = unpinned_p50_us(w, home_cpus)
    if w.program_trace:
        figures.update(program_trace_cost(w))
    return figures, attempted, failed, root_p50


def bare_rtt_us(http: bool, request_bytes: int, reply_bytes: int, calls: int = 1000) -> float:
    """Round trip of the same payload sizes with no bindings and no codec."""
    content_type = "application/octet-stream"
    reply = TransportMessage(content_type, bytes(reply_bytes))
    request = TransportMessage(content_type, bytes(request_bytes))
    listener = (HttpListener if http else TcpListener)(lambda message: reply)
    transport = (HttpTransport if http else TcpTransport)(listener.url)
    try:
        for _ in range(calls // 10):
            transport.request(request, timeout=30.0)
        taken = []
        for _ in range(calls):
            t0 = perf_counter_ns()
            transport.request(request, timeout=30.0)
            taken.append(perf_counter_ns() - t0)
    finally:
        transport.close()
        listener.close()
    return p50_us(taken)


def local_instance_call_us(w, budget_s: float = 0.2) -> float:
    """The floor: the same operation on the same deployment through the
    local-instance binding, batch-timed."""
    here = ClientContext(container_uri=w.container.uri, host=w.container.host)
    stub = DynamicStubFactory(here).create(w.handle.document, prefer=("local-instance",))
    call = getattr(stub, w.operation)
    value = w.inputs(-1, 1)[0]
    calls = 0
    t0 = time.perf_counter()
    deadline = t0 + budget_s
    while time.perf_counter() < deadline:
        for _ in range(20):
            call(value)
        calls += 20
    return (time.perf_counter() - t0) / calls * 1e6


def unpinned_p50_us(w, home_cpus) -> float:
    """One real-path round with the process free to move between CPUs."""
    pinned = os.sched_getaffinity(0)
    os.sched_setaffinity(0, home_cpus)
    try:
        done = w.drive(w.call, w.inputs(FIRST_TRACED_ROUND + TRACED_ROUNDS, w.ops // 2))
    finally:
        os.sched_setaffinity(0, pinned)
    return p50_us(done.latencies_ns)


def program_trace_cost(w) -> dict[str, float]:
    """What the program's own tracing adds to the real path: rounds with it
    off and on by turns, and the spans it records per op."""
    recorded = [0]

    def count(_span) -> None:
        recorded[0] += 1

    n = w.ops // 2
    p50 = {False: [], True: []}
    ops_traced = 0
    obs_trace.recorder.tee = count
    try:
        for r in range(2 * TRACED_ROUNDS):
            on = bool(r % 2)
            obs_trace.enable(on)
            done = w.drive(w.call, w.inputs(FIRST_TRACED_ROUND + TRACED_ROUNDS + r, n))
            p50[on].append(p50_us(done.latencies_ns))
            ops_traced += n * on
    finally:
        obs_trace.recorder.tee = None
        obs_trace.enable(True)
    return {
        "obs.trace_on_delta_us": statistics.median(p50[True]) - statistics.median(p50[False]),
        "obs.spans_per_op": recorded[0] / ops_traced,
    }


# -- mailbox -----------------------------------------------------------------


def mailbox_layers(w, home_cpus) -> tuple[dict[str, float], int, int, None]:
    detail: dict[str, list] = {}
    attempted = failed = 0
    for r in range(TRACED_ROUNDS):
        done = w.round(FIRST_TRACED_ROUND + r, detail=detail)
        attempted += done.attempted
        failed += done.failed
    publish = detail["publish"]
    figures = {
        "messaging.publish_rtt_us": p50_us([end - start for start, end in publish]),
        "messaging.ack_rtt_us": p50_us([end - start for start, end in detail["acks"]]),
        "loadgen.late_p99_us": percentile_us(detail["late"], 0.99),
    }
    if len(detail["received"]) == len(publish):
        # from the publish call, not its return: the delivery reaches the
        # consumer before the reply reaches the publisher
        figures["messaging.push_us"] = p50_us(
            [received - start for (start, _), received in zip(publish, detail["received"])]
        )

    # the same messages through a broker in this process: what is left of
    # the figures above is the TCP binding's share
    broker = MessageBroker()
    broker.open("q", capacity=8, overflow="reject")
    subscription = broker.subscribe("q", subscriber="consumer")
    publish_ns, receive_ack_ns = [], []
    for payload in w.payloads(FIRST_TRACED_ROUND, w.paced + w.drain):
        t0 = perf_counter_ns()
        broker.publish("q", payload)
        t1 = perf_counter_ns()
        subscription.ack(subscription.receive(timeout=0))
        receive_ack_ns.append(perf_counter_ns() - t1)
        publish_ns.append(t1 - t0)
    subscription.close()
    stats = w.broker.stats(w.MAILBOX)
    figures.update({
        "messaging.broker_publish_us": p50_us(publish_ns),
        "messaging.broker_receive_ack_us": p50_us(receive_ack_ns),
        "messaging.redelivered": stats.redelivered,
        "messaging.rejected": stats.rejected,
        "messaging.depth_max": stats.high_water,
    })
    return figures, attempted, failed, None


# -- DVM ---------------------------------------------------------------------


def dvm_layers(w, home_cpus) -> tuple[dict[str, float], int, int, None]:
    taken = {scheme: {False: [], True: []} for scheme in SCHEMES}
    networks = {scheme: w.dvms[scheme].network for scheme in SCHEMES}
    before = {s: (net.total_messages, net.total_bytes) for s, net in networks.items()}
    attempted = failed = 0
    for r in range(TRACED_ROUNDS):
        for write, node, service in w.steps_for(FIRST_TRACED_ROUND + r):
            ok = True
            for scheme in SCHEMES:
                t0 = perf_counter_ns()
                try:
                    result = w.step(scheme, write, node, service)
                except Exception as exc:
                    result = exc
                taken[scheme][write].append(perf_counter_ns() - t0)
                ok = ok and w.right(scheme, write, service, result)
            attempted += 1
            failed += not ok
    figures: dict[str, float] = {}
    for scheme, net in networks.items():
        messages, nbytes = before[scheme]
        figures[f"dvm.{scheme}.read_p50_us"] = p50_us(taken[scheme][False])
        figures[f"dvm.{scheme}.write_p50_us"] = p50_us(taken[scheme][True])
        figures[f"netsim.{scheme}.msgs_per_op"] = (net.total_messages - messages) / attempted
        figures[f"netsim.{scheme}.bytes_per_op"] = (net.total_bytes - nbytes) / attempted

    # a full-synchrony read sends nothing and still parses the stored record
    document = w.dvms[SCHEMES[0]].lookup(w.hosts[SCHEMES[0]][0], "svc0")[1]
    text = document_to_string(document, indent=False)
    parse_ns, serialize_ns = [], []
    for _ in range(200):
        t0 = perf_counter_ns()
        document_from_string(text)
        t1 = perf_counter_ns()
        document_to_string(document, indent=False)
        serialize_ns.append(perf_counter_ns() - t1)
        parse_ns.append(t1 - t0)
    figures["wsdl.parse_us"] = p50_us(parse_ns)
    figures["wsdl.serialize_us"] = p50_us(serialize_ns)
    figures["dvm.lookup_cached_us"] = lookup_cached_us(w.seed)
    figures.update(registry_figures(w.seed, w.HOSTS))
    return figures, attempted, failed, None


def lookup_cached_us(seed: int, calls: int = 2000) -> float:
    """A repeated lookup on a DVM that keeps the default TTL lookup cache."""
    network = lan(4, seed=seed)
    with HarnessDvm("e2e-cached", network) as dvm:
        dvm.add_nodes(*(f"node{i}" for i in range(4)))
        dvm.deploy("node0", BenchService, name="svc0")
        dvm.lookup("node1", "svc0")
        t0 = time.perf_counter()
        for _ in range(calls):
            dvm.lookup("node1", "svc0")
        return (time.perf_counter() - t0) / calls * 1e6


def registry_figures(seed: int, hosts: int, queries: int = 100) -> dict[str, float]:
    """The four lookup schemes, each on its own fabric of the same size:
    every host registers one service, then seeded hosts look services up."""
    documents = [
        generate_wsdl(BenchService, service_name=f"svc{i}", bindings=("soap",))
        for i in range(hosts)
    ]
    rng = round_rng(seed, FIRST_TRACED_ROUND)
    asked = list(zip(rng.integers(0, hosts, size=queries).tolist(),
                     rng.integers(0, hosts, size=queries).tolist()))
    schemes = {
        "centralized": lambda net: CentralizedLookup(net, "node0"),
        "decentralized": DecentralizedLookup,
        "neighborhood": lambda net: NeighborhoodLookup(net, replication=2),
        "sharded": lambda net: ShardedRegistry(net, replication=2),
    }
    figures = {}
    for name, build in schemes.items():
        network = lan(hosts, seed=seed)
        lookup = build(network)
        for i, document in enumerate(documents):
            lookup.register(f"node{i}", document)
        network.reset_stats()
        taken = []
        for host, service in asked:
            t0 = perf_counter_ns()
            if name == "sharded":
                found = [lookup.lookup_name(f"node{host}", f"svc{service}")]
            else:
                found = lookup.discover(
                    f"node{host}", f"//portType[@name='svc{service}PortType']"
                )
            taken.append(perf_counter_ns() - t0)
            if [d.name for d in found] != [f"svc{service}"]:
                raise RuntimeError(f"{name} lookup of svc{service} found {found}")
        verb = "lookup" if name == "sharded" else "discover"
        figures[f"registry.{name}.{verb}_us"] = p50_us(taken)
        figures[f"registry.{name}.msgs"] = network.total_messages / queries
    return figures

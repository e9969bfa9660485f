"""Cross-binding conformance: one test body, three transports.

Every test here runs against the inproc, netsim and TCP bindings through
the *common client surface* (``open``/``publish``/``subscribe``/``stats``
plus ``receive``/``try_receive``/``ack``/``nack``/``close`` on the
subscription).  The broker defines the semantics; a binding that changes
them fails here.

TCP deliveries arrive as asynchronous push frames, so collection helpers
use bounded ``receive`` timeouts instead of assuming a queued message is
visible the instant ``publish`` returns.
"""

import contextlib
import time

import pytest

from repro.messaging.bindings import (
    InprocMailboxClient,
    SimMailboxClient,
    SimMailboxHost,
    _NetClock,
)
from repro.messaging.broker import MessageBroker
from repro.messaging.tcpbind import MailboxTcpClient, MailboxTcpServer
from repro.netsim import lan
from repro.util.clock import VirtualClock
from repro.util.errors import HarnessTimeoutError, MailboxFullError

BINDINGS = ("inproc", "sim", "tcp")


@contextlib.contextmanager
def open_binding(kind):
    """Yield a mailbox client of the requested *kind*, torn down after."""
    if kind == "inproc":
        client = InprocMailboxClient(MessageBroker(clock=VirtualClock()))
        try:
            yield client
        finally:
            client.close()
    elif kind == "sim":
        network = lan(2)
        host = SimMailboxHost(network, "node0")
        client = SimMailboxClient(network, "node1", "node0",
                                  clock=_NetClock(network))
        try:
            yield client
        finally:
            client.close()
            host.close()
    elif kind == "tcp":
        server = MailboxTcpServer(MessageBroker())
        client = MailboxTcpClient(*server.address, timeout_s=10.0)
        try:
            yield client
        finally:
            client.close()
            server.close(drain_s=0.5)
    else:  # pragma: no cover
        raise AssertionError(kind)


@pytest.fixture(params=BINDINGS)
def client(request):
    with open_binding(request.param) as c:
        yield c


def collect(subs, count, ack=True, wall_budget_s=5.0):
    """Gather *count* deliveries across *subs*, tolerant of push latency."""
    out = []
    deadline = time.monotonic() + wall_budget_s
    while len(out) < count and time.monotonic() < deadline:
        progressed = False
        for sub in subs:
            delivery = sub.try_receive()
            if delivery is not None:
                if ack:
                    sub.ack(delivery)
                out.append(delivery)
                progressed = True
        if not progressed:
            time.sleep(0.002)
    return out


class TestFirstReader:
    def test_work_queue_consumes_each_message_exactly_once(self, client):
        client.open("jobs", capacity=32)
        a = client.subscribe("jobs", subscriber="a")
        b = client.subscribe("jobs", subscriber="b")
        seqs = [client.publish("jobs", {"n": i}) for i in range(6)]
        assert seqs == [1, 2, 3, 4, 5, 6]
        got = collect([a, b], 6)
        assert sorted(d.seq for d in got) == seqs
        assert len({d.seq for d in got}) == 6
        stats = client.stats("jobs")
        assert stats["published"] == stats["acked"] == 6

    def test_unacked_redeliver_when_consumer_unsubscribes(self, client):
        client.open("work", capacity=16)
        quitter = client.subscribe("work", subscriber="quitter")
        for i in range(3):
            client.publish("work", i)
        held = quitter.receive(timeout=2.0)  # taken but never acked
        quitter.close(requeue=True)
        survivor = client.subscribe("work", subscriber="survivor")
        got = collect([survivor], 3)
        assert sorted(d.seq for d in got) == [1, 2, 3]
        by_seq = {d.seq: d for d in got}
        assert by_seq[held.seq].redelivered is True

    def test_nack_redelivers_with_flag(self, client):
        client.open("retry", capacity=8)
        sub = client.subscribe("retry")
        client.publish("retry", "flaky")
        first = sub.receive(timeout=2.0)
        sub.nack(first)
        second = sub.receive(timeout=2.0)
        assert second.seq == first.seq
        assert second.redelivered is True
        sub.ack(second)


class TestAllReaders:
    def test_every_subscriber_gets_all_messages_in_order(self, client):
        client.open("news", mode="all-readers", capacity=32)
        a = client.subscribe("news", subscriber="a")
        b = client.subscribe("news", subscriber="b")
        n = 4
        for i in range(n):
            client.publish("news", i)
        for sub in (a, b):
            got = collect([sub], n)
            assert [d.seq for d in got] == [1, 2, 3, 4]
            assert [d.payload for d in got] == [0, 1, 2, 3]


class TestTap:
    def test_tap_never_raises_even_past_capacity(self, client):
        client.open("trace", mode="tap", capacity=2)
        sub = client.subscribe("trace", subscriber="observer")
        for i in range(6):
            client.publish("trace", i)  # the assertion: no exception, ever
        got = collect([sub], 6, ack=False, wall_budget_s=1.0)
        seqs = [d.seq for d in got]
        assert seqs == sorted(seqs)  # what survives arrives in order
        assert client.stats("trace")["published"] == 6


class TestOverflow:
    def test_reject_surfaces_typed_with_mailbox_and_capacity(self, client):
        client.open("bounded", capacity=2, overflow="reject")
        client.publish("bounded", 0)
        client.publish("bounded", 1)
        with pytest.raises(MailboxFullError) as err:
            client.publish("bounded", 2)
        assert err.value.mailbox == "bounded"
        assert err.value.capacity == 2
        assert client.stats("bounded")["rejected"] == 1

    def test_reject_keeps_the_brokers_text(self, client):
        client.open("news", mode="all-readers", capacity=1, overflow="reject")
        client.subscribe("news", subscriber="slow", prefetch=0)  # nothing pushed
        client.publish("news", 0)
        with pytest.raises(MailboxFullError, match=r"\(subscriber slow backlogged\)$"):
            client.publish("news", 1)

    def test_drop_oldest_is_observable_in_stats(self, client):
        client.open("lossy", capacity=2, overflow="drop-oldest")
        for i in range(4):
            client.publish("lossy", i)
        stats = client.stats("lossy")
        assert stats["dropped"] == 2
        assert stats["high_water"] == 2  # the bound held
        sub = client.subscribe("lossy")
        got = collect([sub], 2)
        assert [d.seq for d in got] == [3, 4]

    def test_block_with_deadline_expiry_is_typed(self, client):
        client.open("slow", capacity=1, overflow="block-with-deadline")
        client.publish("slow", 0)
        with pytest.raises(HarnessTimeoutError):
            client.publish("slow", 1, timeout_s=0.2)
        assert client.stats("slow")["depth"] == 1


class TestPollSemantics:
    def test_try_receive_on_empty_is_none_not_an_error(self, client):
        client.open("empty")
        sub = client.subscribe("empty")
        assert sub.try_receive() is None

    def test_receive_timeout_raises_typed(self, client):
        client.open("quiet")
        sub = client.subscribe("quiet")
        with pytest.raises(HarnessTimeoutError):
            sub.receive(timeout=0.05)

    def test_sim_try_receive_raises_a_request_timeout(self):
        """Over the sim, a round trip past ``request_timeout_s`` is a typed
        timeout, never an empty queue: the broker did hand the delivery out."""
        network = lan(2)
        host = SimMailboxHost(network, "node0")
        client = SimMailboxClient(network, "node1", "node0", clock=_NetClock(network))
        try:
            client.open("jobs")
            sub = client.subscribe("jobs")
            client.publish("jobs", "work")
            client.request_timeout_s = 1e-9  # every round trip overruns it now
            with pytest.raises(HarnessTimeoutError):
                sub.try_receive()
            assert host.broker.stats("jobs").delivered == 1
        finally:
            host.close()

    def test_publish_then_receive_roundtrips_payload(self, client):
        client.open("echo")
        sub = client.subscribe("echo")
        client.publish("echo", {"nested": [1, "two", 3.0]}, publisher="src")
        delivery = sub.receive(timeout=2.0)
        assert delivery.payload == {"nested": [1, "two", 3.0]}
        assert delivery.message.publisher == "src"
        sub.ack(delivery)

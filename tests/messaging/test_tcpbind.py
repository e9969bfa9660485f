"""TCP-binding specifics: push multiplexing, credit flow, connection death.

The cross-binding battery already proves the TCP surface preserves broker
semantics; this file covers what only exists on the wire — server push
over one multiplexed socket, prefetch credits as flow control, acks
batched per half credit window (the contract on ``MailboxTcpClient._ack``),
and the ``on_conn_close`` hook that turns a dead connection into
redelivery.
"""

import socket
import sys
import threading
import time
import types

import pytest

from repro.messaging.broker import MessageBroker
from repro.messaging.tcpbind import (
    CT_MBOX,
    DEFAULT_PREFETCH,
    MailboxTcpClient,
    MailboxTcpServer,
    _MboxJob,
)
from repro.transport.base import TransportMessage
from repro.util.errors import (
    HarnessTimeoutError,
    MessagingError,
    ServerBusyError,
    TransportClosedError,
    TransportError,
)
from repro.util.events import EventBus


@pytest.fixture
def server():
    bus = EventBus()
    broker = MessageBroker(events=bus, node="hub")
    srv = MailboxTcpServer(broker)
    srv.bus = bus
    yield srv
    srv.close(drain_s=0.5)


def connect(server, **kwargs):
    return MailboxTcpClient(*server.address, timeout_s=10.0, **kwargs)


def wait_for(predicate, budget_s=5.0):
    deadline = time.monotonic() + budget_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


class TestConnectionDeath:
    def test_dead_connection_redelivers_unacked_to_survivor(self, server):
        victim = connect(server)
        survivor = connect(server)
        try:
            victim.open("jobs", capacity=16)
            victim_sub = victim.subscribe("jobs", subscriber="victim")
            for i in range(3):
                survivor.publish("jobs", i)
            # the victim consumes one and acks nothing
            held = victim_sub.receive(timeout=2.0)
            assert held.seq in (1, 2, 3)

            victim.close()  # connection death, not a polite unsubscribe

            sub = survivor.subscribe("jobs", subscriber="survivor")
            got = []
            while len(got) < 3:
                got.append(sub.receive(timeout=5.0))
                sub.ack(got[-1])
            assert sorted(d.seq for d in got) == [1, 2, 3]
            # everything the victim's connection held was flagged on redelivery
            assert all(d.redelivered for d in got if d.seq == held.seq)
            assert server.broker.stats("jobs").acked == 3
        finally:
            survivor.close()

    def test_server_close_wakes_a_parked_receive_and_the_client_stays_closed(self, server):
        """The connection is the client: once the server drops it, a parked
        receive wakes typed and later calls fail typed, with no redial."""
        client = connect(server)
        try:
            client.open("jobs", capacity=8)
            sub = client.subscribe("jobs", subscriber="parked")
            woke: list = []

            def park() -> None:
                started = time.monotonic()
                try:
                    sub.receive(timeout=10.0)
                except Exception as exc:  # noqa: BLE001
                    woke.append((exc, time.monotonic() - started))

            receiver = threading.Thread(target=park)
            receiver.start()
            time.sleep(0.1)  # the receive is parked before the server goes
            server.close(drain_s=0.1)
            receiver.join(timeout=5.0)
            assert not receiver.is_alive()
            (exc, waited), = woke
            assert isinstance(exc, TransportClosedError) and waited < 1.0
            assert sub.closed

            # a redial would land on a listener at the server's old address
            probe = socket.socket()
            probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            probe.bind(server.address)
            probe.listen(1)
            probe.settimeout(0.2)
            try:
                with pytest.raises(TransportClosedError):
                    client.publish("jobs", "after")
                with pytest.raises(socket.timeout):
                    probe.accept()
            finally:
                probe.close()
        finally:
            client.close()

    def test_subscribe_run_after_its_connection_closed_is_not_kept(self, server):
        """A worker may run a subscribe after the reactor closed its
        connection and ran the close hook.  Kept, that subscription would
        take deliveries, push them nowhere and hold them unacked for good."""
        server.broker.open("jobs", capacity=8)
        job = _MboxJob(1, TransportMessage(CT_MBOX, b""), None)
        job.conn = types.SimpleNamespace(key=object(), closed=True)
        server._conn_closed(job.conn)
        server._dispatch({"op": "subscribe", "name": "jobs", "subscriber": "late",
                          "prefetch": 4}, job)
        server.broker.publish("jobs", "work")
        assert not server._subs
        stats = server.broker.stats("jobs")
        assert (stats.delivered, stats.depth, stats.subscribers) == (0, 1, 0)

    def test_conn_close_fires_redelivered_event(self, server):
        seen = []
        server.bus.subscribe("mbox.redelivered", lambda e: seen.append(e.payload))
        client = connect(server)
        other = connect(server)
        try:
            client.open("jobs", capacity=8)
            client.subscribe("jobs", subscriber="doomed")
            client.publish("jobs", "payload")
            assert wait_for(lambda: server.broker.stats("jobs").delivered == 1)
            client.close()
            assert wait_for(lambda: seen)
            assert seen[0]["mailbox"] == "jobs"
            assert seen[0]["subscriber"] == "doomed"
        finally:
            other.close()


class TestCreditFlow:
    def test_prefetch_bounds_unacked_pushes(self, server):
        client = connect(server)
        try:
            client.open("paced", capacity=64)
            sub = client.subscribe("paced", subscriber="slow", prefetch=2)
            for i in range(5):
                client.publish("paced", i)
            # only `prefetch` deliveries leave the broker while nothing is acked
            assert wait_for(lambda: server.broker.stats("paced").delivered == 2)
            time.sleep(0.1)
            assert server.broker.stats("paced").delivered == 2
            assert server.broker.stats("paced").depth == 3  # rest stays shared

            # acking replenishes credits: the backlog then drains completely
            got = [sub.receive(timeout=2.0) for _ in range(2)]
            for delivery in got:
                sub.ack(delivery)
            while len(got) < 5:
                delivery = sub.receive(timeout=5.0)
                sub.ack(delivery)
                got.append(delivery)
            assert sorted(d.seq for d in got) == [1, 2, 3, 4, 5]
            assert server.broker.stats("paced").acked == 5
        finally:
            client.close()

    def test_default_prefetch_is_documented_value(self):
        assert DEFAULT_PREFETCH == 32

    def test_credits_survive_racing_pumps(self, server):
        """Publish pumps and ack pumps race on one subscription's credits,
        and the publishing threads send the consumer's pending acks, while
        the interpreter switches threads every few bytecodes: a lost credit
        would stall the drain, and two pumps writing out of pop order would
        break per-publisher order."""
        publishers, each = 3, 60
        errors: list[BaseException] = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        client = connect(server)
        try:
            client.open("race", capacity=publishers * each)
            sub = client.subscribe("race", prefetch=4)

            def publish(n: int) -> None:
                try:
                    for i in range(each):
                        client.publish("race", (n, i), publisher=str(n))
                except BaseException as exc:  # noqa: BLE001
                    errors.append(exc)

            threads = [threading.Thread(target=publish, args=(n,)) for n in range(publishers)]
            for t in threads:
                t.start()
            got = []
            for _ in range(publishers * each):
                delivery = sub.receive(timeout=10.0)
                got.append(tuple(delivery.payload))
                sub.ack(delivery)
            for t in threads:
                t.join(timeout=10.0)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
            client.close()
        assert not errors, errors
        for n in range(publishers):
            assert [i for m, i in got if m == n] == list(range(each))
        assert server.broker.stats("race").acked == publishers * each

    def test_concurrent_grants_push_in_pop_order(self, server):
        """Two grants pumped at once on one subscription: each pump pops a
        run of deliveries and writes them in chunks, so without one pump
        at a time the two runs reach the wire out of seq order."""
        total = 2000  # long pumps, so the two overlap
        client = connect(server)
        interval = sys.getswitchinterval()
        try:
            client.open("grants", capacity=total)
            sub = client.subscribe("grants", prefetch=0)  # nothing pushed yet
            for i in range(total):
                client.publish("grants", i)
            record = server._subs[sub.sub_id]
            start = threading.Barrier(2)

            def grant() -> None:
                start.wait(timeout=5.0)
                with server._lock:
                    record.credits += total // 2
                server._pump_sub(record)

            sys.setswitchinterval(1e-5)
            threads = [threading.Thread(target=grant) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10.0)
            assert not any(t.is_alive() for t in threads)
            got = [sub.receive(timeout=5.0).seq for _ in range(total)]
            assert got == list(range(1, total + 1))
        finally:
            sys.setswitchinterval(interval)
            client.close()


def buffered(sub, n):
    """Wait until *n* pushed deliveries sit in *sub*'s local buffer."""
    return wait_for(lambda: len(sub._state.queue) == n)


class TestBatchedAcks:
    def test_close_flushes_pending_acks_before_requeue(self, server):
        client = connect(server)
        survivor = connect(server)
        try:
            client.open("jobs", capacity=32)
            sub = client.subscribe("jobs", subscriber="quitter")
            for i in range(20):
                client.publish("jobs", i)
            assert buffered(sub, 20)
            acked = []
            for _ in range(5):
                acked.append(sub.receive(timeout=2.0))
                sub.ack(acked[-1])
            assert server.broker.stats("jobs").acked == 0  # still pending
            sub.close(requeue=True)
            assert server.broker.stats("jobs").acked == 5

            other = survivor.subscribe("jobs", subscriber="survivor")
            got = [other.receive(timeout=2.0) for _ in range(15)]
            assert other.try_receive() is None
            assert sorted(d.seq for d in got) == list(range(6, 21))
            assert all(d.redelivered for d in got)
            assert not {d.seq for d in acked} & {d.seq for d in got}
        finally:
            client.close()
            survivor.close()

    def test_stats_sends_deferred_acks_first(self, server):
        client = connect(server)
        try:
            client.open("jobs", capacity=8)
            sub = client.subscribe("jobs")
            for i in range(3):
                client.publish("jobs", i)
            assert buffered(sub, 3)
            sub.ack(sub.receive(timeout=2.0))
            assert server.broker.stats("jobs").acked == 0
            assert client.stats("jobs")["acked"] == 1
        finally:
            client.close()

    def test_ack_that_empties_the_buffer_is_applied_on_return(self, server):
        client = connect(server)
        try:
            client.open("jobs", capacity=8)
            sub = client.subscribe("jobs")
            for i in range(3):
                client.publish("jobs", i)
            assert buffered(sub, 3)
            for expected in (0, 0, 3):
                sub.ack(sub.receive(timeout=2.0))
                assert server.broker.stats("jobs").acked == expected
        finally:
            client.close()

    def test_receive_on_an_empty_buffer_sends_pending_acks(self, server):
        client = connect(server)
        try:
            client.open("jobs", capacity=8)
            sub = client.subscribe("jobs")
            for i in range(3):
                client.publish("jobs", i)
            assert buffered(sub, 3)
            sub.ack(sub.receive(timeout=2.0))
            held = [sub.receive(timeout=2.0) for _ in range(2)]  # not acked yet
            assert server.broker.stats("jobs").acked == 0
            assert sub.try_receive() is None
            assert server.broker.stats("jobs").acked == 1
            for delivery in held:
                sub.ack(delivery)
        finally:
            client.close()

    def test_client_close_flushes_pending_acks(self, server):
        client = connect(server)
        client.open("jobs", capacity=8)
        sub = client.subscribe("jobs")
        for i in range(3):
            client.publish("jobs", i)
        assert buffered(sub, 3)
        sub.ack(sub.receive(timeout=2.0))
        client.close()
        # the connection's death requeues only the two never acked
        assert wait_for(lambda: server.broker.stats("jobs").redelivered == 2)
        assert server.broker.stats("jobs").acked == 1

    def test_partial_batch_applies_and_credits_every_valid_id(self, server):
        client = connect(server)
        try:
            client.open("jobs", capacity=16)
            sub = client.subscribe("jobs", prefetch=10)  # batches of 5
            for i in range(14):
                client.publish("jobs", i)
            assert buffered(sub, 10)
            first, second = sub.receive(timeout=2.0), sub.receive(timeout=2.0)
            sub.ack(first)
            sub.ack(first)  # already acked, in the same batch
            sub.ack(987654)  # never delivered
            sub.ack("not-an-id")
            with pytest.raises(MessagingError) as err:
                sub.ack(second)  # the fifth: the batch goes out
            # the reply names exactly the bad ids, in batch order
            assert f"[{first.delivery_id}, 987654, 'not-an-id']" in str(err.value)
            assert server.broker.stats("jobs").acked == 2
            # two credits back: two more of the backlog are pushed
            assert wait_for(lambda: server.broker.stats("jobs").delivered == 12)
        finally:
            client.close()

    def test_single_bad_ack_raises_and_credits_nothing(self, server):
        client = connect(server)
        try:
            client.open("jobs", capacity=8)
            sub = client.subscribe("jobs", prefetch=1)
            client.publish("jobs", "a")
            client.publish("jobs", "b")
            delivery = sub.receive(timeout=2.0)
            with pytest.raises(MessagingError, match="987654"):
                sub.ack(987654)
            # a grant would have been pumped before the reply
            assert server.broker.stats("jobs").delivered == 1
            sub.ack(delivery)
            assert sub.receive(timeout=2.0).payload == "b"
        finally:
            client.close()

    def test_try_receive_raises_when_its_ack_batch_times_out(self, server):
        """``try_receive`` on an empty buffer sends the pending acks first.
        A batch with no reply in time is a typed timeout, not an empty poll."""
        dispatch = server._dispatch

        def slow_acks(request, job):
            if request.get("op") == "ack":
                time.sleep(0.5)
            return dispatch(request, job)

        server._dispatch = slow_acks
        client = MailboxTcpClient(*server.address, timeout_s=0.2)
        try:
            client.open("jobs", capacity=8)
            sub = client.subscribe("jobs", prefetch=4)  # batches of 2
            client.publish("jobs", 0)
            client.publish("jobs", 1)
            assert buffered(sub, 2)
            sub.ack(sub.receive(timeout=2.0))  # pending: one still buffered
            sub.receive(timeout=2.0)
            with pytest.raises(HarnessTimeoutError):
                sub.try_receive()
        finally:
            client.close()

    def test_close_unsubscribes_even_when_its_ack_batch_fails(self, server):
        client = connect(server)
        try:
            client.open("jobs", capacity=8)
            sub = client.subscribe("jobs")
            for i in range(3):
                client.publish("jobs", i)
            assert buffered(sub, 3)
            sub.receive(timeout=2.0)
            sub.ack(987654)  # pending: two deliveries still buffered
            with pytest.raises(MessagingError, match="987654"):
                sub.close(requeue=True)
            assert not server._subs
            assert server.broker.stats("jobs").redelivered == 3
        finally:
            client.close()

    def test_batch_shed_at_admission_stays_pending(self, server):
        client = connect(server)
        try:
            client.open("jobs", capacity=8)
            sub = client.subscribe("jobs")
            client.publish("jobs", 0)
            delivery = sub.receive(timeout=2.0)
            call = client._call

            def shed_once(body, wait_s=None):
                client._call = call
                raise ServerBusyError("shed")

            client._call = shed_once
            with pytest.raises(ServerBusyError):
                sub.ack(delivery)
            assert sub._state.acks == [delivery.delivery_id]
            sub.close(requeue=True)
            stats = server.broker.stats("jobs")
            assert (stats.acked, stats.redelivered) == (1, 0)
        finally:
            client.close()

    def test_close_waits_for_a_batch_another_thread_has_in_flight(self, server):
        """A publisher thread sends the consumer's pending acks, and the
        server is slow to apply them.  The consumer's close must wait for
        that batch: an unsubscribe that overtook it on the server's worker
        pool would requeue messages already acked."""
        dispatch = server._dispatch

        def slow_acks(request, job):
            if request.get("op") == "ack":
                time.sleep(0.2)
            return dispatch(request, job)

        server._dispatch = slow_acks
        client = connect(server)
        survivor = connect(server)
        stop = threading.Event()
        errors: list[BaseException] = []

        def publish_noise() -> None:
            try:
                while not stop.is_set():
                    client.publish("noise", 0)
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        publisher = threading.Thread(target=publish_noise)
        try:
            client.open("jobs", capacity=32)
            client.open("noise", capacity=1, overflow="drop-oldest")
            sub = client.subscribe("jobs", subscriber="quitter", prefetch=8)
            for i in range(20):
                client.publish("jobs", i)
            assert buffered(sub, 8)
            acked = [sub.receive(timeout=2.0) for _ in range(3)]
            for delivery in acked:
                sub.ack(delivery)  # pending: five still buffered
            publisher.start()
            # the publisher's next request took the three ids with it
            assert wait_for(lambda: not sub._state.acks)
            sub.close(requeue=True)
            assert server.broker.stats("jobs").acked == 3

            other = survivor.subscribe("jobs", subscriber="survivor")
            got = [other.receive(timeout=2.0) for _ in range(17)]
            assert other.try_receive() is None
            assert not {d.seq for d in acked} & {d.seq for d in got}
            assert sorted(d.seq for d in acked + got) == list(range(1, 21))
        finally:
            stop.set()
            if publisher.is_alive():
                publisher.join(timeout=5.0)
            client.close()
            survivor.close()
        assert not errors, errors

    def test_bad_batch_sent_by_another_request_fails_its_own_subscription(self, server):
        client = connect(server)
        try:
            client.open("jobs", capacity=8)
            sub = client.subscribe("jobs")
            for i in range(3):
                client.publish("jobs", i)
            assert buffered(sub, 3)
            first = sub.receive(timeout=2.0)
            sub.ack(987654)  # pending: two deliveries still buffered
            # the publish sends the bad batch, and is still sent itself
            assert client.publish("jobs", 3) == 4
            assert server.broker.stats("jobs").published == 4
            with pytest.raises(MessagingError, match="987654"):
                sub.ack(first)
            assert server.broker.stats("jobs").acked == 1
        finally:
            client.close()

    def test_drain_costs_a_request_and_a_write_per_half_window(self, server):
        """200 deliveries at prefetch 32: one ack request per 16 ids and one
        push write per grant (the per-message protocol made 200 of each)."""
        messages = 200
        counts = {"ack": 0, "push": 0}
        dispatch, push = server._dispatch, server._server.push

        def counting_dispatch(request, job):
            counts["ack"] += request.get("op") == "ack"
            return dispatch(request, job)

        def counting_push(conn, buffers):
            counts["push"] += 1
            return push(conn, buffers)

        server._dispatch = counting_dispatch
        server._server.push = counting_push
        client = connect(server)
        try:
            client.open("bulk", capacity=messages)
            for i in range(messages):
                client.publish("bulk", i)
            sub = client.subscribe("bulk", prefetch=32)
            seqs = []
            for _ in range(messages):
                delivery = sub.receive(timeout=5.0)
                sub.ack(delivery)
                seqs.append(delivery.seq)
            assert seqs == list(range(1, messages + 1))
            assert server.broker.stats("bulk").acked == messages
        finally:
            client.close()
        assert counts["ack"] <= messages / 8, counts
        assert counts["push"] <= messages / 8, counts


class TestOneConnection:
    def test_reader_thread_only_with_a_subscription(self, server):
        """A publisher-only client reads its own replies; a client with
        subscriptions runs one reader for all of them."""
        publisher = connect(server)
        consumer = connect(server)
        try:
            publisher.open("alpha", capacity=8)
            publisher.open("beta", capacity=8)
            publisher.publish("alpha", "a")
            assert publisher._reader is None and consumer._reader is None
            sub_a = consumer.subscribe("alpha")
            reader = consumer._reader
            sub_b = consumer.subscribe("beta")
            publisher.publish("beta", "b")
            assert sub_a.receive(timeout=2.0).payload == "a"
            assert sub_b.receive(timeout=2.0).payload == "b"
            assert consumer._reader is reader and reader.is_alive()
            assert reader.name == "mbox-client-reader"
            assert publisher._reader is None
        finally:
            publisher.close()
            consumer.close()
        reader.join(1.0)
        assert not reader.is_alive()

    def test_connecting_to_a_closed_port_is_a_transport_error(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        with pytest.raises(TransportError, match="cannot connect"):
            MailboxTcpClient("127.0.0.1", port, timeout_s=2.0)


class TestMultiplexing:
    def test_many_subscriptions_share_one_socket(self, server):
        client = connect(server)
        try:
            client.open("alpha", capacity=8)
            client.open("beta", capacity=8)
            sub_a = client.subscribe("alpha", subscriber="a")
            sub_b = client.subscribe("beta", subscriber="b")
            client.publish("alpha", "for-a")
            client.publish("beta", "for-b")
            assert sub_a.receive(timeout=2.0).payload == "for-a"
            assert sub_b.receive(timeout=2.0).payload == "for-b"
            # routing is exact: neither queue holds the other's message
            assert sub_a.try_receive() is None
            assert sub_b.try_receive() is None
        finally:
            client.close()

    def test_push_order_matches_publish_order_per_subscription(self, server):
        client = connect(server)
        try:
            client.open("ordered", mode="all-readers", capacity=32)
            sub = client.subscribe("ordered", subscriber="reader")
            for i in range(8):
                client.publish("ordered", i)
            got = [sub.receive(timeout=2.0) for _ in range(8)]
            assert [d.payload for d in got] == list(range(8))
            for delivery in got:
                sub.ack(delivery)
        finally:
            client.close()


class TestWireFaults:
    def test_unknown_op_is_a_typed_messaging_error(self, server):
        client = connect(server)
        try:
            with pytest.raises(MessagingError, match="unknown mailbox op"):
                client._request({"op": "bogus"})
        finally:
            client.close()

    def test_unsubscribe_without_requeue_discards_with_events(self, server):
        drops = []
        server.bus.subscribe("mbox.dropped", lambda e: drops.append(e.payload))
        client = connect(server)
        try:
            client.open("jobs", capacity=8)
            sub = client.subscribe("jobs", subscriber="careless")
            client.publish("jobs", "a")
            client.publish("jobs", "b")
            assert wait_for(lambda: server.broker.stats("jobs").delivered == 2)
            sub.close(requeue=False)
            assert wait_for(lambda: len(drops) == 2)
            assert {d["reason"] for d in drops} == {"discarded_on_close"}
            assert server.broker.stats("jobs").dropped == 2
        finally:
            client.close()

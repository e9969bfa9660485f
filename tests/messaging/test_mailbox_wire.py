"""The mailbox protocol's bytes, pinned per carrier.

Each test drives one seeded, single-threaded script through a carrier and
pins what crossed it.  Over TCP that is every frame, recorded at the
client's socket: the frames it wrote, the replies (ordered by correlation
id) and the pushes (in arrival order), as counts, byte totals and one
SHA-256 over all of them.  Over the sim fabric it is the network's
message and byte totals.  A change that reshapes a request, a reply, a
fault or a delivery fails here, however the test suite's other
assertions read the decoded values.  The last test holds the one fault
shape: every typed error comes back as its own type with its own text.
"""

import hashlib
import time

import pytest

from repro.encoding.xdr import pack_value, unpack_value
from repro.messaging.bindings import SimMailboxClient, SimMailboxHost, _NetClock
from repro.messaging.broker import MessageBroker
from repro.messaging.tcpbind import MailboxTcpClient, MailboxTcpServer, _MboxJob
from repro.netsim import lan
from repro.obs import trace
from repro.transport import tcp as _tcp
from repro.transport.base import TransportMessage
from repro.util.faults import fault_reply, raise_fault
from repro.util.errors import (
    HarnessTimeoutError,
    MailboxFullError,
    MessagingError,
    ServerBusyError,
)

PAYLOADS = ("a", {"n": 1}, [1, 2.5, "x"])


@pytest.fixture(autouse=True)
def untraced():
    was = trace.enabled()
    trace.enable(False)
    yield
    trace.enable(was)


def _wait(predicate, budget_s=5.0):
    deadline = time.monotonic() + budget_s
    while not predicate():
        assert time.monotonic() < deadline, "timed out waiting for pushes"
        time.sleep(0.002)


def _script(client, wait_buffered):
    """The one script: every op, a nack, a redelivery, a reject and a bad op."""
    client.open("jobs", capacity=4, overflow="reject")
    client.open("full", capacity=1, overflow="reject")
    sub = client.subscribe("jobs", subscriber="w", prefetch=4)
    for payload in PAYLOADS:
        client.publish("jobs", payload, publisher="p")
    wait_buffered(sub, 3)
    first = sub.receive(timeout=2.0)
    sub.ack(first)
    second = sub.receive(timeout=2.0)
    sub.nack(second)
    wait_buffered(sub, 2)
    # the sim pulls the nacked message first, TCP had already pushed seq 3
    third, again = sorted((sub.receive(timeout=2.0), sub.receive(timeout=2.0)),
                          key=lambda delivery: delivery.redelivered)
    assert again.redelivered and again.seq == second.seq
    sub.ack(third)
    sub.ack(again)
    client.publish("full", 0)
    with pytest.raises(MailboxFullError):
        client.publish("full", 1)
    stats = client.stats("jobs")
    assert stats["acked"] == 3
    with pytest.raises(MessagingError, match="unknown mailbox op"):
        client._request({"op": "bogus"})
    sub.close(requeue=True)
    return [first.seq, second.seq, third.seq, again.seq]


def test_tcp_frames_are_pinned(monkeypatch):
    sent, replies, pushes = [], {}, []
    real_send = _tcp._send_buffers

    def record_send(sock, buffers):
        sent.append(b"".join(bytes(b) for b in buffers))
        return real_send(sock, buffers)

    monkeypatch.setattr(_tcp, "_send_buffers", record_send)
    server = MailboxTcpServer(MessageBroker())
    client = MailboxTcpClient(*server.address, timeout_s=10.0)
    on_reply, on_push = client._on_reply, client._on_push

    def record_reply(corr_id, message, status):
        replies[corr_id] = bytes([status]) + message.content_type.encode() + bytes(message.payload)
        on_reply(corr_id, message, status)

    def record_push(sub_id, message, trace_block):
        pushes.append(sub_id.to_bytes(4, "big") + bytes(message.payload))
        on_push(sub_id, message, trace_block)

    client._on_reply, client._on_push = record_reply, record_push
    try:
        seqs = _script(client, lambda sub, n: _wait(lambda: len(sub._state.queue) == n))
    finally:
        client.close()
        server.close(drain_s=0.5)
    assert seqs == [1, 2, 3, 2]
    ordered = [replies[corr_id] for corr_id in sorted(replies)]
    busy = b"".join(_MboxJob(7, TransportMessage("x", b""), None).busy_reply())
    digest = hashlib.sha256(b"".join(sent + ordered + pushes) + busy).hexdigest()
    shape = (len(sent), sum(map(len, sent)), len(ordered), sum(map(len, ordered)),
             len(pushes), sum(map(len, pushes)), len(busy))
    assert (shape, digest) == (
        (15, 2271, 15, 1317, 4, 800, 133),
        "91f803ee5a8589aa422506297f97210c4a8ded322de0a0bbb8ea550c96b13713",
    )


def test_sim_fabric_totals_are_pinned():
    network = lan(2)
    host = SimMailboxHost(network, "node0")
    client = SimMailboxClient(network, "node1", "node0", clock=_NetClock(network))
    try:
        seqs = _script(client, lambda sub, n: None)
    finally:
        host.close()
    assert seqs == [1, 2, 3, 2]
    # the sim carrier's requests name a subscription by id alone, as TCP's
    # do, and its acks are one-id batches: 3948 bytes before, same 38 messages
    assert (network.total_messages, network.total_bytes) == (38, 3816)


@pytest.mark.parametrize("exc, expected", [
    (MailboxFullError("news", 1, detail="subscriber slow backlogged"), MailboxFullError),
    (HarnessTimeoutError("publish to 'slow' blocked past deadline"), HarnessTimeoutError),
    (MessagingError("mailbox 'x' is not open"), MessagingError),
    (ServerBusyError("mailbox server at capacity"), ServerBusyError),
    (KeyError("name"), MessagingError),  # anything untyped arrives as MessagingError
])
def test_every_fault_crosses_with_its_type_and_text(exc, expected):
    reply = unpack_value(pack_value(fault_reply(exc)))
    with pytest.raises(expected) as raised:
        raise_fault(reply, MessagingError)
    assert type(raised.value) is expected
    if type(exc) is expected:
        assert str(raised.value) == str(exc)
    else:  # led by the type it had
        assert str(raised.value) == f"{type(exc).__name__}: {exc}"
    if expected is MailboxFullError:
        assert (raised.value.mailbox, raised.value.capacity) == ("news", 1)

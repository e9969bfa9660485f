"""hmsg regressions: poll semantics, bounded queues, fanout wire economy.

These pin the behaviours reworked when hmsg moved onto the broker:

- ``recv(timeout=0)`` is an atomic poll — it deterministically returns a
  queued matching envelope or raises immediately, and the poll/block
  paths share one condition variable so a message landing between the
  check and the wait can't be missed, and a close wakes a parked receiver;
- hmsg mailboxes are bounded — a full queue is a typed
  :class:`MailboxFullError`, not silent unbounded growth;
- ``fanout`` reaches many mailboxes on a host with ONE inter-kernel
  message (what hpvmd's mcast rides).
"""

import threading
import time

import pytest

from repro.core.kernel import HarnessKernel
from repro.netsim import lan
from repro.plugins.hmsg import MessageTransportPlugin
from repro.util.errors import HarnessTimeoutError, MailboxFullError, PluginError


@pytest.fixture
def pair():
    net = lan(2)
    kernels = []
    for i in range(2):
        kernel = HarnessKernel(f"node{i}", network=net)
        kernel.load_plugin(MessageTransportPlugin)
        kernels.append(kernel)
    yield kernels[0], kernels[1], net
    for kernel in kernels:
        kernel.shutdown()


class TestAtomicPoll:
    def test_poll_returns_queued_envelope(self, pair):
        k0, _, _ = pair
        hmsg = k0.get_service("message-transport")
        hmsg.open_mailbox("box")
        hmsg.send("node0", "box", "ready", tag=4)
        envelope = hmsg.recv("box", timeout=0)
        assert envelope.data == "ready" and envelope.tag == 4

    def test_poll_on_empty_raises_immediately(self, pair):
        k0, _, _ = pair
        hmsg = k0.get_service("message-transport")
        hmsg.open_mailbox("box")
        started = time.monotonic()
        with pytest.raises(HarnessTimeoutError, match="would block"):
            hmsg.recv("box", timeout=0)
        assert time.monotonic() - started < 0.1  # a poll, not a wait

    def test_poll_with_nonmatching_tag_raises_but_keeps_message(self, pair):
        k0, _, _ = pair
        hmsg = k0.get_service("message-transport")
        hmsg.open_mailbox("box")
        hmsg.send("node0", "box", "tagged", tag=1)
        with pytest.raises(HarnessTimeoutError):
            hmsg.recv("box", tag=2, timeout=0)
        # the drained-but-unmatched envelope waits in the stash, unharmed
        assert hmsg.recv("box", tag=1, timeout=0).data == "tagged"

    def test_negative_timeout_also_polls(self, pair):
        k0, _, _ = pair
        hmsg = k0.get_service("message-transport")
        hmsg.open_mailbox("box")
        with pytest.raises(HarnessTimeoutError):
            hmsg.recv("box", timeout=-1)

    def test_message_between_poll_and_block_wakes_receiver(self, pair):
        # the race the shared condvar closes: a blocked recv must be woken
        # by a send that lands after the initial empty check
        k0, _, _ = pair
        hmsg = k0.get_service("message-transport")
        hmsg.open_mailbox("box")
        got = {}

        def receiver():
            got["envelope"] = hmsg.recv("box", timeout=5)

        thread = threading.Thread(target=receiver)
        thread.start()
        time.sleep(0.05)  # let the receiver park
        hmsg.send("node0", "box", "late arrival")
        thread.join(timeout=5)
        assert not thread.is_alive(), "blocked recv never woke"
        assert got["envelope"].data == "late arrival"

    def test_close_wakes_parked_receiver(self, pair):
        # closing a mailbox is news to a recv parked on it: the receiver
        # fails typed at once instead of at the end of its timeout.  The
        # close must wake it by itself, not through the broker calling back
        # on subscription teardown (which it skips for a subscription it
        # already closed), so the broker's hook is detached here.
        k0, _, _ = pair
        hmsg = k0.get_service("message-transport")
        hmsg.broker.on_wakeup = None
        hmsg.open_mailbox("box")
        parked = threading.Event()
        outcome = {}

        def receiver():
            parked.set()
            try:
                hmsg.recv("box", timeout=30)
            except PluginError as exc:
                outcome["error"] = exc
                outcome["at"] = time.monotonic()

        thread = threading.Thread(target=receiver, daemon=True)
        thread.start()
        parked.wait(5)
        time.sleep(0.05)  # let the receiver reach its wait
        closed_at = time.monotonic()
        hmsg.close_mailbox("box")
        thread.join(timeout=1)
        assert not thread.is_alive(), "parked recv never saw the close"
        assert "closed during recv" in str(outcome["error"])
        assert outcome["at"] - closed_at < 1.0


class TestBoundedMailboxes:
    def test_full_mailbox_rejects_typed(self):
        net = lan(1)
        kernel = HarnessKernel("node0", network=net)
        try:
            hmsg = kernel.load_plugin(MessageTransportPlugin(capacity=2))
            hmsg.open_mailbox("tiny")
            hmsg.send("node0", "tiny", "a")
            hmsg.send("node0", "tiny", "b")
            with pytest.raises(MailboxFullError) as err:
                hmsg.send("node0", "tiny", "c")
            assert err.value.capacity == 2
            # the queue still holds exactly what was admitted
            assert hmsg.pending("tiny") == 2
            assert hmsg.recv("tiny", timeout=0).data == "a"
        finally:
            kernel.shutdown()


class TestFanout:
    def test_fanout_delivers_to_every_mailbox(self, pair):
        k0, k1, _ = pair
        remote = k1.get_service("message-transport")
        for name in ("a", "b", "c"):
            remote.open_mailbox(name)
        sent = k0.get_service("message-transport").fanout(
            "node1", ["a", "b", "c"], {"v": 9}, tag=2)
        assert sent == 3
        for name in ("a", "b", "c"):
            envelope = remote.recv(name, timeout=2)
            assert envelope.data == {"v": 9}
            assert envelope.tag == 2 and envelope.src_host == "node0"

    def test_fanout_costs_one_wire_message_not_n(self, pair):
        k0, k1, net = pair
        local = k0.get_service("message-transport")
        remote = k1.get_service("message-transport")
        boxes = ["m0", "m1", "m2"]
        for name in boxes:
            remote.open_mailbox(name)

        net.reset_stats()
        local.fanout("node1", boxes, "burst")
        fanout_msgs = net.total_messages

        net.reset_stats()
        for name in boxes:
            local.send("node1", name, "burst")
        individual_msgs = net.total_messages

        assert fanout_msgs * len(boxes) == individual_msgs
        for name in boxes:  # both rounds actually arrived
            assert remote.recv(name, timeout=2).data == "burst"
            assert remote.recv(name, timeout=2).data == "burst"

    def test_empty_fanout_is_free(self, pair):
        k0, _, net = pair
        net.reset_stats()
        assert k0.get_service("message-transport").fanout("node1", [], "x") == 0
        assert net.total_messages == 0

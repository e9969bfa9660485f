"""``hmsg`` — the message-transport plugin (Figure 2's "message transport").

Provides tagged mailboxes addressable across kernels: any plugin (notably
``hpvmd``) can post a message to ``(host, mailbox)`` and the receiving
kernel's hmsg queues it for a local ``recv``.  Payloads ride the kernel's
XDR-encoded inter-kernel channel, so bytes are charged to the fabric.

Since the messaging layer landed (DESIGN.md §15), each hmsg mailbox is a
``first-reader`` mailbox on an embedded
:class:`~repro.messaging.broker.MessageBroker` — queues are *bounded*
(``capacity``, default 65536, overflow ``reject`` → a typed
:class:`MailboxFullError` instead of unbounded growth), every
publish/deliver/ack feeds the ``mbox.*`` obs metrics, and the PVM layer's
tag-selective ``recv`` is a stash in front of the broker's FIFO: messages
drained off the subscription that don't match the requested tag wait in
the stash for the recv that wants them.

``recv(timeout=0)`` is an **atomic poll**: it returns a matching envelope
if one is queued and otherwise raises :class:`HarnessTimeoutError`
*immediately* — it never blocks, and never returns an ambiguous ``None``.
The check and the blocking wait share one condition variable, so a
message arriving between poll and block wakes the receiver instead of
being missed.

``fanout`` delivers one payload to many mailboxes on one destination host
with a single inter-kernel message — what ``hpvmd``'s mcast/bcast use to
send per *host* instead of per *task*.
"""

from __future__ import annotations

import threading
from typing import Any

from repro.core.plugin import Plugin
from repro.messaging.broker import MessageBroker, Subscription
from repro.util.errors import HarnessTimeoutError, MessagingError, PluginError

__all__ = ["MessageTransportPlugin", "Envelope"]

#: Default bound on one hmsg mailbox's undelivered backlog.
DEFAULT_CAPACITY = 65536


class Envelope:
    """One queued message: source host, integer tag, payload."""

    __slots__ = ("src_host", "tag", "data")

    def __init__(self, src_host: str, tag: int, data: Any):
        self.src_host = src_host
        self.tag = tag
        self.data = data

    def __repr__(self) -> str:
        return f"Envelope(src={self.src_host!r}, tag={self.tag})"


class MessageTransportPlugin(Plugin):
    """Mailbox-based message passing between kernels, on the broker."""

    plugin_name = "hmsg"
    provides = ("message-transport",)

    def __init__(self, capacity: int = DEFAULT_CAPACITY, overflow: str = "reject") -> None:
        super().__init__()
        self._cond = threading.Condition()
        self._capacity = capacity
        self._overflow = overflow
        self.broker = MessageBroker()
        self.broker.on_wakeup = self._on_broker_wakeup
        # mailbox -> (subscription, stash of drained-but-unmatched envelopes)
        self._subs: dict[str, Subscription] = {}
        self._stash: dict[str, list[Envelope]] = {}

    def _on_broker_wakeup(self, name: str) -> None:
        with self._cond:
            self._cond.notify_all()

    # -- local API -----------------------------------------------------------------

    def open_mailbox(self, name: str) -> None:
        """Create a mailbox (idempotent)."""
        with self._cond:
            self._open_locked(name)

    def _open_locked(self, name: str) -> None:
        if name in self._subs:
            return
        self.broker.open(f"hmsg:{name}", mode="first-reader",
                         capacity=self._capacity, overflow=self._overflow)
        self._subs[name] = self.broker.subscribe(f"hmsg:{name}", subscriber=name)
        self._stash[name] = []

    def close_mailbox(self, name: str) -> None:
        with self._cond:
            sub = self._subs.pop(name, None)
            self._stash.pop(name, None)
            self._cond.notify_all()  # a parked recv sees the close now
        if sub is not None:
            # drop whatever is still queued — a closed mailbox loses its
            # backlog by contract (mirrors the pre-broker behaviour); the
            # drains auto-ack so nothing lingers as unacked
            while True:
                delivery = sub.try_receive()
                if delivery is None:
                    break
                sub.ack(delivery)
            sub.close(requeue=False)

    def send(self, dst_host: str, mailbox: str, data: Any, tag: int = 0) -> None:
        """Deliver *data* to a mailbox on *dst_host* (possibly this host).

        A full destination mailbox surfaces as a typed
        :class:`~repro.util.errors.MailboxFullError` (local sends) — the
        queue never grows without bound.
        """
        if self.kernel is None:
            raise PluginError("hmsg is not attached")
        if dst_host == self.kernel.host_name:
            self._enqueue(self.kernel.host_name, mailbox, tag, data)
            return
        self.kernel.send(dst_host, "message-transport", {
            "mailbox": mailbox, "tag": tag, "data": data,
        })

    def fanout(self, dst_host: str, mailboxes: list[str], data: Any, tag: int = 0) -> int:
        """Deliver *data* to many mailboxes on *dst_host* with ONE
        inter-kernel message; returns the number of mailboxes addressed."""
        if self.kernel is None:
            raise PluginError("hmsg is not attached")
        if not mailboxes:
            return 0
        if dst_host == self.kernel.host_name:
            for mailbox in mailboxes:
                self._enqueue(self.kernel.host_name, mailbox, tag, data)
            return len(mailboxes)
        self.kernel.send(dst_host, "message-transport", {
            "mailboxes": list(mailboxes), "tag": tag, "data": data,
        })
        return len(mailboxes)

    def recv(self, mailbox: str, tag: int | None = None, timeout: float = 10.0) -> Envelope:
        """Blocking receive; ``tag=None`` matches any tag.

        ``timeout=0`` (or negative) is an atomic poll: return a matching
        envelope or raise :class:`HarnessTimeoutError` right away.
        """
        import time as _time

        with self._cond:
            if mailbox not in self._subs:
                raise PluginError(f"mailbox {mailbox!r} is not open")
            envelope = self._match_locked(mailbox, tag)
            if envelope is not None:
                return envelope
            if timeout is not None and timeout <= 0:
                raise HarnessTimeoutError(
                    f"recv on {mailbox!r} (tag={tag}) would block (timeout={timeout})"
                )
            end = None if timeout is None else _time.monotonic() + timeout
            while True:
                remaining = None
                if end is not None:
                    remaining = end - _time.monotonic()
                    if remaining <= 0:
                        raise HarnessTimeoutError(
                            f"recv on {mailbox!r} (tag={tag}) timed out after {timeout}s"
                        )
                self._cond.wait(remaining)
                if mailbox not in self._subs:
                    raise PluginError(f"mailbox {mailbox!r} was closed during recv")
                envelope = self._match_locked(mailbox, tag)
                if envelope is not None:
                    return envelope

    def try_recv(self, mailbox: str, tag: int | None = None) -> Envelope | None:
        """Non-blocking receive."""
        with self._cond:
            if mailbox not in self._subs:
                raise PluginError(f"mailbox {mailbox!r} is not open")
            return self._match_locked(mailbox, tag)

    def pending(self, mailbox: str) -> int:
        with self._cond:
            if mailbox not in self._subs:
                return 0
            stashed = len(self._stash[mailbox])
        return stashed + self.broker.stats(f"hmsg:{mailbox}").depth

    def _match_locked(self, mailbox: str, tag: int | None) -> Envelope | None:
        """Find a matching envelope: stash first, then drain the broker.

        Runs under ``_cond`` — the atomicity behind poll semantics.  Every
        drained delivery is acked on the spot (the stash takes ownership),
        so broker-side unacked state never accumulates for hmsg.
        """
        stash = self._stash[mailbox]
        for i, envelope in enumerate(stash):
            if tag is None or envelope.tag == tag:
                return stash.pop(i)
        sub = self._subs[mailbox]
        while True:
            delivery = sub.try_receive()
            if delivery is None:
                return None
            sub.ack(delivery)
            payload = delivery.payload
            envelope = Envelope(payload["src"], payload["tag"], payload["data"])
            if tag is None or envelope.tag == tag:
                return envelope
            stash.append(envelope)

    # -- inter-kernel delivery ---------------------------------------------------------

    def handle_message(self, src_host: str, payload: dict) -> bool:
        """Kernel-channel entry point for remote sends (single or fanout)."""
        tag = payload.get("tag", 0)
        data = payload.get("data")
        for mailbox in payload.get("mailboxes", ()):
            self._enqueue(src_host, mailbox, tag, data)
        if "mailbox" in payload:
            self._enqueue(src_host, payload["mailbox"], tag, data)
        return True

    def _enqueue(self, src_host: str, mailbox: str, tag: int, data: Any) -> None:
        with self._cond:
            # auto-open on first delivery; receivers may subscribe late
            self._open_locked(mailbox)
        self.broker.publish(f"hmsg:{mailbox}",
                            {"src": src_host, "tag": tag, "data": data},
                            publisher=src_host)

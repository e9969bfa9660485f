"""The mailbox protocol: one op table, one fault shape, one delivery shape.

Two carriers speak it to a :class:`~repro.messaging.broker.MessageBroker`:
the sim carrier (:mod:`repro.messaging.bindings`) sends each request
through ``VirtualNetwork.request`` and *pulls* deliveries with
``receive``; the TCP carrier (:mod:`repro.messaging.tcpbind`) sends each
as a v2 frame and has deliveries *pushed*, paced by prefetch credits.
Requests and replies are XDR-packed dicts under :data:`CT_MBOX`, the same
on both (DESIGN.md §15 has the op table).  A delivery is
:func:`delivery_body`'s dict, the fields of a ``receive`` reply that found
one and the whole body of a TCP push; a failed op answers
:func:`~repro.util.faults.fault_reply`'s dict, which
:func:`~repro.util.faults.raise_fault` raises again on the client as its own
type with its own text (an unknown type as a :class:`MessagingError`).
"""

from __future__ import annotations

import threading
from typing import Any

from repro.encoding.xdr import unpack_value
from repro.messaging.broker import (
    Delivery,
    Message,
    MessageBroker,
    Subscription,
    _delivery_id,
)
from repro.obs import trace as _trace
from repro.util.errors import MessagingError
from repro.util.faults import fault_reply

__all__ = ["CT_MBOX", "MailboxServer", "MailboxClient", "RemoteSubscription",
           "delivery_body", "delivery_from"]

CT_MBOX = "application/x-harness-mbox"

def delivery_body(delivery: Delivery) -> dict:
    """The one delivery shape, less its trace block."""
    msg = delivery.message
    return {
        "mailbox": delivery.mailbox,
        "delivery_id": delivery.delivery_id,
        "seq": msg.seq,
        "payload": msg.payload,
        "publisher": msg.publisher,
        "redelivered": delivery.redelivered,
        "attempt": delivery.attempt,
    }


def delivery_from(body: dict, trace) -> Delivery:
    """Rebuild the :class:`Delivery` that :func:`delivery_body` described."""
    msg = Message(int(body["seq"]), body.get("payload"), body.get("publisher", ""),
                  bytes(trace or b""), 0.0)
    return Delivery(msg, body["mailbox"], int(body["delivery_id"]),
                    bool(body.get("redelivered")), int(body.get("attempt", 1)))


# -- server -------------------------------------------------------------------


class MailboxServer:
    """The op table over one broker; a carrier adds how deliveries leave.

    A carrier hands each request payload to :meth:`_answer` and sends back
    the reply it gets.  Two hooks are the carrier's own: :meth:`_attach`
    serves a new subscription (and may start feeding it), and
    :meth:`_settled` hears how many of its deliveries an ``ack`` or
    ``nack`` just settled.
    """

    def __init__(self, broker: MessageBroker):
        self.broker = broker
        self._lock = threading.Lock()
        self._subs: dict[int, Subscription] = {}  # the ones this carrier serves

    def _answer(self, payload, job=None) -> tuple[dict, bool]:
        """Run one request: ``(reply, True)``, or ``(fault, False)``."""
        try:
            return self._dispatch(unpack_value(payload), job), True
        except Exception as exc:
            return fault_reply(exc), False

    def _dispatch(self, request: dict, job=None) -> dict:
        op = request.get("op")
        handler = _OPS.get(op)
        if handler is None:
            raise MessagingError(f"unknown mailbox op {op!r}")
        return handler(self, request, job)

    # -- the op table ------------------------------------------------------------

    def _open(self, request: dict, job) -> dict:
        self.broker.open(request["name"], mode=request.get("mode", "first-reader"),
                         capacity=int(request.get("capacity", 64)),
                         overflow=request.get("overflow", "reject"))
        return {"ok": True}

    def _publish(self, request: dict, job) -> dict:
        seq = self.broker.publish(request["name"], request.get("payload"),
                                  timeout_s=request.get("timeout_s"),
                                  publisher=request.get("publisher", ""),
                                  trace=request.get("trace") or None)
        return {"ok": True, "seq": seq}

    def _subscribe(self, request: dict, job) -> dict:
        sub = self.broker.subscribe(request["name"], request.get("subscriber", ""),
                                    lease_s=request.get("lease_s"))
        self._attach(sub, request, job)
        return {"ok": True, "sub_id": sub.sub_id}

    def _receive(self, request: dict, job) -> dict:
        delivery = self._get_sub(int(request["sub_id"])).try_receive()
        if delivery is None:
            return {"ok": True, "empty": True}
        reply = {"ok": True, "empty": False}
        reply.update(delivery_body(delivery))
        reply["trace"] = delivery.message.trace
        return reply

    def _ack(self, request: dict, job) -> dict:
        sub = self._get_sub(int(request["sub_id"]))
        delivery_ids = list(request["delivery_ids"])
        bad, reason = [], ""
        for delivery_id in delivery_ids:
            try:
                sub.ack(int(delivery_id))
            except (MessagingError, TypeError, ValueError) as exc:
                bad.append(delivery_id)
                reason = reason or str(exc)
        if len(bad) < len(delivery_ids):
            self._settled(sub, len(delivery_ids) - len(bad))
        if bad:
            raise MessagingError(
                f"ack failed for delivery ids {bad} on {sub.mailbox!r}: {reason}")
        return {"ok": True}

    def _nack(self, request: dict, job) -> dict:
        sub = self._get_sub(int(request["sub_id"]))
        sub.nack(int(request["delivery_id"]))
        self._settled(sub, 1)
        return {"ok": True}

    def _unsubscribe(self, request: dict, job) -> dict:
        sub = self._take_sub(int(request["sub_id"]))
        if sub is not None:
            sub.close(requeue=bool(request.get("requeue", True)))
        return {"ok": True}

    def _stats(self, request: dict, job) -> dict:
        return {"ok": True, "stats": self.broker.stats(request["name"]).as_dict()}

    # -- carrier hooks and the subscription table --------------------------------

    def _attach(self, sub: Subscription, request: dict, job) -> None:
        """Serve a new subscription; a pull carrier needs nothing more."""
        with self._lock:
            self._subs[sub.sub_id] = sub

    def _settled(self, sub: Subscription, count: int) -> None:
        """*count* of *sub*'s deliveries were just acked or nacked."""

    def _get_sub(self, sub_id: int) -> Subscription:
        with self._lock:
            sub = self._subs.get(sub_id)
        if sub is None:
            raise MessagingError(f"unknown subscription {sub_id}")
        return sub

    def _take_sub(self, sub_id: int) -> Subscription | None:
        with self._lock:
            return self._subs.pop(sub_id, None)


_OPS = {op: getattr(MailboxServer, "_" + op) for op in
        ("open", "publish", "subscribe", "receive", "ack", "nack", "unsubscribe", "stats")}


# -- client -------------------------------------------------------------------


class _ClientSub:
    """Client-side state of one subscription; a carrier may extend it."""

    __slots__ = ("sub_id", "mailbox", "closed")

    def __init__(self, sub_id: int, mailbox: str):
        self.sub_id = sub_id
        self.mailbox = mailbox
        self.closed = False


class RemoteSubscription:
    """Client handle mirroring :class:`repro.messaging.broker.Subscription`.

    Every call goes to the carrier's client, which owns the subscription's
    state.  Over TCP ``ack`` batches; the contract is on
    :meth:`repro.messaging.tcpbind.MailboxTcpClient._ack`.
    """

    def __init__(self, client: "MailboxClient", state: _ClientSub):
        self._client = client
        self._state = state
        self.mailbox = state.mailbox
        self.sub_id = state.sub_id

    @property
    def closed(self) -> bool:
        return self._state.closed

    def receive(self, timeout: float | None = None) -> Delivery:
        return self._client._receive(self._state, timeout)

    def try_receive(self) -> Delivery | None:
        """The next delivery, or ``None`` when none is queued.  A carrier
        failure, a timeout included, raises typed: it never reads as empty."""
        return self._client._poll(self._state)

    def ack(self, delivery: Delivery | int) -> None:
        self._client._ack(self._state, _delivery_id(delivery))

    def nack(self, delivery: Delivery | int) -> None:
        self._client._request({"op": "nack", "sub_id": self.sub_id,
                               "delivery_id": _delivery_id(delivery)}, own=self._state)

    def close(self, requeue: bool = True) -> None:
        if not self._state.closed:
            self._client._unsubscribe(self._state, requeue)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class MailboxClient:
    """The client surface both carriers share, over the carrier's requests.

    A carrier supplies ``subscribe`` and the calls behind a
    :class:`RemoteSubscription` (``_poll``, ``_receive``, ``_ack``,
    ``_unsubscribe``), plus ``_request(body, hold_s=None, own=None)``:
    send one request, wait for its reply and raise its fault.  ``hold_s``
    is how long the broker may legitimately hold the request (a blocked
    publish), and ``own`` the subscription it is made for.  ``_origin``
    names the publisher a caller leaves blank.
    """

    _origin = ""

    def open(self, name: str, mode: str = "first-reader", capacity: int = 64,
             overflow: str = "reject") -> None:
        self._request({"op": "open", "name": name, "mode": mode,
                       "capacity": capacity, "overflow": overflow})

    def publish(self, name: str, payload: Any, timeout_s: float | None = None,
                publisher: str = "") -> int:
        trace = _trace.current_wire() if _trace.ENABLED else b""
        reply = self._request({"op": "publish", "name": name, "payload": payload,
                               "timeout_s": timeout_s,
                               "publisher": publisher or self._origin,
                               "trace": trace}, hold_s=timeout_s)
        return int(reply["seq"])

    def stats(self, name: str) -> dict:
        return self._request({"op": "stats", "name": name})["stats"]

    def close(self) -> None:
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

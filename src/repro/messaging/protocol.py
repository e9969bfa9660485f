"""The mailbox protocol: one op table, one fault shape, one delivery shape.

Two carriers speak it to a :class:`~repro.messaging.broker.MessageBroker`:
the sim carrier (:mod:`repro.messaging.bindings`) sends each request
through ``VirtualNetwork.request`` and *pulls* deliveries with
``receive``; the TCP carrier (:mod:`repro.messaging.tcpbind`) sends each
as a v2 frame and has deliveries *pushed*, paced by prefetch credits.
Requests and replies are XDR-packed dicts under :data:`CT_MBOX`, the same
on both.  :data:`OPS` declares each op once: its handler, and its request's
and reply's fields in wire order with their XDR kinds, compiled at import
into planned messages (:mod:`repro.encoding.plan`) that every carrier
sends and reads.  A delivery is :data:`DELIVERY`'s fields, the whole body
of a TCP push and the tail of a ``receive`` reply that found one
(DESIGN.md §15 has the table).  A failed op answers
:func:`~repro.util.faults.fault_reply`'s dict, which
:func:`~repro.util.faults.raise_fault` raises again on the client as its own
type with its own text (an unknown type as a :class:`MessagingError`).
"""

from __future__ import annotations

import threading
from typing import Any, Callable, NamedTuple

from repro.encoding.plan import ANY, BOOL, INT, INTS, OPAQUE, STR, Plan, Table
from repro.encoding.xdr import pack_value, unpack_value
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

__all__ = ["CT_MBOX", "DELIVERY", "OPS", "PUSH", "MailboxServer", "MailboxClient",
           "RemoteSubscription", "read_push"]

CT_MBOX = "application/x-harness-mbox"

#: A delivery's fields in wire order: a TCP push's body, a receive reply's tail.
DELIVERY = {"mailbox": STR, "delivery_id": INT, "seq": INT, "payload": ANY,
            "publisher": STR, "redelivered": BOOL, "attempt": INT}
PUSH = Plan(DELIVERY)


def _delivery_fields(delivery: Delivery) -> tuple:
    """*delivery*'s :data:`DELIVERY` fields, in order."""
    msg = delivery.message
    return (delivery.mailbox, delivery.delivery_id, msg.seq, msg.payload,
            msg.publisher, delivery.redelivered, delivery.attempt)


def _delivery_from(body: dict, trace) -> Delivery:
    """The :class:`Delivery` a generically decoded delivery dict names."""
    msg = Message(int(body["seq"]), body.get("payload"), body.get("publisher", ""),
                  bytes(trace or b""), 0.0)
    return Delivery(msg, body["mailbox"], int(body["delivery_id"]),
                    bool(body.get("redelivered")), int(body.get("attempt", 1)))


def read_push(payload, trace) -> Delivery:
    """The :class:`Delivery` a push body carries, with its frame's *trace*."""
    fields = PUSH.unpack(payload)
    if fields is None:  # not the declared layout: the generic value
        return _delivery_from(unpack_value(payload), trace)
    mailbox, delivery_id, seq, body, publisher, redelivered, attempt = fields
    return Delivery(Message(seq, body, publisher, bytes(trace or b""), 0.0),
                    mailbox, delivery_id, redelivered, attempt)


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

    def _answer(self, payload, job=None) -> tuple[bytes, bool]:
        """Run one request: ``(reply, True)``, or ``(fault, False)``, packed."""
        try:
            return self._dispatch(_REQUESTS.decode(payload), job), True
        except Exception as exc:
            return pack_value(fault_reply(exc)), False

    def _dispatch(self, request: dict, job=None) -> bytes:
        name = request.get("op")
        op = OPS.get(name)
        if op is None:
            raise MessagingError(f"unknown mailbox op {name!r}")
        fields = op.handler(self, request, job)
        return _NOTHING if fields is None else op.reply.pack(*fields)

    # -- the ops: each returns its reply's fields (see OPS) ---------------------

    def _open(self, request: dict, job) -> tuple:
        self.broker.open(request["name"], mode=request.get("mode", "first-reader"),
                         capacity=int(request.get("capacity", 64)),
                         overflow=request.get("overflow", "reject"))
        return ()

    def _publish(self, request: dict, job) -> tuple:
        return (self.broker.publish(request["name"], request.get("payload"),
                                    timeout_s=request.get("timeout_s"),
                                    publisher=request.get("publisher", ""),
                                    trace=request.get("trace") or None),)

    def _subscribe(self, request: dict, job) -> tuple:
        sub = self.broker.subscribe(request["name"], request.get("subscriber", ""),
                                    lease_s=request.get("lease_s"))
        self._attach(sub, request, job)
        return (sub.sub_id,)

    def _receive(self, request: dict, job) -> tuple | None:
        delivery = self._get_sub(int(request["sub_id"])).try_receive()
        if delivery is None:
            return None
        return (*_delivery_fields(delivery), delivery.message.trace)

    def _ack(self, request: dict, job) -> tuple:
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
        return ()

    def _nack(self, request: dict, job) -> tuple:
        sub = self._get_sub(int(request["sub_id"]))
        sub.nack(int(request["delivery_id"]))
        self._settled(sub, 1)
        return ()

    def _unsubscribe(self, request: dict, job) -> tuple:
        sub = self._take_sub(int(request["sub_id"]))
        if sub is not None:
            sub.close(requeue=bool(request.get("requeue", True)))
        return ()

    def _stats(self, request: dict, job) -> tuple:
        return (self.broker.stats(request["name"]).as_dict(),)

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


class Op(NamedTuple):
    """One mailbox op: the server's handler and the op's two messages."""

    handler: Callable
    request: Plan
    reply: Plan


#: The op table: op -> handler (``MailboxServer._<op>``), request, reply.
#: A request leads with ``op`` and a reply with ``ok``; the fields follow
#: in wire order, each with its XDR kind.  The sim's ``subscribe`` names a
#: lease instead of a prefetch and travels as a generic dict.
OPS = {name: Op(getattr(MailboxServer, "_" + name), Plan({"op": name, **request}),
                Plan({"ok": True, **reply}))
       for name, request, reply in (
           ("open", {"name": STR, "mode": STR, "capacity": INT, "overflow": STR}, {}),
           ("publish", {"name": STR, "payload": ANY, "timeout_s": ANY,
                        "publisher": STR, "trace": OPAQUE}, {"seq": INT}),
           ("subscribe", {"name": STR, "subscriber": STR, "prefetch": INT},
            {"sub_id": INT}),
           ("receive", {"sub_id": INT}, {"empty": False, **DELIVERY, "trace": OPAQUE}),
           ("ack", {"sub_id": INT, "delivery_ids": INTS}, {}),
           ("nack", {"sub_id": INT, "delivery_id": INT}, {}),
           ("unsubscribe", {"sub_id": INT, "requeue": BOOL}, {}),
           ("stats", {"name": STR}, {"stats": ANY}),
       )}
_REQUESTS = Table(op.request for op in OPS.values())
#: the one reply the table does not declare: a receive that found nothing
_NOTHING = Plan({"ok": True, "empty": True}).pack()


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
        self._client._op("nack", self.sub_id, _delivery_id(delivery), own=self._state)

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
    ``_unsubscribe``), plus ``_request(body, hold_s=None, own=None,
    reply=None)``: send one request (a plan's bytes, or a dict packed
    generically), wait for its reply and raise its fault, else return the
    reply as the *reply* plan decodes it (generically when ``None``).
    ``hold_s`` is how long the broker may legitimately hold the request (a
    blocked publish), and ``own`` the subscription it is made for.
    ``_origin`` names the publisher a caller leaves blank.
    """

    _origin = ""

    def open(self, name: str, mode: str = "first-reader", capacity: int = 64,
             overflow: str = "reject") -> None:
        self._op("open", name, mode, capacity, overflow)

    def publish(self, name: str, payload: Any, timeout_s: float | None = None,
                publisher: str = "") -> int:
        trace = _trace.current_wire() if _trace.ENABLED else b""
        reply = self._op("publish", name, payload, timeout_s, publisher or self._origin,
                         trace, hold_s=timeout_s)
        return int(reply["seq"])

    def stats(self, name: str) -> dict:
        return self._op("stats", name)["stats"]

    def _op(self, name: str, *fields, hold_s: float | None = None, own=None) -> dict:
        """Send op *name*'s request with its *fields*; its decoded reply."""
        op = OPS[name]
        return self._request(op.request.pack(*fields), hold_s, own, op.reply)

    def close(self) -> None:
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

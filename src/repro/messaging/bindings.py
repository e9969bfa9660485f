"""In-process and netsim bindings for the mailbox layer.

Both expose the *same client surface* as the TCP binding
(:class:`~repro.messaging.tcpbind.MailboxTcpClient`):
``open`` / ``publish`` / ``subscribe`` / ``stats`` on the client,
``receive`` / ``try_receive`` / ``ack`` / ``nack`` / ``close`` on the
subscription — which is what lets the conformance battery parametrize one
test body over {inproc, sim, tcp}.

:class:`InprocMailboxClient` is a veneer over a local
:class:`~repro.messaging.broker.MessageBroker` — zero marshalling, the
reference semantics.

:class:`SimMailboxHost` binds a broker to a
:class:`~repro.netsim.fabric.VirtualHost` endpoint (``sim://<host>/mbox``)
and :class:`SimMailboxClient` talks to it through
``VirtualNetwork.request`` — every operation is charged simulated
latency/bytes, faults are re-raised typed on the client side, and blocking
``receive``/``publish`` turn into deterministic poll loops on the
VirtualClock, so scenario runs stay byte-reproducible.  Consumer liveness
rides **leases**: every client op renews its subscription's lease, the
broker sweeps expired leases before handling each request, and a consumer
whose host crashed simply stops renewing — its unacked messages requeue
for the survivors, the sim-world analogue of the TCP binding's
connection-death hook.
"""

from __future__ import annotations

from typing import Any

from repro.encoding.xdr import pack_value, unpack_value
from repro.messaging.broker import Delivery, Message, MessageBroker, Subscription
from repro.obs import trace as _trace
from repro.transport.base import TransportMessage
from repro.util.clock import Clock
from repro.util.errors import (
    HarnessTimeoutError,
    MailboxFullError,
    MessagingError,
)

__all__ = ["InprocMailboxClient", "SimMailboxHost", "SimMailboxClient"]

CT_SIM_MBOX = "application/x-harness-mbox"

#: Simulated seconds between receive polls — the sim binding's pull cadence.
SIM_POLL_S = 0.001

#: Default subscription lease in simulated seconds; a consumer silent for
#: this long is declared dead and its unacked messages requeue.
DEFAULT_LEASE_S = 5.0


# -- in-process ---------------------------------------------------------------


class InprocMailboxClient:
    """Direct broker access with the common client surface."""

    def __init__(self, broker: MessageBroker):
        self.broker = broker

    def open(self, name: str, mode: str = "first-reader", capacity: int = 64,
             overflow: str = "reject") -> None:
        self.broker.open(name, mode=mode, capacity=capacity, overflow=overflow)

    def publish(self, name: str, payload: Any, timeout_s: float | None = None,
                publisher: str = "") -> int:
        return self.broker.publish(name, payload, timeout_s=timeout_s,
                                   publisher=publisher)

    def subscribe(self, name: str, subscriber: str = "",
                  prefetch: int = 0, lease_s: float | None = None) -> Subscription:
        return self.broker.subscribe(name, subscriber=subscriber, lease_s=lease_s)

    def stats(self, name: str) -> dict:
        return self.broker.stats(name).as_dict()

    def close(self) -> None:
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


# -- netsim host side ---------------------------------------------------------


def _fault_dict(exc: Exception) -> dict:
    out = {"fault": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, MailboxFullError):
        out["mailbox"] = exc.mailbox
        out["capacity"] = exc.capacity
    return out


def _raise_fault(reply: dict) -> None:
    name = reply.get("fault", "MessagingError")
    if name == "MailboxFullError":
        raise MailboxFullError(reply.get("mailbox", "?"), int(reply.get("capacity", 0)))
    if name == "HarnessTimeoutError":
        raise HarnessTimeoutError(reply.get("message", name))
    raise MessagingError(reply.get("message", name))


class SimMailboxHost:
    """Serves a broker at ``sim://<host>/mbox`` on the virtual fabric."""

    ENDPOINT = "mbox"

    def __init__(self, network, host: str, broker: MessageBroker | None = None,
                 events=None):
        self.network = network
        self.host = host
        self.broker = broker or MessageBroker(clock=_NetClock(network),
                                              events=events, node=host)
        self.url = network.host(host).bind(self.ENDPOINT, self._handle)

    def close(self) -> None:
        self.network.host(self.host).unbind(self.ENDPOINT)

    def _handle(self, message: TransportMessage) -> TransportMessage:
        # liveness first: requeue from any consumer whose lease lapsed, so
        # the very request that follows a crash already sees the backlog
        self.broker.sweep_leases()
        try:
            reply = self._dispatch(unpack_value(message.payload))
        except Exception as exc:
            reply = _fault_dict(exc)
        return TransportMessage(CT_SIM_MBOX, pack_value(reply))

    def _dispatch(self, request: dict) -> dict:
        op = request.get("op")
        broker = self.broker
        if op == "open":
            broker.open(request["name"], mode=request.get("mode", "first-reader"),
                        capacity=int(request.get("capacity", 64)),
                        overflow=request.get("overflow", "reject"))
            return {"ok": True}
        if op == "publish":
            seq = broker.publish(request["name"], request.get("payload"),
                                 timeout_s=request.get("timeout_s"),
                                 publisher=request.get("publisher", ""),
                                 trace=request.get("trace") or None)
            return {"ok": True, "seq": seq}
        if op == "subscribe":
            sub = broker.subscribe(request["name"],
                                   subscriber=request.get("subscriber", ""),
                                   lease_s=request.get("lease_s", DEFAULT_LEASE_S))
            return {"ok": True, "sub_id": sub.sub_id}
        if op == "receive":
            sub = Subscription(broker, request["name"], int(request["sub_id"]), "")
            delivery = sub.try_receive()
            if delivery is None:
                return {"ok": True, "empty": True}
            msg = delivery.message
            return {"ok": True, "empty": False, "mailbox": delivery.mailbox,
                    "delivery_id": delivery.delivery_id, "seq": msg.seq,
                    "payload": msg.payload, "publisher": msg.publisher,
                    "trace": msg.trace, "redelivered": delivery.redelivered,
                    "attempt": delivery.attempt}
        if op == "ack":
            Subscription(broker, request["name"], int(request["sub_id"]), "").ack(
                int(request["delivery_id"]))
            return {"ok": True}
        if op == "nack":
            Subscription(broker, request["name"], int(request["sub_id"]), "").nack(
                int(request["delivery_id"]))
            return {"ok": True}
        if op == "unsubscribe":
            broker._close_sub(request["name"], int(request["sub_id"]),
                              requeue=bool(request.get("requeue", True)))
            return {"ok": True}
        if op == "stats":
            return {"ok": True, "stats": broker.stats(request["name"]).as_dict()}
        raise MessagingError(f"unknown mailbox op {op!r}")


class _NetClock:
    """Clock view over the fabric's simulated time.

    Exposes ``advance`` so the broker's blocking paths treat it as a
    virtual clock (deterministic poll-and-advance, never a condition-
    variable park that nothing in a single-threaded sim would signal).
    """

    def __init__(self, network):
        self._network = network

    def now(self) -> float:
        return self._network.simulated_time

    def sleep(self, seconds: float) -> None:
        self._network.simulated_time += max(0.0, seconds)

    def advance(self, seconds: float) -> None:
        self.sleep(seconds)


# -- netsim client side -------------------------------------------------------


class SimSubscription:
    """Pull-based subscription handle over the fabric."""

    def __init__(self, client: "SimMailboxClient", mailbox: str, sub_id: int):
        self._client = client
        self.mailbox = mailbox
        self.sub_id = sub_id
        self.closed = False

    def receive(self, timeout: float | None = None) -> Delivery:
        return self._client._receive(self, timeout)

    def try_receive(self) -> Delivery | None:
        try:
            return self._client._receive(self, 0)
        except HarnessTimeoutError:
            return None

    def ack(self, delivery: Delivery | int) -> None:
        delivery_id = delivery.delivery_id if isinstance(delivery, Delivery) else delivery
        self._client._call({"op": "ack", "name": self.mailbox,
                            "sub_id": self.sub_id, "delivery_id": delivery_id})

    def nack(self, delivery: Delivery | int) -> None:
        delivery_id = delivery.delivery_id if isinstance(delivery, Delivery) else delivery
        self._client._call({"op": "nack", "name": self.mailbox,
                            "sub_id": self.sub_id, "delivery_id": delivery_id})

    def close(self, requeue: bool = True) -> None:
        if self.closed:
            return
        self.closed = True
        self._client._call({"op": "unsubscribe", "name": self.mailbox,
                            "sub_id": self.sub_id, "requeue": requeue})

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class SimMailboxClient:
    """Talks to a :class:`SimMailboxHost` through the virtual fabric."""

    def __init__(self, network, src_host: str, broker_host: str,
                 clock: Clock | None = None,
                 request_timeout_s: float | None = None):
        self.network = network
        self.src_host = src_host
        self.broker_host = broker_host
        self.clock = clock if clock is not None else _NetClock(network)
        self.request_timeout_s = request_timeout_s

    def open(self, name: str, mode: str = "first-reader", capacity: int = 64,
             overflow: str = "reject") -> None:
        self._call({"op": "open", "name": name, "mode": mode,
                    "capacity": capacity, "overflow": overflow})

    def publish(self, name: str, payload: Any, timeout_s: float | None = None,
                publisher: str = "") -> int:
        trace = _trace.current_wire() if _trace.ENABLED else b""
        reply = self._call({"op": "publish", "name": name, "payload": payload,
                            "timeout_s": timeout_s,
                            "publisher": publisher or self.src_host,
                            "trace": trace})
        return int(reply["seq"])

    def subscribe(self, name: str, subscriber: str = "",
                  prefetch: int = 0,
                  lease_s: float | None = DEFAULT_LEASE_S) -> SimSubscription:
        reply = self._call({"op": "subscribe", "name": name,
                            "subscriber": subscriber or self.src_host,
                            "lease_s": lease_s})
        return SimSubscription(self, name, int(reply["sub_id"]))

    def stats(self, name: str) -> dict:
        return self._call({"op": "stats", "name": name})["stats"]

    def close(self) -> None:
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    # -- plumbing --------------------------------------------------------------

    def _call(self, body: dict) -> dict:
        message = TransportMessage(CT_SIM_MBOX, pack_value(body))
        response = self.network.request(
            self.src_host, self.broker_host, SimMailboxHost.ENDPOINT, message,
            timeout=self.request_timeout_s)
        reply = unpack_value(response.payload)
        if "fault" in reply:
            _raise_fault(reply)
        return reply

    def _receive(self, sub: SimSubscription, timeout: float | None) -> Delivery:
        deadline = None if timeout is None else self.clock.now() + timeout
        while True:
            reply = self._call({"op": "receive", "name": sub.mailbox,
                                "sub_id": sub.sub_id})
            if not reply.get("empty"):
                msg = Message(int(reply["seq"]), reply.get("payload"),
                              reply.get("publisher", ""),
                              bytes(reply.get("trace") or b""), 0.0)
                return Delivery(msg, reply["mailbox"], int(reply["delivery_id"]),
                                bool(reply.get("redelivered")),
                                int(reply.get("attempt", 1)))
            if timeout is not None and timeout <= 0:
                raise HarnessTimeoutError(
                    f"receive on {sub.mailbox!r} timed out after {timeout}s "
                    f"(queue empty)")
            if deadline is not None and self.clock.now() >= deadline:
                raise HarnessTimeoutError(
                    f"receive on {sub.mailbox!r} timed out after {timeout}s")
            step = SIM_POLL_S
            if deadline is not None:
                step = min(step, max(deadline - self.clock.now(), 0.0)) or SIM_POLL_S
            self.clock.sleep(step)

"""In-process and netsim bindings for the mailbox layer.

Both expose the *same client surface* as the TCP binding: ``open`` /
``publish`` / ``subscribe`` / ``stats`` on the client, ``receive`` /
``try_receive`` / ``ack`` / ``nack`` / ``close`` on the subscription,
which lets the conformance battery run one test body over {inproc, sim,
tcp}.

:class:`InprocMailboxClient` is a veneer over a local
:class:`~repro.messaging.broker.MessageBroker` — zero marshalling, the
reference semantics.

:class:`SimMailboxHost` binds a broker to a
:class:`~repro.netsim.fabric.VirtualHost` endpoint (``sim://<host>/mbox``)
and :class:`SimMailboxClient` talks to it through
``VirtualNetwork.request``.  This is the sim carrier of the mailbox
protocol (:mod:`repro.messaging.protocol`): the same ops, faults and
deliveries as TCP, with every operation charged simulated latency/bytes
and blocking ``receive``/``publish`` turned into deterministic poll loops
on the VirtualClock, so scenario runs stay byte-reproducible.  Consumer
liveness rides **leases**: receiving and acking renew a subscription's
lease, the host sweeps expired leases before handling each request, and a
consumer whose host crashed simply stops renewing — its unacked messages
requeue for the survivors, the sim-world analogue of the TCP binding's
connection-death hook.
"""

from __future__ import annotations

from typing import Any

from repro.encoding.xdr import pack_value, unpack_value
from repro.messaging.broker import Delivery, MessageBroker, Subscription
from repro.messaging.protocol import (
    CT_MBOX,
    MailboxClient,
    MailboxServer,
    RemoteSubscription,
    _ClientSub,
    _delivery_from,
)
from repro.transport.base import TransportMessage
from repro.util.clock import Clock
from repro.util.errors import HarnessTimeoutError, MessagingError
from repro.util.faults import raise_fault

__all__ = ["InprocMailboxClient", "SimMailboxHost", "SimMailboxClient"]

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


class SimMailboxHost(MailboxServer):
    """Serves a broker at ``sim://<host>/mbox`` on the virtual fabric."""

    ENDPOINT = "mbox"

    def __init__(self, network, host: str, broker: MessageBroker | None = None,
                 events=None):
        super().__init__(broker or MessageBroker(clock=_NetClock(network),
                                                 events=events, node=host))
        self.network = network
        self.host = host
        self.url = network.host(host).bind(self.ENDPOINT, self._handle)

    def close(self) -> None:
        self.network.host(self.host).unbind(self.ENDPOINT)

    def _handle(self, message: TransportMessage) -> TransportMessage:
        # liveness first: requeue from any consumer whose lease lapsed, so
        # the very request that follows a crash already sees the backlog
        for _name, sub_id in self.broker.sweep_leases():
            self._take_sub(sub_id)
        reply, _ok = self._answer(message.payload)
        return TransportMessage(CT_MBOX, reply)


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

    advance = sleep


# -- netsim client side -------------------------------------------------------


class SimMailboxClient(MailboxClient):
    """Talks to a :class:`SimMailboxHost` through the virtual fabric."""

    def __init__(self, network, src_host: str, broker_host: str,
                 clock: Clock | None = None,
                 request_timeout_s: float | None = None):
        self.network = network
        self.src_host = src_host
        self.broker_host = broker_host
        self.clock = clock if clock is not None else _NetClock(network)
        self.request_timeout_s = request_timeout_s
        self._origin = src_host

    def subscribe(self, name: str, subscriber: str = "",
                  prefetch: int = 0,
                  lease_s: float | None = DEFAULT_LEASE_S) -> RemoteSubscription:
        reply = self._request({"op": "subscribe", "name": name,
                               "subscriber": subscriber or self.src_host,
                               "lease_s": lease_s})
        return RemoteSubscription(self, _ClientSub(int(reply["sub_id"]), name))

    # -- plumbing --------------------------------------------------------------

    def _request(self, body, hold_s: float | None = None, own=None, reply=None) -> dict:
        if type(body) is dict:
            body = pack_value(body)
        message = TransportMessage(CT_MBOX, body)
        response = self.network.request(
            self.src_host, self.broker_host, SimMailboxHost.ENDPOINT, message,
            timeout=self.request_timeout_s)
        payload = response.payload
        reply = unpack_value(payload) if reply is None else reply.decode(payload)
        if "error" in reply:
            raise_fault(reply, MessagingError)
        return reply

    def _poll(self, state: _ClientSub) -> Delivery | None:
        reply = self._op("receive", state.sub_id)
        return None if reply.get("empty") else _delivery_from(reply, reply.get("trace"))

    def _receive(self, state: _ClientSub, timeout: float | None) -> Delivery:
        deadline = None if timeout is None else self.clock.now() + timeout
        while True:
            delivery = self._poll(state)
            if delivery is not None:
                return delivery
            if deadline is not None and self.clock.now() >= deadline:
                raise HarnessTimeoutError(
                    f"receive on {state.mailbox!r} timed out after {timeout}s")
            step = SIM_POLL_S
            if deadline is not None:
                step = min(step, max(deadline - self.clock.now(), 0.0)) or SIM_POLL_S
            self.clock.sleep(step)

    def _ack(self, state: _ClientSub, delivery_id: int) -> None:
        self._op("ack", state.sub_id, [delivery_id])

    def _unsubscribe(self, state: _ClientSub, requeue: bool) -> None:
        state.closed = True
        self._op("unsubscribe", state.sub_id, requeue)

"""Mailbox subscriptions over TCP protocol v2 — multiplexed, with server push.

One pooled socket carries many subscriptions.  Requests
(open/publish/subscribe/ack/…) are ordinary v2 request/response frames,
XDR-packed dicts under content type ``application/x-harness-mbox``.
Deliveries arrive as **unsolicited push frames** (content type
``application/x-harness-mbox-push``) written through the reactor's
per-connection write path (the same lock and outbox as replies, so the
two never interleave), with the frame's correlation id carrying the
*subscription* id instead of echoing a request — which is why the generic
:class:`~repro.transport.tcp.TcpTransport` client (which drops unknown
correlation ids as late replies) is not reused here: the
:class:`MailboxTcpClient` reader thread demuxes by content type first.

Flow control is credit-based: a subscription is opened with ``prefetch``
credits, each push spends one, each ack replenishes one.  A consumer that
stops acking therefore stops receiving — for ``first-reader`` mailboxes
its share of the backlog stays in the *shared* ready queue where other
consumers can claim it, and for ``all-readers``/``tap`` the broker-side
overflow policy (not the socket) bounds its private queue.  Back-pressure
and loss semantics live entirely in the broker; the wire only paces.

Consumer death is the TCP connection dying: the reactor's
``on_conn_close`` hook closes every subscription owned by that connection
with ``requeue=True``, so unacked messages are redelivered to the
survivors — the same contract the sim binding gets from lease expiry.

Typed errors cross the wire as structured fault payloads:
``MailboxFullError`` raised broker-side on a ``reject`` overflow reaches
the publishing *client* as ``MailboxFullError`` with the original mailbox
and capacity, and a ``block-with-deadline`` expiry as
:class:`HarnessTimeoutError`.
"""

from __future__ import annotations

import socket
import threading
from collections import deque
from typing import Any

from repro.encoding.xdr import pack_value, unpack_value
from repro.messaging.broker import Delivery, Message, MessageBroker, Subscription
from repro.obs import trace as _trace
from repro.transport import reactor as _reactor
from repro.transport import tcp as _tcp
from repro.transport.base import TransportMessage
from repro.util.errors import (
    HarnessTimeoutError,
    MailboxFullError,
    MessagingError,
    TransportClosedError,
    TransportError,
)

__all__ = ["MailboxTcpServer", "MailboxTcpClient", "CT_MBOX", "CT_MBOX_PUSH"]

CT_MBOX = "application/x-harness-mbox"
CT_MBOX_PUSH = "application/x-harness-mbox-push"

#: Default credits granted to a new subscription (pushes in flight unacked).
DEFAULT_PREFETCH = 32

# Typed errors that may cross the wire, by name.
_ERROR_TYPES = {
    "MailboxFullError": MailboxFullError,
    "HarnessTimeoutError": HarnessTimeoutError,
    "MessagingError": MessagingError,
}


def _fault_payload(exc: Exception) -> dict:
    out = {"error": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, MailboxFullError):
        out["mailbox"] = exc.mailbox
        out["capacity"] = exc.capacity
    return out


def _raise_fault(reply: dict) -> None:
    name = reply.get("error", "MessagingError")
    if name == "MailboxFullError":
        raise MailboxFullError(reply.get("mailbox", "?"), int(reply.get("capacity", 0)))
    raise _ERROR_TYPES.get(name, MessagingError)(reply.get("message", name))


# -- server -------------------------------------------------------------------


class _MboxJob(_reactor.Job):
    """One reassembled request frame; carries its connection for push setup."""

    __slots__ = ("corr_id", "message", "trace", "conn")

    wants_conn = True

    def __init__(self, corr_id: int, message: TransportMessage, trace):
        self.corr_id = corr_id
        self.message = message
        self.trace = trace
        self.conn = None

    def run(self, app_handler):
        return app_handler(self)

    def busy_reply(self):
        payload = pack_value({"error": "ServerBusyError",
                              "message": "mailbox server at capacity"})
        return (
            _tcp._frame_prefix(self.corr_id, CT_MBOX, _tcp.STATUS_BUSY, len(payload)),
            payload,
        )


class _MboxFrameParser(_tcp.FrameParser):
    """v2 frame reassembly producing :class:`_MboxJob` instead of RPC jobs."""

    __slots__ = ()

    job_class = _MboxJob


class _TcpSub:
    """Server-side record tying a broker subscription to a connection."""

    __slots__ = ("sub", "conn", "credits", "mailbox")

    def __init__(self, sub: Subscription, conn, credits: int):
        self.sub = sub
        self.conn = conn
        self.credits = credits
        self.mailbox = sub.mailbox


class MailboxTcpServer:
    """Serves a :class:`MessageBroker` over TCP v2 with push deliveries."""

    def __init__(self, broker: MessageBroker, address=("127.0.0.1", 0),
                 workers: int = 8, **reactor_opts):
        self.broker = broker
        self._lock = threading.Lock()
        self._subs: dict[int, _TcpSub] = {}          # sub_id -> record
        self._by_conn: dict[int, set[int]] = {}      # conn key -> sub ids
        self._server = _reactor.ReactorServer(
            address, self._handle_job, _MboxFrameParser,
            workers=workers, name="mbox", **reactor_opts,
        )
        self._server.on_conn_close = self._conn_closed
        broker.on_wakeup = self._pump_mailbox
        self.address = self._server.address

    def close(self, drain_s: float = 1.0) -> None:
        self.broker.on_wakeup = None
        self._server.close(drain_s)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    # -- request handling ------------------------------------------------------

    def _handle_job(self, job: _MboxJob):
        token = None
        if _trace.ENABLED and job.trace is not None:
            token = _trace.activate_wire(job.trace, _trace.from_bytes)
        try:
            request = unpack_value(job.message.payload)
            reply = self._dispatch(request, job)
            status = _tcp.STATUS_OK
        except Exception as exc:
            reply = _fault_payload(exc)
            status = _tcp.STATUS_FAULT
        finally:
            if token is not None:
                _trace.deactivate(token)
        payload = pack_value(reply)
        prefix = _tcp._frame_prefix(job.corr_id, CT_MBOX, status, len(payload))
        return (prefix, payload)

    def _dispatch(self, request: dict, job: _MboxJob) -> dict:
        op = request.get("op")
        broker = self.broker
        if op == "open":
            broker.open(request["name"], mode=request.get("mode", "first-reader"),
                        capacity=int(request.get("capacity", 64)),
                        overflow=request.get("overflow", "reject"))
            return {"ok": True}
        if op == "publish":
            trace = request.get("trace") or None
            if trace is None and _trace.ENABLED:
                trace = _trace.current_wire() or None
            seq = broker.publish(request["name"], request.get("payload"),
                                 timeout_s=request.get("timeout_s"),
                                 publisher=request.get("publisher", ""),
                                 trace=trace)
            return {"ok": True, "seq": seq}
        if op == "subscribe":
            sub = broker.subscribe(request["name"], request.get("subscriber", ""))
            record = _TcpSub(sub, job.conn, int(request.get("prefetch", DEFAULT_PREFETCH)))
            with self._lock:
                self._subs[sub.sub_id] = record
                self._by_conn.setdefault(job.conn.key, set()).add(sub.sub_id)
            self._pump_sub(record)
            return {"ok": True, "sub_id": sub.sub_id}
        if op == "unsubscribe":
            record = self._take_sub(int(request["sub_id"]))
            if record is not None:
                record.sub.close(requeue=bool(request.get("requeue", True)))
            return {"ok": True}
        if op == "ack":
            record = self._get_sub(int(request["sub_id"]))
            record.sub.ack(int(request["delivery_id"]))
            with self._lock:
                record.credits += 1
            self._pump_sub(record)
            return {"ok": True}
        if op == "nack":
            record = self._get_sub(int(request["sub_id"]))
            record.sub.nack(int(request["delivery_id"]))
            with self._lock:
                record.credits += 1
            self._pump_sub(record)
            return {"ok": True}
        if op == "stats":
            return {"ok": True, "stats": broker.stats(request["name"]).as_dict()}
        raise MessagingError(f"unknown mailbox op {op!r}")

    def _get_sub(self, sub_id: int) -> _TcpSub:
        with self._lock:
            record = self._subs.get(sub_id)
        if record is None:
            raise MessagingError(f"unknown subscription {sub_id}")
        return record

    def _take_sub(self, sub_id: int) -> _TcpSub | None:
        with self._lock:
            record = self._subs.pop(sub_id, None)
            if record is not None:
                owned = self._by_conn.get(record.conn.key)
                if owned is not None:
                    owned.discard(sub_id)
        return record

    # -- push pump -------------------------------------------------------------

    def _pump_mailbox(self, name: str) -> None:
        """Broker wakeup: new deliveries may be available on *name*."""
        with self._lock:
            records = [r for r in self._subs.values() if r.mailbox == name]
        for record in records:
            self._pump_sub(record)

    def _pump_sub(self, record: _TcpSub) -> None:
        while True:
            with self._lock:
                if record.credits <= 0 or record.sub.sub_id not in self._subs:
                    return
                record.credits -= 1
            try:
                delivery = record.sub.try_receive()
            except MessagingError:
                delivery = None  # subscription died under us
            if delivery is None:
                with self._lock:
                    record.credits += 1
                return
            msg = delivery.message
            body = pack_value({
                "mailbox": delivery.mailbox,
                "delivery_id": delivery.delivery_id,
                "seq": msg.seq,
                "payload": msg.payload,
                "publisher": msg.publisher,
                "redelivered": delivery.redelivered,
                "attempt": delivery.attempt,
            })
            prefix = _tcp._frame_prefix(
                record.sub.sub_id, CT_MBOX_PUSH, _tcp.STATUS_OK, len(body),
                trace=msg.trace or b"",
            )
            if not self._server.push(record.conn, (prefix, body)):
                # connection died between pop and push: _conn_closed will
                # requeue this delivery along with the rest of the unacked
                return

    def _conn_closed(self, conn) -> None:
        with self._lock:
            sub_ids = self._by_conn.pop(conn.key, set())
            records = [self._subs.pop(s) for s in sub_ids if s in self._subs]
        for record in records:
            record.sub.close(requeue=True)


# -- client -------------------------------------------------------------------


class _ClientSub:
    """Client-side subscription state fed by the reader thread."""

    __slots__ = ("sub_id", "mailbox", "queue", "closed")

    def __init__(self, sub_id: int, mailbox: str):
        self.sub_id = sub_id
        self.mailbox = mailbox
        self.queue: deque = deque()
        self.closed = False


class TcpSubscription:
    """Client handle mirroring :class:`repro.messaging.broker.Subscription`."""

    def __init__(self, client: "MailboxTcpClient", state: _ClientSub):
        self._client = client
        self._state = state
        self.mailbox = state.mailbox
        self.sub_id = state.sub_id

    def receive(self, timeout: float | None = None) -> Delivery:
        return self._client._receive(self._state, timeout)

    def try_receive(self) -> Delivery | None:
        try:
            return self._client._receive(self._state, 0)
        except HarnessTimeoutError:
            return None

    def ack(self, delivery: Delivery | int) -> None:
        delivery_id = delivery.delivery_id if isinstance(delivery, Delivery) else delivery
        self._client._request({"op": "ack", "sub_id": self.sub_id,
                               "delivery_id": delivery_id})

    def nack(self, delivery: Delivery | int) -> None:
        delivery_id = delivery.delivery_id if isinstance(delivery, Delivery) else delivery
        self._client._request({"op": "nack", "sub_id": self.sub_id,
                               "delivery_id": delivery_id})

    def close(self, requeue: bool = True) -> None:
        if self._state.closed:
            return
        self._state.closed = True
        try:
            self._client._request({"op": "unsubscribe", "sub_id": self.sub_id,
                                   "requeue": requeue})
        except (TransportError, OSError):
            pass  # connection already gone: the server requeued on close
        self._client._drop_sub(self.sub_id)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class MailboxTcpClient:
    """One socket, many subscriptions; deliveries pushed by the server.

    The reader thread demuxes frames by content type: push frames feed
    subscription queues (correlation id = subscription id), everything
    else resolves a pending request by correlation id.
    """

    def __init__(self, host: str, port: int, timeout_s: float = 30.0):
        self._sock = socket.create_connection((host, port), timeout=timeout_s)
        try:
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass
        self.timeout_s = timeout_s
        self._frames = _tcp.FrameReader(self._sock)  # reader thread only
        self._wlock = threading.Lock()
        self._sub_lock = threading.Lock()  # serializes subscribe handshakes
        self._cond = threading.Condition()
        self._pending: dict[int, list] = {}          # corr_id -> [reply|None, status]
        self._subs: dict[int, _ClientSub] = {}
        self._next_corr = 0
        self._closed = False
        self._reader = threading.Thread(target=self._read_loop,
                                        name="mbox-client-reader", daemon=True)
        self._reader.start()

    # -- public API ------------------------------------------------------------

    def open(self, name: str, mode: str = "first-reader", capacity: int = 64,
             overflow: str = "reject") -> None:
        self._request({"op": "open", "name": name, "mode": mode,
                       "capacity": capacity, "overflow": overflow})

    def publish(self, name: str, payload: Any, timeout_s: float | None = None,
                publisher: str = "") -> int:
        trace = _trace.current_wire() if _trace.ENABLED else b""
        # a blocked publish parks on a server worker until its deadline;
        # give the reply wait that long plus the transport budget
        wait = self.timeout_s + (timeout_s or 0.0)
        reply = self._request({"op": "publish", "name": name, "payload": payload,
                               "timeout_s": timeout_s, "publisher": publisher,
                               "trace": trace}, wait_s=wait)
        return int(reply["seq"])

    def subscribe(self, name: str, subscriber: str = "",
                  prefetch: int = DEFAULT_PREFETCH) -> TcpSubscription:
        with self._sub_lock:  # one handshake at a time owns the placeholder
            state_holder = _ClientSub(0, name)
            # register before the reply lands: the first pushes can beat it
            with self._cond:
                self._subs[-1] = state_holder  # placeholder until the id is known
            try:
                reply = self._request({"op": "subscribe", "name": name,
                                       "subscriber": subscriber,
                                       "prefetch": prefetch})
            finally:
                with self._cond:
                    self._subs.pop(-1, None)
            sub_id = int(reply["sub_id"])
            state_holder.sub_id = sub_id
            with self._cond:
                # adopt any pushes that raced ahead under the placeholder
                self._subs[sub_id] = state_holder
                self._cond.notify_all()
        return TcpSubscription(self, state_holder)

    def stats(self, name: str) -> dict:
        return self._request({"op": "stats", "name": name})["stats"]

    def close(self) -> None:
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._cond.notify_all()
        # shutdown (not just close) so the FIN reaches the server and the
        # reader thread's blocking recv wakes even mid-call
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    # -- request/reply ---------------------------------------------------------

    def _request(self, body: dict, wait_s: float | None = None) -> dict:
        with self._cond:
            if self._closed:
                raise TransportClosedError("mailbox client is closed")
            self._next_corr += 1
            corr_id = self._next_corr
            slot: list = [None, None]
            self._pending[corr_id] = slot
        payload = pack_value(body)
        prefix = _tcp._frame_prefix(corr_id, CT_MBOX, _tcp.STATUS_OK, len(payload))
        try:
            with self._wlock:
                _tcp._send_buffers(self._sock, (prefix, payload))
        except (OSError, socket.timeout) as exc:
            with self._cond:
                self._pending.pop(corr_id, None)
            raise TransportClosedError(f"mailbox request failed: {exc}") from exc
        deadline_s = self.timeout_s if wait_s is None else wait_s
        with self._cond:
            ok = self._cond.wait_for(
                lambda: slot[1] is not None or self._closed, timeout=deadline_s)
            self._pending.pop(corr_id, None)
            if slot[1] is None:
                if self._closed:
                    raise TransportClosedError("mailbox connection closed")
                if not ok:
                    raise HarnessTimeoutError(
                        f"mailbox op {body.get('op')!r} got no reply in {deadline_s}s")
        reply, status = slot
        if status == _tcp.STATUS_BUSY:
            from repro.util.errors import ServerBusyError
            raise ServerBusyError(reply.get("message", "server busy"))
        if status != _tcp.STATUS_OK:
            _raise_fault(reply)
        return reply

    # -- deliveries ------------------------------------------------------------

    def _receive(self, state: _ClientSub, timeout: float | None) -> Delivery:
        with self._cond:
            if state.queue:
                return state.queue.popleft()
            if timeout is not None and timeout <= 0:
                raise HarnessTimeoutError(
                    f"receive on {state.mailbox!r} timed out after {timeout}s "
                    f"(queue empty)")
            ok = self._cond.wait_for(
                lambda: state.queue or state.closed or self._closed,
                timeout=timeout)
            if state.queue:
                return state.queue.popleft()
            if state.closed or self._closed:
                raise TransportClosedError("subscription closed")
            raise HarnessTimeoutError(
                f"receive on {state.mailbox!r} timed out after {timeout}s")

    def _drop_sub(self, sub_id: int) -> None:
        with self._cond:
            self._subs.pop(sub_id, None)
            self._cond.notify_all()

    def _read_loop(self) -> None:
        try:
            while True:
                corr_id, message, status, trace = self._frames.read_frame()
                if message.content_type == CT_MBOX_PUSH:
                    self._on_push(corr_id, message, trace)
                else:
                    self._on_reply(corr_id, message, status)
        except (TransportClosedError, TransportError, ConnectionError, OSError):
            pass
        finally:
            with self._cond:
                self._closed = True
                for state in self._subs.values():
                    state.closed = True
                self._cond.notify_all()

    def _on_push(self, sub_id: int, message: TransportMessage, trace) -> None:
        body = unpack_value(message.payload)
        msg = Message(int(body["seq"]), body.get("payload"),
                      body.get("publisher", ""), trace or b"", 0.0)
        delivery = Delivery(msg, body["mailbox"], int(body["delivery_id"]),
                            bool(body.get("redelivered")), int(body.get("attempt", 1)))
        with self._cond:
            state = self._subs.get(sub_id)
            if state is None:
                state = self._subs.get(-1)  # subscribe reply still in flight
            if state is None or state.closed:
                return  # late push after unsubscribe: server will requeue on close
            state.queue.append(delivery)
            self._cond.notify_all()

    def _on_reply(self, corr_id: int, message: TransportMessage, status: int) -> None:
        body = unpack_value(message.payload)
        with self._cond:
            slot = self._pending.get(corr_id)
            if slot is None:
                return  # late reply for an abandoned request
            slot[0] = body
            slot[1] = status
            self._cond.notify_all()

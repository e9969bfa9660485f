"""Mailbox subscriptions over TCP protocol v2 — multiplexed, with server push.

This is the TCP carrier of the mailbox protocol
(:mod:`repro.messaging.protocol`): one connection per client carries all
its subscriptions, and the protocol's requests (open/publish/subscribe/
ack/…) are ordinary v2 request/response frames.  Deliveries arrive as
**unsolicited push frames** (content type
``application/x-harness-mbox-push``) written through the reactor's
per-connection write path (the same lock and outbox as replies, so the
two never interleave), with the frame's correlation id carrying the
*subscription* id instead of echoing a request.  The client is the
transport's own channel (:func:`repro.transport.tcp.connect`) with a push
sink: frames of the push content type go to the subscription queues,
every other frame answers a request by correlation id.

Flow control is credit-based: a subscription is opened with ``prefetch``
credits, each push spends one, each acked id replenishes one.  The client
sends its acks in batches of up to ``prefetch // 2`` ids per request (the
contract is on :meth:`MailboxTcpClient._ack`), and the server writes every
frame a grant allows in one ``sendmsg``, so a drained queue costs about
one push frame per message plus one ack round trip per half window.
A consumer that stops acking stops receiving — for ``first-reader``
mailboxes its share of the backlog stays in the *shared* ready queue
where other consumers can claim it, and for ``all-readers``/``tap`` the
broker-side overflow policy (not the socket) bounds its private queue.
Back-pressure and loss semantics live entirely in the broker; the wire
only paces.

Consumer death is the TCP connection dying: the reactor's
``on_conn_close`` hook closes every subscription owned by that connection
with ``requeue=True``, so unacked messages are redelivered to the
survivors — the same contract the sim binding gets from lease expiry.

Faults cross as the protocol's fault payloads under a fault status, and a
request shed at admission as :class:`ServerBusyError`.
"""

from __future__ import annotations

import threading
import time
from collections import deque

from repro.encoding.xdr import pack_value, unpack_value
from repro.messaging import protocol as _protocol
from repro.messaging.broker import Delivery, MessageBroker, Subscription
from repro.messaging.protocol import (
    CT_MBOX,
    MailboxClient,
    MailboxServer,
    RemoteSubscription,
    delivery_body,
    delivery_from,
)
from repro.transport import reactor as _reactor
from repro.transport import tcp as _tcp
from repro.transport.base import TransportMessage
from repro.util.errors import (
    HarnessError,
    HarnessTimeoutError,
    MessagingError,
    ServerBusyError,
    TransportClosedError,
    TransportError,
)
from repro.util.faults import fault_reply, raise_fault

__all__ = ["MailboxTcpServer", "MailboxTcpClient", "CT_MBOX", "CT_MBOX_PUSH"]

CT_MBOX_PUSH = "application/x-harness-mbox-push"

#: Default credits granted to a new subscription (pushes in flight unacked).
DEFAULT_PREFETCH = 32

# A grant's frames (prefix + body each) leave in one sendmsg, which takes
# at most IOV_MAX (1024 on Linux) buffers.
_PUSH_MAX_BUFFERS = 512


# -- server -------------------------------------------------------------------


class _MboxJob(_reactor.Job):
    """One reassembled request frame; carries its connection for push setup.

    A frame's trace block is not kept: a publish carries its trace in its
    body, and no other op is traced.
    """

    __slots__ = ("corr_id", "message", "conn")

    wants_conn = True

    def __init__(self, corr_id: int, message: TransportMessage, trace):
        self.corr_id = corr_id
        self.message = message
        self.conn = None

    def run(self, app_handler):
        return app_handler(self)

    def busy_reply(self):
        payload = pack_value(fault_reply(ServerBusyError("mailbox server at capacity")))
        return (
            _tcp._frame_prefix(self.corr_id, CT_MBOX, _tcp.STATUS_BUSY, len(payload)),
            payload,
        )


class _MboxFrameParser(_tcp.FrameParser):
    """v2 frame reassembly producing :class:`_MboxJob` instead of RPC jobs."""

    __slots__ = ()

    job_class = _MboxJob


class _TcpSub(Subscription):
    """A served subscription tied to its connection and credit window."""

    def __init__(self, sub: Subscription, broker: MessageBroker, conn, credits: int):
        super().__init__(broker, sub.mailbox, sub.sub_id, sub.subscriber)
        self.conn = conn
        self.credits = credits
        # one pump at a time per subscription: frames leave in pop order
        self.pump_lock = threading.Lock()


class MailboxTcpServer(MailboxServer):
    """Serves a :class:`MessageBroker` over TCP v2 with push deliveries."""

    def __init__(self, broker: MessageBroker, address=("127.0.0.1", 0),
                 workers: int = 8, **reactor_opts):
        super().__init__(broker)
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
        reply, ok = self._answer(job.message.payload, job)
        payload = pack_value(reply)
        status = _tcp.STATUS_OK if ok else _tcp.STATUS_FAULT
        prefix = _tcp._frame_prefix(job.corr_id, CT_MBOX, status, len(payload))
        return (prefix, payload)

    def _attach(self, sub: Subscription, request: dict, job: _MboxJob) -> None:
        conn = job.conn
        record = _TcpSub(sub, self.broker, conn,
                         int(request.get("prefetch", DEFAULT_PREFETCH)))
        with self._lock:
            self._subs[sub.sub_id] = record
            self._by_conn.setdefault(conn.key, set()).add(sub.sub_id)
        # the reactor marks a connection closed before its close hook runs:
        # a hook that ran before the registration above left this one to us
        if conn.closed:
            if self._take_sub(sub.sub_id) is not None:
                sub.close(requeue=True)
            return
        self._pump_sub(record)

    def _settled(self, record: _TcpSub, count: int) -> None:
        with self._lock:
            record.credits += count
        self._pump_sub(record)

    def _take_sub(self, sub_id: int) -> _TcpSub | None:
        with self._lock:
            record = self._subs.pop(sub_id, None)
            if record is not None:
                owned = self._by_conn.get(record.conn.key)
                if owned is not None:
                    owned.discard(sub_id)
                    if not owned:
                        del self._by_conn[record.conn.key]
        return record

    # -- push pump -------------------------------------------------------------

    def _pump_mailbox(self, name: str) -> None:
        """Broker wakeup: new deliveries may be available on *name*."""
        with self._lock:
            records = [r for r in self._subs.values() if r.mailbox == name]
        for record in records:
            self._pump_sub(record)

    def _pump_sub(self, record: _TcpSub) -> None:
        """Push as many deliveries as *record*'s credits allow, in one write."""
        sub_id = record.sub_id
        with record.pump_lock:
            with self._lock:
                credits, record.credits = record.credits, 0
                if not credits or sub_id not in self._subs:
                    return
            deliveries = []
            try:
                while len(deliveries) < credits:
                    delivery = record.try_receive()
                    if delivery is None:
                        break
                    deliveries.append(delivery)
            except MessagingError:
                pass  # subscription died under us
            buffers: list = []
            for delivery in deliveries:
                body = pack_value(delivery_body(delivery))
                buffers.append(_tcp._frame_prefix(
                    sub_id, CT_MBOX_PUSH, _tcp.STATUS_OK, len(body),
                    trace=delivery.message.trace or b"",
                ))
                buffers.append(body)
            # a push onto a connection that died after the pops is dropped:
            # _conn_closed requeues those deliveries with the rest unacked
            for start in range(0, len(buffers), _PUSH_MAX_BUFFERS):
                self._server.push(record.conn, buffers[start:start + _PUSH_MAX_BUFFERS])
            if len(deliveries) < credits:
                with self._lock:
                    record.credits += credits - len(deliveries)

    def _conn_closed(self, conn) -> None:
        with self._lock:
            sub_ids = self._by_conn.pop(conn.key, set())
            records = [self._subs.pop(s) for s in sub_ids if s in self._subs]
        for record in records:
            record.close(requeue=True)


# -- client -------------------------------------------------------------------


class _ClientSub(_protocol._ClientSub):
    """Client-side subscription state fed by the push sink."""

    __slots__ = ("queue", "acks", "ack_batch", "flush_lock", "ack_error")

    def __init__(self, sub_id: int, mailbox: str, prefetch: int):
        super().__init__(sub_id, mailbox)
        self.queue: deque = deque()
        self.acks: list[int] = []  # acked here, not yet sent
        self.ack_batch = max(1, prefetch // 2)
        # held from taking the ids until the batch's reply: a later flush
        # waits for a batch another thread has in flight
        self.flush_lock = threading.Lock()
        # a batch that failed while another request sent it, for this
        # subscription's next ack, receive, nack or close to raise
        self.ack_error: MessagingError | None = None


class MailboxTcpClient(MailboxClient):
    """One connection, many subscriptions; deliveries pushed by the server.

    The connection is one transport channel (:func:`repro.transport.tcp.connect`)
    whose push sink files push frames on subscription queues (correlation
    id = subscription id); every other frame answers a request.  The first
    :meth:`subscribe` starts one ``mbox-client-reader`` thread parked on the
    channel; a client with no subscription has none and reads its replies
    on the calling thread.

    A dead connection closes the client and every subscription on it.  It
    is never redialled: a subscription's credits, and the requeue of its
    unacked deliveries when the connection goes, belong to the connection.
    """

    def __init__(self, host: str, port: int, timeout_s: float = 30.0):
        self.timeout_s = timeout_s
        self._channel = _tcp.connect(f"tcp://{host}:{port}", timeout_s,
                                     push_ct=CT_MBOX_PUSH, on_push=self._on_push)
        self._sub_lock = threading.Lock()  # serializes subscribe handshakes
        self._cond = threading.Condition()
        self._subs: dict[int, _ClientSub] = {}
        self._closed = False
        self._reader: threading.Thread | None = None

    # -- public API ------------------------------------------------------------

    def subscribe(self, name: str, subscriber: str = "",
                  prefetch: int = DEFAULT_PREFETCH) -> RemoteSubscription:
        with self._sub_lock:  # one handshake at a time owns the placeholder
            state_holder = _ClientSub(0, name, prefetch)
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
            if self._reader is None:
                self._reader = threading.Thread(target=self._read_pushes,
                                                name="mbox-client-reader", daemon=True)
                self._reader.start()
        return RemoteSubscription(self, state_holder)

    def close(self) -> None:
        # acks already made must reach the broker before the socket goes,
        # or the connection's death requeues them (best effort, bounded)
        deadline = time.monotonic() + self.timeout_s
        with self._cond:
            owing = [state for state in self._subs.values() if state.acks]
        for state in owing:
            try:
                self._flush_acks(state, max(0.0, deadline - time.monotonic()))
            except (HarnessError, OSError):
                pass
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        self._channel.close(drain_s=0.0)

    # -- request/reply ---------------------------------------------------------

    def _request(self, body: dict, hold_s: float | None = None,
                 own: _ClientSub | None = None) -> dict:
        """Send *body* after every pending ack on this client; wait for its
        reply for ``timeout_s``, plus *hold_s* the broker may hold it."""
        self._flush_owing(own)
        return self._call(body, self.timeout_s + (hold_s or 0.0))

    def _call(self, body: dict, wait_s: float | None = None) -> dict:
        request = TransportMessage(CT_MBOX, pack_value(body))
        reply, status = self._channel.request(
            request, self.timeout_s if wait_s is None else wait_s)
        reply = unpack_value(reply.payload)
        if status != _tcp.STATUS_OK:
            raise_fault(reply, MessagingError)  # a shed request's reply is a ServerBusyError
        return reply

    # -- acks ------------------------------------------------------------------

    def _ack(self, state: _ClientSub, delivery_id: int) -> None:
        """Settle *delivery_id*; acks travel in batches of up to half the prefetch.

        The id joins the subscription's pending acks.  They go as one
        ``ack`` request, whose reply is awaited, once ``prefetch // 2`` are
        pending or the local buffer is empty, so an ack that empties it has
        been applied when it returns.  They also go before the subscription
        waits, nacks or closes, and before any other request on this client.
        A batch naming bad ids applies the good ones and fails with a
        :class:`MessagingError` that belongs to this subscription.  The whole
        contract, and why its order keeps exactly-once, is in DESIGN.md §15.
        """
        with self._cond:
            state.acks.append(delivery_id)
            flush = (state.closed or not state.queue or len(state.acks) >= state.ack_batch
                     or state.ack_error is not None)
        if flush:
            self._flush_acks(state)

    def _flush_owing(self, own: _ClientSub | None = None) -> None:
        """Send every subscription's pending acks, *own*'s last and always.

        A batch of another subscription that fails is kept on that
        subscription for its next call, so the request that sent it goes on.
        """
        with self._cond:
            owing = [state for state in self._subs.values()
                     if state.acks and state is not own]
        for state in owing:
            self._flush_acks(state, keep_error=True)
        if own is not None:
            self._flush_acks(own)

    def _flush_acks(self, state: _ClientSub, wait_s: float | None = None,
                    keep_error: bool = False) -> None:
        """Send *state*'s pending acks as one batch and wait for its reply,
        then raise any batch failure kept for it (unless *keep_error*)."""
        timeout_s = self.timeout_s if wait_s is None else wait_s
        if not state.flush_lock.acquire(timeout=timeout_s):
            raise HarnessTimeoutError(
                f"ack batch on {state.mailbox!r} still in flight after {timeout_s}s")
        try:
            with self._cond:
                ids, state.acks = state.acks, []
            if ids:
                try:
                    self._call({"op": "ack", "sub_id": state.sub_id,
                                "delivery_ids": ids}, wait_s=wait_s)
                except ServerBusyError:
                    with self._cond:  # shed before the broker saw it: still owed
                        state.acks[:0] = ids
                    raise
                except MessagingError as exc:
                    if not keep_error:
                        raise
                    state.ack_error = state.ack_error or exc
            if not keep_error and state.ack_error is not None:
                error, state.ack_error = state.ack_error, None
                raise error
        finally:
            state.flush_lock.release()

    def _unsubscribe(self, state: _ClientSub, requeue: bool) -> None:
        state.closed = True
        try:
            try:
                self._flush_owing(own=state)  # pending acks go first
            finally:
                # a failed ack batch must not leave the subscription open
                self._call({"op": "unsubscribe", "sub_id": state.sub_id,
                            "requeue": requeue})
        except (TransportError, OSError):
            pass  # connection already gone: the server requeued on close
        finally:
            self._drop_sub(state.sub_id)

    # -- deliveries ------------------------------------------------------------

    def _poll(self, state: _ClientSub) -> Delivery | None:
        with self._cond:
            if state.queue and state.ack_error is None:
                return state.queue.popleft()
        # about to wait or come back empty: what was acked goes first
        self._flush_acks(state)
        with self._cond:
            return state.queue.popleft() if state.queue else None

    def _receive(self, state: _ClientSub, timeout: float | None) -> Delivery:
        delivery = self._poll(state)
        if delivery is not None:
            return delivery
        with self._cond:
            self._cond.wait_for(
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

    def _read_pushes(self) -> None:
        self._channel.park()  # returns when the connection dies
        with self._cond:
            self._closed = True
            for state in self._subs.values():
                state.closed = True
            self._cond.notify_all()

    def _on_push(self, sub_id: int, message: TransportMessage, trace) -> None:
        delivery = delivery_from(unpack_value(message.payload), trace)
        with self._cond:
            state = self._subs.get(sub_id)
            if state is None:
                state = self._subs.get(-1)  # subscribe reply still in flight
            if state is None or state.closed:
                return  # late push after unsubscribe: server will requeue on close
            state.queue.append(delivery)
            self._cond.notify_all()

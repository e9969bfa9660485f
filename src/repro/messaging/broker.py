"""The mailbox broker: named queues with normative delivery semantics.

One :class:`MessageBroker` hosts any number of named mailboxes.  A mailbox
is declared once with a delivery mode and an overflow policy (DESIGN.md
§15 has the full contract table):

===============  ==============================================================
mode             contract
===============  ==============================================================
``first-reader`` work-queue — each message is consumed by exactly one
                 subscriber, exactly once; unacked messages are requeued at
                 the front (flagged ``redelivered``) when their consumer dies
``all-readers``  fan-out — every live subscriber receives its own copy, in
                 publish order per publisher; late subscribers see only
                 messages published after they joined
``tap``          lossy observer — never exerts back-pressure on publishers;
                 any declared overflow policy is coerced to ``drop-oldest``
===============  ==============================================================

Overflow policies bound the undelivered backlog (the ready queue for
``first-reader``; each subscriber's queue for ``all-readers``/``tap``):

``drop-oldest``          evict the queue head and publish an ``mbox.dropped``
                         bus event — lossy but *observable*
``reject``               raise a typed :class:`MailboxFullError`; the message
                         is enqueued nowhere
``block-with-deadline``  the publisher waits for space; on expiry a
                         :class:`HarnessTimeoutError` — the back-pressure mode

Everything here is clock-parametric: against a :class:`WallClock` blocking
operations park on a condition variable, against a :class:`VirtualClock`
they advance simulated time in deterministic slices so scenario runs stay
byte-reproducible.  Broker state (mailboxes, backlogs, unacked in-flight)
pickles without its locks, which is what lets the PR 1 failover path
checkpoint and revive a mailbox service with its messages intact.
"""

from __future__ import annotations

import collections
import itertools
import threading
from typing import Any, Callable

from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.util.clock import Clock, WallClock
from repro.util.errors import HarnessTimeoutError, MailboxFullError, MessagingError

__all__ = [
    "DELIVERY_MODES",
    "OVERFLOW_POLICIES",
    "Message",
    "Delivery",
    "Subscription",
    "MailboxStats",
    "MessageBroker",
]

DELIVERY_MODES = ("first-reader", "all-readers", "tap")
OVERFLOW_POLICIES = ("drop-oldest", "reject", "block-with-deadline")

#: Virtual-clock blocking operations poll in slices of this many simulated
#: seconds so a co-scheduled consumer (a ``call_at`` callback) can free space.
_VIRTUAL_SLICE_S = 0.001

_PUBLISHED = _metrics.registry.counter("mbox.published")
_DELIVERED = _metrics.registry.counter("mbox.delivered")
_ACKED = _metrics.registry.counter("mbox.acked")
_DROPPED = _metrics.registry.counter("mbox.dropped")
_REJECTED = _metrics.registry.counter("mbox.rejected")
_REDELIVERED = _metrics.registry.counter("mbox.redelivered")
_DEPTH = _metrics.registry.gauge("mbox.depth")
_DELIVER_LATENCY_US = _metrics.registry.histogram("mbox.deliver_latency_us")


class Message:
    """One published message: broker-assigned sequence number, payload,
    publisher name, trace context bytes, and the publish timestamp."""

    __slots__ = ("seq", "payload", "publisher", "trace", "enqueued_at")

    def __init__(self, seq: int, payload: Any, publisher: str,
                 trace: bytes, enqueued_at: float):
        self.seq = seq
        self.payload = payload
        self.publisher = publisher
        self.trace = trace
        self.enqueued_at = enqueued_at

    def __repr__(self) -> str:
        return f"Message(seq={self.seq}, publisher={self.publisher!r})"

    def __getstate__(self):
        return (self.seq, self.payload, self.publisher, self.trace, self.enqueued_at)

    def __setstate__(self, state):
        self.seq, self.payload, self.publisher, self.trace, self.enqueued_at = state


class Delivery:
    """A message handed to one subscriber, awaiting acknowledgement."""

    __slots__ = ("message", "mailbox", "delivery_id", "redelivered", "attempt")

    def __init__(self, message: Message, mailbox: str, delivery_id: int,
                 redelivered: bool, attempt: int):
        self.message = message
        self.mailbox = mailbox
        self.delivery_id = delivery_id
        self.redelivered = redelivered
        self.attempt = attempt

    @property
    def payload(self) -> Any:
        return self.message.payload

    @property
    def seq(self) -> int:
        return self.message.seq

    def __repr__(self) -> str:
        return (f"Delivery(seq={self.message.seq}, mailbox={self.mailbox!r}, "
                f"redelivered={self.redelivered})")


class MailboxStats:
    """Counters for one mailbox, kept broker-side (picklable)."""

    __slots__ = ("published", "delivered", "acked", "dropped", "rejected",
                 "redelivered", "depth", "high_water", "subscribers")

    def __init__(self):
        self.published = 0
        self.delivered = 0
        self.acked = 0
        self.dropped = 0
        self.rejected = 0
        self.redelivered = 0
        self.depth = 0
        self.high_water = 0
        self.subscribers = 0

    def __getstate__(self):
        return tuple(getattr(self, slot) for slot in self.__slots__)

    def __setstate__(self, state):
        for slot, value in zip(self.__slots__, state):
            setattr(self, slot, value)

    def as_dict(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}


class _Subscriber:
    """Broker-side record of one subscription (picklable)."""

    __slots__ = ("sub_id", "name", "queue", "unacked", "attempts",
                 "lease_s", "lease_deadline", "closed")

    def __init__(self, sub_id: int, name: str, lease_s: float | None,
                 lease_deadline: float | None):
        self.sub_id = sub_id
        self.name = name
        # all-readers / tap: the subscriber's private copy queue
        self.queue: collections.deque[Message] = collections.deque()
        # delivery_id -> Message awaiting ack
        self.unacked: dict[int, Message] = {}
        # seq -> delivery attempt count (for redelivery bookkeeping)
        self.attempts: dict[int, int] = {}
        self.lease_s = lease_s
        self.lease_deadline = lease_deadline
        self.closed = False

    def __getstate__(self):
        return (self.sub_id, self.name, tuple(self.queue), dict(self.unacked),
                dict(self.attempts), self.lease_s, self.lease_deadline, self.closed)

    def __setstate__(self, state):
        (self.sub_id, self.name, queue, self.unacked,
         self.attempts, self.lease_s, self.lease_deadline, self.closed) = state
        self.queue = collections.deque(queue)


class _Mailbox:
    """Broker-side state of one named mailbox (picklable)."""

    __slots__ = ("name", "mode", "capacity", "overflow", "ready",
                 "subscribers", "stats", "next_seq", "attempts")

    def __init__(self, name: str, mode: str, capacity: int, overflow: str):
        self.name = name
        self.mode = mode
        self.capacity = capacity
        self.overflow = overflow
        # first-reader: the shared work queue of undelivered messages
        self.ready: collections.deque[Message] = collections.deque()
        self.subscribers: dict[int, _Subscriber] = {}
        self.stats = MailboxStats()
        self.next_seq = 1
        # first-reader: seq -> delivery attempts, mailbox-wide, so the
        # *next* consumer of a requeued message sees ``redelivered=True``
        # even though the first consumer is gone
        self.attempts: dict[int, int] = {}

    def __getstate__(self):
        return (self.name, self.mode, self.capacity, self.overflow,
                tuple(self.ready), self.subscribers, self.stats, self.next_seq,
                dict(self.attempts))

    def __setstate__(self, state):
        (self.name, self.mode, self.capacity, self.overflow,
         ready, self.subscribers, self.stats, self.next_seq, self.attempts) = state
        self.ready = collections.deque(ready)

    def backlog(self) -> int:
        """Undelivered messages: the bound the overflow policy enforces."""
        if self.mode == "first-reader":
            return len(self.ready)
        return max((len(s.queue) for s in self.subscribers.values()), default=0)


class Subscription:
    """Client handle for one subscription.

    ``receive``/``try_receive`` pull deliveries; ``ack`` confirms them.
    ``nack`` requeues a delivery for redelivery (to anyone, for
    ``first-reader``; to this subscriber, for ``all-readers``).  ``close``
    ends the subscription — by default requeueing unacked messages exactly
    as consumer death would.
    """

    def __init__(self, broker: "MessageBroker", mailbox: str, sub_id: int,
                 subscriber: str):
        self._broker = broker
        self.mailbox = mailbox
        self.sub_id = sub_id
        self.subscriber = subscriber

    @property
    def closed(self) -> bool:
        return self._broker._sub_closed(self.mailbox, self.sub_id)

    def receive(self, timeout: float | None = None) -> Delivery:
        """Blocking receive.  ``timeout=0`` is an atomic poll: return a
        delivery if one is queued, raise :class:`HarnessTimeoutError`
        otherwise — never an ambiguous ``None``."""
        return self._broker._receive(self.mailbox, self.sub_id, timeout)

    def try_receive(self) -> Delivery | None:
        """Non-blocking receive; ``None`` when nothing is queued."""
        return self._broker._try_receive(self.mailbox, self.sub_id)

    def ack(self, delivery: Delivery | int) -> None:
        delivery_id = delivery.delivery_id if isinstance(delivery, Delivery) else delivery
        self._broker._ack(self.mailbox, self.sub_id, delivery_id)

    def nack(self, delivery: Delivery | int) -> None:
        delivery_id = delivery.delivery_id if isinstance(delivery, Delivery) else delivery
        self._broker._nack(self.mailbox, self.sub_id, delivery_id)

    def touch(self) -> None:
        """Renew this subscription's lease (sim-binding liveness)."""
        self._broker._touch(self.mailbox, self.sub_id)

    def close(self, requeue: bool = True) -> None:
        self._broker._close_sub(self.mailbox, self.sub_id, requeue=requeue)

    def __enter__(self) -> "Subscription":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class MessageBroker:
    """Hosts named mailboxes; all state mutations run under one lock.

    ``events`` (an :class:`~repro.util.events.EventBus`) receives
    ``mbox.dropped`` for every evicted or undeliverable message and
    ``mbox.redelivered`` when a dead consumer's backlog is requeued, so
    chaos checkers can account for every message.  ``on_wakeup`` is an
    optional callback fired (outside the lock) whenever new deliveries
    may be available — the TCP binding uses it to push frames.
    """

    def __init__(self, clock: Clock | None = None, events=None, node: str = ""):
        self._clock: Clock = clock or WallClock()
        self._events = events
        self.node = node
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        self._mailboxes: dict[str, _Mailbox] = {}
        self._next_sub_id = itertools.count(1)
        self._next_delivery_id = itertools.count(1)
        self.on_wakeup: Callable[[str], None] | None = None

    # -- declaration ---------------------------------------------------------------

    def open(self, name: str, mode: str = "first-reader", capacity: int = 64,
             overflow: str = "reject") -> None:
        """Declare a mailbox (idempotent; conflicting redeclaration is an error)."""
        if mode not in DELIVERY_MODES:
            raise MessagingError(f"unknown delivery mode {mode!r} (want one of {DELIVERY_MODES})")
        if overflow not in OVERFLOW_POLICIES:
            raise MessagingError(
                f"unknown overflow policy {overflow!r} (want one of {OVERFLOW_POLICIES})")
        if capacity < 1:
            raise MessagingError(f"mailbox capacity must be >= 1, got {capacity}")
        if mode == "tap":
            overflow = "drop-oldest"  # taps never exert back-pressure
        with self._lock:
            existing = self._mailboxes.get(name)
            if existing is not None:
                if (existing.mode, existing.capacity, existing.overflow) != (mode, capacity, overflow):
                    raise MessagingError(
                        f"mailbox {name!r} already open as "
                        f"({existing.mode}, cap={existing.capacity}, {existing.overflow})")
                return
            self._mailboxes[name] = _Mailbox(name, mode, capacity, overflow)

    def mailbox_names(self) -> list[str]:
        with self._lock:
            return sorted(self._mailboxes)

    def describe(self, name: str) -> dict:
        box = self._box(name)
        with self._lock:
            return {"name": box.name, "mode": box.mode, "capacity": box.capacity,
                    "overflow": box.overflow}

    def stats(self, name: str) -> MailboxStats:
        box = self._box(name)
        with self._lock:
            box.stats.depth = box.backlog()
            return box.stats

    # -- publish -------------------------------------------------------------------

    def publish(self, name: str, payload: Any, timeout_s: float | None = None,
                publisher: str = "", trace: bytes | None = None) -> int:
        """Publish *payload*; returns the broker-assigned sequence number.

        ``timeout_s`` only matters under ``block-with-deadline`` (default
        there: wait forever on a wall clock — pass a deadline in sims).
        """
        if trace is None and _trace.ENABLED:
            trace = _trace.current_wire()
        wakeup = None
        with self._lock:
            box = self._box_locked(name)
            if box.mode != "tap" and box.overflow == "block-with-deadline":
                self._await_space(box, timeout_s)
            msg = Message(box.next_seq, payload, publisher, trace or b"",
                          self._clock.now())
            box.next_seq += 1
            self._admit(box, msg)
            box.stats.published += 1
            _PUBLISHED.inc()
            box.stats.high_water = max(box.stats.high_water, box.backlog())
            self._cond.notify_all()
            wakeup = self.on_wakeup
        if wakeup is not None:
            wakeup(name)
        return msg.seq

    def _admit(self, box: _Mailbox, msg: Message) -> None:
        """Enqueue under the lock, applying the overflow policy.

        ``block-with-deadline`` has already waited for space by the time we
        get here, but a burst can still race the wakeup — it degrades to
        drop-oldest-with-event rather than exceeding the bound.
        """
        if box.mode == "first-reader":
            if len(box.ready) >= box.capacity:
                if box.overflow == "reject":
                    box.stats.rejected += 1
                    _REJECTED.inc()
                    raise MailboxFullError(box.name, box.capacity)
                dropped = box.ready.popleft()
                self._note_drop(box, dropped, "overflow", "")
            box.ready.append(msg)
            _DEPTH.inc()
            return
        # all-readers / tap: one copy per live subscriber
        live = [s for s in box.subscribers.values() if not s.closed]
        if not live:
            self._note_drop(box, msg, "no_subscribers", "")
            return
        if box.mode == "all-readers" and box.overflow == "reject":
            full = [s for s in live if len(s.queue) >= box.capacity]
            if full:
                box.stats.rejected += 1
                _REJECTED.inc()
                raise MailboxFullError(
                    box.name, box.capacity,
                    detail=f"subscriber {full[0].name or full[0].sub_id} backlogged")
        for sub in live:
            if len(sub.queue) >= box.capacity:
                dropped = sub.queue.popleft()
                self._note_drop(box, dropped, "overflow", sub.name or str(sub.sub_id))
                _DEPTH.inc(-1)
            sub.queue.append(msg)
            _DEPTH.inc()

    def _await_space(self, box: _Mailbox, timeout_s: float | None) -> None:
        """Block (clock-aware) until the backlog is below capacity."""

        def has_space() -> bool:
            if box.mode == "first-reader":
                return len(box.ready) < box.capacity
            live = [s for s in box.subscribers.values() if not s.closed]
            return all(len(s.queue) < box.capacity for s in live)

        self._block_until(has_space, timeout_s,
                          lambda: HarnessTimeoutError(
                              f"publish to {box.name!r} blocked past deadline "
                              f"({timeout_s}s; capacity {box.capacity})"))

    # -- receive / ack -------------------------------------------------------------

    def subscribe(self, name: str, subscriber: str = "",
                  lease_s: float | None = None) -> Subscription:
        with self._lock:
            box = self._box_locked(name)
            sub_id = next(self._next_sub_id)
            deadline = None if lease_s is None else self._clock.now() + lease_s
            box.subscribers[sub_id] = _Subscriber(sub_id, subscriber, lease_s, deadline)
            box.stats.subscribers = len(box.subscribers)
        return Subscription(self, name, sub_id, subscriber)

    def _receive(self, name: str, sub_id: int, timeout: float | None) -> Delivery:
        with self._lock:
            box = self._box_locked(name)
            sub = self._sub_locked(box, sub_id)
            self._renew_lease(sub)
            delivery = self._pop_locked(box, sub)
            if delivery is not None:
                return delivery
            if timeout is not None and timeout <= 0:
                raise HarnessTimeoutError(
                    f"receive on {name!r} timed out after {timeout}s (queue empty)")

            result: list[Delivery] = []

            def ready() -> bool:
                d = self._pop_locked(box, sub)
                if d is None:
                    return False
                result.append(d)
                return True

            self._block_until(ready, timeout,
                              lambda: HarnessTimeoutError(
                                  f"receive on {name!r} timed out after {timeout}s"))
            return result[0]

    def _try_receive(self, name: str, sub_id: int) -> Delivery | None:
        with self._lock:
            box = self._box_locked(name)
            sub = self._sub_locked(box, sub_id)
            self._renew_lease(sub)
            return self._pop_locked(box, sub)

    def _pop_locked(self, box: _Mailbox, sub: _Subscriber) -> Delivery | None:
        if sub.closed:
            raise MessagingError(f"subscription {sub.sub_id} on {box.name!r} is closed")
        source = box.ready if box.mode == "first-reader" else sub.queue
        if not source:
            return None
        msg = source.popleft()
        _DEPTH.inc(-1)
        delivery_id = next(self._next_delivery_id)
        attempt_book = box.attempts if box.mode == "first-reader" else sub.attempts
        attempt = attempt_book.get(msg.seq, 0) + 1
        redelivered = attempt > 1
        if box.mode == "tap":
            # taps auto-ack: an observer can never hold messages back
            box.stats.acked += 1
            _ACKED.inc()
        else:
            sub.unacked[delivery_id] = msg
            attempt_book[msg.seq] = attempt
        box.stats.delivered += 1
        _DELIVERED.inc()
        latency_s = self._clock.now() - msg.enqueued_at
        _DELIVER_LATENCY_US.observe(latency_s * 1e6)
        self._cond.notify_all()  # space freed: wake blocked publishers
        return Delivery(msg, box.name, delivery_id, redelivered, attempt)

    def _ack(self, name: str, sub_id: int, delivery_id: int) -> None:
        with self._lock:
            box = self._box_locked(name)
            sub = self._sub_locked(box, sub_id)
            self._renew_lease(sub)
            msg = sub.unacked.pop(delivery_id, None)
            if msg is None:
                if box.mode == "tap":
                    return  # taps auto-ack; an explicit ack is a no-op
                raise MessagingError(
                    f"unknown delivery {delivery_id} on {name!r} (already acked?)")
            attempt_book = box.attempts if box.mode == "first-reader" else sub.attempts
            attempt_book.pop(msg.seq, None)
            box.stats.acked += 1
            _ACKED.inc()

    def _nack(self, name: str, sub_id: int, delivery_id: int) -> None:
        """Return an unacked delivery to the queue for redelivery."""
        with self._lock:
            box = self._box_locked(name)
            sub = self._sub_locked(box, sub_id)
            msg = sub.unacked.pop(delivery_id, None)
            if msg is None:
                raise MessagingError(f"unknown delivery {delivery_id} on {name!r}")
            self._requeue_locked(box, sub, [msg])
            self._cond.notify_all()

    def _touch(self, name: str, sub_id: int) -> None:
        with self._lock:
            box = self._box_locked(name)
            self._renew_lease(self._sub_locked(box, sub_id))

    def _renew_lease(self, sub: _Subscriber) -> None:
        if sub.lease_s is not None:
            sub.lease_deadline = self._clock.now() + sub.lease_s

    # -- subscriber death / redelivery ---------------------------------------------

    def _close_sub(self, name: str, sub_id: int, requeue: bool = True) -> None:
        wakeup = None
        with self._lock:
            box = self._mailboxes.get(name)
            if box is None:
                return
            sub = box.subscribers.pop(sub_id, None)
            if sub is None or sub.closed:
                return
            sub.closed = True
            box.stats.subscribers = len(box.subscribers)
            unacked = sorted(sub.unacked.values(), key=lambda m: m.seq)
            undelivered = list(sub.queue)
            _DEPTH.inc(-len(sub.queue))
            sub.unacked.clear()
            sub.queue.clear()
            if requeue:
                self._requeue_locked(box, sub, unacked)
            else:
                for msg in unacked:
                    self._note_drop(box, msg, "discarded_on_close",
                                    sub.name or str(sub.sub_id))
            # an all-readers/tap subscriber's private copies die with it;
            # account for each so no loss is silent
            for msg in undelivered:
                self._note_drop(box, msg, "subscriber_dead",
                                sub.name or str(sub.sub_id))
            self._cond.notify_all()
            wakeup = self.on_wakeup
        if wakeup is not None:
            wakeup(name)

    def _requeue_locked(self, box: _Mailbox, sub: _Subscriber,
                        messages: list[Message]) -> None:
        """Requeue unacked *messages* ahead of the backlog, oldest first.

        ``first-reader`` requeues into the shared work queue — the next
        consumer (any consumer) sees them, flagged ``redelivered``.  For
        ``all-readers`` the copies belong to this subscriber alone, so a
        dead subscriber's unacked copies are dropped-with-event instead
        (every other subscriber has its own copy).  Taps hold nothing.
        """
        if not messages:
            return
        if box.mode == "first-reader":
            box.ready.extendleft(reversed(messages))
            _DEPTH.inc(len(messages))
            box.stats.redelivered += len(messages)
            _REDELIVERED.inc(len(messages))
            if self._events is not None:
                self._events.publish(
                    "mbox.redelivered", source=f"mbox:{self.node}",
                    payload={"mailbox": box.name,
                             "seqs": [m.seq for m in messages],
                             "subscriber": sub.name or str(sub.sub_id)})
        elif box.mode == "all-readers" and not sub.closed:
            sub.queue.extendleft(reversed(messages))
            _DEPTH.inc(len(messages))
            box.stats.redelivered += len(messages)
            _REDELIVERED.inc(len(messages))
        else:
            for msg in messages:
                self._note_drop(box, msg, "subscriber_dead",
                                sub.name or str(sub.sub_id))

    def sweep_leases(self) -> list[tuple[str, int]]:
        """Close every subscription whose lease expired; returns the victims.

        The sim binding's liveness story: consumers renew by receiving or
        acking, a crashed consumer stops renewing, and the next sweep
        requeues its unacked messages for the survivors.
        """
        now = self._clock.now()
        with self._lock:
            expired = [(box.name, sub.sub_id)
                       for box in self._mailboxes.values()
                       for sub in box.subscribers.values()
                       if sub.lease_deadline is not None and now >= sub.lease_deadline]
        for name, sub_id in expired:
            self._close_sub(name, sub_id, requeue=True)
        return expired

    def _sub_closed(self, name: str, sub_id: int) -> bool:
        with self._lock:
            box = self._mailboxes.get(name)
            if box is None:
                return True
            sub = box.subscribers.get(sub_id)
            return sub is None or sub.closed

    # -- clock-aware blocking ------------------------------------------------------

    def _block_until(self, predicate: Callable[[], bool],
                     timeout: float | None,
                     make_timeout: Callable[[], HarnessTimeoutError]) -> None:
        """Wait (under the lock) until *predicate* is true.

        Wall clocks park on the condition variable; virtual clocks advance
        simulated time in fixed slices so ``call_at``-scheduled consumers
        can run and the expiry point is deterministic.
        """
        if predicate():
            return
        virtual = hasattr(self._clock, "advance")
        if virtual:
            deadline = None if timeout is None else self._clock.now() + timeout
            while not predicate():
                if deadline is not None and self._clock.now() >= deadline:
                    raise make_timeout()
                step = _VIRTUAL_SLICE_S
                if deadline is not None:
                    step = min(step, deadline - self._clock.now())
                self._clock.sleep(step)
            return
        deadline = None if timeout is None else self._clock.now() + timeout
        while not predicate():
            remaining = None
            if deadline is not None:
                remaining = deadline - self._clock.now()
                if remaining <= 0:
                    raise make_timeout()
            self._cond.wait(remaining)

    # -- drops ---------------------------------------------------------------------

    def _note_drop(self, box: _Mailbox, msg: Message, reason: str,
                   subscriber: str) -> None:
        box.stats.dropped += 1
        _DROPPED.inc()
        if self._events is not None:
            self._events.publish(
                "mbox.dropped", source=f"mbox:{self.node}",
                payload={"mailbox": box.name, "seq": msg.seq, "reason": reason,
                         "subscriber": subscriber, "publisher": msg.publisher})

    # -- lookup helpers ------------------------------------------------------------

    def _box(self, name: str) -> _Mailbox:
        with self._lock:
            return self._box_locked(name)

    def _box_locked(self, name: str) -> _Mailbox:
        box = self._mailboxes.get(name)
        if box is None:
            raise MessagingError(f"mailbox {name!r} is not open")
        return box

    def _sub_locked(self, box: _Mailbox, sub_id: int) -> _Subscriber:
        sub = box.subscribers.get(sub_id)
        if sub is None:
            raise MessagingError(
                f"no subscription {sub_id} on mailbox {box.name!r}")
        return sub

    # -- durability ----------------------------------------------------------------

    def snapshot(self) -> dict:
        """Picklable state: mailbox declarations, backlogs, unacked in-flight."""
        with self._lock:
            return {"node": self.node, "mailboxes": dict(self._mailboxes)}

    def restore(self, state: dict) -> None:
        """Replace broker state from :meth:`snapshot`.

        Subscriptions do not survive a failover — their owners must
        resubscribe — so every restored subscriber is closed with its
        unacked messages requeued: the durable-redelivery contract.
        """
        with self._lock:
            self.node = state.get("node", self.node)
            self._mailboxes = dict(state["mailboxes"])
            doomed = [(box.name, sub_id)
                      for box in self._mailboxes.values()
                      for sub_id in list(box.subscribers)]
        for name, sub_id in doomed:
            self._close_sub(name, sub_id, requeue=True)
        with self._lock:
            top = max((box.next_seq for box in self._mailboxes.values()), default=1)
            self._next_sub_id = itertools.count(top + 1)
            self._next_delivery_id = itertools.count(top + 1)
            self._cond.notify_all()

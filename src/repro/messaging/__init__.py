"""``repro.messaging`` — named mailboxes with normative delivery semantics.

The queued counterpart to the RPC stack (DESIGN.md §15).  A
:class:`~repro.messaging.broker.MessageBroker` hosts named mailboxes, each
with one of three delivery modes:

``first-reader``
    Work-queue: each message is consumed by exactly one subscriber, exactly
    once.  Unacked messages are redelivered (in sequence order, flagged
    ``redelivered``) when their consumer dies or closes without acking.
``all-readers``
    Fan-out: every live subscriber gets its own copy, in publish order per
    publisher.
``tap``
    Lossy observer: never exerts back-pressure on publishers; overflow
    drops the oldest observation and publishes an ``mbox.dropped`` bus
    event.

Queues are bounded with an explicit overflow policy: ``drop-oldest``
(evict + bus event), ``reject`` (typed :class:`MailboxFullError`), or
``block-with-deadline`` (publisher waits; :class:`HarnessTimeoutError` on
expiry).  No mode loses a message silently.

Bindings carry the same client API in-process
(:class:`~repro.messaging.bindings.InprocMailboxClient`), over the netsim
fabric on the VirtualClock (:class:`~repro.messaging.bindings.SimMailboxHost`
/ ``SimMailboxClient``), and over TCP v2 multiplexed frames with server
push (:mod:`repro.messaging.tcpbind`).  The last two carry one protocol
(:mod:`repro.messaging.protocol`): the same ops, faults and deliveries.
"""

from repro.messaging.bindings import (
    InprocMailboxClient,
    SimMailboxClient,
    SimMailboxHost,
)
from repro.messaging.broker import (
    DELIVERY_MODES,
    OVERFLOW_POLICIES,
    Delivery,
    MailboxStats,
    Message,
    MessageBroker,
    Subscription,
)
from repro.messaging.tcpbind import MailboxTcpClient, MailboxTcpServer
from repro.util.errors import MailboxFullError, MessagingError

__all__ = [
    "DELIVERY_MODES",
    "OVERFLOW_POLICIES",
    "Delivery",
    "InprocMailboxClient",
    "MailboxStats",
    "MailboxTcpClient",
    "MailboxTcpServer",
    "Message",
    "MessageBroker",
    "SimMailboxClient",
    "SimMailboxHost",
    "Subscription",
    "MailboxFullError",
    "MessagingError",
]

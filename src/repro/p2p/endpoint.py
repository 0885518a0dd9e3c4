"""Per-peer endpoint: handler registration and dispatch.

The coDB node (§2's DBM + JXTA Layer) reacts to typed messages.  An
:class:`Endpoint` binds one peer id to the transport and dispatches
each incoming message to the handler registered for its kind —
unknown kinds go to an optional default handler (and are counted, so
protocol bugs surface in tests rather than vanish).

The endpoint is also where *bursts* are made.  The transport handles
each delivered burst inside :meth:`Endpoint.delivery`; while that
scope is open, what the delivering thread sends is held in an outbox,
one list per recipient, and leaves when the scope closes — each list
as one :meth:`~repro.p2p.transport.Transport.send_burst`.  A relayed
burst therefore stays a burst hop after hop, and where it begins and
ends depends only on what was delivered, never on socket timing.

And it is where *runs* are cut.  A kind registered with
:meth:`Endpoint.on_run` is handled a run at a time: inside a delivery,
consecutive messages of that kind are buffered and handed over
together — at the first message of another kind, which is a barrier
handled only after the run before it (even when that run's handler
raises), and when the scope closes, before the outbox leaves.  Outside a delivery a message is a run of
one.  A run is therefore at most what one delivery carried, and how a
transport splits bursts changes only how many runs there are.

Finally, a send never raises for its recipient.  A transport raises
:class:`~repro.errors.UnknownPeerError` for a recipient that is not on
the network (it left, never joined, or the wire refused the burst);
the endpoint is the one place that catches it, and turns each message
into an ``undeliverable`` bounce back to the sender
(:meth:`~repro.p2p.transport.Transport.bounce`) — the same notice a
message lost in flight produces.  So a protocol learns that a peer is
gone in exactly one way.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Callable
from typing import Any

from repro.errors import ProtocolError, UnknownPeerError
from repro.p2p.ids import IdAuthority
from repro.p2p.messages import Message
from repro.p2p.transport import Transport

Handler = Callable[[Message], None]
RunHandler = Callable[[list[Message]], None]


class Endpoint:
    """One peer's attachment to the transport."""

    #: Bound on the ``(sender, message_id)`` duplicate-suppression log;
    #: oldest entries are evicted FIFO.  8192 ids comfortably covers
    #: every in-flight window the protocol produces while keeping the
    #: memory footprint per endpoint bounded.
    DEDUP_LIMIT = 8192

    def __init__(
        self,
        peer_id: str,
        transport: Transport,
        ids: IdAuthority,
        *,
        strict: bool = False,
    ) -> None:
        self.peer_id = peer_id
        self.transport = transport
        self.ids = ids
        self.strict = strict
        self._handlers: dict[str, Handler] = {}
        self._run_handlers: dict[str, RunHandler] = {}
        self._default_handler: Handler | None = None
        self.unhandled_count = 0
        #: At-most-once processing over an at-least-once wire: a fault
        #: layer (or a real network) may deliver the same message
        #: twice; exact duplicates are dropped here by
        #: ``(sender, message_id)``.  The sender is part of the key
        #: because per-worker id authorities can mint colliding
        #: counters across processes.
        self._seen_ids: OrderedDict[tuple[str, str], None] = OrderedDict()
        self.duplicates_dropped = 0
        #: recipient -> messages held back while a delivery is open.
        self._outbox: dict[str, list[Message]] | None = None
        #: The thread the open delivery runs on: the outbox is its.
        self._outbox_thread = 0
        #: The run the open delivery is collecting (the messages
        #: themselves, not copies of their payloads).
        self._run: list[Message] = []
        #: Called when a delivery ends, before the outbox leaves: the
        #: node's last word in the bursts (its summed acknowledgements,
        #: or a queued message amended to carry one).
        self.before_flush: Callable[[], None] | None = None
        transport.register(peer_id, self._dispatch, self.delivery)

    # -- handler registration ----------------------------------------------

    def on(self, kind: str, handler: Handler) -> None:
        """Register *handler* for message kind *kind* (one per kind)."""
        self._claim(kind)
        self._handlers[kind] = handler

    def on_run(self, kind: str, handler: RunHandler) -> None:
        """Register *handler* for runs of *kind*: it is called with the
        consecutive messages of that kind one delivery carried (see
        module docstring)."""
        self._claim(kind)
        self._run_handlers[kind] = handler

    def _claim(self, kind: str) -> None:
        if kind in self._handlers or kind in self._run_handlers:
            raise ProtocolError(
                f"peer {self.peer_id!r} already handles {kind!r}"
            )

    def on_default(self, handler: Handler) -> None:
        self._default_handler = handler

    def _dispatch(self, message: Message) -> None:
        if message.message_id:
            key = (message.sender, message.message_id)
            if key in self._seen_ids:
                self.duplicates_dropped += 1
                return
            self._seen_ids[key] = None
            if len(self._seen_ids) > self.DEDUP_LIMIT:
                self._seen_ids.popitem(last=False)
        run_handler = self._run_handlers.get(message.kind)
        if (
            self.delivering()
            and self._run
            and (run_handler is None or self._run[0].kind != message.kind)
        ):
            # A barrier: the run before it goes first.  A run its handler
            # refuses does not take the barrier down with it.
            try:
                self._end_run()
            except Exception:
                self._route(message, run_handler)
                raise
        self._route(message, run_handler)

    def _route(self, message: Message, run_handler: RunHandler | None) -> None:
        """Hand *message* to its handler, or to the run being collected."""
        if run_handler is not None:
            if self.delivering():
                self._run.append(message)
            else:
                run_handler([message])
            return
        handler = self._handlers.get(message.kind)
        if handler is not None:
            handler(message)
            return
        if self._default_handler is not None:
            self._default_handler(message)
            return
        self.unhandled_count += 1
        if self.strict:
            raise ProtocolError(
                f"peer {self.peer_id!r} has no handler for {message.kind!r}"
            )

    # -- bursts --------------------------------------------------------------

    def delivering(self) -> bool:
        """Whether the calling thread is inside :meth:`delivery`."""
        return (
            self._outbox is not None
            and self._outbox_thread == threading.get_ident()
        )

    def delivery(self) -> "_Delivery":
        """The scope of one delivered burst (see module docstring).

        Only the delivering thread's sends are held: a driver thread
        sending meanwhile goes straight out.  The flush runs even when
        a handler raised — what it had sent by then was sent.
        """
        return _Delivery(self)

    def _end_run(self) -> None:
        """Hand the buffered run to its handler.  The buffer is emptied
        first: the handler may itself drive a delivery."""
        run, self._run = self._run, []
        if run:
            self._run_handlers[run[0].kind](run)

    def _flush(self) -> None:
        try:
            try:
                self._end_run()
            finally:
                if self.before_flush is not None:
                    self.before_flush()
        finally:
            outbox, self._outbox = self._outbox, None
            for messages in outbox.values():
                self._send_burst(messages)

    def _send_burst(self, messages: list[Message]) -> None:
        """Hand one recipient's messages to the transport.  If the
        recipient is not on the network, or the wire refuses, each
        comes back as a bounce: this is the one place the transport's
        :class:`~repro.errors.UnknownPeerError` is caught."""
        transport = self.transport
        try:
            if len(messages) == 1:
                transport.send(messages[0])
            else:
                transport.send_burst(messages)
        except UnknownPeerError:
            for message in messages:
                transport.bounce(message)

    # -- sending -------------------------------------------------------------

    def send(self, recipient: str, kind: str, payload: dict[str, Any]) -> Message:
        """Build, stamp and send one message; returns it (for stats).

        Never raises for the recipient: one that is not on the network
        gets the message all the same, and it comes back to this peer
        as an ``undeliverable`` — at once outside a delivery, when the
        burst leaves inside one."""
        message = Message(
            kind=kind,
            sender=self.peer_id,
            recipient=recipient,
            payload=payload,
            message_id=self.ids.message_id(),
        )
        self.send_message(message)
        return message

    def send_message(self, message: Message) -> None:
        """Send *message*, already stamped, as it is.  A bounced message
        goes again this way, under its own id: should an earlier copy
        have arrived after all, the receiver drops this one as a
        duplicate."""
        if not self.delivering():
            self._send_burst([message])
        elif message.recipient in self._outbox:
            self._outbox[message.recipient].append(message)
        else:
            self._outbox[message.recipient] = [message]

    def amend_queued(self, message: Message, fields: dict[str, Any]) -> None:
        """Add *fields* to the payload of *message*, still held in this
        delivery's outbox (same object, same id, same place in its
        burst).  Nothing may have sized *message* yet: its bytes would
        already be counted as the old payload's."""
        queued = self._outbox.get(message.recipient, ()) if self.delivering() else ()
        if not any(item is message for item in reversed(queued)):
            raise ProtocolError(f"{message.kind} {message.message_id!r} is not queued")
        if "_wire" in message.__dict__:
            raise ProtocolError(f"{message.kind} {message.message_id!r} was sized")
        message.payload.update(fields)

    def detach(self) -> None:
        self.transport.unregister(self.peer_id)

    def reattach(self) -> None:
        """Re-register after a :meth:`detach` — the rejoin handshake's
        first step.  Handler registrations and the dedup log survive
        (stale entries are harmless: the old incarnation's senders are
        exactly the peers the rejoin protocol resynchronises with)."""
        if not self.transport.is_registered(self.peer_id):
            self.transport.register(self.peer_id, self._dispatch, self.delivery)

    def now(self) -> float:
        return self.transport.now()


class _Delivery:
    """Context manager behind :meth:`Endpoint.delivery` (a class, not a
    generator: one is entered for every delivered burst)."""

    __slots__ = ("endpoint", "nested")

    def __init__(self, endpoint: Endpoint) -> None:
        self.endpoint = endpoint

    def __enter__(self) -> None:
        endpoint = self.endpoint
        # A handler that drives the transport itself re-enters: the
        # outer delivery keeps the outbox.
        self.nested = endpoint.delivering()
        if not self.nested:
            # Owner first: whenever the outbox is open it names this thread.
            endpoint._outbox_thread = threading.get_ident()
            endpoint._outbox = {}

    def __exit__(self, *exc_info: object) -> None:
        if not self.nested:
            self.endpoint._flush()

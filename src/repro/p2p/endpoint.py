"""Per-peer endpoint: handler registration and dispatch.

The coDB node (§2's DBM + JXTA Layer) reacts to typed messages.  An
:class:`Endpoint` binds one peer id to the transport and dispatches
each incoming message to the handler registered for its kind —
unknown kinds go to an optional default handler (and are counted, so
protocol bugs surface in tests rather than vanish).

The endpoint is also where *bursts* leave.  Its owner may give it an
input scope (a :class:`~repro.core.node.CoDBNode` does: the node's
input), which the transport enters around each delivered burst.  What
the owner emits while that scope is open it keeps and finishes itself,
then hands over through :meth:`Endpoint.send_burst`, one burst per
recipient.  A relayed burst therefore stays a burst hop after hop, and
where it begins and ends depends only on what was delivered, never on
socket timing.  An endpoint without an owner sends each message at
once.

And it is where *runs* are cut.  A kind registered with
:meth:`Endpoint.on_run` is handled a run at a time: inside the owner's
scope, consecutive messages of that kind are buffered and handed over
together — at the first message of another kind, which is a barrier
handled only after the run before it (even when that run's handler
raises), and at :meth:`Endpoint.end_run`, which the owner calls as its
input closes, before it finishes what the input emitted.  Without a
scope a message is a run of one.  A run is therefore at most what one
delivery carried, and how a transport splits bursts changes only how
many runs there are.

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

from collections import OrderedDict
from collections.abc import Callable, Sequence
from typing import Any

from repro.errors import ProtocolError, UnknownPeerError
from repro.p2p.ids import IdAuthority
from repro.p2p.messages import Message
from repro.p2p.transport import DeliveryScope, Transport

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
        scope: DeliveryScope | None = None,
        heard: Handler | None = None,
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
        #: The owner's input scope, entered around each delivered burst
        #: (see module docstring); ``None``: no owner collects.
        self.scope = scope
        #: Told of each message that is not a duplicate, before it is
        #: handled.
        self.heard = heard
        #: The run the open scope is collecting (the messages
        #: themselves, not copies of their payloads).
        self._run: list[Message] = []
        transport.register(peer_id, self._dispatch, scope)

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
        if self.heard is not None:
            self.heard(message)
        run_handler = self._run_handlers.get(message.kind)
        if self._run and (run_handler is None or self._run[0].kind != message.kind):
            # A barrier: the run before it goes first.  A run its handler
            # refuses does not take the barrier down with it.
            try:
                self.end_run()
            except Exception:
                self._route(message, run_handler)
                raise
        self._route(message, run_handler)

    def _route(self, message: Message, run_handler: RunHandler | None) -> None:
        """Hand *message* to its handler, or to the run being collected."""
        if run_handler is not None:
            if self.scope is not None:
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

    def end_run(self) -> None:
        """Hand the buffered run to its handler.  The buffer is emptied
        first: the handler may itself drive a delivery."""
        if self._run:
            run, self._run = self._run, []
            self._run_handlers[run[0].kind](run)

    # -- sending -------------------------------------------------------------

    def send(self, recipient: str, kind: str, payload: dict[str, Any]) -> Message:
        """Build, stamp and send one message at once; returns it.

        Never raises for the recipient: one that is not on the network
        gets the message all the same, and it comes back to this peer
        as an ``undeliverable``."""
        message = Message(
            kind=kind,
            sender=self.peer_id,
            recipient=recipient,
            payload=payload,
            message_id=self.ids.message_id(),
        )
        self.send_burst((message,))
        return message

    def send_burst(self, messages: Sequence[Message]) -> None:
        """Hand one recipient's stamped messages to the transport, in
        order.  If the recipient is not on the network, or the wire
        refuses, each comes back as a bounce: this is the one place the
        transport's :class:`~repro.errors.UnknownPeerError` is caught."""
        transport = self.transport
        try:
            if len(messages) == 1:
                transport.send(messages[0])
            else:
                transport.send_burst(messages)
        except UnknownPeerError:
            for message in messages:
                transport.bounce(message)

    def detach(self) -> None:
        self.transport.unregister(self.peer_id)

    def reattach(self) -> None:
        """Re-register after a :meth:`detach` — the rejoin handshake's
        first step.  Handler registrations and the dedup log survive
        (stale entries are harmless: the old incarnation's senders are
        exactly the peers the rejoin protocol resynchronises with)."""
        if not self.transport.is_registered(self.peer_id):
            self.transport.register(self.peer_id, self._dispatch, self.scope)

    def now(self) -> float:
        return self.transport.now()

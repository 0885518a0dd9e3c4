"""The abstract transport every coDB protocol layer talks to.

Two implementations ship: the deterministic simulated network
(:class:`repro.p2p.inproc.InProcessNetwork`) and the real TCP one
(:class:`repro.p2p.tcp.TcpNetwork`).  The contract:

* ``register(peer_id, handler, scope=None)`` — attach a peer;
  *handler* is called with each delivered
  :class:`~repro.p2p.messages.Message`, one at a time per peer
  (actor-style serialisation, like coDB's DBM).  The messages of one
  delivered burst are handled inside one ``with scope():`` block —
  that is how a node makes the burst one input and holds back what
  its handlers send until the burst is done.
* ``send_burst(messages)`` — the unit of sending: everything one
  delivery makes a peer send to one recipient, in order.  Asynchronous
  and FIFO per (sender, recipient) pair (pipes preserve order; the
  update protocol relies on a close marker not overtaking the results
  sent before it).  A transport delivers a burst whole when it can —
  one frame train, one handler scope, one progress notification — but
  **may split it anywhere**: a fault verdict is per message (a bounced
  message leaves the burst, a duplicated one repeats in place, a
  delayed one cuts the burst in front of it), and the base
  implementation sends the messages one by one.  Splitting never changes what is computed,
  only how many acknowledgements it takes (an importer acknowledges
  once per delivery, see :mod:`repro.core.termination`).
  ``send(message)`` is a burst of one.
* ``now()`` — the transport clock (virtual seconds for the simulator,
  monotonic seconds for TCP); all statistics timestamps use it.
* ``run_until_idle()`` — drive the network until no messages are in
  flight.  On the simulator this steps the event queue; on TCP it
  waits on the progress condition.
* ``wait_for(predicate, timeout)`` — block until *predicate* holds.
  This is the completion primitive every driver-facing wait goes
  through (request handles, ``as_completed``, statistics sweeps): the
  simulator steps its event queue one delivery at a time and re-checks
  after each (fine-grained, so completion *order* is observable);
  multi-threaded transports wait on :attr:`Transport.progress`, a
  condition their delivery loops notify after every handled message —
  no ``time.sleep`` polling anywhere.
"""

from __future__ import annotations

import threading
import time
from contextlib import AbstractContextManager
from dataclasses import dataclass, field
from collections.abc import Callable, Sequence

from repro.errors import RequestTimeoutError
from repro.p2p.messages import Message

MessageHandler = Callable[[Message], None]
#: Entered around the handling of one delivered burst.
DeliveryScope = Callable[[], AbstractContextManager]


@dataclass
class TransportStats:
    """Global traffic counters, shared by both transports.

    This base class is **not** thread-safe — the single-threaded
    simulator uses it as-is, lock-free.  Multi-threaded transports
    (TCP: the driver thread and every per-peer delivery thread all
    send) must use :class:`ThreadSafeTransportStats`, which guards the
    read-modify-write counters.
    """

    messages_sent: int = 0
    bytes_sent: int = 0
    #: Actual framed bytes written to a byte transport (length prefix
    #: included), in whatever codec each connection negotiated.  Stays
    #: 0 on the simulator, which moves no real bytes.  ``bytes_sent``
    #: by contrast is always the codec-independent stable-JSON volume
    #: (§4 statistics are identical across transports and codecs).
    wire_bytes_sent: int = 0
    messages_delivered: int = 0
    #: Inbound frames a byte transport refused (oversize length header,
    #: undecodable body); the connection that carried one is closed.
    frames_rejected: int = 0
    by_kind: dict[str, int] = field(default_factory=dict)

    def record_send(self, message: Message) -> None:
        self.messages_sent += 1
        self.bytes_sent += message.size_bytes()
        self.by_kind[message.kind] = self.by_kind.get(message.kind, 0) + 1

    def record_wire(self, nbytes: int) -> None:
        self.wire_bytes_sent += nbytes

    def record_delivery(self) -> None:
        self.messages_delivered += 1

    def record_rejected_frame(self) -> None:
        self.frames_rejected += 1


class ThreadSafeTransportStats(TransportStats):
    """Lock-guarded counters for transports whose ``send`` runs on
    several threads concurrently (each ``+=`` and the ``by_kind``
    read-modify-write is a data race without it)."""

    def __init__(self) -> None:
        super().__init__()
        self._lock = threading.Lock()

    def record_send(self, message: Message) -> None:
        with self._lock:
            super().record_send(message)

    def record_wire(self, nbytes: int) -> None:
        with self._lock:
            super().record_wire(nbytes)

    def record_delivery(self) -> None:
        with self._lock:
            super().record_delivery()

    def record_rejected_frame(self) -> None:
        with self._lock:
            super().record_rejected_frame()


class Transport:
    """Abstract base; see module docstring for the contract."""

    #: Kinds the fault layer never touches: these are synthesized by
    #: the transport itself (or by a fault model playing failure
    #: detector) — losing the failure notification would make faults
    #: unobservable, and bouncing a bounce would loop forever.
    CONTROL_KINDS = frozenset({"undeliverable", "peer_down"})

    def __init__(self) -> None:
        self.stats = TransportStats()
        #: Optional :class:`~repro.p2p.faults.FaultInjector`.
        self.faults = None
        #: Progress condition: notified (via :meth:`notify_progress`)
        #: after every handled message and on every request completion,
        #: so waiters re-check their predicates event-driven instead of
        #: sleep-polling.  ``_progress_gen`` is a generation counter
        #: that lets waiters detect progress that happened between
        #: checking their predicate and going to sleep (the classic
        #: missed-wakeup window) without evaluating predicates under
        #: the condition's lock.
        self.progress = threading.Condition()
        self._progress_gen = 0

    def notify_progress(self) -> None:
        """Wake every ``wait_for`` waiter to re-check its predicate."""
        with self.progress:
            self._progress_gen += 1
            self.progress.notify_all()

    def wait_for(
        self,
        predicate: Callable[[], bool],
        timeout: float | None = None,
        *,
        description: str = "operation",
    ) -> None:
        """Block until ``predicate()`` is true; event-driven.

        The default implementation (used by multi-threaded transports)
        waits on :attr:`progress`; delivery loops call
        :meth:`notify_progress` after each handled message.  Predicates
        are always evaluated *outside* the condition lock — they may
        read node state guarded by other locks.  Raises
        :class:`~repro.errors.RequestTimeoutError` after *timeout*
        seconds (``None`` waits forever).
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            with self.progress:
                generation = self._progress_gen
            if predicate():
                return
            timed_out = False
            with self.progress:
                while self._progress_gen == generation and not timed_out:
                    if deadline is None:
                        self.progress.wait()
                        continue
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or not self.progress.wait(remaining):
                        timed_out = True
            if timed_out:
                if predicate():
                    return
                raise RequestTimeoutError(
                    f"{description} did not complete within {timeout}s"
                )

    # -- peer management -------------------------------------------------

    def register(
        self,
        peer_id: str,
        handler: MessageHandler,
        scope: DeliveryScope | None = None,
    ) -> None:
        raise NotImplementedError

    def unregister(self, peer_id: str) -> None:
        raise NotImplementedError

    def peers(self) -> list[str]:
        raise NotImplementedError

    def is_registered(self, peer_id: str) -> bool:
        return peer_id in self.peers()

    def install_faults(self, injector) -> None:
        """Install a :class:`~repro.p2p.faults.FaultInjector` (drivers
        typically build and start the network fault-free first): every
        send consults its verdict — loss retries as delay, exhaustion
        bounces an ``undeliverable`` to the sender, duplicates deliver
        extra copies — and every handled message feeds its models and
        event-count hooks.  The same seam on every transport."""
        self.faults = injector
        injector.bind_transport(self)

    def severed_pairs(self) -> frozenset:
        """Peer pairs currently cut by an active partition, as
        ``frozenset({a, b})`` entries.  Non-empty only with a fault
        layer installed; drivers use it to compute reachability for
        ``outcome="partial"`` reporting."""
        return self.faults.severed_pairs() if self.faults else frozenset()

    # -- messaging --------------------------------------------------------

    def send(self, message: Message) -> None:
        """Send one message: a burst of one."""
        raise NotImplementedError

    def send_burst(self, messages: Sequence[Message]) -> None:
        """Send *messages* — same sender, same recipient, in order — as
        one burst.  Raises :class:`~repro.errors.UnknownPeerError`
        before anything is sent when the recipient is not on the
        network; :class:`~repro.p2p.endpoint.Endpoint` catches it and
        bounces the burst, so no protocol sees it.  The default splits
        the burst into single sends."""
        for message in messages:
            self.send(message)

    def _notify(self, notice: Message) -> None:
        """Put a transport-made control notice straight into its
        recipient's inbox, as if it had just arrived (no send counters,
        no fault verdict); nothing happens when this transport does not
        host the recipient."""
        raise NotImplementedError

    def bounce(self, message: Message) -> None:
        """Return *message* to its sender as an ``undeliverable``
        notice: mail for a departed peer, a fault-injected loss that
        exhausted its retries, a burst the wire refused.  The notice
        carries the message whole — kind, payload, recipient and id —
        so the sender can send it again as it was (a bounce says the
        message did not arrive, not that its recipient is gone).
        Bounces are never bounced."""
        if message.kind != "undeliverable":
            self._notify(
                Message(
                    kind="undeliverable",
                    sender=message.recipient,
                    recipient=message.sender,
                    payload={
                        "kind": message.kind,
                        "payload": message.payload,
                        "recipient": message.recipient,
                        "message_id": message.message_id,
                    },
                )
            )

    def announce_unreachable(self, peer: str, to: str) -> None:
        """Failure-detector notice: tell locally hosted peer *to* that
        *peer* is unreachable, without unregistering anyone — a
        partition's timeout compressed to an event (both peers stay
        alive on their sides).  Skipped when *to* lives in another
        process: that process's own injector copy announces its side
        of the cut."""
        self._notify(
            Message(kind="peer_down", sender=peer, recipient=to, payload={"peer": peer})
        )

    def _admit(
        self, messages: Sequence[Message]
    ) -> list[tuple[float, Sequence[Message]]]:
        """Count a burst as sent and put it to the fault layer, message
        by message.  Returns what is left to deliver as ``(extra delay,
        messages)`` segments, each to be delivered as a burst of its
        own: a bounced message leaves the burst (and bounces), a
        duplicated one repeats in place, and a delayed one cuts the
        burst — it and what follows it wait, what precedes it need
        not.  No faults, one segment."""
        record = self.stats.record_send
        for message in messages:
            record(message)
        faults = self.faults
        if faults is None:
            return [(0.0, messages)]
        segments: list[tuple[float, list[Message]]] = []
        for message in messages:
            copies, extra_delay = 1, 0.0
            if message.kind not in self.CONTROL_KINDS:
                verdict = faults.verdict(message)
                if verdict.bounce:
                    self.bounce(message)
                    continue
                copies = max(1, verdict.copies)
                extra_delay = max(0.0, verdict.extra_delay)
            if extra_delay > 0.0 or not segments:
                segments.append((extra_delay, []))
            segments[-1][1].extend([message] * copies)
        return segments

    def broadcast(self, sender: str, kind: str, payload: dict) -> int:
        """Send to every other registered peer; returns the fan-out.

        JXTA propagates a message through the group (the super-peer's
        rules file and statistics requests); both our transports
        implement broadcast as unicast fan-out, which has the same
        observable behaviour on a connected group.
        """
        count = 0
        for peer in self.peers():
            if peer != sender:
                self.send(Message(kind=kind, sender=sender, recipient=peer, payload=payload))
                count += 1
        return count

    # -- time and progress -------------------------------------------------

    def now(self) -> float:
        raise NotImplementedError

    def run_until_idle(self, max_messages: int | None = None) -> int:
        """Deliver messages until quiescent; returns how many were delivered."""
        raise NotImplementedError

    def stop(self) -> None:
        """Tear the transport down (no-op on the simulator)."""

"""Deterministic in-process simulated network.

A discrete-event simulator: ``send_burst`` schedules one delivery
event at ``now + latency`` for the whole burst;
:meth:`InProcessNetwork.run_until_idle` pops events in timestamp order
and invokes the recipient's handler on each message of the burst, in
one handler scope; the handler may send further messages.  Per
(sender, recipient) pair delivery is FIFO even under equal timestamps
(a monotone sequence number breaks ties), so the protocol's ordering
assumptions hold exactly as they would on a TCP pipe.

The latency model charges ``base + jitter + bytes / bandwidth`` per
burst (one frame train: one latency, the bytes of all its messages).
Jitter is drawn from a seeded PRNG, so two runs with the
same seed produce byte-identical traces and timings — this is what
makes every benchmark reproducible (DESIGN.md §2, substitution of the
demo's lab testbed).

An optional :class:`~repro.p2p.faults.FaultInjector` makes the
simulator adversarial: every scheduled message gets a verdict
(deliver / duplicate / extra delay / bounce) and every handled
message is reported back, which is what drives event-count fault
hooks.  Transport-synthesized control notices (``undeliverable``,
``peer_down``) are exempt — they *are* the failure detector, not wire
traffic.
"""

from __future__ import annotations

import heapq
import random
from collections.abc import Sequence
from contextlib import nullcontext
from dataclasses import dataclass

from repro.errors import (
    RequestTimeoutError,
    TransportStoppedError,
    UnknownPeerError,
)
from repro.p2p.messages import Message
from repro.p2p.transport import DeliveryScope, MessageHandler, Transport


@dataclass
class LatencyModel:
    """Per-message delay: ``base + U(0, jitter) + size/bandwidth``.

    Attributes
    ----------
    base_seconds:
        Fixed one-way latency (default 1 ms).
    jitter_seconds:
        Upper bound of uniform jitter (default 0 — fully deterministic
        timing; benchmarks that want realism set e.g. 0.2 ms).
    bandwidth_bytes_per_second:
        Serialisation cost; ``0`` disables the size term.
    """

    base_seconds: float = 0.001
    jitter_seconds: float = 0.0
    bandwidth_bytes_per_second: float = 0.0

    def delay(self, size_bytes: int, rng: random.Random) -> float:
        delay = self.base_seconds
        if self.jitter_seconds > 0.0:
            delay += rng.uniform(0.0, self.jitter_seconds)
        if self.bandwidth_bytes_per_second > 0.0:
            delay += size_bytes / self.bandwidth_bytes_per_second
        return delay


class InProcessNetwork(Transport):
    """The simulated transport (see module docstring).

    Parameters
    ----------
    seed:
        Seeds the jitter PRNG (and nothing else).
    latency:
        The :class:`LatencyModel`; default is a constant 1 ms.
    faults:
        Optional :class:`~repro.p2p.faults.FaultInjector`; may also be
        installed after construction with :meth:`install_faults`.
    """

    def __init__(
        self,
        seed: int = 0,
        latency: LatencyModel | None = None,
        faults=None,
    ) -> None:
        super().__init__()
        self.latency = latency if latency is not None else LatencyModel()
        self._rng = random.Random(seed)
        #: peer id -> (handler, delivery scope).
        self._handlers: dict[str, tuple[MessageHandler, DeliveryScope]] = {}
        # Event queue entries: (deliver_at, sequence, burst).
        self._queue: list[tuple[float, int, Sequence[Message]]] = []
        self._sequence = 0
        self._clock = 0.0
        self._stopped = False
        #: Per-pair last scheduled delivery time, to keep FIFO order
        #: even when jitter would reorder messages on the same pipe.
        self._pair_horizon: dict[tuple[str, str], float] = {}
        if faults is not None:
            self.install_faults(faults)

    # -- Transport API ----------------------------------------------------

    def register(
        self,
        peer_id: str,
        handler: MessageHandler,
        scope: DeliveryScope | None = None,
    ) -> None:
        if peer_id in self._handlers:
            raise UnknownPeerError(f"peer {peer_id!r} already registered")
        self._handlers[peer_id] = (handler, scope or nullcontext)

    def _schedule(self, deliver_at: float, burst: Sequence[Message]) -> None:
        heapq.heappush(self._queue, (deliver_at, self._sequence, burst))
        self._sequence += 1

    def _notify(self, notice: Message) -> None:
        if notice.recipient in self._handlers:
            self._schedule(self._clock, (notice,))

    def unregister(self, peer_id: str) -> None:
        """Remove a peer, announcing ``peer_down`` to every survivor.

        The announcement plays the failure detector's role: survivors
        write off acknowledgements the departed peer still owed
        (JXTA's peer-monitoring service plays this part in the original
        system).
        """
        if self._handlers.pop(peer_id, None) is None:
            return
        for survivor in self._handlers:
            self.announce_unreachable(peer_id, survivor)

    def peers(self) -> list[str]:
        return list(self._handlers)

    def is_registered(self, peer_id: str) -> bool:
        return peer_id in self._handlers

    def send(self, message: Message) -> None:
        self.send_burst((message,))

    def send_burst(self, messages: Sequence[Message]) -> None:
        if self._stopped:
            raise TransportStoppedError("network is stopped")
        pair = (messages[0].sender, messages[0].recipient)
        if pair[1] not in self._handlers:
            raise UnknownPeerError(pair[1])
        for extra_delay, burst in self._admit(messages):
            size = sum(message.size_bytes() for message in burst)
            delay = self.latency.delay(size, self._rng)
            deliver_at = self._clock + delay + extra_delay
            horizon = self._pair_horizon.get(pair, 0.0)
            if deliver_at < horizon:
                deliver_at = horizon  # FIFO per pipe
            self._pair_horizon[pair] = deliver_at
            self._schedule(deliver_at, burst)

    def now(self) -> float:
        return self._clock

    def pending(self) -> int:
        """Messages currently in flight."""
        return sum(len(burst) for _, _, burst in self._queue)

    def step(self) -> int:
        """Deliver the single earliest in-flight burst; returns how
        many messages that was (``0``: nothing is in flight).

        Mail addressed to a peer that has left the network *bounces*:
        the sender receives an ``undeliverable`` notification wrapping
        the original message (kind, payload, intended recipient), which
        is what lets the coDB protocol terminate under churn (§1: nodes
        may "appear or disappear during the computation").  Acks and
        bounces themselves are dropped silently.  The recipient is
        looked up per message: a fault hook may crash it mid-burst.
        """
        if not self._queue:
            return 0
        deliver_at, _, burst = heapq.heappop(self._queue)
        self._clock = max(self._clock, deliver_at)
        handlers, recipient = self._handlers, burst[0].recipient
        entry = handlers.get(recipient)
        with entry[1]() if entry else nullcontext():
            for message in burst:
                entry = handlers.get(recipient)
                if entry is not None:
                    self.stats.record_delivery()
                    entry[0](message)
                    if self.faults is not None:
                        self.faults.after_delivery(message)
                elif message.kind != "ack":
                    self.bounce(message)
        return len(burst)

    def run_until_idle(self, max_messages: int | None = None) -> int:
        delivered = 0
        while self._queue:
            if max_messages is not None and delivered >= max_messages:
                break
            delivered += self.step()
        return delivered

    def wait_for(self, predicate, timeout=None, *, description="operation"):
        """Step the event queue one delivery at a time until *predicate*.

        Single-threaded, so "waiting" means driving: each step delivers
        exactly one burst and the predicate is re-checked, which makes
        completion *order* observable at virtual-time granularity (what
        ``as_completed`` streams).  If the queue drains first, nothing
        in flight can ever satisfy the predicate — that is the
        simulator's notion of a timeout.
        """
        while not predicate():
            if not self.step():
                raise RequestTimeoutError(
                    f"network went idle before {description} completed"
                )

    def run_for(self, duration: float) -> int:
        """Deliver events until the virtual clock advances by *duration*."""
        deadline = self._clock + duration
        delivered = 0
        while self._queue and self._queue[0][0] <= deadline:
            delivered += self.step()
        self._clock = max(self._clock, deadline)
        return delivered

    def stop(self) -> None:
        self._stopped = True
        self._queue.clear()

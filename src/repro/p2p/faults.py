"""Adversarial fault injection, transport-agnostic.

The paper claims termination "even if nodes and coordination rules
appear or disappear during the computation" (§1) — but a transport
that delivers every message reliably and in order never *tests* that
claim.  This module makes any transport adversarial while keeping the
fault schedule reproducible: a :class:`FaultInjector` composes
pluggable :class:`FaultModel`\\ s (the structure follows the
``FaultModel``/``MobilityModel`` plug-ins of wireless-sensor
simulators), each seeded independently, and the transport —
:class:`~repro.p2p.inproc.InProcessNetwork` *or*
:class:`~repro.p2p.tcp.TcpNetwork` (and through it the process-per-node
runner, whose workers install the same serialised model stack on their
own transports) — consults it at two hook points:

* **send** — every scheduled message gets a :class:`Verdict`: deliver
  (possibly several copies, possibly with extra delay) or *bounce*
  (the sender receives the standard ``undeliverable`` notification,
  as if the recipient had left; a coDB node sends the message again
  and writes the peer off only once its retry budget for that peer is
  spent, which closes links and keeps the computation terminating).
  Per-pipe FIFO is preserved whatever the models do (the transport's
  pair horizon clamps delivery times), exactly like a real TCP pipe
  under loss and retransmission; *cross*-pipe order scrambles freely.
  Only a bounced message that its sender sends again can arrive behind
  messages sent after it (:mod:`repro.core.update` tolerates that).
* **after delivery** — event-count hooks
  (:meth:`FaultInjector.at_delivery`) fire actions at exact protocol
  moments ("after the victim processed its second ``update_request``"),
  replacing wall-clock ``run_for`` timing for crash/rejoin/flap/sever
  scheduling — fault timing is deterministic across latency models.

The models:

* :class:`MessageLoss` — each matching message is lost with
  probability *p*; a lost message is retransmitted up to *retries*
  times (surfacing as extra delay, like TCP retransmission), and when
  retries are exhausted the loss bounces to the sender, which sends the
  message again.  A run whose losses are all absorbed by retries, at
  either level, is differentially equal to the fault-free run; a loss
  that outlasts the sender's retry budget writes the peer off and
  yields a precisely-reported ``partial`` outcome.
* :class:`Duplication` — delivers extra copies.  Safe because every
  endpoint drops exact duplicates by ``(sender, message_id)``
  (at-most-once processing over an at-least-once wire).
* :class:`Reorder` / :class:`ExtraDelay` — random or fixed extra
  latency: scrambles cross-pipe delivery order and stretches the
  schedule without changing any outcome.
* :class:`LinkFlap` — one link alternates up/down by *message counts*
  (never wall time): every ``down_every`` crossings it drops for
  ``down_for`` attempts, each of which bounces.
* :class:`Partition` — a full cut between named groups that can later
  :meth:`~Partition.heal`.  Severing plays the failure detector:
  both sides of every cut pair receive ``peer_down`` notices, and
  cross-cut messages bounce until the heal.  The driver can ask the
  transport for :meth:`FaultInjector.severed_pairs` — that is what
  lets ``CoDBNetwork`` report ``outcome="partial"`` naming exactly
  the severed component instead of silently truncating the §4 report.

* :class:`LognormalDelay` / :class:`GilbertElliott` —
  distribution-shaped weather replacing the Bernoulli-only models:
  heavy-tailed per-message latency drawn from a lognormal, and bursty
  loss from the classic two-state Gilbert–Elliott Markov channel
  (losses cluster, as they do on real links, instead of arriving
  independently).
* :class:`ScheduledCrash` — crash-and-rejoin as a first-class fault
  model: after the N-th matching delivery at the victim the crash
  action fires (kill the node, SIGKILL the worker), and optionally a
  rejoin action fires a counted number of deliveries later.  Timing is
  event-count based like every other model, so the schedule is
  identical under any latency model and on any transport.

Every probabilistic model draws from a ``random.Random`` derived per
message from the model's seed and the message's **edge stream
position** — a per-(sender, recipient, kind) sequence number.  The
draw therefore depends only on *how many messages of this kind have
crossed this edge before*, never on cross-edge interleaving or thread
timing, which is what makes the same seeded model stack produce
**identical verdict traces** on the single-threaded simulator and on
the multi-threaded TCP transport (and lets N worker processes each
run their own copy of the stack while jointly behaving like one).
Counter-based models (:class:`LinkFlap`, which counts attempts across
both directions of a pair) remain deterministic on the simulator only.
"""

from __future__ import annotations

import math
import random
import threading
import zlib
from dataclasses import dataclass, field
from collections.abc import Callable, Iterable

from repro.errors import ProtocolError
from repro.p2p.messages import Message


@dataclass
class Verdict:
    """What happens to one message about to be scheduled.

    ``copies`` is how many times the message is delivered (0 never
    happens: a loss is a *bounce*, not a silent vanish — silent drops
    would deadlock the Dijkstra–Scholten deficits, which is exactly
    the hang a reliable protocol over a lossy link avoids by
    retransmitting or surfacing the failure).
    """

    copies: int = 1
    extra_delay: float = 0.0
    bounce: bool = False


class FaultModel:
    """Base class for pluggable fault models.

    Subclasses override :meth:`on_send` (mutate the verdict) and/or
    :meth:`on_delivered` (observe deliveries — flap counters, mobility
    triggers).  ``bind`` is called by the injector with a dedicated
    seeded RNG and the model's derived stream seed (what :meth:`draw`
    keys per-message RNGs on).
    """

    name = "fault"

    def __init__(self) -> None:
        self.rng = random.Random(0)
        self._stream_seed = 0
        #: (sender, recipient, kind) -> messages seen on that edge.
        self._edge_seq: dict[tuple[str, str, str], int] = {}

    def bind(
        self,
        injector: "FaultInjector",
        rng: random.Random,
        stream_seed: int = 0,
    ) -> None:
        self.injector = injector
        self.rng = rng
        self._stream_seed = stream_seed

    def draw(self, message: Message) -> random.Random:
        """A per-message RNG keyed on the message's edge-stream
        position.  The K-th ``kind`` message from A to B always gets
        the same RNG under the same seed — regardless of transport,
        thread timing, or which other models are installed — so seeded
        verdict traces are identical across deployment modes."""
        edge = (message.sender, message.recipient, message.kind)
        sequence = self._edge_seq.get(edge, 0)
        self._edge_seq[edge] = sequence + 1
        key = (
            f"{self._stream_seed}:{message.sender}>{message.recipient}"
            f":{message.kind}:{sequence}"
        )
        return random.Random(zlib.crc32(key.encode()))

    def on_send(self, message: Message, verdict: Verdict) -> None:
        """Adjust *verdict* for a message about to be scheduled."""

    def on_delivered(self, message: Message) -> None:
        """Observe one completed delivery."""

    def stats(self) -> dict:
        """Counters for benchmarks ({} unless the model keeps any)."""
        return {}

    def spec(self) -> dict:
        """Serialisable constructor parameters (``{"model": name, ...}``)
        for shipping the model to worker processes; raises for models
        that hold callables or driver-side state."""
        raise ProtocolError(
            f"fault model {self.name!r} is not serialisable"
        )


class MessageLoss(FaultModel):
    """Lose each matching message with probability *p*, retransmitting.

    A loss absorbed by a retry shows up as ``retry_delay`` extra
    latency per attempt; a loss that exhausts ``retries`` bounces to
    the sender, which sends the message again, with a fresh draw, until
    its retry budget for the recipient is spent — only then do links
    close and the report go ``partial``.  With the default
    ``retries=3`` and moderate *p*, most runs are
    fault-free-equivalent.
    """

    name = "loss"

    def __init__(
        self,
        probability: float,
        *,
        retries: int = 3,
        retry_delay: float = 0.002,
        kinds: Iterable[str] | None = None,
    ) -> None:
        super().__init__()
        self.probability = probability
        self.retries = retries
        self.retry_delay = retry_delay
        self.kinds = frozenset(kinds) if kinds is not None else None
        self.messages_lost = 0
        self.retries_used = 0
        self.bounced = 0

    def on_send(self, message: Message, verdict: Verdict) -> None:
        if self.kinds is not None and message.kind not in self.kinds:
            return
        rng = self.draw(message)
        attempts = 0
        while attempts <= self.retries and rng.random() < self.probability:
            attempts += 1
        if attempts == 0:
            return
        self.messages_lost += attempts
        if attempts > self.retries:
            verdict.bounce = True
            self.bounced += 1
        else:
            self.retries_used += attempts
            verdict.extra_delay += attempts * self.retry_delay

    def stats(self) -> dict:
        return {
            "messages_lost": self.messages_lost,
            "retries_used": self.retries_used,
            "bounced": self.bounced,
        }

    def spec(self) -> dict:
        return {
            "model": self.name,
            "probability": self.probability,
            "retries": self.retries,
            "retry_delay": self.retry_delay,
            "kinds": None if self.kinds is None else sorted(self.kinds),
        }


class Duplication(FaultModel):
    """Deliver extra copies of each matching message with probability
    *p* (an at-least-once wire; endpoints dedup by message id)."""

    name = "duplication"

    def __init__(
        self,
        probability: float,
        *,
        copies: int = 2,
        kinds: Iterable[str] | None = None,
    ) -> None:
        super().__init__()
        self.probability = probability
        self.copies = copies
        self.kinds = frozenset(kinds) if kinds is not None else None
        self.duplicated = 0

    def on_send(self, message: Message, verdict: Verdict) -> None:
        if self.kinds is not None and message.kind not in self.kinds:
            return
        if self.draw(message).random() < self.probability:
            verdict.copies = max(verdict.copies, self.copies)
            self.duplicated += 1

    def stats(self) -> dict:
        return {"duplicated": self.duplicated}

    def spec(self) -> dict:
        return {
            "model": self.name,
            "probability": self.probability,
            "copies": self.copies,
            "kinds": None if self.kinds is None else sorted(self.kinds),
        }


class Reorder(FaultModel):
    """Scramble cross-pipe delivery order with random extra delay.

    Per-pipe FIFO survives (the transport clamps to the pair horizon),
    so this models what a mesh of independent TCP pipes really does:
    messages on *different* pipes overtake each other freely.
    """

    name = "reorder"

    def __init__(
        self, probability: float = 1.0, *, max_extra: float = 0.01
    ) -> None:
        super().__init__()
        self.probability = probability
        self.max_extra = max_extra
        self.delayed = 0

    def on_send(self, message: Message, verdict: Verdict) -> None:
        rng = self.draw(message)
        if rng.random() < self.probability:
            verdict.extra_delay += rng.uniform(0.0, self.max_extra)
            self.delayed += 1

    def stats(self) -> dict:
        return {"delayed": self.delayed}

    def spec(self) -> dict:
        return {
            "model": self.name,
            "probability": self.probability,
            "max_extra": self.max_extra,
        }


class ExtraDelay(FaultModel):
    """Fixed extra latency (plus optional uniform jitter) on matching
    messages — a slow or congested path."""

    name = "delay"

    def __init__(
        self,
        delay: float = 0.005,
        *,
        jitter: float = 0.0,
        kinds: Iterable[str] | None = None,
    ) -> None:
        super().__init__()
        self.delay = delay
        self.jitter = jitter
        self.kinds = frozenset(kinds) if kinds is not None else None
        self.delayed = 0

    def on_send(self, message: Message, verdict: Verdict) -> None:
        if self.kinds is not None and message.kind not in self.kinds:
            return
        verdict.extra_delay += self.delay
        if self.jitter > 0.0:
            verdict.extra_delay += self.draw(message).uniform(0.0, self.jitter)
        self.delayed += 1

    def stats(self) -> dict:
        return {"delayed": self.delayed}

    def spec(self) -> dict:
        return {
            "model": self.name,
            "delay": self.delay,
            "jitter": self.jitter,
            "kinds": None if self.kinds is None else sorted(self.kinds),
        }


class LognormalDelay(FaultModel):
    """Heavy-tailed per-message latency drawn from a lognormal.

    Real network delay distributions are right-skewed: most messages
    cross near the median, a long tail straggles.  ``median`` is the
    distribution's median extra delay (the lognormal's ``exp(mu)``),
    ``sigma`` its shape (0 = constant, ~1 = heavy tail), and ``cap``
    clamps the tail so a single unlucky draw cannot stall a benchmark.
    Deterministic per edge-stream position like every draw-based model.
    """

    name = "lognormal"

    def __init__(
        self,
        *,
        median: float = 0.002,
        sigma: float = 0.5,
        cap: float = 0.05,
        kinds: Iterable[str] | None = None,
    ) -> None:
        super().__init__()
        if median <= 0.0:
            raise ValueError("lognormal median must be positive")
        self.median = median
        self.sigma = sigma
        self.cap = cap
        self.kinds = frozenset(kinds) if kinds is not None else None
        self.delayed = 0
        self.capped = 0

    def on_send(self, message: Message, verdict: Verdict) -> None:
        if self.kinds is not None and message.kind not in self.kinds:
            return
        delay = self.draw(message).lognormvariate(
            math.log(self.median), self.sigma
        )
        if delay > self.cap:
            delay = self.cap
            self.capped += 1
        verdict.extra_delay += delay
        self.delayed += 1

    def stats(self) -> dict:
        return {"delayed": self.delayed, "capped": self.capped}

    def spec(self) -> dict:
        return {
            "model": self.name,
            "median": self.median,
            "sigma": self.sigma,
            "cap": self.cap,
            "kinds": None if self.kinds is None else sorted(self.kinds),
        }


class GilbertElliott(FaultModel):
    """Bursty loss: the two-state Gilbert–Elliott Markov channel.

    Each (sender, recipient) edge carries its own channel state, GOOD
    or BAD, stepped once per message on that edge: GOOD→BAD with
    probability ``p_bad``, BAD→GOOD with ``p_recover``.  The loss
    probability is ``loss_good`` in GOOD (usually 0) and ``loss_bad``
    in BAD — so losses arrive in bursts while the edge sits in BAD,
    the pattern independent Bernoulli loss cannot produce.  Losses use
    the same retry-then-bounce semantics as :class:`MessageLoss`.

    State transitions draw from the per-message edge stream, and the
    state itself is a function of the edge's message *count* — both
    transport-independent, so the burst schedule is identical on the
    simulator and over TCP.
    """

    name = "gilbert"

    def __init__(
        self,
        *,
        p_bad: float = 0.05,
        p_recover: float = 0.5,
        loss_good: float = 0.0,
        loss_bad: float = 0.5,
        retries: int = 3,
        retry_delay: float = 0.002,
        kinds: Iterable[str] | None = None,
    ) -> None:
        super().__init__()
        self.p_bad = p_bad
        self.p_recover = p_recover
        self.loss_good = loss_good
        self.loss_bad = loss_bad
        self.retries = retries
        self.retry_delay = retry_delay
        self.kinds = frozenset(kinds) if kinds is not None else None
        #: (sender, recipient) -> channel is in the BAD state.
        self._bad: dict[tuple[str, str], bool] = {}
        self.bursts = 0
        self.messages_lost = 0
        self.retries_used = 0
        self.bounced = 0

    def on_send(self, message: Message, verdict: Verdict) -> None:
        if self.kinds is not None and message.kind not in self.kinds:
            return
        rng = self.draw(message)
        edge = (message.sender, message.recipient)
        bad = self._bad.get(edge, False)
        if bad:
            if rng.random() < self.p_recover:
                bad = False
        elif rng.random() < self.p_bad:
            bad = True
            self.bursts += 1
        self._bad[edge] = bad
        probability = self.loss_bad if bad else self.loss_good
        if probability <= 0.0:
            return
        attempts = 0
        while attempts <= self.retries and rng.random() < probability:
            attempts += 1
        if attempts == 0:
            return
        self.messages_lost += attempts
        if attempts > self.retries:
            verdict.bounce = True
            self.bounced += 1
        else:
            self.retries_used += attempts
            verdict.extra_delay += attempts * self.retry_delay

    def stats(self) -> dict:
        return {
            "bursts": self.bursts,
            "messages_lost": self.messages_lost,
            "retries_used": self.retries_used,
            "bounced": self.bounced,
        }

    def spec(self) -> dict:
        return {
            "model": self.name,
            "p_bad": self.p_bad,
            "p_recover": self.p_recover,
            "loss_good": self.loss_good,
            "loss_bad": self.loss_bad,
            "retries": self.retries,
            "retry_delay": self.retry_delay,
            "kinds": None if self.kinds is None else sorted(self.kinds),
        }


class LinkFlap(FaultModel):
    """One link alternating up/down, timed purely by message counts.

    After every ``down_every`` successful crossings (either direction)
    the link goes down for the next ``down_for`` send attempts.  Two
    outage semantics:

    * ``mode="delay"`` (default) — a *short* outage a reliable pipe
      rides out: each affected message is queued and arrives
      ``outage_delay`` late per remaining down-slot (TCP
      retransmission).  Absorbable — the run stays differential-equal
      to fault-free.
    * ``mode="bounce"`` — each attempt bounces to the sender, which
      sends it again; an outage that outlasts the sender's retry
      budget writes the peer off, links close with cause "failure"
      and the report goes ``partial``.

    No wall-clock anywhere, so the flap schedule is identical under
    any latency model.
    """

    name = "flap"

    def __init__(
        self,
        a: str,
        b: str,
        *,
        down_every: int = 5,
        down_for: int = 2,
        mode: str = "delay",
        outage_delay: float = 0.005,
    ) -> None:
        super().__init__()
        if mode not in ("delay", "bounce"):
            raise ValueError(f"unknown flap mode {mode!r}")
        self.pair = frozenset((a, b))
        self._ab = tuple(sorted((a, b)))
        self.down_every = down_every
        self.down_for = down_for
        self.mode = mode
        self.outage_delay = outage_delay
        self._crossed = 0
        self._down_left = 0
        self.flaps = 0
        self.bounced = 0
        self.delayed = 0

    def _on_link(self, message: Message) -> bool:
        return frozenset((message.sender, message.recipient)) == self.pair

    def on_send(self, message: Message, verdict: Verdict) -> None:
        if not self._on_link(message):
            return
        if self._down_left > 0:
            self._down_left -= 1
            if self.mode == "bounce":
                self.bounced += 1
                verdict.bounce = True
            else:
                self.delayed += 1
                verdict.extra_delay += self.outage_delay * (self._down_left + 1)
            return
        self._crossed += 1
        if self._crossed >= self.down_every:
            self._crossed = 0
            self._down_left = self.down_for
            self.flaps += 1

    def stats(self) -> dict:
        return {
            "flaps": self.flaps,
            "bounced": self.bounced,
            "delayed": self.delayed,
        }

    def spec(self) -> dict:
        return {
            "model": self.name,
            "a": self._ab[0],
            "b": self._ab[1],
            "down_every": self.down_every,
            "down_for": self.down_for,
            "mode": self.mode,
            "outage_delay": self.outage_delay,
        }


class Partition(FaultModel):
    """A full partition between named groups, healable.

    Until :meth:`sever` is called the model is inert.  Severing makes
    every cross-group message bounce and (with ``announce=True``, the
    default) delivers ``peer_down`` notices to both ends of every cut
    pair — the failure detector's timeout, compressed to an event.
    :meth:`heal` restores the cut; traffic flows again and the next
    update completes in full.
    """

    name = "partition"

    def __init__(
        self,
        groups: Iterable[Iterable[str]],
        *,
        announce: bool = True,
    ) -> None:
        super().__init__()
        self.groups = [tuple(group) for group in groups]
        self.announce = announce
        self._group_of: dict[str, int] = {}
        for index, group in enumerate(self.groups):
            for peer in group:
                self._group_of[peer] = index
        self.active = False
        self.bounced = 0

    def severs(self, a: str, b: str) -> bool:
        """Whether the active cut separates peers *a* and *b*."""
        if not self.active:
            return False
        ga = self._group_of.get(a)
        gb = self._group_of.get(b)
        return ga is not None and gb is not None and ga != gb

    def severed_pairs(self) -> frozenset:
        if not self.active:
            return frozenset()
        pairs = set()
        for index, group in enumerate(self.groups):
            for other in self.groups[index + 1:]:
                for a in group:
                    for b in other:
                        pairs.add(frozenset((a, b)))
        return frozenset(pairs)

    def sever(self) -> None:
        """Activate the cut (idempotent)."""
        if self.active:
            return
        self.active = True
        if self.announce:
            self.injector.announce_severed(self.severed_pairs())

    def heal(self) -> None:
        self.active = False

    def on_send(self, message: Message, verdict: Verdict) -> None:
        if self.severs(message.sender, message.recipient):
            self.bounced += 1
            verdict.bounce = True

    def stats(self) -> dict:
        return {"active": self.active, "bounced": self.bounced}


class ScheduledCrash(FaultModel):
    """Crash-and-rejoin as a first-class, serialisable fault model.

    Counts deliveries *to* ``victim`` (optionally only of ``kind``);
    after the ``after``-th one the ``crash`` action fires — on the
    in-process transport that is typically ``node.leave_network``, in a
    worker process it is ``os.kill(os.getpid(), SIGKILL)`` so the
    supervisor's restart path is exercised for real.  If
    ``rejoin_after`` is set, the model then counts *any* subsequent
    delivery anywhere (the victim is dead; nothing reaches it) and
    fires the ``rejoin`` action after that many — event-count timing,
    so the schedule is identical under any latency model.

    The actions are host-side callables and do not serialise;
    :meth:`spec` ships only the schedule, and each transport host wires
    its own crash/rejoin actions when rebuilding from the spec.
    """

    name = "crash"

    def __init__(
        self,
        victim: str,
        *,
        after: int = 1,
        kind: str | None = None,
        rejoin_after: int | None = None,
        crash: Callable[[], None] | None = None,
        rejoin: Callable[[], None] | None = None,
    ) -> None:
        super().__init__()
        self.victim = victim
        self.after = after
        self.kind = kind
        self.rejoin_after = rejoin_after
        self.crash = crash
        self.rejoin = rejoin
        self.crashed = False
        self.rejoined = False
        self._to_crash = after
        self._to_rejoin = rejoin_after

    def on_delivered(self, message: Message) -> None:
        if not self.crashed:
            if message.recipient != self.victim:
                return
            if self.kind is not None and message.kind != self.kind:
                return
            self._to_crash -= 1
            if self._to_crash <= 0:
                self.crashed = True
                if self.crash is not None:
                    self.crash()
            return
        if self.rejoined or self._to_rejoin is None:
            return
        self._to_rejoin -= 1
        if self._to_rejoin <= 0:
            self.rejoined = True
            if self.rejoin is not None:
                self.rejoin()

    def stats(self) -> dict:
        return {"crashed": self.crashed, "rejoined": self.rejoined}

    def spec(self) -> dict:
        return {
            "model": self.name,
            "victim": self.victim,
            "after": self.after,
            "kind": self.kind,
            "rejoin_after": self.rejoin_after,
        }


@dataclass
class _DeliveryHook:
    """One event-count trigger (see :meth:`FaultInjector.at_delivery`)."""

    action: Callable[[], None]
    kind: str | None = None
    sender: str | None = None
    recipient: str | None = None
    count: int = 1
    repeat: bool = False
    fired: int = 0
    done: bool = False
    _remaining: int = field(init=False)

    def __post_init__(self) -> None:
        self._remaining = self.count

    def matches(self, message: Message) -> bool:
        return (
            (self.kind is None or message.kind == self.kind)
            and (self.sender is None or message.sender == self.sender)
            and (self.recipient is None or message.recipient == self.recipient)
        )

    def observe(self, message: Message) -> bool:
        """Count one matching delivery; returns True when the action
        should fire now."""
        if self.done or not self.matches(message):
            return False
        self._remaining -= 1
        if self._remaining > 0:
            return False
        if self.repeat:
            self._remaining = self.count
        else:
            self.done = True
        self.fired += 1
        return True

    def cancel(self) -> None:
        self.done = True


def _derive_seed(seed: int, index: int, name: str) -> int:
    """Stable per-model seed derivation.  ``hash()`` of a string is
    randomized per process (PYTHONHASHSEED), which would make the same
    (seed, model stack) produce different fault traces across runs —
    CRC32 of the textual key keeps traces reproducible everywhere."""
    return zlib.crc32(f"{seed}:{index}:{name}".encode())


class FaultInjector:
    """Composes fault models and delivery hooks over one transport.

    Install with ``InProcessNetwork(faults=...)`` or
    ``transport.install_faults(...)`` (the latter is what scenario
    drivers use: build and :meth:`~repro.core.network.CoDBNetwork.start`
    the network fault-free, then turn the weather bad).  Usable with no
    models at all purely for :meth:`at_delivery` scheduling.
    """

    def __init__(self, *models: FaultModel, seed: int = 0) -> None:
        self.models = list(models)
        self.seed = seed
        self.transport = None
        self._hooks: list[_DeliveryHook] = []
        self.verdicts = 0
        self.bounces = 0
        self.copies_added = 0
        # TcpNetwork consults verdicts from node threads and
        # after_delivery from per-peer delivery threads; the simulator
        # is single-threaded and pays only an uncontended acquire.
        # Reentrant because a hook action may itself trigger sends.
        self._lock = threading.RLock()
        self.record_trace = False
        self.trace: list[tuple] = []
        self._trace_seq: dict[tuple[str, str, str], int] = {}
        for index, model in enumerate(self.models):
            stream = _derive_seed(seed, index, model.name)
            model.bind(self, random.Random(stream), stream_seed=stream)

    # -- composition ------------------------------------------------------

    def add_model(self, model: FaultModel) -> FaultModel:
        stream = _derive_seed(self.seed, len(self.models), model.name)
        model.bind(self, random.Random(stream), stream_seed=stream)
        self.models.append(model)
        return model

    def bind_transport(self, transport) -> None:
        self.transport = transport

    # -- send-side hook ---------------------------------------------------

    def verdict(self, message: Message) -> Verdict:
        """Combined verdict for one message about to be scheduled."""
        with self._lock:
            verdict = Verdict()
            for model in self.models:
                model.on_send(message, verdict)
            self.verdicts += 1
            if verdict.bounce:
                self.bounces += 1
            elif verdict.copies > 1:
                self.copies_added += verdict.copies - 1
            if self.record_trace:
                edge = (message.sender, message.recipient, message.kind)
                sequence = self._trace_seq.get(edge, 0)
                self._trace_seq[edge] = sequence + 1
                self.trace.append(
                    (
                        message.sender,
                        message.recipient,
                        message.kind,
                        sequence,
                        verdict.copies,
                        round(verdict.extra_delay, 9),
                        verdict.bounce,
                    )
                )
            return verdict

    def start_trace(self) -> None:
        """Begin recording one (edge, seq) -> verdict tuple per consulted
        message.  Traces on different transports compare *sorted*: wall
        time interleaves edges differently, but each edge's verdict
        sequence is deterministic."""
        with self._lock:
            self.record_trace = True
            self.trace = []
            self._trace_seq = {}

    # -- delivery-side hook ------------------------------------------------

    def after_delivery(self, message: Message) -> None:
        with self._lock:
            for model in self.models:
                model.on_delivered(message)
            fired = [hook for hook in self._hooks if hook.observe(message)]
            self._hooks = [h for h in self._hooks if not h.done]
        for hook in fired:
            hook.action()

    def at_delivery(
        self,
        action: Callable[[], None],
        *,
        kind: str | None = None,
        sender: str | None = None,
        recipient: str | None = None,
        count: int = 1,
        repeat: bool = False,
    ) -> _DeliveryHook:
        """Run *action* right after the *count*-th delivery matching
        the filters — the deterministic, latency-model-independent
        replacement for ``run_for``-based fault timing.  Returns the
        hook (``hook.cancel()`` disarms it).  A message an endpoint
        handles in runs (``query_result``) is delivered when it joins
        its run and ingested with the run, later in the same delivery:
        the action runs in between."""
        hook = _DeliveryHook(
            action=action,
            kind=kind,
            sender=sender,
            recipient=recipient,
            count=count,
            repeat=repeat,
        )
        self._hooks.append(hook)
        return hook

    # -- partitions --------------------------------------------------------

    def severed_pairs(self) -> frozenset:
        """Union of every active partition's cut pairs (what the
        network driver's reachability check reads)."""
        pairs: set = set()
        for model in self.models:
            if isinstance(model, Partition):
                pairs |= model.severed_pairs()
        return frozenset(pairs)

    def announce_severed(self, pairs: frozenset) -> None:
        """Play the failure detector for a fresh cut: both ends of
        every severed pair get a ``peer_down`` notice for the other."""
        if self.transport is None:
            return
        for pair in pairs:
            a, b = sorted(pair)
            self.transport.announce_unreachable(peer=a, to=b)
            self.transport.announce_unreachable(peer=b, to=a)

    # -- reporting ---------------------------------------------------------

    def totals(self) -> dict:
        """Per-model counters, for benchmark JSON."""
        totals: dict = {
            "verdicts": self.verdicts,
            "bounces": self.bounces,
            "copies_added": self.copies_added,
        }
        for model in self.models:
            stats = model.stats()
            if stats:
                totals[model.name] = stats
        return totals

    # -- serialisation -----------------------------------------------------

    def spec(self) -> dict:
        """Wire form of this injector: seed + per-model specs, in model
        order (order matters — stream seeds derive from the index).
        Raises :class:`ProtocolError` if any model is host-bound
        (e.g. :class:`Partition`, whose sever/heal are driver calls)."""
        return {
            "seed": self.seed,
            "models": [model.spec() for model in self.models],
        }


#: model name -> constructor keyword set, for spec round-tripping.
_MODEL_CLASSES: dict[str, type[FaultModel]] = {
    cls.name: cls
    for cls in (
        MessageLoss,
        Duplication,
        Reorder,
        ExtraDelay,
        LognormalDelay,
        GilbertElliott,
        LinkFlap,
        ScheduledCrash,
    )
}


def build_models(
    specs: Iterable[dict],
    *,
    crash_actions: dict[str, Callable[[], None]] | None = None,
    rejoin_actions: dict[str, Callable[[], None]] | None = None,
) -> list[FaultModel]:
    """Rebuild fault models from their :meth:`FaultModel.spec` forms.

    ``crash_actions`` / ``rejoin_actions`` map a :class:`ScheduledCrash`
    victim name to the host-side callable to fire — the schedule ships,
    the action stays local (a worker kills its own process; the
    simulator detaches the node).
    """
    models: list[FaultModel] = []
    for spec in specs:
        params = dict(spec)
        name = params.pop("model")
        cls = _MODEL_CLASSES.get(name)
        if cls is None:
            raise ProtocolError(f"unknown fault model {name!r}")
        if cls is MessageLoss:
            model: FaultModel = MessageLoss(
                params.pop("probability"), **params
            )
        elif cls is Duplication:
            model = Duplication(params.pop("probability"), **params)
        elif cls is Reorder:
            model = Reorder(params.pop("probability"), **params)
        elif cls is LinkFlap:
            model = LinkFlap(params.pop("a"), params.pop("b"), **params)
        elif cls is ScheduledCrash:
            victim = params.pop("victim")
            model = ScheduledCrash(
                victim,
                crash=(crash_actions or {}).get(victim),
                rejoin=(rejoin_actions or {}).get(victim),
                **params,
            )
        else:
            model = cls(**params)
        models.append(model)
    return models


def injector_from_spec(
    payload: dict,
    *,
    crash_actions: dict[str, Callable[[], None]] | None = None,
    rejoin_actions: dict[str, Callable[[], None]] | None = None,
) -> FaultInjector:
    """Build a :class:`FaultInjector` from :meth:`FaultInjector.spec`
    output.  Every host that rebuilds the same payload draws identical
    per-edge verdict streams — N worker processes each running a copy
    jointly behave like the simulator's single injector, because
    verdicts are consulted only at the sender's host and deliveries
    observed only at the recipient's."""
    return FaultInjector(
        *build_models(
            payload.get("models", ()),
            crash_actions=crash_actions,
            rejoin_actions=rejoin_actions,
        ),
        seed=payload.get("seed", 0),
    )

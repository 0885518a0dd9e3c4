"""The coDB node: Figure 1's P2P Layer + Wrapper + LDB, in one object.

A node owns:

* a **Wrapper** over its local database (memory, sqlite, or mediator);
* an **endpoint** on the transport (the JXTA Layer): every protocol
  message leaves through :meth:`~repro.p2p.endpoint.Endpoint.send`;
* a **link table** derived from its coordination rules — its
  acquaintances, the peers it has pipes with (§2-3), are exactly the
  remotes of those rules;
* the **DBM** role: the update and query engines, driven purely by
  message handlers, plus the termination detector they share;
* the **statistics module** of §4.

The "UI" operations of §2 — pose queries, start updates, change rules,
discover the topology, read reports — are the public methods.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from collections.abc import Iterable, Sequence

from repro.core.answercache import AnswerCache
from repro.core.links import LinkTable, memory_digest
from repro.core.push import PUSH_KIND, PushEngine
from repro.core.query import QUERY_KINDS, QueryEngine
from repro.core.requests import AdmissionControl, RequestHandle
from repro.core.rulefile import RuleFile
from repro.core.rules import CoordinationRule
from repro.core.statistics import NodeStatistics, UpdateReport
from repro.core.termination import DiffusingComputation
from repro.core.topology import TopologyDiscovery
from repro.core.update import UPDATE_KINDS, UpdateManager
from repro.errors import ProtocolError, RuleError
from repro.p2p.endpoint import Endpoint
from repro.p2p.ids import IdAuthority
from repro.p2p.messages import Message
from repro.p2p.transport import Transport
from repro.relational.conjunctive import ConjunctiveQuery
from repro.relational.database import Database
from repro.relational.nulls import NullFactory
from repro.relational.parser import parse_facts, parse_query
from repro.relational.schema import DatabaseSchema
from repro.relational.values import Row, Value
from repro.relational.wrapper import MemoryStore, Wrapper


@dataclass
class NodeConfig:
    """The settings a node's workload chooses.

    The paper's §3 engine itself is not configurable: dependent links
    are always re-evaluated on the delta ("substituting R by T'"), a
    session never resends what it already sent ("delete from Ri those
    tuples which have been already sent"), and a node whose database
    violates its key constraints serves empty results until repaired
    ("local inconsistency does not propagate", §1d).

    Attributes
    ----------
    subsumption_dedup:
        Drop an imported null-carrying tuple if an existing tuple
        subsumes it (restricted-chase remedy for non-weakly-acyclic
        rule sets).
    fixpoint_guard:
        Per-node bound on processed result messages per update; trips
        :class:`~repro.errors.FixpointGuardError` instead of diverging.
    batch_rows:
        Maximum frontier rows per ``query_result`` message; ``0`` means
        unbounded (one message per evaluation).  Bounds the §4 "volume
        of the data in each message" at the cost of more messages.
    push_on_insert:
        Propagate local inserts along already-activated incoming links
        immediately (continuous/subscription mode), without waiting
        for the next global update.
    max_active_sessions:
        Admission cap: the most sessions (global-update engines plus
        network-query participations) this node runs at once; ``0``
        means unbounded.  Excess requests wait in a FIFO admission
        queue drained in global id-seniority order — an update storm
        degrades into a pipeline instead of thrashing (see
        :mod:`repro.core.requests`).
    resend_suppression:
        Serve only what is new: an incoming link remembers what it has
        delivered (its lifetime ``pushed`` memory) and how far into its
        body relations that reaches (store watermarks), so a repeat
        update or network query evaluates just the rows
        inserted since and ships just the rows the importer lacks —
        its ``fired`` set would mint nothing for the rest anyway.  Rows
        taught by a session that ends in failure are forgotten again
        (see :meth:`repro.core.links.LinkSession.close_incoming`), so a
        healed partition still converges to ``complete``.  Off, every
        activation evaluates and ships in full (the differential
        tests' oracle).
    answer_cache:
        The read-side twin of ``resend_suppression``: keep a per-node
        LRU of query answers keyed on the query structure plus the
        epoch vector of its body relations
        (:mod:`repro.core.answercache`).  Epochs advance on every
        mutation, so a cached answer can never survive a write it
        depends on; staleness from *remote* writes arrives as taught
        rows or compact ``invalidation`` messages, either of which
        bumps the local epochs.  A clean network fill also stamps its
        body's relation set, and while no epoch of those relations
        moves, a miss on any query over them is answered from local
        data without propagating (a node whose store keeps its imports
        only).  ``submit_query(cache=False)`` bypasses the cache per
        call and always propagates.  The cache holds
        :data:`~repro.core.answercache.DEFAULT_CACHE_SIZE` entries.
    interest_lease_events:
        Event-count lease attached to CUP-style interest registrations
        (the read-side registration this node sends upstream).  The
        upstream side spends one unit per event it *suppresses* for us
        (a notified-deduped write, a withheld continuous push); at zero
        it drops the registration and sends a final unconditional
        invalidation, so an idle cached reader stops suppressing
        upstream pushes forever.  Refreshed by re-registration on the
        next cache fill.  ``0`` = no lease (registrations live until
        invalidated, the pre-lease behaviour).
    """

    subsumption_dedup: bool = False
    fixpoint_guard: int = 100_000
    batch_rows: int = 0
    push_on_insert: bool = False
    max_active_sessions: int = 0
    resend_suppression: bool = True
    answer_cache: bool = True
    interest_lease_events: int = 256


class CoDBNode:
    """One coDB peer.  See module docstring."""

    #: Retransmission attempts per bounced control message (ack /
    #: update_complete) before giving up and deferring to failure
    #: write-offs.  Bounded so a dead link can never livelock.
    RESEND_LIMIT = 5

    def __init__(
        self,
        name: str,
        schema: DatabaseSchema,
        transport: Transport,
        ids: IdAuthority,
        *,
        store: Wrapper | None = None,
        config: NodeConfig | None = None,
    ) -> None:
        if not name.isidentifier():
            raise ProtocolError(
                f"node name {name!r} must be an identifier (it doubles "
                "as the peer prefix in rule syntax)"
            )
        self.name = name
        self.config = config if config is not None else NodeConfig()
        #: Set when the node leaves the network (drivers skip it).
        self.detached = False
        #: Peers a failure detector reported down (``peer_down``); a
        #: bounced ack toward one of these is *not* retransmitted —
        #: its deficits were written off when the notice arrived.
        self._down_peers: set[str] = set()
        #: Bounded retransmission ledger for bounced control messages,
        #: keyed by (kind, peer, computation_id).
        self._resend_budget: dict[tuple[str, str, str], int] = {}
        #: Serialises this node's DBM: over TCP, the delivery thread
        #: runs handlers while the driver thread calls the public API
        #: (start updates/queries, local inserts).  One reentrant lock
        #: per node keeps the actor discipline without giving up
        #: cross-node parallelism.  Uncontended on the simulator.
        self._lock = threading.RLock()
        self.wrapper = store if store is not None else MemoryStore(schema)
        if self.wrapper.schema is not schema:
            raise RuleError(
                f"node {name!r}: the store was built for a different schema"
            )
        self.endpoint = Endpoint(name, transport, ids)
        #: (recipient, computation id) -> acknowledgements owed so far
        #: in the current delivery; they leave summed when it ends.
        #: Touched by the delivering thread only.
        self._owed_acks: dict[tuple[str, str], int] = {}
        #: Likewise peer -> {rule id: lease}, the cache registrations
        #: owed (see :meth:`register_cache_interest`).
        self._owed_registrations: dict[str, dict[str, int]] = {}
        self.endpoint.before_flush = self._flush_owed
        self.nulls = NullFactory(name)
        self.stats = NodeStatistics(name)
        # lifetime_totals() shows where this node's compiled plans ran.
        self.stats.dispatch_source = self.wrapper.dispatch_counts
        #: Epoch-keyed answer cache (read-side suppression twin); the
        #: epochs are maintained even when caching is disabled.
        self.cache = AnswerCache(enabled=self.config.answer_cache)
        #: CUP-style interest-protocol counters (cache counters live on
        #: the cache itself; these are the link-traffic side).
        self.invalidations_sent = 0
        self.invalidations_received = 0
        self.pushes_suppressed = 0
        self.invalidation_batches = 0
        self.invalidations_coalesced = 0
        self.interest_leases_expired = 0
        self.stats.cache_source = self.cache_counters
        self.links = LinkTable(name, [])
        self.termination = DiffusingComputation(
            self.send_ack, self._on_root_complete
        )
        #: Per-node admission layer shared by the update and query
        #: engines (``config.max_active_sessions``).
        self.admission = AdmissionControl(self)
        #: ``(kind, request_id)`` callbacks fired when a session this
        #: node roots (queries) or participates in (updates) finishes
        #: here; the network layer subscribes to complete its request
        #: handles event-driven.
        self.completion_listeners: list = []
        self.updates = UpdateManager(self)
        self.queries = QueryEngine(self)
        self.push = PushEngine(self)
        self.topology = TopologyDiscovery(self)
        self._wire_handlers()

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def _wire_handlers(self) -> None:
        engine_handlers = {
            "update_request": self.updates.on_update_request,
            "link_closed": self.updates.on_link_closed,
            "update_complete": self.updates.on_update_complete,
            "query_request": self.queries.on_query_request,
            "query_data": self.queries.on_query_data,
            "query_complete": self.queries.on_query_complete,
        }
        assert {*engine_handlers, "query_result"} == {*UPDATE_KINDS, *QUERY_KINDS}
        for kind, handler in engine_handlers.items():
            self.endpoint.on(kind, self._locked_noting_sender(handler))
        # Results are ingested a run at a time: one T per delivery (§3).
        self.endpoint.on_run(
            "query_result",
            self._locked_noting_run(self.updates.on_query_result),
        )
        self.endpoint.on(
            PUSH_KIND, self._locked_noting_sender(self.push.on_push_delta)
        )
        self.endpoint.on("ack", self._locked(self._on_ack))
        self.endpoint.on("rules_file", self._locked(self._on_rules_file))
        self.endpoint.on("stats_request", self._locked(self._on_stats_request))
        self.endpoint.on("undeliverable", self._locked(self._on_undeliverable))
        self.endpoint.on("peer_down", self._locked(self._on_peer_down))
        self.endpoint.on("invalidation", self._locked(self._on_invalidation))
        self.endpoint.on("rejoin", self._locked(self._on_rejoin))

    def _locked(self, handler):
        def wrapped(message: Message) -> None:
            with self._lock:
                handler(message)

        return wrapped

    def _locked_noting_sender(self, handler):
        """:meth:`_locked`, and hearing from a peer proves it reachable
        again (a healed partition): ack retransmission toward it must
        resume, and the answer cache floods conservatively."""

        def wrapped(message: Message) -> None:
            with self._lock:
                self._note_reachable(message.sender)
                handler(message)

        return wrapped

    def _locked_noting_run(self, handler):
        """:meth:`_locked_noting_sender` for a run handler."""

        def wrapped(messages: list[Message]) -> None:
            with self._lock:
                for message in messages:
                    self._note_reachable(message.sender)
                handler(messages)

        return wrapped

    def _note_reachable(self, peer: str) -> None:
        """First contact from a peer the failure detector had written
        off: a partition healed.  Invalidations toward us may have been
        lost while the cut stood, so the answer cache falls back to
        flood — every epoch advances, every entry drops — and the
        interest protocol resets to re-register from scratch."""
        if peer not in self._down_peers:
            return
        self._down_peers.discard(peer)
        self.cache.bump_all()
        for link in self.links.outgoing.values():
            if link.remote == peer:
                link.registered = False
        for link in self.links.incoming.values():
            if link.remote == peer:
                link.cache_interest = False
                link.notified.clear()

    # ------------------------------------------------------------------
    # Termination plumbing shared by both engines
    # ------------------------------------------------------------------

    def send_ack(
        self, recipient: str, computation_id: str, count: int = 1
    ) -> None:
        """Acknowledge *count* of *recipient*'s messages.  During a
        delivery the debt is only noted: everything owed to one peer
        for one computation leaves as a single counted ``ack`` when the
        delivery ends (always safe in Dijkstra–Scholten, and it keeps
        the number of acks a function of the bursts delivered)."""
        if self.endpoint.delivering():
            key = (recipient, computation_id)
            self._owed_acks[key] = self._owed_acks.get(key, 0) + count
        else:
            self._emit_ack(recipient, computation_id, count)

    def _flush_owed(self) -> None:
        """End of a delivery: pay what it ran up (it joins the bursts
        that are about to leave) — first the registrations no
        completion carried, then the acks."""
        if self._owed_registrations:
            registrations, self._owed_registrations = self._owed_registrations, {}
            for remote, owed_here in registrations.items():
                for rule_id, lease in owed_here.items():
                    self._send_registration(remote, rule_id, lease)
        owed, self._owed_acks = self._owed_acks, {}
        for (recipient, computation_id), count in owed.items():
            self._emit_ack(recipient, computation_id, count)

    def _emit_ack(self, recipient: str, computation_id: str, count: int) -> None:
        # ``count`` omitted means 1: a single ack is the frame it
        # always was.
        payload: dict = {"computation_id": computation_id}
        if count > 1:
            payload["count"] = count
        if self.queries.is_partial(computation_id):
            # An unclean query participation says so on every ack it
            # sends: the flag climbs the tree before the root completes.
            payload["partial"] = True
        # try_send: acking a peer that just left must not crash the
        # handler — the departed peer no longer counts deficits anyway.
        self.endpoint.try_send(recipient, "ack", payload)

    def _on_ack(self, message: Message) -> None:
        computation_id = message.payload["computation_id"]
        self._note_reachable(message.sender)
        if message.payload.get("partial"):
            self.queries.mark_partial(computation_id)
        self.termination.on_ack(
            computation_id, message.sender, int(message.payload.get("count", 1))
        )
        # An ack can be the event that disengages a failure-touched
        # update session whose links are already closed — the last
        # chance to self-finalize when the origin's completion flood
        # cannot reach us (no-op for healthy sessions and queries).
        self.updates.maybe_finalize_after_failure(computation_id)

    def _on_root_complete(self, computation_id: str) -> None:
        if computation_id.startswith("update"):
            self.updates.root_complete(computation_id)
        elif computation_id.startswith("query"):
            self.queries.root_complete(computation_id)
        else:  # pragma: no cover - ids come from IdAuthority
            raise ProtocolError(
                f"unrecognised computation id {computation_id!r}"
            )

    def _on_undeliverable(self, message: Message) -> None:
        """A message we sent bounced: the recipient left the network.

        The paper claims the algorithm terminates "even if nodes and
        coordination rules appear or disappear during the computation"
        (§1).  The transport returns undeliverable protocol messages to
        the sender; we drain the termination deficit they left behind
        and close the links toward the departed peer so closure
        cascades are not blocked forever.
        """
        original_kind = message.payload.get("kind", "")
        payload = message.payload.get("payload", {})
        dead_peer = message.payload.get("recipient", "")
        if original_kind == "ack":
            # A reliable wire retransmits acknowledgements: a
            # fault-injected bounce (loss, flap, fresh partition) would
            # otherwise leave the Dijkstra–Scholten deficit at the far
            # side unpaid forever.  A peer the failure detector already
            # reported down wrote those deficits off — no resend.  The
            # budget bounds retransmission so a dead link (or a stale
            # in-flight message racing the peer_down notice) cannot
            # livelock the simulator: once it runs out, the far side's
            # own failure handling covers the deficit.
            computation_id = payload.get("computation_id", "")
            if dead_peer not in self._down_peers and self._spend_resend(
                "ack", dead_peer, computation_id
            ):
                self.send_ack(
                    dead_peer, computation_id, int(payload.get("count", 1))
                )
            return
        if original_kind == "update_complete":
            # Same retransmission logic for the completion flood: a
            # lost update_complete would strand the subtree behind it.
            if dead_peer not in self._down_peers and self._spend_resend(
                "update_complete", dead_peer, payload.get("update_id", "")
            ):
                self.endpoint.try_send(dead_peer, "update_complete", payload)
            return
        if original_kind == "query_complete":
            # Nothing to retransmit (the peer's participation is only
            # left behind), but the registrations it carried are lost.
            self.registrations_lost(payload.get("register", ()))
            return
        if original_kind == "invalidation":
            # Conservative fallback either way: a bounced registration
            # means we are NOT registered upstream (re-register on the
            # next fill); a bounced data invalidation means the
            # importer may now be stale without knowing — drop its
            # registration so the next change floods rows instead.
            rule_id = payload.get("rule_id", "")
            if payload.get("op") == "register":
                self.registrations_lost([rule_id])
            else:
                incoming = self.links.incoming.get(rule_id)
                if incoming is not None:
                    incoming.cache_interest = False
                    incoming.notified.clear()
            return
        computation_id = payload.get("update_id") or payload.get("query_id")
        if original_kind in ("query_request", "query_data"):
            # Before the deficit drains: that may complete the root.
            self.queries.on_bounce(original_kind, payload)
        if original_kind in ("update_request", "query_result", "link_closed",
                             "query_request", "query_data"):
            if computation_id:
                self.termination.on_bounce(computation_id, dead_peer)
        if original_kind in ("update_request", "query_result", "link_closed"):
            self.updates.on_peer_unreachable(computation_id or "", dead_peer)

    def _spend_resend(
        self, kind: str, peer: str, computation_id: str
    ) -> bool:
        """Draw one unit of retransmission budget for a bounced control
        message.  Returns False once the budget for this (kind, peer,
        computation) is spent — the caller then drops the message and
        relies on failure write-offs for termination."""
        key = (kind, peer, computation_id)
        used = self._resend_budget.get(key, 0)
        if used >= self.RESEND_LIMIT:
            return False
        self._resend_budget[key] = used + 1
        return True

    def _on_peer_down(self, message: Message) -> None:
        """Failure-detector notification: a peer left the network."""
        dead_peer = message.payload["peer"]
        self._down_peers.add(dead_peer)
        # Queries first: a root whose deficit the write-off drains must
        # already know it is partial.
        self.queries.on_peer_down(dead_peer)
        self.termination.on_peer_down(dead_peer)
        self.updates.on_peer_down(dead_peer)
        self.admission.on_peer_down(dead_peer)
        self.cache_fault_fallback(dead_peer)

    # ------------------------------------------------------------------
    # Answer cache: epochs, interest registration, invalidation fan-out
    # ------------------------------------------------------------------

    def cache_fault_fallback(self, peer: str) -> None:
        """Conservative cache fallback on any reachability change
        involving *peer* (failure-detector notice, bounced session
        traffic): a recompute could legitimately answer differently
        than any cached fill — flood (drop everything) rather than
        risk serving an answer the lost peer contributed to, and reset
        the interest protocol on the links toward it."""
        self.cache.bump_all()
        for link in self.links.outgoing.values():
            if link.remote == peer:
                link.registered = False
        for link in self.links.incoming.values():
            if link.remote == peer:
                link.cache_interest = False
                link.notified.clear()

    def bump_epochs(self, relations: Iterable[str]) -> None:
        """Advance the answer-cache epoch of every relation in
        *relations* (dropping the cached answers stamped with them) and
        fan compact ``invalidation`` messages out to downstream links
        whose importer registered cache interest.

        This is THE mutation hook: every write path — local insert,
        ``load_facts``, update-session delta ingest, continuous-mode
        push ingest, query-time import — routes its changed relations
        through here (callers hold the node lock).  One call is one
        flush window: the per-link notices it produces are coalesced
        into a single message per importer, so a write burst that
        stales several rules toward one peer costs one message, not one
        per rule.  Counters ``invalidation_batches`` /
        ``invalidations_coalesced`` ride ``lifetime_totals()``.
        """
        changed = {relation for relation in relations if relation}
        if not changed:
            return
        self.cache.invalidate(changed)
        #: importer peer -> [(link, its stale head relations)]
        notices: dict[str, list] = {}
        for link in self.links.incoming_dependent_on_relations(changed):
            if not link.cache_interest:
                continue
            heads = link.rule.mapping.head_relations()
            if all(head in link.notified for head in heads):
                # The importer already knows it is stale; this event is
                # suppressed on its behalf — spend its lease.
                self._spend_interest_lease(link)
                continue
            link.notified.update(heads)
            notices.setdefault(link.remote, []).append((link, list(heads)))
        for remote, batch in notices.items():
            self._send_invalidations(remote, batch)

    def _send_invalidations(self, remote: str, batch: list) -> None:
        """Ship one flush window's notices toward one importer as a
        single grouped message."""
        payload = {
            "notices": [
                {"rule_id": link.rule_id, "relations": heads}
                for link, heads in batch
            ]
        }
        sent = self.endpoint.try_send(remote, "invalidation", payload)
        if sent is None:
            # The importer left: flood fallback on re-acquaintance.
            for link, _heads in batch:
                link.cache_interest = False
                link.notified.clear()
        else:
            self.invalidations_sent += len(batch)
            self.invalidation_batches += 1
            self.invalidations_coalesced += len(batch) - 1

    def _spend_interest_lease(self, link) -> None:
        """One suppressed event against *link*'s registration: draw on
        its lease, expiring the registration when it runs out.  A zero
        lease (no lease) never expires."""
        if link.lease_remaining <= 0:
            return
        link.lease_remaining -= 1
        if link.lease_remaining > 0:
            return
        # Lease exhausted: drop the interest and tell the importer with
        # a final *unconditional* invalidation (ignoring the notified
        # dedup) listing every head the link can write — the importer
        # bumps those epochs and clears its ``registered`` flag, so any
        # cached answer it still holds through this link dies and its
        # next fill re-registers with a fresh lease.
        link.cache_interest = False
        link.notified.clear()
        self.interest_leases_expired += 1
        heads = list(link.rule.mapping.head_relations())
        sent = self.endpoint.try_send(
            link.remote,
            "invalidation",
            {"rule_id": link.rule_id, "relations": heads},
        )
        if sent is not None:
            self.invalidations_sent += 1
            self.invalidation_batches += 1

    def register_cache_interest(self, relations: Iterable[str]) -> None:
        """Register CUP-style invalidation interest upstream on every
        outgoing link whose rule head feeds *relations* (the body of an
        answer this node just cached).  The upstream side will send a
        compact ``invalidation`` — instead of eager row pushes — when
        its data changes; this node pulls afresh on the cache miss.
        The registration carries this node's
        ``config.interest_lease_events`` as a renewable suppression
        lease (see :class:`NodeConfig`).

        During a delivery a registration is only noted, like an ack: a
        ``query_complete`` this delivery sends to that peer carries it
        (:meth:`take_registrations`), else it leaves at the delivery's
        end as a standalone ``invalidation op=register``."""
        targets = set(relations)
        lease = self.config.interest_lease_events
        delivering = self.endpoint.delivering()
        for link in self.links.outgoing.values():
            if link.registered:
                continue
            if not targets & set(link.rule.mapping.head_relations()):
                continue
            link.registered = True
            if delivering:
                owed = self._owed_registrations.setdefault(link.remote, {})
                owed[link.rule_id] = lease
            else:
                self._send_registration(link.remote, link.rule_id, lease)

    def _send_registration(self, remote: str, rule_id: str, lease: int) -> None:
        payload = {"op": "register", "rule_id": rule_id, "lease": lease}
        if self.endpoint.try_send(remote, "invalidation", payload) is None:
            self.registrations_lost([rule_id])

    def take_registrations(self, remote: str) -> dict[str, int] | None:
        """The registrations owed to *remote* in this delivery, for a
        ``query_complete`` toward it to carry."""
        if not self._owed_registrations or not self.endpoint.delivering():
            return None
        return self._owed_registrations.pop(remote, None)

    def registrations_lost(self, rule_ids: Iterable[str]) -> None:
        """Registrations that never arrived: a write upstream would
        reach us as nothing, so bump what those links feed — the next
        read propagates and its fill registers again."""
        heads: set[str] = set()
        for rule_id in rule_ids:
            link = self.links.outgoing.get(rule_id)
            if link is not None:
                link.registered = False
                heads.update(link.rule.mapping.head_relations())
        self.bump_epochs(heads)

    def apply_registration(self, rule_id: str, lease: int) -> None:
        """The importer on our incoming link *rule_id* serves cached
        answers derived through it: remember its interest (re-arming
        the per-registration notification dedup and its suppression
        *lease*).  If the link's body moved since a query last served
        it, a write raced the importer's fill — one the dedup may have
        suppressed — so the registration is answered with an immediate
        invalidation and goes no further (passed on, it can circle a
        rule cycle for ever): the importer drops what it cached through
        the link and registers afresh after its next fill."""
        link = self.links.incoming.get(rule_id)
        if link is None:
            return
        link.cache_interest = True
        link.notified.clear()
        link.lease_remaining = lease
        body = link.rule.mapping.body_relations()
        if link.served_at not in (None, self.cache.vector(body)):
            heads = list(link.rule.mapping.head_relations())
            link.notified.update(heads)
            self._send_invalidations(link.remote, [(link, heads)])
            return
        # Interest is transitive: the importer's cached answer depends
        # on whatever *we* would pull afresh to serve this link, so
        # register our own interest upstream on the rule's body
        # relations.  The per-link ``registered`` flag terminates
        # cycles.
        self.register_cache_interest(body)

    def _on_invalidation(self, message: Message) -> None:
        """Both halves of the interest protocol ride one kind.

        ``op="register"`` — a registration no ``query_complete``
        carried (see :meth:`register_cache_interest`); it is applied by
        :meth:`apply_registration`.  Anything else is a data
        invalidation *to* us — a flush window's notices under
        ``"notices"``, or the single notice an expired lease sends:
        data we imported through the named outgoing links went stale
        upstream — void the fills of our cached roots in flight that
        read them, bump the head relations' epochs (cascading to our
        own registrants, themselves batched because the cascade is one
        ``bump_epochs`` call) and drop our registrations so the next
        cache fill re-registers.
        """
        payload = message.payload
        if payload.get("op") == "register":
            self.apply_registration(
                payload.get("rule_id", ""),
                int(payload.get("lease", self.config.interest_lease_events)),
            )
            return
        notices = payload.get("notices")
        if notices is None:
            notices = [payload]
        schema = self.wrapper.schema
        stale: set[str] = set()
        for notice in notices:
            self.invalidations_received += 1
            outgoing = self.links.outgoing.get(notice.get("rule_id", ""))
            if outgoing is not None:
                outgoing.registered = False
            stale.update(
                relation
                for relation in notice.get("relations", ())
                if relation in schema
            )
        self.queries.void_fills(stale)
        self.bump_epochs(stale)

    def cache_counters(self) -> dict[str, int]:
        """Cache + interest-protocol lifetime counters, merged into
        ``NodeStatistics.lifetime_totals()`` via ``cache_source``."""
        counters = self.cache.counters()
        counters["invalidations_sent"] = self.invalidations_sent
        counters["invalidations_received"] = self.invalidations_received
        counters["pushes_suppressed"] = self.pushes_suppressed
        counters["invalidation_batches"] = self.invalidation_batches
        counters["invalidations_coalesced"] = self.invalidations_coalesced
        counters["interest_leases_expired"] = self.interest_leases_expired
        return counters

    # ------------------------------------------------------------------
    # Request completion signaling (the handle API's event source)
    # ------------------------------------------------------------------

    def notify_request_complete(self, kind: str, request_id: str) -> None:
        """A session finished at this node: tell listeners and wake
        every driver blocked on the transport's progress condition."""
        for listener in list(self.completion_listeners):
            listener(kind, request_id)
        self.endpoint.transport.notify_progress()

    def _register_handle(self, handle: RequestHandle) -> None:
        """Mark *handle* done the moment a completion signal makes its
        predicate true (exact completion order on the simulator)."""

        def on_complete(kind: str, request_id: str) -> None:
            if request_id == handle.request_id and handle.done():
                try:
                    self.completion_listeners.remove(on_complete)
                except ValueError:  # pragma: no cover - already removed
                    pass

        self.completion_listeners.append(on_complete)
        handle.add_done_callback(
            lambda _handle: on_complete("", _handle.request_id)
        )

    # ------------------------------------------------------------------
    # Rules management ("user can modify the set of coordination rules")
    # ------------------------------------------------------------------

    def set_rules(self, rules: Iterable[CoordinationRule]) -> None:
        """Install *rules* (those relevant to this node), re-wiring pipes.

        §4: on receiving a rules file "each peer looks for relevant
        coordination rules and creates necessary pipe connections ...
        it drops 'old' rules and pipes, and creates new ones, where
        necessary".  The new link table is that re-wiring: the peers
        this node floods to are its acquaintances, the remotes of the
        rules just installed.
        """
        relevant = [r for r in rules if self.name in (r.target, r.source)]
        for rule in relevant:
            self._validate_rule(rule)
        with self._lock:
            self.links = LinkTable(self.name, relevant)
            # Live update sessions keep running across a rewire: rebind
            # their link views to the new table (§4 dynamic topology).
            self.updates.on_rules_changed()
            # A rule change can shift the derivable content of ANY
            # relation — flood the answer cache rather than reason
            # about which heads moved (registrations died with the old
            # link objects; importers re-register on their next fill).
            self.cache.bump_all()

    def _validate_rule(self, rule: CoordinationRule) -> None:
        """Each side validates its own half of the mapping.

        The target owns the head (its schema), the source owns the
        body (its *exported* schema) — neither needs the other's full
        schema, which is what makes rule installation decentralised.
        """
        from repro.errors import ArityError

        schema = self.wrapper.schema
        if rule.target == self.name:
            for atom in rule.mapping.head:
                relation = schema[atom.relation]
                if atom.arity != relation.arity:
                    raise ArityError(atom.relation, relation.arity, atom.arity)
        if rule.source == self.name:
            for atom in rule.mapping.body:
                relation = schema[atom.relation]
                if atom.arity != relation.arity:
                    raise ArityError(atom.relation, relation.arity, atom.arity)
                if not relation.exported:
                    raise RuleError(
                        f"rule {rule.rule_id!r} reads {atom.relation!r}, "
                        f"which {self.name!r} does not export"
                    )

    def _on_rules_file(self, message: Message) -> None:
        rule_file = RuleFile.from_payload(message.payload)
        self.set_rules(rule_file.rules)

    # ------------------------------------------------------------------
    # Statistics service (§4)
    # ------------------------------------------------------------------

    def _on_stats_request(self, message: Message) -> None:
        reports = [
            report.to_payload() for report in self.stats.reports.values()
        ]
        self.endpoint.send(
            message.sender,
            "stats_response",
            {
                "node": self.name,
                "collection_id": message.payload.get("collection_id", ""),
                "reports": reports,
                "queries_answered": self.stats.queries_answered,
                "cache": self.cache_counters(),
            },
        )

    # ------------------------------------------------------------------
    # Local data management
    # ------------------------------------------------------------------

    def load_facts(self, facts: str | dict[str, list[Sequence[Value]]]) -> int:
        """Bulk-load ground facts, given as text or ``{relation: rows}``."""
        if isinstance(facts, str):
            facts = parse_facts(facts)
        with self._lock:
            loaded = self.wrapper.load({k: list(v) for k, v in facts.items()})
            if loaded:
                self.bump_epochs(facts)
            return loaded

    def insert(self, relation: str, row: Sequence[Value]) -> bool:
        """Insert one local row; pushes the delta downstream when the
        node runs in continuous mode (``config.push_on_insert``)."""
        with self._lock:
            new_rows = self.wrapper.insert_new(relation, [row])
            if new_rows:
                self.bump_epochs([relation])
                if self.config.push_on_insert:
                    self.push.push_deltas({relation: new_rows})
            return bool(new_rows)

    def push_deltas(self, deltas: dict[str, list]) -> int:
        """Explicitly push ``{relation: rows}`` along incoming links."""
        with self._lock:
            # The deltas describe rows already in the store (callers
            # insert first); bump anyway — an extra epoch advance is
            # harmless, a missed one would serve a stale cached answer.
            self.bump_epochs(deltas)
            return self.push.push_deltas(
                {rel: [tuple(r) for r in rows] for rel, rows in deltas.items()}
            )

    def rows(self, relation: str) -> list[Row]:
        with self._lock:
            return self.wrapper.rows(relation)

    def snapshot(self) -> dict[str, list[Row]]:
        with self._lock:
            return self.wrapper.snapshot()

    @property
    def database(self) -> Database | None:
        """The underlying in-memory database, when the store has one."""
        return getattr(self.wrapper, "database", None)

    # ------------------------------------------------------------------
    # Queries (the §2 UI: "users can commence network queries")
    # ------------------------------------------------------------------

    def query(
        self,
        query: str | ConjunctiveQuery,
        *,
        certain: bool = False,
        cache: bool | None = None,
    ) -> list[Row]:
        """Answer *query* from local data only.

        With ``certain=True``, answers containing marked nulls are
        dropped: for positive conjunctive queries over naive tables,
        the null-free answers are exactly the *certain answers* (true
        in every completion of the incomplete database).

        ``cache`` overrides ``config.answer_cache`` per call: local
        answers are served from the epoch-keyed cache while every body
        relation's epoch is unchanged (any local write, taught row or
        received invalidation bumps them).
        """
        if isinstance(query, str):
            query = parse_query(query)
        query.validate_against(self.wrapper.schema)
        use_cache = self.config.answer_cache if cache is None else cache
        with self._lock:
            answers = None
            fingerprint = "local:" + query.fingerprint
            if use_cache:
                answers = self.cache.get(fingerprint)
            if answers is None:
                answers = self.wrapper.evaluate_query(query)
                if use_cache:
                    self.cache.put(
                        fingerprint, query.body_relations(), answers
                    )
        if certain:
            from repro.relational.values import MarkedNull

            answers = [
                row
                for row in answers
                if not any(isinstance(v, MarkedNull) for v in row)
            ]
        return answers

    def submit_query_id(
        self,
        query: str | ConjunctiveQuery,
        *,
        cache: bool | None = None,
        tenant: str = "",
    ) -> str:
        """Submit a network query through the session registry and
        admission queue; returns the bare query id (the handle-free
        entry point the network layer and id-oriented callers use).

        ``cache`` overrides ``config.answer_cache`` per call; a cache
        hit completes the session immediately without propagating.
        *tenant* tags the submission in this node's statistics (the
        service gateway's per-tenant accounting)."""
        if isinstance(query, str):
            query = parse_query(query)
        with self._lock:
            self.stats.note_tenant_submission(tenant, "query")
            return self.queries.submit(query, cache=cache)

    def submit_network_query(
        self,
        query: str | ConjunctiveQuery,
        *,
        cache: bool | None = None,
    ) -> RequestHandle:
        """Pose a network query as a session; returns its handle.

        ``handle.result()`` drives the transport and returns the
        answer rows once the diffusing computation quiesces.
        """
        transport = self.endpoint.transport
        started_at = transport.now()
        messages_before = transport.stats.messages_sent
        bytes_before = transport.stats.bytes_sent
        query_id = self.submit_query_id(query, cache=cache)
        handle = RequestHandle(
            request_id=query_id,
            kind="query",
            origin=self.name,
            transport=transport,
            is_done=lambda: self.queries.is_done(query_id),
            assemble=lambda _handle: self.network_query_answer(query_id),
            try_cancel=lambda: self.cancel_query(query_id),
            started_at=started_at,
            messages_before=messages_before,
            bytes_before=bytes_before,
        )
        self._register_handle(handle)
        return handle

    def network_query_answer(self, query_id: str) -> list[Row] | None:
        """The answer of a network query rooted here, or ``None`` while
        it runs.  A returned answer is handed over: the query is
        released, and asking again raises ``ProtocolError``."""
        with self._lock:
            return self.queries.take(query_id)

    def cancel_query(self, query_id: str) -> bool:
        """Withdraw a query still queued behind admission."""
        with self._lock:
            return self.queries.cancel(query_id)

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def submit_update_id(self, *, tenant: str = "") -> str:
        """Submit a global update through the session registry and
        admission queue; returns the bare update id (the handle-free
        entry point the network layer and id-oriented callers use).
        *tenant* tags the submission in this node's statistics (the
        service gateway's per-tenant accounting)."""
        with self._lock:
            self.stats.note_tenant_submission(tenant, "update")
            return self.updates.submit()

    def submit_global_update(self) -> RequestHandle:
        """Begin a global update with this node as origin; returns its
        handle.

        Any number of global updates — from this origin or others —
        may be in flight concurrently; each runs as its own session
        (bounded by ``config.max_active_sessions`` when set).  The
        node-level handle completes when the update completes *at this
        node* (which, at the origin, is global quiescence), and its
        ``result()`` is this node's own
        :class:`~repro.core.statistics.UpdateReport`; the network-level
        ``CoDBNetwork.submit_global_update`` offers the aggregated
        outcome instead.
        """
        transport = self.endpoint.transport
        started_at = transport.now()
        messages_before = transport.stats.messages_sent
        bytes_before = transport.stats.bytes_sent
        update_id = self.submit_update_id()
        handle = RequestHandle(
            request_id=update_id,
            kind="update",
            origin=self.name,
            transport=transport,
            is_done=lambda: self.updates.is_done(update_id),
            assemble=lambda _handle: self.stats.report_for(update_id),
            try_cancel=lambda: self.cancel_update(update_id),
            started_at=started_at,
            messages_before=messages_before,
            bytes_before=bytes_before,
        )
        self._register_handle(handle)
        return handle

    def cancel_update(self, update_id: str) -> bool:
        """Withdraw an update still queued behind admission."""
        with self._lock:
            return self.updates.cancel(update_id)

    def update_done(self, update_id: str) -> bool:
        return self.updates.is_done(update_id)

    def update_report(self, update_id: str) -> UpdateReport | None:
        """The per-node global update processing report (§4)."""
        return self.stats.report_for(update_id)

    # ------------------------------------------------------------------
    # Crash-and-rejoin lifecycle
    # ------------------------------------------------------------------

    def _rejoin_digests(self) -> dict[str, list[int]]:
        """Per-outgoing-link fingerprints of the lifetime ``fired``
        memory, keyed by rule id — what the rejoin handshake ships so
        the exporter on the other side can decide whether its
        ``pushed`` dedup still matches what this importer remembers."""
        return {
            rule_id: list(memory_digest(link.fired))
            for rule_id, link in self.links.outgoing.items()
        }

    def rejoin(self) -> None:
        """Re-enter the network after a crash or departure.

        The node re-registers on the transport, conservatively resets
        everything reachability-sensitive (answer cache floods, interest
        registrations drop on both sides — exactly the partition-heal
        fallbacks), then announces itself to every acquaintance with a
        ``rejoin`` handshake carrying its lifetime-memory digests and
        epoch vector.  Each survivor resynchronises its send-dedup
        against the digests (see :meth:`_on_rejoin`) and answers with
        its own, so both directions of every shared rule end
        consistent.  Finally the admission queue is re-armed so work
        deferred during the outage drains.

        The restored ``fired`` memory is *never* cleared: it is what
        keeps re-shipped rows from re-minting nulls.  A stale ``pushed``
        memory only ever causes over-resending, which ``fired`` absorbs.
        """
        with self._lock:
            self.detached = False
            # Every acquaintance gets a fresh chance; a genuinely dead
            # peer will bounce again and be re-recorded.
            self._down_peers.clear()
            self.cache.bump_all()
            for link in self.links.outgoing.values():
                link.registered = False
            for link in self.links.incoming.values():
                link.cache_interest = False
                link.notified.clear()
            peers = self.links.acquaintances()
            payload = {
                "digests": self._rejoin_digests(),
                "epochs": dict(self.cache.epochs),
                "ack": False,
            }
        self.endpoint.reattach()
        for peer in peers:
            self.endpoint.try_send(peer, "rejoin", payload)
        with self._lock:
            self.admission.drain()

    def _on_rejoin(self, message: Message) -> None:
        """A peer re-entered the network (or acked our own rejoin).

        Symmetric resync: treat the peer as freshly reachable (flood
        the cache, reset interest both ways — it may have missed
        invalidations while gone), then compare each incoming link's
        lifetime ``pushed`` memory against the digest of the peer's
        restored ``fired`` memory for the same rule.  A match means the
        peer missed nothing this side's dedup would suppress — the
        warm-rejoin fast path.  Any mismatch clears ``pushed`` so the
        next update re-ships everything; the peer's ``fired`` set makes
        over-shipping harmless, while under-shipping would lose data.
        """
        peer = message.sender
        payload = message.payload
        self._down_peers.discard(peer)
        self.cache.bump_all()
        for link in self.links.outgoing.values():
            if link.remote == peer:
                link.registered = False
        digests = payload.get("digests", {})
        for link in self.links.incoming.values():
            if link.remote != peer:
                continue
            link.cache_interest = False
            link.notified.clear()
            link.lease_remaining = 0
            theirs = digests.get(link.rule_id)
            if theirs is None or tuple(theirs) != memory_digest(link.pushed):
                link.forget_delivered()
        self.admission.drain()
        if not payload.get("ack"):
            self.endpoint.try_send(
                peer,
                "rejoin",
                {
                    "digests": self._rejoin_digests(),
                    "epochs": dict(self.cache.epochs),
                    "ack": True,
                },
            )

    # ------------------------------------------------------------------

    def detach(self) -> None:
        """Crash-leave the network: no goodbyes, mail bounces.

        In-flight protocol messages addressed here are returned to
        their senders as ``undeliverable`` (simulated transport), which
        drains their termination deficits and closes their links toward
        this node — ongoing updates still terminate (§1's dynamic-
        network claim).
        """
        with self._lock:
            self.detached = True
        self.endpoint.detach()

    def leave_network(self) -> None:
        """Graceful leave: release engaged computations, then detach.

        Deferred parent acknowledgements are sent first so that any
        diffusing computation this node is part of can collapse without
        waiting for bounces.
        """
        with self._lock:
            self.detached = True
            self.termination.abandon_all()
        self.endpoint.detach()

    def __repr__(self) -> str:
        return (
            f"<CoDBNode {self.name} relations={self.wrapper.schema.relation_names} "
            f"out={len(self.links.outgoing)} in={len(self.links.incoming)}>"
        )

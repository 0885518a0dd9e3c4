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

Every input to a node — a delivered burst (a bounce and a ``peer_down``
notice are bursts too), a public call — is one scope,
:meth:`CoDBNode.input`.  The scope holds the node's lock, and every
message the input emits (:meth:`CoDBNode.emit`) is collected in order
as a *draft*, without an id.  When the scope closes, one pass finishes
the list (:meth:`CoDBNode._finish`):

* a cache registration rides the next ``query_complete`` the input sent
  its peer, or leaves on its own (``invalidation`` ``op=register``);
* a participant the input left with no deficit disengages, and its
  tree ack rides the last result the input sent its parent
  (``"fin"``, with the count of results it covers, and ``"partial"``
  when its query participation is unclean,
  :mod:`repro.core.termination`), or leaves as a plain ``ack`` — which
  can finish an update session a failure touched, whose emissions join
  the list;
* the acknowledgements the input owes leave summed, one per peer and
  computation, last;
* every draft is stamped with its id, in order, and an update's
  request and result bytes are counted in its §4 report.

Then the list leaves, one burst per recipient in order of first
appearance, while the lock is still held (:meth:`CoDBNode._send`).  A
message sent again after a bounce keeps its id and is not touched.  So
what a node sends is a function of its inputs alone:
:meth:`CoDBNode.react` runs one burst and returns the finished list
instead of sending it.
"""

from __future__ import annotations

import logging
import threading
from dataclasses import dataclass
from collections.abc import Iterable, Sequence

from repro.core.answercache import AnswerCache
from repro.core.links import LinkTable, memory_digest
from repro.core.query import QUERY_KINDS, QueryEngine
from repro.core.requests import AdmissionControl, RequestHandle
from repro.core.rulefile import RuleFile
from repro.core.rules import CoordinationRule
from repro.core.statistics import NodeStatistics, UpdateReport
from repro.core.termination import DiffusingComputation, coverage, read_count
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

log = logging.getLogger(__name__)

#: The kinds a peer sends in its own name: their delivery proves the
#: sender reachable (:meth:`CoDBNode._heard`).
_FROM_PEER = frozenset({*UPDATE_KINDS, *QUERY_KINDS, "invalidation", "ack"})


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
        (a notified-deduped write); at zero it drops the registration
        and sends a final unconditional invalidation, so an idle cached
        reader does not hold its registration upstream forever.
        Refreshed by re-registration on the next cache fill.  ``0`` =
        no lease (registrations live until invalidated, the pre-lease
        behaviour).
    """

    subsumption_dedup: bool = False
    fixpoint_guard: int = 100_000
    batch_rows: int = 0
    max_active_sessions: int = 0
    resend_suppression: bool = True
    answer_cache: bool = True
    interest_lease_events: int = 256


class CoDBNode:
    """One coDB peer.  See module docstring."""

    #: Retries a peer's bounced messages of one computation get, of any
    #: kind, before the peer is written off (:meth:`_on_undeliverable`);
    #: any delivery from the peer refills them, and they go with the
    #: computation when it ends here.  Bounded so a dead link can never
    #: livelock.
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
        #: Peers written off (:meth:`_on_peer_down`) and not heard from
        #: since; a message bounced toward one is not sent again.
        self._down_peers: set[str] = set()
        #: peer -> computation id -> retries its bounced messages of
        #: that computation used since its last delivery here (``""``
        #: for messages of none); empty while nothing bounces.
        self._resends: dict[str, dict[str, int]] = {}
        #: Peers whose retry budget we spent: we wrote them off, and
        #: tell them again at their first contact.
        self._spent: set[str] = set()
        #: Serialises this node's DBM: over TCP, the delivery thread
        #: runs handlers while the driver thread calls the public API
        #: (start updates/queries, local inserts).  One reentrant lock
        #: per node keeps the actor discipline without giving up
        #: cross-node parallelism.  Uncontended on the simulator.  Held
        #: for the whole of an input (:meth:`input`).
        self._lock = threading.RLock()
        #: Inputs open on the thread that holds the lock: one nested in
        #: another (a handler that calls a public method) joins it.
        self._inputs = 0
        self._scope = _Input(self)
        #: What the open input has emitted so far, in order.
        self.emitted: list[Message] = []
        self.wrapper = store if store is not None else MemoryStore(schema)
        if self.wrapper.schema is not schema:
            raise RuleError(
                f"node {name!r}: the store was built for a different schema"
            )
        self.endpoint = Endpoint(
            name, transport, ids, scope=self.input, heard=self._heard
        )
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
        self.topology = TopologyDiscovery(self)
        self._wire_handlers()

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def _wire_handlers(self) -> None:
        engine_handlers = {
            "update_request": self.updates.on_update_request,
            "update_complete": self.updates.on_update_complete,
            "query_request": self.queries.on_query_request,
            "query_data": self.queries.on_query_data,
            "query_complete": self.queries.on_query_complete,
        }
        assert {*engine_handlers, "query_result"} == {*UPDATE_KINDS, *QUERY_KINDS}
        for kind, handler in engine_handlers.items():
            self.endpoint.on(kind, handler)
        # Results are ingested a run at a time: one T per delivery (§3).
        self.endpoint.on_run("query_result", self.updates.on_query_result)
        self.endpoint.on("ack", self._on_ack)
        self.endpoint.on("rules_file", self._on_rules_file)
        self.endpoint.on("stats_request", self._on_stats_request)
        self.endpoint.on("undeliverable", self._on_undeliverable)
        self.endpoint.on(
            "peer_down", lambda message: self._on_peer_down(message.payload["peer"])
        )
        self.endpoint.on("invalidation", self._on_invalidation)
        self.endpoint.on("rejoin", self._on_rejoin)

    def _heard(self, message: Message) -> None:
        """A message reached this node's input: one a peer sent in its
        own name proves that peer reachable (:meth:`_note_reachable`).
        A transport notice names the peer it is about as its sender,
        and a ``rejoin`` settles reachability itself."""
        if message.kind in _FROM_PEER:
            self._note_reachable(message.sender)

    def _note_reachable(self, peer: str) -> None:
        """A delivery from *peer* refills its retry budget.  First
        contact from a peer written off: a partition healed.
        Invalidations toward us may have been lost while the cut stood,
        so the answer cache falls back to flood — every epoch advances,
        every entry drops — and the interest protocol resets to
        re-register from scratch, on both sides when it was our budget
        that wrote the peer off: its notice may have been lost, so a
        plain rejoin handshake resets the peer's side too."""
        if self._resends:
            self._resends.pop(peer, None)
        if peer in self._spent:
            self._spent.discard(peer)
            self.emit(peer, "rejoin", self._rejoin_payload(ack=False))
        if peer in self._down_peers:
            self._down_peers.discard(peer)
            self.cache_fault_fallback(peer)

    # ------------------------------------------------------------------
    # Inputs: what one input emits, finished in one pass
    # ------------------------------------------------------------------

    def input(self) -> "_Input":
        """The scope of one input to this node (module docstring): the
        transport enters it around each delivered burst, and every
        public call that may send runs inside it."""
        return self._scope

    def react(self, burst: Iterable[Message]) -> list[Message]:
        """Handle *burst* as one input, as a delivery would, and return
        what it emits — finished and stamped, in order — instead of
        sending it: the node core as a function of its inputs."""
        scope = _Input(self, keep=True)
        with scope:
            if self._inputs > 1:
                raise ProtocolError(f"{self.name}: react inside an open input")
            for message in burst:
                self.endpoint._dispatch(message)
        return scope.effects

    def emit(self, recipient: str, kind: str, payload: dict) -> Message:
        """Collect one message in the open input; it leaves, stamped,
        when the input closes.  Returns the draft."""
        if not self._inputs:
            raise ProtocolError(f"{self.name}: {kind} sent outside an input")
        message = Message(kind, self.name, recipient, payload)
        self.emitted.append(message)
        return message

    def send_ack(
        self, recipient: str, computation_id: str, count: int = 1, *, covers: int = 0
    ) -> None:
        """Acknowledge *count* of *recipient*'s messages; with *covers*,
        one of them is this node's tree ack, covering that many results.
        The debt is only noted in the open input: everything it owes one
        peer for one computation leaves as a single counted ``ack`` when
        it closes (always safe in Dijkstra–Scholten, and it keeps the
        number of acks a function of the bursts delivered)."""
        payload = {"computation_id": computation_id, "count": count}
        if covers:
            payload["covers"] = covers
        self.emit(recipient, "ack", payload)

    def _finish(self) -> list[Message]:
        """The one pass over what the open input emitted (module
        docstring); returns the list ready to leave.  A plain tree ack,
        and what a failure-touched update session that a tree ack
        finishes emits, are taken in turn, so the acks still leave
        last."""
        batch, self.emitted = self.emitted, []
        finished: list[Message] = []
        #: (peer, computation id) -> [acks owed, results the tree ack
        #: among them covers]; peer -> {rule id: lease}.
        acks: dict[tuple[str, str], list[int]] = {}
        registrations: dict[str, dict[str, int]] = {}
        #: computation id -> the last covered result sent for it.
        last: dict[str, Message] = {}
        while True:
            for message in batch:
                # A message with an id was sent before and bounced: it
                # goes again as it was.
                kind, payload = message.kind, message.payload
                if not message.message_id:
                    if kind == "ack":
                        key = (message.recipient, payload["computation_id"])
                        owed = acks.setdefault(key, [0, 0])
                        owed[0] += payload["count"]
                        owed[1] = payload.get("covers", owed[1])
                        continue
                    if kind == "invalidation" and payload.get("op") == "register":
                        owed = registrations.setdefault(message.recipient, {})
                        owed[payload["rule_id"]] = payload["lease"]
                        continue
                    if kind == "query_complete":
                        carried = registrations.pop(message.recipient, None)
                        if carried:
                            payload["register"] = carried
                    elif kind == "query_result" and "ack" not in payload:
                        last[payload["update_id"]] = message
                    elif kind == "query_data" and "ack" not in payload:
                        last[payload["query_id"]] = message
                finished.append(message)
            for remote, owed in registrations.items():
                for rule_id, lease in owed.items():
                    finished.append(Message("invalidation", self.name, remote, {
                        "op": "register", "rule_id": rule_id, "lease": lease,
                    }))
            registrations.clear()
            for computation_id, parent, covers in self.termination.disengage_quiet():
                message = last.get(computation_id)
                if message is not None and message.recipient == parent:
                    # The tree ack rides the last covered result; its
                    # count is left out when that result is all it covers.
                    message.payload["fin"] = True
                    if covers != 1:
                        message.payload["covers"] = covers
                    if self.queries.is_partial(computation_id):
                        message.payload["partial"] = True
                elif parent is not None:
                    self.send_ack(parent, computation_id, covers=covers)
                self.updates.maybe_finalize_after_failure(computation_id)
            if not self.emitted:
                break
            batch, self.emitted = self.emitted, []
        for (recipient, computation_id), (count, covers) in acks.items():
            # ``count`` omitted means 1 and ``covers`` 0: a single ack
            # is the frame it always was.  An unclean query
            # participation says so on every ack it sends: the flag
            # climbs the tree before the root completes.
            payload: dict = {"computation_id": computation_id}
            if count > 1:
                payload["count"] = count
            if covers:
                payload["covers"] = covers
            if self.queries.is_partial(computation_id):
                payload["partial"] = True
            finished.append(Message("ack", self.name, recipient, payload))
        message_id = self.endpoint.ids.message_id
        for message in finished:
            if message.message_id:
                continue
            message.stamp(message_id())
            if message.kind in ("update_request", "query_result"):
                report = self.stats.report_for(message.payload["update_id"])
                if report is not None:
                    report.bytes_sent += message.size_bytes()
        return finished

    def _send(self, messages: list[Message]) -> None:
        """The one place this node's messages leave: one burst per
        recipient, in order of first appearance."""
        bursts: dict[str, list[Message]] = {}
        for message in messages:
            bursts.setdefault(message.recipient, []).append(message)
        for burst in bursts.values():
            self.endpoint.send_burst(burst)

    def drop_unread(self, message: Message, computation_id: str) -> None:
        """Settle an engaging *message* dropped unread (its computation
        is over here, or never started): ack it so its sender's deficit
        drains — unless it is a covered result, which is owed nothing:
        it counts as processed toward its sender's tree ack, and a
        ``fin`` one drains the edge it closes."""
        covered, covers = coverage(message.payload)
        if covered and message.kind in ("query_result", "query_data"):
            self.termination.on_covered(computation_id, message.sender, covers)
        else:
            self.send_ack(message.sender, computation_id)

    def _on_ack(self, message: Message) -> None:
        payload = message.payload
        computation_id = payload["computation_id"]
        count = read_count(payload, "count", 1)
        covers = read_count(payload, "covers", 0)
        if payload.get("partial"):
            self.queries.mark_partial(computation_id)
        self.termination.on_ack(computation_id, message.sender, count, covers)
        # An ack can drain the deficit of a failure-touched update
        # session that is disengaged and whose links are already closed
        # — the last chance to self-finalize when the origin's
        # completion flood cannot reach us (no-op for healthy sessions
        # and queries; an engaged one the ack leaves quiet is finalized
        # as the input closes, in ``_finish``).
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
        """A message we sent bounced: it did not arrive, which does not
        mean its recipient is gone (§1: the algorithm terminates "even
        if nodes and coordination rules appear or disappear during the
        computation").  Send it again under its own id, whatever its
        kind, while the recipient's retry budget for the message's
        computation lasts; once it is spent, write the peer off
        (:meth:`_on_peer_down`) and tell it, so it writes us off in turn
        (:meth:`_on_rejoin`).  A bounce toward a peer already written
        off writes its deficit off."""
        bounced = message.payload
        peer, kind, payload = bounced["recipient"], bounced["kind"], bounced["payload"]
        if peer not in self._down_peers:
            budgets = self._resends.setdefault(peer, {})
            computation_id = (
                payload.get("update_id")
                or payload.get("query_id")
                or payload.get("computation_id", "")
            )
            spent = budgets.get(computation_id, 0)
            if spent < self.RESEND_LIMIT:
                budgets[computation_id] = spent + 1
                self.stats.messages_resent += 1
                self.emitted.append(Message(
                    kind, self.name, peer, payload, bounced["message_id"]
                ))
                return
            self._resends.pop(peer)
            self._spent.add(peer)
            self.stats.peers_written_off += 1
            log.warning("%s writes %s off: its %s bounced %d times",
                        self.name, peer, kind, spent + 1)
            self.emit(
                peer, "rejoin", self._rejoin_payload(ack=False, written_off=True)
            )
        self._on_peer_down(peer)

    def computation_over(self, computation_id: str) -> None:
        """*computation_id* ended here: the retry budgets its bounces
        used go with it."""
        for budgets in self._resends.values():
            budgets.pop(computation_id, None)

    def _on_peer_down(self, dead_peer: str) -> None:
        """Write *dead_peer* off: a failure detector reported it down,
        its retry budget is spent, or it wrote us off.  The one place
        the engines learn that a peer is gone.  Writing off a peer
        already written off (a bounce toward it) drains what was sent
        it since, but floods the answer cache only the first time:
        nothing has reached us from the peer in between."""
        repeat = dead_peer in self._down_peers
        self._down_peers.add(dead_peer)
        # The sessions first: a root whose deficit the write-off drains
        # must already know it is partial, and name the peer.  Those
        # the drain leaves closed and disengaged finalize after it.
        self.queries.on_peer_down(dead_peer)
        self.updates.on_peer_down(dead_peer)
        self.termination.on_peer_down(dead_peer)
        for update_id in list(self.updates.sessions):
            self.updates.maybe_finalize_after_failure(update_id)
        self.admission.on_peer_down(dead_peer)
        self.cache_fault_fallback(dead_peer, flood=not repeat)

    # ------------------------------------------------------------------
    # Answer cache: epochs, interest registration, invalidation fan-out
    # ------------------------------------------------------------------

    def cache_fault_fallback(self, peer: str, *, flood: bool = True) -> None:
        """Conservative cache fallback on any reachability change
        involving *peer* (a write-off, a healed partition, a rejoin, a
        session's link closed by failure): a recompute could
        legitimately answer differently than any cached fill — flood
        (drop everything) rather than risk serving an answer the lost
        peer contributed to, and reset the interest protocol on the
        links toward it.  Without *flood* only the reset."""
        if flood:
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
        ``load_facts``, update-session delta ingest, query-time
        import — routes its changed relations through here (callers
        hold the node lock).  One call is one
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
        self.emit(remote, "invalidation", payload)
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
        self._send_invalidations(link.remote, [(link, heads)])

    def register_cache_interest(self, relations: Iterable[str]) -> None:
        """Register CUP-style invalidation interest upstream on every
        outgoing link whose rule head feeds *relations* (the body of an
        answer this node just cached).  The upstream side will send a
        compact ``invalidation`` when its data changes; this node pulls
        afresh on the cache miss.  The registration carries this node's
        ``config.interest_lease_events`` as a renewable suppression
        lease (see :class:`NodeConfig`).

        A registration is only noted in the open input, like an ack: a
        ``query_complete`` the input sends that peer after it carries
        it, else it leaves on its own when the input closes, as an
        ``invalidation`` ``op=register`` (:meth:`_finish`)."""
        targets = set(relations)
        lease = self.config.interest_lease_events
        for link in self.links.outgoing.values():
            if link.registered:
                continue
            if not targets & set(link.rule.mapping.head_relations()):
                continue
            link.registered = True
            self.emit(link.remote, "invalidation", {
                "op": "register", "rule_id": link.rule_id, "lease": lease,
            })

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
        invalidation *to* us — a flush window's notices (an expired
        lease sends one) under ``"notices"``: data we imported through
        the named outgoing links went stale upstream — void the fills
        of our cached roots in flight that read them, bump the head
        relations' epochs (cascading to our own registrants, themselves
        batched because the cascade is one ``bump_epochs`` call) and
        drop our registrations so the next cache fill re-registers.
        """
        payload = message.payload
        if payload.get("op") == "register":
            self.apply_registration(
                payload.get("rule_id", ""),
                int(payload.get("lease", self.config.interest_lease_events)),
            )
            return
        schema = self.wrapper.schema
        stale: set[str] = set()
        for notice in payload["notices"]:
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
        with self.input():
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
        self.emit(
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
        with self.input():
            loaded = self.wrapper.load({k: list(v) for k, v in facts.items()})
            if loaded:
                self.bump_epochs(facts)
            return loaded

    def insert(self, relation: str, row: Sequence[Value]) -> bool:
        """Insert one local row.  It reaches downstream peers with the
        next global update or network query that reads it; importers
        holding cached answers over it are sent an invalidation."""
        with self.input():
            new_rows = self.wrapper.insert_new(relation, [row])
            if new_rows:
                self.bump_epochs([relation])
            return bool(new_rows)

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
        with self.input():
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
        with self.input():
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
        with self.input():
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
        with self.input():
            return self.updates.cancel(update_id)

    def update_done(self, update_id: str) -> bool:
        return self.updates.is_done(update_id)

    def update_report(self, update_id: str) -> UpdateReport | None:
        """The per-node global update processing report (§4)."""
        return self.stats.report_for(update_id)

    # ------------------------------------------------------------------
    # Crash-and-rejoin lifecycle
    # ------------------------------------------------------------------

    def _rejoin_payload(self, *, ack: bool, written_off: bool = False) -> dict:
        """The rejoin handshake: per-outgoing-link fingerprints of the
        lifetime ``fired`` memory, keyed by rule id, so the exporter on
        the other side can decide whether its ``pushed`` dedup still
        matches what this importer remembers; whether this answers the
        peer's own handshake; and whether we wrote the peer off — what
        :meth:`_on_rejoin` reads, and nothing else."""
        payload = {
            "digests": {
                rule_id: list(memory_digest(link.fired))
                for rule_id, link in self.links.outgoing.items()
            },
            "ack": ack,
        }
        if written_off:
            payload["written_off"] = True
        return payload

    def rejoin(self) -> None:
        """Re-enter the network after a crash or departure.

        The node re-registers on the transport, conservatively resets
        everything reachability-sensitive (answer cache floods, interest
        registrations drop on both sides — exactly the partition-heal
        fallbacks), then announces itself to every acquaintance with a
        ``rejoin`` handshake carrying its lifetime-memory digests.
        Each survivor resynchronises its send-dedup
        against the digests (see :meth:`_on_rejoin`) and answers with
        its own, so both directions of every shared rule end
        consistent.  Finally the admission queue is re-armed so work
        deferred during the outage drains.

        The restored ``fired`` memory is *never* cleared: it is what
        keeps re-shipped rows from re-minting nulls.  A stale ``pushed``
        memory only ever causes over-resending, which ``fired`` absorbs.
        """
        with self.input():
            self.detached = False
            # Every acquaintance gets a fresh chance; a genuinely dead
            # peer will bounce again and be re-recorded.
            self._down_peers.clear()
            self._resends.clear()
            self._spent.clear()
            self.cache.bump_all()
            for link in self.links.outgoing.values():
                link.registered = False
            for link in self.links.incoming.values():
                link.cache_interest = False
                link.notified.clear()
            self.endpoint.reattach()
            payload = self._rejoin_payload(ack=False)
            for peer in self.links.acquaintances():
                self.emit(peer, "rejoin", payload)
            self.admission.drain()

    def _on_rejoin(self, message: Message) -> None:
        """A peer re-entered the network, wrote us off, or acked our own
        rejoin.

        A peer that wrote us off (``"written_off"``, its retry budget
        spent, see :meth:`_on_undeliverable`) wrote off with us what it
        owed us — acks, a tree ack, closures — so we write it off in
        turn (:meth:`_on_peer_down`): nothing here may wait for them.

        Then, as for any rejoin, a symmetric resync: treat the peer as
        freshly reachable (flood the cache unless that write-off just
        did, reset interest both ways — it may have missed
        invalidations while gone), then compare each
        incoming link's lifetime ``pushed`` memory against the digest of
        the peer's restored ``fired`` memory for the same rule.  A match
        means the peer missed nothing this side's dedup would suppress —
        the warm-rejoin fast path.  Any mismatch clears ``pushed`` so
        the next update re-ships everything; the peer's ``fired`` set
        makes over-shipping harmless, while under-shipping would lose
        data.
        """
        peer = message.sender
        payload = message.payload
        # The write-off floods unless the peer was written off already.
        flooded = payload.get("written_off") and peer not in self._down_peers
        if payload.get("written_off"):
            self._on_peer_down(peer)
        self._resends.pop(peer, None)
        self._spent.discard(peer)
        self._down_peers.discard(peer)
        self.cache_fault_fallback(peer, flood=not flooded)
        digests = payload.get("digests", {})
        for link in self.links.incoming.values():
            if link.remote != peer:
                continue
            link.lease_remaining = 0
            theirs = digests.get(link.rule_id)
            if theirs is None or tuple(theirs) != memory_digest(link.pushed):
                link.forget_delivered()
        self.admission.drain()
        if not payload.get("ack"):
            self.emit(peer, "rejoin", self._rejoin_payload(ack=True))

    # ------------------------------------------------------------------

    def detach(self) -> None:
        """Crash-leave the network: no goodbyes, mail bounces.

        In-flight protocol messages addressed here are returned to
        their senders as ``undeliverable`` (simulated transport).  A
        sender that was told this node is down (``peer_down``) writes
        off the deficit each left at once; one that was not retries
        until its budget for this node is spent, then writes it off.
        Either way the write-off closes the senders' links toward this
        node, so ongoing updates still terminate (§1's dynamic-network
        claim).
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
        with self.input():
            self.detached = True
            for computation_id, parent, covers in self.termination.abandon_all():
                if parent is not None:
                    self.send_ack(parent, computation_id, covers=covers)
        self.endpoint.detach()

    def __repr__(self) -> str:
        return (
            f"<CoDBNode {self.name} relations={self.wrapper.schema.relation_names} "
            f"out={len(self.links.outgoing)} in={len(self.links.incoming)}>"
        )


class _Input:
    """Context manager behind :meth:`CoDBNode.input` (a class, not a
    generator: one is entered for every delivered burst).  With *keep*
    the finished list is kept in :attr:`effects` instead of sent."""

    __slots__ = ("node", "keep", "effects")

    def __init__(self, node: CoDBNode, *, keep: bool = False) -> None:
        self.node = node
        self.keep = keep
        self.effects: list[Message] = []

    def __enter__(self) -> None:
        node = self.node
        node._lock.acquire()
        node._inputs += 1

    def __exit__(self, *exc_info: object) -> None:
        node = self.node
        try:
            if node._inputs == 1:
                # The run the input was collecting is handled first, and
                # what was emitted leaves even when a handler raised.
                try:
                    node.endpoint.end_run()
                finally:
                    if node.emitted or node.termination.quiet:
                        effects = node._finish()
                        if self.keep:
                            self.effects = effects
                        else:
                            node._send(effects)
        finally:
            node._inputs -= 1
            if not node._inputs and node.emitted:  # the pass raised
                node.emitted = []
            node._lock.release()

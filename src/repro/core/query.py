"""Query-time distributed answering (§3, [Franconi et al., 2003]).

"Given a P2P database system, the answer to a local query may involve
data that is distributed in the network, thus requiring the
participation of all nodes at query time to propagate in the
direction of the query node the relevant data for the answer" (§1).

Mechanics, per §3: "When node gets a query request, it answers it
using local data immediately, and it forwards it through all outgoing
links.  Each query request is labelled by a sequence of IDs of nodes
it passed through.  A node does not propagate a query request, if its
ID is contained in the label of query request."

Our implementation follows that text with one pragmatic narrowing:
requests are only forwarded through outgoing links *relevant* to the
data being assembled (the link's head writes a relation some
activated rule's body reads — the same dependency relation the update
algorithm uses).  Forwarding through provably irrelevant links could
only import data the query cannot see.

Differences from the global update, both inherent to the paper's
design:

* propagation follows **simple paths** (the label cut), so on cyclic
  rule sets a network query computes the simple-path-bounded answer,
  whereas the global update runs the full fix-point — experiment E7
  exhibits the gap;
* fetched data *migrates* into the nodes on the way (the paper's
  data-migration role of coordination formulas): what a query imports
  stays stored, exactly as what an update imports does.

Because the data migrates, a link need not serve it twice.  Under
``NodeConfig.resend_suppression`` an activated incoming link evaluates
only the rows inserted since its last clean activation and ships only
rows its importer does not hold — the same lifetime ``pushed`` memory
and watermarks the global update uses (:mod:`repro.core.links`).  One
difference matters: a query does not carry another computation's rows
onward, so it may rely only on *settled* memory.  Keys an in-flight
update taught are shipped again, and a query's own shipments stay in
its participation until it ends cleanly — a participation that lost a
peer teaches nothing.

So §3's immediate local answer is mostly empty, and an activation
sends ``query_data`` only when it has rows: the ``query_request`` is
acked anyway.  (An update activation does the same until its link
closes; the closure then leaves on a result of no rows.)

Termination is again Dijkstra–Scholten, rooted at the querying node;
when the root detects quiescence it evaluates the query locally and
floods ``query_complete`` along the request tree for cleanup.  A
``query_data`` a participant ships its parent is covered by the
participant's tree ack, which rides the last of them (``"fin": true``;
:mod:`repro.core.termination`), so a propagating miss down a chain
whose tail alone has rows to ship sends no ``ack`` at all.  A
participation that lost a shipment says so on every ack it sends, and
on a ``fin`` shipment (``"partial": true``, when unclean only); its
parent's deferred ack leaves only after that ack drained its deficit,
so the root knows before it completes.  A flood that ends the query
early, while its sender still waits for an ack, says ``partial`` too:
a covered shipment on its way may be dropped unread.

A locally inconsistent node serves no rows — so it forwards no
request either — and relays nothing it imports (§1d, as for an
update): its participation is unclean, so no cache fills from it.

Because the data migrates, a miss need not propagate either.  A cached
query whose root ends clean fills the answer cache *and* stamps its
body's relation set (:meth:`repro.core.answercache.AnswerCache.fresh`):
the root then holds everything a diffusing computation over those
relations would import, and registered interest upstream turns any
later change into an invalidation that bumps an epoch.  The
registrations ride the completion flood (``"register"`` on
``query_complete``, added as the sender's input closes), each applied
before its receiver's own cleanup; one with no completion to ride
leaves standalone.  Until an epoch
moves, a miss on any query over the same relations is answered by
local evaluation, with no propagation at all — at a node whose store
keeps its imports (a mediator's does not).  A root that ended
unclean, or that an invalidation for its relations reached while it
ran, neither fills nor stamps.

A root is released when its answer is taken (:meth:`QueryEngine.take`)
and a participation at its cleanup; only the id of a finished
participation is kept, so a late message of the query is dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.links import (
    IncomingLink,
    activation_rows,
    frontier_rows,
    undelivered,
)
from repro.core.termination import coverage
from repro.errors import ProtocolError
from repro.p2p.messages import Message
from repro.relational.conjunctive import ConjunctiveQuery
from repro.relational.values import Row, decode_row, encode_row, row_key

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.node import CoDBNode

QUERY_KINDS = ("query_request", "query_data", "query_complete")


@dataclass
class QueryParticipation:
    """One node's volatile state for one network query."""

    query_id: str
    origin: str
    #: Incoming-link rule ids activated for this query, with sent-sets
    #: (frontier row keys — the engine's type-strict identity).  Merged
    #: into the links' lifetime ``pushed`` memory on a clean end.
    sent: dict[str, set] = field(default_factory=dict)
    #: rule id -> (the link activated, where — the *activated_at* of
    #: ``activation_rows``) for the links served from their send
    #: memory; committed to the link on a clean end.
    activated: dict[str, tuple[IncomingLink, tuple]] = field(default_factory=dict)
    #: No peer was written off and no partial ack came in while this
    #: ran: what it and the participations it engaged
    #: sent has arrived.
    clean: bool = True
    #: Outgoing-link rule ids requested, with received-sets (row keys).
    received: dict[str, set] = field(default_factory=dict)
    #: Neighbours we forwarded requests to (cleanup flood follows them).
    forwarded_to: list[str] = field(default_factory=list)
    #: The store broke a key constraint while this ran: it served and
    #: relayed nothing (§1d), so it is unclean too.
    quarantined: bool = False


@dataclass
class RootQuery:
    """Extra state on the querying node."""

    query: ConjunctiveQuery
    #: Answer-cache fingerprint to fill at completion (``None`` when
    #: this query is uncached — ``answer_cache`` off or ``cache=False``).
    cache_fill: str | None = None
    #: An invalidation for a body relation arrived while this ran: a
    #: write it may have been served without, so it must not fill.
    voided: bool = False


class QueryEngine:
    """Query-time answering for one node."""

    def __init__(self, node: "CoDBNode") -> None:
        self.node = node
        #: Live participations; ``finished`` keeps the ids of those
        #: cleaned up here, so late messages can be told from unknown.
        self.participations: dict[str, QueryParticipation] = {}
        self.finished: set[str] = set()
        #: Roots in flight, and answers completed but not yet taken.
        self.roots: dict[str, RootQuery] = {}
        self.answers: dict[str, list[Row]] = {}

    # ------------------------------------------------------------------
    # Root side
    # ------------------------------------------------------------------

    def submit(
        self,
        query: ConjunctiveQuery,
        *,
        cache: bool | None = None,
    ) -> str:
        """Pose *query* network-wide; returns the query id.

        The root query is a session like a global update: it holds
        per-query state (the :class:`RootQuery` plus this node's
        :class:`QueryParticipation`), counts against the node's
        admission cap, and completes event-driven — the answer becomes
        available via :meth:`take` once the diffusing computation
        quiesces.  Under admission pressure the root waits in the
        node's queue as a pending initiation (cancellable through its
        handle).

        ``cache`` overrides ``NodeConfig.answer_cache`` for this query
        (``None`` inherits it).  A cached answer with every stamped
        epoch intact is served immediately, with no propagation at
        all, and so is a miss while a clean network fill over the same
        body relations stands (see :meth:`_from_cache`).  Otherwise
        the full diffusing computation runs and fills the cache at
        completion.  ``cache=False`` always propagates: it is the
        differentials' oracle.
        """
        node = self.node
        query.validate_against(node.wrapper.schema)
        use_cache = node.config.answer_cache if cache is None else cache
        fingerprint = "network:" + query.fingerprint
        query_id = node.endpoint.ids.query_id()
        node.stats.network_queries_started += 1
        if use_cache:
            answer = self._from_cache(query, fingerprint)
            if answer is not None:
                self.answers[query_id] = answer
                node.notify_request_complete("query", query_id)
                return query_id
        root = RootQuery(query=query, cache_fill=fingerprint if use_cache else None)
        self.roots[query_id] = root
        if node.admission.try_enter(query_id, "query", initiation=True):
            self._start_root(query_id, query)
        else:
            node.admission.defer_initiation(
                query_id, "query", lambda: self._start_root(query_id, query)
            )
        return query_id

    def _from_cache(
        self, query: ConjunctiveQuery, fingerprint: str
    ) -> list[Row] | None:
        """A hit, or the local answer to a miss while a clean network
        fill over the same body relations stands (module docstring) at
        a node that keeps its imports.  That answer fills the cache; it
        still counts as a miss."""
        node = self.node
        hit = node.cache.get(fingerprint)
        if hit is not None:
            return list(hit)
        relations = query.body_relations()
        if not (node.wrapper.persistent and node.cache.fresh(relations)):
            return None
        answer = node.wrapper.evaluate_query(query)
        node.cache.put(fingerprint, relations, answer)
        node.cache.fresh_served += 1
        return answer

    def cancel(self, query_id: str) -> bool:
        """Withdraw *query_id* if it is still queued behind admission."""
        if not self.node.admission.cancel(query_id):
            return False
        self.roots.pop(query_id, None)
        return True

    def _start_root(self, query_id: str, query: ConjunctiveQuery) -> None:
        node = self.node
        node.termination.start_root(query_id)
        participation = self._participate(query_id, node.name)
        needed = set(query.body_relations())
        self._forward_requests(participation, needed, label=[node.name])
        node.termination.check_quiescence(query_id)

    def _participate(self, query_id: str, origin: str) -> QueryParticipation:
        participation = QueryParticipation(query_id=query_id, origin=origin)
        self.participations[query_id] = participation
        return participation

    def take(self, query_id: str) -> list[Row] | None:
        """The answer rows, or ``None`` while the query is in flight.
        A returned answer is handed over: the query is released."""
        answer = self.answers.pop(query_id, None)
        if answer is None and query_id not in self.roots:
            raise ProtocolError(f"unknown query {query_id!r}")
        return answer

    def is_done(self, query_id: str) -> bool:
        return query_id in self.answers

    def root_complete(self, query_id: str) -> None:
        """Quiescence detected: compute the answer, then clean up."""
        node = self.node
        root = self.roots.pop(query_id)
        participation = self.participations[query_id]
        answer = node.wrapper.evaluate_query(root.query)
        if root.cache_fill is not None:
            if participation.clean and not root.voided:
                # Fill under the epochs as they stand *after* this
                # query's imports (each ingest bumped them), stamp the
                # relation set fresh, and register interest upstream so
                # remote writes arrive as invalidations.
                relations = root.query.body_relations()
                node.cache.put(root.cache_fill, relations, answer, network=True)
                node.register_cache_interest(relations)
            else:
                node.cache.fills_skipped += 1
        self.answers[query_id] = answer
        self._cleanup(participation, forwarded_from=None)
        node.notify_request_complete("query", query_id)

    def void_fills(self, relations: set[str]) -> None:
        """An invalidation for *relations* arrived: no cached root in
        flight that reads one of them may fill, since it may have been
        served before the write."""
        for root in self.roots.values():
            if root.cache_fill is not None and relations.intersection(
                root.query.body_relations()
            ):
                root.voided = True

    # ------------------------------------------------------------------
    # Request propagation
    # ------------------------------------------------------------------

    def _forward_requests(
        self,
        participation: QueryParticipation,
        needed_relations: set[str],
        label: list[str],
    ) -> None:
        """Request every relevant, not-yet-requested outgoing link."""
        node = self.node
        by_remote: dict[str, list[str]] = {}
        for rule_id, link in node.links.outgoing.items():
            if rule_id in participation.received:
                continue
            if not needed_relations & set(link.rule.mapping.head_relations()):
                continue
            participation.received[rule_id] = set()
            by_remote.setdefault(link.remote, []).append(rule_id)
        for remote, rule_ids in by_remote.items():
            payload = {
                "query_id": participation.query_id,
                "origin": participation.origin,
                "label": label,
                "rule_ids": rule_ids,
            }
            if not node.wrapper.persistent:
                # A mediator's buffer is dropped at the next update
                # boundary: the exporter must serve it in full every
                # time, whatever its send memory says.
                payload["retains"] = False
            node.emit(remote, "query_request", payload)
            node.termination.note_sent(participation.query_id, remote)
            if remote not in participation.forwarded_to:
                participation.forwarded_to.append(remote)

    def on_query_request(self, message: Message) -> None:
        node = self.node
        query_id = message.payload["query_id"]
        if self._finished_here(message):
            return
        if query_id not in self.participations and not node.admission.try_enter(
            query_id, "query"
        ):
            # Admission cap reached: defer the session-creating request
            # un-acked; the sender's deficit keeps the query alive
            # until this node's participation is admitted and replayed.
            node.admission.defer_message(
                query_id, "query", message, self.on_query_request
            )
            return
        tree = node.termination.on_engaging_message(query_id, message.sender)
        participation = self.participations.get(query_id)
        if participation is None:
            participation = self._participate(
                query_id, message.payload["origin"]
            )
        label = [str(item) for item in message.payload.get("label", ())]
        activated_bodies: set[str] = set()
        quarantined = self._quarantined(participation)
        # Serve from the send memory only an importer that keeps what
        # it is sent (see ``_forward_requests``).
        suppressing = node.config.resend_suppression and bool(
            message.payload.get("retains", True)
        )
        for rule_id in message.payload["rule_ids"]:
            link = node.links.incoming.get(rule_id)
            if link is None or link.remote != message.sender:
                raise ProtocolError(
                    f"{node.name}: query_request for rule {rule_id!r} that "
                    f"does not serve {message.sender!r}"
                )
            if rule_id in participation.sent:
                continue  # already activated for this query
            participation.sent[rule_id] = set()
            if quarantined:
                continue
            # Watermarks vouch for rows being in ``pushed``, not for
            # their being settled: with an update's keys still in
            # flight the tail alone would miss them.
            rows, activated_at, skipped = activation_rows(
                node.wrapper,
                link,
                incremental=suppressing and not link.unsettled,
            )
            node.stats.note_activation(incremental=skipped is not None)
            if suppressing:
                participation.activated[rule_id] = (link, activated_at)
            fresh = self._unsent(participation, link, rows, skipped or 0)
            self._send_data(participation, rule_id, link.remote, fresh, path_len=1)
            link.served_at = self._body_epochs(link)
            activated_bodies |= set(link.rule.mapping.body_relations())
        # The label cut: "a node does not propagate a query request, if
        # its ID is contained in the label".
        if activated_bodies and node.name not in label:
            self._forward_requests(
                participation, activated_bodies, label=label + [node.name]
            )
        node.stats.queries_answered += 1
        node.termination.after_processing(query_id, message.sender, tree)

    def _quarantined(self, participation: QueryParticipation) -> bool:
        """§1d, as for an update session: a locally inconsistent node
        exports nothing.  What it withholds leaves the participation
        unclean, so no cache fills from it; counted once per query."""
        if self.node.wrapper.is_consistent():
            return False
        if not participation.quarantined:
            participation.quarantined = True
            participation.clean = False
            self.node.stats.queries_quarantined += 1
        return True

    def _body_epochs(self, link: IncomingLink) -> tuple:
        return self.node.cache.vector(link.rule.mapping.body_relations())

    def _unsent(
        self,
        participation: QueryParticipation,
        link: IncomingLink,
        rows: dict[tuple, Row],
        skipped: int = 0,
    ) -> list[Row]:
        """The *rows* (``{row key: row}``) this query has not shipped
        over *link* yet and the importer is not known to hold; they
        join the link's sent-set.  *skipped* rows were not even read
        (they sit behind the link's watermark) and count as suppressed
        with the ones filtered here."""
        sent = participation.sent[link.rule_id]
        if link.rule_id in participation.activated:
            fresh, suppressed = undelivered(link, rows, sent, settled_only=True)
            self.node.stats.query_rows_suppressed += suppressed + skipped
            return fresh
        fresh = [row for key, row in rows.items() if key not in sent]
        sent.update(rows)
        return fresh

    def _send_data(
        self,
        participation: QueryParticipation,
        rule_id: str,
        remote: str,
        rows: list[Row],
        *,
        path_len: int,
    ) -> None:
        if not rows:
            return
        node = self.node
        payload = {
            "query_id": participation.query_id,
            "rule_id": rule_id,
            "rows": [encode_row(row) for row in rows],
            "path_len": path_len,
        }
        if not node.termination.note_result(participation.query_id, remote):
            payload["ack"] = True
        node.emit(remote, "query_data", payload)

    # ------------------------------------------------------------------
    # Data ingestion
    # ------------------------------------------------------------------

    def on_query_data(self, message: Message) -> None:
        node = self.node
        query_id = message.payload["query_id"]
        if self._finished_here(message):
            return
        if query_id not in self.participations and node.admission.is_deferred(
            query_id
        ):
            node.admission.defer_message(
                query_id, "query", message, self.on_query_data
            )
            return
        covered, covers = coverage(message.payload)
        tree = node.termination.on_engaging_message(
            query_id, message.sender, covered=covered
        )
        participation = self.participations.get(query_id)
        if participation is None:
            raise ProtocolError(
                f"{node.name}: query_data for unknown query {query_id!r}"
            )
        rule_id = message.payload["rule_id"]
        link = node.links.outgoing.get(rule_id)
        if link is None:
            raise ProtocolError(
                f"{node.name}: query_data for unknown outgoing rule {rule_id!r}"
            )
        received = participation.received.setdefault(rule_id, set())
        rows = [decode_row(encoded) for encoded in message.payload["rows"]]
        fresh_frontier = {
            key: row for row in rows if (key := row_key(row)) not in received
        }
        received.update(fresh_frontier)
        path_len = int(message.payload.get("path_len", 1))

        # The link's lifetime fired memory, shared with the update
        # path: a frontier row mints its nulls once per link
        # lifetime, whichever computation delivers it.  Only existential
        # heads need asking — any other head gives the same facts again
        # and ``insert_new`` drops them.  A mediator neither consults
        # nor marks it: once its buffer is dropped "fired" no longer
        # means "stored", and an update that found a row fired here
        # would not carry it on to the other importers.
        to_fire = fresh_frontier
        if node.wrapper.persistent:
            if link.rule.mapping.has_existentials():
                fired = link.fired
                to_fire = {
                    key: row
                    for key, row in fresh_frontier.items()
                    if key not in fired
                }
            link.fired.update(to_fire)
        # One insert_new per relation, as in UpdateEngine.ingest_results.
        deltas: dict[str, list[Row]] = {}
        for relation, row in link.rule.head_facts(to_fire.values(), node.nulls):
            deltas.setdefault(relation, []).append(row)
        stored: list[str] = []
        for relation, pending in deltas.items():
            if node.wrapper.insert_new(relation, pending):
                stored.append(relation)
        if stored:
            # The re-fire below ships this import: a link served up to
            # date stays so across it, one behind a write stays behind.
            current = [
                serving
                for serving_id in participation.sent
                if (serving := node.links.incoming.get(serving_id)) is not None
                and serving.served_at == self._body_epochs(serving)
            ]
            node.bump_epochs(stored)
            for serving in current:
                serving.served_at = self._body_epochs(serving)

        # Re-fire on everything *this query* newly received — not just
        # rows new to the store.  Concurrent computations share the
        # store, so a row another query imported a moment ago is old to
        # the store but new to this query's data flow; the per-query
        # sent-sets downstream keep this loop bounded.  The head facts
        # of existential rows another computation fired are somewhere
        # in the store under nulls that are not ours to mint again:
        # links reading those relations are recomputed in full instead.
        refired: set[str] = set()
        if len(to_fire) < len(fresh_frontier):
            refired = set(link.rule.mapping.head_relations())
        changed = set(deltas)
        if participation.sent and self._quarantined(participation):
            changed = refired = set()
        for serving_id in participation.sent:
            serving = node.links.incoming.get(serving_id)
            if serving is None:
                continue
            body = set(serving.rule.mapping.body_relations())
            if refired & body:
                produced = frontier_rows(node.wrapper, serving)
            elif changed & body:
                produced = frontier_rows(node.wrapper, serving, deltas)
            else:
                continue
            self._send_data(
                participation,
                serving_id,
                serving.remote,
                self._unsent(participation, serving, produced),
                path_len=path_len + 1,
            )
        if covers is not None and message.payload.get("partial"):
            # A partial tree ack (``fin``), as on a partial ack: before
            # it can complete the root.
            self.mark_partial(query_id)
        node.termination.after_processing(
            query_id, message.sender, tree, covered=covered, covers=covers
        )

    # ------------------------------------------------------------------
    # Cleanup
    # ------------------------------------------------------------------

    def _finished_here(self, message: Message) -> bool:
        """Whether *message* is late: its query already ended here
        (only around failures).  It is dropped, but acked as partial,
        so a sender still counting it neither waits nor takes it as
        delivered.  A covered ``query_data`` is not acked: it counts
        toward its sender's tree ack, which a failure flood that ended
        the query here early may be waiting for (:meth:`_cleanup`)."""
        query_id = message.payload["query_id"]
        if query_id not in self.finished:
            return False
        self.node.drop_unread(message, query_id)
        return True

    def on_query_complete(self, message: Message) -> None:
        # Carried registrations first, as when they came ahead of it.
        for rule_id, lease in message.payload.get("register", {}).items():
            self.node.apply_registration(rule_id, int(lease))
        query_id = message.payload["query_id"]
        if query_id in self.finished:
            return  # a duplicate of the flood
        participation = self.participations.get(query_id)
        if participation is None:
            # Still queued behind admission while the query finished
            # elsewhere (only reachable around failures — a live
            # deferred request blocks quiescence): drop the entry and
            # drain the deferred senders' deficits, as partial.
            self.finished.add(query_id)
            for stray in self.node.admission.drop(query_id):
                self.node.drop_unread(stray, query_id)
            return
        if message.payload.get("partial"):
            # A flood that ended the query early: what we shipped our
            # parent, never acked (covered), may be dropped unread
            # upstream.
            participation.clean = False
        self._cleanup(participation, forwarded_from=message.sender)

    def mark_partial(self, query_id: str) -> None:
        """A partial ack came in: whatever a participation below this
        one sent may not have arrived."""
        participation = self.participations.get(query_id)
        if participation is not None:
            participation.clean = False

    def is_partial(self, query_id: str) -> bool:
        """Whether an ack for *query_id* must say ``partial``: its
        participation here is unclean, or already finished — the ack is
        then for a late message that was dropped, not ingested."""
        if query_id in self.finished:
            return True
        participation = self.participations.get(query_id)
        return participation is not None and not participation.clean

    def on_peer_down(self, dead_peer: str) -> None:
        """Failure detector: no live participation can vouch for its
        deliveries any more, and those rooted at the peer that left are
        closed out — their cleanup flood will never come, and under
        admission caps an orphaned participation would pin a session
        slot forever."""
        for participation in list(self.participations.values()):
            participation.clean = False
            if participation.origin == dead_peer:
                self._cleanup(participation, forwarded_from=None)

    def _cleanup(
        self, participation: QueryParticipation, forwarded_from: str | None
    ) -> None:
        node = self.node
        query_id = participation.query_id
        del self.participations[query_id]
        self.finished.add(query_id)
        node.computation_over(query_id)
        # Still engaged only when a failure flood ends the query early:
        # some shipment is unacknowledged and may yet be dropped — and
        # so may a covered shipment to us, never acked: the flood tells
        # the peers it reaches (``partial``).
        engaged = node.termination.is_engaged(query_id)
        if not engaged:
            node.termination.forget(query_id)
        if participation.clean and not engaged:
            # Every shipment was acknowledged, none as partial: the
            # importers hold what this query sent them.
            for rule_id, (link, activated_at) in participation.activated.items():
                if node.links.incoming.get(rule_id) is link:
                    link.pushed |= participation.sent[rule_id]
                    link.settle(participation.sent[rule_id], activated_at)
        for remote in participation.forwarded_to:
            if remote != forwarded_from:
                payload: dict = {"query_id": query_id}
                if engaged:
                    payload["partial"] = True
                node.emit(remote, "query_complete", payload)
        # The participation is over: free its admission slot.
        node.admission.release(query_id)

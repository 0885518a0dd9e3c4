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

So a network query is the global update's propagation: one session
of the update engine (:mod:`repro.core.update`) per node, rooted at the
querying node, with its serve, ingest, admission and finish paths.
What differs is the *query scope*, :class:`QuerySession`:

* a request activates the incoming links it names (``rule_ids``) and
  is forwarded only through outgoing links *relevant* to the data being
  assembled (the link's head writes a relation some activated rule's
  body reads), and never by a node the label names — so on cyclic rule
  sets a network query computes the simple-path-bounded answer, where
  the global update runs the full fix-point (experiment E7);
* the send memory a query may skip is the *settled* part only: keys an
  update in flight taught are shipped again, and what the query taught
  is merged into the links' memory only if it ends cleanly;
* every activated link re-fires on whatever the query newly received,
  not only on rows new to the store, and in full when an existential
  head's frontier rows were fired by another computation;
* no closure, no ``batch_rows`` cut, no §4 report and no subsumption;
* ``query_complete`` floods only to the peers the request was forwarded
  to, ``partial`` when it ends the query early (while its sender still
  waits for an ack, a covered shipment may be dropped unread);
* a link's ``served_at`` is stamped at activation and kept up to date
  across the query's own imports.

A participation that lost a shipment is unclean, and says so on every
ack it sends and on a ``fin`` shipment (``"partial": true``), so the
root knows before it completes; a locally inconsistent node serves
nothing and is unclean too (§1d).

The data migrates (what a query imports stays stored), so a miss need
not propagate either.  A cached query whose root ends clean fills the
answer cache *and* stamps its body's relation set
(:meth:`repro.core.answercache.AnswerCache.fresh`), and registers
interest upstream (riding the completion flood as ``"register"`` on
``query_complete``, or standalone), so a later change arrives as an
invalidation that bumps an epoch.  Until one moves, a miss on any query
over the same relations is answered by local evaluation, with no
propagation at all — at a node whose store keeps its imports (a
mediator's does not).  A root that ended unclean, or that an
invalidation for its relations reached while it ran, neither fills nor
stamps.  A root is released when its answer is taken
(:meth:`QueryEngine.take`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.links import OPEN, frontier_rows
from repro.core.termination import read_count
from repro.core.update import UpdateEngine
from repro.errors import ProtocolError
from repro.p2p.messages import Message
from repro.relational.conjunctive import ConjunctiveQuery
from repro.relational.values import Row, row_keys

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.node import CoDBNode

QUERY_KINDS = ("query_request", "query_data", "query_complete")


class QuerySession(UpdateEngine):
    """One node's participation in one network query: an update session
    in the query scope (module docstring)."""

    KIND, RESULT, KEY = "query", "query_data", "query_id"
    SETTLED_ONLY = True
    BATCHED = SUBSUMES = False

    def __init__(self, node: "CoDBNode", query_id: str, origin: str) -> None:
        super().__init__(node, query_id, origin)
        #: Neighbours the request was forwarded to (the completion
        #: flood follows them).
        self.forwarded_to: list[str] = []
        #: The store broke a key constraint while this ran (counted
        #: once per query).
        self.quarantined = False
        #: Head relations of the ingest in progress whose facts another
        #: computation minted (:meth:`_to_fire`).
        self.refired: set[str] = set()

    def begin(self) -> None:
        """A query opens no link, report or update bracket."""

    def forward(self, needed: set[str], label: list[str]) -> None:
        """Request every relevant, not-yet-requested outgoing link."""
        node = self.node
        by_remote: dict[str, list[str]] = {}
        for rule_id, link in node.links.outgoing.items():
            if not needed & set(link.rule.mapping.head_relations()):
                continue
            state = self.links.outgoing_state(rule_id)
            if state.state == OPEN:
                continue
            state.state = OPEN
            by_remote.setdefault(link.remote, []).append(rule_id)
        for remote, rule_ids in by_remote.items():
            payload = {
                "query_id": self.update_id,
                "origin": self.origin,
                "label": label,
                "rule_ids": rule_ids,
            }
            if not node.wrapper.persistent:
                # A mediator's buffer is dropped at the next update
                # boundary: the exporter must serve it in full every
                # time, whatever its send memory says.
                payload["retains"] = False
            node.emit(remote, "query_request", payload)
            node.termination.note_sent(self.update_id, remote)
            if remote not in self.forwarded_to:
                self.forwarded_to.append(remote)

    def on_request(self, message: Message, first_contact: bool) -> None:
        """Serve the links the request names, then forward it — unless
        the label names this node."""
        node = self.node
        payload = message.payload
        label = [str(item) for item in payload.get("label", ())]
        # Serve from the send memory only an importer that keeps what
        # it is sent (see :meth:`forward`).
        suppressing = node.config.resend_suppression and bool(
            payload.get("retains", True)
        )
        links = []
        for rule_id in payload["rule_ids"]:
            link = node.links.incoming.get(rule_id)
            if link is None or link.remote != message.sender:
                raise ProtocolError(
                    f"{node.name}: query_request for rule {rule_id!r} that "
                    f"does not serve {message.sender!r}"
                )
            links.append((link, self.links.incoming_state(rule_id)))
        activated: set[str] = set()
        for link in self.activate(links, suppressing):
            body = link.rule.mapping.body_relations()
            link.served_at = node.cache.vector(body)
            activated.update(body)
        # The label cut: "a node does not propagate a query request, if
        # its ID is contained in the label".
        if activated and node.name not in label:
            self.forward(activated, label + [node.name])
        node.stats.queries_answered += 1

    def _quarantined(self) -> bool:
        """§1d: a locally inconsistent node exports nothing.  What it
        withholds leaves the participation unclean, so no cache fills
        from it."""
        if self.node.wrapper.is_consistent():
            return False
        if not self.quarantined:
            self.quarantined = True
            self.clean = False
            self.node.stats.queries_quarantined += 1
        return True

    def _note_suppressed(self, count: int) -> None:
        self.node.stats.query_rows_suppressed += count

    def _to_fire(self, link, state, rows: list[Row]) -> list[Row]:
        """The rows new to this query fire the head, but the link's
        lifetime fired memory is shared with the update path: a
        frontier row mints its nulls once per link lifetime, whichever
        computation delivers it.  Only existential heads need asking —
        any other head gives the same facts again and ``insert_new``
        drops them.  A mediator neither consults nor marks it: once its
        buffer is dropped "fired" no longer means "stored", and an
        update that found a row fired here would not carry it on to the
        other importers."""
        seen = state.seen
        fresh = {key: row for key, row in zip(row_keys(rows), rows) if key not in seen}
        seen.update(fresh)
        if not self.node.wrapper.persistent:
            return list(fresh.values())
        fired = link.fired
        if link.rule.mapping.has_existentials():
            kept = {key: row for key, row in fresh.items() if key not in fired}
            if len(kept) < len(fresh):
                self.refired.update(link.rule.mapping.head_relations())
            fresh = kept
        fired.update(fresh)
        return list(fresh.values())

    def _ingested(
        self, facts: dict[str, list[Row]], deltas: dict[str, list[Row]], path_len: int
    ) -> None:
        """Re-fire on every fact of what this query newly received —
        not just rows new to the store.  Concurrent computations share
        the store, so a row another query imported a moment ago is old
        to the store but new to this query's data flow; the session's
        sent-sets downstream keep this loop bounded."""
        node = self.node
        if deltas:
            # The re-fire ships this import: a link served up to date
            # stays so across it, one behind a write stays behind.
            current = [
                link
                for link, _state in self.links.opened_incoming()
                if link.served_at == node.cache.vector(link.rule.mapping.body_relations())
            ]
            node.bump_epochs(deltas)
            for link in current:
                link.served_at = node.cache.vector(link.rule.mapping.body_relations())
        self._propagate_deltas(facts, path_len)

    def _propagate_deltas(self, deltas: dict[str, list[Row]], path_len: int) -> None:
        """Every link this query activated re-fires, in the order it
        activated them.  The head facts of existential rows another
        computation fired are somewhere in the store under nulls that
        are not ours to mint again: links reading those relations are
        recomputed in full instead."""
        refired, self.refired = self.refired, set()
        serving = self.links.opened_incoming()
        if not serving or self._quarantined():
            return
        wrapper = self.node.wrapper
        for link, state in serving:
            body = set(link.rule.mapping.body_relations())
            if refired & body:
                produced = frontier_rows(wrapper, link)
            elif body.intersection(deltas):
                produced = frontier_rows(wrapper, link, deltas)
            else:
                continue
            self._send_results(
                link, self._unsent(link, state, produced), path_len=path_len + 1
            )

    def finish(self, forwarded_from: str | None, cause: str) -> None:
        """The query is over here.  If every shipment was acknowledged,
        none as partial, the importers hold what it sent them: what it
        taught joins the links' send memory.  The flood follows the
        request tree; it says ``partial`` while this node is still
        engaged — only when a failure flood ends the query early: some
        shipment is unacknowledged, and so may be a covered one to us."""
        node = self.node
        query_id = self.update_id
        node.computation_over(query_id)
        engaged = node.termination.is_engaged(query_id)
        if not engaged:
            node.termination.forget(query_id)
            if self.clean:
                self.links.settle(teach=True)
        for remote in self.forwarded_to:
            if remote != forwarded_from:
                payload: dict = {"query_id": query_id}
                if engaged:
                    payload["partial"] = True
                node.emit(remote, "query_complete", payload)

    def on_peer_unreachable(self, dead_peer: str) -> None:
        """No participation can vouch for its deliveries any more, and
        one rooted at the peer that left is closed out — its completion
        flood will never come, and under admission caps it would pin a
        session slot forever."""
        self.clean = False
        if self.origin == dead_peer:
            self.node.updates.finalize(self.update_id, forwarded_from=None)


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
    """Query-time answering for one node: the roots it poses and their
    answers; the participations are sessions of ``node.updates``."""

    def __init__(self, node: "CoDBNode") -> None:
        self.node = node
        #: Roots in flight, and answers completed but not yet taken.
        self.roots: dict[str, RootQuery] = {}
        self.answers: dict[str, list[Row]] = {}

    def submit(
        self,
        query: ConjunctiveQuery,
        *,
        cache: bool | None = None,
    ) -> str:
        """Pose *query* network-wide; returns the query id.

        The root is a session like a global update's: it counts against
        the node's admission cap (waiting in its queue as a pending
        initiation, cancellable through its handle) and completes
        event-driven — the answer becomes available via :meth:`take`
        once the diffusing computation quiesces.

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
        node.admission.initiate(
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
        session = node.updates.open(QuerySession(node, query_id, node.name))
        session.forward(set(query.body_relations()), label=[node.name])
        node.termination.check_quiescence(query_id)

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
        """Quiescence detected: compute the answer, then finish."""
        node = self.node
        root = self.roots.pop(query_id)
        answer = node.wrapper.evaluate_query(root.query)
        if root.cache_fill is not None:
            if node.updates.sessions[query_id].clean and not root.voided:
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
        node.updates.finalize(query_id, forwarded_from=None)
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
    # Handlers: the query kinds, run by the session registry
    # ------------------------------------------------------------------

    def on_query_request(self, message: Message) -> None:
        self.node.updates.on_request(message, QuerySession)

    def on_query_data(self, message: Message) -> None:
        node = self.node
        read_count(message.payload, "path_len", 1, least=1)
        query_id = message.payload["query_id"]
        if not (
            query_id in node.updates.sessions
            or query_id in node.updates.finished
            or node.admission.is_deferred(query_id)
        ):
            raise ProtocolError(f"{node.name}: query_data for unknown query {query_id!r}")
        node.updates.on_run([message], QuerySession)

    def on_query_complete(self, message: Message) -> None:
        node = self.node
        carried = message.payload.get("register", {})
        leases = {rule_id: read_count(carried, rule_id, 0) for rule_id in carried}
        # Carried registrations first, as when they came ahead of it.
        for rule_id, lease in leases.items():
            node.apply_registration(rule_id, lease)
        query_id = message.payload["query_id"]
        if message.payload.get("partial"):
            # A flood that ended the query early: what we shipped our
            # parent, never acked (covered), may be dropped unread
            # upstream.
            node.updates.mark_partial(query_id)
        node.updates.finalize(query_id, forwarded_from=message.sender)

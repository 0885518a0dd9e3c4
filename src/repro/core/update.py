"""The global update algorithm (§3 of the paper, [Franconi et al., 2004]).

The DBM "serves, in general, many requests concurrently" (§3): any
number of global updates — one per origin — may propagate through the
network at the same time.  Each node therefore runs one
:class:`UpdateEngine` **session** per active update id, created lazily
on first contact and garbage-collected on completion; the
:class:`UpdateManager` is the registry that owns the sessions and
dispatches the :data:`UPDATE_KINDS` messages to them.

Protocol recap, with the paper's vocabulary (everything below is per
update id, i.e. per session):

* The origin node floods ``update_request`` messages to its
  acquaintances (the remotes of its coordination rules);
  every node, on first contact with that update id, opens a session,
  forwards the request to all its acquaintances ("propagate the global
  update to their acquaintances") and dedups re-receipts by the update
  identifier ("propagation is stopped ... if that node has already
  received this request message").
* A request from acquaintance *t* **activates** the session's view of
  every incoming link serving *t*: the node "executes the coordination
  rule and sends the results back" — the body is evaluated over the
  full local database, projected onto the rule's frontier variables,
  deduplicated against the session's per-link *sent* set, and shipped
  as ``query_result`` messages — none when nothing is new: the link's
  closure then tells the importer it is done.
* A ``query_result`` arriving over outgoing link *O* carries frontier
  rows.  Rows new *to this session* (dedup against the session's
  per-link *received* set — "we first remove from T those tuples which
  are already in R") are candidates for firing; rows that ever fired
  the rule at this node (the shared link's lifetime ``fired`` set)
  are skipped, which keeps "fresh new marked null values" idempotent
  across repeated updates *and* across concurrent sessions delivering
  the same row.  Genuinely new tuples (``T'``) are inserted, and every
  *dependent* incoming link that is open in this session is
  re-evaluated **semi-naively** — "computed by substituting R by T'" —
  with the session's sent-set removing "those tuples which have been
  already sent".
* Link closure, the paper's condition (a): an incoming link closes
  (in this session) when every relevant outgoing link of this session
  is closed (leaf links close right after their initial results).  The
  closure rides the last ``query_result`` the node's open input sent on
  that link (``"closed": true``), or a ``query_result`` of no rows when
  there is none; it closes the matching outgoing link at the
  importer's session, cascading network-wide through acyclic
  dependencies.  A result a participant sends its parent is covered by
  the participant's tree ack and never acked; the tree ack rides the
  last of them (``"fin": true``, set as the input closes,
  :mod:`repro.core.termination`), so an update from the head of a
  chain sends no ``ack`` at all, and a repeat update that finds nothing
  new costs a request and a closing result per link, and the
  completion flood.
* Cyclic dependencies cannot close by cascade.  They close via the
  paper's condition (b) — "all query results did not bring any new
  data" — detected exactly by the Dijkstra–Scholten machinery of
  :mod:`repro.core.termination`, which already multiplexes one
  instance per computation id, so N concurrent updates run N
  independent diffusing computations.  When an origin detects global
  quiescence of *its* computation it floods ``update_complete``, and
  every node force-closes that session's remaining links (recorded as
  ``closed_by="quiescence"``) and garbage-collects the session.

Runs: one delivered burst often carries several ``query_result``
messages of one update — a source cuts its results into ``batch_rows``
messages, and a relay forwards in one burst what one delivery made it
derive.  The node's endpoint hands such consecutive messages over
together (:meth:`~repro.p2p.endpoint.Endpoint.on_run`), and the
consecutive ones of one update and one path length are ingested as
ONE T: one dedup pass, one insert per relation, one re-evaluation of
the dependent links, whose output leaves re-cut into full
``batch_rows`` messages.  Any other kind is a barrier, handled
only after the run in front of it.  The closures a run carries are
applied once it is ingested (:meth:`UpdateManager.on_link_closed`),
so a closure never overtakes the results sent before it.  The
fix-point does not depend on how T is cut, so runs change what a
delivery costs, not what is computed; Dijkstra–Scholten and the §4
statistics still count messages.

Retries can reorder a pipe.  A bounced message is sent again
(:meth:`CoDBNode._on_undeliverable
<repro.core.node.CoDBNode._on_undeliverable>`), so a ``query_result``
whose retry arrives after the closing result that followed it is
possible, though no transport reorders a pipe by itself.  The receiver
tolerates it with no sequence numbers: results are ingested whatever
the link's state, and their deltas re-fire dependent links closed by
cascade as well as open ones, so the closed importers downstream
ingest them the same way.  The retried message cannot be overtaken
unnoticed: a result to a peer that is not the sender's parent is in
the sender's deficit until acknowledged, and one to its parent is
covered by the sender's tree ack, whose count of covered results the
parent waits for even when the ``fin`` arrives first — so the update
cannot complete before the retry lands.  No other order matters: the
completion floods leave only after every message of the computation
was acknowledged, acks are counts, and an invalidation or
registration that arrives late only drops cached answers.

Correctness under concurrency: the local databases are shared and grow
monotonically; each session is an independent propagation wave whose
deltas it carries to quiescence itself, and the lifetime ``fired`` set
(plus optional marked-null subsumption) makes rule firing confluent.
N concurrent updates therefore converge to databases equivalent — up
to a renaming of marked nulls — to some sequential execution; the
randomized differential tests in
``tests/core/test_concurrent_updates.py`` enforce exactly that on both
transports.

Sessions are driven entirely by message handlers, so they run
unchanged on the simulated and the TCP transport; over TCP the node's
lock serialises handler execution with driver-thread calls, giving the
same actor discipline as the simulator.

Admission control: with ``NodeConfig.max_active_sessions`` set, the
node's :class:`~repro.core.requests.AdmissionControl` bounds how many
sessions run at once.  Local initiations queue as pending starts;
remote session-creating messages are deferred un-acked (keeping the
sender's Dijkstra–Scholten deficit open, so the computation waits for
the queued participant instead of falsely quiescing) and replayed in
global update-id seniority order as sessions finish.  A message that
is dropped unread instead — its update is over here — is acked, unless
it is a covered result: that one counts as processed toward its
sender's tree ack (:meth:`~repro.core.node.CoDBNode.drop_unread`).
"""

from __future__ import annotations

from collections import defaultdict
from itertools import groupby
from typing import TYPE_CHECKING

from repro.core.links import (
    CLOSED,
    INACTIVE,
    OPEN,
    IncomingLink,
    LinkSession,
    activation_rows,
    frontier_rows,
    undelivered,
)
from repro.core.termination import coverage
from repro.errors import FixpointGuardError, ProtocolError
from repro.p2p.messages import Message
from repro.relational.containment import tuple_subsumed
from repro.relational.storage import Relation
from repro.relational.values import MarkedNull, Row, decode_rows, encode_row, row_keys

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.node import CoDBNode

#: Message kinds owned by the update manager.
UPDATE_KINDS = ("update_request", "query_result", "update_complete")


def _credit_new_rows(
    new_rows: list[Row],
    pending: list[Row],
    owners: list[tuple[str, int]],
    credit: dict[str, int],
) -> None:
    """Credit each of a batch's *new_rows* to the rule whose fact
    brought it: *owners* cut *pending* into ``(rule, end)`` spans.
    ``insert_new`` keeps the first occurrence of each new key, so a
    row that two rules of one run derive counts for the first."""
    if len(owners) == 1:
        credit[owners[0][0]] += len(new_rows)
        return
    unclaimed = set(row_keys(new_rows))
    keys = row_keys(pending)
    start = 0
    for rule_id, end in owners:
        for key in keys[start:end]:
            if key in unclaimed:
                unclaimed.discard(key)
                credit[rule_id] += 1
        start = end


def _run_key(message: Message) -> tuple:
    """What the messages of one ingested run share."""
    payload = message.payload
    return payload["update_id"], int(payload.get("path_len", 1))


class UpdateEngine:
    """One node's participation in ONE global update — a session.

    Holds the per-update view of the node's links (activation states,
    closure causes, sent/received dedup sets) and implements the §3
    data flow.  All cross-session facilities — the store, the link
    topology, the lifetime ``fired`` sets, termination bookkeeping and
    statistics — are reached through the owning node and are keyed (or
    confluent) per update id.
    """

    def __init__(self, node: "CoDBNode", update_id: str, origin: str) -> None:
        self.node = node
        self.update_id = update_id
        self.origin = origin
        self.links = LinkSession(node.links)
        #: A peer relevant to this session died or became unreachable.
        #: The failure may have severed our path to the origin, whose
        #: completion flood would then never reach us — so once every
        #: link is closed and we are disengaged, we finalize locally
        #: (see :meth:`UpdateManager.maybe_finalize_after_failure`).
        self.peer_lost = False

    # ------------------------------------------------------------------
    # Outbound plumbing
    # ------------------------------------------------------------------

    def send_request(self, remote: str, path: list[str]) -> None:
        node = self.node
        update_id = self.update_id
        report = node.stats.report_for(update_id)
        node.emit(
            remote,
            "update_request",
            {"update_id": update_id, "origin": self.origin, "path": path},
        )
        node.termination.note_sent(update_id, remote)
        if report is not None:
            report.messages_sent += 1
            if remote not in report.queried_acquaintances and any(
                link.remote == remote for link in node.links.outgoing.values()
            ):
                report.queried_acquaintances.append(remote)

    # ------------------------------------------------------------------
    # Serving incoming links
    # ------------------------------------------------------------------

    def _quarantined(self) -> bool:
        """§1d: a locally inconsistent node must not export its data."""
        node = self.node
        if node.wrapper.is_consistent():
            return False
        report = node.stats.report_for(self.update_id)
        if report is not None:
            report.quarantined = True
        return True

    def activate_links_for(self, requester: str) -> None:
        """First request from *requester*: evaluate every incoming link
        serving it — in full on first contact, over just the rows
        inserted since the link's last clean activation after that —
        then check immediate (leaf) closure."""
        node = self.node
        quarantined = self._quarantined()
        suppressing = node.config.resend_suppression
        for link, state in self.links.incoming_for_target(requester):
            if state.state != INACTIVE:
                continue
            state.state = OPEN
            link.state = OPEN  # diagnostic mirror
            if quarantined:
                continue
            rows, activated_at, skipped = activation_rows(
                node.wrapper, link, incremental=suppressing
            )
            node.stats.note_activation(incremental=skipped is not None)
            if suppressing:
                state.activated_at = activated_at
            self._send_results(
                link, self._unsent(link, state, rows, skipped or 0), path_len=1
            )
        self.cascade_closures()

    def _unsent(
        self, link: IncomingLink, state, rows: dict[tuple, Row], skipped: int = 0
    ) -> list[Row]:
        """The *rows* (``{row key: row}``) this session still has to
        ship over *link*, through two filters that share the keys.

        The session's sent-set — "we delete from Ri those tuples which
        have been already sent" (§3) — which the rows join.  Then
        teach-forward resend suppression: skip rows the link's
        lifetime ``pushed`` memory says a previous update (or a
        cleanly ended query) already delivered — the importer's
        lifetime ``fired`` set would drop them anyway.  Rows we do ship are taught to the
        memory, tagged in the session's ``lifetime_new`` so a failure
        closure can forget them again (the healed network's next
        update must re-ship).  *skipped* rows never left the store (they sit behind the link's
        watermark) and count as suppressed all the same.
        """
        node = self.node
        seen = state.seen
        rows = {key: row for key, row in rows.items() if key not in seen}
        seen.update(rows)
        if not node.config.resend_suppression:
            return list(rows.values())
        to_ship, suppressed = undelivered(link, rows, state.lifetime_new)
        if suppressed or skipped:
            report = node.stats.report_for(self.update_id)
            if report is not None:
                report.rows_suppressed += suppressed + skipped
        return to_ship

    def _send_results(
        self, link: IncomingLink, rows: list[Row], *, path_len: int
    ) -> None:
        """Ship frontier *rows* to the link's importer.

        Nothing is sent without rows — an activation that finds
        nothing new included: the link's closure, when it comes, is
        what tells the importer the link is done (:meth:`_send_closure`).
        So in §4's statistics a rule that ships nothing reports one
        result message when it closes by cascade (the closing one) and
        none when it closes by quiescence or failure.
        ``config.batch_rows`` bounds the rows per message (§4's
        per-message data volume), splitting large results across
        several messages.
        """
        if not rows:
            return
        batch_size = self.node.config.batch_rows
        if batch_size <= 0:
            batches: list[list[Row]] = [rows]
        else:
            batches = [
                rows[start:start + batch_size]
                for start in range(0, len(rows), batch_size)
            ]
        for batch in batches:
            self._send_result(
                link,
                {
                    "update_id": self.update_id,
                    "rule_id": link.rule_id,
                    "rows": [encode_row(row) for row in batch],
                    "path_len": path_len,
                },
            )

    def _send_result(self, link: IncomingLink, payload: dict) -> None:
        """One ``query_result`` to the link's importer, flagged to be
        acked unless this node's tree ack covers it.  Until the node's
        input closes it may still take the link's closure, and this
        node's tree ack if it is the last covered result of the update
        (:meth:`CoDBNode._finish <repro.core.node.CoDBNode._finish>`),
        so its bytes are counted then."""
        node = self.node
        update_id = self.update_id
        if not node.termination.note_result(update_id, link.remote):
            payload["ack"] = True
        node.emit(link.remote, "query_result", payload)
        report = node.stats.report_for(update_id)
        if report is not None:
            report.messages_sent += 1
            if link.remote not in report.results_sent_to:
                report.results_sent_to.append(link.remote)

    def _send_closure(self, link: IncomingLink) -> None:
        """Tell the importer that *link* closed in this session: on the
        last result the node's open input sent on it (``"closed":
        true``), or on a result of no rows when there is none.  Which
        one is decided here, not as the input closes: a result of no
        rows is one more message in this node's deficit.  The importer
        applies the closure after ingesting the run it came with."""
        for message in reversed(self.node.emitted):
            payload = message.payload
            if (
                message.kind == "query_result"
                and not message.message_id
                and payload["rule_id"] == link.rule_id
                and payload["update_id"] == self.update_id
            ):
                payload["closed"] = True
                return
        self._send_result(
            link,
            {
                "update_id": self.update_id,
                "rule_id": link.rule_id,
                "rows": [],
                "closed": True,
            },
        )

    # ------------------------------------------------------------------
    # Ingesting results (the heart of §3)
    # ------------------------------------------------------------------

    def ingest_results(self, messages: list[Message]) -> None:
        """Ingest one run of ``query_result`` messages as one T (§3).

        *messages* are consecutive results of this update with one path
        length, out of one delivery (see
        :meth:`UpdateManager.on_query_result`); ``[message]`` is a run
        of one.  The fix-point does not depend on how T was cut into
        messages, so the run pays once for what each message used to:
        one dedup pass, one ``head_facts`` per rule, one ``insert_new``
        per relation, one ``bump_epochs`` and one re-evaluation of the
        dependent links, whose output :meth:`_send_results` cuts into
        full ``batch_rows`` messages again.  The §4 statistics still
        count messages: each is a round and has its own volume.
        """
        node = self.node
        outgoing = node.links.outgoing
        # Decode the whole run before any memory is touched: a bad
        # message must not leave rows marked fired but never inserted.
        received: dict[str, list[Row]] = {}
        for message in messages:
            rule_id = message.payload["rule_id"]
            if rule_id not in outgoing:
                raise ProtocolError(
                    f"{node.name}: query_result for unknown outgoing "
                    f"rule {rule_id!r}"
                )
            received.setdefault(rule_id, []).extend(
                decode_rows(message.payload["rows"])
            )
        path_len = int(messages[0].payload.get("path_len", 1))
        report = node.stats.report_for(self.update_id)

        # Batch ingest: group the run's head facts per relation and
        # insert each group with ONE insert_new call — the paper's
        # ``T' = T \ R`` for the whole T.  Subsumption dedup must still
        # see rows accepted earlier in this batch (row-at-a-time
        # insertion would have stored them by then): a per-relation
        # shadow Relation mirrors the accepted rows, so those probes
        # stay hash-indexed instead of scanning the batch.
        nulls_before = node.nulls.minted
        batches: defaultdict[str, list[Row]] = defaultdict(list)
        #: relation -> [(rule, batch length once that rule's facts are in)]
        owners: dict[str, list[tuple[str, int]]] = {}
        subsumption = node.config.subsumption_dedup
        view = node.wrapper._view() if subsumption else None
        shadows: dict[str, Relation] = {}
        for rule_id, rows in received.items():
            link = outgoing[rule_id]
            state = self.links.outgoing_state(rule_id)
            state.longest_path = max(state.longest_path, path_len)
            link.longest_path = max(link.longest_path, path_len)
            # Two dedup layers, one key per row.  The session's
            # received-set is multi-path protection within THIS update
            # ("remove from T those tuples which are already in R" at
            # frontier granularity); the shared link's lifetime
            # fired-set spans updates and concurrent sessions, and is
            # what keeps null minting idempotent: a frontier row
            # instantiates the head at most once per link lifetime, no
            # matter how many sessions deliver it.
            seen, fired = state.seen, link.fired
            to_fire = []
            for key, row in zip(row_keys(rows), rows):
                if key in seen:
                    continue
                seen.add(key)
                if key not in fired:
                    fired.add(key)
                    to_fire.append(row)
            for relation, row in link.rule.head_facts(to_fire, node.nulls):
                if subsumption:
                    shadow = shadows.get(relation)
                    if shadow is None:
                        shadow = Relation(node.wrapper.schema[relation])
                        shadows[relation] = shadow
                    if any(isinstance(value, MarkedNull) for value in row) and (
                        tuple_subsumed(row, view.relation(relation))
                        or tuple_subsumed(row, shadow)
                    ):
                        continue
                    shadow.insert(row)
                batches[relation].append(row)
            for relation, pending in batches.items():
                spans = owners.setdefault(relation, [])
                if len(pending) > (spans[-1][1] if spans else 0):
                    spans.append((rule_id, len(pending)))

        deltas: dict[str, list[Row]] = {}
        rows_new = dict.fromkeys(received, 0)
        for relation, pending in batches.items():
            new_rows = node.wrapper.insert_new(relation, pending)
            if new_rows:
                deltas[relation] = new_rows
                _credit_new_rows(new_rows, pending, owners[relation], rows_new)

        if report is not None:
            report.rounds += len(messages)
            report.rows_imported += sum(rows_new.values())
            report.nulls_minted += node.nulls.minted - nulls_before
            report.longest_path = max(report.longest_path, path_len)
            for message in messages:
                report.rule_traffic(message.payload["rule_id"]).record(
                    volume=message.payload_bytes(),
                    rows=len(message.payload["rows"]),
                    new_rows=0,
                )
            for rule_id, count in rows_new.items():
                report.rule_traffic(rule_id).rows_new += count
            if report.rounds > node.config.fixpoint_guard:
                raise FixpointGuardError(node.config.fixpoint_guard)

        if deltas:
            node.bump_epochs(deltas)
            self._propagate_deltas(deltas, path_len)

    def _propagate_deltas(
        self, deltas: dict[str, list[Row]], path_len: int
    ) -> None:
        """Semi-naive re-evaluation of dependent incoming links (§3:
        "incoming links, which are dependent on O, are computed by
        substituting R by T'").

        Only links this session activated re-fire; another session's
        open view of the same link propagates its own deltas itself
        (its data flow inserted them), so nothing is lost and nothing
        is sent twice under one update id.  A link closed by cascade
        re-fires too: the delta is then a result that a retry delivered
        after the closure it preceded (see the module docstring).
        """
        node = self.node
        if self._quarantined():
            return
        changed = set(deltas)
        for link, state in self.links.incoming_dependent_on_relations(changed):
            if state.state == INACTIVE or state.closed_by == "failure":
                # Inactive: full eval at activation sees this data.
                # Closed by failure: nobody is left to serve.
                continue
            produced = frontier_rows(node.wrapper, link, deltas)
            self._send_results(
                link, self._unsent(link, state, produced), path_len=path_len + 1
            )

    # ------------------------------------------------------------------
    # Closure (condition (a): the cascade)
    # ------------------------------------------------------------------

    def close_outgoing_by_cascade(self, rule_id: str) -> None:
        state = self.links.outgoing_state(rule_id)
        if state.state != CLOSED:
            self.links.close_outgoing(rule_id, "cascade")

    def cascade_closures(self) -> None:
        report = self.node.stats.report_for(self.update_id)
        progressed = True
        while progressed:
            progressed = False
            for link, _state in self.links.incoming_ready_to_close():
                self.links.close_incoming(link.rule_id, "cascade")
                if report is not None:
                    report.links_closed_by_cascade += 1
                self._send_closure(link)
                progressed = True
        self.maybe_finish_locally()

    def maybe_finish_locally(self) -> None:
        """Stamp the node-closure time the first moment every link is
        closed — "when all outgoing links of a node are in the state
        'closed', then the node is also in the state 'closed'" (§3)."""
        node = self.node
        report = node.stats.report_for(self.update_id)
        if report is None or report.status == "closed":
            return
        if self.links.all_outgoing_closed() and self.links.all_incoming_closed():
            report.status = "closed"
            report.finished_at = node.endpoint.now()

    # ------------------------------------------------------------------
    # Completion (condition (b): global quiescence)
    # ------------------------------------------------------------------

    def force_close_remaining(self) -> None:
        """Completion flood arrived: close whatever is still open."""
        report = self.node.stats.report_for(self.update_id)
        for link, state in self.links.outgoing_items():
            if state.state == OPEN:
                self.links.close_outgoing(link.rule_id, "quiescence")
                if report is not None:
                    report.links_closed_by_quiescence += 1
            elif state.state == INACTIVE:
                self.links.close_outgoing(link.rule_id, "")
        for link, state in self.links.incoming_items():
            if state.state == OPEN:
                self.links.close_incoming(link.rule_id, "quiescence")
                if report is not None:
                    report.links_closed_by_quiescence += 1
            elif state.state == INACTIVE:
                self.links.close_incoming(link.rule_id, "")
        if report is not None and report.status != "closed":
            report.status = "closed"
            report.finished_at = self.node.endpoint.now()

    # ------------------------------------------------------------------
    # Dynamic networks (§1: nodes may disappear mid-computation)
    # ------------------------------------------------------------------

    def on_peer_unreachable(self, dead_peer: str) -> None:
        """Close this session's links toward a peer that left.

        Outgoing links toward it will never deliver results or closure
        notifications; incoming links toward it have nobody left to
        serve.  Both close with ``closed_by="failure"`` so the closure
        cascade — and therefore this update — still terminates.
        """
        node = self.node
        update_id = self.update_id
        report = node.stats.report_for(update_id)
        changed = False
        relevant = False
        for link, state in self.links.outgoing_items():
            if link.remote != dead_peer:
                continue
            relevant = True
            if state.state != CLOSED:
                self.links.close_outgoing(link.rule_id, "failure")
                changed = True
        for link, state in self.links.incoming_items():
            if link.remote != dead_peer:
                continue
            relevant = True
            if state.state != CLOSED:
                self.links.close_incoming(link.rule_id, "failure")
                changed = True
            else:
                # The link closed cleanly, then the importer was
                # written off: the rows it taught the lifetime sent
                # memory may never have arrived, so forget them.
                self.links.rollback_taught(link.rule_id)
        # Arm self-finalization only when the dead peer actually
        # touches this session (it is an acquaintance on some rule —
        # and therefore possibly our only route to the origin).  An
        # unrelated peer's death must NOT arm it: a closed+disengaged
        # branch would prematurely flood completion and truncate the
        # still-streaming rest of a healthy update.
        if relevant:
            self.peer_lost = True
            if report is not None:
                # The §4 report must say what went missing, not
                # silently truncate: this node's view of the update is
                # now "partial", naming the peer it lost.
                report.note_unreachable(dead_peer)
        if changed and report is not None:
            report.links_closed_by_failure += 1
        if changed:
            self.cascade_closures()
        # If the failure cut us off from the origin, its completion
        # flood may never reach us.  Once every local link is closed
        # and we are disengaged from the computation, the update is
        # over *for this node* (the paper's node-closure condition),
        # so finalize locally and let our own completion flood cover
        # whatever part of the network is still reachable through us.
        node.updates.maybe_finalize_after_failure(update_id)


class UpdateManager:
    """The session registry: one :class:`UpdateEngine` per active update.

    Owns message dispatch for :data:`UPDATE_KINDS`, session creation on
    first contact, the completed-update dedup set (stale flood tails
    after completion are acked and dropped), and garbage collection of
    finished sessions.
    """

    def __init__(self, node: "CoDBNode") -> None:
        self.node = node
        self.sessions: dict[str, UpdateEngine] = {}
        self.completed_updates: set[str] = set()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def is_done(self, update_id: str) -> bool:
        return update_id in self.completed_updates

    def active_ids(self) -> list[str]:
        return list(self.sessions)

    def session(self, update_id: str) -> UpdateEngine | None:
        return self.sessions.get(update_id)

    # ------------------------------------------------------------------
    # Initiation
    # ------------------------------------------------------------------

    def submit(self) -> str:
        """Submit a global update at this node; returns the update id.

        "A global update is started when some (dedicated) node sends to
        all its acquaintances global update requests" (§2); the unique
        identifier is generated here, at the origin.  Any number of
        updates (from this or other origins) may already be running.
        When the node's admission cap is reached the update waits in
        the admission queue as a pending initiation — the id exists
        (and is cancellable through its handle) but the flood has not
        started.
        """
        node = self.node
        update_id = node.endpoint.ids.update_id()
        if node.admission.try_enter(update_id, "update", initiation=True):
            self._start_root(update_id)
        else:
            node.admission.defer_initiation(
                update_id, "update", lambda: self._start_root(update_id)
            )
        return update_id

    def cancel(self, update_id: str) -> bool:
        """Withdraw *update_id* if it is still queued behind admission."""
        return self.node.admission.cancel(update_id)

    def _start_root(self, update_id: str) -> None:
        node = self.node
        node.termination.start_root(update_id)
        session = self._begin_session(update_id, origin=node.name)
        for remote in node.links.acquaintances():
            session.send_request(remote, path=[node.name])
        node.termination.check_quiescence(update_id)

    def _begin_session(self, update_id: str, origin: str) -> UpdateEngine:
        node = self.node
        session = UpdateEngine(node, update_id, origin)
        self.sessions[update_id] = session
        session.links.open_all_outgoing()
        node.wrapper.on_update_started()
        node.stats.open_report(update_id, origin, node.endpoint.now())
        return session

    # ------------------------------------------------------------------
    # Handlers (wired by the node)
    # ------------------------------------------------------------------

    def on_update_request(self, message: Message) -> None:
        update_id = message.payload["update_id"]
        if update_id in self.completed_updates:
            # Stale flood tail after completion; nothing to do, but the
            # sender still gets its ack so its deficit drains.
            self.node.send_ack(message.sender, update_id)
            return
        if update_id not in self.sessions and not self.node.admission.try_enter(
            update_id, "update"
        ):
            # Admission cap reached: defer the session-creating message
            # un-acked (the sender's deficit keeps the computation
            # alive); it replays when a slot frees.
            self.node.admission.defer_message(
                update_id, "update", message, self._process_update_request
            )
            return
        self._process_update_request(message)

    def _process_update_request(self, message: Message) -> None:
        update_id = message.payload["update_id"]
        node = self.node
        tree = node.termination.on_engaging_message(update_id, message.sender)
        session = self.sessions.get(update_id)
        first_contact = session is None
        if first_contact:
            origin = message.payload["origin"]
            path = list(message.payload.get("path", ()))
            session = self._begin_session(update_id, origin=origin)
            forward_path = path + [node.name]
            targets = [
                remote
                for remote in node.links.acquaintances()
                if remote != message.sender
            ]
            # The flood proper excludes the sender, but if we *import*
            # from the sender we must still request from it: its
            # incoming links toward us only activate on our explicit
            # request (this is what makes mutual imports — cycles of
            # length two — work).
            if any(
                link.remote == message.sender
                for link in node.links.outgoing.values()
            ):
                targets.append(message.sender)
            for remote in targets:
                session.send_request(remote, path=forward_path)
        session.activate_links_for(message.sender)
        node.termination.after_processing(update_id, message.sender, tree)
        # A session a write-off touched may be over here now, and no
        # later message may come to re-check — finalize it while passive.
        self.maybe_finalize_after_failure(update_id)

    def on_query_result(self, messages: list[Message]) -> None:
        """The ``query_result`` messages of one delivery, in order (see
        :meth:`~repro.p2p.endpoint.Endpoint.on_run`), cut into the runs
        ingested as one T each: consecutive messages of one update and
        one path length.

        Dijkstra–Scholten still sees every message: each engages before
        the run is ingested, and each is processed — acked unless it was
        the tree edge or is covered — once the run's sends are noted.
        """
        for _key, run in groupby(messages, key=_run_key):
            self._on_run(list(run))

    def _on_run(self, run: list[Message]) -> None:
        node = self.node
        update_id = run[0].payload["update_id"]
        # Without a session the messages go one at a time: replaying a
        # deferred one may admit the session for the rest.
        while run and update_id not in self.sessions:
            message, run = run[0], run[1:]
            if node.admission.is_deferred(update_id):
                # Session not admitted yet: queue the data behind the
                # deferred request so replay preserves arrival order.
                node.admission.defer_message(
                    update_id, "update", message, self._replay_result
                )
            else:
                # Completed here (or arrived after a failure-finalize):
                # the data flowed under another still-open session or
                # is already stored.
                node.drop_unread(message, update_id)
        if not run:
            return
        termination = node.termination
        coverages = [coverage(message.payload) for message in run]
        trees = [
            termination.on_engaging_message(update_id, message.sender, covered=covered)
            for message, (covered, _covers) in zip(run, coverages)
        ]
        session = self.sessions[update_id]
        session.ingest_results(run)
        closed = [
            message.payload["rule_id"]
            for message in run
            if message.payload.get("closed")
        ]
        if closed:
            self.on_link_closed(session, closed)
        for message, tree, (covered, covers) in zip(run, trees, coverages):
            termination.after_processing(
                update_id, message.sender, tree, covered=covered, covers=covers
            )
        self.maybe_finalize_after_failure(update_id)

    def _replay_result(self, message: Message) -> None:
        self.on_query_result([message])

    def on_link_closed(self, session: UpdateEngine, rule_ids: list[str]) -> None:
        """Apply the closures a run carried (``"closed": true``), once
        the run is ingested: a closure never overtakes the rows in
        front of it.  The cascade may close incoming links in turn."""
        for rule_id in rule_ids:
            session.close_outgoing_by_cascade(rule_id)
        session.cascade_closures()

    def on_update_complete(self, message: Message) -> None:
        update_id = message.payload["update_id"]
        cause = message.payload.get("cause", "origin")
        if cause == "failure":
            # A *failure*-triggered completion flood is not the root's
            # condition (b): it is a severed component announcing "the
            # update is over for us".  A session here that is still
            # active — engaged, or with open links — may well have a
            # healthy route to the origin with data still in flight;
            # finalizing it now would force-close live links and drop
            # that data (and at the root it would complete the whole
            # update prematurely).  Instead the flood *arms* the
            # session: once it too is closed and disengaged it
            # finalizes, and forwards the flood then.  Only the links
            # with the sender close now, by failure: its session is
            # over, so nothing more of this update passes between us —
            # not the results and closure of a link it exports to us,
            # nor the request that would open one it imports from us.
            session = self.sessions.get(update_id)
            if session is not None and any(
                link.remote == message.sender and state.state != CLOSED
                for link, state in (
                    *session.links.outgoing_items(),
                    *session.links.incoming_items(),
                )
            ):
                session.on_peer_unreachable(message.sender)
                # Reachability changed under this session: the answer
                # cache floods and the interest protocol toward the
                # sender resets, as on a write-off.
                self.node.cache_fault_fallback(message.sender)
                session = self.sessions.get(update_id)
            if session is not None:
                report = self.node.stats.report_for(update_id)
                if (
                    self.node.termination.is_engaged(update_id)
                    or report is None
                    or report.status != "closed"
                ):
                    session.peer_lost = True
                    return
        self.finalize(
            update_id, forwarded_from=message.sender, cause=cause
        )

    def maybe_finalize_after_failure(self, update_id: str) -> None:
        """Self-finalize a failure-touched session once it is over here.

        A session that lost a peer (``UpdateEngine.peer_lost``) may be
        cut off from its origin — the completion flood would then never
        arrive (the dead node was the only route).  The paper's node-
        closure condition says the update is over *for this node* once
        every link is closed; combined with Dijkstra–Scholten
        disengagement (we owe no acks, nobody owes us) it is safe to
        finalize locally and let our own ``cause="failure"`` flood
        cover whatever part of the network is still reachable through
        us (recipients that are still active merely arm themselves,
        see :meth:`on_update_complete` — the flood cannot truncate a
        healthy branch).  Called at passive moments only (handler
        tails, after the termination bookkeeping for the message has
        fully run); a no-op for sessions that never saw a failure.
        """
        session = self.sessions.get(update_id)
        if session is None or not session.peer_lost:
            return
        report = self.node.stats.report_for(update_id)
        if (
            report is not None
            and report.status == "closed"
            and not self.node.termination.is_engaged(update_id)
        ):
            self.finalize(update_id, forwarded_from=None, cause="failure")

    def root_complete(self, update_id: str) -> None:
        """Termination detected at the origin (condition (b) globally)."""
        self.finalize(update_id, forwarded_from=None)

    # ------------------------------------------------------------------
    # Completion & garbage collection
    # ------------------------------------------------------------------

    def finalize(
        self,
        update_id: str,
        forwarded_from: str | None,
        cause: str = "origin",
    ) -> None:
        node = self.node
        if update_id in self.completed_updates:
            return
        self.completed_updates.add(update_id)
        session = self.sessions.pop(update_id, None)  # GC the session
        if session is not None:
            session.force_close_remaining()
            # Every message the session sent has been acknowledged (or
            # written off and rolled back): what it taught is delivered.
            session.links.settle()
            node.wrapper.on_update_finished()
        # The update may have completed globally while still queued
        # behind admission here (a failure cut us out of it): drop the
        # queue entry and ack its deferred messages so the senders'
        # deficits drain.
        for stray in node.admission.drop(update_id):
            node.drop_unread(stray, update_id)
        node.termination.forget(update_id)
        node.computation_over(update_id)
        # Flood the completion (non-engaging; dedup via completed_updates).
        # The cause travels with it: failure-triggered floods must not
        # finalize still-active sessions downstream (they arm instead).
        for remote in node.links.acquaintances():
            if remote != forwarded_from:
                node.emit(
                    remote,
                    "update_complete",
                    {"update_id": update_id, "cause": cause},
                )
        # Free this session's admission slot (drains the queue) and
        # signal completion to any request handles / waiting drivers.
        node.admission.release(update_id)
        node.notify_request_complete("update", update_id)

    # ------------------------------------------------------------------
    # Dynamic networks
    # ------------------------------------------------------------------

    def on_peer_unreachable(self, update_id: str, dead_peer: str) -> None:
        session = self.sessions.get(update_id)
        if session is not None:
            session.on_peer_unreachable(dead_peer)

    def on_peer_down(self, dead_peer: str) -> None:
        """Failure-detector notification: close links toward *dead_peer*
        in every active session (each may finalize itself)."""
        for update_id in list(self.sessions):
            self.on_peer_unreachable(update_id, dead_peer)

    def on_rules_changed(self) -> None:
        """Runtime rewire (§4): rebind every live session to the new
        link table.  Surviving rules keep their session state; new
        rules start INACTIVE in every session."""
        for session in self.sessions.values():
            session.links.rebind(self.node.links)

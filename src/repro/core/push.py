"""Continuous (push) propagation of local inserts.

The global update is the paper's *batch* materialisation.  Between
batches, a node whose local database changes can push the delta along
its incoming links immediately, keeping downstream materialisations
fresh — the "data migration" role of coordination formulas (§1a),
running continuously.

Semantics: a local insert at node *s* is treated exactly like the
arrival of ``T'`` in §3 — dependent incoming links are recomputed
semi-naively, sent-set dedup applies, the importer ingests with the
usual frontier-row dedup and null minting, and *its* deltas cascade
further.  The flow is monotone and deduplicated, so it quiesces
without needing termination detection (there is no per-push "closed"
state to report; the statistics module counts pushes instead).

Enable with ``NodeConfig(push_on_insert=True)`` (then every
``node.insert`` pushes) or call ``node.push_deltas(...)`` explicitly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.links import frontier_rows, undelivered
from repro.errors import UnknownPeerError
from repro.p2p.messages import Message
from repro.relational.containment import tuple_subsumed
from repro.relational.values import MarkedNull, Row, decode_row, encode_row, row_key

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.node import CoDBNode

PUSH_KIND = "push_delta"


class PushEngine:
    """Continuous-propagation message processing for one node."""

    def __init__(self, node: "CoDBNode") -> None:
        self.node = node
        self.pushes_sent = 0
        self.pushes_received = 0
        self.rows_pushed = 0
        self.rows_absorbed = 0

    # ------------------------------------------------------------------
    # Outbound
    # ------------------------------------------------------------------

    def push_deltas(self, deltas: dict[str, list[Row]]) -> int:
        """Offer *deltas* (``{relation: new rows}``) to dependent
        importers; returns the number of messages sent."""
        node = self.node
        changed = {rel for rel, rows in deltas.items() if rows}
        if not changed:
            return 0
        if not node.wrapper.is_consistent():
            return 0  # §1d: inconsistent data stays local
        sent_messages = 0
        for link in node.links.incoming_dependent_on_relations(changed):
            if link.cache_interest:
                # CUP-style interest-aware propagation: this importer
                # serves cached answers and asked for *invalidations*,
                # not eager rows — ``node.bump_epochs`` (which every
                # caller of push_deltas runs first) already sent the
                # compact notice.  Deliberately do NOT touch the
                # lifetime ``pushed`` memory: the importer's next
                # update or query must still be able to pull these rows.
                # Each withheld push spends the registration's lease —
                # an importer that never refreshes eventually expires
                # and rows flow again (see NodeConfig.interest_lease_events).
                node.pushes_suppressed += 1
                node._spend_interest_lease(link)
                if link.cache_interest:
                    continue
                # The lease just expired: the importer has been told to
                # drop its cached answers — resume pushing rows so it
                # does not silently fall behind from here on.
            # A push has no session to roll back or settle: what it
            # ships is taught as delivered at once.
            fresh, _suppressed = undelivered(
                link, frontier_rows(node.wrapper, link, deltas), None
            )
            if not fresh:
                continue
            try:
                node.endpoint.send(
                    link.remote,
                    PUSH_KIND,
                    {
                        "rule_id": link.rule_id,
                        "rows": [encode_row(row) for row in fresh],
                    },
                )
            except UnknownPeerError:
                continue  # importer has left; its link will be re-wired
            sent_messages += 1
            self.pushes_sent += 1
            self.rows_pushed += len(fresh)
        return sent_messages

    # ------------------------------------------------------------------
    # Inbound
    # ------------------------------------------------------------------

    def on_push_delta(self, message: Message) -> None:
        node = self.node
        rule_id = message.payload["rule_id"]
        link = node.links.outgoing.get(rule_id)
        if link is None:
            return  # rules changed while the push was in flight
        self.pushes_received += 1
        rows = [decode_row(encoded) for encoded in message.payload["rows"]]
        # The shared lifetime fired-set dedups against everything that
        # ever instantiated this rule here — earlier pushes AND any
        # update session — so continuous mode never re-mints nulls.
        fired = link.fired
        fresh_frontier = {
            key: row for row in rows if (key := row_key(row)) not in fired
        }
        fired.update(fresh_frontier)
        facts = link.rule.head_facts(fresh_frontier.values(), node.nulls)
        deltas: dict[str, list[Row]] = {}
        for relation, row in facts:
            if node.config.subsumption_dedup and any(
                isinstance(value, MarkedNull) for value in row
            ):
                if tuple_subsumed(row, node.wrapper._view().relation(relation)):
                    continue
            new_rows = node.wrapper.insert_new(relation, [row])
            if new_rows:
                deltas.setdefault(relation, []).extend(new_rows)
                self.rows_absorbed += len(new_rows)
        if deltas:
            node.bump_epochs(deltas)
            self.push_deltas(deltas)  # cascade onward

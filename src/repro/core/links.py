"""Link state: the paper's incoming/outgoing links and their dependency.

§3: "We call coordination rules *incoming links* at some node, if
these rules are used by some other (acquainted) nodes for importing
data from that given node.  We call coordination rules *outgoing
links* at some node, if that node uses these rules in order to import
data from its acquaintances.  We say that an incoming link is
*dependent on* an outgoing link ... if the head of the outgoing link
reference[s] a relation, which is referenced by a body subgoal of the
incoming link."

Note the perspective: one :class:`CoordinationRule` is an *outgoing*
link at its target (importer) and an *incoming* link at its source.

Two layers of state, split since the DBM became multi-session:

* **Shared (node-global)** — the link *topology* (:class:`LinkTable`,
  :class:`OutgoingLink`, :class:`IncomingLink`) plus each link's
  *lifetime* memory: the outgoing side's ``fired`` set (frontier rows
  that ever instantiated the rule head here — what makes null minting
  idempotent across updates *and* across concurrent sessions) and the
  incoming side's ``pushed`` set plus store ``marks`` — what the link
  has delivered and how far into its body relations that reaches, so
  the next activation serves only the difference.
* **Per session** — activation state, closure cause, and the
  protocol's sent/received dedup sets (:class:`SessionLinkState`,
  grouped per computation in a :class:`LinkSession`).  Every concurrent
  global update and network query gets its own independent copy, so
  interleaved computations cannot close each other's links or starve
  each other's semi-naive dedup.

The shared link objects also carry mirror ``state``/``closed_by``
fields stamped by whichever session last changed them — diagnostics
and single-update tests read those; the per-session state is the
authoritative one.

All row-membership sets here hold *row keys*
(:func:`repro.relational.values.row_key`) rather than raw rows, so set
membership uses the engine's type-strict value identity.  Batches of
frontier rows travel between the functions here as ``{row key: row}``
dicts — the shape the planner's own dedup produces — so a row is keyed
once per hop however many of these sets it is checked against.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

from repro.core.rules import CoordinationRule
from repro.relational.values import Row

#: Link state machine: INACTIVE -(update request)-> OPEN -(closure)-> CLOSED.
INACTIVE = "inactive"
OPEN = "open"
CLOSED = "closed"


def memory_digest(keys: set) -> tuple[int, int]:
    """Order-independent fingerprint of a lifetime row-key set.

    ``(cardinality, crc32 over the sorted key reprs)`` — cheap to
    compute, cheap to ship, and deterministic across processes (reprs,
    not ``hash()``, which PYTHONHASHSEED randomizes).  The rejoin
    handshake compares the rejoiner's restored ``fired`` memory against
    the surviving exporter's ``pushed`` memory per link: in steady
    state the two sides record the same row flow, so equal digests mean
    the rejoiner missed nothing and the exporter's send-dedup can stand;
    any mismatch clears it so the next update conservatively re-ships
    (the importer's ``fired`` set makes over-shipping harmless).
    """
    crc = 0
    for text in sorted(repr(key) for key in keys):
        crc = zlib.crc32(text.encode("utf-8"), crc)
    return (len(keys), crc)


@dataclass
class OutgoingLink:
    """A rule this node uses to import data (node == rule.target)."""

    rule: CoordinationRule

    #: Row keys of frontier rows that ever *fired* this rule here —
    #: instantiated the head, minting the null vector for existential
    #: head variables.  This is the link's **lifetime** memory, shared
    #: by every update session and network query: a frontier row
    #: fires the rule exactly once over the rule's lifetime, which is
    #: what keeps repeated global updates idempotent ("remove from T
    #: those tuples which are already in R", lifted to frontier
    #: granularity) and keeps N concurrent sessions delivering the same
    #: row from re-minting nulls.
    fired: set = field(default_factory=set)
    #: Whether this node has registered CUP-style invalidation interest
    #: upstream on this link (it cached an answer depending on the
    #: rule's head relations).  Cleared when an ``invalidation``
    #: arrives through the link — the next cache fill re-registers,
    #: re-arming the upstream side's notification dedup.
    registered: bool = False
    #: Diagnostic mirror of the most recent session's activation state.
    state: str = INACTIVE
    #: How the mirror closed: "cascade" (paper condition a), "quiescence"
    #: (condition b around cycles) or "failure" (peer churn).
    closed_by: str = ""
    #: Longest update-propagation path observed on this link (mirror).
    longest_path: int = 0

    @property
    def rule_id(self) -> str:
        return self.rule.rule_id

    @property
    def remote(self) -> str:
        """The acquaintance that evaluates the body (rule.source)."""
        return self.rule.source


@dataclass
class IncomingLink:
    """A rule some acquaintance uses to import data from this node
    (node == rule.source)."""

    rule: CoordinationRule

    #: Row keys this node ever *delivered* over this link, under
    #: resend suppression: the link's lifetime sent memory, mirroring
    #: §3's "delete from Ri those tuples which have been already sent"
    #: across computations — the importer's lifetime ``fired`` set
    #: would drop a re-shipped row anyway, so a later session skips it
    #: at the source.  An update session teaches it as it ships (rows
    #: taught by a session that ends in failure are rolled back; see
    #: :meth:`LinkSession.close_incoming`); a network query's session
    #: keeps what it shipped in its taught set and teaches it only when
    #: it ends cleanly (:meth:`LinkSession.settle`).
    pushed: set = field(default_factory=set)
    #: The part of ``pushed`` taught by update sessions still in
    #: flight: their messages may not have arrived yet.  Another
    #: *update* may skip these keys (it carries every session's rows
    #: onward anyway), a *query* may not — it would answer without
    #: rows that are still on the wire — so queries treat them as
    #: undelivered.  Emptied per session by :meth:`LinkSession.settle`.
    unsettled: set = field(default_factory=set)
    #: ``{body relation: store watermark}`` at the last activation that
    #: ended cleanly: every frontier row derivable from rows at or
    #: below the marks is in ``pushed``, so the next activation
    #: evaluates only the tail (:func:`activation_rows`).  Empty = no
    #: marks, evaluate in full.  Reset whenever ``pushed`` shrinks
    #: (:meth:`forget_delivered`), never snapshotted.
    marks: dict = field(default_factory=dict)
    #: How often ``pushed`` shrank.  A computation activated before a
    #: shrink skipped rows that were in ``pushed`` then and may not be
    #: now, so its marks no longer vouch for anything (:meth:`settle`).
    forgets: int = 0
    #: Whether the importer registered CUP-style invalidation interest:
    #: it serves cached answers derived through this link and wants a
    #: compact ``invalidation`` when the link's body changes (it pulls
    #: on a cache miss).  Conservatively reset to
    #: ``False`` — flood — on failure closes and ``peer_down``.
    cache_interest: bool = False
    #: Head relations (importer-side) already invalidated since the
    #: last registration.  One notification per relation per
    #: registration round is enough — the importer is stale either way
    #: until it refreshes and re-registers — and the dedup is what
    #: terminates invalidation cascades around rule cycles.
    notified: set = field(default_factory=set)
    #: Remaining suppression budget of the importer's registration
    #: (interest lease).  Each registration arrives with an event-count
    #: lease; every event this side *suppresses* on the importer's
    #: behalf (a notified-deduped write) spends one unit.  At zero the
    #: lease expires: interest is dropped and a final unconditional
    #: ``invalidation`` tells the importer — an idle cached reader
    #: cannot hold its registration upstream forever.  ``0`` = no lease
    #: (infinite, the pre-lease behaviour).
    lease_remaining: int = 0
    #: Epoch vector of the body relations up to which a network query's
    #: session last served this link in full: set at its activation,
    #: carried across a re-fire that ships the query's own import,
    #: ``None`` until a query serves it.  A registration that finds the
    #: epochs moved since raced a write the importer's fill may lack,
    #: and is answered with an immediate invalidation.
    served_at: tuple | None = None
    #: Diagnostic mirrors (most recent session, see module docstring).
    state: str = INACTIVE
    closed_by: str = ""
    #: Outgoing-link rule ids of this node that this link depends on.
    relevant_outgoing: tuple[str, ...] = ()

    @property
    def rule_id(self) -> str:
        return self.rule.rule_id

    @property
    def remote(self) -> str:
        """The importer the results flow to (rule.target)."""
        return self.rule.target

    def settle(self, delivered: set, activated_at: tuple[int, dict] | None) -> None:
        """A computation that served this link ended cleanly: the keys
        it taught are delivered for good, and the watermarks it was
        activated at (*activated_at*, from :func:`activation_rows`) now
        bound what the next activation must read — later marks win,
        concurrent computations settle in any order."""
        self.unsettled -= delivered
        if activated_at is None or activated_at[0] != self.forgets:
            return
        for relation, mark in activated_at[1].items():
            if mark > self.marks.get(relation, (-1, -1)):
                self.marks[relation] = mark

    def forget_delivered(self, keys: set | None = None) -> None:
        """Shrink the sent memory by *keys* (all of it when ``None``):
        the importer may not hold those rows after all.  The marks
        vouch for everything below them being in ``pushed``, so they go
        too and the next activation evaluates in full."""
        if keys is None:
            self.pushed.clear()
            self.unsettled.clear()
        else:
            self.pushed -= keys
            self.unsettled -= keys
        self.marks = {}
        self.forgets += 1


def undelivered(
    link: IncomingLink,
    rows: dict[tuple, Row],
    taught: set,
    *,
    settled_only: bool = False,
) -> tuple[list[Row], int]:
    """Drop the *rows* (``{row key: row}``) the link already delivered,
    teach the rest.

    Returns ``(rows to ship, rows the send memory kept off the wire)``.
    *taught* is the shipping computation's own record of what it
    taught — what to roll back if it fails, what to settle when it
    ends; rows already in it were shipped by this very computation and
    are dropped without counting as suppressed.

    An update session (``settled_only=False``) skips everything in
    ``pushed`` and teaches it at once, its keys staying ``unsettled``
    until the session ends.  A network query's session
    (``settled_only=True``) skips only settled keys and teaches nothing
    yet: *taught* joins ``pushed`` if the query ends cleanly
    (:meth:`LinkSession.settle`).
    """
    pushed, unsettled = link.pushed, link.unsettled
    to_ship: list[Row] = []
    suppressed = 0
    for key, row in rows.items():
        if key in taught:
            continue
        if key in pushed and not (settled_only and key in unsettled):
            suppressed += 1
            continue
        to_ship.append(row)
        taught.add(key)
        if not settled_only:
            pushed.add(key)
            unsettled.add(key)
    return to_ship, suppressed


def frontier_rows(
    wrapper, link: IncomingLink, deltas: dict[str, list[Row]] | None = None
) -> dict[tuple, Row]:
    """Frontier rows of *link*'s body over *wrapper*'s data, as ``{row
    key: row}`` (values in ``link.rule.frontier()`` order): all of
    them, or — given *deltas*, ``{relation: rows}`` — only those
    derivable from at least one delta row ("substituting R by T'", §3:
    one semi-naive pass per changed body relation)."""
    mapping = link.rule.mapping
    if deltas is None:
        return wrapper.evaluate_mapping_bindings(mapping, rule_key=link.rule_id)
    produced: dict[tuple, Row] = {}
    for relation in sorted(set(deltas) & set(mapping.body_relations())):
        produced.update(
            wrapper.evaluate_mapping_bindings(
                mapping,
                changed_relation=relation,
                delta_rows=deltas[relation],
                rule_key=link.rule_id,
            )
        )
    return produced


def activation_rows(
    wrapper, link: IncomingLink, *, incremental: bool
) -> tuple[dict[tuple, Row], tuple[int, dict], int | None]:
    """Evaluate *link*'s body for an activation.

    Returns ``(frontier rows, activated_at, skipped)``: *activated_at*
    holds the body relations' watermarks taken before the evaluation
    (hand it to :meth:`IncomingLink.settle` on a clean end).  With
    *incremental* and valid marks on the link, only rows inserted
    since those marks are read — the tails are the deltas of a
    semi-naive evaluation — and *skipped* counts the rows left unread
    behind the mark where one stored row is one frontier row
    (single-atom bodies; ``0`` otherwise).  Without marks, or after a
    delete voided one, the body is evaluated in full and *skipped* is
    ``None``.
    """
    relations = link.rule.mapping.body_relations()
    activated_at = (
        link.forgets,
        {relation: wrapper.watermark(relation) for relation in relations},
    )
    tails = None
    if incremental and link.marks:
        tails = {
            relation: wrapper.rows_since(relation, link.marks[relation])
            for relation in relations
        }
        if any(tail is None for tail in tails.values()):
            tails = None
    if tails is None:
        return frontier_rows(wrapper, link), activated_at, None
    skipped = 0
    if len(link.rule.mapping.body) == 1:
        (relation,) = relations
        skipped = wrapper.count(relation) - len(tails[relation])
    return frontier_rows(wrapper, link, tails), activated_at, skipped


class LinkTable:
    """All links of one node, with the dependency relation precomputed."""

    def __init__(self, node_name: str, rules: list[CoordinationRule]) -> None:
        self.node_name = node_name
        self.outgoing: dict[str, OutgoingLink] = {}
        self.incoming: dict[str, IncomingLink] = {}
        for rule in rules:
            if rule.target == node_name:
                self.outgoing[rule.rule_id] = OutgoingLink(rule)
            if rule.source == node_name:
                self.incoming[rule.rule_id] = IncomingLink(rule)
        self._compute_dependencies()

    def _compute_dependencies(self) -> None:
        """Incoming link I depends on outgoing link O iff O's head
        writes a relation read by I's body (both at this node)."""
        for incoming in self.incoming.values():
            body_relations = set(incoming.rule.mapping.body_relations())
            relevant = [
                outgoing.rule_id
                for outgoing in self.outgoing.values()
                if body_relations & set(outgoing.rule.mapping.head_relations())
            ]
            incoming.relevant_outgoing = tuple(relevant)

    # -- views --------------------------------------------------------------

    def acquaintances(self) -> list[str]:
        """Every peer this node needs a pipe with, deterministic order."""
        remotes: dict[str, None] = {}
        for link in self.outgoing.values():
            remotes.setdefault(link.remote)
        for link in self.incoming.values():
            remotes.setdefault(link.remote)
        return list(remotes)

    def incoming_for_target(self, target: str) -> list[IncomingLink]:
        """The incoming links serving one importer."""
        return [l for l in self.incoming.values() if l.remote == target]

    def incoming_dependent_on_relations(
        self, relations: set[str]
    ) -> list[IncomingLink]:
        """Incoming links whose body reads any of *relations*."""
        return [
            link
            for link in self.incoming.values()
            if relations & set(link.rule.mapping.body_relations())
        ]

    def __repr__(self) -> str:
        return (
            f"<LinkTable {self.node_name}: out={sorted(self.outgoing)} "
            f"in={sorted(self.incoming)}>"
        )


@dataclass
class SessionLinkState:
    """One session's volatile state for one link.

    ``seen`` is the §3 dedup set at frontier-row granularity, held as
    row keys: *received* rows on an outgoing link ("we first remove
    from T those tuples which are already in R"), *sent* rows on an
    incoming link ("we delete from Ri those tuples which have been
    already sent").  Each concurrent update owns an independent set, so
    one session's traffic never starves another's — a session always
    re-derives and re-ships everything its own data flow produces.
    A network query's session uses the same state: ``seen``, ``OPEN``
    on the links its requests named, and the taught set.
    """

    state: str = INACTIVE
    closed_by: str = ""
    longest_path: int = 0
    seen: set = field(default_factory=set)
    #: Row keys THIS session taught the shared link's lifetime
    #: ``pushed`` memory (resend suppression; a query teaches them only
    #: at a clean end).  Kept separately so a
    #: failure closure can forget exactly what this session taught:
    #: its messages may never have arrived, and a healed network's
    #: next update must re-ship them (over-resending is safe — the
    #: importer's ``fired`` set dedups; under-resending loses data).
    lifetime_new: set = field(default_factory=set)
    #: Where this session activated the incoming link (the
    #: *activated_at* of :func:`activation_rows`); committed to the
    #: link when the session ends cleanly.
    activated_at: tuple[int, dict] | None = None


class LinkSession:
    """Per-computation view over a node's :class:`LinkTable`.

    Topology (which links exist, who they serve, the dependency
    relation) is read through the bound table; activation state and
    dedup sets live here, one :class:`SessionLinkState` per rule id,
    created lazily.  ``rebind`` follows a runtime rules change (§4):
    states for rules that survived are kept, new rules start INACTIVE.
    """

    def __init__(self, table: LinkTable) -> None:
        self.table = table
        self._outgoing: dict[str, SessionLinkState] = {}
        self._incoming: dict[str, SessionLinkState] = {}

    def rebind(self, table: LinkTable) -> None:
        self.table = table
        # The new table's links start with empty memories: nothing this
        # session taught the old ones is theirs to roll back or settle.
        for state in self._incoming.values():
            state.lifetime_new = set()
            state.activated_at = None

    # -- state access -------------------------------------------------------

    def outgoing_state(self, rule_id: str) -> SessionLinkState:
        state = self._outgoing.get(rule_id)
        if state is None:
            state = self._outgoing[rule_id] = SessionLinkState()
        return state

    def incoming_state(self, rule_id: str) -> SessionLinkState:
        state = self._incoming.get(rule_id)
        if state is None:
            state = self._incoming[rule_id] = SessionLinkState()
        return state

    def open_all_outgoing(self) -> None:
        """Session start: every outgoing link participates."""
        for rule_id, link in self.table.outgoing.items():
            state = self.outgoing_state(rule_id)
            state.state = OPEN
            link.state = OPEN
            link.closed_by = ""

    def close_outgoing(self, rule_id: str, closed_by: str) -> None:
        state = self.outgoing_state(rule_id)
        state.state = CLOSED
        state.closed_by = closed_by
        link = self.table.outgoing.get(rule_id)
        if link is not None:  # mirror for diagnostics / single-update tests
            link.state = CLOSED
            link.closed_by = closed_by

    def close_incoming(self, rule_id: str, closed_by: str) -> None:
        state = self.incoming_state(rule_id)
        state.state = CLOSED
        state.closed_by = closed_by
        link = self.table.incoming.get(rule_id)
        if link is not None:
            link.state = CLOSED
            link.closed_by = closed_by
            if closed_by == "failure":
                self.rollback_taught(rule_id)
                # Conservative cache fallback: the importer may have
                # missed invalidations in flight — drop its registration
                # so the next change floods rows instead of a notice.
                link.cache_interest = False
                link.notified.clear()

    def rollback_taught(self, rule_id: str) -> None:
        """This session's shipments toward the importer may never have
        arrived: forget what it taught the lifetime sent memory so the
        next update re-ships.  Called on failure closes, and again when
        the importer is written off *after* the link already closed
        cleanly — the importer's ``fired`` set makes the re-send
        harmless."""
        state = self.incoming_state(rule_id)
        state.activated_at = None
        link = self.table.incoming.get(rule_id)
        if link is not None and state.lifetime_new:
            link.forget_delivered(state.lifetime_new)
            state.lifetime_new.clear()

    def settle(self, *, teach: bool = False) -> None:
        """The session is over and every message it sent was
        acknowledged: what it taught (and did not roll back) is
        delivered for good — with *teach* it joins the send memory only
        now (:func:`undelivered`'s ``settled_only``) — and its
        activation marks stand."""
        for rule_id, state in self._incoming.items():
            link = self.table.incoming.get(rule_id)
            if link is not None:
                if teach:
                    link.pushed |= state.lifetime_new
                link.settle(state.lifetime_new, state.activated_at)

    # -- paired topology/state views ----------------------------------------

    def outgoing_items(self) -> list[tuple[OutgoingLink, SessionLinkState]]:
        return [
            (link, self.outgoing_state(rule_id))
            for rule_id, link in self.table.outgoing.items()
        ]

    def incoming_items(self) -> list[tuple[IncomingLink, SessionLinkState]]:
        return [
            (link, self.incoming_state(rule_id))
            for rule_id, link in self.table.incoming.items()
        ]

    def incoming_for_target(
        self, target: str
    ) -> list[tuple[IncomingLink, SessionLinkState]]:
        return [
            (link, self.incoming_state(link.rule_id))
            for link in self.table.incoming_for_target(target)
        ]

    def incoming_dependent_on_relations(
        self, relations: set[str]
    ) -> list[tuple[IncomingLink, SessionLinkState]]:
        return [
            (link, self.incoming_state(link.rule_id))
            for link in self.table.incoming_dependent_on_relations(relations)
        ]

    def opened_incoming(self) -> list[tuple[IncomingLink, SessionLinkState]]:
        """The open incoming links, in the order their states were
        made — activation order for a session that makes one only when
        it activates the link (a network query's)."""
        return [
            (link, state)
            for rule_id, state in self._incoming.items()
            if state.state == OPEN
            and (link := self.table.incoming.get(rule_id)) is not None
        ]

    # -- closure conditions --------------------------------------------------

    def all_outgoing_closed(self) -> bool:
        """The node-closure condition: "when all outgoing links of a
        node are in the state 'closed', then the node is also in the
        state 'closed'" (§3).  Vacuously true with no outgoing links."""
        return all(
            self.outgoing_state(rule_id).state == CLOSED
            for rule_id in self.table.outgoing
        )

    def all_incoming_closed(self) -> bool:
        return all(
            self.incoming_state(rule_id).state == CLOSED
            for rule_id in self.table.incoming
        )

    def incoming_ready_to_close(
        self,
    ) -> list[tuple[IncomingLink, SessionLinkState]]:
        """Open incoming links whose relevant outgoing links are all
        closed — the closure-cascade condition of §3, evaluated against
        *this session's* states only."""
        ready = []
        for link in self.table.incoming.values():
            state = self.incoming_state(link.rule_id)
            if state.state != OPEN:
                continue
            if all(
                self.outgoing_state(rule_id).state == CLOSED
                for rule_id in link.relevant_outgoing
            ):
                ready.append((link, state))
        return ready

    def __repr__(self) -> str:
        return (
            f"<LinkSession over {self.table.node_name}: "
            f"out={{{', '.join(f'{r}:{s.state}' for r, s in self._outgoing.items())}}} "
            f"in={{{', '.join(f'{r}:{s.state}' for r, s in self._incoming.items())}}}>"
        )

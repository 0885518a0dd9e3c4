"""The network builder: nodes + transport + super-peer, one object.

This is the top of the public API — the programmatic equivalent of the
demo operator who "start[s] up all the nodes, establish[es]
coordination rules between pairs of nodes, run[s] a set of experiments
and, finally, collect[s] statistical information" (§4).

Requests — global updates *and* network queries — are first-class
sessions: :meth:`CoDBNetwork.submit_global_update` and
:meth:`CoDBNetwork.submit_query` return
:class:`~repro.core.requests.RequestHandle`\\ s that can be awaited
individually (``handle.result(timeout=...)``), streamed in completion
order (:func:`repro.core.requests.as_completed`), partitioned
(:func:`repro.core.requests.wait`) or cancelled before admission.
Completion is event-driven on both transports: nodes signal the
per-network progress condition when a session finishes, and every wait
blocks on that condition (TCP) or steps the simulator's event queue —
no sleep-polling anywhere.

The pre-handle blocking surface survives as thin wrappers:
:meth:`~CoDBNetwork.global_update` and :meth:`~CoDBNetwork.query`
submit and immediately await.

The network also owns the shared
:class:`~repro.relational.planner.PlanRegistry`: super-peer broadcast
installs identical rules on many nodes, and sibling stores adopt each
other's compiled join plans instead of recompiling N times.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from repro.core.node import CoDBNode, NodeConfig
from repro.core.requests import RequestHandle
from repro.core.rulefile import RuleFile
from repro.core.rules import CoordinationRule
from repro.core.statistics import NetworkUpdateReport, aggregate_reports
from repro.core.superpeer import SuperPeer
from repro.errors import ProtocolError
from repro.p2p.ids import IdAuthority
from repro.p2p.inproc import InProcessNetwork, LatencyModel
from repro.p2p.transport import Transport
from repro.relational.conjunctive import ConjunctiveQuery
from repro.relational.planner import PlanRegistry
from repro.relational.schema import DatabaseSchema
from repro.relational.parser import parse_schema
from repro.relational.values import Row
from repro.relational.wrapper import Wrapper


@dataclass
class UpdateOutcome:
    """Everything a benchmark wants to know about one global update."""

    update_id: str
    origin: str
    report: NetworkUpdateReport
    #: Wall time by the transport clock (virtual seconds on the
    #: simulator — deterministic; real seconds over TCP), measured from
    #: this update's submission to the moment its completion was
    #: observed (per handle, even inside a concurrent batch).
    wall_time: float
    #: Transport-level totals for the window, including requests, acks
    #: and completion floods (the statistics module's per-rule numbers
    #: cover result messages only).  Concurrent requests share the
    #: wire, so a batch member's window counts overlapping traffic too.
    transport_messages: int
    transport_bytes: int

    @property
    def result_messages(self) -> int:
        return self.report.total_messages

    @property
    def longest_path(self) -> int:
        return self.report.longest_path

    @property
    def rows_imported(self) -> int:
        return self.report.total_rows_imported


class CoDBNetwork:
    """A coDB network under a single driver object."""

    def __init__(
        self,
        *,
        seed: int = 0,
        transport: Transport | None = None,
        latency: LatencyModel | None = None,
        with_superpeer: bool = True,
        config: NodeConfig | None = None,
        poll_timeout: float = 30.0,
    ) -> None:
        self.transport = transport if transport is not None else InProcessNetwork(
            seed, latency
        )
        self.ids = IdAuthority(seed)
        self.default_config = config
        self.nodes: dict[str, CoDBNode] = {}
        self.rule_file = RuleFile()
        self.poll_timeout = poll_timeout
        self._rule_counter = 0
        #: Shared compiled-plan registry: nodes holding structurally
        #: identical rule bodies (the super-peer broadcast case) adopt
        #: each other's plans instead of recompiling.
        self.plan_registry = PlanRegistry()
        #: In-flight request handles by id, completed event-driven via
        #: the nodes' completion listeners.
        self._handles: dict[str, RequestHandle] = {}
        self.superpeer: SuperPeer | None = None
        if with_superpeer:
            self.superpeer = SuperPeer("superpeer", self.transport, self.ids)

    # ------------------------------------------------------------------
    # Building
    # ------------------------------------------------------------------

    def add_node(
        self,
        name: str,
        schema: DatabaseSchema | str,
        *,
        store: Wrapper | None = None,
        facts: str | dict | None = None,
        config: NodeConfig | None = None,
    ) -> CoDBNode:
        """Create and attach a node; optionally bulk-load facts."""
        if name in self.nodes:
            raise ProtocolError(f"node {name!r} already exists")
        if isinstance(schema, str):
            schema = parse_schema(schema)
        node = CoDBNode(
            name,
            schema,
            self.transport,
            self.ids,
            store=store,
            config=config if config is not None else self.default_config,
        )
        self.nodes[name] = node
        node.wrapper.plan_cache.share_with(
            self.plan_registry, node.wrapper.plan_backend
        )
        node.completion_listeners.append(self._on_node_request_complete)
        if facts is not None:
            node.load_facts(facts)
        return node

    def node(self, name: str) -> CoDBNode:
        try:
            return self.nodes[name]
        except KeyError:
            raise ProtocolError(f"unknown node {name!r}") from None

    def add_rule(self, rule: str | CoordinationRule) -> CoordinationRule:
        """Register one coordination rule (text or object)."""
        if isinstance(rule, str):
            rule = CoordinationRule.from_text(f"r{self._rule_counter}", rule)
        self._rule_counter += 1
        for peer in (rule.target, rule.source):
            if peer not in self.nodes:
                raise ProtocolError(
                    f"rule {rule.rule_id!r} references unknown node {peer!r}"
                )
        self.rule_file.add(rule)
        return rule

    def add_rules(self, rules: Sequence[str | CoordinationRule]) -> None:
        for rule in rules:
            self.add_rule(rule)

    def start(self) -> None:
        """Install the current rule file on every node.

        With a super-peer, the file is *broadcast* (the §4 mechanism)
        and nodes self-configure on receipt; without one, the driver
        installs rules directly.
        """
        if self.superpeer is not None:
            self.superpeer.broadcast_rules(self.rule_file)
            self.run()
        else:
            for node in self.nodes.values():
                node.set_rules(self.rule_file.rules)

    def rejoin_node(self, name: str) -> CoDBNode:
        """Drive a departed or crashed node's re-entry: the node
        re-registers on the transport, handshakes with every surviving
        acquaintance (lifetime-memory digests both ways, conservative
        cache/interest resets), and re-arms its admission queue.  The
        handshake traffic settles with the next :meth:`run` /
        :meth:`drain`."""
        node = self.nodes[name]
        node.rejoin()
        return node

    def rewire(self, rule_file: RuleFile | str) -> None:
        """Replace the network's rules at runtime (§4 dynamic topology)."""
        if isinstance(rule_file, str):
            rule_file = RuleFile.from_text(rule_file)
        self.rule_file = rule_file
        if self.superpeer is not None:
            self.superpeer.broadcast_rules(rule_file)
            self.run()
        else:
            for node in self.nodes.values():
                node.set_rules(rule_file.rules)

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------

    def run(self) -> int:
        """Pump the transport until idle; returns messages delivered."""
        return self.transport.run_until_idle()

    def _wait(self, predicate) -> None:
        """Block until *predicate* holds, driving the network.

        One implementation for both transports — the event-driven
        :meth:`~repro.p2p.transport.Transport.wait_for` — then drain
        the simulator's remaining events (completion-flood tails) so
        blocking entry points leave the virtual network quiescent,
        exactly as the old poll-everything driver did.
        """
        self.transport.wait_for(
            predicate, self.poll_timeout, description="network operation"
        )
        self._settle()

    def _settle(self) -> None:
        """Drain trailing simulator events (no-op on real transports)."""
        if isinstance(self.transport, InProcessNetwork):
            self.transport.run_until_idle()

    def drain(self, timeout: float | None = None) -> None:
        """Block until every tracked in-flight request has completed.

        The persistent-serve shutdown path: a gateway that stopped
        admitting new work calls this to let the storm land before
        stopping the transport.  Raises
        :class:`~repro.errors.RequestTimeoutError` when *timeout*
        (default: the network's ``poll_timeout``) elapses with requests
        still in flight — the caller then decides whether to cancel the
        stragglers or wait again.
        """
        self._settle()
        self.transport.wait_for(
            lambda: all(h.done() for h in list(self._handles.values())),
            self.poll_timeout if timeout is None else timeout,
            description="network drain",
        )
        self._settle()

    # ------------------------------------------------------------------
    # Request completion plumbing
    # ------------------------------------------------------------------

    def _on_node_request_complete(self, kind: str, request_id: str) -> None:
        """A node finished a session: complete the matching handle.

        For updates the handle's predicate requires *every* alive node
        to be done, so the check runs on each node's completion signal
        and first passes on the last one — that instant (virtual time
        on the simulator) is the recorded completion moment.
        """
        handle = self._handles.get(request_id)
        if handle is not None:
            handle.done()

    def _track(self, handle: RequestHandle) -> RequestHandle:
        self._handles[handle.request_id] = handle
        handle.add_done_callback(
            lambda done_handle: self._handles.pop(done_handle.request_id, None)
        )
        # The request may already be complete — an answer-cache hit
        # finishes inside ``submit_query_id``, before the handle exists,
        # so the node's completion signal found nothing to observe.
        # Check once here or purely callback-driven consumers (the
        # service gateway's asyncio bridge) would never see it settle.
        handle.done()
        return handle

    def _update_done_everywhere(self, update_id: str, origin: str) -> bool:
        """The network-wide completion predicate for one update."""
        alive = [n for n in self.nodes.values() if not n.detached]
        if origin in self.nodes:
            origin_node = self.nodes[origin]
            if not origin_node.detached and not origin_node.update_done(
                update_id
            ):
                return False
        return all(
            n.update_done(update_id) or n.stats.report_for(update_id) is None
            for n in alive
        )

    def _update_outcome(self, handle: RequestHandle) -> UpdateOutcome:
        """Aggregate one update's per-node reports (§4's super-peer
        aggregation) into the caller-facing outcome."""
        update_id = handle.request_id
        reports = [
            report
            for n in self.nodes.values()
            if (report := n.stats.report_for(update_id)) is not None
        ]
        origin = handle.origin
        # Assembly only ever runs on a completed handle, so the stamps
        # taken at completion observation are authoritative — 0.0 / 0
        # are legitimate values (an acquaintance-less origin completes
        # at virtual time zero with no traffic).
        return UpdateOutcome(
            update_id=update_id,
            origin=origin,
            report=aggregate_reports(
                update_id,
                origin,
                reports,
                # An empty BFS result means *topology* shows no cut —
                # defer to the union of per-node views so losses the
                # nodes detected (peers they wrote off) still get named.
                unreachable_peers=self._unreachable_from(origin) or None,
            ),
            wall_time=handle.finished_at - handle.started_at,
            transport_messages=handle.messages_after - handle.messages_before,
            transport_bytes=handle.bytes_after - handle.bytes_before,
        )

    def _unreachable_from(self, origin: str) -> list[str] | None:
        """Driver-side reachability: the peers the update CANNOT have
        covered, as seen at aggregation time.

        BFS over the rule topology from *origin*, skipping detached
        (crashed) nodes and edges the transport reports severed by an
        active partition (:meth:`Transport.severed_pairs`).  Whatever
        the rule graph connects to the origin but the BFS cannot reach
        is exactly the severed-or-crashed component — the peers whose
        flow the report would otherwise silently truncate.  Returns
        ``None`` (let per-node local views stand in) when the origin is
        unknown.
        """
        if origin not in self.nodes:
            return None
        severed = self.transport.severed_pairs()
        neighbours: dict[str, set[str]] = {name: set() for name in self.nodes}
        reachable_edges: dict[str, set[str]] = {
            name: set() for name in self.nodes
        }
        for rule in self.rule_file.rules:
            pair = (rule.source, rule.target)
            for a, b in (pair, pair[::-1]):
                if a in neighbours and b in neighbours:
                    neighbours[a].add(b)
                    if (
                        frozenset((a, b)) not in severed
                        and not self.nodes[a].detached
                        and not self.nodes[b].detached
                    ):
                        reachable_edges[a].add(b)

        def component(edges: dict[str, set[str]], start: str) -> set[str]:
            seen = {start}
            frontier = [start]
            while frontier:
                for peer in edges[frontier.pop()]:
                    if peer not in seen:
                        seen.add(peer)
                        frontier.append(peer)
            return seen

        # Only peers the rule graph actually ties to the origin count:
        # a node in a disjoint rule group was never part of this update.
        in_scope = component(neighbours, origin)
        covered = component(reachable_edges, origin)
        return sorted(in_scope - covered)

    # ------------------------------------------------------------------
    # Global updates
    # ------------------------------------------------------------------

    def submit_global_update(
        self, origin: str, *, tenant: str = ""
    ) -> RequestHandle:
        """Submit one global update from *origin*; returns its handle.

        The handle completes when the update has finished at **every**
        alive node (the completion flood fully propagated, so the §4
        statistics are final); ``result()`` returns the
        :class:`UpdateOutcome`.  Under an admission cap
        (``NodeConfig.max_active_sessions``) the update may wait in the
        origin's queue first — ``cancel()`` withdraws it while it does.
        *tenant* tags the submission for the service gateway's
        per-tenant quotas and metrics.
        """
        node = self.node(origin)
        started_at = self.transport.now()
        messages_before = self.transport.stats.messages_sent
        bytes_before = self.transport.stats.bytes_sent
        update_id = node.submit_update_id(tenant=tenant)
        handle = RequestHandle(
            request_id=update_id,
            kind="update",
            origin=origin,
            transport=self.transport,
            is_done=lambda: self._update_done_everywhere(update_id, origin),
            assemble=self._update_outcome,
            try_cancel=lambda: node.cancel_update(update_id),
            started_at=started_at,
            messages_before=messages_before,
            bytes_before=bytes_before,
            tenant=tenant,
        )
        return self._track(handle)

    def global_update(self, origin: str) -> UpdateOutcome:
        """Run one global update from *origin* to completion
        (blocking wrapper over :meth:`submit_global_update`)."""
        handle = self.submit_global_update(origin)
        outcome = handle.result(self.poll_timeout)
        self._settle()
        return outcome

    def lifetime_totals(self) -> dict[str, dict]:
        """Per-node lifetime aggregates (see
        :meth:`~repro.core.statistics.NodeStatistics.lifetime_totals`)."""
        return {
            name: node.stats.lifetime_totals()
            for name, node in self.nodes.items()
        }

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def submit_query(
        self,
        node_name: str,
        query: str | ConjunctiveQuery,
        *,
        mode: str = "network",
        cache: bool | None = None,
        tenant: str = "",
    ) -> RequestHandle:
        """Submit *query* at *node_name*; returns its handle.

        ``mode="network"`` (the default here) runs the §3 query-time
        distributed answering as a managed session; ``handle.result()``
        returns the answer rows.  ``mode="local"`` answers from local
        data immediately and returns an already-completed handle, so
        callers can treat both uniformly.  ``cache`` overrides the
        node's ``NodeConfig.answer_cache`` for this one query (``None``
        inherits it); a network-mode cache hit completes without any
        propagation at all.  *tenant* tags the submission for the
        service gateway's per-tenant quotas and metrics.
        """
        node = self.node(node_name)
        if mode == "local":
            node.stats.note_tenant_submission(tenant, "query")
            rows = node.query(query, cache=cache)
            handle = RequestHandle(
                request_id=self.ids.query_id(),
                kind="query",
                origin=node_name,
                transport=self.transport,
                is_done=lambda: True,
                assemble=lambda _handle: rows,
                started_at=self.transport.now(),
                messages_before=self.transport.stats.messages_sent,
                bytes_before=self.transport.stats.bytes_sent,
                tenant=tenant,
            )
            handle.done()
            return handle
        if mode != "network":
            raise ProtocolError(f"unknown query mode {mode!r}")
        started_at = self.transport.now()
        messages_before = self.transport.stats.messages_sent
        bytes_before = self.transport.stats.bytes_sent
        query_id = node.submit_query_id(query, cache=cache, tenant=tenant)
        handle = RequestHandle(
            request_id=query_id,
            kind="query",
            origin=node_name,
            transport=self.transport,
            is_done=lambda: node.queries.is_done(query_id),
            assemble=lambda _handle: node.network_query_answer(query_id),
            try_cancel=lambda: node.cancel_query(query_id),
            started_at=started_at,
            messages_before=messages_before,
            bytes_before=bytes_before,
            tenant=tenant,
        )
        return self._track(handle)

    def query(
        self,
        node_name: str,
        query: str | ConjunctiveQuery,
        *,
        mode: str = "local",
        cache: bool | None = None,
    ) -> list[Row]:
        """Answer *query* at *node_name* (blocking wrapper).

        ``mode="local"`` reads only local data; ``mode="network"``
        submits a query session and awaits it (see
        :meth:`submit_query` for the handle-returning form).
        """
        node = self.node(node_name)
        if mode == "local":
            return node.query(query, cache=cache)
        if mode != "network":
            raise ProtocolError(f"unknown query mode {mode!r}")
        handle = self.submit_query(node_name, query, mode="network", cache=cache)
        answer = handle.result(self.poll_timeout)
        self._settle()
        assert answer is not None
        return answer

    # ------------------------------------------------------------------
    # Statistics & snapshots
    # ------------------------------------------------------------------

    def collect_statistics(self) -> str:
        """Super-peer statistics sweep; returns the collection id."""
        if self.superpeer is None:
            raise ProtocolError("this network was built without a super-peer")
        collection_id = self.superpeer.request_statistics()
        alive = {name for name, node in self.nodes.items() if not node.detached}
        self._wait(
            lambda: alive
            <= set(self.superpeer.collected_reports(collection_id))
        )
        return collection_id

    def snapshot(self) -> dict[str, dict[str, list[Row]]]:
        """``{node: {relation: sorted rows}}`` for the whole network."""
        return {name: node.snapshot() for name, node in self.nodes.items()}

    def total_rows(self) -> int:
        return sum(node.wrapper.total_rows() for node in self.nodes.values())

    def stop(self) -> None:
        self.transport.stop()

    def __enter__(self) -> "CoDBNetwork":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

"""The statistical module of §4.

"Each node has an additional statistical module.  This module
accumulates various information about global updates such as: total
execution time of an update, number of query result messages received
per coordination rule and the volume of the data in each message,
longest update propagation path, and so on.  During the lifetime of a
network, each node accumulates this information."

"Each node maintains a global update processing report ... The report
includes information about starting and finishing times of an update,
volume of data transferred, which acquaintances have been queried and
to which nodes query results have been sent."

Both paragraphs map one-to-one onto :class:`UpdateReport`.  The
super-peer "processes all incoming statistical messages, aggregates
them and creates a final statistical report" —
:class:`NetworkUpdateReport` and :func:`aggregate_reports`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro._util import format_table

#: Metric naming/export hooks: ``NodeStatistics.lifetime_totals()``
#: key -> ``(prometheus_name, type, help)``.  The service layer's
#: ``/metrics`` endpoint (:mod:`repro.service.metrics`) renders each
#: node's totals through this table, one labelled sample per node;
#: keys absent here fall back to a sanitised ``codb_node_<key>`` gauge,
#: so a new counter added to ``lifetime_totals()`` is exported (and
#: lint-checked) without touching the service layer.
PROMETHEUS_METRICS: dict[str, tuple[str, str, str]] = {
    # §4 update-processing counters
    "updates": ("codb_node_updates_total", "counter",
                "Global updates this node ever served"),
    "open_updates": ("codb_node_open_updates", "gauge",
                     "Update sessions currently in flight at this node"),
    "messages_sent": ("codb_node_messages_sent_total", "counter",
                      "Protocol messages sent by update sessions"),
    "bytes_sent": ("codb_node_bytes_sent_total", "counter",
                   "Bytes sent by update sessions"),
    "messages_received": ("codb_node_messages_received_total", "counter",
                          "Query-result messages received over outgoing links"),
    "bytes_received": ("codb_node_bytes_received_total", "counter",
                       "Bytes received over outgoing links"),
    "rows_imported": ("codb_node_rows_imported_total", "counter",
                      "Rows materialised from acquaintances"),
    "nulls_minted": ("codb_node_nulls_minted_total", "counter",
                     "Marked nulls minted for existential head variables"),
    "rounds": ("codb_node_rounds_total", "counter",
               "Query-result messages processed"),
    "rows_suppressed": ("codb_node_rows_suppressed_total", "counter",
                        "Rows the link send memory kept off the wire"),
    "activations_incremental": (
        "codb_node_activations_incremental_total", "counter",
        "Link activations served from the rows inserted since the last one"),
    "activations_full": (
        "codb_node_activations_full_total", "counter",
        "Link activations that evaluated the whole rule body"),
    "busy_time": ("codb_node_busy_seconds_total", "counter",
                  "Summed per-update processing time (transport clock)"),
    "queries_answered": ("codb_node_queries_answered_total", "counter",
                         "Queries answered (local and network)"),
    "queries_quarantined": (
        "codb_node_queries_quarantined_total", "counter",
        "Network queries this node served nothing to, its store inconsistent"),
    "peak_concurrent_updates": (
        "codb_node_peak_concurrent_updates", "gauge",
        "Most update sessions ever simultaneously open"),
    # fault counters
    "partial_updates": ("codb_node_partial_updates_total", "counter",
                        "Updates that finished partial (lost peers/links)"),
    "messages_resent": ("codb_node_messages_resent_total", "counter",
                        "Bounced messages sent again under their own id"),
    "peers_written_off": ("codb_node_peers_written_off_total", "counter",
                          "Peers written off once their retry budget was spent"),
    # admission counters (NodeConfig.max_active_sessions)
    "sessions_deferred": ("codb_node_sessions_deferred_total", "counter",
                          "Requests that waited in the admission queue"),
    "admission_queue_peak": ("codb_node_admission_queue_peak", "gauge",
                             "Deepest the admission queue ever got"),
    "live_sessions_peak": ("codb_node_live_sessions_peak", "gauge",
                           "Most live engines ever hosted at once"),
    # executor dispatch counters (Wrapper.dispatch_counts)
    "plans_pushdown": ("codb_node_plans_pushdown_total", "counter",
                       "Compiled plans executed as SQL pushdown"),
    "plans_columnar": ("codb_node_plans_columnar_total", "counter",
                       "Compiled plans executed columnar in memory"),
    "plans_row_loop": ("codb_node_plans_row_loop_total", "counter",
                       "Compiled plans executed as row loops"),
    # answer-cache / interest-protocol counters (CoDBNode.cache_counters)
    "cache_hits": ("codb_node_cache_hits_total", "counter",
                   "Answer-cache hits"),
    "cache_misses": ("codb_node_cache_misses_total", "counter",
                     "Answer-cache misses"),
    "cache_invalidations": ("codb_node_cache_invalidations_total", "counter",
                            "Answer-cache entries dropped by epoch bumps"),
    "cache_evictions": ("codb_node_cache_evictions_total", "counter",
                        "Answer-cache LRU evictions"),
    "cache_entries": ("codb_node_cache_entries", "gauge",
                      "Answer-cache entries currently held"),
    "cache_fresh_served": (
        "codb_node_cache_fresh_served_total", "counter",
        "Answer-cache misses answered locally under a fresh network fill"),
    "cache_fills_skipped": (
        "codb_node_cache_fills_skipped_total", "counter",
        "Network fills withheld (unclean query or a racing invalidation)"),
    "invalidations_sent": ("codb_node_invalidations_sent_total", "counter",
                           "Compact invalidation notices sent downstream"),
    "invalidations_received": (
        "codb_node_invalidations_received_total", "counter",
        "Compact invalidation notices received"),
    "invalidation_batches": (
        "codb_node_invalidation_batches_total", "counter",
        "Invalidation messages sent (each carrying >=1 notice)"),
    "invalidations_coalesced": (
        "codb_node_invalidations_coalesced_total", "counter",
        "Notices that shared a batched invalidation message"),
    "interest_leases_expired": (
        "codb_node_interest_leases_expired_total", "counter",
        "Interest registrations expired by their suppression lease"),
}


@dataclass
class RuleTraffic:
    """Per-coordination-rule message statistics at one node."""

    messages_received: int = 0
    bytes_received: int = 0
    #: Volume of each individual result message, in arrival order.
    message_volumes: list[int] = field(default_factory=list)
    rows_received: int = 0
    rows_new: int = 0

    def record(self, volume: int, rows: int, new_rows: int) -> None:
        self.messages_received += 1
        self.bytes_received += volume
        self.message_volumes.append(volume)
        self.rows_received += rows
        self.rows_new += new_rows

    def to_payload(self) -> dict[str, Any]:
        return {
            "messages_received": self.messages_received,
            "bytes_received": self.bytes_received,
            "message_volumes": list(self.message_volumes),
            "rows_received": self.rows_received,
            "rows_new": self.rows_new,
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "RuleTraffic":
        traffic = cls(
            messages_received=payload["messages_received"],
            bytes_received=payload["bytes_received"],
            rows_received=payload["rows_received"],
            rows_new=payload["rows_new"],
        )
        traffic.message_volumes = list(payload["message_volumes"])
        return traffic


@dataclass
class UpdateReport:
    """One node's report for one global update (§4, quoted above)."""

    update_id: str
    node: str
    origin: str
    started_at: float = 0.0
    finished_at: float = 0.0
    status: str = "open"  # open | closed
    #: rule_id -> traffic received over that outgoing link.
    per_rule: dict[str, RuleTraffic] = field(default_factory=dict)
    #: Acquaintances this node sent update requests to.
    queried_acquaintances: list[str] = field(default_factory=list)
    #: Importers this node sent query results to.
    results_sent_to: list[str] = field(default_factory=list)
    messages_sent: int = 0
    bytes_sent: int = 0
    rows_imported: int = 0
    nulls_minted: int = 0
    longest_path: int = 0
    links_closed_by_cascade: int = 0
    links_closed_by_quiescence: int = 0
    links_closed_by_failure: int = 0
    rounds: int = 0  # query-result messages processed
    #: The node served empty results because its local database was
    #: inconsistent (§1d — "local inconsistency does not propagate").
    quarantined: bool = False
    #: Peers this node could not reach during the update (crashed or
    #: severed by a partition), in discovery order.  Non-empty ⇒ the
    #: update is ``partial`` from this node's point of view.
    unreachable_peers: list[str] = field(default_factory=list)
    #: Rows the links' send memory kept off the wire: filtered by the
    #: lifetime ``pushed`` memory, or left unread behind a watermark.
    rows_suppressed: int = 0

    @property
    def duration(self) -> float:
        """Total execution time of the update, at this node."""
        return max(0.0, self.finished_at - self.started_at)

    @property
    def outcome(self) -> str:
        """``"complete"`` when every reachable flow ran to quiescence,
        ``"partial"`` when a peer was lost or a link closed by failure
        — the severed side's data never arrived (the protocol still
        *terminated*; §1's churn claim is about termination, not
        completeness)."""
        if self.unreachable_peers or self.links_closed_by_failure:
            return "partial"
        return "complete"

    def note_unreachable(self, peer: str) -> None:
        if peer not in self.unreachable_peers:
            self.unreachable_peers.append(peer)

    def rule_traffic(self, rule_id: str) -> RuleTraffic:
        return self.per_rule.setdefault(rule_id, RuleTraffic())

    def total_bytes_received(self) -> int:
        return sum(t.bytes_received for t in self.per_rule.values())

    def total_messages_received(self) -> int:
        return sum(t.messages_received for t in self.per_rule.values())

    def to_payload(self) -> dict[str, Any]:
        return {
            "update_id": self.update_id,
            "node": self.node,
            "origin": self.origin,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "status": self.status,
            "per_rule": {k: v.to_payload() for k, v in self.per_rule.items()},
            "queried_acquaintances": list(self.queried_acquaintances),
            "results_sent_to": list(self.results_sent_to),
            "messages_sent": self.messages_sent,
            "bytes_sent": self.bytes_sent,
            "rows_imported": self.rows_imported,
            "nulls_minted": self.nulls_minted,
            "longest_path": self.longest_path,
            "links_closed_by_cascade": self.links_closed_by_cascade,
            "links_closed_by_quiescence": self.links_closed_by_quiescence,
            "links_closed_by_failure": self.links_closed_by_failure,
            "rounds": self.rounds,
            "quarantined": self.quarantined,
            "unreachable_peers": list(self.unreachable_peers),
            "rows_suppressed": self.rows_suppressed,
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "UpdateReport":
        report = cls(
            update_id=payload["update_id"],
            node=payload["node"],
            origin=payload["origin"],
            started_at=payload["started_at"],
            finished_at=payload["finished_at"],
            status=payload["status"],
            queried_acquaintances=list(payload["queried_acquaintances"]),
            results_sent_to=list(payload["results_sent_to"]),
            messages_sent=payload["messages_sent"],
            bytes_sent=payload["bytes_sent"],
            rows_imported=payload["rows_imported"],
            nulls_minted=payload["nulls_minted"],
            longest_path=payload["longest_path"],
            links_closed_by_cascade=payload["links_closed_by_cascade"],
            links_closed_by_quiescence=payload["links_closed_by_quiescence"],
            links_closed_by_failure=payload.get("links_closed_by_failure", 0),
            rounds=payload["rounds"],
            quarantined=payload.get("quarantined", False),
            unreachable_peers=list(payload.get("unreachable_peers", [])),
            rows_suppressed=payload.get("rows_suppressed", 0),
        )
        report.per_rule = {
            k: RuleTraffic.from_payload(v) for k, v in payload["per_rule"].items()
        }
        return report


class NodeStatistics:
    """Lifetime accumulator: every report this node ever produced.

    With concurrent global updates a node holds several *open* reports
    at once — one per active session — so alongside the per-update
    reports this class exposes aggregate (lifetime) numbers.
    """

    def __init__(self, node: str) -> None:
        self.node = node
        self.reports: dict[str, UpdateReport] = {}
        self.queries_answered = 0
        self.network_queries_started = 0
        #: Network-query participations quarantined (§1d): the store
        #: broke a key constraint, so they exported nothing.
        self.queries_quarantined = 0
        #: Bounced messages retried, and peers written off once their
        #: retry budget was spent (:meth:`CoDBNode._on_undeliverable
        #: <repro.core.node.CoDBNode._on_undeliverable>`).
        self.messages_resent = 0
        self.peers_written_off = 0
        #: Rows the send memory kept off the wire on behalf of network
        #: queries (update sessions count theirs in their reports).
        self.query_rows_suppressed = 0
        #: Incoming-link activations, by which path served them: over
        #: the store tail behind the link's watermarks, or in full.
        self.activations_incremental = 0
        self.activations_full = 0
        # Admission-layer metrics (``NodeConfig.max_active_sessions``):
        # how often work waited in the admission queue, how deep the
        # queue got, and the most live engines (update sessions plus
        # query participations) this node ever hosted at once.
        self.sessions_deferred = 0
        self.admission_queue_peak = 0
        self.live_sessions_peak = 0
        #: Zero-argument callable returning the store's executor
        #: dispatch counters (``Wrapper.dispatch_counts``); the node
        #: wires it at construction so ``lifetime_totals`` can show
        #: where compiled plans actually ran.
        self.dispatch_source = None
        #: Zero-argument callable returning the node's answer-cache and
        #: interest-protocol counters (``CoDBNode.cache_counters``),
        #: wired the same way as :attr:`dispatch_source`.
        self.cache_source = None
        #: Per-tenant submission counts: tenant -> kind -> count.
        #: Tagged by the service gateway (``submit_*(tenant=...)``);
        #: untagged driver-script submissions are not recorded.
        self.tenant_submissions: dict[str, dict[str, int]] = {}

    def note_tenant_submission(self, tenant: str, kind: str) -> None:
        """Record one tenant-tagged submission (no-op when untagged)."""
        if not tenant:
            return
        by_kind = self.tenant_submissions.setdefault(tenant, {})
        by_kind[kind] = by_kind.get(kind, 0) + 1

    def note_activation(self, *, incremental: bool) -> None:
        if incremental:
            self.activations_incremental += 1
        else:
            self.activations_full += 1

    def tenant_totals(self) -> dict[str, dict[str, int]]:
        """Per-tenant submission counts (deep copy, scrape-safe)."""
        return {
            tenant: dict(by_kind)
            for tenant, by_kind in self.tenant_submissions.items()
        }

    def open_report(self, update_id: str, origin: str, now: float) -> UpdateReport:
        report = UpdateReport(
            update_id=update_id, node=self.node, origin=origin, started_at=now
        )
        self.reports[update_id] = report
        return report

    def report_for(self, update_id: str) -> UpdateReport | None:
        return self.reports.get(update_id)

    def latest_report(self) -> UpdateReport | None:
        if not self.reports:
            return None
        return next(reversed(self.reports.values()))

    def total_updates(self) -> int:
        return len(self.reports)

    def open_reports(self) -> list[UpdateReport]:
        """Reports of updates still in flight at this node."""
        return [r for r in self.reports.values() if r.status != "closed"]

    def lifetime_totals(self) -> dict[str, Any]:
        """Aggregate numbers across every update this node ever served.

        Includes the store's executor dispatch counters (one stat per
        dispatch case: ``plans_pushdown`` / ``plans_columnar`` /
        ``plans_row_loop``) when a :attr:`dispatch_source` is wired.
        """
        reports = list(self.reports.values())
        totals = {
            "updates": len(reports),
            "open_updates": sum(1 for r in reports if r.status != "closed"),
            "messages_sent": sum(r.messages_sent for r in reports),
            "bytes_sent": sum(r.bytes_sent for r in reports),
            "messages_received": sum(
                r.total_messages_received() for r in reports
            ),
            "bytes_received": sum(r.total_bytes_received() for r in reports),
            "rows_imported": sum(r.rows_imported for r in reports),
            "nulls_minted": sum(r.nulls_minted for r in reports),
            "rounds": sum(r.rounds for r in reports),
            "rows_suppressed": self.query_rows_suppressed
            + sum(r.rows_suppressed for r in reports),
            "activations_incremental": self.activations_incremental,
            "activations_full": self.activations_full,
            "partial_updates": sum(
                1 for r in reports if r.outcome == "partial"
            ),
            "unreachable_peers": sorted(
                {p for r in reports for p in r.unreachable_peers}
            ),
            "busy_time": sum(r.duration for r in reports),
            "peak_concurrent_updates": peak_concurrency(reports),
            "queries_answered": self.queries_answered,
            "queries_quarantined": self.queries_quarantined,
            "messages_resent": self.messages_resent,
            "peers_written_off": self.peers_written_off,
            "sessions_deferred": self.sessions_deferred,
            "admission_queue_peak": self.admission_queue_peak,
            "live_sessions_peak": self.live_sessions_peak,
        }
        if self.dispatch_source is not None:
            totals.update(self.dispatch_source())
        if self.cache_source is not None:
            totals.update(self.cache_source())
        return totals


@dataclass
class NetworkUpdateReport:
    """The super-peer's "final statistical report" for one update."""

    update_id: str
    origin: str
    node_reports: dict[str, UpdateReport]
    #: The peers the *driver's* reachability check found severed from
    #: the origin (exactly the cut component), when it ran one; falls
    #: back to the union of per-node local views otherwise.
    unreachable_peers: list[str] = field(default_factory=list)

    @property
    def outcome(self) -> str:
        """Network-level verdict: ``"partial"`` when any peer was
        unreachable or any node saw a failure-closed link."""
        if self.unreachable_peers:
            return "partial"
        if any(
            r.outcome == "partial" for r in self.node_reports.values()
        ):
            return "partial"
        return "complete"

    @property
    def wall_time(self) -> float:
        """Total execution time: first start to last finish, network-wide."""
        starts = [r.started_at for r in self.node_reports.values()]
        ends = [r.finished_at for r in self.node_reports.values()]
        if not starts:
            return 0.0
        return max(ends) - min(starts)

    @property
    def total_messages(self) -> int:
        return sum(
            r.total_messages_received() for r in self.node_reports.values()
        )

    @property
    def total_bytes(self) -> int:
        return sum(r.total_bytes_received() for r in self.node_reports.values())

    @property
    def total_rows_imported(self) -> int:
        return sum(r.rows_imported for r in self.node_reports.values())

    @property
    def total_nulls_minted(self) -> int:
        return sum(r.nulls_minted for r in self.node_reports.values())

    @property
    def longest_path(self) -> int:
        """Longest update propagation path anywhere in the network."""
        return max(
            (r.longest_path for r in self.node_reports.values()), default=0
        )

    def messages_per_rule(self) -> dict[str, int]:
        """Aggregated "query result messages received per coordination
        rule" (§4)."""
        totals: dict[str, int] = {}
        for report in self.node_reports.values():
            for rule_id, traffic in report.per_rule.items():
                totals[rule_id] = totals.get(rule_id, 0) + traffic.messages_received
        return dict(sorted(totals.items()))

    def volume_per_rule(self) -> dict[str, int]:
        totals: dict[str, int] = {}
        for report in self.node_reports.values():
            for rule_id, traffic in report.per_rule.items():
                totals[rule_id] = totals.get(rule_id, 0) + traffic.bytes_received
        return dict(sorted(totals.items()))

    def message_volumes(self) -> list[int]:
        """Every individual result-message volume, network-wide."""
        volumes: list[int] = []
        for report in self.node_reports.values():
            for traffic in report.per_rule.values():
                volumes.extend(traffic.message_volumes)
        return volumes

    def format(self) -> str:
        """Human-readable final report (what the demo's super-peer shows)."""
        rows = []
        for name in sorted(self.node_reports):
            report = self.node_reports[name]
            rows.append(
                [
                    name,
                    f"{report.duration:.6f}",
                    report.total_messages_received(),
                    report.total_bytes_received(),
                    report.rows_imported,
                    report.nulls_minted,
                    report.longest_path,
                ]
            )
        table = format_table(
            ["node", "duration_s", "msgs_recv", "bytes_recv", "rows_new", "nulls", "longest_path"],
            rows,
            title=(
                f"global update {self.update_id} (origin {self.origin}): "
                f"outcome={self.outcome} wall={self.wall_time:.6f}s "
                f"msgs={self.total_messages} "
                f"bytes={self.total_bytes} longest_path={self.longest_path}"
            ),
        )
        if self.unreachable_peers:
            table += f"\nunreachable: {', '.join(sorted(self.unreachable_peers))}"
        return table


def aggregate_reports(
    update_id: str,
    origin: str,
    reports: list[UpdateReport],
    *,
    unreachable_peers: list[str] | None = None,
) -> NetworkUpdateReport:
    """The super-peer aggregation step (§4).

    ``unreachable_peers`` is the driver's reachability verdict (exactly
    the component severed from the origin); when the driver has none,
    the union of per-node local views stands in — correct for crashes
    (only survivors report), possibly naming both sides of a cut for
    partitions whose far-side reports are also collected.
    """
    if unreachable_peers is None:
        unreachable_peers = sorted(
            {peer for report in reports for peer in report.unreachable_peers}
        )
    return NetworkUpdateReport(
        update_id=update_id,
        origin=origin,
        node_reports={report.node: report for report in reports},
        unreachable_peers=list(unreachable_peers),
    )


def peak_concurrency(reports: list[UpdateReport]) -> int:
    """Maximum number of updates simultaneously open, by report spans.

    Sweep-line over ``[started_at, finished_at)`` intervals (an open
    report counts as unbounded).  This is the aggregate the concurrent-
    update benchmarks quote: how much overlap actually happened.
    """
    events: list[tuple[float, int]] = []
    for report in reports:
        events.append((report.started_at, 1))
        if report.status == "closed" and report.finished_at >= report.started_at:
            events.append((report.finished_at, -1))
        # still-open reports get no close event and stay counted
    peak = 0
    current = 0
    # Close events sort before open events at the same instant, so
    # back-to-back sequential updates (finish == next start) count as
    # concurrency 1, not 2.
    for _, delta in sorted(events, key=lambda e: (e[0], e[1])):
        current += delta
        peak = max(peak, current)
    return peak

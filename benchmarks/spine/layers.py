"""Count-based layer metrics shared by the two update workloads.

Everything here is read from counters the system already keeps —
``UpdateOutcome.report`` (the paper's §4 statistics), ``TransportStats``
and the stores' plan-cache / dispatch counters — after the timed
operation, so it costs the measurement nothing.
"""

from __future__ import annotations


class UpdateTally:
    """Accumulates one repetition's global updates."""

    def __init__(self) -> None:
        self.ops = 0
        self.rows_imported = 0
        self.nulls_minted = 0
        self.rows_suppressed = 0
        self.rounds = 0
        self.result_msgs = 0
        self.rules_with_traffic = 0
        self.volume_bytes = 0
        self.longest_path = 0
        self.messages = 0
        self.bytes = 0
        self.acks = 0
        self.plan_hits = 0
        self.plan_lookups = 0
        self.plans_columnar = 0
        self.plans_run = 0

    def add_outcome(self, outcome) -> None:
        """One finished update (an ``UpdateOutcome``)."""
        report = outcome.report
        self.ops += 1
        self.rows_imported += report.total_rows_imported
        self.nulls_minted += report.total_nulls_minted
        self.result_msgs += report.total_messages
        self.rules_with_traffic += len(report.messages_per_rule())
        self.volume_bytes += sum(report.message_volumes())
        self.longest_path = max(self.longest_path, report.longest_path)
        self.messages += outcome.transport_messages
        self.bytes += outcome.transport_bytes
        for node_report in report.node_reports.values():
            self.rows_suppressed += node_report.rows_suppressed
            self.rounds += node_report.rounds

    def add_network(self, net) -> None:
        """A network this repetition is done with."""
        self.acks += net.transport.stats.by_kind.get("ack", 0)
        for node in net.nodes.values():
            cache = node.wrapper.plan_cache
            self.plan_hits += cache.hits
            self.plan_lookups += cache.hits + cache.misses + cache.replans
            dispatch = node.wrapper.dispatch_counts()
            self.plans_columnar += dispatch["plans_columnar"]
            self.plans_run += sum(dispatch.values())

    def counts(self) -> dict[str, int]:
        """The exact counters that must repeat across repetitions."""
        return {
            "messages": self.messages,
            "bytes": self.bytes,
            "rows_imported": self.rows_imported,
            "nulls_minted": self.nulls_minted,
            "rounds": self.rounds,
            "result_msgs": self.result_msgs,
            "acks": self.acks,
        }

    def layer(self) -> dict[str, float]:
        ops = self.ops
        return {
            "relational.planner.plan_cache_hit_frac": self.plan_hits
            / max(1, self.plan_lookups),
            "relational.executor.columnar_frac": self.plans_columnar
            / max(1, self.plans_run),
            "core.update.rows_imported_per_op": self.rows_imported / ops,
            "core.update.rows_suppressed_per_op": self.rows_suppressed / ops,
            "core.update.rounds_per_op": self.rounds / ops,
            "core.update.result_msgs_per_rule": self.result_msgs
            / max(1, self.rules_with_traffic),
            "core.update.volume_per_msg_mean_b": self.volume_bytes
            / max(1, self.result_msgs),
            "core.update.longest_path": float(self.longest_path),
            "core.termination.ack_msgs_per_op": self.acks / ops,
            "core.termination.ack_frac": self.acks / max(1, self.messages),
            "p2p.messages.msgs_per_op": self.messages / ops,
            "p2p.messages.bytes_per_msg": self.bytes / max(1, self.messages),
        }

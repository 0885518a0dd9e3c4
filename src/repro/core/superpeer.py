"""The super-peer of the demo (§4).

"We provide some peer (called super-peer) with some additional
functionalities.  In particular, that peer can read coordination rules
for all peers from a file and broadcast this file to all peers on the
network. ... Thus, a super-peer can dynamically change the network
topology at runtime. ... A super-peer has the possibility to collect,
at any given time, statistical information from all nodes on the
network.  Then, the super-peer processes all incoming statistical
messages, aggregates them and creates a final statistical report."

The super-peer is an ordinary peer on the transport — it has no
database and no coordination rules of its own.
"""

from __future__ import annotations

from repro.core.rulefile import RuleFile
from repro.core.statistics import (
    NetworkUpdateReport,
    UpdateReport,
    aggregate_reports,
)
from repro.errors import StatisticsError
from repro.p2p.endpoint import Endpoint
from repro.p2p.ids import IdAuthority
from repro.p2p.messages import Message
from repro.p2p.transport import Transport


class SuperPeer:
    """Rule broadcasting + statistics collection (§4)."""

    def __init__(
        self, name: str, transport: Transport, ids: IdAuthority
    ) -> None:
        self.name = name
        self.endpoint = Endpoint(name, transport, ids)
        #: collection_id -> node -> list of reports.
        self._collections: dict[str, dict[str, list[UpdateReport]]] = {}
        self._queries_answered: dict[str, dict[str, int]] = {}
        #: collection_id -> node -> answer-cache counters (hits,
        #: misses, invalidations — the CUP-style
        #: read-side statistics the nodes report alongside §4's).
        self._cache_counters: dict[str, dict[str, dict[str, int]]] = {}
        self.rules_broadcasts = 0
        self.endpoint.on("stats_response", self._on_stats_response)

    # ------------------------------------------------------------------
    # Rule-file broadcasting (dynamic topology control)
    # ------------------------------------------------------------------

    def broadcast_rules(self, rule_file: RuleFile | str) -> int:
        """Broadcast *rule_file* to every peer; returns the fan-out.

        Each receiving node keeps only its relevant rules, which are
        its links, so successive broadcasts change the live topology.
        """
        if isinstance(rule_file, str):
            rule_file = RuleFile.from_text(rule_file)
        self.rules_broadcasts += 1
        return self.endpoint.transport.broadcast(
            self.name, "rules_file", rule_file.to_payload()
        )

    # ------------------------------------------------------------------
    # Statistics collection
    # ------------------------------------------------------------------

    def request_statistics(self) -> str:
        """Ask every node for its accumulated reports; returns the
        collection id.  Drive the transport, then call
        :meth:`aggregate` / :meth:`collected_reports`."""
        collection_id = self.endpoint.ids.message_id()
        self._collections[collection_id] = {}
        self._queries_answered[collection_id] = {}
        self._cache_counters[collection_id] = {}
        self.endpoint.transport.broadcast(
            self.name, "stats_request", {"collection_id": collection_id}
        )
        return collection_id

    def _on_stats_response(self, message: Message) -> None:
        collection_id = message.payload.get("collection_id", "")
        collection = self._collections.get(collection_id)
        if collection is None:
            return
        node = message.payload["node"]
        collection[node] = [
            UpdateReport.from_payload(payload)
            for payload in message.payload.get("reports", ())
        ]
        self._queries_answered[collection_id][node] = int(
            message.payload.get("queries_answered", 0)
        )
        cache = message.payload.get("cache")
        if isinstance(cache, dict):
            self._cache_counters[collection_id][node] = {
                key: int(value) for key, value in cache.items()
            }

    def collected_reports(self, collection_id: str) -> dict[str, list[UpdateReport]]:
        try:
            return self._collections[collection_id]
        except KeyError:
            raise StatisticsError(
                f"unknown statistics collection {collection_id!r}"
            ) from None

    def responding_nodes(self, collection_id: str) -> list[str]:
        return sorted(self.collected_reports(collection_id))

    def cache_counters(self, collection_id: str) -> dict[str, dict[str, int]]:
        """Per-node answer-cache counters from one collection round."""
        try:
            return self._cache_counters[collection_id]
        except KeyError:
            raise StatisticsError(
                f"unknown statistics collection {collection_id!r}"
            ) from None

    def network_cache_totals(self, collection_id: str) -> dict[str, int]:
        """Network-wide sums of the per-node answer-cache counters."""
        totals: dict[str, int] = {}
        for counters in self.cache_counters(collection_id).values():
            for key, value in counters.items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def aggregate(
        self, collection_id: str, update_id: str
    ) -> NetworkUpdateReport:
        """The "final statistical report" for one update (§4)."""
        reports = []
        origin = ""
        for node_reports in self.collected_reports(collection_id).values():
            for report in node_reports:
                if report.update_id == update_id:
                    reports.append(report)
                    origin = report.origin or origin
        if not reports:
            raise StatisticsError(
                f"no node reported anything for update {update_id!r}"
            )
        return aggregate_reports(update_id, origin, reports)

    def final_report(self, collection_id: str, update_id: str) -> str:
        return self.aggregate(collection_id, update_id).format()

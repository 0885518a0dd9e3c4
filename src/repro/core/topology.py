"""Topology discovery.

"In addition to global updates handling and query answering at a node,
coDB supports a topology discovery algorithm" (§3), and the UI shows
"the other nodes it has pipes with, and w.r.t. which nodes it has
incoming and outgoing links" (§4).  A node has a pipe with exactly the
peers it shares a coordination rule with (§2-3: a pipe no rule is
assigned to is closed), so its pipe neighbours are its link table's
acquaintances.

Protocol: the initiator floods ``topology_request`` to its
acquaintances (dedup by discovery id); every reached node replies
*directly* to the initiator with its local view — its acquaintances
(the ``"pipes"`` key of the reply) plus its incoming and outgoing rule
edges.  The initiator aggregates replies into a :class:`TopologyView`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.p2p.messages import Message

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.node import CoDBNode


@dataclass
class TopologyView:
    """Aggregated picture of the network, as one node discovered it."""

    discovery_id: str
    initiator: str
    #: Node name -> pipe neighbours (its acquaintances).
    pipes: dict[str, list[str]] = field(default_factory=dict)
    #: Rule edges (rule_id, source, target) — data flows source→target.
    rule_edges: list[tuple[str, str, str]] = field(default_factory=list)

    def nodes(self) -> list[str]:
        names: dict[str, None] = {}
        for node, neighbours in self.pipes.items():
            names.setdefault(node)
            for neighbour in neighbours:
                names.setdefault(neighbour)
        for _, source, target in self.rule_edges:
            names.setdefault(source)
            names.setdefault(target)
        return sorted(names)

    def edge_count(self) -> int:
        return len(self.rule_edges)

    def to_networkx(self):
        """The rule-edge digraph as a :mod:`networkx` ``DiGraph``.

        Node analysis scripts (and the workloads package) use networkx;
        the core protocol never does.
        """
        import networkx as nx

        graph = nx.DiGraph()
        graph.add_nodes_from(self.nodes())
        for rule_id, source, target in self.rule_edges:
            graph.add_edge(source, target, rule_id=rule_id)
        return graph


class TopologyDiscovery:
    """Topology discovery protocol state for one node."""

    def __init__(self, node: "CoDBNode") -> None:
        self.node = node
        self.views: dict[str, TopologyView] = {}
        self._seen: set[str] = set()
        node.endpoint.on("topology_request", self._on_request)
        node.endpoint.on("topology_response", self._on_response)

    def start(self) -> str:
        """Begin discovery; returns the discovery id.  Drive the
        transport, then read :meth:`view`."""
        node = self.node
        with node.input():
            discovery_id = node.endpoint.ids.message_id()
            self._seen.add(discovery_id)
            self.views[discovery_id] = TopologyView(
                discovery_id=discovery_id, initiator=node.name
            )
            self._absorb(discovery_id, self._local_view())
            for remote in node.links.acquaintances():
                node.emit(
                    remote,
                    "topology_request",
                    {"discovery_id": discovery_id, "initiator": node.name},
                )
        return discovery_id

    def view(self, discovery_id: str) -> TopologyView:
        return self.views[discovery_id]

    # ------------------------------------------------------------------

    def _local_view(self) -> dict[str, Any]:
        node = self.node
        return {
            "node": node.name,
            "pipes": node.links.acquaintances(),
            "outgoing": [
                [link.rule_id, link.remote, node.name]
                for link in node.links.outgoing.values()
            ],
            "incoming": [
                [link.rule_id, node.name, link.remote]
                for link in node.links.incoming.values()
            ],
        }

    def _on_request(self, message: Message) -> None:
        discovery_id = message.payload["discovery_id"]
        if discovery_id in self._seen:
            return
        self._seen.add(discovery_id)
        initiator = message.payload["initiator"]
        self.node.emit(
            initiator, "topology_response",
            {"discovery_id": discovery_id, **self._local_view()},
        )
        for remote in self.node.links.acquaintances():
            if remote != message.sender:
                self.node.emit(
                    remote,
                    "topology_request",
                    {"discovery_id": discovery_id, "initiator": initiator},
                )

    def _on_response(self, message: Message) -> None:
        discovery_id = message.payload["discovery_id"]
        if discovery_id in self.views:
            self._absorb(discovery_id, message.payload)

    def _absorb(self, discovery_id: str, payload: dict[str, Any]) -> None:
        view = self.views[discovery_id]
        view.pipes[payload["node"]] = list(payload["pipes"])
        for rule_id, source, target in payload["outgoing"]:
            edge = (str(rule_id), str(source), str(target))
            if edge not in view.rule_edges:
                view.rule_edges.append(edge)
        for rule_id, source, target in payload["incoming"]:
            edge = (str(rule_id), str(source), str(target))
            if edge not in view.rule_edges:
                view.rule_edges.append(edge)

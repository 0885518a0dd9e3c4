"""The burst invariant: how deliveries are grouped changes nothing.

Franconi et al.'s fix-point does not depend on how message deliveries
are grouped, which is what licenses relaying bursts instead of single
messages — and what lets any transport split a burst anywhere.
Hypothesis draws small networks (chains, trees, cycles, mutual
imports, with and without existential heads) and runs the same global
update three ways on the simulator: every burst delivered whole, every
burst cut at random points, every message alone.  Each run must end in
the centralised fix-point up to a renaming of marked nulls, with every
Dijkstra–Scholten deficit paid and no session left behind.
"""

from __future__ import annotations

import random

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro import CoDBNetwork, NodeConfig
from repro.baselines import CentralizedExchange
from repro.p2p.inproc import InProcessNetwork
from repro.relational.containment import rows_equal_up_to_nulls

SCHEMA = "item(k: int)\ntag(k: int, w)"


class SplittingNetwork(InProcessNetwork):
    """Cuts every burst after each message with probability *cut*."""

    def __init__(self, seed: int, cut: float) -> None:
        super().__init__(seed)
        self.cut = cut
        self.cuts = random.Random(seed)

    def send_burst(self, messages):
        start = 0
        for end in range(1, len(messages) + 1):
            if end == len(messages) or self.cuts.random() < self.cut:
                super().send_burst(messages[start:end])
                start = end


@st.composite
def networks(draw):
    """``(size, import edges, existential edges, data, origin, batch)``;
    edge ``(i, j)`` means ``Ni`` imports from ``Nj``.  Every shape is
    connected, so the update flood reaches every node."""
    size = draw(st.integers(min_value=2, max_value=5))
    shape = draw(st.sampled_from(["chain", "tree", "cycle", "mutual"]))
    if shape == "tree":
        edges = {
            (draw(st.integers(min_value=0, max_value=i - 1)), i)
            for i in range(1, size)
        }
    else:
        edges = {(i, i + 1) for i in range(size - 1)}
        if shape == "cycle":
            edges.add((size - 1, 0))
        if shape == "mutual":
            edges |= {(j, i) for i, j in edges}
    for i in range(size):  # a few chords on top
        for j in range(size):
            if i != j and draw(st.integers(min_value=0, max_value=5)) == 0:
                edges.add((i, j))
    edges = sorted(edges)
    existential = [edge for edge in edges if draw(st.booleans())]
    data = {
        i: draw(st.lists(st.integers(0, 9), max_size=5, unique=True))
        for i in range(size)
    }
    origin = draw(st.integers(min_value=0, max_value=size - 1))
    batch = draw(st.integers(min_value=1, max_value=3))
    return size, edges, existential, data, origin, batch


def build(description, transport) -> CoDBNetwork:
    size, edges, existential, data, _origin, batch = description
    net = CoDBNetwork(
        seed=3,
        transport=transport,
        with_superpeer=False,
        config=NodeConfig(batch_rows=batch),
    )
    for i in range(size):
        net.add_node(f"N{i}", SCHEMA, facts={"item": [(k,) for k in data[i]]})
    for i, j in edges:
        net.add_rule(f"N{i}:item(k) <- N{j}:item(k)")
    for i, j in existential:
        net.add_rule(f"N{i}:tag(k, w) <- N{j}:item(k)")
    net.start()
    return net


def run_to_quiescence(description, transport) -> CoDBNetwork:
    net = build(description, transport)
    outcome = net.global_update(f"N{description[4]}")
    net.run()
    assert outcome.report.outcome == "complete"
    assert net.transport.pending() == 0
    for name, node in net.nodes.items():
        assert not node.updates.sessions, name
        assert not node.admission.live, name
        assert node.termination.deficit(outcome.update_id) == 0, name
        assert not node.termination.is_engaged(outcome.update_id), name
        assert not node._owed_acks, name
    return net


@given(networks(), st.integers(min_value=0, max_value=2**16))
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_whole_split_and_single_deliveries_reach_the_centralised_fixpoint(
    description, seed
):
    reference = build(description, InProcessNetwork(seed))
    truth = CentralizedExchange.for_network(reference).run_for_network(reference)
    runs = {
        "whole": run_to_quiescence(description, InProcessNetwork(seed)),
        "split": run_to_quiescence(description, SplittingNetwork(seed, 0.5)),
        "single": run_to_quiescence(description, SplittingNetwork(seed, 1.0)),
    }
    for label, net in runs.items():
        for name, node in net.nodes.items():
            expected = truth.node_snapshot(name, node.wrapper.schema)
            for relation, rows in node.snapshot().items():
                assert rows_equal_up_to_nulls(rows, expected[relation]), (
                    label,
                    name,
                    relation,
                    description,
                )
    # Grouping deliveries is what saves acknowledgements.
    acks = {
        label: net.transport.stats.by_kind.get("ack", 0)
        for label, net in runs.items()
    }
    engaging = sum(
        count
        for kind, count in runs["single"].transport.stats.by_kind.items()
        if kind in ("update_request", "query_result", "link_closed")
    )
    assert acks["single"] == engaging  # alone, every message costs its own ack
    assert acks["whole"] <= sum(
        count
        for kind, count in runs["whole"].transport.stats.by_kind.items()
        if kind in ("update_request", "query_result", "link_closed")
    )

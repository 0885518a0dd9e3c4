"""End-to-end global updates on SQLite-backed topologies.

Cross-backend regression net: the same workload blueprints from
:mod:`repro.workloads.topologies` run once on the in-memory store and
once with every node on :class:`SqliteStore` (pushdown on), and every
node's final instance must match.  This is the test that catches what
the unit-level differential harness cannot: ingest batching, sent/
received-set interaction, delta plans fed by real ``query_result``
messages, and closure ordering.

Also pinned here: the batched-ingest contract — one ``insert_new``
call per delivered run of ``query_result`` messages, not one per
message or per row.
"""

import pytest
from test_burst_invariant import SplittingNetwork

from repro.core.node import NodeConfig
from repro.relational.wrapper import SqliteStore
from repro.workloads.topologies import chain, grid, ring, star, tree

BLUEPRINTS = {
    "chain-4": chain(4),
    "ring-4": ring(4),
    "star-3": star(3),
    "tree-2x2": tree(2, 2),
    "grid-2x3": grid(2, 3),
}


def run_update(blueprint, store_factory=None, config=None):
    network = blueprint.build(
        seed=9,
        tuples_per_node=25,
        overlap=0.3,
        store_factory=store_factory,
        config=config,
    )
    network.global_update(blueprint.origin)
    return network


@pytest.mark.parametrize("name", sorted(BLUEPRINTS))
def test_sqlite_topology_matches_memory_backend(name):
    blueprint = BLUEPRINTS[name]
    memory_net = run_update(blueprint)
    sqlite_net = run_update(blueprint, store_factory=SqliteStore)
    pushdowns = 0
    for spec in blueprint.nodes:
        assert (
            sqlite_net.node(spec.name).snapshot()
            == memory_net.node(spec.name).snapshot()
        ), f"{name}: node {spec.name} diverged between backends"
        pushdowns += sqlite_net.node(spec.name).wrapper.plans_pushdown
    # The SQLite run must actually have pushed plans down — otherwise
    # this test silently degrades to the fallback path.
    assert pushdowns > 0, f"{name}: no plan was pushed down"


def test_sqlite_topology_matches_memory_with_message_batching():
    # batch_rows splits results across several query_result messages;
    # each message must be ingested as one batch without changing the
    # fixpoint.
    blueprint = BLUEPRINTS["ring-4"]
    config = NodeConfig(batch_rows=7)
    memory_net = run_update(blueprint, config=config)
    sqlite_net = run_update(blueprint, store_factory=SqliteStore, config=config)
    for spec in blueprint.nodes:
        assert (
            sqlite_net.node(spec.name).snapshot()
            == memory_net.node(spec.name).snapshot()
        )


class TestIngestBatching:
    """ingest_results makes one insert_new call per delivered run."""

    def _spy(self, node):
        calls = []
        original = node.wrapper.insert_new

        def spying(relation, rows):
            rows = list(rows)
            calls.append((relation, len(rows)))
            return original(relation, rows)

        node.wrapper.insert_new = spying
        return calls

    def test_one_insert_new_call_per_query_result(self):
        blueprint = chain(2)
        network = blueprint.build(seed=5, tuples_per_node=40)
        calls = self._spy(network.node("N0"))
        network.global_update("N0")
        # One unbounded query_result message from N1 carrying all 40
        # frontier rows -> exactly one insert_new call with 40 rows.
        assert calls == [("item", 40)]

    def test_batched_messages_of_one_delivery_get_one_call(self):
        blueprint = chain(2)
        network = blueprint.build(
            seed=5, tuples_per_node=40, config=NodeConfig(batch_rows=15)
        )
        calls = self._spy(network.node("N0"))
        network.global_update("N0")
        # 40 rows split 15/15/10 arrive in one burst: one run, one T.
        assert calls == [("item", 40)]
        assert network.node("N0").wrapper.count("item") == 40 + 40  # own + imported

    def test_messages_delivered_alone_get_one_call_each(self):
        blueprint = chain(2)
        network = blueprint.build(
            seed=5,
            tuples_per_node=40,
            config=NodeConfig(batch_rows=15),
            transport=SplittingNetwork(5, 1.0),
        )
        calls = self._spy(network.node("N0"))
        network.global_update("N0")
        # Every message its own delivery: every message its own run.
        assert calls == [("item", 15), ("item", 15), ("item", 10)]
        assert network.node("N0").wrapper.count("item") == 40 + 40

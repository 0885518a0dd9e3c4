"""Randomized differential test: N concurrent updates ≡ sequential.

The correctness anchor of the multi-session DBM: with monotone
coordination rules and marked-null subsumption, N ≥ 3 concurrent
global updates from distinct origins must leave every node's database
equal — up to a renaming of marked nulls — to a sequential execution
of the same updates.  Checked on the deterministic simulator and over
real TCP (true thread parallelism), on acyclic chains and on cycles
closed by quiescence, over randomized data and randomized existential
"sink" rules.
"""

import random

import pytest

from repro import CoDBNetwork, NodeConfig, TcpNetwork
from repro.core.statistics import peak_concurrency
from repro.relational.containment import rows_equal_up_to_nulls

ITEM_SCHEMA = "item(k: int)\ntag(k: int, w)"


def topology_edges(topology: str) -> tuple[list[str], list[tuple[str, str]]]:
    """``(nodes, edges)`` with an edge ``(t, s)`` meaning *t imports
    from s*."""
    if topology == "chain":
        names = [f"N{i}" for i in range(5)]
        edges = [(names[i], names[i + 1]) for i in range(len(names) - 1)]
    elif topology == "cycle":
        names = [f"N{i}" for i in range(4)]
        edges = [
            (names[i], names[(i + 1) % len(names)]) for i in range(len(names))
        ]
    else:  # pragma: no cover - test parametrisation bug
        raise ValueError(topology)
    return names, edges


def build_network(topology: str, seed: int, *, transport=None, items=12):
    """A network derived deterministically from (topology, seed): the
    concurrent and the sequential run build byte-identical twins.

    Every edge carries an ``item`` copy rule; about half the edges
    additionally carry an existential sink rule minting a fresh null
    per imported key (``tag`` is written only by those rules and read
    by none, so each null lives in exactly one row of one node —
    null-renaming equivalence then decomposes per relation per node).
    """
    rng = random.Random(seed * 7919 + len(topology))
    names, edges = topology_edges(topology)
    net = CoDBNetwork(
        seed=seed,
        transport=transport,
        with_superpeer=False,
        config=NodeConfig(subsumption_dedup=True),
    )
    for name in names:
        facts = {"item": [(rng.randrange(40),) for _ in range(items)]}
        net.add_node(name, ITEM_SCHEMA, facts=facts)
    for target, source in edges:
        net.add_rule(f"{target}:item(k) <- {source}:item(k)")
        if rng.random() < 0.5:
            net.add_rule(f"{target}:tag(k, w) <- {source}:item(k)")
    net.start()
    return net


def run_storm(net, origins: list[str]) -> list:
    """One update per origin, submitted back to back (on the simulator
    the event queue then holds every flood and pumps them interleaved;
    over TCP they run in parallel), then every outcome in origin order."""
    handles = [net.submit_global_update(origin) for origin in origins]
    return [handle.result(net.poll_timeout) for handle in handles]


def pick_origins(topology: str, seed: int, count: int = 3) -> list[str]:
    names, _ = topology_edges(topology)
    rng = random.Random(seed * 31 + 5)
    return rng.sample(names, count)


def snapshots_equal_up_to_nulls(left: dict, right: dict) -> bool:
    """Whole-network snapshot equality, null renaming allowed per
    (node, relation) — sound here because the generator confines every
    null to one row of one relation of one node."""
    if set(left) != set(right):
        return False
    for node_name, relations in left.items():
        other = right[node_name]
        if set(relations) != set(other):
            return False
        for relation, rows in relations.items():
            if not rows_equal_up_to_nulls(rows, other[relation]):
                return False
    return True


class TestConcurrentEqualsSequentialSimulated:
    @pytest.mark.parametrize("topology", ["chain", "cycle"])
    @pytest.mark.parametrize("seed", range(5))
    def test_three_concurrent_origins_match_sequential(self, topology, seed):
        origins = pick_origins(topology, seed)

        concurrent_net = build_network(topology, seed)
        outcomes = run_storm(concurrent_net, origins)
        concurrent_state = concurrent_net.snapshot()

        sequential_net = build_network(topology, seed)
        for origin in origins:
            sequential_net.global_update(origin)
        sequential_state = sequential_net.snapshot()

        assert snapshots_equal_up_to_nulls(concurrent_state, sequential_state), (
            f"{topology} seed={seed} origins={origins}: concurrent and "
            "sequential runs diverged"
        )
        assert [o.origin for o in outcomes] == origins
        assert all(o.report.node_reports for o in outcomes)
        # The updates really overlapped at some node (otherwise this
        # file degenerates into the sequential test).
        peak = max(
            peak_concurrency(list(node.stats.reports.values()))
            for node in concurrent_net.nodes.values()
        )
        assert peak >= 2
        # ... so the floods shared the virtual clock: together they
        # took less simulated time than one after another.
        assert concurrent_net.transport.now() < sequential_net.transport.now()

    @pytest.mark.parametrize("seed", range(3))
    def test_cycle_closes_by_quiescence_under_concurrency(self, seed):
        net = build_network("cycle", seed)
        origins = pick_origins("cycle", seed)
        run_storm(net, origins)
        by_quiescence = sum(
            report.links_closed_by_quiescence
            for node in net.nodes.values()
            for report in node.stats.reports.values()
        )
        assert by_quiescence > 0  # condition (b) did the closing
        for node in net.nodes.values():
            assert node.updates.active_ids() == []  # sessions GC'd

    def test_five_concurrent_updates_including_repeated_origin(self, seed=11):
        net = build_network("chain", seed)
        origins = ["N0", "N4", "N2", "N0", "N3"]  # N0 twice, concurrently
        outcomes = run_storm(net, origins)
        assert len({o.update_id for o in outcomes}) == 5

        twin = build_network("chain", seed)
        for origin in origins:
            twin.global_update(origin)
        assert snapshots_equal_up_to_nulls(net.snapshot(), twin.snapshot())


class TestConcurrentEqualsSequentialTcp:
    """The same anchor over real sockets: per-peer delivery threads run
    the sessions truly in parallel, arrival order is nondeterministic,
    and the result must still match the sequential simulator run."""

    @pytest.mark.parametrize("topology", ["chain", "cycle"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_concurrent_tcp_matches_sequential_sim(self, topology, seed):
        origins = pick_origins(topology, seed)
        tcp_net = build_network(topology, seed, transport=TcpNetwork(), items=6)
        try:
            run_storm(tcp_net, origins)
            tcp_state = tcp_net.snapshot()
        finally:
            tcp_net.stop()

        sim_net = build_network(topology, seed, items=6)
        for origin in origins:
            sim_net.global_update(origin)
        assert snapshots_equal_up_to_nulls(tcp_state, sim_net.snapshot()), (
            f"{topology} seed={seed} origins={origins}: TCP concurrent run "
            "diverged from the sequential simulator run"
        )

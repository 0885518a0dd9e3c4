"""Global updates over cyclic coordination rules: the fix-point cases."""

import pytest

from repro import CoDBNetwork
from repro.baselines import CentralizedExchange
from repro.relational.containment import rows_equal_up_to_nulls


def assert_matches_ground_truth(net, initial):
    """Every node's final state must equal the centralised chase of the
    initial data, up to a renaming of marked nulls."""
    truth = CentralizedExchange.for_network(net).run(initial)
    for name, node in net.nodes.items():
        expected = truth.node_snapshot(name, node.wrapper.schema)
        actual = node.snapshot()
        for relation in actual:
            assert rows_equal_up_to_nulls(actual[relation], expected[relation]), (
                f"{name}.{relation}: {actual[relation]} != {expected[relation]}"
            )


def snapshot_all(net):
    return {name: node.snapshot() for name, node in net.nodes.items()}


class TestTwoCycle:
    @pytest.fixture
    def net(self):
        net = CoDBNetwork(seed=21)
        net.add_node("A", "p(x: int)", facts="p(1). p(2)")
        net.add_node("B", "q(x: int)", facts="q(10)")
        net.add_rule("A:p(x) <- B:q(x)")
        net.add_rule("B:q(x) <- A:p(x)")
        net.start()
        return net

    def test_mutual_exchange_converges(self, net):
        initial = snapshot_all(net)
        net.global_update("A")
        assert sorted(net.node("A").rows("p")) == [(1,), (2,), (10,)]
        assert sorted(net.node("B").rows("q")) == [(1,), (2,), (10,)]
        assert_matches_ground_truth(net, initial)

    def test_cyclic_links_closed_by_quiescence(self, net):
        outcome = net.global_update("A")
        total_quiescence = sum(
            r.links_closed_by_quiescence
            for r in outcome.report.node_reports.values()
        )
        assert total_quiescence > 0

    def test_origin_choice_does_not_change_result(self):
        results = []
        for origin in ("A", "B"):
            net = CoDBNetwork(seed=21)
            net.add_node("A", "p(x: int)", facts="p(1). p(2)")
            net.add_node("B", "q(x: int)", facts="q(10)")
            net.add_rule("A:p(x) <- B:q(x)")
            net.add_rule("B:q(x) <- A:p(x)")
            net.start()
            net.global_update(origin)
            results.append(snapshot_all(net))
        assert results[0] == results[1]


class TestRings:
    @pytest.mark.parametrize("size", [2, 3, 5, 8])
    def test_ring_floods_everything_everywhere(self, size):
        net = CoDBNetwork(seed=size)
        for i in range(size):
            net.add_node(f"N{i}", "r(x: int)", facts=f"r({i})")
        for i in range(size):
            net.add_rule(f"N{i}:r(x) <- N{(i + 1) % size}:r(x)")
        net.start()
        initial = snapshot_all(net)
        net.global_update("N0")
        everything = sorted((i,) for i in range(size))
        for i in range(size):
            assert sorted(net.node(f"N{i}").rows("r")) == everything
        assert_matches_ground_truth(net, initial)

    def test_ring_cost_scales_with_size(self):
        paths, messages = {}, {}
        for size in (3, 6):
            net = CoDBNetwork(seed=size)
            for i in range(size):
                net.add_node(f"N{i}", "r(x: int)", facts=f"r({i})")
            for i in range(size):
                net.add_rule(f"N{i}:r(x) <- N{(i + 1) % size}:r(x)")
            net.start()
            outcome = net.global_update("N0")
            paths[size] = outcome.longest_path
            messages[size] = outcome.report.total_messages
        assert paths[6] > paths[3]
        assert messages[6] > messages[3]

    @pytest.mark.parametrize("size", [2, 4])
    def test_existential_ring_mints_one_null_per_rule_and_key(self, size):
        # Every node copies its neighbour's keys and mints a local tag
        # for each.  The keys stabilise, so despite the cycle minting
        # is idempotent: (nodes x keys) nulls, however many rounds the
        # fix-point takes.
        net = CoDBNetwork(seed=7)
        for i in range(size):
            net.add_node(f"N{i}", "item(k: int, tag)", facts=f"item({i}, 'own')")
        for i in range(size):
            net.add_rule(f"N{i}:item(k, w) <- N{(i + 1) % size}:item(k, t)")
        net.start()
        outcome = net.global_update("N0")
        assert outcome.report.total_nulls_minted == size * size


class TestSelfFeedingJoin:
    def test_transitive_closure_across_two_nodes(self):
        # B collects edges from A and returns paths; the cycle computes
        # reachability end-to-end.
        net = CoDBNetwork(seed=31)
        net.add_node("A", "edge(x: int, y: int)",
                     facts="edge(1, 2). edge(2, 3). edge(3, 4)")
        net.add_node("B", "path(x: int, y: int)")
        net.add_rule("B:path(x, y) <- A:edge(x, y)")
        net.add_rule("A:edge(x, y) <- B:path(x, y)")
        # close the loop: B extends paths using what it already has
        net.add_rule("B:path(x, z) <- A:edge(x, z)")
        net.start()
        initial = snapshot_all(net)
        net.global_update("B")
        assert_matches_ground_truth(net, initial)

    def test_mutual_join_rules(self):
        net = CoDBNetwork(seed=32)
        net.add_node(
            "L", "has(x: int)\nlink(x: int, y: int)",
            facts="has(1). link(1, 2). link(2, 3)",
        )
        net.add_node("R", "got(x: int)")
        # R pulls reachable items; L re-imports them to continue the walk.
        net.add_rule("R:got(y) <- L:has(x), L:link(x, y)")
        net.add_rule("L:has(x) <- R:got(x)")
        net.start()
        initial = snapshot_all(net)
        net.global_update("R")
        assert sorted(net.node("R").rows("got")) == [(2,), (3,)]
        assert sorted(net.node("L").rows("has")) == [(1,), (2,), (3,)]
        assert_matches_ground_truth(net, initial)


class TestCompleteGraph:
    def test_all_to_all_converges(self):
        size = 4
        net = CoDBNetwork(seed=41)
        for i in range(size):
            net.add_node(f"N{i}", "r(x: int)", facts=f"r({i})")
        for i in range(size):
            for j in range(size):
                if i != j:
                    net.add_rule(f"N{i}:r(x) <- N{j}:r(x)")
        net.start()
        initial = snapshot_all(net)
        net.global_update("N0")
        everything = sorted((i,) for i in range(size))
        for i in range(size):
            assert sorted(net.node(f"N{i}").rows("r")) == everything
        assert_matches_ground_truth(net, initial)

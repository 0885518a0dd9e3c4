"""Distributed vs centralised: randomized equivalence testing (E12)."""

import pytest

from repro.baselines import CentralizedExchange
from repro.relational.containment import rows_equal_up_to_nulls
from repro.workloads import chain, random_graph, ring


def run_both(blueprint, seed, tuples_per_node=10, overlap=0.0):
    net = blueprint.build(
        seed=seed, tuples_per_node=tuples_per_node, overlap=overlap
    )
    initial = {name: node.snapshot() for name, node in net.nodes.items()}
    truth = CentralizedExchange.for_network(net).run(initial)
    outcome = net.global_update(blueprint.origin)
    # Same start, same fixpoint: the update imported as many rows as
    # the single-site chase added.
    assert outcome.report.total_rows_imported == truth.tuples_added
    return net, truth


class TestRandomizedEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_topologies_match_chase(self, seed):
        blueprint = random_graph(6, probability=0.2, seed=seed)
        net, truth = run_both(blueprint, seed)
        for name, node in net.nodes.items():
            expected = truth.node_snapshot(name, node.wrapper.schema)
            actual = node.snapshot()
            for relation in actual:
                assert actual[relation] == expected[relation], (
                    f"seed={seed} {name}.{relation}"
                )

    @pytest.mark.parametrize("overlap", [0.0, 0.5, 1.0])
    def test_overlap_does_not_break_equivalence(self, overlap):
        blueprint = random_graph(5, probability=0.3, seed=17)
        net, truth = run_both(blueprint, 17, overlap=overlap)
        for name, node in net.nodes.items():
            expected = truth.node_snapshot(name, node.wrapper.schema)
            assert node.snapshot() == expected

    def test_update_is_a_fixpoint(self):
        # Chasing the post-update instance must add nothing.
        blueprint = random_graph(5, probability=0.3, seed=23)
        net = blueprint.build(seed=23, tuples_per_node=8)
        net.global_update(blueprint.origin)
        post = {name: node.snapshot() for name, node in net.nodes.items()}
        rechase = CentralizedExchange.for_network(net).run(post)
        assert rechase.tuples_added == 0


class TestBlueprintEquivalence:
    @pytest.mark.parametrize(
        "blueprint", [chain(4), ring(4)], ids=["chain", "ring"]
    )
    def test_blueprint_matches_chase(self, blueprint):
        net, truth = run_both(blueprint, 3, tuples_per_node=15)
        for name, node in net.nodes.items():
            assert node.snapshot() == truth.node_snapshot(
                name, node.wrapper.schema
            ), name


class TestExistentialEquivalence:
    def test_existential_chain_isomorphic_to_chase(self):
        from repro import CoDBNetwork

        net = CoDBNetwork(seed=61)
        net.add_node("C", "raw(x: int)", facts="raw(1). raw(2)")
        net.add_node("B", "mid(x: int, t)")
        net.add_node("A", "top(x: int, t)")
        net.add_rule("B:mid(x, t) <- C:raw(x)")
        net.add_rule("A:top(x, t) <- B:mid(x, t)")
        net.start()
        initial = {name: node.snapshot() for name, node in net.nodes.items()}
        truth = CentralizedExchange.for_network(net).run(initial)
        net.global_update("A")
        for name, node in net.nodes.items():
            expected = truth.node_snapshot(name, node.wrapper.schema)
            actual = node.snapshot()
            for relation in actual:
                assert rows_equal_up_to_nulls(
                    actual[relation], expected[relation]
                ), f"{name}.{relation}"

"""Topology blueprints, data generation, scenarios."""

import pytest

from repro.workloads import (
    DataGenerator,
    TOPOLOGY_BUILDERS,
    broadcast_star,
    chain,
    complete,
    grid,
    random_graph,
    ring,
    star,
    supply_chain_scenario,
    tree,
    trentino_scenario,
)


class TestBlueprintShapes:
    def test_chain_shape(self):
        blueprint = chain(5)
        assert blueprint.size == 5
        assert blueprint.edge_count == 4
        assert blueprint.origin == "N0"

    def test_ring_shape(self):
        blueprint = ring(5)
        assert blueprint.edge_count == 5

    def test_star_shapes(self):
        assert star(4).size == 5  # hub + spokes
        assert star(4).edge_count == 4
        assert broadcast_star(4).edge_count == 4

    def test_tree_shape(self):
        blueprint = tree(2, 3)
        assert blueprint.size == 1 + 2 + 4 + 8
        assert blueprint.edge_count == blueprint.size - 1

    def test_grid_shape(self):
        blueprint = grid(3, 4)
        assert blueprint.size == 12
        assert blueprint.edge_count == 3 * 3 + 2 * 4  # right + down edges

    def test_complete_shape(self):
        blueprint = complete(4)
        assert blueprint.edge_count == 12

    def test_random_graph_connected_and_deterministic(self):
        one = random_graph(10, 0.1, seed=4)
        two = random_graph(10, 0.1, seed=4)
        assert one.rule_texts == two.rule_texts
        assert one.edge_count >= 9  # spanning tree at minimum

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            chain(0)
        with pytest.raises(ValueError):
            ring(1)
        with pytest.raises(ValueError):
            random_graph(3, 1.5)
        with pytest.raises(ValueError):
            grid(0, 3)

    @pytest.mark.parametrize("name", sorted(TOPOLOGY_BUILDERS))
    def test_registry_builders_build_and_update(self, name):
        blueprint = TOPOLOGY_BUILDERS[name](5)
        net = blueprint.build(seed=2, tuples_per_node=5)
        outcome = net.global_update(blueprint.origin)
        assert outcome.report.node_reports  # everyone reported
        # the origin must have pulled at least its neighbours' data
        if blueprint.edge_count:
            assert net.node(blueprint.origin).wrapper.count("item") >= 5
        # every rule carried at least its activation message
        per_rule = outcome.report.messages_per_rule()
        assert len(per_rule) == blueprint.edge_count
        assert all(count >= 1 for count in per_rule.values())


class TestSection4Shapes:
    """§4 has the super-peer measure "various networks arranged in
    different topologies"; these are the qualitative claims its four
    statistics support, on the blueprints the CLI demo runs."""

    @staticmethod
    def update(blueprint, **build):
        build.setdefault("tuples_per_node", 10)
        net = blueprint.build(seed=1, **build)
        return net.global_update(blueprint.origin)

    @pytest.mark.parametrize(
        "blueprint, expected",
        [
            (star(7), 1),
            (tree(2, 3), 3),  # its depth
            (chain(8), 7),
            (ring(8), 8),  # the origin's own data circles back
            (grid(3, 3), 4),  # the Manhattan diameter
        ],
        ids=lambda value: getattr(value, "name", None),
    )
    def test_longest_path_is_structural(self, blueprint, expected):
        assert self.update(blueprint).report.longest_path == expected

    def test_messages_and_time_follow_the_propagation_structure(self):
        outcomes = {
            blueprint.name: self.update(blueprint)
            for blueprint in (star(7), chain(2), chain(4), chain(8), ring(8), complete(8))
        }
        messages = {name: o.report.total_messages for name, o in outcomes.items()}
        assert messages["complete-8"] > messages["chain-8"] > messages["star-7"]
        # Virtual time (one latency model for all): a chain pays per
        # hop, a star finishes in one round whatever its size.
        walls = {name: o.wall_time for name, o in outcomes.items()}
        assert walls["chain-8"] > walls["chain-4"] > walls["chain-2"]
        assert walls["star-7"] < walls["chain-8"] / 3

        def mean_per_rule(name):
            per_rule = outcomes[name].report.messages_per_rule()
            return sum(per_rule.values()) / len(per_rule)

        # A cycle needs strictly more messages per rule than a chain.
        assert mean_per_rule("ring-8") > mean_per_rule("chain-8")

    def test_volume_grows_with_data_and_shrinks_with_overlap(self):
        def volume(tuples, overlap=0.0):
            outcome = self.update(
                chain(6), tuples_per_node=tuples, overlap=overlap
            )
            return (
                sum(outcome.report.message_volumes()),
                outcome.report.total_rows_imported,
            )

        assert volume(40)[0] > volume(20)[0] > volume(10)[0]
        # Full overlap: every import is a duplicate, so nothing is new
        # and the dedup machinery keeps most of it off the wire.
        overlapping_bytes, overlapping_rows = volume(20, overlap=1.0)
        disjoint_bytes, disjoint_rows = volume(20)
        assert overlapping_rows < disjoint_rows
        assert overlapping_bytes < disjoint_bytes


class TestDataGenerator:
    def test_items_deterministic(self):
        a = DataGenerator(5).items_for_node(1, 20)
        b = DataGenerator(5).items_for_node(1, 20)
        assert a == b

    def test_items_distinct_keys(self):
        rows = DataGenerator(5).items_for_node(0, 100)
        keys = [k for k, _ in rows]
        assert len(set(keys)) == 100

    def test_zero_overlap_disjoint_between_nodes(self):
        gen = DataGenerator(3)
        keys0 = {k for k, _ in gen.items_for_node(1, 50, overlap=0.0)}
        keys1 = {k for k, _ in gen.items_for_node(2, 50, overlap=0.0)}
        assert not keys0 & keys1

    def test_full_overlap_identical_rows(self):
        gen = DataGenerator(3)
        rows0 = gen.items_for_node(1, 50, overlap=1.0)
        rows1 = gen.items_for_node(2, 50, overlap=1.0)
        assert rows0 == rows1

    def test_partial_overlap_shares_exact_fraction(self):
        gen = DataGenerator(3)
        rows0 = set(gen.items_for_node(1, 40, overlap=0.5))
        rows1 = set(gen.items_for_node(2, 40, overlap=0.5))
        assert len(rows0 & rows1) == 20

    def test_invalid_overlap(self):
        with pytest.raises(ValueError):
            DataGenerator(0).items_for_node(0, 5, overlap=2.0)

    def test_people_names_unique(self):
        rows = DataGenerator(1).people(50)
        names = [n for n, _ in rows]
        assert len(set(names)) == 50

    def test_measurements_shape(self):
        rows = DataGenerator(1).measurements(10, sensors=3)
        assert len(rows) == 10
        assert all(0 <= sensor < 3 for sensor, _, _ in rows)


class TestScenarios:
    def test_trentino_update_and_nulls(self):
        net = trentino_scenario(seed=1)
        net.global_update("HOSP")
        citizens = {row[0] for row in net.node("TN").rows("citizen")}
        assert {"anna", "dario", "elena", "fabio"} <= citizens
        from repro import MarkedNull

        wards = [row[1] for row in net.node("HOSP").rows("patient")]
        assert any(isinstance(w, MarkedNull) for w in wards)

    def test_trentino_cycle_mirrors_addresses(self):
        net = trentino_scenario(seed=1)
        net.global_update("BZ")
        bz_people = {row[0] for row in net.node("BZ").rows("person")}
        assert "elena" in bz_people  # mirrored back from TN

    def test_supply_chain_comparison_rule(self):
        net = supply_chain_scenario(suppliers=2, seed=1)
        net.global_update("SHOP")
        bargains = net.node("SHOP").rows("bargain")
        assert bargains
        assert all(price <= 20 for _, price in bargains)

    def test_supply_chain_local_relation_not_exported(self):
        net = supply_chain_scenario(suppliers=2, seed=1)
        schema = net.node("S0").wrapper.schema
        assert schema["cost"].exported is False
        assert "cost" not in schema.exported_view().relation_names

"""The super-peer (§4) and the topology discovery procedure."""

import pytest

from repro import CoDBNetwork, RuleFile
from repro.errors import StatisticsError


@pytest.fixture
def net():
    net = CoDBNetwork(seed=81)
    net.add_node("C", "item(k: int)", facts="item(1). item(2)")
    net.add_node("B", "item(k: int)")
    net.add_node("A", "item(k: int)")
    net.add_rule("B:item(k) <- C:item(k)")
    net.add_rule("A:item(k) <- B:item(k)")
    net.start()
    return net


class TestRuleBroadcast:
    def test_start_broadcasts_and_wires_pipes(self, net):
        assert net.node("B").links.acquaintances() == ["C", "A"]
        assert net.node("A").links.acquaintances() == ["B"]
        assert list(net.node("A").links.outgoing) == ["r1"]
        assert list(net.node("C").links.incoming) == ["r0"]

    def test_rebroadcast_replaces_rules(self, net):
        net.rewire("A:item(k) <- C:item(k)")
        assert net.node("B").links.acquaintances() == []
        assert net.node("A").links.acquaintances() == ["C"]
        assert list(net.node("A").links.outgoing) == ["r0"]

    def test_update_works_after_rewire(self, net):
        net.rewire("A:item(k) <- C:item(k)")
        net.global_update("A")
        assert sorted(net.node("A").rows("item")) == [(1,), (2,)]
        assert net.node("B").rows("item") == []  # now out of the loop

    def test_update_after_rewire_floods_only_acquaintances(self, net):
        net.rewire("A:item(k) <- C:item(k)")
        requests = []
        send_burst = net.transport.send_burst

        def recording(messages):
            requests.extend(
                (m.sender, m.recipient) for m in messages if m.kind == "update_request"
            )
            return send_burst(messages)

        net.transport.send_burst = recording
        net.global_update("A")
        assert requests == [("A", "C")]
        assert all(
            recipient in net.node(sender).links.acquaintances()
            for sender, recipient in requests
        )

    def test_superpeer_counts_broadcasts(self, net):
        assert net.superpeer.rules_broadcasts == 1
        net.rewire(RuleFile.from_text("A:item(k) <- C:item(k)"))
        assert net.superpeer.rules_broadcasts == 2


class TestStatisticsCollection:
    def test_collects_from_every_node(self, net):
        net.global_update("A")
        collection_id = net.collect_statistics()
        assert net.superpeer.responding_nodes(collection_id) == ["A", "B", "C"]

    def test_aggregate_matches_driver_view(self, net):
        outcome = net.global_update("A")
        collection_id = net.collect_statistics()
        aggregated = net.superpeer.aggregate(collection_id, outcome.update_id)
        assert aggregated.total_messages == outcome.report.total_messages
        assert aggregated.total_bytes == outcome.report.total_bytes
        assert aggregated.longest_path == outcome.report.longest_path
        assert aggregated.wall_time == pytest.approx(outcome.report.wall_time)

    def test_reports_accumulate_over_lifetime(self, net):
        first = net.global_update("A")
        second = net.global_update("A")
        collection_id = net.collect_statistics()
        for update_id in (first.update_id, second.update_id):
            aggregated = net.superpeer.aggregate(collection_id, update_id)
            assert set(aggregated.node_reports) == {"A", "B", "C"}

    def test_final_report_formatting(self, net):
        outcome = net.global_update("A")
        collection_id = net.collect_statistics()
        text = net.superpeer.final_report(collection_id, outcome.update_id)
        assert outcome.update_id in text
        assert "longest_path" in text
        for node in ("A", "B", "C"):
            assert node in text

    def test_unknown_collection_or_update(self, net):
        with pytest.raises(StatisticsError):
            net.superpeer.collected_reports("nope")
        collection_id = net.collect_statistics()
        with pytest.raises(StatisticsError):
            net.superpeer.aggregate(collection_id, "update-does-not-exist")


class TestTopologyDiscovery:
    def test_view_covers_whole_network(self, net):
        discovery_id = net.node("A").topology.start()
        net.run()
        view = net.node("A").topology.view(discovery_id)
        assert view.nodes() == ["A", "B", "C"]
        edges = {(s, t) for _, s, t in view.rule_edges}
        assert edges == {("C", "B"), ("B", "A")}

    def test_networkx_export(self, net):
        discovery_id = net.node("A").topology.start()
        net.run()
        graph = net.node("A").topology.view(discovery_id).to_networkx()
        assert set(graph.nodes) == {"A", "B", "C"}
        assert graph.has_edge("B", "A")
        assert not graph.has_edge("A", "B")

    def test_discovery_after_rewire_sees_new_shape(self, net):
        net.rewire("A:item(k) <- C:item(k)")
        discovery_id = net.node("A").topology.start()
        net.run()
        view = net.node("A").topology.view(discovery_id)
        edges = {(s, t) for _, s, t in view.rule_edges}
        assert edges == {("C", "A")}

    def test_pipe_neighbours_are_acquaintances(self, net):
        discovery_id = net.node("A").topology.start()
        net.run()
        view = net.node("A").topology.view(discovery_id)
        assert view.pipes == {"A": ["B"], "B": ["C", "A"], "C": ["B"]}

    def test_pipes_after_rewire_are_the_new_acquaintances(self, net):
        net.rewire("A:item(k) <- C:item(k)")
        discovery_id = net.node("A").topology.start()
        net.run()
        view = net.node("A").topology.view(discovery_id)
        assert view.pipes == {"A": ["C"], "C": ["A"]}  # B has no pipe left

    def test_each_node_answers_once_around_a_cycle(self, net):
        net.rewire(
            """
            B:item(k) <- C:item(k)
            A:item(k) <- B:item(k)
            C:item(k) <- A:item(k)
            """
        )
        before = net.transport.stats.by_kind.get("topology_response", 0)
        discovery_id = net.node("A").topology.start()
        net.run()
        view = net.node("A").topology.view(discovery_id)
        assert net.transport.stats.by_kind["topology_response"] - before == 2
        assert view.nodes() == ["A", "B", "C"]
        assert view.edge_count() == 3

    def test_concurrent_discoveries_are_kept_apart(self, net):
        from_a = net.node("A").topology.start()
        from_c = net.node("C").topology.start()
        net.run()
        view_a = net.node("A").topology.view(from_a)
        view_c = net.node("C").topology.view(from_c)
        assert (view_a.initiator, view_c.initiator) == ("A", "C")
        assert view_a.nodes() == view_c.nodes() == ["A", "B", "C"]
        assert view_a.pipes == view_c.pipes
        assert from_c not in net.node("A").topology.views

"""Dynamic networks (§1c, §4) and the chase-divergence guard."""

import pytest

from repro import CoDBNetwork, NodeConfig
from repro.errors import FixpointGuardError


class TestDynamicTopology:
    def build(self):
        net = CoDBNetwork(seed=91)
        net.add_node("H", "hub(x: int)")
        for i in range(3):
            net.add_node(
                f"S{i}", "spoke(x: int)", facts=f"spoke({i}). spoke({i + 10})"
            )
        net.add_rules([f"H:hub(x) <- S{i}:spoke(x)" for i in range(3)])
        net.start()
        return net

    def test_rewire_star_to_chain_and_update(self):
        net = self.build()
        assert net.global_update("H").longest_path == 1  # a star
        assert len(net.node("H").rows("hub")) == 6
        net.rewire(
            """
            S1:spoke(x) <- S0:spoke(x)
            S2:spoke(x) <- S1:spoke(x)
            H:hub(x) <- S2:spoke(x)
            """
        )
        outcome = net.global_update("H")
        assert outcome.longest_path == 3  # now a chain
        assert len(net.node("S2").rows("spoke")) == 6
        assert len(net.node("H").rows("hub")) == 6  # no row lost on the way

    def test_rewire_resets_lifetime_dedup(self):
        # New rules = new links = fresh sent/received memories; data
        # flows again through the replaced topology.
        net = self.build()
        net.global_update("H")
        net.rewire("H:hub(x) <- S0:spoke(x)")
        outcome = net.global_update("H")
        # S0's two rows are re-offered over the *new* rule; the hub's
        # store dedups them, so nothing new lands but messages flow.
        assert outcome.report.messages_per_rule() == {"r0": 1}
        assert outcome.rows_imported == 0

    def test_node_added_at_runtime(self):
        net = self.build()
        net.global_update("H")
        net.add_node("S3", "spoke(x: int)", facts="spoke(99)")
        rules = [f"H:hub(x) <- S{i}:spoke(x)" for i in range(4)]
        net.rewire("\n".join(rules))
        net.global_update("H")
        assert (99,) in net.node("H").rows("hub")

    def test_pipe_lifecycle_follows_rules(self):
        net = self.build()
        hub_pipes_before = set(net.node("H").links.acquaintances())
        assert hub_pipes_before == {"S0", "S1", "S2"}
        net.rewire("H:hub(x) <- S0:spoke(x)")
        assert set(net.node("H").links.acquaintances()) == {"S0"}
        assert net.node("S1").links.acquaintances() == []

    def test_acquaintance_stays_while_any_rule_remains(self):
        net = self.build()
        net.rewire(
            """
            H:hub(x) <- S0:spoke(x)
            H:hub(x) <- S0:spoke(x), x > 5
            H:hub(x) <- S1:spoke(x)
            """
        )
        assert net.node("H").links.acquaintances() == ["S0", "S1"]
        net.rewire("H:hub(x) <- S0:spoke(x), x > 5")
        assert net.node("H").links.acquaintances() == ["S0"]
        net.rewire("H:hub(x) <- S1:spoke(x)")
        assert net.node("H").links.acquaintances() == ["S1"]
        assert net.node("S0").links.acquaintances() == []

    def record_sends(self, net):
        """Wrap the transport's ``send_burst``, which every message a
        node sends goes through; returns the log of ``(sender,
        recipient, kind)`` it fills."""
        sent = []
        send_burst = net.transport.send_burst

        def recording(messages):
            sent.extend((m.sender, m.recipient, m.kind) for m in messages)
            return send_burst(messages)

        net.transport.send_burst = recording
        return sent

    def test_every_update_message_travels_between_acquaintances(self):
        net = self.build()
        net.rewire("H:hub(x) <- S0:spoke(x)")
        sent = self.record_sends(net)
        net.global_update("H")
        assert {kind for _, _, kind in sent} >= {
            "update_request", "query_result", "update_complete"
        }
        for sender, recipient, _kind in sent:
            assert recipient in net.node(sender).links.acquaintances()
        assert sorted(net.node("H").rows("hub")) == [(0,), (10,)]

    def test_a_send_to_a_former_acquaintance_does_not_restore_it(self):
        # Reaching a peer outside the rules is a one-off message, not a
        # pipe: later floods still go to the rules' remotes only.
        net = self.build()
        net.rewire("H:hub(x) <- S0:spoke(x)")
        hub = net.node("H")
        hub.endpoint.send(
            "S1", "topology_request", {"discovery_id": "probe", "initiator": "H"}
        )
        net.run()
        sent = self.record_sends(net)
        net.global_update("H")
        assert hub.links.acquaintances() == ["S0"]
        assert [
            recipient for sender, recipient, kind in sent
            if kind == "update_request"
        ] == ["S0"]

    def test_rejoin_greets_only_acquaintances(self):
        net = self.build()
        net.rewire("H:hub(x) <- S0:spoke(x)")
        hub = net.node("H")
        hub.detach()
        net.run()
        sent = self.record_sends(net)
        hub.rejoin()
        net.run()
        assert [
            (sender, recipient) for sender, recipient, kind in sent
            if kind == "rejoin"
        ] == [("H", "S0"), ("S0", "H")]


class TestFixpointGuard:
    def build_divergent(self, config):
        # B:pair(x, w) <- A:seed(x) mints w; A:seed(w) <- B:pair(x, w)
        # feeds the null back: the naive chase never terminates.
        net = CoDBNetwork(seed=92, config=config)
        net.add_node("A", "seed(x)", facts="seed(1)")
        net.add_node("B", "pair(x, w)")
        net.add_rule("B:pair(x, w) <- A:seed(x)")
        net.add_rule("A:seed(w) <- B:pair(x, w)")
        net.start()
        return net

    def test_rule_set_flagged_not_weakly_acyclic(self):
        net = self.build_divergent(NodeConfig())
        assert not net.rule_file.is_weakly_acyclic()

    def test_guard_trips_instead_of_diverging(self):
        net = self.build_divergent(NodeConfig(fixpoint_guard=50))
        with pytest.raises(FixpointGuardError):
            net.global_update("B")

    def test_subsumption_mode_terminates_divergent_chase(self):
        config = NodeConfig(subsumption_dedup=True, fixpoint_guard=5_000)
        net = self.build_divergent(config)
        outcome = net.global_update("B")  # must terminate
        # the core: seed(1), pair(1, w); the fed-back null makes one
        # more round of subsumed tuples at most.
        assert outcome.update_id
        pairs = net.node("B").rows("pair")
        assert any(row[0] == 1 for row in pairs)

    def test_weakly_acyclic_network_never_guards(self):
        config = NodeConfig(fixpoint_guard=50)
        net = CoDBNetwork(seed=93, config=config)
        net.add_node("A", "p(x: int)", facts="p(1). p(2)")
        net.add_node("B", "q(x: int)", facts="q(3)")
        net.add_rule("A:p(x) <- B:q(x)")
        net.add_rule("B:q(x) <- A:p(x)")
        net.start()
        assert net.rule_file.is_weakly_acyclic()
        net.global_update("A")  # completes within the tight guard

"""Result batching and certain answers."""

import pytest

from repro import CoDBNetwork, NodeConfig


def build_chain(config=None):
    net = CoDBNetwork(seed=111, config=config)
    net.add_node("C", "item(k: int)", facts="item(1)")
    net.add_node("B", "item(k: int)")
    net.add_node("A", "item(k: int)")
    net.add_rule("B:item(k) <- C:item(k)")
    net.add_rule("A:item(k) <- B:item(k)")
    net.start()
    return net


class TestBatching:
    def test_batched_results_arrive_completely(self):
        net = CoDBNetwork(seed=114, config=NodeConfig(batch_rows=7))
        net.add_node("S", "item(k: int)")
        net.node("S").load_facts({"item": [(i,) for i in range(50)]})
        net.add_node("D", "item(k: int)")
        net.add_rule("D:item(k) <- S:item(k)")
        net.start()
        outcome = net.global_update("D")
        assert net.node("D").wrapper.count("item") == 50
        # ceil(50 / 7) = 8 result messages instead of 1
        assert outcome.report.messages_per_rule() == {"r0": 8}

    def test_batching_bounds_message_volume(self):
        def volumes(batch_rows):
            net = CoDBNetwork(
                seed=115, config=NodeConfig(batch_rows=batch_rows)
            )
            net.add_node("S", "item(k: int)")
            net.node("S").load_facts({"item": [(i,) for i in range(100)]})
            net.add_node("D", "item(k: int)")
            net.add_rule("D:item(k) <- S:item(k)")
            net.start()
            outcome = net.global_update("D")
            return outcome.report.message_volumes()

        unbounded = volumes(0)
        bounded = volumes(10)
        assert len(unbounded) == 1
        assert len(bounded) == 10
        assert max(bounded) < max(unbounded)

    def test_batched_and_unbatched_agree_on_state(self):
        def final_state(batch_rows):
            net = build_chain(NodeConfig(batch_rows=batch_rows))
            net.node("C").load_facts({"item": [(i,) for i in range(2, 30)]})
            net.global_update("A")
            return net.node("A").snapshot()

        assert final_state(0) == final_state(5)


class TestCertainAnswers:
    @pytest.fixture
    def net(self):
        net = CoDBNetwork(seed=116)
        net.add_node("S", "person(n: str)", facts="person('x'). person('y')")
        net.add_node("D", "rec(n: str, ward)", facts="rec('z', 'w1')")
        net.add_rule("D:rec(n, w) <- S:person(n)")
        net.start()
        net.global_update("D")
        return net

    def test_plain_query_returns_null_rows(self, net):
        rows = net.node("D").query("q(n, w) <- rec(n, w)")
        assert len(rows) == 3

    def test_certain_drops_null_carrying_answers(self, net):
        rows = net.node("D").query("q(n, w) <- rec(n, w)", certain=True)
        assert rows == [("z", "w1")]

    def test_certain_keeps_null_free_projections(self, net):
        # the nulls are in the ward column; projecting it away makes
        # every answer certain.
        rows = net.node("D").query("q(n) <- rec(n, w)", certain=True)
        assert sorted(rows) == [("x",), ("y",), ("z",)]

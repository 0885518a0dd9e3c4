"""Latency models and redundant rule bodies in live networks."""

import pytest

from repro import CoDBNetwork, LatencyModel


class TestLatencyModels:
    def build(self, latency):
        net = CoDBNetwork(seed=131, latency=latency)
        net.add_node("S", "item(k: int)", facts="item(1). item(2)")
        net.add_node("M", "item(k: int)")
        net.add_node("D", "item(k: int)")
        net.add_rule("M:item(k) <- S:item(k)")
        net.add_rule("D:item(k) <- M:item(k)")
        net.start()
        return net

    def test_wall_time_scales_with_base_latency(self):
        slow = self.build(LatencyModel(base_seconds=0.1)).global_update("D")
        fast = self.build(LatencyModel(base_seconds=0.001)).global_update("D")
        assert slow.wall_time > fast.wall_time * 10

    def test_bandwidth_term_penalises_volume(self):
        thin = self.build(
            LatencyModel(base_seconds=0.0, bandwidth_bytes_per_second=1e6)
        )
        thick = self.build(
            LatencyModel(base_seconds=0.0, bandwidth_bytes_per_second=1e3)
        )
        fast = thin.global_update("D")
        slow = thick.global_update("D")
        assert slow.wall_time > fast.wall_time

    def test_jitter_preserves_results(self):
        jittered = self.build(
            LatencyModel(base_seconds=0.001, jitter_seconds=0.01)
        )
        jittered.global_update("D")
        plain = self.build(LatencyModel(base_seconds=0.001))
        plain.global_update("D")
        assert (
            jittered.node("D").snapshot() == plain.node("D").snapshot()
        )

    def test_jitter_deterministic_per_seed(self):
        def run():
            net = CoDBNetwork(
                seed=7, latency=LatencyModel(jitter_seconds=0.005)
            )
            net.add_node("S", "item(k: int)", facts="item(1)")
            net.add_node("D", "item(k: int)")
            net.add_rule("D:item(k) <- S:item(k)")
            net.start()
            return net.global_update("D").wall_time

        assert run() == run()


class TestRuleBodyMinimisation:
    """A rule body is installed as written — no node minimises it — and
    a redundant atom changes no answer: the engine derives what the
    body's core derives."""

    RULE = "D:out(n) <- S:src(n, a), S:src(n, b)"  # redundant second atom

    def build(self, rule):
        net = CoDBNetwork(seed=132)
        net.add_node(
            "S", "src(n, a)", facts="src(1, 'x'). src(2, 'y'). src(2, 'z')"
        )
        net.add_node("D", "out(n)")
        net.add_rule(rule)
        net.start()
        return net

    def test_results_identical(self):
        redundant = self.build(self.RULE)
        core = self.build("D:out(n) <- S:src(n, a)")
        redundant.global_update("D")
        core.global_update("D")
        assert redundant.node("D").snapshot() == core.node("D").snapshot()
        assert len(redundant.node("S").links.incoming["r0"].rule.mapping.body) == 2

    def test_non_redundant_rules_untouched(self):
        net = CoDBNetwork(seed=133)
        net.add_node("S", "a(n)\nb(n)", facts="a(1). b(1)")
        net.add_node("D", "out(n)")
        net.add_rule("D:out(n) <- S:a(n), S:b(n)")
        net.start()
        link = net.node("S").links.incoming["r0"]
        assert len(link.rule.mapping.body) == 2
        net.global_update("D")
        assert net.node("D").rows("out") == [(1,)]

    @pytest.mark.parametrize(
        "redundant, core",
        [
            ("D:out(n) <- S:src(n, a), S:src(n, a)", "D:out(n) <- S:src(n, a)"),
            (
                "D:out(n) <- S:src(n, 'y'), S:src(n, b)",
                "D:out(n) <- S:src(n, 'y')",
            ),
            (
                "D:out(n) <- S:src(n, a), S:src(n, b), S:src(m, b)",
                "D:out(n) <- S:src(n, a)",
            ),
        ],
        ids=["duplicate-atom", "implied-by-constant", "folds-onto-core"],
    )
    def test_redundant_atoms_change_no_answer(self, redundant, core):
        nets = [self.build(redundant), self.build(core)]
        for net in nets:
            net.global_update("D")
        assert nets[0].node("D").rows("out") == nets[1].node("D").rows("out")
        assert nets[0].node("D").rows("out") != []

"""Ablation: the engine without resend suppression.

§3's delta evaluation and session sent-set are unconditional; the one
dedup a network can switch off is ``resend_suppression`` — an incoming
link's lifetime memory of what it already delivered.  Off, every
activation evaluates and ships in full.  Both configurations must
reach the same final state; the ablated one pays for it in messages
and rows once an update repeats.
"""

import pytest

from repro import NodeConfig
from repro.workloads import chain, ring

CONFIGS = {
    "paper": NodeConfig(),
    "no-dedup": NodeConfig(resend_suppression=False),
}


def build(blueprint, config, seed=3, tuples=15):
    return blueprint.build(seed=seed, tuples_per_node=tuples, config=config)


def run(blueprint, config, seed=3, tuples=15):
    net = build(blueprint, config, seed, tuples)
    outcome = net.global_update(blueprint.origin)
    snapshot = {name: node.snapshot() for name, node in net.nodes.items()}
    return outcome, snapshot


def rows_shipped(outcome):
    return sum(
        traffic.rows_received
        for report in outcome.report.node_reports.values()
        for traffic in report.per_rule.values()
    )


class TestSameAnswers:
    @pytest.mark.parametrize("name", list(CONFIGS))
    def test_chain_state_identical(self, name):
        _, baseline = run(chain(4), CONFIGS["paper"])
        _, snapshot = run(chain(4), CONFIGS[name])
        assert snapshot == baseline

    @pytest.mark.parametrize("name", list(CONFIGS))
    def test_ring_state_identical(self, name):
        _, baseline = run(ring(4), CONFIGS["paper"])
        _, snapshot = run(ring(4), CONFIGS[name])
        assert snapshot == baseline


class TestCosts:
    def test_no_dedup_sends_more_rows_on_chain(self):
        # A repeat update: the paper engine's links remember what they
        # delivered and ship nothing again; the ablated ones ship it all.
        shipped = {}
        for name, config in CONFIGS.items():
            net = build(chain(5), config)
            first = net.global_update(chain(5).origin)
            again = net.global_update(chain(5).origin)
            assert rows_shipped(first) > 0
            shipped[name] = rows_shipped(again)
        assert shipped["paper"] == 0
        assert shipped["no-dedup"] > shipped["paper"]

    def test_paper_engine_never_worse_on_messages(self):
        for blueprint in (chain(4), ring(4)):
            paper, _ = run(blueprint, CONFIGS["paper"])
            for name, config in CONFIGS.items():
                other, _ = run(blueprint, config)
                assert other.report.total_messages >= paper.report.total_messages, name


class TestTheDeltaAndTheSentSet:
    """§3 with nothing switched off: a dependent link is re-evaluated
    on the delta T' alone, and a session never ships a row twice on one
    link.  S serves ``out(1)`` to D at activation; T's ``a(1, 'q')``
    then derives ``out(1)`` again."""

    def build(self, config):
        from repro import CoDBNetwork

        net = CoDBNetwork(seed=41, config=config)
        net.add_node("T", "a(n, x)", facts="a(1, 'q')")
        net.add_node("S", "a(n, x)\nb(n)", facts="a(1, 'p'). b(1)")
        net.add_node("D", "out(n)")
        net.add_rule("S:a(n, x) <- T:a(n, x)")
        net.add_rule("D:out(n) <- S:a(n, x), S:b(n)")
        net.start()
        return net

    def test_a_dependent_link_is_reevaluated_on_the_delta_alone(self, monkeypatch):
        net = self.build(CONFIGS["paper"])
        wrapper = net.node("S").wrapper
        calls = []
        evaluate = wrapper.evaluate_mapping_bindings

        def spying(mapping, *, changed_relation=None, delta_rows=None, rule_key=None):
            if rule_key == "r1":
                rows = None if delta_rows is None else sorted(delta_rows)
                calls.append((changed_relation, rows))
            return evaluate(
                mapping,
                changed_relation=changed_relation,
                delta_rows=delta_rows,
                rule_key=rule_key,
            )

        monkeypatch.setattr(wrapper, "evaluate_mapping_bindings", spying)
        net.global_update("D")
        assert calls == [(None, None), ("a", [(1, "q")])]

    @pytest.mark.parametrize("name", list(CONFIGS))
    def test_a_row_derived_twice_crosses_its_link_once(self, name):
        net = self.build(CONFIGS[name])
        outcome = net.global_update("D")
        assert net.node("D").rows("out") == [(1,)]
        assert rows_shipped(outcome) == 2  # a(1, 'q') to S, out(1) to D
        received = outcome.report.node_reports["D"].per_rule["r1"].rows_received
        assert received == 1

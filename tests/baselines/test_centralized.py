"""The centralised chase engine."""

import pytest

from repro.baselines import CentralizedExchange
from repro.core.rules import CoordinationRule
from repro.errors import FixpointGuardError
from repro.relational.parser import parse_schema
from repro.relational.values import MarkedNull


def rules(*texts):
    return [CoordinationRule.from_text(f"r{i}", t) for i, t in enumerate(texts)]


def schemas(**texts):
    return {name: parse_schema(text) for name, text in texts.items()}


class TestChase:
    def test_single_copy_rule(self):
        exchange = CentralizedExchange(
            schemas(A="p(x)", B="q(x)"), rules("B:q(x) <- A:p(x)")
        )
        result = exchange.run({"A": {"p": [(1,), (2,)]}, "B": {"q": []}})
        assert result.node_snapshot("B", parse_schema("q(x)"))["q"] == [(1,), (2,)]
        assert result.tuples_added == 2
        assert result.nulls_minted == 0

    def test_cyclic_rules_reach_fixpoint(self):
        exchange = CentralizedExchange(
            schemas(A="p(x)", B="q(x)"),
            rules("B:q(x) <- A:p(x)", "A:p(x) <- B:q(x)"),
        )
        result = exchange.run({"A": {"p": [(1,)]}, "B": {"q": [(2,)]}})
        assert result.node_snapshot("A", parse_schema("p(x)"))["p"] == [(1,), (2,)]
        assert result.node_snapshot("B", parse_schema("q(x)"))["q"] == [(1,), (2,)]
        assert result.rounds >= 2

    def test_existential_minting_once_per_frontier(self):
        exchange = CentralizedExchange(
            schemas(A="src(x)", B="dst(x, w)"),
            rules("B:dst(x, w) <- A:src(x)"),
        )
        result = exchange.run({"A": {"src": [(1,), (2,)]}, "B": {"dst": []}})
        rows = result.node_snapshot("B", parse_schema("dst(x, w)"))["dst"]
        assert len(rows) == 2
        nulls = [row[1] for row in rows]
        assert all(isinstance(n, MarkedNull) for n in nulls)
        assert nulls[0] != nulls[1]
        assert result.nulls_minted == 2

    def test_rule_over_unchanged_relations_is_not_evaluated_again(self, monkeypatch):
        from repro.baselines import centralized

        evaluated = []
        evaluate = centralized.evaluate_mapping_bindings

        def counting(database, mapping, **kwargs):
            evaluated.append(mapping.body[0].relation)
            return evaluate(database, mapping, **kwargs)

        monkeypatch.setattr(centralized, "evaluate_mapping_bindings", counting)
        exchange = CentralizedExchange(
            schemas(A="p(x)", B="q(x)", C="r(x)"),
            rules("B:q(x) <- A:p(x)", "C:r(x) <- B:q(x)", "A:p(x) <- C:r(x)"),
        )
        result = exchange.run({"A": {"p": [(1,)]}, "B": {"q": [(2,)]}, "C": {"r": []}})
        # Round 1 moves 1 to q, then 1 and 2 to r, then 2 to p.  Round 2
        # re-runs only the rule reading p — the one relation that grew
        # after its reader ran — and that adds nothing (2 is in q).
        assert evaluated == ["A__p", "B__q", "C__r", "A__p"]
        assert (result.rounds, result.rule_firings, result.tuples_added) == (2, 6, 4)

    def test_divergent_chase_guard(self):
        exchange = CentralizedExchange(
            schemas(A="seed(x)", B="pair(x, w)"),
            rules("B:pair(x, w) <- A:seed(x)", "A:seed(w) <- B:pair(x, w)"),
            max_rounds=30,
        )
        with pytest.raises(FixpointGuardError):
            exchange.run({"A": {"seed": [(1,)]}, "B": {"pair": []}})

    def test_subsumption_terminates_divergent_chase(self):
        exchange = CentralizedExchange(
            schemas(A="seed(x)", B="pair(x, w)"),
            rules("B:pair(x, w) <- A:seed(x)", "A:seed(w) <- B:pair(x, w)"),
            subsumption_dedup=True,
            max_rounds=500,
        )
        result = exchange.run({"A": {"seed": [(1,)]}, "B": {"pair": []}})
        assert result.rounds < 500

    def test_same_relation_name_at_two_nodes_kept_apart(self):
        exchange = CentralizedExchange(
            schemas(A="item(x)", B="item(x)"),
            rules("B:item(x) <- A:item(x)"),
        )
        result = exchange.run({"A": {"item": [(1,)]}, "B": {"item": [(2,)]}})
        assert result.node_snapshot("A", parse_schema("item(x)"))["item"] == [(1,)]
        assert sorted(
            result.node_snapshot("B", parse_schema("item(x)"))["item"]
        ) == [(1,), (2,)]

    def test_comparisons_respected(self):
        exchange = CentralizedExchange(
            schemas(A="p(x)", B="q(x)"),
            rules("B:q(x) <- A:p(x), x >= 10"),
        )
        result = exchange.run({"A": {"p": [(1,), (10,)]}, "B": {"q": []}})
        assert result.node_snapshot("B", parse_schema("q(x)"))["q"] == [(10,)]

    def test_for_network_convenience(self, two_node_network):
        net = two_node_network
        exchange = CentralizedExchange.for_network(net)
        result = exchange.run_for_network(net)
        rows = result.node_snapshot("TN", net.node("TN").wrapper.schema)
        assert rows["resident"] == [("anna",), ("carla",)]

"""Query-time distributed answering (§3's first half)."""

import pytest

from repro import CoDBNetwork
from repro.errors import ProtocolError


@pytest.fixture
def chain_net():
    net = CoDBNetwork(seed=71)
    net.add_node("C", "raw(x: int)", facts="raw(1). raw(2). raw(3)")
    net.add_node("B", "mid(x: int)")
    net.add_node("A", "top(x: int)")
    net.add_rule("B:mid(x) <- C:raw(x)")
    net.add_rule("A:top(x) <- B:mid(x), x >= 2")
    net.start()
    return net


class TestBasicAnswering:
    def test_local_mode_sees_only_local_data(self, chain_net):
        assert chain_net.query("A", "q(x) <- top(x)") == []

    def test_network_mode_fetches_through_chain(self, chain_net):
        rows = chain_net.query("A", "q(x) <- top(x)", mode="network")
        assert sorted(rows) == [(2,), (3,)]

    def test_network_query_migrates_data(self, chain_net):
        chain_net.query("A", "q(x) <- top(x)", mode="network")
        # the coordination formulas migrated data into A and B
        assert sorted(chain_net.node("A").rows("top")) == [(2,), (3,)]
        assert sorted(chain_net.node("B").rows("mid")) == [(1,), (2,), (3,)]

    def test_second_network_query_is_cache_hit(self, chain_net):
        chain_net.query("A", "q(x) <- top(x)", mode="network")
        before = chain_net.transport.stats.messages_sent
        rows = chain_net.query("A", "q(x) <- top(x)", mode="network")
        after = chain_net.transport.stats.messages_sent
        assert sorted(rows) == [(2,), (3,)]
        # the epoch-keyed answer cache serves the repeat: no traffic
        assert after == before
        assert chain_net.node("A").cache.hits == 1

    def test_second_network_query_cheap_uncached(self, chain_net):
        chain_net.query("A", "q(x) <- top(x)", mode="network", cache=False)
        before = chain_net.transport.stats.messages_sent
        rows = chain_net.query(
            "A", "q(x) <- top(x)", mode="network", cache=False
        )
        after = chain_net.transport.stats.messages_sent
        assert sorted(rows) == [(2,), (3,)]
        # requests still flow, but no new data does
        assert after - before > 0

    def test_query_with_join_over_fetched_and_local(self):
        net = CoDBNetwork(seed=72)
        net.add_node("S", "emp(n: str, org: str)", facts="emp('a', 'acme')")
        net.add_node(
            "D", "人员(n: str, org: str)".replace("人员", "staff") + "\nbadge(n: str, num: int)",
            facts="badge('a', 7)",
        )
        net.add_rule("D:staff(n, o) <- S:emp(n, o)")
        net.start()
        rows = net.query(
            "D", "q(n, num) <- staff(n, o), badge(n, num)", mode="network"
        )
        assert rows == [("a", 7)]

    def test_unknown_mode_rejected(self, chain_net):
        with pytest.raises(ProtocolError):
            chain_net.query("A", "q(x) <- top(x)", mode="telepathy")


class TestPersistence:
    def test_repeated_queries_stable(self, chain_net):
        # Every repeat runs the whole diffusing computation (uncached)
        # over stores that already hold what the first one migrated:
        # the same answer, and nothing rolled back in between.
        for _ in range(3):
            rows = chain_net.query(
                "A", "q(x) <- top(x)", mode="network", cache=False
            )
            assert sorted(rows) == [(2,), (3,)]
            assert sorted(chain_net.node("A").rows("top")) == [(2,), (3,)]
            assert sorted(chain_net.node("B").rows("mid")) == [(1,), (2,), (3,)]


    def test_a_relay_answers_from_what_migrated_without_traffic(self, chain_net):
        # §1: data fetched for A migrated into B on the way, so B's own
        # local query needs no network at all.
        chain_net.query("A", "q(x) <- top(x)", mode="network")
        before = chain_net.transport.stats.messages_sent
        assert sorted(chain_net.query("B", "q(x) <- mid(x)")) == [(1,), (2,), (3,)]
        assert chain_net.transport.stats.messages_sent == before

    def test_the_query_request_carries_no_persist_flag(self, chain_net, monkeypatch):
        # A query's imports always stay stored, so nothing on the wire
        # says whether they should.
        sent = []
        send_burst = chain_net.transport.send_burst

        def spying(messages):
            sent.extend(messages)
            return send_burst(messages)

        monkeypatch.setattr(chain_net.transport, "send_burst", spying)
        chain_net.query("A", "q(x) <- top(x)", mode="network")
        requests = [m for m in sent if m.kind == "query_request"]
        assert [(m.sender, m.recipient) for m in requests] == [("A", "B"), ("B", "C")]
        assert all("persist" not in m.payload for m in requests)


class TestRelevanceScoping:
    def test_irrelevant_links_not_queried(self):
        net = CoDBNetwork(seed=73)
        net.add_node("S1", "a(x: int)", facts="a(1)")
        net.add_node("S2", "b(x: int)", facts="b(2)")
        net.add_node("D", "ra(x: int)\nrb(x: int)")
        net.add_rule("D:ra(x) <- S1:a(x)")
        net.add_rule("D:rb(x) <- S2:b(x)")
        net.start()
        net.query("D", "q(x) <- ra(x)", mode="network")
        # only the ra-rule was exercised; S2's data never moved
        assert net.node("D").rows("ra") == [(1,)]
        assert net.node("D").rows("rb") == []

    def test_transitive_relevance_followed(self, chain_net):
        # top depends on mid depends on raw: the request must reach C.
        rows = chain_net.query("A", "q(x) <- top(x)", mode="network")
        assert len(rows) == 2
        assert chain_net.node("C").stats.queries_answered > 0


class TestCyclesAndLabels:
    def test_query_on_cyclic_rules_terminates(self):
        net = CoDBNetwork(seed=74)
        net.add_node("A", "p(x: int)", facts="p(1)")
        net.add_node("B", "q(x: int)", facts="q(2)")
        net.add_rule("A:p(x) <- B:q(x)")
        net.add_rule("B:q(x) <- A:p(x)")
        net.start()
        rows = net.query("A", "out(x) <- p(x)", mode="network")
        assert (1,) in rows and (2,) in rows

    def test_simple_path_semantics_vs_update(self):
        # On cycles, query-time answering follows simple paths only
        # (the label cut); the global update computes the full
        # fix-point.  On a 3-ring both reach everything (paths of
        # length <= 2 suffice); the answers must agree here.
        def build():
            net = CoDBNetwork(seed=75)
            for i in range(3):
                net.add_node(f"N{i}", "r(x: int)", facts=f"r({i})")
            for i in range(3):
                net.add_rule(f"N{i}:r(x) <- N{(i + 1) % 3}:r(x)")
            net.start()
            return net

        query_net = build()
        query_rows = sorted(
            query_net.query("N0", "q(x) <- r(x)", mode="network")
        )
        update_net = build()
        update_net.global_update("N0")
        update_rows = sorted(update_net.query("N0", "q(x) <- r(x)"))
        assert query_rows == update_rows == [(0,), (1,), (2,)]

    def test_the_label_cut_stops_a_request_that_comes_back(self):
        # X reads a from Y, Y reads a from X's b, X reads b from Z.
        # The request X -> Y comes back to X for b; X is in its label,
        # so it is not forwarded to Z: Z's row reaches X only over the
        # path X <- Y <- X <- Z, which is not simple.  The global
        # update runs the full fix-point and brings it.
        def build():
            net = CoDBNetwork(seed=76)
            net.add_node("X", "a(k: int). b(k: int)")
            net.add_node("Y", "a(k: int)")
            net.add_node("Z", "c(k: int)", facts="c(7)")
            net.add_rule("X:a(k) <- Y:a(k)")
            net.add_rule("Y:a(k) <- X:b(k)")
            net.add_rule("X:b(k) <- Z:c(k)")
            net.start()
            return net

        query_net = build()
        assert query_net.query("X", "q(k) <- a(k)", mode="network", cache=False) == []
        assert query_net.node("Z").stats.queries_answered == 0
        update_net = build()
        update_net.global_update("X")
        assert update_net.query("X", "q(k) <- a(k)") == [(7,)]


class TestQueryValidation:
    def test_query_against_missing_relation(self, chain_net):
        from repro.errors import UnknownRelationError

        with pytest.raises(UnknownRelationError):
            chain_net.query("A", "q(x) <- nothere(x)", mode="network")

    def test_concurrent_queries_do_not_interfere(self, chain_net):
        node = chain_net.node("A")
        q1 = node.submit_query_id("q(x) <- top(x)")
        q2 = node.submit_query_id("q(x) <- top(x)")
        chain_net.run()
        assert sorted(node.network_query_answer(q1)) == [(2,), (3,)]
        assert sorted(node.network_query_answer(q2)) == [(2,), (3,)]

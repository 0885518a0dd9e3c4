"""Concurrent computations: updates, queries and inserts interleaved.

The DBM "serves, in general, many requests concurrently" (§3): any
number of global updates may be in flight per network, one session per
update id at every node.  These tests interleave two overlapping
updates (chain and cycle), queries during updates, and churn with a
second update live.
"""

import pytest

from repro import CoDBNetwork


def build_chain(config=None):
    net = CoDBNetwork(seed=141, config=config)
    net.add_node("C", "item(k: int)", facts="item(1). item(2)")
    net.add_node("B", "item(k: int)", facts="item(3)")
    net.add_node("A", "item(k: int)")
    net.add_rule("B:item(k) <- C:item(k)")
    net.add_rule("A:item(k) <- B:item(k)")
    net.start()
    return net


def build_cycle(config=None):
    """A 3-cycle: every node ends up with the union of all items."""
    net = CoDBNetwork(seed=142, config=config)
    net.add_node("A", "item(k: int)", facts="item(1)")
    net.add_node("B", "item(k: int)", facts="item(2)")
    net.add_node("C", "item(k: int)", facts="item(3)")
    net.add_rule("A:item(k) <- B:item(k)")
    net.add_rule("B:item(k) <- C:item(k)")
    net.add_rule("C:item(k) <- A:item(k)")
    net.start()
    return net


ALL_ITEMS = [(1,), (2,), (3,)]


class TestConcurrentUpdates:
    def test_two_overlapping_updates_on_a_chain(self):
        net = build_chain()
        first = net.node("A").submit_update_id()
        second = net.node("C").submit_update_id()
        net.run()
        assert net.node("A").update_done(first)
        assert net.node("C").update_done(second)
        assert sorted(net.node("A").rows("item")) == ALL_ITEMS
        assert sorted(net.node("B").rows("item")) == ALL_ITEMS
        # every participating node closed a report for BOTH updates
        for name in "ABC":
            for update_id in (first, second):
                report = net.node(name).update_report(update_id)
                assert report is not None and report.status == "closed"

    def test_two_overlapping_updates_on_a_cycle(self):
        net = build_cycle()
        first = net.node("A").submit_update_id()
        second = net.node("B").submit_update_id()
        net.run()
        assert net.node("A").update_done(first)
        assert net.node("B").update_done(second)
        for name in "ABC":
            assert sorted(net.node(name).rows("item")) == ALL_ITEMS

    def test_same_origin_twice_concurrently(self):
        net = build_chain()
        first = net.node("A").submit_update_id()
        second = net.node("A").submit_update_id()
        assert first != second
        net.run()
        assert net.node("A").update_done(first)
        assert net.node("A").update_done(second)
        assert sorted(net.node("A").rows("item")) == ALL_ITEMS

    def test_three_origins_at_once(self):
        net = build_cycle()
        ids = [net.node(name).submit_update_id() for name in "ABC"]
        net.run()
        for name, update_id in zip("ABC", ids):
            assert net.node(name).update_done(update_id)
        for name in "ABC":
            assert sorted(net.node(name).rows("item")) == ALL_ITEMS

    def test_sessions_are_garbage_collected(self):
        net = build_chain()
        first = net.node("A").submit_update_id()
        second = net.node("C").submit_update_id()
        net.run()
        for name in "ABC":
            manager = net.node(name).updates
            assert manager.active_ids() == []
            assert first in manager.finished
            assert second in manager.finished

    def test_sequential_updates_fine(self):
        net = build_chain()
        first = net.global_update("A")
        second = net.global_update("C")
        assert first.update_id != second.update_id
        assert net.node("A").update_done(first.update_id)
        assert net.node("C").update_done(second.update_id)


class TestChurnDuringConcurrentUpdates:
    def test_peer_down_mid_update_with_second_update_live(self):
        from repro.p2p.faults import FaultInjector

        net = build_chain()
        injector = FaultInjector()
        net.transport.install_faults(injector)
        second = []

        def start_second_and_kill_source() -> None:
            # The first update's requests reached B: start a second
            # update there, then kill the source with both live.
            second.append(net.node("B").submit_update_id())
            net.node("C").detach()

        injector.at_delivery(
            start_second_and_kill_source,
            kind="update_request",
            recipient="B",
        )
        first = net.node("A").submit_update_id()
        net.run()
        assert net.node("A").update_done(first)
        assert net.node("B").update_done(second[0])
        # B's own row survives; C's contribution may be partial.
        assert (3,) in net.node("A").rows("item")

    @pytest.mark.parametrize("victim", ["B", "C"])
    def test_victims_never_hang_two_updates(self, victim):
        from repro.p2p.faults import FaultInjector

        net = build_cycle()
        injector = FaultInjector()
        net.transport.install_faults(injector)
        second = []
        injector.at_delivery(
            lambda: second.append(net.node("C").submit_update_id()),
            kind="update_request",
            count=1,
        )
        # Two deliveries later both floods are in flight: detach then.
        injector.at_delivery(
            lambda: net.node(victim).detach(),
            kind="update_request",
            count=3,
        )
        first = net.node("A").submit_update_id()
        net.run()
        assert net.node("A").update_done(first)
        if victim != "C":
            assert net.node("C").update_done(second[0])


class TestQueriesDuringUpdates:
    def test_query_and_update_coexist(self):
        net = build_chain()
        node = net.node("A")
        update_id = node.submit_update_id()
        query_id = node.submit_query_id("q(k) <- item(k)")
        net.run()
        assert node.update_done(update_id)
        answer = node.network_query_answer(query_id)
        assert answer is not None
        assert set(answer) <= set(ALL_ITEMS)

    def test_query_during_two_concurrent_updates(self):
        net = build_chain()
        first = net.node("A").submit_update_id()
        second = net.node("C").submit_update_id()
        query_id = net.node("A").submit_query_id("q(k) <- item(k)")
        net.run()
        assert net.node("A").update_done(first)
        assert net.node("C").update_done(second)
        answer = net.node("A").network_query_answer(query_id)
        assert answer is not None
        assert set(answer) <= set(ALL_ITEMS)
        # after quiescence the updates have materialised everything
        assert sorted(net.node("A").rows("item")) == ALL_ITEMS

    def test_multiple_roots_query_simultaneously(self):
        net = build_chain()
        qa = net.node("A").submit_query_id("q(k) <- item(k)")
        qb = net.node("B").submit_query_id("q(k) <- item(k)")
        net.run()
        assert sorted(net.node("A").network_query_answer(qa)) == ALL_ITEMS
        assert sorted(net.node("B").network_query_answer(qb)) == ALL_ITEMS

    def test_insert_during_query(self):
        net = build_chain()
        net.global_update("A")
        query_id = net.node("A").submit_query_id("q(k) <- item(k)")
        net.transport.step()  # the request is under way
        net.node("C").insert("item", (9,))
        net.run()
        answer = net.node("A").network_query_answer(query_id)
        assert sorted(answer) == sorted([*ALL_ITEMS, (9,)])
        assert (9,) in net.node("A").rows("item")  # the query imported it


class TestLocalQueriesAlwaysAvailable:
    def test_local_query_mid_update(self):
        net = build_chain()
        node = net.node("A")
        node.submit_update_id()
        # local reads never block on network activity
        assert node.query("q(k) <- item(k)") == []
        net.run()
        assert sorted(node.query("q(k) <- item(k)")) == ALL_ITEMS

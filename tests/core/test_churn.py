"""Node churn during computations (§1: the network "may dynamically
change"; §1 again: the algorithm terminates "even if nodes and
coordination rules appear or disappear during the computation")."""

import pytest

from repro import CoDBNetwork
from repro.core.links import CLOSED
from repro.p2p.faults import FaultInjector


def build_chain():
    net = CoDBNetwork(seed=101)
    net.add_node("C", "item(k: int)", facts="item(1). item(2)")
    net.add_node("B", "item(k: int)", facts="item(3)")
    net.add_node("A", "item(k: int)")
    net.add_rule("B:item(k) <- C:item(k)")
    net.add_rule("A:item(k) <- B:item(k)")
    net.start()
    return net


def hooks(net) -> FaultInjector:
    """Event-count fault scheduling on the simulator (no fault models
    — fault timing must never depend on wall-clock/run_for constants)."""
    injector = FaultInjector()
    net.transport.install_faults(injector)
    return injector


class TestCrashBeforeUpdate:
    def test_update_terminates_without_dead_source(self):
        net = build_chain()
        net.node("C").detach()
        outcome = net.global_update("A")
        # A still gets B's own data; C's contribution is lost.
        assert sorted(net.node("A").rows("item")) == [(3,)]
        report_b = net.node("B").update_report(outcome.update_id)
        assert report_b.links_closed_by_failure >= 1

    def test_update_terminates_when_leaf_target_dead(self):
        net = build_chain()
        net.node("A").detach()
        outcome = net.global_update("B")  # origin in the middle
        assert sorted(net.node("B").rows("item")) == [(1,), (2,), (3,)]
        assert outcome.update_id

    def test_links_toward_dead_peer_marked_failure(self):
        net = build_chain()
        net.node("C").detach()
        net.global_update("A")
        link = net.node("B").links.outgoing["r0"]
        assert link.state == CLOSED
        assert link.closed_by == "failure"


class TestCrashMidUpdate:
    def test_crash_while_messages_in_flight(self):
        net = build_chain()
        node = net.node("A")
        # Kill C the instant B has processed the origin's request —
        # before it answers everything downstream.  The hook fires at
        # an exact protocol moment, whatever the latency model.
        hooks(net).at_delivery(
            lambda: net.node("C").detach(),
            kind="update_request",
            recipient="B",
        )
        update_id = node.submit_update_id()
        net.run()
        assert node.update_done(update_id)
        # B's own row made it; C died before or during serving.
        assert (3,) in net.node("A").rows("item")

    def test_graceful_leave_mid_update(self):
        net = build_chain()
        node = net.node("A")
        hooks(net).at_delivery(
            lambda: net.node("C").leave_network(),
            kind="update_request",
            recipient="B",
        )
        update_id = node.submit_update_id()
        net.run()
        assert node.update_done(update_id)

    @pytest.mark.parametrize("victim", ["B", "C"])
    def test_various_victims_never_hang(self, victim):
        net = build_chain()
        node = net.node("A")
        hooks(net).at_delivery(
            lambda: net.node(victim).detach(), kind="update_request"
        )
        update_id = node.submit_update_id()
        net.run()
        assert node.update_done(update_id)


    @pytest.mark.parametrize("victim", [None, 1, 2, 3])
    def test_a_crash_loses_at_most_the_dead_suffix(self, victim):
        """``N0 <- N1 <- N2 <- N3``, six rows each; node *victim* dies
        the instant the flood's request lands on it.  The update still
        terminates, and the origin misses at most what the dead suffix
        ``victim..N3`` would have contributed — nothing more."""
        length, tuples = 4, 6
        net = CoDBNetwork(seed=140)
        for i in range(length):
            net.add_node(
                f"N{i}", "item(k: int)",
                facts={"item": [(i * 100 + j,) for j in range(tuples)]},
            )
        for i in range(length - 1):
            net.add_rule(f"N{i}:item(k) <- N{i + 1}:item(k)")
        net.start()
        if victim is not None:
            hooks(net).at_delivery(
                lambda: net.node(f"N{victim}").detach(),
                kind="update_request",
                recipient=f"N{victim}",
            )
        origin = net.node("N0")
        update_id = origin.submit_update_id()
        net.run()
        assert origin.update_done(update_id)
        lost = tuples * length - origin.wrapper.count("item")
        assert 0 <= lost <= (0 if victim is None else tuples * (length - victim))


class TestChurnAndQueries:
    def test_network_query_with_dead_source_terminates(self):
        net = build_chain()
        net.node("C").detach()
        rows = net.query("A", "q(k) <- item(k)", mode="network")
        assert rows == [(3,)]

    def test_statistics_skip_dead_nodes(self):
        net = build_chain()
        net.global_update("A")
        net.node("C").detach()
        collection_id = net.collect_statistics()
        assert net.superpeer.responding_nodes(collection_id) == ["A", "B"]

    def test_second_update_after_crash_works(self):
        net = build_chain()
        net.node("C").detach()
        net.global_update("A")
        net.node("B").insert("item", (4,))
        outcome = net.global_update("A")
        assert (4,) in net.node("A").rows("item")
        assert outcome.update_id


class TestFailureFinalizeScope:
    """The self-finalize arming introduced for severed components
    (``UpdateEngine.peer_lost``) must only arm for peers the session
    actually touches — an unrelated death must never prime a healthy
    branch to flood completion prematurely."""

    def _live_session(self):
        net = CoDBNetwork(seed=5, with_superpeer=False)
        net.add_node("A", "item(k: int)")
        net.add_node("B", "item(k: int)", facts={"item": [(1,)]})
        net.add_rule("A:item(k) <- B:item(k)")
        net.start()
        handle = net.submit_global_update("A")
        session = net.node("A").updates.session(handle.request_id)
        assert session is not None  # flood still queued on the simulator
        return net, handle, session

    def test_unrelated_peer_death_does_not_arm_self_finalize(self):
        net, handle, session = self._live_session()
        session.on_peer_unreachable("GHOST")
        assert not session.peer_lost
        assert handle.result() is not None  # update still completes fully
        assert net.node("A").rows("item") == [(1,)]

    def test_linked_peer_death_arms_self_finalize(self):
        net, handle, session = self._live_session()
        session.on_peer_unreachable("B")
        assert session.peer_lost

    def test_cut_vertex_crash_finalizes_severed_component(self):
        """Chain A <- B <- C: the origin A's only route to C is B.
        Killing B mid-update must still complete the update at C (the
        severed side self-finalizes; nothing hangs)."""
        net = CoDBNetwork(seed=6, with_superpeer=False)
        net.add_node("A", "item(k: int)")
        net.add_node("B", "item(k: int)", facts={"item": [(1,)]})
        net.add_node("C", "item(k: int)", facts={"item": [(2,)]})
        net.add_rule("A:item(k) <- B:item(k)")
        net.add_rule("B:item(k) <- C:item(k)")
        net.start()
        node_a = net.node("A")
        update_id = node_a.submit_update_id()
        net.transport.run_until_idle(max_messages=2)  # flood reaches B/C
        net.node("B").detach()
        net.run()
        assert node_a.update_done(update_id)
        assert net.node("C").updates.is_done(update_id)
        assert not net.node("C").updates.active_ids()

    def test_premature_failure_flood_does_not_truncate_healthy_branches(self):
        """Rules A<-B, A<-C, B<-X.  If X dies, B may legitimately
        self-finalize — but its ``cause="failure"`` completion flood
        reaching the still-active origin A must ARM A, not finalize
        it: C's rows are still in flight, and finalizing would force-
        close the live C link and drop them all."""
        from repro.p2p.messages import Message

        net = CoDBNetwork(seed=9, with_superpeer=False)
        net.add_node("A", "item(k: int)")
        net.add_node("B", "item(k: int)", facts={"item": [(1,)]})
        net.add_node(
            "C", "item(k: int)",
            facts={"item": [(k,) for k in range(100, 300)]},
        )
        net.add_node("X", "item(k: int)", facts={"item": [(2,)]})
        net.add_rule("A:item(k) <- B:item(k)")
        net.add_rule("A:item(k) <- C:item(k)")
        net.add_rule("B:item(k) <- X:item(k)")
        net.start()
        node_a = net.node("A")
        update_id = node_a.submit_update_id()
        net.transport.run_until_idle(max_messages=2)
        assert not node_a.update_done(update_id)
        # Inject B's premature failure-triggered completion flood while
        # A's session is still live (C's results not yet delivered).
        node_a.updates.on_update_complete(
            Message(
                kind="update_complete",
                sender="B",
                recipient="A",
                payload={"update_id": update_id, "cause": "failure"},
            )
        )
        assert not node_a.update_done(update_id), (
            "a failure flood finalized the still-active origin"
        )
        net.run()
        assert node_a.update_done(update_id)
        assert len(node_a.rows("item")) == 202, (
            "in-flight rows were dropped by a premature completion"
        )

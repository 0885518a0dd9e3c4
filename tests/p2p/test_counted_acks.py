"""Counted acknowledgements: one ``ack`` per delivery, also under faults.

A node sums what it owes during a delivery and pays it as one ``ack``
carrying ``count`` (left out when it is 1).  These tests pin the paths
where a count could get lost or be applied twice: a bounced ack's
retransmission, acks from a peer that was written off, and the
stray-ack paths of the update and query engines.

A result a participant sends its parent is never acked: the
participant's tree ack covers it, and carries how many such results it
covers (``covers``).  The parent drains the tree edge only once it has
processed that many; the tests below pin that count rule.
"""

import itertools

import pytest

from repro import CoDBNetwork
from repro.core.node import CoDBNode, NodeConfig
from repro.core.rules import CoordinationRule
from repro.core.termination import DiffusingComputation
from repro.errors import ProtocolError
from repro.p2p.faults import FaultInjector, FaultModel
from repro.p2p.ids import IdAuthority
from repro.p2p.inproc import InProcessNetwork
from repro.p2p.messages import Message
from repro.relational.parser import parse_schema


def detector(acks=None):
    """A detector whose acks go to *acks* as ``(recipient, computation)``."""
    acks = [] if acks is None else acks
    completed = []
    return DiffusingComputation(
        lambda to, cid: acks.append((to, cid)), completed.append
    ), completed


class TestCountedOnAck:
    def test_one_ack_drains_its_whole_count(self):
        d, completed = detector()
        d.start_root("c")
        d.note_sent("c", "P", count=3)
        d.on_ack("c", "P", 3)
        assert d.deficit("c") == 0 and completed == ["c"]

    def test_count_defaults_to_one(self):
        d, completed = detector()
        d.start_root("c")
        d.note_sent("c", "P", count=2)
        d.on_ack("c", "P")
        assert d.deficit("c") == 1 and completed == []

    def test_written_off_peer_drains_only_what_it_was_sent_since(self):
        """P was written off with five messages out and sent two more;
        its late ack for the five must not raise "more acks than
        messages", nor touch Q's share."""
        d, completed = detector()
        d.start_root("c")
        d.note_sent("c", "P", count=5)
        d.note_sent("c", "Q")
        d.on_peer_down("P")
        d.note_sent("c", "P", count=2)
        d.on_ack("c", "P", 5)
        assert d.deficit("c") == 1 and completed == []
        d.on_ack("c", "Q")
        assert completed == ["c"]

    def test_fully_written_off_peer_is_ignored(self):
        d, completed = detector()
        d.start_root("c")
        d.note_sent("c", "P", count=3)
        d.note_sent("c", "Q")
        d.on_peer_down("P")
        d.on_ack("c", "P", 3)  # late: the failure detector was first
        assert d.deficit("c") == 1 and completed == []

    def test_anonymous_over_ack_is_still_a_protocol_error(self):
        d, _ = detector()
        d.start_root("c")
        d.note_sent("c", count=1)
        with pytest.raises(ProtocolError):
            d.on_ack("c", count=2)


class TestTheCountRule:
    def test_a_tree_ack_waits_for_the_results_it_covers(self):
        d, completed = detector()
        d.start_root("c")
        d.note_sent("c", "P")  # the request that makes us P's parent
        d.on_covered("c", "P")
        d.on_ack("c", "P", covers=3)  # P left having sent us three
        assert d.deficit("c") == 1 and completed == []
        d.on_covered("c", "P")
        assert d.deficit("c") == 1 and completed == []
        d.on_covered("c", "P")
        assert d.deficit("c") == 0 and completed == ["c"]

    def test_a_fin_ahead_of_a_retry_waits_for_it(self):
        d, completed = detector()
        d.start_root("c")
        d.note_sent("c", "P")
        d.on_covered("c", "P", covers=2)  # the fin overtook the first
        assert d.deficit("c") == 1 and completed == []
        d.on_covered("c", "P")  # the retry
        assert completed == ["c"]

    def test_the_count_accumulates_across_a_re_engagement(self):
        """P sends two covered results, leaves, is engaged again by the
        same parent and sends one more: its second tree ack covers
        three.  The first result, retried, arrives behind both: the
        parent stays engaged until it is in."""
        child, _ = detector()
        assert child.on_engaging_message("c", "R") is True
        assert child.note_result("c", "R") and child.note_result("c", "R")
        child.after_processing("c", "R", True)
        assert child.disengage_quiet() == [("c", "R", 2)]
        assert child.on_engaging_message("c", "R") is True
        assert child.note_result("c", "R")
        child.after_processing("c", "R", True)
        assert child.disengage_quiet() == [("c", "R", 3)]
        assert child.deficit("c") == 0

        parent, completed = detector()
        parent.start_root("c")
        parent.note_sent("c", "P", count=2)  # two engagements of P
        parent.on_covered("c", "P", covers=2)  # the second result, fin
        parent.on_covered("c", "P", covers=3)  # the third, fin again
        # Two results are in, so the first tree ack drains; the second
        # still holds its edge.
        assert parent.deficit("c") == 1 and completed == []
        parent.on_covered("c", "P")  # the first, retried
        assert parent.deficit("c") == 0 and completed == ["c"]

    def test_a_flagged_result_to_a_peer_not_our_parent_is_acked(self):
        child, _ = detector()
        child.on_engaging_message("c", "R")
        assert child.note_result("c", "Q") is False
        assert child.deficit("c") == 1
        child.after_processing("c", "R", True)
        assert child.disengage_quiet() == []  # waits for Q's ack

        acks = []
        other, _ = detector(acks)
        other.start_root("c")
        tree = other.on_engaging_message("c", "P", covered=False)
        other.after_processing("c", "P", tree, covered=False)
        assert acks == [("P", "c")]

        child.on_ack("c", "Q")
        assert child.disengage_quiet() == [("c", "R", 0)]

    def test_writing_a_child_off_clears_its_waiting_tree_acks(self):
        d, completed = detector()
        d.start_root("c")
        d.note_sent("c", "P")
        d.note_sent("c", "Q")
        d.on_ack("c", "P", covers=2)
        d.on_peer_down("P")
        assert d._computations["c"].waiting == {}
        assert d.deficit("c") == 1 and completed == []
        d.on_covered("c", "P")  # late: no deficit is P's any more
        d.on_covered("c", "P")
        assert d.deficit("c") == 1 and completed == []
        d.on_ack("c", "Q")
        assert completed == ["c"]


class Fabric:
    """One real node ``A`` importing from a scripted peer ``B``."""

    def __init__(self, config: NodeConfig | None = None) -> None:
        self.net = InProcessNetwork()
        self.heard: list[Message] = []
        self.ids = (f"b-{n}" for n in itertools.count())
        self.net.register("B", self.heard.append)
        self.node = CoDBNode(
            "A",
            parse_schema("item(k: int)"),
            self.net,
            IdAuthority(),
            config=config,
        )
        self.node.set_rules(
            [CoordinationRule.from_text("r", "A:item(k) <- B:item(k)")]
        )

    def from_b(self, *messages: tuple[str, dict]) -> None:
        """Deliver *messages* from ``B`` to ``A`` as one burst."""
        self.net.send_burst(
            [
                Message(kind, "B", "A", payload, message_id=next(self.ids))
                for kind, payload in messages
            ]
        )
        self.net.run_until_idle()

    def acks(self) -> list[dict]:
        return [m.payload for m in self.heard if m.kind == "ack"]


def result(update_id: str, *keys: int, ack: bool = True) -> tuple[str, dict]:
    """A result from B; flagged to be acked unless B is A's child."""
    payload = {"update_id": update_id, "rule_id": "r", "rows": [[k] for k in keys]}
    if ack:
        payload["ack"] = True
    return "query_result", payload


def closing(update_id: str, *, fin: bool = False) -> tuple[str, dict]:
    """The result of no rows that closes B's link to A; with *fin*, B
    is A's child, and the result carries its tree ack."""
    kind, payload = result(update_id, ack=not fin)
    payload["closed"] = True
    if fin:
        payload["fin"] = True
    return kind, payload


class TestBouncedAck:
    def bounce(self, payload: dict) -> tuple[str, dict]:
        return (
            "undeliverable",
            {"kind": "ack", "payload": payload, "recipient": "B", "message_id": "a-7"},
        )

    def resent(self, fabric: Fabric) -> list[tuple[str, dict]]:
        return [(m.message_id, m.payload) for m in fabric.heard if m.kind == "ack"]

    def test_retransmission_keeps_the_count_and_the_id(self):
        fabric = Fabric()
        fabric.from_b(self.bounce({"computation_id": "update-x", "count": 3}))
        assert self.resent(fabric) == [("a-7", {"computation_id": "update-x", "count": 3})]

    def test_a_single_ack_is_retransmitted_bare(self):
        fabric = Fabric()
        fabric.from_b(self.bounce({"computation_id": "update-x"}))
        assert self.resent(fabric) == [("a-7", {"computation_id": "update-x"})]

    def test_no_retransmission_toward_a_peer_reported_down(self):
        fabric = Fabric()
        fabric.from_b(("peer_down", {"peer": "B"}))
        fabric.from_b(self.bounce({"computation_id": "update-x", "count": 3}))
        assert fabric.acks() == []


class TestStrayAcks:
    def test_burst_for_a_completed_update_gets_one_counted_ack(self):
        fabric = Fabric()
        fabric.node.updates.completed_updates.add("update-done")
        fabric.from_b(
            result("update-done", 1),
            result("update-done", 2),
            closing("update-done"),
        )
        assert fabric.acks() == [{"computation_id": "update-done", "count": 3}]
        assert fabric.node.rows("item") == []  # dropped, not ingested

    def test_a_fin_stray_is_not_acked(self):
        fabric = Fabric()
        fabric.node.updates.completed_updates.add("update-done")
        fabric.from_b(result("update-done", 1), closing("update-done", fin=True))
        assert fabric.acks() == [{"computation_id": "update-done"}]

    def test_single_stray_is_acked_bare(self):
        fabric = Fabric()
        fabric.node.updates.completed_updates.add("update-done")
        fabric.from_b(result("update-done", 1))
        assert fabric.acks() == [{"computation_id": "update-done"}]

    def test_update_dropped_from_admission_acks_its_deferred_messages_once(self):
        fabric = Fabric(NodeConfig(max_active_sessions=1))
        node = fabric.node
        node.admission.try_enter("update-live-0001", "update")  # the only slot
        request = (
            "update_request",
            {"update_id": "update-late-0002", "origin": "B", "path": ["B"]},
        )
        fabric.from_b(request, result("update-late-0002", 1))
        assert node.admission.is_deferred("update-late-0002")
        assert fabric.acks() == []  # deferred un-acked: B's deficit stays open
        fabric.from_b(("update_complete", {"update_id": "update-late-0002"}))
        assert fabric.acks() == [{"computation_id": "update-late-0002", "count": 2}]

    def test_a_deferred_fin_is_not_acked_when_its_update_is_dropped(self):
        fabric = Fabric(NodeConfig(max_active_sessions=1))
        node = fabric.node
        node.admission.try_enter("update-live-0001", "update")
        request = (
            "update_request",
            {"update_id": "update-late-0002", "origin": "B", "path": ["B"]},
        )
        fabric.from_b(request, closing("update-late-0002", fin=True))
        fabric.from_b(("update_complete", {"update_id": "update-late-0002"}))
        assert fabric.acks() == [{"computation_id": "update-late-0002"}]

    def test_query_dropped_from_admission_acks_its_deferred_messages_once(self):
        fabric = Fabric(NodeConfig(max_active_sessions=1))
        node = fabric.node
        node.admission.try_enter("update-live-0001", "update")
        request = {
            "query_id": "query-late-0002",
            "origin": "B",
            "label": ["B"],
            "rule_ids": [],
        }
        fabric.from_b(("query_request", request), ("query_request", request))
        assert fabric.acks() == []
        fabric.from_b(("query_complete", {"query_id": "query-late-0002"}))
        # Never served: the ack says so.
        assert fabric.acks() == [
            {"computation_id": "query-late-0002", "count": 2, "partial": True}
        ]


class TestOneAckPerDelivery:
    def test_a_burst_is_acknowledged_once_a_split_burst_per_part(self):
        def acks_for(*bursts):
            fabric = Fabric()
            node = fabric.node
            update_id = node.submit_update_id()  # A is the root: nothing deferred
            fabric.net.run_until_idle()
            for burst in bursts:
                fabric.from_b(*(result(update_id, key) for key in burst))
            assert sorted(node.rows("item")) == [(1,), (2,), (3,)]
            return [ack.get("count", 1) for ack in fabric.acks()]

        assert acks_for([1, 2, 3]) == [3]
        assert acks_for([1], [2, 3]) == [1, 2]
        assert acks_for([1], [2], [3]) == [1, 1, 1]


class TestImplicitAcks:
    """A participant's results to its parent — ``query_data``, or an
    update's ``query_result`` — are covered by its tree ack, which
    rides the last of them (``fin``)."""

    def test_an_update_fin_closes_the_link_and_the_tree_edge(self):
        fabric = Fabric()
        node = fabric.node
        update_id = node.submit_update_id()
        fabric.net.run_until_idle()
        assert node.termination.deficit(update_id) == 1  # the request to B
        closed = closing(update_id, fin=True)
        closed[1]["covers"] = 2
        fabric.from_b(result(update_id, 1, ack=False), closed)
        # Neither is acked: the closing one is B's tree ack, covering both.
        assert fabric.acks() == []
        assert node.update_done(update_id)
        assert node.rows("item") == [(1,)]
        report = node.update_report(update_id)
        assert report.status == "closed" and report.links_closed_by_quiescence == 0

    def test_an_update_participant_closes_with_its_last_word(self):
        fabric = Fabric()
        node = fabric.node
        node.set_rules(
            [CoordinationRule.from_text("s", "B:item(k) <- A:item(k)")]
        )
        node.load_facts({"item": [(1,)]})
        request = {"update_id": "update-x", "origin": "B", "path": ["B"]}
        fabric.from_b(("update_request", request))
        (last,) = [m for m in fabric.heard if m.kind == "query_result"]
        assert last.payload == {
            "update_id": "update-x", "rule_id": "s", "rows": [[1]],
            "path_len": 1, "closed": True, "fin": True,
        }
        assert fabric.acks() == []
        assert not node.termination.is_engaged("update-x")
        assert node.update_report("update-x").bytes_sent == last.size_bytes()

    def test_an_activation_with_nothing_new_sends_only_the_closure(self):
        fabric = Fabric()
        node = fabric.node
        node.set_rules(
            [CoordinationRule.from_text("s", "B:item(k) <- A:item(k)")]
        )
        request = {"update_id": "update-x", "origin": "B", "path": ["B"]}
        fabric.from_b(("update_request", request))
        (last,) = [m for m in fabric.heard if m.kind == "query_result"]
        assert last.payload == {
            "update_id": "update-x", "rule_id": "s", "rows": [],
            "closed": True, "fin": True,
        }

    def test_a_fin_message_is_not_acked_and_releases_the_tree_edge(self):
        fabric = Fabric()
        node = fabric.node
        query_id = node.submit_query_id("q(k) <- item(k)", cache=False)
        fabric.net.run_until_idle()
        (request,) = fabric.heard  # A, the root, asked B
        assert request.kind == "query_request"
        assert node.termination.deficit(query_id) == 1
        data = {"query_id": query_id, "rule_id": "r", "rows": [[1]],
                "path_len": 1, "fin": True}
        fabric.from_b(("query_data", data))
        assert fabric.acks() == []
        assert node.termination.deficit(query_id) == 0
        assert node.network_query_answer(query_id) == [(1,)]

    def test_a_bounced_fin_goes_again_as_it_was(self):
        fabric = Fabric()
        node = fabric.node
        node.set_rules(
            [CoordinationRule.from_text("s", "B:item(k) <- A:item(k)")]
        )
        node.load_facts({"item": [(1,)]})
        request = {"query_id": "query-x", "origin": "B", "label": ["B"],
                   "rule_ids": ["s"]}
        fabric.from_b(("query_request", request))
        (data,) = [m for m in fabric.heard if m.kind == "query_data"]
        assert data.payload["fin"] is True and "partial" not in data.payload
        assert fabric.acks() == []
        assert not node.termination.is_engaged("query-x")
        # Engaged again meanwhile, with one message of its own out to B:
        # the bounce must not take that one off.
        node.termination.on_engaging_message("query-x", "B")
        node.termination.note_sent("query-x", "B")
        fabric.from_b(
            ("undeliverable",
             {"kind": "query_data", "payload": data.payload, "recipient": "B",
              "message_id": data.message_id})
        )
        # The same shipment, still carrying the tree ack: nothing else.
        (_, again) = [m for m in fabric.heard if m.kind == "query_data"]
        assert (again.message_id, again.payload) == (data.message_id, data.payload)
        assert fabric.acks() == []
        assert node.termination.deficit("query-x") == 1
        assert not node.queries.is_partial("query-x")


class TestMalformedCounts:
    @pytest.mark.parametrize(
        "field, value",
        [("count", "2"), ("count", -1), ("count", True), ("count", 2.0),
         ("covers", "1"), ("covers", -1), ("covers", False)],
    )
    def test_a_bad_ack_count_is_refused_before_any_deficit_moves(self, field, value):
        fabric = Fabric()
        node = fabric.node
        update_id = node.submit_update_id()
        fabric.net.run_until_idle()
        bad = Message("ack", "B", "A", {"computation_id": update_id, field: value}, "b-1")
        with pytest.raises(ProtocolError, match=field):
            node.react([bad])
        assert node.termination.deficit(update_id) == 1
        node.react([Message("ack", "B", "A", {"computation_id": update_id}, "b-2")])
        assert node.update_done(update_id)

    @pytest.mark.parametrize("value", ["3", -1, True])
    def test_a_bad_count_on_a_fin_is_refused_before_any_deficit_moves(self, value):
        fabric = Fabric()
        node = fabric.node
        update_id = node.submit_update_id()
        fabric.net.run_until_idle()
        kind, payload = closing(update_id, fin=True)
        payload["covers"] = value
        with pytest.raises(ProtocolError, match="covers"):
            node.react([Message(kind, "B", "A", payload, "b-1")])
        assert node.termination.deficit(update_id) == 1
        assert node.rows("item") == []


class BounceFirstCovered(FaultModel):
    """Bounce, once, the first ``query_result`` N2 sends N1 — its
    parent, so the result is covered — and log what N1 takes in."""

    def __init__(self) -> None:
        super().__init__()
        self.bounced = ""
        self.log: list[str] = []

    def on_send(self, message, verdict) -> None:
        if (
            not self.bounced
            and message.kind == "query_result"
            and (message.sender, message.recipient) == ("N2", "N1")
        ):
            assert "ack" not in message.payload
            self.bounced = message.message_id
            verdict.bounce = True

    def on_delivered(self, message) -> None:
        if message.kind == "query_result" and message.recipient == "N1":
            if message.message_id == self.bounced:
                self.log.append("retry")
            elif message.payload.get("fin"):
                self.log.append(f"fin covers {message.payload.get('covers', 1)}")
            else:
                self.log.append("result")


def test_a_retry_that_lands_behind_its_fin_is_waited_for():
    """``N0 <- N1 <- N2``, one row per result: N2's three results to N1
    leave in one burst, the last carrying its tree ack.  The first
    bounces, so its retry lands behind the ``fin``; the update must not
    complete before the retry is ingested."""
    net = CoDBNetwork(seed=3, with_superpeer=False, config=NodeConfig(batch_rows=1))
    for index in range(3):
        rows = {"item": [(1,), (2,), (3,)]} if index == 2 else None
        net.add_node(f"N{index}", "item(k: int)", facts=rows)
    for index in range(2):
        net.add_rule(f"N{index}:item(k) <- N{index + 1}:item(k)")
    net.start()
    weather = BounceFirstCovered()
    net.transport.install_faults(FaultInjector(weather, seed=1))
    manager = net.node("N0").updates
    complete = manager.root_complete

    def logged(update_id):
        weather.log.append("complete")
        complete(update_id)

    manager.root_complete = logged
    outcome = net.global_update("N0")
    net.run()
    assert weather.log == ["result", "fin covers 3", "retry", "complete"]
    assert outcome.report.outcome == "complete"
    assert sorted(net.node("N0").rows("item")) == [(1,), (2,), (3,)]
    assert net.transport.stats.by_kind.get("ack", 0) == 0

"""Dijkstra–Scholten termination detection, unit-tested in isolation."""

import pytest

from repro.core.termination import DiffusingComputation
from repro.errors import ProtocolError


class Harness:
    """Scripted message fabric for a handful of detector instances.

    Each ``after_processing`` or ``on_ack`` call is one input to its
    node: as it returns, what it left quiet disengages and the tree ack
    reaches the parent at once, as a node's input pass sends it."""

    def __init__(self, names):
        self.acks = []  # (sender, recipient, computation)
        self.completed = []
        self.detectors = {}
        for name in names:
            detector = DiffusingComputation(
                send_ack=lambda to, cid, me=name: self._ack(me, to, cid),
                on_root_complete=lambda cid, me=name: self.completed.append(
                    (me, cid)
                ),
            )
            self.detectors[name] = detector
            for hook in ("after_processing", "on_ack"):
                setattr(detector, hook, self._input(name, getattr(detector, hook)))

    def _input(self, name, hook):
        def call(*args, **kwargs):
            hook(*args, **kwargs)
            for cid, parent, _covers in self.detectors[name].disengage_quiet():
                if parent is not None:
                    self._ack(name, parent, cid)

        return call

    def _ack(self, sender, recipient, cid):
        self.acks.append((sender, recipient, cid))
        self.detectors[recipient].on_ack(cid)


class TestRootOnly:
    def test_root_with_no_sends_completes_on_check(self):
        h = Harness(["root"])
        d = h.detectors["root"]
        d.start_root("c1")
        d.check_quiescence("c1")
        assert h.completed == [("root", "c1")]
        assert d.is_completed("c1")

    def test_double_start_rejected(self):
        h = Harness(["root"])
        h.detectors["root"].start_root("c1")
        with pytest.raises(ProtocolError):
            h.detectors["root"].start_root("c1")

    def test_root_not_complete_while_deficit(self):
        h = Harness(["root"])
        d = h.detectors["root"]
        d.start_root("c1")
        d.note_sent("c1", count=2)
        d.check_quiescence("c1")
        assert h.completed == []
        d.on_ack("c1")
        assert h.completed == []
        d.on_ack("c1")
        assert h.completed == [("root", "c1")]


class TestTwoNodes:
    def test_tree_edge_ack_deferred(self):
        h = Harness(["root", "leaf"])
        root, leaf = h.detectors["root"], h.detectors["leaf"]
        root.start_root("c")
        root.note_sent("c")  # message to leaf
        tree = leaf.on_engaging_message("c", "root")
        assert tree is True
        # leaf sends nothing; after processing it collapses to its parent
        leaf.after_processing("c", "root", tree)
        assert ("leaf", "root", "c") in h.acks
        assert h.completed == [("root", "c")]

    def test_non_tree_message_acked_immediately(self):
        h = Harness(["root", "leaf"])
        root, leaf = h.detectors["root"], h.detectors["leaf"]
        root.start_root("c")
        root.note_sent("c", count=2)
        t1 = leaf.on_engaging_message("c", "root")
        # leaf stays busy: it sends one message back before finishing.
        leaf.note_sent("c")
        leaf.after_processing("c", "root", t1)
        assert h.completed == []  # leaf still has deficit, holds parent ack
        t2 = leaf.on_engaging_message("c", "root")
        assert t2 is False  # already engaged
        leaf.after_processing("c", "root", t2)  # immediate ack for this one
        # now the root acks leaf's message; leaf collapses.
        root.note_sent  # (root received leaf's message in reality)
        t3 = root.on_engaging_message("c", "leaf")
        root.after_processing("c", "leaf", t3)
        assert h.completed == [("root", "c")]

    def test_re_engagement_after_collapse(self):
        h = Harness(["root", "leaf"])
        root, leaf = h.detectors["root"], h.detectors["leaf"]
        root.start_root("c")
        root.note_sent("c")
        t = leaf.on_engaging_message("c", "root")
        leaf.after_processing("c", "root", t)  # collapses immediately
        assert not leaf.is_engaged("c")
        # Root sends again: leaf re-engages with a fresh tree edge.
        root.note_sent("c")
        t2 = leaf.on_engaging_message("c", "root")
        assert t2 is True
        leaf.after_processing("c", "root", t2)
        assert h.completed == [("root", "c")]


class TestChain:
    def test_three_node_chain_collapse_order(self):
        h = Harness(["a", "b", "c"])
        a, b, c = (h.detectors[n] for n in "abc")
        a.start_root("u")
        a.note_sent("u")
        tb = b.on_engaging_message("u", "a")
        b.note_sent("u")  # b forwards to c
        b.after_processing("u", "a", tb)
        assert h.completed == []
        tc = c.on_engaging_message("u", "b")
        c.after_processing("u", "b", tc)  # c collapses -> acks b
        # b's deficit drained -> b collapses -> acks a -> root completes.
        assert h.completed == [("a", "u")]
        order = [(s, r) for s, r, _ in h.acks]
        assert order == [("c", "b"), ("b", "a")]


class TestMultiplexing:
    def test_independent_computations(self):
        h = Harness(["root"])
        d = h.detectors["root"]
        d.start_root("c1")
        d.start_root("c2")
        d.note_sent("c1")
        d.check_quiescence("c2")
        assert ("root", "c2") in h.completed
        assert ("root", "c1") not in h.completed
        d.on_ack("c1")
        assert ("root", "c1") in h.completed

    def test_too_many_acks_detected(self):
        h = Harness(["root"])
        d = h.detectors["root"]
        d.start_root("c")
        d.note_sent("c")
        d.on_ack("c")
        with pytest.raises(ProtocolError):
            d.on_ack("c")

    def test_forget_drops_state(self):
        h = Harness(["root"])
        d = h.detectors["root"]
        d.start_root("c")
        d.check_quiescence("c")
        d.forget("c")
        assert not d.is_completed("c")
        assert d.deficit("c") == 0

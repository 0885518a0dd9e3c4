"""A node core is a function of its inputs.

Every input to a :class:`~repro.core.node.CoDBNode` is one scope that
collects what the node sends and finishes it in one pass as the scope
closes (the ``fin`` last word, a link's closure, summed acks, ids).
:meth:`~repro.core.node.CoDBNode.react` runs one delivered burst as an
input and returns that finished list instead of sending it, so a node
can be driven by a literal list of inputs with nothing to carry its
messages: the stand-in below is a clock and nothing else.
"""

from contextlib import contextmanager

import pytest

from repro.core.node import CoDBNode
from repro.core.rules import CoordinationRule
from repro.errors import ProtocolError
from repro.p2p.ids import IdAuthority
from repro.p2p.inproc import InProcessNetwork
from repro.p2p.messages import Message
from repro.relational.parser import parse_schema

UPDATE = "update-0"


class Clock:
    """Where a transport would stand: no peers, no wire, a clock."""

    def register(self, peer_id, handler, scope=None):
        pass

    def now(self):
        return 0.0

    def notify_progress(self):
        pass


def core():
    """N1 of the triangle ``N0 <- N1``, ``N0 <- N2``, ``N1 <- N2``:
    it exports to N0 over ``r01`` and imports from N2 over ``r12``."""
    node = CoDBNode("N1", parse_schema("item(k: int)"), Clock(), IdAuthority(seed=1))
    node.set_rules([
        CoordinationRule.from_text("r01", "N0:item(k) <- N1:item(k)"),
        CoordinationRule.from_text("r12", "N1:item(k) <- N2:item(k)"),
    ])
    return node


def result(rows, **flags):
    payload = {"update_id": UPDATE, "rule_id": "r12", "rows": rows, "path_len": 1}
    return Message("query_result", "N2", "N1", {**payload, **flags}, f"m-{rows}")


def sent(messages):
    return [(m.kind, m.recipient, m.payload) for m in messages]


def test_a_request_then_a_run_that_closes_the_link():
    node = core()
    request = Message(
        "update_request", "N0", "N1",
        {"update_id": UPDATE, "origin": "N0", "path": ["N0"]}, "m-request",
    )
    first = node.react([request])
    # N1 passes the update on to N2; it has nothing of its own for N0.
    assert sent(first) == [
        ("update_request", "N2", {"update_id": UPDATE, "origin": "N0", "path": ["N0", "N1"]}),
    ]
    # N2, engaged by N0 already, answers with its rows cut in two, the
    # last closing the link — flagged to be acked, since N1 is not its
    # parent — and acknowledges the request.
    second = node.react([
        result([[1]], ack=True),
        result([[2]], closed=True, ack=True),
        Message("ack", "N2", "N1", {"computation_id": UPDATE}, "m-ack"),
    ])
    # One result to N0 carries both rows, the closure of N1's own link
    # and — N1 has no deficit left — its tree ack; the two results from
    # N2 are acknowledged by one counted ack, last.
    assert sent(second) == [
        ("query_result", "N0", {
            "update_id": UPDATE, "rule_id": "r01", "rows": [[1], [2]],
            "path_len": 2, "closed": True, "fin": True,
        }),
        ("ack", "N2", {"computation_id": UPDATE, "count": 2}),
    ]
    assert all(message.message_id for message in first + second)
    assert len({m.message_id for m in first + second}) == 3
    assert sorted(node.rows("item")) == [(1,), (2,)]
    assert not node.termination.is_engaged(UPDATE)
    assert not node._inputs and not node.emitted


def test_the_same_inputs_give_the_same_effects():
    runs = []
    for _ in range(2):
        node = core()
        request = Message(
            "update_request", "N0", "N1",
            {"update_id": UPDATE, "origin": "N0", "path": ["N0"]}, "m-request",
        )
        runs.append([
            (m.kind, m.recipient, m.message_id, m.payload)
            for burst in ([request], [result([[1]]), result([[2]], closed=True)])
            for m in node.react(burst)
        ])
    assert runs[0] == runs[1]


def test_react_inside_an_open_input_refuses():
    node = core()
    with node.input():
        with pytest.raises(ProtocolError):
            node.react([])


def test_a_public_call_is_an_input_too():
    """What a public call owes is finished like a delivery's: summed
    acks, last, in one burst per peer.  (A call used to send each
    message at once, as a burst of its own, and each ack alone; an
    admission drain in a call is where that could show.)"""
    net = InProcessNetwork()
    node = CoDBNode("N1", parse_schema("item(k: int)"), net, IdAuthority(seed=1))
    bursts = []

    @contextmanager
    def burst():
        bursts.append([])
        yield

    net.register("N0", lambda m: bursts[-1].append((m.kind, m.payload)), burst)
    with node.input():
        node.send_ack("N0", UPDATE)
        node.emit("N0", "stats_request", {})
        node.send_ack("N0", UPDATE)
        assert net.pending() == 0
    net.run_until_idle()
    assert bursts == [[
        ("stats_request", {}),
        ("ack", {"computation_id": UPDATE, "count": 2}),
    ]]

"""One failure seam: a send never raises for its recipient.

A peer that left the network, or never joined it, is learnt about in
one way only: the message comes back to its sender as exactly one
``undeliverable``.  That holds on both transports, for a send made
from a handler (held in the delivery's outbox until the burst leaves)
and for one made from a driver thread (straight out).  The protocol
modules under ``repro.core`` therefore never handle the transport's
``UnknownPeerError`` themselves.

A bounce is handled in one place too: ``CoDBNode._on_undeliverable``
sends the message again, whatever its kind, and once the peer's retry
budget is spent writes the peer off through ``CoDBNode._on_peer_down``,
the only caller of the engines' ``on_peer_down``.

And a node's messages leave in one place: every input to a node
collects what it emits and finishes it in one pass as it closes, so
only ``CoDBNode._send`` hands messages to the endpoint, and nothing
edits a message after it was queued.
"""

import ast
import re
from pathlib import Path

import pytest

import repro
import repro.core
from repro.p2p.endpoint import Endpoint
from repro.p2p.ids import IdAuthority
from repro.p2p.inproc import InProcessNetwork
from repro.p2p.tcp import TcpNetwork


@pytest.fixture(params=["inproc", "tcp"])
def transport(request):
    if request.param == "inproc":
        yield InProcessNetwork(seed=1)
        return
    network = TcpNetwork()
    try:
        yield network
    finally:
        network.stop()


@pytest.mark.parametrize("gone", ["departed", "never_registered"])
@pytest.mark.parametrize("sent_from", ["handler", "driver"])
def test_a_send_to_a_gone_peer_bounces_exactly_once(transport, gone, sent_from):
    ids = IdAuthority(seed=1)
    a = Endpoint("A", transport, ids)
    b = Endpoint("B", transport, ids)
    bounces = []
    a.on("undeliverable", bounces.append)
    a.on_default(lambda message: None)  # the departure notice
    target = "ghost"
    if gone == "departed":
        target = "C"
        Endpoint("C", transport, ids).detach()
    if sent_from == "handler":
        a.on("go", lambda message: a.send(target, "k", {"n": 1}))
        b.send("A", "go", {})
    else:
        message = a.send(target, "k", {"n": 1})
        assert message.recipient == target
    transport.wait_for(lambda: bounces, 5.0)
    transport.run_until_idle()
    assert [
        (m.kind, m.payload["kind"], m.payload["recipient"], m.payload["payload"])
        for m in bounces
    ] == [("undeliverable", "k", target, {"n": 1})]


def _names(tree: ast.AST) -> set[str]:
    """Every identifier *tree* mentions: names, attributes, imports."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
            if node.asname:
                names.add(node.asname)
    return names


def core_modules() -> list[Path]:
    modules = sorted(Path(repro.core.__file__).parent.glob("*.py"))
    assert modules
    return modules


class TestNoSecondFailurePath:
    def test_no_core_module_names_unknown_peer_error(self):
        offenders = [
            path.name
            for path in core_modules()
            if {"UnknownPeerError", "try_send"}
            & _names(ast.parse(path.read_text(encoding="utf-8")))
        ]
        assert offenders == []

    def test_the_endpoint_has_no_try_send(self):
        assert not hasattr(Endpoint, "try_send")

    def test_no_core_module_handles_a_bounce_by_kind(self):
        """A bounce is retried in one place, whatever its kind: no
        per-kind budget, and no engine hears of a bounce."""
        offenders = [
            path.name
            for path in core_modules()
            if {"_may_resend", "_resend_budget", "on_bounce"}
            & _names(ast.parse(path.read_text(encoding="utf-8")))
        ]
        assert offenders == []

    def test_only_the_node_write_off_calls_the_engines_on_peer_down(self):
        callers = []
        for path in core_modules():
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for cls in [n for n in tree.body if isinstance(n, ast.ClassDef)]:
                for function in cls.body:
                    if not isinstance(function, ast.FunctionDef):
                        continue
                    callers.extend(
                        (path.name, cls.name, function.name)
                        for node in ast.walk(function)
                        if isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "on_peer_down"
                    )
        assert callers
        assert set(callers) == {("node.py", "CoDBNode", "_on_peer_down")}


#: What a node's core may not call on its endpoint: sending is the
#: input's last step, in ``CoDBNode._send``.
ENDPOINT_SENDS = {"send", "send_burst", "send_message", "_send_burst"}
#: The end-of-delivery edits the one pass of an input replaced.
GONE = {
    "delivering", "amend_queued", "before_flush", "last_words",
    "count_queued", "take_registrations", "_owed_acks",
}


def _functions(tree: ast.Module):
    """``(class name or "", function)`` for every function of *tree*,
    nested ones with their outermost function."""
    for top in tree.body:
        if isinstance(top, ast.ClassDef):
            for item in top.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield top.name, item
        elif isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield "", top


def _is_endpoint(node: ast.expr) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "endpoint") or (
        isinstance(node, ast.Name) and node.id == "endpoint"
    )


class TestOneSendPath:
    def test_only_the_node_send_method_hands_messages_to_the_endpoint(self):
        callers = []
        for path in core_modules():
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for owner, function in _functions(tree):
                callers.extend(
                    (path.name, owner, function.name)
                    for node in ast.walk(function)
                    if isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ENDPOINT_SENDS
                    and _is_endpoint(node.func.value)
                )
        assert set(callers) == {("node.py", "CoDBNode", "_send")}

    def test_the_end_of_delivery_edits_are_gone(self):
        offenders = {}
        for path in sorted(Path(repro.__file__).parent.rglob("*.py")):
            text = path.read_text(encoding="utf-8")
            found = GONE & _names(ast.parse(text))
            found |= {
                name for name in GONE - {"delivering"}
                if re.search(rf"\b{name}\b", text)
            }
            if "delivering()" in text:
                found.add("delivering()")
            if found:
                offenders[path.name] = found
        assert offenders == {}

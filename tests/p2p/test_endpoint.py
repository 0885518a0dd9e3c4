"""Endpoints: dispatch by kind, handler registration, message ids,
and the accounting of sends."""

import pytest

from repro.errors import ProtocolError
from repro.p2p.endpoint import Endpoint
from repro.p2p.ids import IdAuthority
from repro.p2p.inproc import InProcessNetwork


@pytest.fixture
def net():
    return InProcessNetwork(seed=1)


@pytest.fixture
def ids():
    return IdAuthority(seed=1)


def endpoint(net, ids, name):
    return Endpoint(name, net, ids)


class TestEndpoint:
    def test_dispatch_by_kind(self, net, ids):
        a = endpoint(net, ids, "A")
        b = endpoint(net, ids, "B")
        got = []
        b.on("ping", lambda m: got.append("ping"))
        b.on("pong", lambda m: got.append("pong"))
        a.send("B", "pong", {})
        a.send("B", "ping", {})
        net.run_until_idle()
        assert got == ["pong", "ping"]

    def test_duplicate_handler_rejected(self, net, ids):
        a = endpoint(net, ids, "A")
        a.on("x", lambda m: None)
        with pytest.raises(ProtocolError):
            a.on("x", lambda m: None)

    def test_unhandled_counted(self, net, ids):
        a = endpoint(net, ids, "A")
        b = endpoint(net, ids, "B")
        a.send("B", "mystery", {})
        net.run_until_idle()
        assert b.unhandled_count == 1

    def test_strict_endpoint_raises(self, net, ids):
        a = endpoint(net, ids, "A")
        Endpoint("B", net, ids, strict=True)
        a.send("B", "mystery", {})
        with pytest.raises(ProtocolError):
            net.run_until_idle()

    def test_default_handler(self, net, ids):
        a = endpoint(net, ids, "A")
        b = endpoint(net, ids, "B")
        got = []
        b.on_default(lambda m: got.append(m.kind))
        a.send("B", "anything", {})
        net.run_until_idle()
        assert got == ["anything"]

    def test_messages_get_unique_ids(self, net, ids):
        a = endpoint(net, ids, "A")
        endpoint(net, ids, "B")
        m1 = a.send("B", "x", {})
        m2 = a.send("B", "x", {})
        assert m1.message_id != m2.message_id


class TestSending:
    """What a send through the endpoint accounts for and refuses."""

    def test_send_is_counted_by_the_transport(self, net, ids):
        a = endpoint(net, ids, "A")
        b = endpoint(net, ids, "B")
        b.on("data", lambda m: None)
        message = a.send("B", "data", {"rows": [1, 2, 3]})
        net.run_until_idle()
        assert net.stats.messages_sent == 1
        assert net.stats.bytes_sent == message.size_bytes()
        assert net.stats.by_kind == {"data": 1}

    def test_unknown_recipient_bounces_instead_of_raising(self, net, ids):
        a = endpoint(net, ids, "A")
        bounces = []
        a.on("undeliverable", bounces.append)
        message = a.send("ghost", "x", {"n": 1})
        assert message.recipient == "ghost"
        assert net.stats.messages_sent == 0  # never on the wire
        net.run_until_idle()
        assert [
            (m.payload["kind"], m.payload["recipient"], m.payload["payload"])
            for m in bounces
        ] == [("x", "ghost", {"n": 1})]

    def test_detached_peer_bounces_until_it_reattaches(self, net, ids):
        a = endpoint(net, ids, "A")
        b = endpoint(net, ids, "B")
        got = []
        b.on("x", lambda m: got.append(m.payload["n"]))
        bounces = []
        a.on("undeliverable", bounces.append)
        a.on_default(lambda m: None)  # B's departure notice
        b.detach()
        a.send("B", "x", {"n": 0})
        net.run_until_idle()
        assert [m.payload["payload"] for m in bounces] == [{"n": 0}]
        b.reattach()
        a.send("B", "x", {"n": 1})
        net.run_until_idle()
        assert got == [1]

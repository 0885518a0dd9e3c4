"""Bursts: what one delivery makes a peer send to one recipient.

A node holds what one input emits until the input closes and hands
each recipient's share to ``Transport.send_burst``; the simulator delivers
a burst as one event, TCP as one frame train (continuation bit in the
length prefix) handled in one scope.  A transport may split a burst
anywhere — these tests pin both the whole and the split behaviour, the
runs the endpoint cuts out of a delivery, and the fail-closed handling
of hostile headers and of payloads a handler cannot read.
"""

import socket
import struct
import sys
import threading
from contextlib import contextmanager

import pytest

from repro import CoDBNetwork
from repro.core.node import CoDBNode
from repro.errors import FrameRejectedError, ProtocolError, UnknownPeerError
from repro.p2p import tcp
from repro.p2p.endpoint import Endpoint
from repro.p2p.faults import FaultInjector, FaultModel
from repro.p2p.ids import IdAuthority
from repro.p2p.inproc import InProcessNetwork
from repro.p2p.messages import FRAME_BINARY, Message
from repro.p2p.tcp import FRAME_CONTINUES, MAX_FRAME_BYTES, TcpNetwork
from repro.relational.parser import parse_schema


def msg(sender, recipient, n=0, kind="k"):
    return Message(kind, sender, recipient, {"n": n}, message_id=f"{sender}-{n}")


class Recorder:
    """A peer that logs its deliveries with their scope boundaries."""

    def __init__(self, transport, name):
        self.log = []
        transport.register(name, lambda m: self.log.append(m.payload["n"]), self.scope)

    @contextmanager
    def scope(self):
        self.log.append("[")
        try:
            yield
        finally:
            self.log.append("]")


@pytest.fixture
def tcp_net():
    network = TcpNetwork()
    yield network
    network.stop()


class TestSimulatorBursts:
    def test_a_burst_is_one_event_in_one_scope(self):
        net = InProcessNetwork()
        sink = Recorder(net, "A")
        net.register("B", lambda m: None)
        net.send_burst([msg("B", "A", n) for n in range(3)])
        assert net.pending() == 3
        assert net.step() == 3 and net.step() == 0
        assert sink.log == ["[", 0, 1, 2, "]"]
        assert net.stats.messages_sent == net.stats.messages_delivered == 3

    def test_send_is_a_burst_of_one(self):
        net = InProcessNetwork()
        sink = Recorder(net, "A")
        net.send(msg("B", "A", 7))
        assert net.run_until_idle() == 1
        assert sink.log == ["[", 7, "]"]

    def test_unknown_recipient_raises_before_anything_is_counted(self):
        net = InProcessNetwork()
        with pytest.raises(UnknownPeerError):
            net.send_burst([msg("B", "ghost", n) for n in range(2)])
        assert net.stats.messages_sent == 0

    def test_fault_verdicts_stay_per_message(self):
        """A bounced message leaves the burst, a duplicated one repeats
        in place, a delayed one cuts the burst in front of it."""

        class Scripted(FaultModel):
            name = "scripted"

            def on_send(self, message, verdict):
                n = message.payload["n"]
                verdict.bounce = n == 1
                verdict.copies = 2 if n == 2 else 1
                verdict.extra_delay = 0.5 if n == 3 else 0.0

        net = InProcessNetwork(faults=FaultInjector(Scripted()))
        sink = Recorder(net, "A")
        bounced = []
        net.register("B", bounced.append)
        net.send_burst([msg("B", "A", n) for n in range(5)])
        net.run_until_idle()
        assert sink.log == ["[", 0, 2, 2, "]", "[", 3, 4, "]"]
        assert [m.kind for m in bounced] == ["undeliverable"]
        assert bounced[0].payload["payload"] == {"n": 1}


class TestNodeInput:
    """What one input to a node emits is held until the input closes,
    then leaves as one burst per recipient (``CoDBNode.input``)."""

    def node(self, transport, name="A"):
        return CoDBNode(name, parse_schema("item(k: int)"), transport, IdAuthority())

    def bounces(self, transport):
        """Record what *transport* bounces (the node retries it)."""
        bounced = []
        bounce = transport.bounce

        def recording(message):
            bounced.append(message)
            bounce(message)

        transport.bounce = recording
        return bounced

    def test_an_inputs_sends_leave_as_one_burst_per_recipient(self):
        net = InProcessNetwork()
        a = self.node(net)
        c = Recorder(net, "C")
        d = Recorder(net, "D")

        def relay(message):
            for n in range(3):
                a.emit("C", "k", {"n": n})
            a.emit("D", "k", {"n": 9})
            assert net.pending() == 0  # nothing has left yet

        a.endpoint.on("go", relay)
        net.send(msg("B", "A", kind="go"))
        net.step()
        assert net.pending() == 4
        net.run_until_idle()
        assert c.log == ["[", 0, 1, 2, "]"] and d.log == ["[", 9, "]"]

    def test_a_public_call_leaves_when_its_input_closes(self):
        net = InProcessNetwork()
        a = self.node(net)
        Recorder(net, "B")
        with a.input():
            a.emit("B", "k", {"n": 1})
            assert net.pending() == 0
        assert net.pending() == 1
        with pytest.raises(ProtocolError):
            a.emit("B", "k", {"n": 2})  # no input is open

    def test_an_endpoint_without_an_owner_sends_at_once(self):
        net = InProcessNetwork()
        bare = Endpoint("E", net, IdAuthority())
        Recorder(net, "B")
        bare.send("B", "k", {"n": 1})
        assert net.pending() == 1

    def test_unknown_recipient_bounces_when_the_burst_leaves(self):
        net = InProcessNetwork()
        a = self.node(net)
        bounced = self.bounces(net)

        def handler(message):
            a.emit("ghost", "k", {"n": 0})  # held, like any send
            a.emit("ghost", "k", {"n": 1})
            assert not bounced

        a.endpoint.on("go", handler)
        net.send(msg("B", "A", kind="go"))
        net.step()
        assert [m.payload for m in bounced] == [{"n": 0}, {"n": 1}]
        assert all(m.recipient == "ghost" for m in bounced)

    def test_recipient_gone_as_the_input_closes_bounces_every_message(self):
        net = InProcessNetwork()
        a = self.node(net)
        b = Endpoint("B", net, a.endpoint.ids)
        bounced = self.bounces(net)

        def handler(message):
            a.emit("B", "k", {"n": 0})
            a.emit("B", "k", {"n": 1})
            b.detach()  # emitted while B was there, gone before they leave

        a.endpoint.on("go", handler)
        net.send(msg("C", "A", kind="go"))
        net.step()
        assert [m.payload for m in bounced] == [{"n": 0}, {"n": 1}]
        assert all(m.recipient == "B" for m in bounced)

    def test_an_input_leaves_even_when_a_handler_raises(self):
        net = InProcessNetwork()
        a = self.node(net)
        b = Endpoint("B", net, a.endpoint.ids)
        got = []
        b.on("k", got.append)

        def handler(message):
            a.emit("B", "k", {"n": 0})
            raise RuntimeError("boom")

        a.endpoint.on("go", handler)
        net.send(msg("C", "A", kind="go"))
        with pytest.raises(RuntimeError):
            net.run_until_idle()
        net.run_until_idle()
        assert len(got) == 1
        assert not a._inputs and not a.emitted

    def test_a_driver_input_waits_for_the_delivery_input(self, tcp_net):
        """Inputs are serialised: a driver thread's call waits for the
        input a delivery thread holds open, so what it sends cannot
        overtake what that delivery emitted."""
        a = self.node(tcp_net)
        b = Endpoint("B", tcp_net, a.endpoint.ids)
        got = []
        entered, release, driven = threading.Event(), threading.Event(), threading.Event()

        def handler(message):
            a.emit("B", "k", {"n": "held"})
            entered.set()
            assert release.wait(5.0)

        def drive():
            with a.input():
                a.emit("B", "k", {"n": "driver"})
            driven.set()

        b.on("k", lambda m: got.append(m.payload["n"]))
        a.endpoint.on("go", handler)
        tcp_net.send(msg("B", "A", kind="go"))
        assert entered.wait(5.0)
        driver = threading.Thread(target=drive)
        driver.start()
        assert not driven.wait(0.2)  # held off by the delivery's input
        release.set()
        driver.join(5.0)
        assert driven.is_set()
        tcp_net.wait_for(lambda: len(got) == 2, 5.0)
        assert got == ["held", "driver"]

    def test_driver_inputs_and_deliveries_interleave_without_loss(self, tcp_net):
        """Stress: driver threads send through node inputs while its
        delivery thread keeps relaying.  Every message arrives exactly
        once, each sender's in its own order."""
        a = self.node(tcp_net)
        b = Endpoint("B", tcp_net, a.endpoint.ids)
        got = []
        b.on("k", lambda m: got.append(tuple(m.payload["n"])))

        def relay(message):
            for i in range(3):
                a.emit("B", "k", {"n": ["held", message.payload["n"], i]})

        a.endpoint.on("go", relay)
        drivers, per_driver, deliveries = 4, 60, 80
        expected = drivers * per_driver + 3 * deliveries

        def drive(index):
            for n in range(per_driver):
                with a.input():
                    a.emit("B", "k", {"n": ["driver", index, n]})

        threads = [threading.Thread(target=drive, args=(i,)) for i in range(drivers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for n in range(deliveries):
                tcp_net.send(msg("B", "A", n, kind="go"))
            for thread in threads:
                thread.join(20.0)
                assert not thread.is_alive()
            tcp_net.wait_for(lambda: len(got) >= expected, 20.0)
            tcp_net.run_until_idle()
        finally:
            sys.setswitchinterval(interval)
        assert len(set(got)) == len(got) == expected
        for index in range(drivers):
            mine = [n for kind, who, n in got if kind == "driver" and who == index]
            assert mine == list(range(per_driver))
        held = [(who, n) for kind, who, n in got if kind == "held"]
        assert held == [(d, i) for d in range(deliveries) for i in range(3)]


class TestEndpointRuns:
    """A kind registered with ``on_run`` is handed over a run at a time:
    the consecutive messages of that kind in one delivery."""

    def owned(self, transport, log):
        """An endpoint whose owner scope hands the run over and logs
        ``"flush"`` as each delivered burst's input closes."""

        @contextmanager
        def scope():
            try:
                yield
            finally:
                try:
                    a.end_run()
                finally:
                    log.append("flush")

        a = Endpoint("A", transport, IdAuthority(), scope=scope)
        return a

    def endpoint(self, transport, log):
        a = self.owned(transport, log)
        a.on_run("r", lambda run: log.append([m.payload["n"] for m in run]))
        a.on("x", lambda m: log.append(m.payload["n"]))
        return a

    def test_any_other_kind_is_a_barrier_and_the_run_ends_before_the_flush(self):
        net, log = InProcessNetwork(), []
        self.endpoint(net, log)
        kinds = ["r", "r", "x", "r", "r"]
        net.send_burst([msg("B", "A", n, kind) for n, kind in enumerate(kinds)])
        net.run_until_idle()
        assert log == [[0, 1], 2, [3, 4], "flush"]

    def test_a_refused_run_does_not_take_its_barrier_down(self):
        net, log = InProcessNetwork(), []
        a = self.owned(net, log)

        def refuse(run):
            raise ProtocolError("unreadable run")

        a.on_run("r", refuse)
        a.on("x", lambda m: log.append(m.payload["n"]))
        net.send_burst([msg("B", "A", 0, "r"), msg("B", "A", 1, "x")])
        with pytest.raises(ProtocolError):  # the simulator still raises
            net.run_until_idle()
        assert log == [1, "flush"]

    def test_a_split_burst_is_several_runs(self):
        net, log = InProcessNetwork(), []
        self.endpoint(net, log)
        net.send_burst([msg("B", "A", 0, "r")])
        net.send_burst([msg("B", "A", 1, "r")])
        net.run_until_idle()
        assert log == [[0], "flush", [1], "flush"]

    def test_without_an_owner_scope_a_message_is_a_run_of_one(self):
        log = []
        a = Endpoint("A", InProcessNetwork(), IdAuthority())
        a.on_run("r", lambda run: log.append([m.payload["n"] for m in run]))
        a._dispatch(msg("B", "A", 0, "r"))
        assert log == [[0]]

    def test_a_duplicate_never_joins_a_run(self):
        net, log = InProcessNetwork(), []
        self.endpoint(net, log)
        net.send_burst([msg("B", "A", n, "r") for n in (0, 0, 1)])
        net.run_until_idle()
        assert log == [[0, 1], "flush"]

    def test_a_kind_has_one_handler(self):
        a = self.endpoint(InProcessNetwork(), [])
        with pytest.raises(ProtocolError):
            a.on("r", lambda m: None)
        with pytest.raises(ProtocolError):
            a.on_run("x", lambda run: None)


def frame(body: bytes, continues: bool = False) -> bytes:
    return struct.pack(">I", len(body) | (FRAME_CONTINUES if continues else 0)) + body


class TestTcpFrameTrains:
    def test_a_burst_arrives_whole_in_one_scope_and_costs_no_extra_bytes(self, tcp_net):
        sink = Recorder(tcp_net, "A")
        tcp_net.register("B", lambda m: None)
        burst = [msg("B", "A", n) for n in range(3)]
        tcp_net.send_burst(burst)
        tcp_net.run_until_idle()
        assert sink.log == ["[", 0, 1, 2, "]"]
        assert tcp_net.stats.wire_bytes_sent == sum(
            4 + len(m.to_wire()) for m in burst
        )

    def test_single_messages_are_the_frames_they_always_were(self, tcp_net):
        sink = Recorder(tcp_net, "A")
        tcp_net.register("B", lambda m: None)
        for n in range(2):
            tcp_net.send(msg("B", "A", n))
        tcp_net.run_until_idle()
        assert sink.log == ["[", 0, "]", "[", 1, "]"]

    def test_binary_connections_carry_bursts_too(self):
        left, right = TcpNetwork(wire_codec="binary"), TcpNetwork(wire_codec="binary")
        try:
            sink = Recorder(right, "B")
            left.register("A", lambda m: None)
            left.add_remote_peer("B", right.port_of("B"))
            left.send_burst([msg("A", "B", n) for n in range(3)])
            right.wait_for(lambda: len(sink.log) == 5, 5.0)
            assert sink.log == ["[", 0, 1, 2, "]"]
            assert left._codecs[("A", "B")] == "binary"
        finally:
            left.stop()
            right.stop()

    def test_a_train_split_across_writes_is_still_one_burst(self, tcp_net):
        sink = Recorder(tcp_net, "A")
        bodies = [msg("B", "A", n).to_wire() for n in range(3)]
        with socket.create_connection(("127.0.0.1", tcp_net.port_of("A"))) as raw:
            raw.sendall(frame(bodies[0], True) + frame(bodies[1], True)[:7])
            raw.sendall(frame(bodies[1], True)[7:] + frame(bodies[2]))
            tcp_net.wait_for(lambda: len(sink.log) == 5, 5.0)
        assert sink.log == ["[", 0, 1, 2, "]"]

    def test_a_train_cut_short_delivers_what_arrived(self, tcp_net):
        sink = Recorder(tcp_net, "A")
        bodies = [msg("B", "A", n).to_wire() for n in range(2)]
        with socket.create_connection(("127.0.0.1", tcp_net.port_of("A"))) as raw:
            raw.sendall(frame(bodies[0], True) + frame(bodies[1], True))
        tcp_net.wait_for(lambda: len(sink.log) == 4, 5.0)
        assert sink.log == ["[", 0, 1, "]"]


class TestFrameBoundary:
    def assert_closed_by_peer(self, raw: socket.socket) -> None:
        raw.settimeout(5.0)
        assert raw.recv(1) == b""  # orderly close, not a hang

    def test_oversize_header_closes_the_connection_and_the_server_survives(
        self, tcp_net
    ):
        got = []
        tcp_net.register("A", got.append)
        tcp_net.register("B", lambda m: None)
        port = tcp_net.port_of("A")
        bystander = socket.create_connection(("127.0.0.1", port))
        with socket.create_connection(("127.0.0.1", port)) as hostile:
            # 2 GiB - 1 claimed; not a byte of it will ever be read.
            hostile.sendall(struct.pack(">I", 0x7FFF_FFFF) + b"x" * 16)
            self.assert_closed_by_peer(hostile)
        assert tcp_net.stats.frames_rejected == 1
        # An established connection and a fresh one both still deliver.
        with bystander:
            bystander.sendall(frame(msg("X", "A", 1).to_wire()))
            tcp_net.send(msg("B", "A", 2))
            tcp_net.wait_for(lambda: len(got) == 2, 5.0)
        assert sorted(m.payload["n"] for m in got) == [1, 2]

    def test_the_continuation_bit_is_not_a_length_bit(self, tcp_net):
        tcp_net.register("A", lambda m: None)
        with socket.create_connection(("127.0.0.1", tcp_net.port_of("A"))) as hostile:
            hostile.sendall(struct.pack(">I", FRAME_CONTINUES | (MAX_FRAME_BYTES + 1)))
            self.assert_closed_by_peer(hostile)
        assert tcp_net.stats.frames_rejected == 1

    def test_undecodable_body_is_rejected_the_same_way(self, tcp_net):
        got = []
        tcp_net.register("A", got.append)
        with socket.create_connection(("127.0.0.1", tcp_net.port_of("A"))) as hostile:
            hostile.sendall(
                frame(msg("B", "A", 0).to_wire(), True) + frame(b'{"kind": 1')
            )
            self.assert_closed_by_peer(hostile)
        assert tcp_net.stats.frames_rejected == 1
        tcp_net.wait_for(lambda: len(got) == 1, 5.0)  # what decoded is mail
        assert got[0].payload["n"] == 0

    def test_a_deeply_nested_body_is_rejected_and_the_server_survives(
        self, tcp_net, monkeypatch
    ):
        crashed = []
        monkeypatch.setattr(threading, "excepthook", crashed.append)
        got = []
        tcp_net.register("A", got.append)
        port = tcp_net.port_of("A")
        with socket.create_connection(("127.0.0.1", port)) as hostile:
            hostile.sendall(frame(b"[" * 100_000))
            self.assert_closed_by_peer(hostile)
        assert tcp_net.stats.frames_rejected == 1
        assert crashed == []  # the receive thread ended, it did not die
        with socket.create_connection(("127.0.0.1", port)) as honest:
            honest.sendall(frame(msg("X", "A", 1).to_wire()))
            tcp_net.wait_for(lambda: len(got) == 1, 5.0)
        assert got[0].payload["n"] == 1

    def test_oversize_body_is_refused_at_the_sender(self, tcp_net, monkeypatch):
        monkeypatch.setattr(tcp, "MAX_FRAME_BYTES", 64)
        tcp_net.register("A", lambda m: None)
        tcp_net.register("B", lambda m: None)
        with pytest.raises(FrameRejectedError):
            tcp_net.send(Message("k", "B", "A", {"blob": "x" * 100}))
        tcp_net.run_until_idle()  # the in-flight window was given back


def _text(value: str) -> bytes:
    data = value.encode("utf-8")
    return b"X" + struct.pack("<I", len(data)) + data  # pickle BINUNICODE


def nested_stats_request(depth: int) -> bytes:
    """A binary ``stats_request`` from B whose collection id is a list
    nested *depth* deep, pickled by hand (``pickle.dumps`` itself would
    recurse).  It decodes; echoing it back in the reply cannot be
    serialised."""
    nested = b"]" * depth + b"a" * (depth - 1)  # EMPTY_LIST ... APPEND
    return (
        FRAME_BINARY + b"\x80\x02("
        + _text("stats_request") + _text("B") + _text("A")
        + b"}" + _text("collection_id") + nested + b"s"
        + _text("hostile-1") + b"t."
    )


def hostile_frame(kind: str, payload: dict, sender: str = "B") -> bytes:
    return Message(kind, sender, "A", payload, message_id="hostile-1").to_wire()


class TestUnreadablePayloads:
    """A well-framed message a handler cannot read is dropped and
    counted; the node's delivery thread goes on serving."""

    @pytest.mark.parametrize(
        "body",
        [
            hostile_frame("ack", {}),
            hostile_frame("update_request", {}),
            hostile_frame("query_request", {"query_id": "q"}),
            hostile_frame("query_data", {"query_id": "q"}),
            nested_stats_request(100_000),
            # AttributeError: a notice that is not an object.
            hostile_frame("invalidation", {"notices": [1]}),
        ],
        ids=[
            "ack", "update_request", "query_request", "query_data", "nested",
            "notice",
        ],
    )
    def test_the_node_survives_and_counts_it(self, body, monkeypatch):
        crashed = []
        monkeypatch.setattr(threading, "excepthook", crashed.append)
        net = CoDBNetwork(transport=TcpNetwork(), seed=5, with_superpeer=False)
        try:
            net.add_node("A", "item(k: int)")
            net.add_node("B", "item(k: int)", facts="item(1)")
            net.add_rule("A:item(k) <- B:item(k)")
            net.start()
            transport = net.transport
            with socket.create_connection(
                ("127.0.0.1", transport.port_of("A"))
            ) as hostile:
                hostile.sendall(frame(body))
                transport.wait_for(
                    lambda: transport.stats.frames_rejected == 1, 5.0
                )
            net.submit_global_update("A").result(5.0)
            assert net.node("A").rows("item") == [(1,)]
            assert transport.stats.frames_rejected == 1
            assert crashed == []
        finally:
            net.stop()

    def test_a_reply_to_a_stranger_bounces(self, monkeypatch):
        """A request from a sender not on the network is answered; the
        reply has nowhere to go and comes back as a bounce, each retry
        too, until the node writes the stranger off (its notice of that
        bounces as well).  No frame is rejected and the node goes on
        serving."""
        crashed = []
        monkeypatch.setattr(threading, "excepthook", crashed.append)
        net = CoDBNetwork(transport=TcpNetwork(), seed=5, with_superpeer=False)
        try:
            net.add_node("A", "item(k: int)")
            net.add_node("B", "item(k: int)", facts="item(1)")
            net.add_rule("A:item(k) <- B:item(k)")
            net.start()
            transport = net.transport
            bounced = []
            bounce = transport.bounce

            def recording(message):
                bounced.append(message)
                bounce(message)

            monkeypatch.setattr(transport, "bounce", recording)
            with socket.create_connection(
                ("127.0.0.1", transport.port_of("A"))
            ) as hostile:
                hostile.sendall(
                    frame(hostile_frame("stats_request", {}, sender="Z"))
                )
                transport.wait_for(
                    lambda: len(bounced) == CoDBNode.RESEND_LIMIT + 2, 5.0
                )
            assert [(m.kind, m.recipient) for m in bounced] == [
                ("stats_response", "Z")
            ] * (1 + CoDBNode.RESEND_LIMIT) + [("rejoin", "Z")]
            net.submit_global_update("A").result(5.0)
            assert net.node("A").rows("item") == [(1,)]
            assert transport.stats.frames_rejected == 0
            assert crashed == []
        finally:
            net.stop()

"""The TCP transport over localhost."""

import threading

import pytest

from repro.errors import UnknownPeerError
from repro.p2p.messages import Message
from repro.p2p.tcp import TcpNetwork


@pytest.fixture
def net():
    network = TcpNetwork()
    yield network
    network.stop()


def msg(sender, recipient, n=0):
    return Message("k", sender, recipient, {"n": n})


class TestTcpDelivery:
    def test_basic_delivery(self, net):
        got = []
        net.register("A", got.append)
        net.register("B", lambda m: None)
        net.send(msg("B", "A", 42))
        net.run_until_idle()
        assert [m.payload["n"] for m in got] == [42]

    def test_fifo_per_pair(self, net):
        got = []
        net.register("A", lambda m: got.append(m.payload["n"]))
        net.register("B", lambda m: None)
        for i in range(50):
            net.send(msg("B", "A", i))
        net.run_until_idle()
        assert got == list(range(50))

    def test_handler_chain(self, net):
        log = []

        def relay(message):
            log.append(message.payload["n"])
            if message.payload["n"] < 5:
                net.send(msg("A", "A", message.payload["n"] + 1))

        net.register("A", relay)
        net.send(msg("A", "A", 0))
        net.run_until_idle()
        assert log == [0, 1, 2, 3, 4, 5]

    def test_concurrent_senders(self, net):
        got = []
        lock = threading.Lock()

        def collect(message):
            with lock:
                got.append(message.payload["n"])

        net.register("sink", collect)
        for name in ("S0", "S1", "S2"):
            net.register(name, lambda m: None)

        def blast(name, base):
            for i in range(20):
                net.send(msg(name, "sink", base + i))

        threads = [
            threading.Thread(target=blast, args=(f"S{i}", 100 * i))
            for i in range(3)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        net.run_until_idle()
        assert len(got) == 60
        # per-sender FIFO even under concurrency
        for base in (0, 100, 200):
            mine = [n for n in got if base <= n < base + 100]
            assert mine == sorted(mine)

    def test_unknown_recipient(self, net):
        net.register("A", lambda m: None)
        with pytest.raises(UnknownPeerError):
            net.send(msg("A", "ghost"))

    def test_ports_are_distinct(self, net):
        net.register("A", lambda m: None)
        net.register("B", lambda m: None)
        assert net.port_of("A") != net.port_of("B")

    def test_clock_monotone(self, net):
        t0 = net.now()
        t1 = net.now()
        assert t1 >= t0 >= 0.0


class TestNodelay:
    def test_nodelay_set_on_connect_and_accept_paths(self, net):
        import socket as socket_module

        seen = []
        net.register("A", seen.append)
        net.register("B", lambda m: None)
        net.send(msg("B", "A"))
        net.run_until_idle()
        assert len(seen) == 1
        # The cached outbound connection has TCP_NODELAY set.
        connection = net._connections[("B", "A")]
        assert connection.getsockopt(
            socket_module.IPPROTO_TCP, socket_module.TCP_NODELAY
        )


class TestRemotePeers:
    """Two TcpNetwork instances in one process stand in for two worker
    processes: each hosts one peer, the other is wired as remote."""

    def test_cross_transport_delivery_and_accounting(self):
        left, right = TcpNetwork(), TcpNetwork()
        got_a, got_b = [], []
        try:
            left.register("A", got_a.append)
            right.register("B", got_b.append)
            left.add_remote_peer("B", right.port_of("B"))
            right.add_remote_peer("A", left.port_of("A"))
            assert set(left.peers()) == {"A", "B"}

            for i in range(5):
                left.send(msg("A", "B", i))
            # The receiving transport owns the in-flight window for
            # cross-process arrivals (the sender's counter is not
            # touched); completion is observed on the receiver's side.
            right.wait_for(lambda: len(got_b) == 5, 5.0)
            right.run_until_idle()
            assert [m.payload["n"] for m in got_b] == list(range(5))

            right.send(msg("B", "A", 99))
            left.wait_for(lambda: len(got_a) == 1, 5.0)
            assert [m.payload["n"] for m in got_a] == [99]
        finally:
            left.stop()
            right.stop()

    def test_local_peer_wins_over_remote_registration(self):
        net = TcpNetwork()
        try:
            net.register("A", lambda m: None)
            with pytest.raises(UnknownPeerError):
                net.add_remote_peer("A", 1)
        finally:
            net.stop()

    def test_removed_remote_peer_raises_unknown(self):
        left, right = TcpNetwork(), TcpNetwork()
        try:
            left.register("A", lambda m: None)
            right.register("B", lambda m: None)
            left.add_remote_peer("B", right.port_of("B"))
            left.remove_remote_peer("B")
            with pytest.raises(UnknownPeerError):
                left.send(msg("A", "B"))
        finally:
            left.stop()
            right.stop()

    def test_send_to_dead_remote_raises_unknown(self):
        left, right = TcpNetwork(), TcpNetwork()
        try:
            left.register("A", lambda m: None)
            right.register("B", lambda m: None)
            left.add_remote_peer("B", right.port_of("B"))
            right.stop()  # the "worker" dies
            with pytest.raises(UnknownPeerError):
                left.send(msg("A", "B"))
                # The first send may land in a kernel buffer before the
                # RST arrives; the retry path must surface the failure.
                left.send(msg("A", "B"))
        finally:
            left.stop()

    def test_announce_peer_down_delivers_notification(self):
        net = TcpNetwork()
        seen = []
        try:
            net.register("A", seen.append)
            net.add_remote_peer("B", 54321)
            net.announce_peer_down("B")
            net.run_until_idle()
            assert [m.kind for m in seen] == ["peer_down"]
            assert seen[0].payload["peer"] == "B"
            assert "B" not in net.peers()
        finally:
            net.stop()


class TestCodecNegotiation:
    """Per-connection wire-codec negotiation (binary vs stable JSON).

    The sender offers only when itself configured ``wire_codec=
    "binary"``; the receiver acks binary only when *it* is configured
    binary too.  Any other combination — and any handshake failure —
    falls back to JSON, so mixed-version deployments interoperate.
    """

    @staticmethod
    def _pair(left_codec, right_codec):
        left = TcpNetwork(wire_codec=left_codec)
        right = TcpNetwork(wire_codec=right_codec)
        return left, right

    def _deliver(self, left, right, count=3):
        got = []
        left.register("A", lambda m: None)
        right.register("B", got.append)
        left.add_remote_peer("B", right.port_of("B"))
        for i in range(count):
            left.send(msg("A", "B", i))
        right.wait_for(lambda: len(got) == count, 5.0)
        right.run_until_idle()
        assert [m.payload["n"] for m in got] == list(range(count))
        return got

    def test_binary_peers_negotiate_binary(self):
        left, right = self._pair("binary", "binary")
        try:
            self._deliver(left, right)
            assert left._codecs[("A", "B")] == "binary"
            # Actual framed bytes are tracked separately from the
            # codec-independent stable-JSON volume statistic.
            assert left.stats.wire_bytes_sent > 0
            assert left.stats.bytes_sent > 0
        finally:
            left.stop()
            right.stop()

    def test_binary_sender_falls_back_against_json_peer(self):
        # The receiver never opted into binary: the offer is answered
        # with a JSON ack and every message frame stays JSON.
        left, right = self._pair("binary", "json")
        try:
            self._deliver(left, right)
            assert left._codecs[("A", "B")] == "json"
        finally:
            left.stop()
            right.stop()

    def test_json_sender_never_offers(self):
        left, right = self._pair("json", "binary")
        try:
            self._deliver(left, right)
            assert left._codecs[("A", "B")] == "json"
        finally:
            left.stop()
            right.stop()

    def test_marked_nulls_survive_binary_connection(self):
        from repro.relational.values import MarkedNull, decode_row, encode_row

        left, right = self._pair("binary", "binary")
        got = []
        try:
            left.register("A", lambda m: None)
            right.register("B", got.append)
            left.add_remote_peer("B", right.port_of("B"))
            row = encode_row((MarkedNull("N1@A"), "Bolzano — Südtirol"))
            left.send(Message("query_data", "A", "B", {"rows": [row]}))
            right.wait_for(lambda: len(got) == 1, 5.0)
            right.run_until_idle()
            null, city = decode_row(got[0].payload["rows"][0])
            assert null == MarkedNull("N1@A")
            assert city == "Bolzano — Südtirol"
        finally:
            left.stop()
            right.stop()

    def test_invalid_codec_rejected(self):
        from repro.errors import ProtocolError

        with pytest.raises(ProtocolError):
            TcpNetwork(wire_codec="msgpack")

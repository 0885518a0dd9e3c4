"""Work that reaches for an acquaintance that has left the network.

A send to a departed peer is made like any other and comes back as an
``undeliverable`` (see ``CoDBNode._on_undeliverable``).  So the §4
report counts the message, the session hears of the loss before its
termination deficit drains — the report names the peer even when the
bounce is what completes the update — and a network query that asked
a departed peer is unclean and fills no cache.
"""

from repro import CoDBNetwork

QUERY = "q(x) <- item(x)"


def chain():
    """``CLOUD <- GATEWAY <- SENSOR``, materialised once."""
    net = CoDBNetwork(seed=13, with_superpeer=False)
    net.add_node("SENSOR", "item(k: int)", facts="item(1)")
    net.add_node("GATEWAY", "item(k: int)")
    net.add_node("CLOUD", "item(k: int)")
    net.add_rule("GATEWAY:item(k) <- SENSOR:item(k)")
    net.add_rule("CLOUD:item(k) <- GATEWAY:item(k)")
    net.start()
    net.global_update("CLOUD")
    return net


class TestAnUpdate:
    def test_the_report_names_the_departed_peer_and_counts_the_request(self):
        net = chain()
        net.node("GATEWAY").detach()
        net.run()
        outcome = net.global_update("CLOUD")
        report = net.node("CLOUD").update_report(outcome.update_id)
        assert report.status == "closed"
        assert report.unreachable_peers == ["GATEWAY"]
        assert report.links_closed_by_failure == 1
        assert report.messages_sent == 1  # the request, before it bounced
        assert outcome.report.outcome == "partial"
        assert net.node("CLOUD").rows("item") == [(1,)]


class TestANetworkQuery:
    def build(self):
        net = CoDBNetwork(seed=13, with_superpeer=False)
        net.add_node("N0", "item(k: int)")
        net.add_node("N1", "item(k: int)", facts="item(1)")
        net.add_node("N2", "item(k: int)", facts="item(2)")
        net.add_rule("N0:item(k) <- N1:item(k)")
        net.add_rule("N0:item(k) <- N2:item(k)")
        net.start()
        return net

    def test_asking_a_departed_peer_fills_no_cache(self):
        net = self.build()
        net.node("N2").detach()
        net.run()
        cache = net.node("N0").cache
        assert net.query("N0", QUERY, mode="network") == [(1,)]
        assert cache.fills_skipped == 1
        assert len(cache) == 0
        # The next read asks again rather than trusting a partial fill.
        assert net.query("N0", QUERY, mode="network") == [(1,)]
        assert cache.hits == 0

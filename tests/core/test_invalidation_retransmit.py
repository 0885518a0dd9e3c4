"""A bounced data invalidation is sent again before it is given up.

An exporter that loses one invalidation notice retransmits it, within
``CoDBNode.RESEND_LIMIT`` retries per peer, so a loss the wire recovers from
leaves no stale read behind — not even one made before the next write.
Only once the budget is spent does the exporter write the importer off
(``tests/core/test_bounced_invalidation.py``).
"""

from repro import CoDBNetwork
from repro.core.node import CoDBNode
from repro.p2p.faults import FaultInjector, FaultModel, MessageLoss

QUERY = "q(x) <- item(x)"
SIBLING = "q(x) <- item(x), x > 0"


class LoseOne(FaultModel):
    """Bounce the first message of *kind*, deliver every later one."""

    def __init__(self, kind: str) -> None:
        super().__init__()
        self.kind = kind
        self.lost = 0

    def on_send(self, message, verdict) -> None:
        if message.kind == self.kind and not self.lost:
            self.lost += 1
            verdict.bounce = True


def build():
    """The chain ``N0 <- N1``, with ``N1`` holding ``{1, 2}``."""
    net = CoDBNetwork(seed=3, with_superpeer=False)
    net.add_node("N0", "item(k: int)")
    net.add_node("N1", "item(k: int)", facts={"item": [(1,), (2,)]})
    net.add_rule("N0:item(k) <- N1:item(k)")
    net.start()
    return net


def read(net, query=QUERY, **kwargs):
    return sorted(net.query("N0", query, mode="network", **kwargs))


def lose_one_invalidation(net):
    """Write 3 at ``N1`` while its invalidation bounces once."""
    loss = LoseOne("invalidation")
    net.transport.install_faults(FaultInjector(loss, seed=1))
    net.node("N1").insert("item", (3,))
    net.run()
    assert loss.lost == 1


class TestALostInvalidationIsSentAgain:
    def test_the_next_cached_read_is_fresh(self):
        net = build()
        assert read(net) == [(1,), (2,)]
        net.run()  # the registration settles
        lose_one_invalidation(net)
        # Cached first, before any further write: an uncached read
        # imports, which would heal the cache by itself.
        cached = read(net)
        assert cached == read(net, cache=False) == [(1,), (2,), (3,)]

    def test_a_sibling_through_the_fresh_miss_path(self):
        net = build()
        assert read(net) == [(1,), (2,)]
        net.run()
        assert read(net, SIBLING) == [(1,), (2,)]
        lose_one_invalidation(net)
        cached = read(net, SIBLING)
        assert cached == read(net, SIBLING, cache=False) == [(1,), (2,), (3,)]

    def test_the_notice_stays_noted_while_it_is_retransmitted(self):
        net = build()
        read(net)
        net.run()
        lose_one_invalidation(net)
        (link,) = net.node("N1").links.incoming.values()
        assert link.cache_interest and link.notified == {"item"}

    def test_no_retransmission_toward_a_peer_reported_down(self):
        net = build()
        read(net)
        net.run()
        exporter = net.node("N1")
        exporter._down_peers.add("N0")  # its deficits were written off
        loss = MessageLoss(1.0, retries=0, kinds=("invalidation",))
        net.transport.install_faults(FaultInjector(loss, seed=1))
        exporter.insert("item", (3,))
        net.run()
        assert loss.bounced == 1
        (link,) = exporter.links.incoming.values()
        assert not link.notified  # un-noted at once

    def test_a_spent_budget_writes_the_importer_off(self):
        net = build()
        read(net)
        net.run()
        loss = MessageLoss(1.0, retries=0, kinds=("invalidation",))
        net.transport.install_faults(FaultInjector(loss, seed=1))
        net.node("N1").insert("item", (3,))
        net.run()
        assert loss.bounced == 1 + CoDBNode.RESEND_LIMIT
        (link,) = net.node("N1").links.incoming.values()
        assert not link.cache_interest and not link.notified
        assert net.node("N1").stats.peers_written_off == 1

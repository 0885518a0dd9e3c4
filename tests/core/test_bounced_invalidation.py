"""A data invalidation that bounces for good.

An exporter remembers which of an importer's head relations it has
already invalidated (``IncomingLink.notified``) and tells it nothing
more about them until the importer registers again.  A bounced notice
is sent again (``tests/core/test_invalidation_retransmit.py``); when
every retry bounces too, the exporter writes the importer off and
tells it, so both sides drop the registration: the exporter its
interest, the importer its ``registered`` flag and its cached answers.
A cached read after the next delivered write equals the uncached one —
for the template that filled the cache and for a sibling answered
through the fresh-miss path alike.
"""

from repro import CoDBNetwork
from repro.core.node import CoDBNode
from repro.p2p.faults import FaultInjector, MessageLoss

QUERY = "q(x) <- item(x)"
SIBLING = "q(x) <- item(x), x > 0"
ALL = [(1,), (2,), (3,), (4,)]


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


def served_link(net):
    (link,) = net.node("N1").links.incoming.values()
    return link


def fill(net):
    assert read(net) == [(1,), (2,)]
    net.run()  # the registration settles
    assert served_link(net).cache_interest


def bounce_one_invalidation(net):
    """Write 3 at ``N1`` while every invalidation bounces: the notice
    and each of its retransmissions, until the budget is spent."""
    loss = MessageLoss(1.0, retries=0, kinds=("invalidation",))
    net.transport.install_faults(FaultInjector(loss, seed=1))
    net.node("N1").insert("item", (3,))
    net.run()
    assert loss.bounced == 1 + CoDBNode.RESEND_LIMIT
    return loss


class TestABouncedInvalidation:
    def test_both_sides_drop_the_registration(self):
        net = build()
        fill(net)
        bounce_one_invalidation(net)
        link = served_link(net)
        assert not link.cache_interest
        assert not link.notified
        assert net.node("N1").stats.peers_written_off == 1
        importer = net.node("N0")
        (outgoing,) = importer.links.outgoing.values()
        assert not outgoing.registered
        assert len(importer.cache) == 0

    def test_the_next_delivered_write_reaches_a_cached_read(self):
        net = build()
        fill(net)
        loss = bounce_one_invalidation(net)
        loss.probability = 0.0
        net.node("N1").insert("item", (4,))
        net.run()
        # Cached first: an uncached read imports, which would heal it.
        cached = read(net)
        assert cached == read(net, cache=False) == ALL

    def test_a_sibling_through_the_fresh_miss_path(self):
        net = build()
        fill(net)
        cache = net.node("N0").cache
        assert read(net, SIBLING) == [(1,), (2,)]
        assert cache.fresh_served == 1  # answered from the fill's import
        loss = bounce_one_invalidation(net)
        loss.probability = 0.0
        net.node("N1").insert("item", (4,))
        net.run()
        cached = read(net, SIBLING)
        assert cached == read(net, SIBLING, cache=False) == ALL

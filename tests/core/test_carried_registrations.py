"""Cache registrations that ride the ``query_complete`` flood, and the
two ways one does not: its completion bounces, or there is none.

A cached root registers interest on its import links when it fills,
and each peer that accepts a registration registers upstream in turn.
A registration owed to a peer a ``query_complete`` is about to reach
travels inside it; one with no completion to ride leaves at the end
of the delivery as a standalone ``invalidation op=register``.  Either
way, a cached read must keep equalling the uncached one.
"""

from repro import CoDBNetwork
from repro.p2p.faults import FaultInjector, MessageLoss

QUERY = "q(x) <- item(x)"


def build(edges, facts):
    """Peers ``N0``, ``N1``, ... over a unary ``item``; *edges* are
    ``(importer, exporter)`` index pairs."""
    net = CoDBNetwork(seed=3, with_superpeer=False)
    for i, rows in enumerate(facts):
        net.add_node(f"N{i}", "item(k: int)", facts={"item": [(k,) for k in rows]})
    for importer, exporter in edges:
        net.add_rule(f"N{importer}:item(k) <- N{exporter}:item(k)")
    net.start()
    return net


def read(net, **kwargs):
    return sorted(net.query("N0", QUERY, mode="network", **kwargs))


def outgoing(net, name):
    (link,) = net.node(name).links.outgoing.values()
    return link


def sent_by_kind(net, action):
    stats = net.transport.stats
    before = dict(stats.by_kind)
    action()
    return {
        kind: count - before.get(kind, 0)
        for kind, count in stats.by_kind.items()
        if count - before.get(kind, 0)
    }


class TestABouncedCompletionLosesItsRegistrations:
    def build(self):
        net = build([(0, 1), (1, 2)], [[], [5], [7]])
        loss = MessageLoss(1.0, retries=0, kinds=("query_complete",))
        net.transport.install_faults(FaultInjector(loss, seed=1))
        return net, loss

    def test_the_flag_clears_and_the_next_read_registers_again(self):
        net, loss = self.build()
        assert read(net) == [(5,), (7,)]
        net.run()
        assert loss.bounced == 1
        assert not outgoing(net, "N0").registered
        # N1 never heard of the completion, so registered nothing.
        assert not outgoing(net, "N1").registered
        (served,) = net.node("N1").links.incoming.values()
        assert not served.cache_interest

        loss.probability = 0.0
        kinds = sent_by_kind(net, lambda: read(net))
        assert kinds["query_request"] == 2
        assert outgoing(net, "N0").registered and outgoing(net, "N1").registered

        net.node("N2").insert("item", (9,))
        net.run()
        assert read(net) == read(net, cache=False) == [(5,), (7,), (9,)]

    def test_the_fill_it_covered_is_not_served(self):
        """The bounce alone ends the fill's freshness: with the flag
        cleared, nothing upstream would tell the root of a write."""
        net, loss = self.build()
        read(net)
        net.run()
        loss.probability = 0.0
        net.node("N2").insert("item", (9,))
        net.run()
        assert read(net) == read(net, cache=False) == [(5,), (7,), (9,)]


class TestACycleRegistersStandalone:
    def test_the_label_cut_leaves_a_registration_no_completion_carries(self):
        net = build([(0, 1), (1, 0)], [[1], [2]])
        kinds = sent_by_kind(net, lambda: read(net))
        # N0's registration rides its completion to N1; N1's, back
        # toward N0, has no completion to ride (N0 is where N1's came
        # from) and leaves on its own.
        assert kinds["query_complete"] == 1
        assert kinds["invalidation"] == 1
        assert outgoing(net, "N0").registered and outgoing(net, "N1").registered
        assert all(
            link.cache_interest
            for name in ("N0", "N1")
            for link in net.node(name).links.incoming.values()
        )

        net.node("N1").insert("item", (3,))
        net.run()
        assert read(net) == read(net, cache=False) == [(1,), (2,), (3,)]
        net.node("N0").insert("item", (4,))
        net.run()
        assert read(net) == read(net, cache=False) == [(1,), (2,), (3,), (4,)]

    def test_a_registration_answered_with_an_invalidation_goes_no_further(self):
        """Found by the differentials at depth: on a 3-cycle whose links
        a second root's query left behind its writes, each registration
        was answered with an invalidation *and* passed upstream, where
        the next lap found the flag that invalidation had cleared — and
        registered again, for ever."""
        net = CoDBNetwork(seed=3, with_superpeer=False)
        for i in range(3):
            net.add_node(f"N{i}", "item(k: int)\ntag(k: int, w)")
        net.node("N2").load_facts({"item": [(0,)]})
        for importer, exporter in ((0, 1), (1, 2)):
            net.add_rule(f"N{importer}:item(k) <- N{exporter}:item(k)")
            net.add_rule(f"N{importer}:tag(k, w) <- N{exporter}:item(k)")
        net.add_rule("N2:item(k) <- N0:item(k)")
        net.start()
        tags = "q(k, w) <- tag(k, w)"
        assert [k for k, _ in net.query("N0", tags, mode="network")] == [0]
        handle = net.submit_query("N1", tags, mode="network")
        net.transport.run_until_idle(max_messages=1000)
        assert net.transport.pending() == 0
        assert [k for k, _ in handle.result()] == [0]
        for name in ("N0", "N1"):
            cached = net.query(name, tags, mode="network")
            assert sorted(k for k, _ in cached) == [0]

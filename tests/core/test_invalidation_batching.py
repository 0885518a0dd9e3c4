"""Adaptive invalidation batching and interest-lease expiry.

Batching: one write burst (one ``bump_epochs`` flush window) that
stales several rules toward the same importer ships ONE grouped
invalidation message, not one per link — counted by
``invalidation_batches`` / ``invalidations_coalesced`` in
``lifetime_totals()``.  There is one notice shape on the wire, a
``notices`` list: lease expiry sends a list of one.

Leases: a CUP-style interest registration carries an event-count lease
(``NodeConfig.interest_lease_events``).  Every event the upstream side
suppresses on the registrant's behalf — a notified-deduped write —
spends one unit; at zero the registration expires with a final
unconditional invalidation, so an idle cached reader does not hold its
registration upstream forever.
"""

from repro import CoDBNetwork, NodeConfig
from repro.p2p.messages import Message

QUERY_ITEM = "q(x) <- item(x)"
QUERY_TAG = "q(x) <- tag(x)"


def build_fanin(*, config=None):
    """Two rules from one exporter (N1) into one importer (N0): a
    single write at N1 stales both of N0's relations at once."""
    net = CoDBNetwork(seed=13, config=config)
    net.add_node("N0", "item(k: int)\ntag(k: int)")
    net.add_node("N1", "item(k: int)")
    net.node("N1").load_facts({"item": [(1,), (2,)]})
    net.add_rule("N0:item(k) <- N1:item(k)")
    net.add_rule("N0:tag(k) <- N1:item(k)")
    net.start()
    return net


def build_pair(*, config=None):
    """Plain ``N0 <- N1`` single-rule pair."""
    net = CoDBNetwork(seed=13, config=config)
    net.add_node("N0", "item(k: int)")
    net.add_node("N1", "item(k: int)")
    net.node("N1").load_facts({"item": [(1,), (2,)]})
    net.add_rule("N0:item(k) <- N1:item(k)")
    net.start()
    return net


class TestBatchedInvalidations:
    def test_one_burst_one_message_per_importer(self):
        net = build_fanin()
        # Cache both of N0's views: interest lands on both links.
        net.query("N0", QUERY_ITEM, mode="network")
        net.query("N0", QUERY_TAG, mode="network")
        net.node("N1").insert("item", (3,))
        net.run()
        exporter = net.node("N1")
        # Two stale rules, ONE message: the second notice rode along.
        assert exporter.invalidation_batches == 1
        assert exporter.invalidations_sent == 2
        assert exporter.invalidations_coalesced == 1
        assert net.node("N0").invalidations_received == 2
        # Both views recompute and see the write — never stale.
        assert (3,) in net.query("N0", QUERY_ITEM, mode="network")
        assert (3,) in net.query("N0", QUERY_TAG, mode="network")

    def test_single_link_burst_coalesces_nothing(self):
        net = build_pair()
        net.query("N0", QUERY_ITEM, mode="network")
        net.node("N1").insert("item", (3,))
        net.run()
        exporter = net.node("N1")
        assert exporter.invalidation_batches == 1
        assert exporter.invalidations_sent == 1
        assert exporter.invalidations_coalesced == 0

    def test_counters_ride_lifetime_totals(self):
        net = build_fanin()
        net.query("N0", QUERY_ITEM, mode="network")
        net.query("N0", QUERY_TAG, mode="network")
        net.node("N1").insert("item", (3,))
        net.run()
        totals = net.lifetime_totals()["N1"]
        assert totals["invalidation_batches"] == 1
        assert totals["invalidations_coalesced"] == 1
        assert totals["interest_leases_expired"] == 0

    def test_the_importer_reads_a_notice_batch(self):
        payload = {"notices": [{"rule_id": "r0", "relations": ["item"]}]}
        net = build_pair()
        net.query("N0", QUERY_ITEM, mode="network")
        importer = net.node("N0")
        (outgoing,) = importer.links.outgoing.values()
        assert outgoing.registered
        epoch = importer.cache.epoch("item")
        net.transport.send(
            Message("invalidation", "N1", "N0", payload, message_id="msg-test")
        )
        net.run()
        assert importer.invalidations_received == 1
        assert importer.cache.epoch("item") == epoch + 1
        assert not outgoing.registered


def exporter_link(net, exporter="N1"):
    (link,) = net.node(exporter).links.incoming.values()
    return link


class TestInterestLeases:
    def test_idle_reader_lease_expires(self):
        """Writes the reader never re-reads spend its lease; at zero
        the registration drops with a final unconditional notice."""
        net = build_pair(config=NodeConfig(interest_lease_events=2))
        net.query("N0", QUERY_ITEM, mode="network")
        exporter = net.node("N1")
        link = exporter_link(net)
        assert link.cache_interest and link.lease_remaining == 2

        exporter.insert("item", (3,))  # first write: notice sent
        net.run()
        assert exporter.invalidations_sent == 1
        assert link.lease_remaining == 2  # a sent notice costs nothing

        exporter.insert("item", (4,))  # deduped: suppressed, spends 1
        net.run()
        assert exporter.invalidations_sent == 1
        assert link.lease_remaining == 1

        exporter.insert("item", (5,))  # spends the last unit: expiry
        net.run()
        assert exporter.interest_leases_expired == 1
        assert not link.cache_interest
        assert exporter.invalidations_sent == 2  # the final notice
        # Expired means gone: further writes notify nobody.
        exporter.insert("item", (6,))
        net.run()
        assert exporter.invalidations_sent == 2

        # The reader never went stale, and its next fill re-registers
        # with a fresh lease.
        rows = net.query("N0", QUERY_ITEM, mode="network")
        assert sorted(rows) == [(1,), (2,), (3,), (4,), (5,), (6,)]
        net.run()
        assert link.cache_interest and link.lease_remaining == 2

    def test_expiry_ships_a_batch_of_one_notice(self, monkeypatch):
        net = build_pair(config=NodeConfig(interest_lease_events=1))
        net.query("N0", QUERY_ITEM, mode="network")
        sent = []
        send_burst = net.transport.send_burst

        def spying(messages):
            sent.extend(m for m in messages if m.kind == "invalidation")
            return send_burst(messages)

        monkeypatch.setattr(net.transport, "send_burst", spying)
        exporter = net.node("N1")
        exporter.insert("item", (3,))  # a flush window's notices
        net.run()
        exporter.insert("item", (4,))  # suppressed: the lease runs out
        net.run()
        assert exporter.interest_leases_expired == 1
        notice = {"rule_id": "r0", "relations": ["item"]}
        assert [m.payload for m in sent] == [
            {"notices": [notice]},
            {"notices": [notice]},  # the expiry: one shape on the wire
        ]

    def test_the_next_cached_read_propagates_after_expiry(self):
        """Once the lease expires, the importer's next cached read is a
        miss that propagates: it sees every row written meanwhile, and
        its fill registers again."""
        net = build_pair(config=NodeConfig(interest_lease_events=1))
        net.query("N0", QUERY_ITEM, mode="network")
        importer, exporter = net.node("N0"), net.node("N1")
        link = exporter_link(net)

        exporter.insert("item", (3,))  # notice sent
        net.run()
        exporter.insert("item", (4,))  # suppressed: the lease runs out
        net.run()
        assert exporter.interest_leases_expired == 1
        assert not link.cache_interest
        # Nothing reached the importer's store: the rows are pulled.
        assert (4,) not in importer.rows("item")

        misses = importer.cache.misses
        sent = net.transport.stats.messages_sent
        rows = net.query("N0", QUERY_ITEM, mode="network")
        assert sorted(rows) == [(1,), (2,), (3,), (4,)]
        assert importer.cache.misses == misses + 1
        assert net.transport.stats.messages_sent > sent  # it propagated
        net.run()
        assert link.cache_interest and link.lease_remaining == 1

    def test_zero_lease_never_expires(self):
        """``interest_lease_events=0`` is the pre-lease behaviour:
        registrations live until invalidated, however idle."""
        net = build_pair(config=NodeConfig(interest_lease_events=0))
        net.query("N0", QUERY_ITEM, mode="network")
        exporter = net.node("N1")
        link = exporter_link(net)
        for value in range(10, 30):
            exporter.insert("item", (value,))
        net.run()
        assert exporter.interest_leases_expired == 0
        assert link.cache_interest
        assert exporter.invalidations_sent == 1  # dedup still applies

    def test_default_config_carries_a_lease(self):
        net = build_pair()
        net.query("N0", QUERY_ITEM, mode="network")
        link = exporter_link(net)
        assert link.lease_remaining == NodeConfig().interest_lease_events

"""A cache miss answered from migrated data, and what keeps that safe.

A clean network fill stamps its body's relation set fresh: until an
epoch of those relations moves, a miss on any query over them is
answered by local evaluation at the root, with no propagation.  The
stamp is only as good as the fill, so these tests also pin the two
ways a fill used to be wrong — a shipment that bounced below the root,
and a write that raced the fill — and that a finished query leaves
nothing behind at any node.
"""

import random

import pytest

from repro import CoDBNetwork, MediatorStore, NodeConfig, parse_schema
from repro.errors import ProtocolError
from repro.p2p.faults import FaultInjector, FaultModel, Partition
from repro.p2p.messages import Message

QUERY = "q(x) <- item(x)"
SIBLING = "q(x) <- item(x), x >= 0"


def build_chain(length, facts=((1,), (2,)), *, config=None):
    """``N0 <- N1 <- ... <- N{length-1}``; only the tail holds data."""
    net = CoDBNetwork(seed=9, with_superpeer=False, config=config)
    for i in range(length):
        net.add_node(f"N{i}", "item(k: int)")
    net.node(f"N{length - 1}").load_facts({"item": list(facts)})
    for i in range(length - 1):
        net.add_rule(f"N{i}:item(k) <- N{i + 1}:item(k)")
    net.start()
    return net


def read(net, query=QUERY, **kwargs):
    return sorted(net.query("N0", query, mode="network", **kwargs))


def messages(net):
    return net.transport.stats.messages_sent


class TestAMissNeedNotPropagate:
    def test_a_sibling_template_after_a_miss_sends_nothing(self):
        net = build_chain(3)
        assert read(net) == [(1,), (2,)]
        before = messages(net)
        assert read(net, SIBLING) == [(1,), (2,)]
        assert messages(net) == before
        cache = net.node("N0").cache
        assert cache.fresh_served == 1
        assert cache.misses == 2 and cache.hits == 0
        # The fresh answer filled the cache like any other.
        assert read(net, SIBLING) == [(1,), (2,)] and cache.hits == 1

    def test_a_write_upstream_ends_the_freshness(self):
        net = build_chain(3)
        read(net)
        net.node("N2").insert("item", (3,))
        net.run()
        before = messages(net)
        assert read(net, SIBLING) == [(1,), (2,), (3,)]
        assert messages(net) > before
        assert net.node("N0").cache.fresh_served == 0

    def test_a_local_write_at_the_root_keeps_it_local(self):
        net = build_chain(2)
        read(net)
        net.node("N0").insert("item", (7,))
        # The root's own write moved the epoch: the next miss asks again.
        before = messages(net)
        assert read(net, SIBLING) == [(1,), (2,), (7,)]
        assert messages(net) > before

    def test_uncached_reads_always_propagate(self):
        net = build_chain(2)
        read(net)
        before = messages(net)
        assert read(net, SIBLING, cache=False) == [(1,), (2,)]
        assert messages(net) > before

    def test_a_local_fill_is_not_a_network_one(self):
        net = build_chain(2)
        net.node("N0").query(QUERY)  # fills, imports nothing
        before = messages(net)
        assert read(net, SIBLING) == [(1,), (2,)]
        assert messages(net) > before

    def test_a_different_relation_set_is_not_fresh(self):
        net = CoDBNetwork(seed=9, with_superpeer=False)
        net.add_node("N0", "item(k: int)\ntag(k: int)")
        net.add_node("N1", "item(k: int)\ntag(k: int)",
                     facts={"item": [(1,)], "tag": [(1,)]})
        net.add_rule("N0:item(k) <- N1:item(k)")
        net.add_rule("N0:tag(k) <- N1:tag(k)")
        net.start()
        read(net)
        before = messages(net)
        assert read(net, "q(x) <- item(x), tag(x)") == [(1,)]
        assert messages(net) > before

    def test_a_mediator_root_always_propagates(self):
        schema = parse_schema("item(k: int)")
        net = CoDBNetwork(seed=9, with_superpeer=False)
        net.add_node("N0", schema, store=MediatorStore(schema))
        net.add_node("N1", "item(k: int)", facts={"item": [(1,)]})
        net.add_rule("N0:item(k) <- N1:item(k)")
        net.start()
        read(net)
        before = messages(net)
        assert read(net, SIBLING) == [(1,)]
        assert messages(net) > before
        assert net.node("N0").cache.fresh_served == 0

    def test_a_fresh_miss_bypasses_admission(self):
        net = build_chain(2, config=NodeConfig(max_active_sessions=1))
        read(net)
        root = net.node("N0")
        update_id = root.submit_update_id()  # holds the only slot
        assert root.admission.live == {update_id: "update"}
        query_id = root.submit_query_id(SIBLING)
        assert root.queries.is_done(query_id)
        assert sorted(root.network_query_answer(query_id)) == [(1,), (2,)]
        net.run()


class TestABounceBelowTheRootDoesNotFill:
    """Severed silently, the far peer's request bounces at N1: only
    N1's participation saw it, yet the partial answer filled N0's cache
    and the healed network kept serving it."""

    def test_the_healed_read_sees_the_far_peer(self):
        net = build_chain(3)
        cut = Partition([("N0", "N1"), ("N2",)], announce=False)
        net.transport.install_faults(FaultInjector(cut, seed=1))
        cut.sever()
        assert read(net) == []
        assert net.node("N0").cache.fills_skipped == 1
        cut.heal()
        assert read(net) == read(net, cache=False) == [(1,), (2,)]
        assert read(net, SIBLING) == [(1,), (2,)]

    def test_the_partial_flag_rides_only_unclean_acks(self):
        net = build_chain(3)
        cut = Partition([("N0", "N1"), ("N2",)], announce=False)
        injector = FaultInjector(cut, seed=1)
        net.transport.install_faults(injector)
        acks = []
        original = injector.after_delivery

        def record(message):
            # An ack, or the last shipment that carries one (``fin``).
            if message.kind == "ack" or message.payload.get("fin"):
                acks.append((message.sender, message.payload.get("partial")))
            original(message)

        injector.after_delivery = record
        read(net, cache=False)
        assert acks and all(partial is None for _sender, partial in acks)
        acks.clear()
        cut.sever()
        read(net, cache=False)
        assert [ack for ack in acks if ack[1] is not None] == [("N1", True)]


class TestAWriteRacingAFill:
    """N1 serves the read, then takes a write before the read's fill
    registers: the notification dedup swallowed the write and the
    registration cleared the dedup, so the cache never heard of it."""

    # "sibling" passes without the fix too (a sibling's miss used to
    # propagate); it guards the fresh-miss path against the same race.
    @pytest.mark.parametrize("template", [QUERY, SIBLING], ids=["same", "sibling"])
    def test_the_next_cached_read_sees_the_racing_write(self, template):
        net = build_chain(2)
        read(net)
        net.node("N1").insert("item", (3,))
        net.run()
        injector = FaultInjector(seed=1)
        net.transport.install_faults(injector)
        injector.at_delivery(
            lambda: net.node("N1").insert("item", (4,)),
            kind="query_request",
            recipient="N1",
        )
        assert read(net) == [(1,), (2,), (3,)]  # served before the write
        expected = [(1,), (2,), (3,), (4,)]
        assert read(net, template) == read(net, template, cache=False) == expected

    def test_relaying_the_reads_own_import_does_not_cover_the_write(self):
        # N1 serves the read, takes a write, then relays what N2 sent:
        # the relay ships the read's import, not the write.
        net = build_chain(3, facts=((0,),))
        injector = FaultInjector(seed=1)
        net.transport.install_faults(injector)
        injector.at_delivery(
            lambda: net.node("N1").insert("item", (1,)),
            kind="query_request",
            recipient="N1",
        )
        assert read(net) == [(0,)]
        assert read(net, SIBLING) == read(net, cache=False) == [(0,), (1,)]

    def test_a_bounced_relay_does_not_count_as_served(self):
        # Two reads run at once.  N2 takes a write after serving the
        # first, so only the second brings it to N1, and N1's relay of
        # it to N0 bounces: the first read's fill lacks the write.
        class BounceRelay(FaultModel):
            query_id = None

            def on_send(self, message, verdict):
                if message.kind == "query_data" and message.sender == "N1":
                    rows = message.payload["rows"]
                    if message.payload["query_id"] == self.query_id and rows:
                        verdict.bounce = True

        net = build_chain(3, facts=((0,),))
        relay = BounceRelay()
        injector = FaultInjector(relay, seed=1)
        net.transport.install_faults(injector)
        injector.at_delivery(
            lambda: net.node("N2").insert("item", (5,)),
            kind="query_request",
            recipient="N2",
        )
        first = net.submit_query("N0", QUERY)
        relay.query_id = net.submit_query("N0", SIBLING).request_id
        net.run()
        assert sorted(first.result()) == [(0,)]
        assert read(net) == read(net, cache=False) == [(0,), (5,)]

    def test_an_invalidation_voids_the_fill_in_flight(self):
        net = build_chain(3)
        read(net)  # N1 and N2 hold registered interest
        root = net.node("N0")
        root.insert("item", (9,))  # a local write: the next read is a miss
        injector = FaultInjector(seed=1)
        net.transport.install_faults(injector)
        injector.at_delivery(
            lambda: net.node("N1").insert("item", (5,)),
            kind="query_request",
            recipient="N2",
        )
        read(net)
        assert root.cache.fills_skipped == 1
        assert read(net) == read(net, cache=False) == [(1,), (2,), (5,), (9,)]


class TestFinishedQueriesAreReleased:
    def test_nothing_is_left_after_many_reads(self):
        net = build_chain(3)
        for value in range(10, 16):
            read(net)
            read(net, SIBLING)
            read(net, cache=False)
            net.node("N2").insert("item", (value,))
            net.run()
        for name, node in net.nodes.items():
            assert not node.queries.roots, name
            assert not node.queries.answers, name
            assert not node.updates.sessions, name
            assert not [
                query_id for query_id in node.updates.finished
                if node.termination.is_engaged(query_id)
            ], name

    def test_an_answer_is_taken_once(self):
        net = build_chain(2)
        query_id = net.node("N0").submit_query_id(QUERY)
        assert net.node("N0").network_query_answer(query_id) is None
        net.run()
        assert sorted(net.node("N0").network_query_answer(query_id)) == [(1,), (2,)]
        with pytest.raises(ProtocolError):
            net.node("N0").network_query_answer(query_id)

    def test_late_messages_of_a_finished_query_are_dropped(self):
        net = build_chain(2)
        query_id = net.node("N0").submit_query_id(QUERY, cache=False)
        net.run()
        n1 = net.node("N1")
        assert query_id in n1.updates.finished
        stored = n1.rows("item")
        # A duplicate of the completion flood: nothing happens.
        n1.queries.on_query_complete(
            Message("query_complete", "N0", "N1", {"query_id": query_id})
        )
        # A late request is not served again, only acknowledged.
        sent = messages(net)
        with n1.input():
            n1.queries.on_query_request(
                Message(
                    "query_request", "N0", "N1",
                    {"query_id": query_id, "origin": "N0", "label": ["N0"],
                     "rule_ids": list(n1.links.incoming)},
                )
            )
        assert messages(net) == sent + 1
        assert n1.rows("item") == stored
        assert not n1.updates.sessions


class TestCycleBudget:
    """One write at the tail of a 5-chain of 60 six-digit keys per peer,
    then one read of each of three templates over ``item`` at the head:
    the first read propagates, the other two are answered locally."""

    TEMPLATES = ("q(x) <- item(x)", "q(x) <- item(x), x >= 250000",
                 "q(x) <- item(x), x >= 400000")

    def build(self):
        rng = random.Random(1)
        net = CoDBNetwork(seed=0, with_superpeer=False)
        for i in range(5):
            keys = rng.sample(range(100_000 * (i + 1), 100_000 * (i + 2)), 60)
            net.add_node(f"N{i}", "item(k: int)", facts={"item": [(k,) for k in keys]})
        for i in range(4):
            net.add_rule(f"N{i}:item(k) <- N{i + 1}:item(k)")
        net.start()
        net.global_update("N0")
        return net

    def cycle(self, net, write):
        stats = net.transport.stats
        before = (stats.messages_sent, stats.bytes_sent)
        net.node("N4").insert("item", (write,))
        net.run()
        per_read = []
        for template in self.TEMPLATES:
            sent = stats.messages_sent
            net.query("N0", template, mode="network")
            per_read.append(stats.messages_sent - sent)
        return stats.messages_sent - before[0], stats.bytes_sent - before[1], per_read

    def test_one_network_round_per_write(self):
        net = self.build()
        self.cycle(net, 700_000)  # warm-up: registrations settle
        for write in (712_345, 798_765, 754_321):
            sent, volume, per_read = self.cycle(net, write)
            assert (sent, volume) == (16, 1846)
            assert per_read[1:] == [0, 0]
        cache = net.node("N0").cache
        assert cache.fresh_served == 2 * 4

    def test_a_propagating_miss_by_kind(self):
        """Only the activation at the tail has a row to ship; the other
        three answer nothing, every shipment carries its sender's tree
        ack, and every registration rides the completion flood."""
        net = self.build()
        self.cycle(net, 700_000)
        net.node("N4").insert("item", (712_345,))
        net.run()
        stats = net.transport.stats
        kinds = dict(stats.by_kind)
        net.query("N0", self.TEMPLATES[0], mode="network")
        by_kind = {k: n - kinds.get(k, 0) for k, n in stats.by_kind.items()}
        assert {k: n for k, n in by_kind.items() if n} == {
            "query_request": 4, "query_data": 4, "query_complete": 4,
        }
        assert by_kind.get("ack", 0) == 0
        # ... yet every link is registered again.
        for i in range(4):
            (link,) = net.node(f"N{i}").links.outgoing.values()
            assert link.registered

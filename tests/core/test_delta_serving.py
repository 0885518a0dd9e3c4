"""Delta-only link serving: what a link remembers, and what resets it.

An incoming link serves only what is new — it filters against its
lifetime ``pushed`` memory and evaluates only the rows behind its
store watermarks — for updates and network queries alike.
These tests pin the invariant that makes that safe: suppression may
consult only memory no live computation is still delivering, and a
computation that did not end cleanly teaches nothing.
"""

import pytest

from repro import CoDBNetwork, MediatorStore, NodeConfig, parse_schema
from repro.p2p.faults import FaultInjector, Partition
from repro.runner.snapshot import snapshot_node

UNCACHED = NodeConfig(answer_cache=False)
ABLATED = NodeConfig(answer_cache=False, resend_suppression=False)


def build_chain(config=UNCACHED, *, length=4, per_node=3):
    """``N0 <- N1 <- ... <- N{length-1}`` over a unary ``item``; node
    *i* starts with ``per_node`` rows ``i*10 + j``."""
    net = CoDBNetwork(seed=5, with_superpeer=False, config=config)
    for i in range(length):
        net.add_node(
            f"N{i}", "item(k: int)",
            facts={"item": [(i * 10 + j,) for j in range(per_node)]},
        )
    for i in range(length - 1):
        net.add_rule(f"N{i}:item(k) <- N{i + 1}:item(k)")
    net.start()
    return net


def all_items(length=4, per_node=3):
    return sorted((i * 10 + j,) for i in range(length) for j in range(per_node))


def incoming(net, name):
    """The one incoming link of a chain node (it serves N{i-1})."""
    (link,) = net.node(name).links.incoming.values()
    return link


def totals(net, key):
    return sum(node_totals[key] for node_totals in net.lifetime_totals().values())


def participations(net, name):
    """Every query participation *name* starts from now on, kept here
    after the engine releases it at its cleanup."""
    engine = net.node(name).queries
    started = []
    participate = engine._participate

    def recording(query_id, origin):
        started.append(participate(query_id, origin))
        return started[-1]

    engine._participate = recording
    return started


def query_all(net, node="N0", **kwargs):
    return sorted(net.query(node, "q(k) <- item(k)", mode="network", **kwargs))


class TestExistentialHeadsDoNotRemint:
    """Satellite bug: an uncached query over an
    existential-head rule minted fresh nulls on every run, because
    query ingest never consulted ``OutgoingLink.fired``."""

    def build(self, config):
        net = CoDBNetwork(seed=1, with_superpeer=False, config=config)
        net.add_node("B", "person(n: str)", facts="person('a'). person('b').")
        net.add_node("A", "emp(n: str, d)")
        net.add_rule("A:emp(n, d) <- B:person(n)")
        net.start()
        return net

    @pytest.mark.parametrize("config", [UNCACHED, ABLATED], ids=["on", "ablated"])
    def test_repeated_queries_answer_two_rows_each_time(self, config):
        net = self.build(config)
        sizes = [
            len(net.query("A", "q(n, d) <- emp(n, d)", mode="network"))
            for _ in range(3)
        ]
        assert sizes == [2, 2, 2]
        assert net.node("A").nulls.minted == 2

    @pytest.mark.parametrize("config", [UNCACHED, ABLATED], ids=["on", "ablated"])
    def test_update_after_query_inserts_nothing(self, config):
        net = self.build(config)
        net.query("A", "q(n, d) <- emp(n, d)", mode="network")
        outcome = net.global_update("A")
        assert outcome.rows_imported == 0
        assert len(net.node("A").rows("emp")) == 2


class TestRowsAnotherComputationFired:
    """A relay re-fires its serving links on rows another computation
    fired before.  Only an existential head needs the full recompute
    (the facts sit in the store under nulls not ours to mint again);
    any other head gives the same facts again, so the relay stays on
    the semi-naive path — O(delta) per message, as at the parent."""

    @staticmethod
    def full_recomputes(monkeypatch):
        import repro.core.query as query_module

        calls = []
        original = query_module.frontier_rows

        def spy(wrapper, link, deltas=None):
            if deltas is None:
                calls.append(link.rule_id)
            return original(wrapper, link, deltas)

        monkeypatch.setattr(query_module, "frontier_rows", spy)
        return calls

    def test_copy_rules_stay_semi_naive_on_a_repeat_query(self, monkeypatch):
        net = build_chain(ABLATED)
        assert query_all(net) == all_items()
        calls = self.full_recomputes(monkeypatch)
        assert query_all(net) == all_items()  # every row fired before
        assert calls == []

    def test_existential_heads_recompute_in_full(self, monkeypatch):
        net = CoDBNetwork(seed=1, with_superpeer=False, config=ABLATED)
        net.add_node("C", "person(n: str)", facts="person('a'). person('b').")
        net.add_node("B", "emp(n: str, d)")
        net.add_node("A", "emp(n: str, d)")
        net.add_rule("B:emp(n, d) <- C:person(n)")
        net.add_rule("A:emp(n, d) <- B:emp(n, d)")
        net.start()
        first = net.query("A", "q(n, d) <- emp(n, d)", mode="network")
        calls = self.full_recomputes(monkeypatch)
        again = net.query("A", "q(n, d) <- emp(n, d)", mode="network")
        assert sorted(map(repr, again)) == sorted(map(repr, first))
        assert len(first) == 2 and net.node("B").nulls.minted == 2
        assert calls  # B found person rows fired: served A from its store


class TestPersistentQueryTeachesOnCleanEnd:
    def test_repeat_query_ships_no_query_data(self):
        def repeat_cost(config):
            net = build_chain(config)
            assert query_all(net) == all_items()
            stats = net.transport.stats
            kinds, size = dict(stats.by_kind), stats.bytes_sent
            assert query_all(net) == all_items()
            by_kind = {k: n - kinds.get(k, 0) for k, n in stats.by_kind.items()}
            return net, by_kind, stats.bytes_sent - size

        net, by_kind, size = repeat_cost(UNCACHED)
        _, ablated_by_kind, ablated_size = repeat_cost(ABLATED)
        # An activation with nothing new to ship sends nothing: the
        # repeat costs its requests, their acks and the completion
        # flood.  The ablation ships every row again, each shipment
        # covered by its sender's tree ack: the tail's carries it, and
        # the two relays, with nothing new once the tail's rows come
        # in, send it as a plain ack.
        assert by_kind == {
            "query_request": 3, "ack": 3, "query_data": 0, "query_complete": 3,
        }
        assert ablated_by_kind == {
            "query_request": 3, "ack": 2, "query_data": 3, "query_complete": 3,
        }
        assert size < ablated_size
        assert totals(net, "rows_suppressed") > 0
        assert totals(net, "activations_incremental") == 3
        assert totals(net, "activations_full") == 3

    def test_memory_is_held_in_the_participation_until_the_end(self):
        net = build_chain()
        handle = net.submit_query("N0", "q(k) <- item(k)", mode="network")
        seen_in_flight = []
        while not handle.done():
            net.transport.step()
            seen_in_flight.append(len(incoming(net, "N1").pushed))
        net.run()
        # Nothing was taught while query_data was still on the wire ...
        assert set(seen_in_flight[:-1]) == {0}
        # ... and the clean end taught every row N1 shipped to N0.
        assert len(incoming(net, "N1").pushed) == 9
        assert incoming(net, "N1").marks

    def test_a_new_row_is_the_only_thing_the_next_query_ships(self):
        net = build_chain()
        query_all(net)
        net.node("N3").insert("item", (99,))
        before = {n: len(incoming(net, n).pushed) for n in ("N1", "N2", "N3")}
        assert query_all(net) == sorted(all_items() + [(99,)])
        after = {n: len(incoming(net, n).pushed) for n in ("N1", "N2", "N3")}
        assert {n: after[n] - before[n] for n in after} == {"N1": 1, "N2": 1, "N3": 1}

    def test_update_after_query_reships_nothing(self):
        net = build_chain()
        query_all(net)
        outcome = net.global_update("N0")
        assert outcome.rows_imported == 0
        assert totals(net, "activations_incremental") == 3

    def test_ablation_keeps_no_memory(self):
        net = build_chain(ABLATED)
        query_all(net)
        query_all(net)
        assert not incoming(net, "N1").pushed and not incoming(net, "N1").marks
        assert totals(net, "rows_suppressed") == 0
        assert totals(net, "activations_incremental") == 0


class TestRepeatUpdate:
    def test_repeat_keeps_off_the_wire_exactly_what_the_first_shipped(self):
        """The second update over unchanged data re-ships nothing the
        first one delivered; the ablation pays for all of it again."""

        def two_updates(config):
            net = build_chain(config, per_node=6)
            return net, net.global_update("N0"), net.global_update("N0")

        net, first, second = two_updates(UNCACHED)
        ablated, _, ablated_second = two_updates(ABLATED)
        assert second.transport_bytes < first.transport_bytes
        assert second.transport_bytes < ablated_second.transport_bytes
        # These are single-atom bodies, so the count is known: every
        # row the first update delivered is one the repeat skipped
        # unread behind a watermark or filtered by ``pushed`` — and
        # each of the three links served the repeat from its store tail.
        assert totals(net, "rows_suppressed") == first.rows_imported == 36
        assert totals(net, "activations_incremental") == 3
        assert totals(ablated, "rows_suppressed") == 0
        assert totals(ablated, "activations_incremental") == 0


class TestQueryRacingAnUpdate:
    """The invariant found the hard way: a query does not carry
    another computation's rows onward, so keys an in-flight update
    taught a link are *unsettled* — undelivered, as far as a query
    may assume."""

    def test_query_reships_what_the_inflight_update_taught(self):
        # W <- X <- S, W admitting one session at a time.  The update
        # starts at S; the moment its flood reaches X (which then asks
        # S for data), W poses a query.  X activates its link to W for
        # the query *before* S's rows arrive, and S sees the query's
        # request *after* it shipped those rows for the update and
        # taught them to the link X <- S.  The update cannot carry them
        # on to W: W is busy with the query and keeps the update's
        # request queued behind its admission cap.  Per-pipe FIFO and
        # the acks do not help here — without the unsettled rule S
        # suppresses the rows and the query answers [(10,), (20,)].
        net = CoDBNetwork(seed=2, with_superpeer=False, config=UNCACHED)
        net.add_node("S", "item(k: int)", facts={"item": [(1,), (2,)]})
        net.add_node("X", "item(k: int)", facts={"item": [(10,)]})
        net.add_node(
            "W", "item(k: int)", facts={"item": [(20,)]},
            config=NodeConfig(answer_cache=False, max_active_sessions=1),
        )
        net.add_rule("X:item(k) <- S:item(k)")
        net.add_rule("W:item(k) <- X:item(k)")
        net.start()
        injector = FaultInjector(seed=2)
        net.transport.install_faults(injector)
        posed = []
        unsettled_seen = []
        s_link = incoming(net, "S")
        at_s = participations(net, "S")
        injector.at_delivery(
            lambda: posed.append(
                net.node("W").submit_query_id("q(k) <- item(k)")
            ),
            kind="update_request",
            recipient="X",
        )
        injector.at_delivery(
            lambda: unsettled_seen.append(set(s_link.unsettled)),
            kind="query_request",
            recipient="S",
        )
        update_id = net.node("S").submit_update_id()
        net.run()
        (query_id,) = posed
        # The race happened as described, S shipped the unsettled keys
        # again for the query ...
        assert unsettled_seen == [{(1,), (2,)}]
        (participation,) = at_s
        assert participation.sent[s_link.rule_id] == {(1,), (2,)}
        # ... and the query answered with S's rows.
        answer = net.node("W").network_query_answer(query_id)
        assert sorted(answer) == [(1,), (2,), (10,), (20,)]
        assert net.node("S").update_done(update_id)
        # Both computations over: everything is settled, marks stand.
        assert not s_link.unsettled and s_link.pushed == {(1,), (2,)}
        assert s_link.marks

    def test_unsettled_keys_make_a_query_distrust_the_watermark(self):
        net = build_chain()
        net.global_update("N0")  # clean: marks on every link
        link = incoming(net, "N1")
        assert link.marks and not link.unsettled
        # An update in flight taught a key the marks already cover.
        link.unsettled.add((10,))
        full_before = totals(net, "activations_full")
        at_n1 = participations(net, "N1")
        assert query_all(net) == all_items()
        # N1 evaluated in full and shipped the unsettled key again;
        # N2 and N3 (nothing unsettled) served their empty tails.
        assert totals(net, "activations_full") - full_before == 1
        (participation,) = at_n1
        assert participation.sent[link.rule_id] == {(10,)}

    def test_update_settles_its_keys_when_it_finalizes(self):
        net = build_chain()
        handle = net.submit_global_update("N0")
        peak = 0
        while not handle.done():
            net.transport.step()
            peak = max(peak, len(incoming(net, "N1").unsettled))
        net.run()
        assert peak == 9  # everything N1 taught was unsettled in flight
        for name in ("N1", "N2", "N3"):
            assert not incoming(net, name).unsettled
            assert incoming(net, name).marks


class TestMediatorsAreServedInFull:
    """A mediator's buffer is dropped at the next update boundary, so
    whatever a query ships it teaches nothing: not the exporter's send
    memory (the rows will be gone), not the mediator's own ``fired``
    memory (an update finding a row fired there would not carry it on
    to the importers the query never reached)."""

    def build(self, config=UNCACHED):
        schema = parse_schema("item(k: int)")
        net = CoDBNetwork(seed=5, with_superpeer=False, config=config)
        net.add_node("SRC", "item(k: int)", facts={"item": [(1,), (2,)]})
        net.add_node("MED", schema, store=MediatorStore(schema))
        net.add_node("C", "item(k: int)")
        net.add_node("D", "item(k: int)")
        net.add_rule("MED:item(k) <- SRC:item(k)")
        net.add_rule("C:item(k) <- MED:item(k)")
        net.add_rule("D:item(k) <- MED:item(k)")
        net.start()
        return net

    @pytest.mark.parametrize(
        "config", [UNCACHED, NodeConfig()], ids=["uncached", "cached"]
    )
    def test_query_then_update_then_query_from_the_other_importer(self, config):
        # The query brings the rows to C through MED, the update drops
        # MED's buffer: D's query must still find them at SRC.
        net = self.build(config)
        assert query_all(net, "C") == [(1,), (2,)]
        net.global_update("C")
        assert net.node("MED").wrapper.total_rows() == 0
        assert query_all(net, "D") == [(1,), (2,)]
        assert sorted(net.node("D").rows("item")) == [(1,), (2,)]

    def test_a_clean_query_teaches_neither_end_of_the_link(self):
        net = self.build()
        assert query_all(net, "C") == [(1,), (2,)]
        to_mediator = incoming(net, "SRC")
        assert not to_mediator.pushed and not to_mediator.marks
        (from_source,) = net.node("MED").links.outgoing.values()
        assert not from_source.fired
        # The mediator's own links serve importers that do keep their
        # rows, and remember it.
        (to_c,) = net.node("MED").links.incoming_for_target("C")
        assert to_c.pushed == {(1,), (2,)}

    def test_every_query_through_a_mediator_is_served_in_full(self):
        net = self.build()
        query_all(net, "C")
        before = totals(net, "activations_full")
        suppressed = net.node("SRC").stats.query_rows_suppressed
        at_src = participations(net, "SRC")
        assert query_all(net, "C") == [(1,), (2,)]
        (participation,) = at_src
        (sent,) = participation.sent.values()
        assert sent == {(1,), (2,)} and not participation.activated
        assert net.node("SRC").stats.query_rows_suppressed == suppressed
        assert totals(net, "activations_full") - before >= 1

    def test_only_a_mediator_flags_its_requests(self):
        net = self.build()
        seen = []
        injector = FaultInjector(seed=1)
        net.transport.install_faults(injector)
        original = injector.after_delivery

        def record(message):
            if message.kind == "query_request":
                seen.append((message.sender, message.payload.get("retains")))
            original(message)

        injector.after_delivery = record
        query_all(net, "C")
        assert seen == [("C", None), ("MED", False)]


class TestFailuresTeachNothing:
    def partitioned(self):
        net = build_chain()
        cut = Partition([("N0", "N1"), ("N2", "N3")])
        injector = FaultInjector(cut, seed=9)
        net.transport.install_faults(injector)
        return net, cut, injector

    def test_bounce_mid_query_then_heal_and_requery_redelivers(self):
        net, cut, injector = self.partitioned()
        # Sever the instant the request reaches N2: its reply bounces.
        injector.at_delivery(cut.sever, kind="query_request", recipient="N2")
        partial = query_all(net)
        net.run()
        assert partial == all_items()[:6]  # the near side only
        # The far side's shipments bounced: it taught nothing, and N1
        # (which lost a peer mid-query) vouches for nothing either.
        assert not incoming(net, "N2").pushed and not incoming(net, "N2").marks
        assert not incoming(net, "N1").pushed
        cut.heal()
        assert query_all(net) == all_items()
        assert sorted(net.node("N0").rows("item")) == all_items()

    def test_query_while_severed_then_heal(self):
        net, cut, _ = self.partitioned()
        query_all(net)  # clean: memory and marks everywhere
        net.node("N3").insert("item", (99,))
        cut.sever()
        net.run()
        assert query_all(net) == all_items()  # 99 is out of reach
        cut.heal()
        assert query_all(net) == sorted(all_items() + [(99,)])

    def test_rollback_of_a_failed_update_resets_the_marks(self):
        net, cut, injector = self.partitioned()
        net.global_update("N0")
        link = incoming(net, "N2")
        assert link.marks and len(link.pushed) == 6
        net.node("N2").insert("item", (99,))
        # The next update teaches 99, then loses the importer.
        injector.at_delivery(cut.sever, kind="update_request", recipient="N2")
        assert net.global_update("N0").report.outcome == "partial"
        assert (99,) not in link.pushed and not link.marks
        cut.heal()
        assert net.global_update("N0").report.outcome == "complete"
        assert (99,) in net.node("N0").rows("item")
        assert (99,) in link.pushed and link.marks

    def test_marks_taken_before_a_rollback_are_not_committed(self):
        net = build_chain()
        net.global_update("N0")
        link = incoming(net, "N1")
        session_marks = (link.forgets, dict(link.marks))
        link.forget_delivered({(10,)})
        link.settle(set(), session_marks)
        assert not link.marks

    def test_rejoin_with_digest_mismatch_resets_the_marks(self):
        net = build_chain()
        query_all(net)
        link = incoming(net, "N2")
        assert link.pushed and link.marks
        rejoiner = net.node("N1")
        rejoiner.leave_network()
        net.run()
        for outgoing in rejoiner.links.outgoing.values():
            outgoing.fired.clear()  # the snapshot was lost
        rejoiner.wrapper.delete_rows("item", all_items()[6:])
        net.rejoin_node("N1")
        net.run()
        assert not link.pushed and not link.marks
        assert query_all(net) == all_items()

    def test_warm_rejoin_keeps_memory_and_marks(self):
        net = build_chain()
        query_all(net)
        link = incoming(net, "N2")
        pushed, marks = set(link.pushed), dict(link.marks)
        net.node("N1").leave_network()
        net.run()
        net.rejoin_node("N1")
        net.run()
        assert link.pushed == pushed and link.marks == marks
        full_before = totals(net, "activations_full")
        assert query_all(net) == all_items()
        assert totals(net, "activations_full") == full_before

    def test_snapshots_carry_memory_but_no_marks(self):
        net = build_chain()
        query_all(net)
        payload = snapshot_node(net.node("N2"))
        assert sorted(payload) == [
            "epochs", "facts", "fired", "incarnation", "name", "pushed",
        ]
        assert payload["pushed"] and payload["fired"]
        assert "marks" not in str(payload)

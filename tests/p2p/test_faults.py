"""The fault-injection layer, at transport granularity.

Each model is exercised against the raw simulator (no coDB protocol on
top): seeded determinism, verdict composition, event-count hooks, the
bounce path, partition sever/heal, and the endpoint's at-most-once
duplicate suppression.
"""

import pytest

from repro.p2p.endpoint import Endpoint
from repro.p2p.faults import (
    Duplication,
    ExtraDelay,
    FaultInjector,
    LinkFlap,
    MessageLoss,
    Partition,
    Reorder,
)
from repro.p2p.ids import IdAuthority
from repro.p2p.inproc import InProcessNetwork
from repro.p2p.messages import Message


def make_net(*models, seed=0):
    injector = FaultInjector(*models, seed=seed)
    net = InProcessNetwork(seed=seed, faults=injector)
    return net, injector


def attach(net, name, log):
    ids = IdAuthority(name)
    endpoint = Endpoint(name, net, ids)
    endpoint.on_default(lambda message: log.append(message))
    return endpoint


class TestDeterminism:
    def run_trace(self, seed):
        net, _ = make_net(
            MessageLoss(0.3, retries=2),
            Duplication(0.3),
            Reorder(0.8, max_extra=0.01),
            seed=seed,
        )
        log = []
        a = attach(net, "A", log)
        attach(net, "B", log)
        for i in range(50):
            a.send("B", "data", {"i": i})
        net.run_until_idle()
        return [(m.kind, m.payload.get("i"), m.message_id) for m in log]

    def test_same_seed_same_trace(self):
        assert self.run_trace(7) == self.run_trace(7)

    def test_different_seed_different_trace(self):
        assert self.run_trace(7) != self.run_trace(8)

    def test_adding_a_model_does_not_perturb_others(self):
        # Each model draws from its own RNG: a run with loss-only must
        # lose the same messages whether or not delay is also active.
        def losses(with_delay):
            models = [MessageLoss(0.4, retries=0)]
            if with_delay:
                models.append(ExtraDelay(0.005))
            net, injector = make_net(*models, seed=3)
            log = []
            a = attach(net, "A", log)
            attach(net, "B", log)
            for i in range(40):
                a.send("B", "data", {"i": i})
            net.run_until_idle()
            return {m.payload["i"] for m in log if m.kind == "data"}

        assert losses(False) == losses(True)


class TestMessageLoss:
    def test_exhausted_retries_bounce_to_sender(self):
        net, injector = make_net(MessageLoss(1.0, retries=2), seed=1)
        log = []
        a = attach(net, "A", log)
        attach(net, "B", log)
        a.send("B", "data", {"x": 1})
        net.run_until_idle()
        kinds = [m.kind for m in log]
        assert kinds == ["undeliverable"]
        assert log[0].recipient == "A"
        assert log[0].payload["kind"] == "data"
        assert injector.totals()["loss"]["bounced"] == 1

    def test_absorbed_loss_is_extra_delay_not_loss(self):
        net, injector = make_net(
            MessageLoss(0.5, retries=10, retry_delay=0.004), seed=2
        )
        log = []
        a = attach(net, "A", log)
        attach(net, "B", log)
        for i in range(30):
            a.send("B", "data", {"i": i})
        net.run_until_idle()
        delivered = [m for m in log if m.kind == "data"]
        assert len(delivered) == 30  # all absorbed by retries
        assert injector.totals()["loss"]["retries_used"] > 0

    def test_kind_filter(self):
        net, _ = make_net(MessageLoss(1.0, retries=0, kinds={"junk"}), seed=0)
        log = []
        a = attach(net, "A", log)
        attach(net, "B", log)
        a.send("B", "data", {})
        net.run_until_idle()
        assert [m.kind for m in log] == ["data"]


class TestDuplicationAndDedup:
    def test_transport_delivers_copies(self):
        net, injector = make_net(Duplication(1.0, copies=3), seed=0)
        deliveries = []
        net.register("B", deliveries.append)
        net.send(
            Message(
                kind="data", sender="A", recipient="B",
                payload={}, message_id="m1",
            )
        )
        net.run_until_idle()
        assert len(deliveries) == 3
        assert injector.totals()["duplication"]["duplicated"] == 1

    def test_endpoint_drops_exact_duplicates(self):
        net, _ = make_net(Duplication(1.0, copies=3), seed=0)
        log = []
        a = attach(net, "A", log)
        b = attach(net, "B", log)
        a.send("B", "data", {"x": 1})
        net.run_until_idle()
        assert len(log) == 1  # at-most-once processing
        assert b.duplicates_dropped == 2

    def test_dedup_log_is_bounded(self):
        net = InProcessNetwork()
        log = []
        a = attach(net, "A", log)
        b = attach(net, "B", log)
        b.DEDUP_LIMIT = 4
        for i in range(10):
            a.send("B", "data", {"i": i})
        net.run_until_idle()
        assert len(log) == 10
        assert len(b._seen_ids) == 4

    def test_unstamped_messages_bypass_dedup(self):
        net = InProcessNetwork()
        log = []
        attach(net, "B", log)
        for _ in range(2):
            net.send(
                Message(kind="data", sender="A", recipient="B", payload={})
            )
        net.run_until_idle()
        assert len(log) == 2


class TestReorderAndDelay:
    def test_reorder_preserves_per_pipe_fifo(self):
        net, _ = make_net(Reorder(1.0, max_extra=0.05), seed=4)
        log = []
        a = attach(net, "A", log)
        attach(net, "B", log)
        for i in range(20):
            a.send("B", "data", {"i": i})
        net.run_until_idle()
        # Same pipe: FIFO must survive any reordering model.
        assert [m.payload["i"] for m in log] == list(range(20))

    def test_reorder_scrambles_across_pipes(self):
        net, _ = make_net(Reorder(1.0, max_extra=0.05), seed=4)
        log = []
        a = attach(net, "A", log)
        c = attach(net, "C", log)
        attach(net, "B", log)
        for i in range(10):
            a.send("B", "data", {"src": "A", "i": i})
            c.send("B", "data", {"src": "C", "i": i})
        net.run_until_idle()
        sources = [m.payload["src"] for m in log]
        assert sources != ["A", "C"] * 10  # interleaving scrambled

    def test_extra_delay_stretches_the_clock(self):
        plain = InProcessNetwork()
        log = []
        attach(plain, "A", log)
        attach(plain, "B", log)

        slow, _ = make_net(ExtraDelay(0.05), seed=0)
        log2 = []
        a2 = attach(slow, "A", log2)
        attach(slow, "B", log2)

        a1 = Endpoint("A2", plain, IdAuthority("A2"))
        plain.register("B2", log.append)
        a1.send("B2", "data", {})
        a2.send("B", "data", {})
        plain.run_until_idle()
        slow.run_until_idle()
        assert slow.now() > plain.now()


class TestLinkFlap:
    def test_flap_bounces_by_message_count(self):
        net, injector = make_net(
            LinkFlap("A", "B", down_every=3, down_for=2, mode="bounce"),
            seed=0,
        )
        log = []
        a = attach(net, "A", log)
        attach(net, "B", log)
        for i in range(10):
            a.send("B", "data", {"i": i})
        net.run_until_idle()
        delivered = [m.payload["i"] for m in log if m.kind == "data"]
        bounced = [m for m in log if m.kind == "undeliverable"]
        # 3 crossings, 2 down, 3 crossings, 2 down: 0,1,2 | 3,4 | 5,6,7 | 8,9
        assert delivered == [0, 1, 2, 5, 6, 7]
        assert len(bounced) == 4
        assert injector.totals()["flap"]["flaps"] == 2

    def test_delay_mode_queues_instead_of_bouncing(self):
        net, injector = make_net(
            LinkFlap("A", "B", down_every=2, down_for=2), seed=0
        )
        log = []
        a = attach(net, "A", log)
        attach(net, "B", log)
        for i in range(8):
            a.send("B", "data", {"i": i})
        net.run_until_idle()
        # Everything arrives, in order (FIFO horizon), nothing bounces.
        assert [m.payload["i"] for m in log] == list(range(8))
        assert injector.totals()["flap"]["bounced"] == 0
        assert injector.totals()["flap"]["delayed"] == 4

    def test_other_links_unaffected(self):
        net, _ = make_net(
            LinkFlap("A", "B", down_every=1, down_for=99, mode="bounce"),
            seed=0,
        )
        log = []
        a = attach(net, "A", log)
        attach(net, "B", log)
        attach(net, "C", log)
        a.send("B", "data", {})  # crossing 1: link goes down after
        for _ in range(5):
            a.send("C", "data", {})
        net.run_until_idle()
        assert sum(1 for m in log if m.recipient == "C") == 5


class TestPartition:
    def test_sever_bounces_cross_group_and_announces(self):
        cut = Partition([("A",), ("B",)])
        net, injector = make_net(cut, seed=0)
        log = []
        a = attach(net, "A", log)
        attach(net, "B", log)
        cut.sever()
        a.send("B", "data", {})
        net.run_until_idle()
        kinds = sorted(m.kind for m in log)
        # Both sides got the failure-detector notice; the cross-cut
        # message bounced back to its sender.
        assert kinds == ["peer_down", "peer_down", "undeliverable"]
        assert net.severed_pairs() == frozenset({frozenset({"A", "B"})})

    def test_heal_restores_flow(self):
        cut = Partition([("A",), ("B",)])
        net, _ = make_net(cut, seed=0)
        log = []
        a = attach(net, "A", log)
        attach(net, "B", log)
        cut.sever()
        net.run_until_idle()
        cut.heal()
        a.send("B", "data", {"post": "heal"})
        net.run_until_idle()
        assert [m.kind for m in log if m.kind == "data"] == ["data"]
        assert net.severed_pairs() == frozenset()

    def test_same_side_traffic_flows_during_cut(self):
        cut = Partition([("A", "B"), ("C",)])
        net, _ = make_net(cut, seed=0)
        log = []
        a = attach(net, "A", log)
        attach(net, "B", log)
        attach(net, "C", log)
        cut.sever()
        net.run_until_idle()
        a.send("B", "data", {})
        net.run_until_idle()
        assert any(m.kind == "data" and m.recipient == "B" for m in log)


class TestDeliveryHooks:
    def test_hook_fires_at_exact_count(self):
        net, injector = make_net(seed=0)
        log = []
        a = attach(net, "A", log)
        attach(net, "B", log)
        fired_after = []
        injector.at_delivery(
            lambda: fired_after.append(len(log)), kind="data", count=3
        )
        for i in range(5):
            a.send("B", "data", {"i": i})
        net.run_until_idle()
        assert fired_after == [3]

    def test_hook_filters_and_cancel(self):
        net, injector = make_net(seed=0)
        log = []
        a = attach(net, "A", log)
        attach(net, "B", log)
        attach(net, "C", log)
        hits = []
        hook = injector.at_delivery(
            lambda: hits.append(1), recipient="C", repeat=True
        )
        a.send("B", "data", {})
        a.send("C", "data", {})
        net.run_until_idle()
        hook.cancel()
        a.send("C", "data", {})
        net.run_until_idle()
        assert hits == [1]

    def test_hook_drives_churn_without_wall_clock(self):
        # The run_for replacement: a hook detaches a peer the moment a
        # specific delivery lands, deterministically.
        net, injector = make_net(seed=0)
        log = []
        a = attach(net, "A", log)
        b = attach(net, "B", log)
        injector.at_delivery(lambda: b.detach(), kind="data", recipient="B")
        a.send("B", "data", {"i": 0})
        net.run_until_idle()
        assert "B" not in net.peers()
        a.send("B", "data", {"i": 1})  # never raises: it bounces
        net.run_until_idle()
        bounced = [m for m in log if m.kind == "undeliverable"]
        assert [m.payload["payload"] for m in bounced] == [{"i": 1}]


class TestLatencyAndChannelModels:
    """LognormalDelay and GilbertElliott: realistic weather shapes."""

    def test_lognormal_delays_every_message_and_caps(self):
        from repro.p2p.faults import LognormalDelay

        model = LognormalDelay(median=0.004, sigma=1.0, cap=0.005)
        net, injector = make_net(model, seed=2)
        log = []
        a = attach(net, "A", log)
        attach(net, "B", log)
        for i in range(40):
            a.send("B", "data", {"i": i})
        net.run_until_idle()
        assert len(log) == 40  # latency, never loss
        totals = injector.totals()["lognormal"]
        assert totals["delayed"] == 40
        assert totals["capped"] > 0  # median ≈ cap: the tail was cut

    def test_lognormal_rejects_bad_median(self):
        from repro.p2p.faults import LognormalDelay

        with pytest.raises(ValueError):
            LognormalDelay(median=0.0)

    def test_gilbert_burst_losses_bounce_and_recover(self):
        from repro.p2p.faults import GilbertElliott

        model = GilbertElliott(
            p_bad=0.3, p_recover=0.3, loss_good=0.0, loss_bad=1.0, retries=0
        )
        net, injector = make_net(model, seed=5)
        log = []
        a = attach(net, "A", log)
        attach(net, "B", log)
        for i in range(60):
            a.send("B", "data", {"i": i})
        net.run_until_idle()
        totals = injector.totals()["gilbert"]
        assert totals["bursts"] > 0
        assert totals["bounced"] > 0  # bad-state losses with no retries
        delivered = [m for m in log if m.kind == "data"]
        assert 0 < len(delivered) < 60  # good-state traffic still flowed

    def test_gilbert_retries_absorb_into_delay(self):
        from repro.p2p.faults import GilbertElliott

        model = GilbertElliott(
            p_bad=0.3, p_recover=0.5, loss_bad=0.6,
            retries=8, retry_delay=0.001,
        )
        net, injector = make_net(model, seed=6)
        log = []
        a = attach(net, "A", log)
        attach(net, "B", log)
        for i in range(50):
            a.send("B", "data", {"i": i})
        net.run_until_idle()
        totals = injector.totals()["gilbert"]
        assert len(log) == 50  # deep retry budget: all absorbed
        assert totals["retries_used"] > 0

    def test_channel_state_is_per_edge(self):
        from repro.p2p.faults import GilbertElliott

        # A->B weather must not perturb A->C: per-edge Markov state.
        model = GilbertElliott(p_bad=1.0, p_recover=0.0, loss_bad=1.0,
                               retries=0)
        net, injector = make_net(model, seed=1)
        log = []
        a = attach(net, "A", log)
        attach(net, "B", log)
        attach(net, "C", log)
        a.send("B", "data", {"i": 0})  # drives A->B into BAD
        net.run_until_idle()
        a.send("C", "data", {"i": 1})  # A->C starts in its own GOOD
        net.run_until_idle()
        # Both edges entered BAD on their first step (p_bad=1), so both
        # bounced — but each kept its own state dict entry.
        assert len(model._bad) == 2
        assert [m.kind for m in log] == ["undeliverable", "undeliverable"]


class TestSpecRoundTrip:
    """FaultInjector.spec() → JSON → injector_from_spec rebuilds a
    composition whose verdicts (and trace) are identical."""

    def build_models(self):
        from repro.p2p.faults import (
            Duplication,
            ExtraDelay,
            GilbertElliott,
            LognormalDelay,
            MessageLoss,
            Reorder,
        )

        return [
            MessageLoss(0.2, retries=1),
            Duplication(0.25),
            Reorder(0.5, max_extra=0.005),
            ExtraDelay(0.001),
            LognormalDelay(median=0.001, sigma=0.7, cap=0.01),
            GilbertElliott(p_bad=0.2, p_recover=0.4, loss_bad=0.5,
                           retries=2),
        ]

    def drive(self, injector):
        net = InProcessNetwork(seed=0, faults=injector)
        log = []
        a = attach(net, "A", log)
        b = attach(net, "B", log)
        attach(net, "C", log)
        injector.start_trace()
        for i in range(30):
            a.send("B", "data", {"i": i})
            b.send("C", "ack", {"i": i})
        net.run_until_idle()
        return list(injector.trace)

    def test_rebuilt_injector_produces_identical_trace(self):
        import json

        from repro.p2p.faults import injector_from_spec

        original = FaultInjector(*self.build_models(), seed=17)
        payload = json.loads(json.dumps(original.spec()))
        rebuilt = injector_from_spec(payload)
        assert self.drive(original) == self.drive(rebuilt)
        assert self.drive(rebuilt) != self.drive(
            injector_from_spec(dict(payload, seed=18))
        )

    def test_scheduled_crash_spec_ships_schedule_not_actions(self):
        import json

        from repro.p2p.faults import ScheduledCrash, injector_from_spec

        fired = []
        original = FaultInjector(
            ScheduledCrash("B", after=2, rejoin_after=3), seed=0
        )
        payload = json.loads(json.dumps(original.spec()))
        rebuilt = injector_from_spec(
            payload,
            crash_actions={"B": lambda: fired.append("crash")},
            rejoin_actions={"B": lambda: fired.append("rejoin")},
        )
        model = rebuilt.models[0]
        assert model.victim == "B"
        assert model.after == 2
        assert model.rejoin_after == 3
        net = InProcessNetwork(seed=0, faults=rebuilt)
        log = []
        a = attach(net, "A", log)
        attach(net, "B", log)
        for i in range(8):
            a.send("B", "data", {"i": i})
            net.run_until_idle()
        assert fired == ["crash", "rejoin"]

    def test_partition_is_not_serialisable(self):
        from repro.errors import ProtocolError as PE

        injector = FaultInjector(Partition([("A",), ("B",)]), seed=0)
        with pytest.raises(PE):
            injector.spec()

    def test_unknown_model_rejected(self):
        from repro.errors import ProtocolError as PE
        from repro.p2p.faults import build_models

        with pytest.raises(PE):
            build_models([{"model": "gremlin"}])

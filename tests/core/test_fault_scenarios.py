"""Randomized differential tests per fault scenario.

The claim structure, per ROADMAP direction 4: every adversarial
scenario is either **fault-free-equivalent** (final node states equal
to the clean run up to a renaming of marked nulls) or a **precisely
characterized divergence** (the report says ``partial`` and names
exactly what went missing).

* duplicate / reorder / delay / dup+reorder+delay / loss-with-retries
  / link flap — absorbable weather: differential-equal to fault-free;
* message loss with exhausted retries — retried-or-partial: the run
  terminates, and if anything was lost the report says so;
* partitions — ``outcome="partial"`` naming exactly the severed
  component, and a healed partition pins the *next* update back to
  ``complete`` (the resend-suppression rollback is what makes that
  true);
* crash-of-origin and crash-at-cut-vertex under each scenario — the
  protocol's termination claim (§1) under compound faults.

All fault timing is event-count hooks; nothing here sleeps or runs the
clock for a wall-time constant.
"""

import random

import pytest

from repro import CoDBNetwork, NodeConfig
from repro.p2p.faults import FaultInjector, MessageLoss, Partition
from repro.relational.containment import rows_equal_up_to_nulls
from repro.workloads import (
    FAULT_SCENARIO_NAMES,
    install_fault_scenario,
    read_heavy_mix,
)

ITEM_SCHEMA = "item(k: int)\ntag(k: int, w)"


def build_workload(
    topology: str,
    seed: int,
    *,
    items: int = 8,
    config: NodeConfig | None = None,
    transport=None,
) -> CoDBNetwork:
    """Deterministic (topology, seed)-derived workload; two calls with
    the same arguments build byte-identical twins."""
    rng = random.Random(seed * 7919 + len(topology))
    names = [f"N{i}" for i in range(4)]
    if topology == "chain":
        edges = [(names[i], names[i + 1]) for i in range(len(names) - 1)]
    else:  # cycle
        edges = [(names[i], names[(i + 1) % len(names)]) for i in range(4)]
    net = CoDBNetwork(
        seed=seed,
        with_superpeer=False,
        config=config or NodeConfig(subsumption_dedup=True),
        **({} if transport is None else {"transport": transport}),
    )
    for name in names:
        facts = {"item": [(rng.randrange(40),) for _ in range(items)]}
        net.add_node(name, ITEM_SCHEMA, facts=facts)
    for target, source in edges:
        net.add_rule(f"{target}:item(k) <- {source}:item(k)")
        if rng.random() < 0.5:
            net.add_rule(f"{target}:tag(k, w) <- {source}:item(k)")
    net.start()
    return net


def pick_origins(seed: int, count: int = 2) -> list[str]:
    rng = random.Random(seed * 31 + 5)
    return rng.sample([f"N{i}" for i in range(4)], count)


def assert_snapshots_equal_up_to_nulls(left: dict, right: dict) -> None:
    assert set(left) == set(right)
    for node_name, relations in left.items():
        assert set(relations) == set(right[node_name])
        for relation, rows in relations.items():
            assert rows_equal_up_to_nulls(
                rows, right[node_name][relation]
            ), f"{node_name}.{relation} diverged"


def clean_run(topology: str, seed: int, origins: list[str]) -> dict:
    net = build_workload(topology, seed)
    for origin in origins:
        net.global_update(origin)
    return net.snapshot()


class TestAbsorbableWeather:
    """Every standard scenario is differential-equal to fault-free."""

    @pytest.mark.parametrize("scenario", FAULT_SCENARIO_NAMES)
    @pytest.mark.parametrize("topology", ["chain", "cycle"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_scenario_matches_fault_free(self, scenario, topology, seed):
        origins = pick_origins(seed)
        faulty = build_workload(topology, seed)
        injector = install_fault_scenario(faulty, scenario, seed=seed)
        outcomes = [faulty.global_update(origin) for origin in origins]

        assert all(o.report.outcome == "complete" for o in outcomes), (
            f"{scenario}: absorbable weather must not report partial"
        )
        assert_snapshots_equal_up_to_nulls(
            faulty.snapshot(), clean_run(topology, seed, origins)
        )
        assert injector.verdicts > 0  # the weather actually blew

    def test_fixed_seed_acceptance_anchor(self):
        """The acceptance criterion verbatim: a fixed-seed
        dup+reorder+delay scenario is differential-equal to the
        fault-free run of the same workload."""
        origins = pick_origins(3)
        faulty = build_workload("cycle", 3)
        injector = install_fault_scenario(
            faulty, "dup+reorder+delay", seed=1234
        )
        for origin in origins:
            faulty.global_update(origin)
        assert_snapshots_equal_up_to_nulls(
            faulty.snapshot(), clean_run("cycle", 3, origins)
        )
        totals = injector.totals()
        assert totals["duplication"]["duplicated"] > 0
        assert totals["reorder"]["delayed"] > 0
        assert totals["delay"]["delayed"] > 0
        # Endpoint dedup is what absorbed the duplicates.
        assert any(
            node.endpoint.duplicates_dropped > 0
            for node in faulty.nodes.values()
        )


class TestLossExhaustion:
    """Drop → retried-or-partial, never a hang and never silence."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_exhausted_losses_terminate_and_report(self, seed):
        net = build_workload("chain", seed)
        injector = FaultInjector(
            MessageLoss(0.4, retries=0, kinds={"query_result"}),
            seed=seed,
        )
        net.transport.install_faults(injector)
        outcome = net.global_update("N0")  # terminates — no hang
        assert injector.totals()["loss"]["bounced"]
        if any(node.stats.peers_written_off for node in net.nodes.values()):
            assert outcome.report.outcome == "partial"
            assert outcome.report.unreachable_peers, (
                "lost flow must be named, not silently truncated"
            )
        else:  # every bounce was sent again until it arrived
            assert outcome.report.outcome == "complete"
            assert_snapshots_equal_up_to_nulls(
                net.snapshot(), clean_run("chain", seed, ["N0"])
            )

    def test_loss_rollback_reships_after_recovery(self):
        """A session whose shipment bounced must forget what it taught
        the lifetime sent-memory: once the weather clears, the next
        update re-ships those rows (under-resending would lose data
        forever; the importer's ``fired`` set makes re-sending safe)."""
        net = CoDBNetwork(seed=11, with_superpeer=False)
        net.add_node("A", "item(k: int)")
        net.add_node("B", "item(k: int)", facts={"item": [(1,), (2,)]})
        net.add_rule("A:item(k) <- B:item(k)")
        net.start()
        loss = MessageLoss(1.0, retries=0, kinds={"query_result"})
        net.transport.install_faults(FaultInjector(loss, seed=0))
        first = net.global_update("A")
        assert first.report.outcome == "partial"
        assert net.node("A").rows("item") == []
        loss.probability = 0.0  # weather clears
        second = net.global_update("A")
        assert second.report.outcome == "complete"
        assert sorted(net.node("A").rows("item")) == [(1,), (2,)]


class TestPartitionReporting:
    """The silent-partition bugfix, end to end."""

    def partitioned_chain(self, *, seed=21):
        net = build_workload("chain", seed)
        cut = Partition([("N0", "N1"), ("N2", "N3")])
        net.transport.install_faults(FaultInjector(cut, seed=seed))
        return net, cut

    def test_partition_reports_partial_naming_severed_component(self):
        net, cut = self.partitioned_chain()
        cut.sever()
        net.run()  # peer_down notices settle
        outcome = net.global_update("N0")
        assert outcome.report.outcome == "partial"
        # Exactly the severed component — not the origin side's peers
        # as seen from the far side, not a superset.
        assert outcome.report.unreachable_peers == ["N2", "N3"]
        assert "partial" in outcome.report.format()

    def test_mid_update_sever_still_names_the_component(self):
        net, cut = self.partitioned_chain(seed=22)
        injector = net.transport.faults
        # Sever the instant the flood crosses into the far component.
        injector.at_delivery(
            cut.sever, kind="update_request", recipient="N2"
        )
        outcome = net.global_update("N0")
        assert outcome.report.outcome == "partial"
        assert outcome.report.unreachable_peers == ["N2", "N3"]

    def test_healed_partition_pins_back_to_complete(self):
        """Regression: after the cut heals, the NEXT update is
        ``complete`` and the severed side's data arrives — including
        rows a mid-cut session had already taught to the lifetime
        sent-memory (the failure rollback re-ships them)."""
        net, cut = self.partitioned_chain(seed=23)
        cut.sever()
        net.run()
        partial = net.global_update("N3")
        assert partial.report.outcome == "partial"
        assert partial.report.unreachable_peers == ["N0", "N1"]
        cut.heal()
        healed = net.global_update("N3")
        assert healed.report.outcome == "complete"
        assert healed.report.unreachable_peers == []
        # Differential: the healed network converged to the clean run.
        assert_snapshots_equal_up_to_nulls(
            net.snapshot(), clean_run("chain", 23, ["N3"])
        )

    def test_lifetime_totals_surface_partial_updates(self):
        net, cut = self.partitioned_chain(seed=24)
        cut.sever()
        net.run()
        net.global_update("N0")
        totals = net.lifetime_totals()
        # N1 watched its link to N2 die: its lifetime totals must say
        # so (one partial update, naming the peer).
        assert totals["N1"]["partial_updates"] == 1
        assert totals["N1"]["unreachable_peers"] == ["N2"]
        cut.heal()
        net.global_update("N0")
        totals = net.lifetime_totals()
        assert totals["N1"]["partial_updates"] == 1  # healed run was clean


class TestCrashUnderWeather:
    """Crash-of-origin and crash-at-cut-vertex under every scenario."""

    @pytest.mark.parametrize("scenario", FAULT_SCENARIO_NAMES)
    def test_cut_vertex_crash_terminates(self, scenario):
        net = build_workload("chain", 31)
        injector = install_fault_scenario(net, scenario, seed=31)
        # N1 is a cut vertex of the chain: killing it severs N2, N3
        # from the origin.  Crash at an exact protocol moment.
        injector.at_delivery(
            lambda: net.node("N1").detach(),
            kind="update_request",
            recipient="N1",
        )
        handle = net.submit_global_update("N0")
        net.run()
        outcome = handle.result()
        assert outcome.report.outcome == "partial"
        assert outcome.report.unreachable_peers == ["N1", "N2", "N3"]

    @pytest.mark.parametrize("scenario", FAULT_SCENARIO_NAMES)
    def test_origin_crash_terminates_everywhere_else(self, scenario):
        net = build_workload("chain", 32)
        injector = install_fault_scenario(net, scenario, seed=32)
        # The origin dies right after its flood reached a neighbour.
        injector.at_delivery(
            lambda: net.node("N1").detach(),
            kind="update_request",
            sender="N1",
        )
        update_id = net.node("N1").submit_update_id()
        net.run()
        for name in ("N0", "N2", "N3"):
            node = net.node(name)
            assert not node.updates.active_ids(), (
                f"{name} still holds a live session for the dead origin"
            )
            report = node.stats.report_for(update_id)
            assert report is None or report.status == "closed"


class TestCacheDifferential:
    """Cached ≡ uncached, whatever the weather.

    The answer cache's acceptance bar: a reader must never be able to
    tell whether its answer came from the cache or a recompute — not
    during update storms, not across a sever-and-heal, not after the
    data's origin crashed.  Every test runs the identical seeded
    workload twice (``answer_cache`` on vs off) and compares every
    single read plus the final snapshots up to a renaming of nulls.
    """

    def storm_with_reads(self, topology, seed, *, cache, scenario=None):
        """An update storm interleaved with repeated network reads;
        returns ``(net, answers in read order)``."""
        config = NodeConfig(subsumption_dedup=True, answer_cache=cache)
        net = build_workload(topology, seed, config=config)
        if scenario is not None:
            install_fault_scenario(net, scenario, seed=seed)
        rng = random.Random(seed * 101 + 7)
        reader = f"N{rng.randrange(4)}"
        mix = read_heavy_mix(reads=5, distinct=2, upper=40, seed=seed)
        answers = []
        for origin in pick_origins(seed):
            for query in mix:
                answers.append(sorted(net.query(reader, query, mode="network")))
            net.global_update(origin)
        for query in mix:
            answers.append(sorted(net.query(reader, query, mode="network")))
        return net, answers

    @pytest.mark.parametrize("scenario", (None,) + FAULT_SCENARIO_NAMES)
    def test_storm_reads_match_uncached(self, scenario):
        seed = 0 if scenario is None else len(scenario)
        cached_net, cached = self.storm_with_reads(
            "chain", seed, cache=True, scenario=scenario
        )
        plain_net, plain = self.storm_with_reads(
            "chain", seed, cache=False, scenario=scenario
        )
        assert len(cached) == len(plain)
        for position, (left, right) in enumerate(zip(cached, plain)):
            assert rows_equal_up_to_nulls(left, right), (
                f"read {position} diverged with the cache on"
            )
        assert_snapshots_equal_up_to_nulls(
            cached_net.snapshot(), plain_net.snapshot()
        )
        # The runs must differ in mechanism, not in answers: the cached
        # twin actually served hits, the ablation never did.
        assert sum(n.cache.hits for n in cached_net.nodes.values()) > 0
        assert all(n.cache.hits == 0 for n in plain_net.nodes.values())

    def test_sever_and_heal_never_serves_stale(self):
        """A write on the far side of a cut must be visible to the
        first read after the heal — the heal's conservative flood
        (``bump_all`` on reachability change) is what guarantees it."""
        query = "q(k) <- item(k)"
        traces = {}
        for cache in (True, False):
            config = NodeConfig(subsumption_dedup=True, answer_cache=cache)
            net = build_workload("chain", 41, config=config)
            cut = Partition([("N0", "N1"), ("N2", "N3")])
            net.transport.install_faults(FaultInjector(cut, seed=41))
            net.global_update("N0")
            trace = [sorted(net.query("N0", query, mode="network"))]
            trace.append(sorted(net.query("N0", query, mode="network")))
            cut.sever()
            net.run()  # peer_down notices settle
            net.node("N3").insert("item", (999,))
            assert net.global_update("N3").report.outcome == "partial"
            trace.append(sorted(net.query("N0", query, mode="network")))
            cut.heal()
            assert net.global_update("N3").report.outcome == "complete"
            trace.append(sorted(net.query("N0", query, mode="network")))
            traces[cache] = trace
        assert traces[True] == traces[False]
        assert (999,) not in traces[True][2]  # severed: write not visible
        assert (999,) in traces[True][3]  # healed: write must be visible

    def test_origin_crash_between_reads(self):
        """The far end of the chain (whose rows seeded the cached
        answer) crashes between reads: reads keep serving, cached ≡
        uncached, and nothing hangs on the dead peer."""
        query = "q(k) <- item(k)"
        traces = {}
        for cache in (True, False):
            config = NodeConfig(subsumption_dedup=True, answer_cache=cache)
            net = build_workload("chain", 52, config=config)
            net.global_update("N0")
            trace = [sorted(net.query("N0", query, mode="network"))]
            trace.append(sorted(net.query("N0", query, mode="network")))
            net.node("N3").detach()
            net.run()  # peer_down notices settle
            trace.append(sorted(net.query("N0", query, mode="network")))
            trace.append(sorted(net.query("N0", query, mode="network")))
            traces[cache] = trace
        for left, right in zip(traces[True], traces[False]):
            assert rows_equal_up_to_nulls(left, right)


class TestCrashAndRejoin:
    """The rejoin handshake: a departed node re-enters the network and
    the next update round reconverges to the fault-free state."""

    def test_rejoin_differential(self):
        """leave → rejoin → update storm ≡ the run that never crashed."""
        origins = pick_origins(5)
        net = build_workload("chain", 5)
        for origin in origins:
            net.global_update(origin)
        net.node("N2").leave_network()
        net.run()  # peer_down notices settle
        net.rejoin_node("N2")
        net.run()  # rejoin handshake settles
        outcomes = [net.global_update(origin) for origin in origins]
        assert all(o.report.outcome == "complete" for o in outcomes)
        assert_snapshots_equal_up_to_nulls(
            net.snapshot(), clean_run("chain", 5, origins + origins)
        )

    def test_warm_rejoin_keeps_pushed_memory(self):
        """When both sides' lifetime memories agree (digest match), the
        rejoin is warm: no ``pushed`` set is cleared, so the next round
        re-ships nothing that already arrived."""
        net = build_workload("chain", 7)
        net.global_update("N0")
        kept = {
            rule_id: set(link.pushed)
            for name in net.nodes
            for rule_id, link in net.node(name).links.incoming.items()
            if link.remote == "N2" or net.node(name).name == "N2"
        }
        assert any(kept.values()), "workload shipped nothing toward N2"
        net.node("N2").leave_network()
        net.run()
        net.rejoin_node("N2")
        net.run()
        for name in net.nodes:
            for rule_id, link in net.node(name).links.incoming.items():
                if rule_id in kept:
                    assert set(link.pushed) == kept[rule_id], (
                        f"warm rejoin cleared pushed memory of {rule_id}"
                    )

    def test_mismatched_memory_clears_pushed_and_reships(self):
        """A rejoiner whose restored ``fired`` memory diverged (here:
        wiped, the cold-restart case) makes every counterpart clear its
        ``pushed`` set — conservative over-shipping, absorbed by the
        importer-side dedup."""
        net = build_workload("chain", 9)
        net.global_update("N0")
        net.node("N2").leave_network()
        net.run()
        rejoiner = net.node("N2")
        for link in rejoiner.links.outgoing.values():
            link.fired.clear()  # simulate losing the snapshot
        net.rejoin_node("N2")
        net.run()
        for link in net.node("N1").links.incoming.values():
            if link.remote == "N2":
                assert not link.pushed, "digest mismatch must clear pushed"
        outcome = net.global_update("N0")
        assert outcome.report.outcome == "complete"
        assert_snapshots_equal_up_to_nulls(
            net.snapshot(), clean_run("chain", 9, ["N0", "N0"])
        )

    def test_rejoin_during_live_update_session(self):
        """The rejoin handshake lands while another update session is
        still in flight: the session terminates, and the next round is
        differential-equal to fault-free (event-count timing — the
        crash fires two update_request deliveries in, the rejoin four
        deliveries later)."""
        origins = pick_origins(13)
        net = build_workload("cycle", 13)
        injector = FaultInjector(seed=13)
        net.transport.install_faults(injector)
        injector.at_delivery(
            lambda: net.node("N2").leave_network(), kind="update_request", count=2
        )
        injector.at_delivery(lambda: net.rejoin_node("N2"), count=6)
        for origin in origins:
            net.global_update(origin)  # terminates — no hang
        net.run()
        outcomes = [net.global_update(origin) for origin in origins]
        assert all(o.report.outcome == "complete" for o in outcomes)
        assert_snapshots_equal_up_to_nulls(
            net.snapshot(), clean_run("cycle", 13, origins + origins)
        )


class TestVerdictTracesAcrossTransports:
    """Acceptance anchor: the same FaultModel composition, rebuilt from
    its serialised spec, produces identical verdict traces on the
    in-process and TCP transports (per-edge deterministic draw
    streams; sorted comparison because TCP delivery threads interleave
    the *observation* order, not the verdicts)."""

    def composition_spec(self, seed: int) -> dict:
        from repro.p2p.faults import (
            Duplication,
            ExtraDelay,
            GilbertElliott,
            LognormalDelay,
            MessageLoss,
        )

        return FaultInjector(
            MessageLoss(0.15, retries=2),
            Duplication(0.2),
            ExtraDelay(0.001),
            LognormalDelay(median=0.001, sigma=0.5, cap=0.005),
            GilbertElliott(
                p_bad=0.1, p_recover=0.5, loss_bad=0.3, retries=3,
                retry_delay=0.001,
            ),
            seed=seed,
        ).spec()

    def run_trace(self, seed: int, transport=None) -> list:
        import json

        from repro.p2p.faults import injector_from_spec

        net = build_workload("chain", seed, transport=transport)
        spec = json.loads(json.dumps(self.composition_spec(seed)))
        injector = injector_from_spec(spec)
        net.transport.install_faults(injector)
        injector.start_trace()
        net.global_update("N0")
        net.global_update("N2")
        trace = sorted(injector.trace)
        if transport is not None:
            net.transport.stop()
        return trace

    @pytest.mark.parametrize("seed", [0, 1])
    def test_traces_identical_in_process_vs_tcp(self, seed):
        from repro import TcpNetwork

        in_process = self.run_trace(seed)
        tcp = self.run_trace(seed, TcpNetwork())
        assert in_process, "composition produced no verdicts"
        assert in_process == tcp

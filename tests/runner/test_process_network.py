"""The process-per-node runner: differential + failure tests.

The acceptance anchor for :class:`repro.p2p.procs.ProcessNetwork`:

* randomized multi-origin update storms over one-process-per-node
  deployments leave every node's database equal — up to a renaming of
  marked nulls — to the deterministic simulator run *and* the
  threaded-TCP run of the same workload;
* mixed query+update handle streams complete through ``as_completed``
  in driver-observed completion order;
* a worker crash mid-update surfaces as ``peer_down`` at the
  survivors and every driver handle still completes (no hang);
* ``stop()`` leaves no orphan worker processes.

Workloads mirror ``tests/core/test_concurrent_updates.py`` so the
differential claim spans all three deployments of the same stack.
"""

import random

import pytest

from repro import (
    CoDBNetwork,
    NodeConfig,
    ProcessNetwork,
    TcpNetwork,
    as_completed,
)
from repro.errors import ProtocolError
from repro.relational.containment import rows_equal_up_to_nulls

ITEM_SCHEMA = "item(k: int)\ntag(k: int, w)"


def topology_edges(topology: str) -> tuple[list[str], list[tuple[str, str]]]:
    if topology == "chain":
        names = [f"N{i}" for i in range(4)]
        edges = [(names[i], names[i + 1]) for i in range(len(names) - 1)]
    elif topology == "cycle":
        names = [f"N{i}" for i in range(4)]
        edges = [
            (names[i], names[(i + 1) % len(names)]) for i in range(len(names))
        ]
    else:  # pragma: no cover - test parametrisation bug
        raise ValueError(topology)
    return names, edges


def build_network(topology: str, seed: int, make_net, *, items=10):
    """Build the (topology, seed)-derived workload on any deployment.

    ``make_net`` is one of the three backend factories; the facts and
    rules are deterministic in (topology, seed), so all deployments
    build byte-identical twins.
    """
    rng = random.Random(seed * 7919 + len(topology))
    names, edges = topology_edges(topology)
    net = make_net()
    for name in names:
        facts = {"item": [(rng.randrange(40),) for _ in range(items)]}
        net.add_node(name, ITEM_SCHEMA, facts=facts)
    for target, source in edges:
        net.add_rule(f"{target}:item(k) <- {source}:item(k)")
        if rng.random() < 0.5:
            net.add_rule(f"{target}:tag(k, w) <- {source}:item(k)")
    net.start()
    return net


def make_process_net(seed: int, **kwargs):
    return ProcessNetwork(
        seed=seed, config=NodeConfig(subsumption_dedup=True), **kwargs
    )


def make_simulator_net(seed: int):
    return CoDBNetwork(
        seed=seed,
        with_superpeer=False,
        config=NodeConfig(subsumption_dedup=True),
    )


def make_tcp_net(seed: int):
    return CoDBNetwork(
        seed=seed,
        transport=TcpNetwork(),
        with_superpeer=False,
        config=NodeConfig(subsumption_dedup=True),
    )


def submit_storm(net, origins: list[str]) -> list:
    """One update per origin, submitted back to back without waiting."""
    return [net.submit_global_update(origin) for origin in origins]


def run_storm(net, origins: list[str]) -> list:
    """Submit the storm and await every outcome, in origin order."""
    return [
        handle.result(net.poll_timeout) for handle in submit_storm(net, origins)
    ]


def pick_origins(topology: str, seed: int, count: int = 3) -> list[str]:
    names, _ = topology_edges(topology)
    rng = random.Random(seed * 31 + 5)
    return rng.sample(names, count)


def assert_snapshots_equal_up_to_nulls(left: dict, right: dict) -> None:
    assert set(left) == set(right)
    for node_name, relations in left.items():
        assert set(relations) == set(right[node_name])
        for relation, rows in relations.items():
            assert rows_equal_up_to_nulls(
                rows, right[node_name][relation]
            ), f"{node_name}.{relation} diverged"


class TestDifferentialAgainstOtherDeployments:
    @pytest.mark.parametrize("topology", ["chain", "cycle"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_concurrent_storm_matches_simulator_and_tcp(self, topology, seed):
        origins = pick_origins(topology, seed)

        proc_net = build_network(
            topology, seed, lambda: make_process_net(seed)
        )
        try:
            outcomes = run_storm(proc_net, origins)
            proc_state = proc_net.snapshot()
        finally:
            proc_net.stop()
        assert [o.origin for o in outcomes] == origins
        assert all(o.report.node_reports for o in outcomes)

        sim_net = build_network(topology, seed, lambda: make_simulator_net(seed))
        for origin in origins:
            sim_net.global_update(origin)
        sim_state = sim_net.snapshot()

        tcp_net = build_network(topology, seed, lambda: make_tcp_net(seed))
        try:
            run_storm(tcp_net, origins)
            tcp_state = tcp_net.snapshot()
        finally:
            tcp_net.stop()

        assert_snapshots_equal_up_to_nulls(proc_state, sim_state)
        assert_snapshots_equal_up_to_nulls(proc_state, tcp_state)

    def test_sqlite_workers_match_memory_workers(self):
        seed, topology = 2, "chain"
        origins = pick_origins(topology, seed, count=2)

        sqlite_net = build_network(
            topology, seed, lambda: make_process_net(seed, store="sqlite")
        )
        try:
            run_storm(sqlite_net, origins)
            sqlite_state = sqlite_net.snapshot()
        finally:
            sqlite_net.stop()

        sim_net = build_network(topology, seed, lambda: make_simulator_net(seed))
        for origin in origins:
            sim_net.global_update(origin)
        assert_snapshots_equal_up_to_nulls(sqlite_state, sim_net.snapshot())

    def test_binary_wire_codec_matches_simulator(self):
        # End-to-end over the driver pipes *and* the worker TCP mesh
        # with the negotiated binary frames instead of JSON.
        seed, topology = 4, "cycle"
        origins = pick_origins(topology, seed, count=2)

        binary_net = build_network(
            topology, seed, lambda: make_process_net(seed, wire_codec="binary")
        )
        try:
            run_storm(binary_net, origins)
            binary_state = binary_net.snapshot()
        finally:
            binary_net.stop()

        sim_net = build_network(topology, seed, lambda: make_simulator_net(seed))
        for origin in origins:
            sim_net.global_update(origin)
        assert_snapshots_equal_up_to_nulls(binary_state, sim_net.snapshot())


class TestMixedHandleStreams:
    def test_as_completed_streams_queries_and_updates(self):
        seed, topology = 3, "chain"
        net = build_network(topology, seed, lambda: make_process_net(seed))
        try:
            update_handles = submit_storm(net, ["N0", "N1", "N2"])
            query_handles = [
                net.submit_query("N3", "q(k) <- item(k)"),
                net.submit_query("N0", "q(k) <- item(k)"),
            ]
            handles = update_handles + query_handles
            seen = []
            for handle in as_completed(handles, timeout=60):
                seen.append(handle)
                handle.result()
            assert {h.request_id for h in seen} == {
                h.request_id for h in handles
            }
            # Driver-observed completion order: as_completed must yield
            # by strictly increasing completion index.
            indices = [h.completion_index for h in seen]
            assert indices == sorted(indices)
            assert all(index > 0 for index in indices)
            # Query answers contain data (every node holds items).
            for handle in query_handles:
                assert handle.result(), "network query returned no rows"
        finally:
            net.stop()

    def test_local_and_network_query_modes(self):
        seed = 4
        net = build_network("chain", seed, lambda: make_process_net(seed))
        try:
            net.global_update("N0")
            local = net.query("N0", "q(k) <- item(k)")
            network = sorted(
                net.query("N3", "q(k) <- item(k)", mode="network")
            )
            assert local, "local query returned no rows"
            assert network, "network query returned no rows"
            # The cache= knob crosses the worker protocol: a repeat is
            # a hit, an uncached repeat still matches it exactly.
            repeat = sorted(
                net.query("N3", "q(k) <- item(k)", mode="network")
            )
            uncached = sorted(
                net.query("N3", "q(k) <- item(k)", mode="network", cache=False)
            )
            assert repeat == network == uncached
            totals = net.lifetime_totals()["N3"]
            assert totals["cache_hits"] >= 1
        finally:
            net.stop()

    def test_admission_cap_pipelines_the_storm(self):
        seed, topology = 5, "chain"
        capped = build_network(
            topology,
            seed,
            lambda: ProcessNetwork(
                seed=seed,
                config=NodeConfig(
                    subsumption_dedup=True, max_active_sessions=2
                ),
            ),
        )
        try:
            run_storm(capped, ["N0", "N1", "N2"])
            capped_state = capped.snapshot()
            totals = capped.lifetime_totals()
        finally:
            capped.stop()
        assert all(
            t["live_sessions_peak"] <= 2 for t in totals.values()
        ), totals

        sim_net = build_network(topology, seed, lambda: make_simulator_net(seed))
        for origin in ["N0", "N1", "N2"]:
            sim_net.global_update(origin)
        assert_snapshots_equal_up_to_nulls(capped_state, sim_net.snapshot())


class TestWorkerFailure:
    def test_crash_mid_update_completes_all_handles(self):
        seed = 6
        # Larger per-node volumes keep the storm in flight long enough
        # for the kill to land mid-update on any machine.
        net = build_network(
            "chain", seed, lambda: make_process_net(seed), items=120
        )
        try:
            handles = submit_storm(net, ["N0", "N2", "N0"])
            net.crash_worker("N1")
            outcomes = [handle.result(60) for handle in handles]
            assert len(outcomes) == 3
            assert "N1" not in net.alive_workers()
            # The dead worker is a peer no update could have covered in
            # full: every outcome must say "partial" and name it — a
            # crash over real processes must never be silently
            # truncated into a clean report.
            for outcome in outcomes:
                assert outcome.report.outcome == "partial"
                assert "N1" in outcome.report.unreachable_peers
            # Survivors must have observed the failure through the
            # normal protocol (links closed, sessions finalized) —
            # their stats still answer over the control channel.
            totals = net.lifetime_totals()
            assert set(totals) == {"N0", "N2", "N3"}
            with pytest.raises(ProtocolError):
                net.submit_global_update("N1")
        finally:
            net.stop()
        assert all(not p.is_alive() for p in net.worker_processes())

    def test_crash_of_update_origin_completes_its_handle(self):
        seed = 7
        net = build_network(
            "chain", seed, lambda: make_process_net(seed), items=120
        )
        try:
            handles = submit_storm(net, ["N1", "N3"])
            net.crash_worker("N1")
            for handle in handles:
                outcome = handle.result(60)  # completes; no hang
                assert outcome.report.outcome == "partial"
                assert "N1" in outcome.report.unreachable_peers
        finally:
            net.stop()


class TestShutdown:
    def test_stop_leaves_no_orphans_and_is_idempotent(self):
        seed = 8
        net = build_network("chain", seed, lambda: make_process_net(seed))
        net.global_update("N0")
        net.stop()
        assert all(not p.is_alive() for p in net.worker_processes())
        net.stop()  # idempotent

    def test_context_manager_stops_workers(self):
        seed = 9
        with build_network(
            "chain", seed, lambda: make_process_net(seed)
        ) as net:
            net.global_update("N2")
        assert all(not p.is_alive() for p in net.worker_processes())


def wait_for_restart(net, name, timeout=30.0):
    """Block until the supervisor has revived *name* (event-driven on
    the worker side; polled here because the restart thread is the
    driver's own background machinery)."""
    import time

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if net._workers[name].alive and any(
            outage["worker"] == name for outage in net.outages
        ):
            return
        time.sleep(0.05)
    raise AssertionError(f"worker {name!r} was not restarted in time")


class TestSupervisedRestart:
    """Crash-and-rejoin over real processes: durable snapshots,
    supervised restart, and reconvergence to the fault-free state."""

    def test_sigkill_then_restart_reconverges(self):
        seed = 11
        origins = pick_origins("chain", seed)

        reference = build_network(
            "chain", seed, lambda: make_simulator_net(seed)
        )
        for _ in range(2):
            for origin in origins:
                reference.global_update(origin)

        net = build_network(
            "chain",
            seed,
            lambda: make_process_net(
                seed, restart_limit=2, checkpoint_interval=1
            ),
        )
        try:
            run_storm(net, origins)
            net.crash_worker("N2")
            wait_for_restart(net, "N2")
            assert net.outages[0]["attempt"] == 1
            run_storm(net, origins)
            snapshot = net.snapshot()
            assert set(snapshot) == {"N0", "N1", "N2", "N3"}
            assert_snapshots_equal_up_to_nulls(
                snapshot, reference.snapshot()
            )
            assert net.worker_errors == []
        finally:
            net.stop()
        assert all(not p.is_alive() for p in net.worker_processes())

    def test_scheduled_crash_mid_storm_partial_then_reconverges(self):
        """The acceptance scenario: a ScheduledCrash SIGKILLs its
        victim mid-storm (the victim's own injector copy fires it),
        in-flight handles settle ``partial`` naming the outage, the
        supervisor restores the worker from its snapshot, and the next
        storm is differential-equal to the run that never crashed."""
        from repro.p2p.faults import FaultInjector, ScheduledCrash

        seed = 0
        victim = "N1"
        # The victim is itself an origin.  Submit to it first, and gate
        # its crash on an event count (no wall clock) that needs every
        # submit to have happened: whatever the interleaving, an
        # update's flood delivers a fixed number of update_requests to
        # N1 — one from each chain neighbour (N0 imports from N1, so it
        # always echoes), but only N0's echo for N1's own update.
        # 1 + 2 + 2: the fifth arrives once all three updates run, so
        # the SIGKILL can no longer beat a submit to its own victim
        # (it used to, about one run in four), and it still lands
        # mid-storm, while the last-started flood passes through N1.
        origins = sorted(
            pick_origins("chain", seed), key=lambda name: name != victim
        )
        assert origins[0] == victim and len(origins) == 3

        reference = build_network(
            "chain", seed, lambda: make_simulator_net(seed)
        )
        for _ in range(2):
            for origin in origins:
                reference.global_update(origin)

        net = build_network(
            "chain",
            seed,
            lambda: make_process_net(
                seed, restart_limit=2, checkpoint_interval=1
            ),
        )
        try:
            net.install_faults(
                FaultInjector(
                    ScheduledCrash(victim, after=5, kind="update_request"),
                    seed=seed,
                )
            )
            handles = submit_storm(net, origins)
            # Collected at once: the SIGKILL may land while an outcome
            # is probing the workers for their reports.
            outcomes = [handle.result(net.poll_timeout) for handle in handles]
            assert any(
                outcome.report.outcome == "partial" for outcome in outcomes
            ), "the outage window must surface as partial"
            assert any(
                victim in outcome.report.unreachable_peers
                for outcome in outcomes
            )
            # Fault models are NOT re-installed on the rejoiner (a
            # fresh ScheduledCrash copy would kill it again), so the
            # next storm, once the victim is back, runs clean and
            # reconverges.
            wait_for_restart(net, victim)
            outcomes = run_storm(net, origins)
            for outcome in outcomes:
                assert outcome.report.outcome == "complete"
            assert_snapshots_equal_up_to_nulls(
                net.snapshot(), reference.snapshot()
            )
        finally:
            net.stop()
        assert all(not p.is_alive() for p in net.worker_processes())

    def test_worker_dying_during_the_report_probe_is_named(self):
        """A settled update's outcome is assembled by probing every
        worker for its report.  A worker SIGKILLed right after it was
        sent ``report`` cannot answer: the outcome names it as
        ``partial``, it does not raise ``ProtocolError(WorkerDied)``."""
        import time

        seed, victim = 12, "N2"
        net = build_network("chain", seed, lambda: make_process_net(seed))
        try:
            handle = net.submit_global_update("N0")
            net.transport.wait_for(
                handle.done, net.poll_timeout, description="update N0"
            )
            proxy = net._workers[victim]
            send = proxy.send_frame

            def send_then_kill(frame):
                send(frame)
                if frame["op"] == "report":
                    proxy.process.kill()
                    # Until the pump has seen the EOF, so whether the
                    # victim answered first or not, it is dead by the
                    # time the outcome is assembled.
                    deadline = time.monotonic() + net.poll_timeout
                    while proxy.alive and time.monotonic() < deadline:
                        time.sleep(0.01)

            proxy.send_frame = send_then_kill
            outcome = handle.result(net.poll_timeout)
            assert outcome.report.outcome == "partial"
            assert victim in outcome.report.unreachable_peers
            assert victim not in net.alive_workers()
        finally:
            net.stop()
        assert all(not p.is_alive() for p in net.worker_processes())

    def test_warm_rejoin_reships_less_than_a_cold_restart(self):
        """``N0 <- N1 <- N2 <- N3``, six rows each; N2 is SIGKILLed
        after a full update and restarted by the supervisor.  *Warm*
        (snapshot intact): the memory digests match, N2 comes back in
        full and the next update re-ships next to nothing.  *Cold*
        (snapshot deleted before the kill): N2 comes back empty, its
        own base facts — which only ever flowed upstream — are gone,
        and N3's rows are shipped to it again.  Either way the origin
        keeps everything the first update materialised."""
        import os
        import time

        from repro.runner.snapshot import read_snapshot

        length, tuples, victim = 4, 6, "N2"

        def cycle(cold):
            net = ProcessNetwork(
                seed=140, restart_limit=2, checkpoint_interval=1
            )
            for i in range(length):
                net.add_node(
                    f"N{i}", "item(k: int)",
                    facts={"item": [(i * 100 + j,) for j in range(tuples)]},
                )
            for i in range(length - 1):
                net.add_rule(f"N{i}:item(k) <- N{i + 1}:item(k)")
            net.start()
            try:
                assert net.global_update("N0").report.outcome == "complete"
                if cold:
                    # The victim checkpoints once more when its session
                    # completes — its last write; lose that one.
                    path = net._snapshot_path(victim)
                    deadline = time.monotonic() + 30
                    while len(read_snapshot(path)["facts"]["item"]) < 2 * tuples:
                        assert time.monotonic() < deadline
                        time.sleep(0.02)
                    os.remove(path)
                net.crash_worker(victim)
                wait_for_restart(net, victim)
                second = net.global_update("N0")
                assert second.report.outcome == "complete"
                assert all(outage["downtime"] > 0 for outage in net.outages)
                state = net.snapshot()
                return (
                    second.transport_bytes,
                    len(state["N0"]["item"]),
                    len(state[victim]["item"]),
                )
            finally:
                net.stop()

        warm_bytes, warm_origin, warm_victim = cycle(cold=False)
        cold_bytes, cold_origin, cold_victim = cycle(cold=True)
        assert warm_origin == cold_origin == tuples * length
        assert warm_victim == 2 * tuples  # its own rows and N3's
        assert cold_victim == tuples  # N3's, shipped again
        assert warm_bytes < cold_bytes

    def test_restart_limit_zero_keeps_dead_dead(self):
        seed = 3
        net = build_network("chain", seed, lambda: make_process_net(seed))
        try:
            net.global_update("N0")
            net.crash_worker("N2")
            import time

            time.sleep(0.5)  # any (buggy) restart would land in here
            assert "N2" not in net.alive_workers()
            assert net.outages == []
        finally:
            net.stop()
        assert all(not p.is_alive() for p in net.worker_processes())

    def test_crash_mid_query_completes_and_raises(self):
        """A network query whose origin dies mid-flight: the handle
        completes (no hang) and ``result()`` surfaces the failure."""
        seed = 9
        net = build_network(
            "chain", seed, lambda: make_process_net(seed), items=120
        )
        try:
            handle = net.submit_query("N3", "q(k) <- item(k)")
            net.crash_worker("N3")
            with pytest.raises(ProtocolError):
                handle.result(60)
            assert handle.done()
            # Survivors keep serving queries.
            rows = net.query("N0", "q(k) <- item(k)", mode="network")
            assert rows  # chain head still answers
        finally:
            net.stop()
        assert all(not p.is_alive() for p in net.worker_processes())

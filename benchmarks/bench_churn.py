"""E14 — churn and adversarial weather during global updates (§1: the
topology "may dynamically change"; the algorithm terminates "even if
nodes and coordination rules appear or disappear during the
computation").

Three families over one chain workload:

* **Crash matrix** — the k-th node crashes the instant the update
  flood reaches it (an event-count hook on the fault injector; fault
  timing never depends on a wall-clock constant).  The update still
  terminates; data loss is exactly the dead suffix's contribution.
* **Fault-scenario matrix** — every named transport scenario
  (duplicate / reorder / delay / compound / loss-with-retries / link
  flap) over the same update.  All are absorbable weather: the run
  must report ``complete`` and deliver every row, whatever the storm
  did to the wire.  A mid-update partition is the contrast case: the
  report says ``partial`` and names exactly the severed component.
* **Repeat-update suppression** — the second update over unchanged
  data must not re-ship rows the first one already taught each link's
  lifetime sent-memory: byte traffic drops, and the ablation
  (``resend_suppression=False``) pays the re-ship cost again.
* **Crash-and-rejoin matrix** (``--rejoin``, real processes) —
  SIGKILL the mid-chain worker after a full update, let the
  supervisor restart it, and measure the crash → restart →
  reconverge cycle: supervisor downtime, total recovery wall time,
  and the second update's re-shipped bytes.  The gate is the warm
  vs cold contrast: a *warm* rejoin (snapshot intact, memory digests
  match) re-ships almost nothing and loses no rows, while a *cold*
  restart (snapshot deleted before the kill) re-ships the whole
  suffix again and loses the victim's own base facts.
"""

import os
import time

import pytest

from repro import CoDBNetwork, NodeConfig, ProcessNetwork
from repro.p2p.faults import FaultInjector, Partition
from repro.workloads import FAULT_SCENARIO_NAMES, install_fault_scenario


def sizes(smoke):
    """(chain length, tuples per node)."""
    return (4, 6) if smoke else (6, 10)


def build_chain(length, tuples, *, config=None):
    net = CoDBNetwork(seed=140, config=config)
    for i in range(length):
        net.add_node(f"N{i}", "item(k: int)")
        net.node(f"N{i}").load_facts(
            {"item": [(i * 100 + j,) for j in range(tuples)]}
        )
    for i in range(length - 1):
        net.add_rule(f"N{i}:item(k) <- N{i + 1}:item(k)")
    net.start()
    return net


def run_with_crash(victim, length, tuples):
    net = build_chain(length, tuples)
    node = net.node("N0")
    if victim is not None:
        injector = FaultInjector()
        net.transport.install_faults(injector)
        # Kill the victim the moment the flood's request lands on it —
        # engaged in the update, before it has served its suffix.
        injector.at_delivery(
            lambda: net.node(f"N{victim}").detach(),
            kind="update_request",
            recipient=f"N{victim}",
        )
    update_id = node.start_global_update()
    net.run()
    assert node.updates.is_done(update_id)
    report = node.stats.report_for(update_id)
    return net, node.wrapper.count("item"), report


@pytest.mark.parametrize("victim", [None, 3, 5])
def test_update_with_crash(benchmark, smoke, victim):
    length, tuples = sizes(smoke)
    if victim is not None and victim >= length:
        victim = length - 1

    def run():
        return run_with_crash(victim, length, tuples)

    _, origin_rows, _ = benchmark.pedantic(
        run, rounds=1 if smoke else 3, iterations=1
    )
    if victim is None:
        assert origin_rows == tuples * length


def test_churn_report(benchmark, report, smoke):
    length, tuples = sizes(smoke)

    def run():
        rows = []
        for victim in [None] + list(range(length - 1, 0, -1)):
            net, origin_rows, node_report = run_with_crash(
                victim, length, tuples
            )
            failures = sum(
                r.links_closed_by_failure
                for n in net.nodes.values()
                if (r := n.stats.reports and n.stats.latest_report())
            )
            rows.append(
                [
                    "none" if victim is None else f"N{victim}",
                    origin_rows,
                    tuples * length - origin_rows,
                    failures,
                    f"{node_report.duration:.6f}",
                ]
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report.add_table(
        ["crashed node", "origin_rows", "rows_lost", "failure_closures", "origin_wall_s"],
        rows,
        title=f"E14: mid-update crash in a chain of {length} ({tuples} tuples/node)",
    )
    # no crash: everything arrives; crashing node k loses at most the
    # suffix k..end (data already relayed before the crash may survive).
    assert rows[0][1] == tuples * length
    by_victim = {row[0]: row for row in rows}
    assert by_victim[f"N{length - 1}"][2] <= tuples * 1
    assert by_victim["N1"][1] >= tuples  # N0's own data always survives


@pytest.mark.parametrize("scenario", FAULT_SCENARIO_NAMES)
def test_fault_scenario_matrix(benchmark, report, smoke, scenario):
    """Absorbable weather: every scenario completes with every row."""
    length, tuples = sizes(smoke)

    def run():
        net = build_chain(length, tuples)
        injector = install_fault_scenario(net, scenario, seed=140)
        outcome = net.global_update("N0")
        return net, injector, outcome

    net, injector, outcome = benchmark.pedantic(
        run, rounds=1 if smoke else 3, iterations=1
    )
    assert injector.verdicts > 0  # the weather actually blew
    assert outcome.report.outcome == "complete"
    assert net.node("N0").wrapper.count("item") == tuples * length
    report.add_table(
        ["scenario", "outcome", "verdicts", "bounces", "messages", "bytes"],
        [[
            scenario,
            outcome.report.outcome,
            injector.verdicts,
            injector.bounces,
            outcome.transport_messages,
            outcome.transport_bytes,
        ]],
        title=f"E14b: fault scenario '{scenario}' over a chain of {length}",
    )


def test_partition_mid_update_reports_partial(report, smoke):
    """The contrast case: a cut that never heals is NOT absorbable —
    the report must say so and name exactly the severed component."""
    length, tuples = sizes(smoke)
    half = length // 2
    net = build_chain(length, tuples)
    near = tuple(f"N{i}" for i in range(half))
    far = tuple(f"N{i}" for i in range(half, length))
    cut = Partition([near, far])
    injector = FaultInjector(cut, seed=140)
    net.transport.install_faults(injector)
    # Sever the instant the flood crosses into the far component.
    injector.at_delivery(
        cut.sever, kind="update_request", recipient=f"N{half}"
    )
    outcome = net.global_update("N0")
    assert outcome.report.outcome == "partial"
    assert outcome.report.unreachable_peers == sorted(far)
    report.add_table(
        ["cut", "outcome", "unreachable"],
        [[
            f"{'+'.join(near)} | {'+'.join(far)}",
            outcome.report.outcome,
            " ".join(outcome.report.unreachable_peers),
        ]],
        title="E14c: mid-update partition names the severed component",
    )


def test_repeat_update_resend_suppression(benchmark, report, smoke):
    """Teach-forward memory: the second update over unchanged data must
    not pay for re-shipping rows the first one already delivered."""
    length, tuples = sizes(smoke)

    def run():
        rows = []
        for label, config in (
            ("suppression on", None),
            ("suppression off", NodeConfig(resend_suppression=False)),
        ):
            net = build_chain(length, tuples, config=config)
            first = net.global_update("N0")
            second = net.global_update("N0")
            totals = net.lifetime_totals().values()
            rows.append(
                [label, first.transport_bytes, second.transport_bytes,
                 sum(t["rows_suppressed"] for t in totals),
                 first.rows_imported,
                 sum(t["activations_incremental"] for t in totals)]
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1 if smoke else 3, iterations=1)
    report.add_table(
        ["config", "first_update_bytes", "second_update_bytes",
         "rows_suppressed", "first_rows_imported", "activations_incremental"],
        rows,
        title=f"E14d: repeat update over a chain of {length} "
              f"({tuples} tuples/node)",
    )
    on, off = rows[0], rows[1]
    # The fix under test: with the lifetime sent-memory consulted, the
    # repeat update's byte traffic drops well below the first run's —
    # and below the ablation's repeat run, which re-ships every row.
    assert on[2] < on[1], "second update must ship fewer bytes than the first"
    assert on[2] < off[2], "suppression must beat the ablation's repeat"
    # Accounting: every row the first update delivered is one the
    # repeat kept off the wire — skipped unread behind a link's
    # watermark (these are single-atom bodies, so the count is known)
    # or filtered by its ``pushed`` memory — and every link of the
    # chain served the repeat from its store tail.
    assert on[3] == on[4], "suppressed rows must equal what the first run shipped"
    assert on[5] == length - 1
    assert off[3] == 0 and off[5] == 0


# ----------------------------------------------------------------------
# E14e — crash-and-rejoin over real processes (--rejoin)
# ----------------------------------------------------------------------


def _wait_for_restart(net, name, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if name in net.alive_workers() and any(
            outage["worker"] == name for outage in net.outages
        ):
            return
        time.sleep(0.05)
    raise AssertionError(f"worker {name!r} was not restarted in time")


def run_rejoin_cycle(cold, length, tuples):
    """One crash → supervised restart → reconverge cycle.

    *cold* deletes the victim's durable snapshot before the kill, so
    the restarted worker rejoins with empty memory: the digests
    mismatch, its peers clear their ``pushed`` memory toward it, and
    the next update pays the full re-ship — the baseline a warm
    rejoin is gated against."""
    net = ProcessNetwork(seed=140, restart_limit=2, checkpoint_interval=1)
    for i in range(length):
        net.add_node(
            f"N{i}",
            "item(k: int)",
            facts={"item": [(i * 100 + j,) for j in range(tuples)]},
        )
    for i in range(length - 1):
        net.add_rule(f"N{i}:item(k) <- N{i + 1}:item(k)")
    net.start()
    try:
        first = net.global_update("N0")
        assert first.report.outcome == "complete"
        victim = f"N{length // 2}"
        if cold:
            # Let the post-update checkpoint land, then lose it.
            time.sleep(0.3)
            os.remove(net._snapshot_path(victim))
        started = time.perf_counter()
        net.crash_worker(victim)
        _wait_for_restart(net, victim)
        second = net.global_update("N0")
        recover_wall = time.perf_counter() - started
        assert second.report.outcome == "complete"
        downtime = next(
            outage["downtime"]
            for outage in net.outages
            if outage["worker"] == victim
        )
        state = net.snapshot()
        return {
            "first_bytes": first.transport_bytes,
            "reship_bytes": second.transport_bytes,
            "downtime_s": downtime,
            "recover_wall_s": recover_wall,
            # The origin keeps what the first update materialised
            # either way; the victim's own database tells warm from
            # cold: its base facts only ever flowed upstream, so a
            # cold restart loses them for good.
            "origin_rows": len(state["N0"]["item"]),
            "victim_rows": len(state[victim]["item"]),
        }
    finally:
        net.stop()


def test_rejoin_recovery_matrix(benchmark, report, smoke, rejoin):
    """Warm rejoin (durable snapshot restored) vs cold restart
    (snapshot lost): recovery wall time and re-shipped bytes."""
    if not rejoin:
        pytest.skip("crash-and-rejoin matrix is opt-in (--rejoin)")
    length, tuples = sizes(smoke)

    def run():
        return {
            "warm": run_rejoin_cycle(False, length, tuples),
            "cold": run_rejoin_cycle(True, length, tuples),
        }

    cycles = benchmark.pedantic(run, rounds=1, iterations=1)
    warm, cold = cycles["warm"], cycles["cold"]
    report.add_table(
        ["restart", "first_bytes", "reship_bytes", "downtime_s",
         "recover_wall_s", "origin_rows", "victim_rows"],
        [
            ["warm (snapshot)", warm["first_bytes"], warm["reship_bytes"],
             f"{warm['downtime_s']:.3f}", f"{warm['recover_wall_s']:.3f}",
             warm["origin_rows"], warm["victim_rows"]],
            ["cold (no snapshot)", cold["first_bytes"], cold["reship_bytes"],
             f"{cold['downtime_s']:.3f}", f"{cold['recover_wall_s']:.3f}",
             cold["origin_rows"], cold["victim_rows"]],
        ],
        title=f"E14e: crash→restart→reconverge on a process chain of "
              f"{length} ({tuples} tuples/node)",
    )
    # Warm rejoin: memory digests match, the snapshot restores the
    # victim in full, (almost) nothing is re-shipped.  Cold restart:
    # the victim comes back empty — the suffix is re-shipped and its
    # own base facts (which only ever flowed upstream) are gone.
    suffix = length - length // 2
    assert warm["origin_rows"] == cold["origin_rows"] == tuples * length
    assert warm["victim_rows"] == tuples * suffix
    assert cold["victim_rows"] == tuples * (suffix - 1)
    assert warm["reship_bytes"] < cold["reship_bytes"], (
        "a warm rejoin must re-ship less than the cold-restart baseline"
    )
    assert warm["downtime_s"] > 0 and cold["downtime_s"] > 0

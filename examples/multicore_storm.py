"""A multi-core update storm on the process-per-node runner (PR 5).

The paper's coDB nodes are independent JXTA peers, each with its own
DBMS.  ``ProcessNetwork`` deploys exactly that: one OS process per
node, each hosting its ``CoDBNode`` behind its own TCP listening
socket, so concurrent update sessions evaluate their conjunctive
queries on separate cores instead of timeslicing one GIL.  The driver
API mirrors ``CoDBNetwork`` — ``add_node`` / ``add_rule`` / ``start``,
then ``submit_global_update`` handles streamed with ``as_completed``
— and the same stable-JSON protocol messages flow worker-to-worker,
only now between real processes.

Walkthrough of what happens under the hood:

1. ``start()`` spawns one worker process per declared node; each
   worker builds its transport + node and reports its listening port
   over a control pipe.
2. The driver fans the port map out (``connect``): peers keep
   addressing each other by peer id — the rendezvous step.
3. ``submit_global_update`` asks the origin's worker to submit and
   wraps the returned id in a proxy ``RequestHandle``.  Completion is
   bridged back event-driven: workers push ``request_complete`` when
   a session finalizes at them, and the driver's pump thread stamps
   handles in observed completion order.
4. ``stop()`` shuts every worker down; stragglers are terminated — no
   orphan processes.

Run:  python examples/multicore_storm.py
"""

import os
import time

from repro import ProcessNetwork, as_completed


def build_multicore_network(chains: int = 3, tuples: int = 200):
    """K independent chains sharing a hub — one origin per chain, so K
    concurrent updates do genuinely independent CQ evaluation work."""
    net = ProcessNetwork(seed=42)
    net.add_node("HUB", "item(k: int)")
    origins = []
    for c in range(chains):
        leaf = f"L{c}"
        net.add_node(
            leaf,
            "item(k: int)",
            facts={"item": [(c * 10_000 + t,) for t in range(tuples)]},
        )
        net.add_rule(f"HUB:item(k) <- {leaf}:item(k)")
        origin = f"O{c}"
        net.add_node(origin, "item(k: int)")
        net.add_rule(f"{origin}:item(k) <- HUB:item(k)")
        origins.append(origin)
    net.start()
    return net, origins


def main() -> None:
    cores = os.cpu_count() or 1
    print(f"machine has {cores} core(s)")

    net, origins = build_multicore_network()
    try:
        print(f"spawned {len(net.node_names)} worker processes: "
              f"{', '.join(net.node_names)}\n")

        started = time.monotonic()
        handles = [net.submit_global_update(origin) for origin in origins]
        print("storm submitted; outcomes stream in completion order:")
        for handle in as_completed(handles, timeout=120):
            outcome = handle.result()
            print(
                f"  update {outcome.update_id} (origin {outcome.origin}): "
                f"rows={outcome.rows_imported} wall={outcome.wall_time:.4f}s"
            )
        wall = time.monotonic() - started
        print(f"\nstorm wall time: {wall:.4f}s over {cores} core(s)")

        rows = net.query(origins[0], "q(k) <- item(k)")
        print(f"{origins[0]} now holds {len(rows)} items "
              "(the hub merged every chain)")

        totals = net.lifetime_totals()
        peak = max(t["peak_concurrent_updates"] for t in totals.values())
        print(f"peak concurrent updates at any node: {peak}")
    finally:
        net.stop()
    alive = [p for p in net.worker_processes() if p.is_alive()]
    print(f"worker processes still alive after stop(): {len(alive)}")


if __name__ == "__main__":
    main()

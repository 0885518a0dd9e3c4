"""Query-time answering vs batch materialisation: the paper's trade-off.

§1 separates the two problems: answering a query may "requir[e] the
participation of all nodes at query time", while the batch update lets
"subsequent local queries ... be answered locally within a node,
without fetching data from other nodes at query time".

This script runs both modes on the same chain and prints the cost of
each, plus the crossover query count.

Run:  python examples/query_vs_update.py
"""

import time

from repro.workloads import chain

QUERY = "q(k, v) <- item(k, v)"


def main() -> None:
    blueprint = chain(6)

    # Mode 1: query-time answering on a fresh network, so the query
    # pays the full network cost (what it fetches then stays stored).
    net = blueprint.build(seed=5, tuples_per_node=40)
    start = time.perf_counter()
    rows_network = net.query("N0", QUERY, mode="network")
    per_query = time.perf_counter() - start
    print(f"query-time answering: {len(rows_network)} rows "
          f"in {per_query * 1e3:.2f} ms per query")

    # Mode 2: one global update, then local queries.
    net = blueprint.build(seed=5, tuples_per_node=40)
    start = time.perf_counter()
    outcome = net.global_update("N0")
    update_cost = time.perf_counter() - start
    start = time.perf_counter()
    rows_local = net.query("N0", QUERY)
    local_cost = time.perf_counter() - start
    print(f"global update:        {update_cost * 1e3:.2f} ms once "
          f"({outcome.result_messages} result messages)")
    print(f"local query after:    {len(rows_local)} rows "
          f"in {local_cost * 1e3:.2f} ms per query")

    assert sorted(rows_network) == sorted(rows_local)

    crossover = update_cost / max(per_query - local_cost, 1e-9)
    print(f"\nSame answers in both modes.")
    print(f"Materialisation pays off after ~{crossover:.1f} queries.")


if __name__ == "__main__":
    main()

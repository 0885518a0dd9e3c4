"""Cached reads: interest-aware propagation + epoch-keyed answers.

A read-heavy consumer (think of the demo UI polling the same view)
should not pay the §3 network-query propagation cost for every
repeat.  Each node keeps an LRU answer cache keyed on the query's
structure and stamped with per-relation *epoch vectors* — version
counters bumped by every write the answer could depend on.  When a
node serves from its cache, it has registered *interest* upstream, so
a remote write arrives as one compact ``invalidation`` message instead
of re-shipped rows: the next read recomputes, every read in between is
a hit, and a stale answer is never served.  And because a network
query's data *migrates* into the nodes it passes through, the miss of
a second query over the same relations needs no network at all: the
clean fill stamped them fresh, and the shop answers from what it now
holds until an epoch moves.

The walkthrough shows the two switches and every counter:

* ``NodeConfig(answer_cache=...)`` — per-node default (the LRU holds
  ``repro.core.answercache.DEFAULT_CACHE_SIZE`` entries);
* ``net.query(..., cache=False)`` — per-query opt-out, the uncached
  oracle;
* ``lifetime_totals()`` / superpeer statistics — hits, misses,
  invalidations, suppressed pushes, network-wide.

Run:  python examples/cached_reads.py
"""

from repro import CoDBNetwork


def read(net, show=True):
    answer = sorted(net.query("SHOP", "q(s) <- stocked(s)", mode="network"))
    if show:
        counters = net.node("SHOP").cache_counters()
        print(
            f"  answer {answer}   "
            f"(hits {counters['cache_hits']}, "
            f"misses {counters['cache_misses']}, "
            f"invalidations received "
            f"{counters['invalidations_received']})"
        )
    return answer


def main() -> None:
    net = CoDBNetwork(seed=15)

    # A two-hop supply chain: the shop imports the distributor's
    # catalogue, the distributor imports the maker's.
    net.add_node(
        "MAKER", "product(sku: str)", facts="product('p1'). product('p2')."
    )
    net.add_node("DIST", "catalogue(sku: str)")
    net.add_node("SHOP", "stocked(sku: str)")
    net.add_rule("DIST:catalogue(s) <- MAKER:product(s)")
    net.add_rule("SHOP:stocked(s) <- DIST:catalogue(s)")
    net.start()

    print("First read propagates the query through the network:")
    read(net)

    print("The repeat is a pure cache hit — zero messages:")
    before = net.transport.stats.messages_sent
    read(net)
    print(f"  messages on the wire: {net.transport.stats.messages_sent - before}")

    # A write two hops upstream.  SHOP registered interest at DIST
    # when it filled its cache, and DIST re-registered at MAKER — so
    # the write travels down as one compact invalidation per hop, not
    # as rows.
    print("\nMAKER inserts p3; the invalidation cascade reaches SHOP:")
    net.node("MAKER").insert("product", ("p3",))
    net.run()
    read(net)  # a miss: recomputes and sees p3

    print("A second query over the same relation misses, yet asks no one:")
    before = net.transport.stats.messages_sent
    others = sorted(
        net.query("SHOP", "q(s) <- stocked(s), s != 'p1'", mode="network")
    )
    print(
        f"  answer {others}   messages on the wire: "
        f"{net.transport.stats.messages_sent - before}   (fresh misses "
        f"{net.node('SHOP').cache_counters()['cache_fresh_served']})"
    )

    print("And the read after that is a hit again:")
    read(net)

    # The oracle: cache=False forces the full recompute — the answer
    # must be identical (the differential the test suite asserts under
    # every fault scenario).
    uncached = sorted(
        net.query("SHOP", "q(s) <- stocked(s)", mode="network", cache=False)
    )
    print(f"\nUncached recompute matches: {uncached == read(net, show=False)}")

    # Network-wide view: the superpeer aggregates every node's cache
    # counters alongside the §4 update statistics.
    collection_id = net.collect_statistics()
    totals = net.superpeer.network_cache_totals(collection_id)
    print("\nNetwork-wide cache totals (via the superpeer):")
    for key in sorted(totals):
        print(f"  {key:24s} {totals[key]}")


if __name__ == "__main__":
    main()

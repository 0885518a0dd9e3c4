"""The epoch-keyed answer cache and its interest protocol.

Unit layer: :class:`~repro.core.answercache.AnswerCache` is a dumb
LRU validated by per-relation epoch vectors.  Integration layer: the
node fills it from local and network queries, registers interest on
the links a cached answer depends on (transitively), and a remote
write arrives as a compact ``invalidation`` message instead of rows —
so the next read recomputes instead of serving stale data.
"""

import pytest

from repro import CoDBNetwork, NodeConfig
from repro.core.answercache import DEFAULT_CACHE_SIZE, AnswerCache


class TestAnswerCacheUnit:
    def test_hit_until_epoch_moves(self):
        cache = AnswerCache()
        cache.put("q", ["item"], [(1,), (2,)])
        assert cache.get("q") == [(1,), (2,)]
        assert cache.hits == 1
        cache.bump(["item"])
        assert cache.get("q") is None
        assert cache.invalidations == 1
        assert "q" not in cache  # lazily swept on lookup

    def test_unrelated_bump_keeps_entry(self):
        cache = AnswerCache()
        cache.put("q", ["item"], [(1,)])
        cache.bump(["other"])
        assert cache.get("q") == [(1,)]

    def test_vector_is_sorted_and_deduped(self):
        cache = AnswerCache()
        cache.bump(["b"])
        assert cache.vector(["b", "a", "b"]) == (("a", 0), ("b", 1))

    def test_lru_eviction_at_limit(self):
        cache = AnswerCache(limit=2)
        cache.put("q0", ["r"], [])
        cache.put("q1", ["r"], [])
        assert cache.get("q0") == []  # refresh q0: q1 is now LRU
        cache.put("q2", ["r"], [])
        assert cache.evictions == 1
        assert "q1" not in cache
        assert "q0" in cache and "q2" in cache

    def test_invalidate_sweeps_only_dependents(self):
        cache = AnswerCache()
        cache.put("q0", ["item"], [(1,)])
        cache.put("q1", ["tag"], [(2,)])
        assert cache.invalidate(["item"]) == 1
        assert "q0" not in cache and "q1" in cache

    def test_bump_all_clears_everything(self):
        cache = AnswerCache()
        cache.bump(["item"])
        cache.put("q0", ["item"], [(1,)])
        cache.put("q1", ["tag"], [(2,)])
        before = cache.epoch("item")
        cache.bump_all()
        assert len(cache) == 0
        assert cache.epoch("item") == before + 1

    def test_disabled_cache_never_serves(self):
        cache = AnswerCache(enabled=False)
        cache.put("q", ["item"], [(1,)])
        assert cache.get("q") is None
        assert len(cache) == 0

    def test_a_network_fill_stamps_its_relation_set(self):
        cache = AnswerCache()
        cache.put("local", ["item", "tag"], [])
        assert not cache.fresh(["tag", "item"])
        cache.put("net", ["tag", "item", "item"], [], network=True)
        assert cache.fresh(["item", "tag"])
        assert not cache.fresh(["item"])  # exactly the same set only
        cache.bump(["tag"])
        assert not cache.fresh(["item", "tag"])  # lazily dropped
        cache.put("net", ["item"], [], network=True)
        cache.invalidate(["other"])
        assert cache.fresh(["item"])
        cache.invalidate(["item"])
        assert not cache._fresh
        cache.put("net", ["item"], [], network=True)
        cache.bump_all()
        assert not cache.fresh(["item"])
        disabled = AnswerCache(enabled=False)
        disabled.put("net", ["item"], [], network=True)
        assert not disabled.fresh(["item"])

    def test_counters_keys(self):
        assert set(AnswerCache().counters()) == {
            "cache_hits",
            "cache_misses",
            "cache_invalidations",
            "cache_evictions",
            "cache_entries",
            "cache_fresh_served",
            "cache_fills_skipped",
        }


def build_chain(length, *, config=None, facts_at_tail=((1,), (2,))):
    """``N0 <- N1 <- ... <- N{length-1}``; only the tail holds data."""
    net = CoDBNetwork(seed=9, config=config)
    for i in range(length):
        net.add_node(f"N{i}", "item(k: int)")
    net.node(f"N{length - 1}").load_facts({"item": list(facts_at_tail)})
    for i in range(length - 1):
        net.add_rule(f"N{i}:item(k) <- N{i + 1}:item(k)")
    net.start()
    return net

QUERY = "q(x) <- item(x)"


class TestInterestProtocol:
    def test_repeat_network_query_hits(self):
        net = build_chain(2)
        first = sorted(net.query("N0", QUERY, mode="network"))
        assert first == [(1,), (2,)]
        assert sorted(net.query("N0", QUERY, mode="network")) == first
        node = net.node("N0")
        assert node.cache.hits == 1
        assert node.cache.stores == 1

    def test_remote_write_invalidates_instead_of_rows(self):
        net = build_chain(2)
        net.query("N0", QUERY, mode="network")  # fill + register interest
        net.node("N1").insert("item", (3,))
        net.run()  # the compact invalidation travels
        reader = net.node("N0")
        assert reader.invalidations_received == 1
        assert net.node("N1").invalidations_sent == 1
        # The next read recomputes and sees the write — never stale.
        assert (3,) in net.query("N0", QUERY, mode="network")

    def test_invalidation_is_transitive(self):
        """A write two hops upstream must reach the root's cache: the
        intermediate re-registers interest upstream when the root
        registers at it."""
        net = build_chain(3)
        net.query("N0", QUERY, mode="network")
        net.run()  # transitive registrations settle
        net.node("N2").insert("item", (3,))
        net.run()
        assert net.node("N0").invalidations_received >= 1
        assert (3,) in net.query("N0", QUERY, mode="network")

    def test_cache_off_knob_per_query(self):
        net = build_chain(2)
        net.query("N0", QUERY, mode="network", cache=False)
        net.query("N0", QUERY, mode="network", cache=False)
        assert net.node("N0").cache.hits == 0
        assert net.node("N0").cache.stores == 0

    def test_cache_off_config_ablation(self):
        net = build_chain(2, config=NodeConfig(answer_cache=False))
        first = sorted(net.query("N0", QUERY, mode="network"))
        second = sorted(net.query("N0", QUERY, mode="network"))
        assert first == second == [(1,), (2,)]
        assert net.node("N0").cache.hits == 0

    def test_local_query_caching(self):
        net = build_chain(2)
        node = net.node("N1")
        assert sorted(node.query(QUERY)) == [(1,), (2,)]
        assert sorted(node.query(QUERY)) == [(1,), (2,)]
        assert node.cache.hits == 1
        node.insert("item", (3,))
        assert sorted(node.query(QUERY)) == [(1,), (2,), (3,)]
        assert node.cache.hits == 1  # the insert invalidated the entry

    def test_a_node_keeps_the_default_number_of_answers(self):
        net = build_chain(2)
        node = net.node("N1")
        for bound in range(DEFAULT_CACHE_SIZE + 1):
            assert node.query(f"q(x) <- item(x), x != {bound}")
        assert len(node.cache) == DEFAULT_CACHE_SIZE
        assert node.cache.evictions == 1
        # The least recently used answer, the first, went.
        assert sorted(node.query("q(x) <- item(x), x != 0")) == [(1,), (2,)]
        assert node.cache.hits == 0

    def test_a_repair_reaches_the_cache_through_bump_epochs(self):
        """``Wrapper.delete_rows`` is a store-level repair: it does not
        advance the node's epochs; the caller does."""
        net = build_chain(2)
        node = net.node("N1")
        assert sorted(node.query(QUERY)) == [(1,), (2,)]
        with node._lock:
            assert node.wrapper.delete_rows("item", [(2,)]) == 1
        assert sorted(node.query(QUERY)) == [(1,), (2,)]  # still cached
        with node._lock:
            node.bump_epochs(["item"])
        assert node.query(QUERY) == [(1,)]
        assert node.cache.invalidations == 1

    def test_rule_change_floods_the_cache(self):
        net = build_chain(2)
        net.query("N0", QUERY, mode="network")
        assert len(net.node("N0").cache) == 1
        net.rewire("N0:item(k) <- N1:item(k)")
        assert len(net.node("N0").cache) == 0


class TestCountersSurfacing:
    def test_lifetime_totals_include_cache_counters(self):
        net = build_chain(2)
        net.query("N0", QUERY, mode="network")
        net.query("N0", QUERY, mode="network")
        totals = net.lifetime_totals()["N0"]
        assert totals["cache_hits"] == 1
        assert totals["cache_entries"] == 1
        assert "invalidations_sent" in totals

    def test_superpeer_aggregates_cache_counters(self):
        net = build_chain(2)
        net.query("N0", QUERY, mode="network")
        net.query("N0", QUERY, mode="network")
        collection_id = net.collect_statistics()
        per_node = net.superpeer.cache_counters(collection_id)
        assert set(per_node) == {"N0", "N1"}
        totals = net.superpeer.network_cache_totals(collection_id)
        assert totals["cache_hits"] == 1

    def test_cache_switch_follows_the_node_config(self):
        assert build_chain(2).node("N0").cache.enabled
        off = build_chain(2, config=NodeConfig(answer_cache=False))
        assert not off.node("N0").cache.enabled


class TestSqliteBackend:
    def test_cached_matches_uncached_on_sqlite_stores(self):
        """Deployment-mode parity: the cache sits above the wrapper, so
        SQLite-backed nodes hit and invalidate exactly like memory."""
        from repro.relational.parser import parse_schema
        from repro.relational.wrapper import SqliteStore

        net = CoDBNetwork(seed=9)
        schema = parse_schema("item(k: int)")
        for i in range(2):
            net.add_node(f"N{i}", schema, store=SqliteStore(schema))
        net.node("N1").load_facts({"item": [(1,), (2,)]})
        net.add_rule("N0:item(k) <- N1:item(k)")
        net.start()
        first = sorted(net.query("N0", QUERY, mode="network"))
        hit = sorted(net.query("N0", QUERY, mode="network"))
        fresh = sorted(net.query("N0", QUERY, mode="network", cache=False))
        assert first == hit == fresh == [(1,), (2,)]
        assert net.node("N0").cache.hits == 1
        net.node("N1").insert("item", (3,))
        net.run()
        assert (3,) in net.query("N0", QUERY, mode="network")


class TestFaultFallbacks:
    def test_peer_down_floods_the_cache(self):
        net = build_chain(2)
        net.query("N0", QUERY, mode="network")
        assert len(net.node("N0").cache) == 1
        net.node("N1").detach()
        net.run()  # peer_down notice lands
        assert len(net.node("N0").cache) == 0

    @pytest.mark.parametrize("length", [2, 3])
    def test_no_hit_ever_serves_a_missed_write(self, length):
        """Brute differential: interleave writes upstream with reads at
        the root; every read must equal the uncached recompute."""
        net = build_chain(length)
        tail = net.node(f"N{length - 1}")
        for value in range(10, 16):
            cached = sorted(net.query("N0", QUERY, mode="network"))
            fresh = sorted(net.query("N0", QUERY, mode="network", cache=False))
            assert cached == fresh
            tail.insert("item", (value,))
            net.run()
        # Never stale because the cascade ran, not by luck: each write
        # at the tail reached the root's cache as an invalidation.
        totals = net.lifetime_totals()
        assert totals["N0"]["cache_invalidations"] > 0
        assert totals[f"N{length - 1}"]["invalidations_sent"] > 0

"""Differential: delta-only serving changes cost, never content.

Hypothesis draws a small chain, tree or cycle (copy rules, some with an
existential ``tag`` twin, some feeding a two-relation join), sometimes
with one node a ``MediatorStore`` that keeps nothing past an update,
and a random sequence of local inserts, global updates and network
queries, cached or not.  The same sequence runs with the
send memory on (``MemoryStore`` and ``SqliteStore``) and with
``NodeConfig(resend_suppression=False)``, the existing ablation, as the
oracle: every answer and every store must agree up to a renaming of
marked nulls.  A final global update must then land every network on
the centralised chase of the base facts (arXiv cs/0308013's
characterisation: the fixpoint over everything reachable).
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import HealthCheck, example, given, settings

from repro import CoDBNetwork, NodeConfig
from repro.baselines import CentralizedExchange
from repro.p2p.faults import FaultInjector, Reorder
from repro.relational.containment import rows_equal_up_to_nulls
from repro.relational.parser import parse_schema
from repro.relational.wrapper import MediatorStore, SqliteStore

SCHEMA = "item(k: int)\ntag(k: int, w)\nhit(k: int)"
QUERIES = ("q(k) <- item(k)", "q(k, w) <- tag(k, w)", "q(k) <- hit(k)")

keys = st.integers(min_value=0, max_value=9)


@st.composite
def scenarios(draw, mediators=True):
    size = draw(st.integers(min_value=3, max_value=4))
    shape = draw(st.sampled_from(["chain", "tree", "cycle"]))
    if shape == "chain":
        edges = [(i, i + 1) for i in range(size - 1)]
    elif shape == "tree":
        edges = [((i - 1) // 2, i) for i in range(1, size)]
    else:
        edges = [(i, (i + 1) % size) for i in range(size)]
    # (importer, source, kind): every edge copies ``item``; "tag" adds
    # an existential twin, "join" a rule reading item and tag together.
    rules = [
        (t, s, draw(st.sampled_from(["copy", "tag", "join"]))) for t, s in edges
    ]
    facts = {
        i: draw(st.lists(keys, max_size=3, unique=True)) for i in range(size)
    }
    node = st.integers(min_value=0, max_value=size - 1)
    # One node may be a mediator: no base facts, no local inserts, and
    # no join evaluated over its buffer (its ``fired`` memory outlives
    # the buffer, so a join there misses old-with-new pairs across
    # updates with or without the send memory — not this test's topic).
    mediator = draw(st.none() | node) if mediators else None
    if mediator is not None:
        facts[mediator] = []
        rules = [
            (t, s, "tag" if s == mediator and kind == "join" else kind)
            for t, s, kind in rules
        ]
    owner = node.filter(lambda i: i != mediator)
    op = st.one_of(
        st.tuples(st.just("insert"), owner, keys),
        st.tuples(st.just("update"), node),
        st.tuples(
            st.just("query"),
            node,
            st.sampled_from(QUERIES),
            st.booleans(),  # cache
        ),
    )
    ops = draw(st.lists(op, min_size=1, max_size=8))
    return size, rules, facts, ops, mediator


def build(size, rules, facts, mediator=None, *, config, sqlite=False):
    net = CoDBNetwork(seed=3, with_superpeer=False, config=config)
    for i in range(size):
        schema = parse_schema(SCHEMA)
        store = SqliteStore(schema) if sqlite else None
        if i == mediator:
            store = MediatorStore(schema)
        net.add_node(
            f"N{i}",
            schema,
            store=store,
            facts={"item": [(k,) for k in facts[i]]},
        )
    for t, s, kind in rules:
        net.add_rule(f"N{t}:item(k) <- N{s}:item(k)")
        if kind in ("tag", "join"):
            net.add_rule(f"N{t}:tag(k, w) <- N{s}:item(k)")
        if kind == "join":
            net.add_rule(f"N{t}:hit(k) <- N{s}:item(k), N{s}:tag(k, w)")
    net.start()
    return net


def apply(net, op):
    """Run one op to quiescence; a query returns its answer."""
    if op[0] == "insert":
        net.node(f"N{op[1]}").insert("item", (op[2],))
        net.run()
    elif op[0] == "update":
        assert net.global_update(f"N{op[1]}").report.outcome == "complete"
    else:
        _, node, query, cache = op
        return net.query(f"N{node}", query, mode="network", cache=cache)
    return None


def assert_same_stores(left, right, context):
    for name, relations in left.snapshot().items():
        for relation, rows in relations.items():
            assert rows_equal_up_to_nulls(
                rows, right.snapshot()[name][relation]
            ), (name, relation, context)


def assert_reaches_the_chase(net, truth, context):
    """One more global update lands *net* on the centralised chase: if
    a link's memory claimed a delivery that never happened, this is
    where the row would stay missing."""
    assert net.global_update("N0").report.outcome == "complete"
    for name, node in net.nodes.items():
        if not node.wrapper.persistent:
            continue  # a mediator's buffer is empty after an update
        expected = truth.node_snapshot(name, node.wrapper.schema)
        for relation, rows in node.snapshot().items():
            assert rows_equal_up_to_nulls(rows, expected[relation]), (
                name, relation, context,
            )


def chase(net, base):
    return CentralizedExchange.for_network(net).run(
        {f"N{i}": {"item": [(k,) for k in keys]} for i, keys in base.items()}
    )


class TestSuppressionIsInvisible:
    @given(scenarios())
    # A tag arriving for an item that is already behind the link's
    # mark: only the *second* body relation's tail derives the hit.
    @example(
        (
            3,
            [(0, 1, "join"), (1, 2, "tag")],
            {0: [], 1: [0], 2: []},
            [("update", 0), ("insert", 2, 0), ("update", 1)],
            None,
        )
    )
    # A query fills a mediator, an update empties it again: the other
    # importer's query must still be served the rows.
    @example(
        (
            4,
            [(1, 0, "copy"), (2, 0, "copy"), (0, 3, "copy")],
            {0: [], 1: [], 2: [], 3: [1, 2]},
            [
                ("query", 1, QUERIES[0], False),
                ("update", 1),
                ("query", 2, QUERIES[0], False),
            ],
            0,
        )
    )
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_on_equals_ablation_equals_chase(self, scenario):
        size, rules, facts, ops, mediator = scenario
        network = (size, rules, facts, mediator)
        oracle = build(*network, config=NodeConfig(resend_suppression=False))
        memory = build(*network, config=NodeConfig())
        sqlite = build(*network, config=NodeConfig(), sqlite=True)
        try:
            base = {i: set(facts[i]) for i in range(size)}
            for step, op in enumerate(ops):
                expected = apply(oracle, op)
                for net in (memory, sqlite):
                    answer = apply(net, op)
                    if expected is not None:
                        assert rows_equal_up_to_nulls(answer, expected), (
                            scenario, step,
                        )
                    assert_same_stores(net, oracle, (scenario, step))
                if op[0] == "insert":
                    base[op[1]].add(op[2])
            truth = chase(oracle, base)
            for net in (oracle, memory, sqlite):
                assert_reaches_the_chase(net, truth, scenario)
        finally:
            for net in (oracle, memory, sqlite):
                net.stop()

    # No mediators here: a row that a query puts into a mediator's
    # buffer just before an update delivers it is "fired" but not new,
    # so that update does not carry it on, and the buffer is gone by
    # the next one — at the parent commit as well, with or without the
    # send memory (see ROADMAP).
    @given(
        scenarios(mediators=False),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=2**16),
    )
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_concurrent_bursts_still_reach_the_chase(self, scenario, burst, seed):
        """The same ops, *burst* at a time in flight together, pipes
        overtaking each other at random: answers may now legitimately
        differ run to run, but no interleaving may leave a link
        believing in a delivery that did not happen."""
        size, rules, facts, ops, _ = scenario
        net = build(size, rules, facts, config=NodeConfig(answer_cache=False))
        net.transport.install_faults(FaultInjector(Reorder(), seed=seed))
        try:
            base = {i: set(facts[i]) for i in range(size)}
            for start in range(0, len(ops), burst):
                for op in ops[start:start + burst]:
                    node = net.node(f"N{op[1]}")
                    if op[0] == "insert":
                        node.insert("item", (op[2],))
                        base[op[1]].add(op[2])
                    elif op[0] == "update":
                        node.submit_update_id()
                    else:
                        node.submit_query_id(op[2])
                net.run()
            for node in net.nodes.values():
                for link in node.links.incoming.values():
                    assert not link.unsettled, (link.rule_id, scenario)
            assert_reaches_the_chase(net, chase(net, base), (scenario, burst, seed))
        finally:
            net.stop()

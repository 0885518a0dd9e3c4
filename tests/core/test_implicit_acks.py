"""A participant's tree ack covers its results to its parent, soundly.

A result a non-root participant sends its parent — a query's
``query_data``, an update's ``query_result`` (most often the one that
closes its link) — is never acked: the participant's tree ack carries
how many it covers, and rides the last of them (``fin``) when the input
that leaves the participant quiet sent one; the parent drains the tree
edge only once it has processed that many
(:mod:`repro.core.termination`).  Taking an ack early is exactly what
Dijkstra–Scholten cannot survive,
so Hypothesis draws chains, trees and ``random_graph`` digraphs (cycles
included) of 2–6 peers, each importing ``item`` from its neighbours,
and a program of writes and network reads at ``N0`` — cached or not,
some of them under ``MessageLoss`` on ``query_data`` and ``ack`` — and
checks:

* at every root completion, no ``query_request`` or ``query_data`` of
  that query is still in flight and no peer is engaged in it;
* a read that lost shipments or acks, fewer than a peer's retry
  budget, had each sent again: it ends clean and fills, and the next
  read equals the uncached one;
* at every checkpoint, cached and uncached reads equal everything
  written.

On a chain where only the tail has anything new, a lossless read sends
no ``ack`` at all.  And a relay whose last word follows a shipment lost
for good says ``partial`` on it.

The same shapes carry global updates from any peer, with writes in
between, some of them under ``MessageLoss`` on every update kind and
``ack`` (closing results included); every update must complete with no
update message in flight when its root completes, leave every peer —
all are reachable from any origin — equal to the centralised chase and
no termination state anywhere.  On a chain, a repeat update that finds
nothing new sends no ``ack``, and neither does a first update from the
head that brings fresh rows, however they are cut into messages.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import HealthCheck, example, given, settings

from repro import CoDBNetwork, NodeConfig
from repro.baselines import CentralizedExchange
from repro.core.node import CoDBNode
from repro.core.update import UPDATE_KINDS
from repro.p2p.faults import FaultInjector, FaultModel, MessageLoss
from repro.relational.containment import rows_equal_up_to_nulls
from repro.workloads.topologies import ITEM_SCHEMA, random_graph

#: (query, the same filter on a written key)
TEMPLATES = (
    ("q(k) <- item(k, v)", lambda k: True),
    ("q(k) <- item(k, v), k >= 5", lambda k: k >= 5),
)
ENGAGING = ("query_request", "query_data")
UPDATE_ENGAGING = ("update_request", "query_result")


class FewLosses(MessageLoss):
    """:class:`MessageLoss` without retries on *kinds* that bounces at
    most ``limit`` messages, so no peer's retry budget
    (``CoDBNode.RESEND_LIMIT``) can run out; it remembers what it
    bounced."""

    def __init__(self, probability: float, kinds=("query_data", "ack")) -> None:
        super().__init__(probability, retries=0, kinds=kinds)
        self.limit = 0
        self.lost: list[str] = []

    def on_send(self, message, verdict) -> None:
        if len(self.lost) >= self.limit:
            return
        super().on_send(message, verdict)
        if verdict.bounce:
            self.lost.append(message.kind)


def copy_rules(pairs) -> list[str]:
    """``N{i}`` imports ``item`` from ``N{j}`` for every pair (i, j)."""
    return [f"N{i}:item(k, v) <- N{j}:item(k, v)" for i, j in pairs]


def chain(size: int) -> list[str]:
    return copy_rules((i, i + 1) for i in range(size - 1))


def topology(shape: str, size: int, draw) -> list[str]:
    """Import rules over which every peer reaches ``N0``."""
    if shape == "graph":
        return random_graph(size, 0.4, seed=draw(st.integers(0, 50))).rule_texts
    if shape == "chain":
        return chain(size)
    return copy_rules((draw(st.integers(0, child - 1)), child) for child in range(1, size))


@st.composite
def programs(draw):
    size = draw(st.integers(2, 6))
    shape = draw(st.sampled_from(["chain", "tree", "graph"]))
    rules = topology(shape, size, draw)
    data = {i: draw(st.lists(st.integers(0, 9), max_size=3)) for i in range(size)}
    loss = draw(st.sampled_from([0.3, 0.6]))
    step = st.one_of(
        st.tuples(st.just("write"), st.integers(0, size - 1), st.integers(0, 9)),
        st.tuples(
            st.just("read"),
            st.integers(0, len(TEMPLATES) - 1),
            st.booleans(),  # cached
            st.booleans(),  # lossy
        ),
        st.tuples(st.just("check")),
    )
    steps = draw(st.lists(step, min_size=1, max_size=10))
    return size, rules, data, loss, steps


def build(size, rules, data) -> CoDBNetwork:
    net = CoDBNetwork(seed=11, with_superpeer=False)
    for i in range(size):
        net.add_node(f"N{i}", ITEM_SCHEMA, facts={"item": [(k, 0) for k in data[i]]})
    net.add_rules(rules)
    net.start()
    return net


class Run:
    def __init__(self, size, rules, data, loss) -> None:
        self.net = build(size, rules, data)
        self.truth = {k for keys in data.values() for k in keys}
        self.loss = FewLosses(loss)
        self.net.transport.install_faults(FaultInjector(self.loss, seed=11))
        #: (query id, whether the root ended clean), in completion order.
        self.completions: list[tuple[str, bool]] = []
        for node in self.net.nodes.values():
            self.watch(node)

    def watch(self, node) -> None:
        engine = node.queries
        complete = engine.root_complete

        def root_complete(query_id):
            self.assert_quiet(query_id)
            self.completions.append((query_id, node.updates.sessions[query_id].clean))
            complete(query_id)

        engine.root_complete = root_complete

    def assert_quiet(self, query_id: str) -> None:
        for _at, _sequence, burst in self.net.transport._queue:
            for message in burst:
                assert not (
                    message.kind in ENGAGING
                    and message.payload.get("query_id") == query_id
                ), message
        for name, node in self.net.nodes.items():
            assert not node.termination.is_engaged(query_id), name

    def read(self, template: int, cached: bool = True) -> list:
        query, _keeps = TEMPLATES[template]
        return sorted(self.net.query("N0", query, mode="network", cache=cached))

    def lossy_read(self, template: int, cached: bool) -> None:
        root = self.net.node("N0")
        skipped, completed = root.cache.fills_skipped, len(self.completions)
        self.loss.lost.clear()
        self.loss.limit = 3
        try:
            self.read(template, cached)
            self.net.run()
        finally:
            self.loss.limit = 0
        if not self.loss.lost:
            return
        # Each loss was sent again: the read ends clean and fills.
        ((_query_id, clean),) = self.completions[completed:]
        assert clean
        assert root.cache.fills_skipped == skipped
        assert self.read(template) == self.read(template, cached=False)

    def step(self, op, *args) -> None:
        if op == "write":
            node, value = args
            self.net.node(f"N{node}").insert("item", (value, 0))
            self.truth.add(value)
            self.net.run()
        elif op == "read":
            template, cached, lossy = args
            if lossy:
                self.lossy_read(template, cached)
            else:
                self.read(template, cached)
        else:
            self.check()

    def check(self) -> None:
        self.net.run()
        for template, (query, keeps) in enumerate(TEMPLATES):
            truth = sorted((k,) for k in self.truth if keeps(k))
            cached, uncached = self.read(template), self.read(template, cached=False)
            assert cached == uncached == truth, (query, cached, uncached)


@given(programs())
@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_every_completion_is_quiet_and_every_loss_is_retried(program):
    size, rules, data, loss, steps = program
    run = Run(size, rules, data, loss)
    for step in steps:
        run.step(*step)
    run.check()


@given(
    size=st.integers(2, 6),
    tail=st.lists(st.integers(0, 9), min_size=1, max_size=3),
    reads=st.lists(
        st.tuples(st.integers(0, len(TEMPLATES) - 1), st.booleans()),
        min_size=1,
        max_size=5,
    ),
)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_a_chain_read_of_new_tail_rows_sends_no_ack(size, tail, reads):
    """Each read follows a write of a fresh key at the tail, the only
    peer with anything new: every participant's last word is a
    shipment to its parent."""
    net = build(size, chain(size), {i: tail if i == size - 1 else [] for i in range(size)})
    stats = net.transport.stats
    for fresh, (template, cached) in enumerate(reads, start=100):
        if fresh > 100:
            net.node(f"N{size - 1}").insert("item", (fresh, 0))
            net.run()
        query, _keeps = TEMPLATES[template]
        acks = stats.by_kind.get("ack", 0)
        answer = sorted(net.query("N0", query, mode="network", cache=cached))
        net.run()
        assert stats.by_kind.get("ack", 0) == acks
        assert answer == sorted(net.query("N0", query, mode="network", cache=False))


class Weather(FaultModel):
    """Bounce every ``query_data`` of *lost*'s; hold *slow*'s back."""

    def __init__(self, lost: str, slow: str) -> None:
        super().__init__()
        self.lost, self.slow, self.bounced = lost, slow, 0

    def on_send(self, message, verdict) -> None:
        if message.kind != "query_data":
            return
        if message.sender == self.lost:
            self.bounced += 1
            verdict.bounce = True
        elif message.sender == self.slow:
            verdict.extra_delay += 0.005


def test_a_relay_whose_last_word_follows_a_loss_says_partial():
    """``N2``'s shipment is lost for good: ``N2`` writes ``N1`` off and
    tells it, so ``N1``'s part is unclean.  Then ``N1`` relays
    ``N3``'s: that relay is its last word, and it must carry the
    partial flag up, or ``N0`` would fill without ``N2``'s rows."""
    net = build(4, copy_rules([(0, 1), (1, 2), (1, 3)]), {0: [], 1: [], 2: [2], 3: [3]})
    weather = Weather(lost="N2", slow="N3")
    net.transport.install_faults(FaultInjector(weather, seed=1))
    relays = []

    def record(message):
        if message.kind == "query_data" and message.sender == "N1":
            relays.append(message.payload)

    net.transport.faults.after_delivery = record
    root = net.node("N0")
    assert sorted(net.query("N0", TEMPLATES[0][0], mode="network")) == [(3,)]
    assert weather.bounced == 1 + CoDBNode.RESEND_LIMIT
    assert [(r["fin"], r.get("partial")) for r in relays] == [(True, True)]
    assert root.cache.fills_skipped == 1
    weather.lost = ""
    assert sorted(net.query("N0", TEMPLATES[0][0], mode="network")) == [(2,), (3,)]


@st.composite
def update_programs(draw):
    size = draw(st.integers(2, 6))
    shape = draw(st.sampled_from(["chain", "tree", "graph"]))
    rules = topology(shape, size, draw)
    data = {i: draw(st.lists(st.integers(0, 9), max_size=3)) for i in range(size)}
    loss = draw(st.sampled_from([0.3, 0.6]))
    step = st.one_of(
        st.tuples(st.just("write"), st.integers(0, size - 1), st.integers(0, 9)),
        st.tuples(st.just("update"), st.integers(0, size - 1), st.booleans()),
    )
    steps = draw(st.lists(step, min_size=1, max_size=6))
    return size, rules, data, loss, steps


class UpdateRun:
    def __init__(self, size, rules, data, loss) -> None:
        self.net = build(size, rules, data)
        self.loss = FewLosses(loss, kinds=(*UPDATE_KINDS, "ack"))
        self.net.transport.install_faults(FaultInjector(self.loss, seed=11))
        self.completed: list[str] = []
        for node in self.net.nodes.values():
            self.watch(node)

    def watch(self, node) -> None:
        manager = node.updates
        complete = manager.root_complete

        def root_complete(update_id):
            self.assert_quiet(update_id)
            self.completed.append(update_id)
            complete(update_id)

        manager.root_complete = root_complete

    def assert_quiet(self, update_id: str) -> None:
        """No update message of *update_id* in flight, nor bounced."""
        for _at, _sequence, burst in self.net.transport._queue:
            for message in burst:
                kind, payload = message.kind, message.payload
                if kind == "undeliverable":
                    kind, payload = payload["kind"], payload["payload"]
                assert not (
                    kind in UPDATE_ENGAGING and payload.get("update_id") == update_id
                ), message
        for name, node in self.net.nodes.items():
            assert not node.termination.is_engaged(update_id), name

    def update(self, origin: int, lossy: bool) -> None:
        net = self.net
        truth = CentralizedExchange.for_network(net).run_for_network(net)
        self.loss.limit = 3 if lossy else 0
        self.loss.lost.clear()
        try:
            outcome = net.global_update(f"N{origin}")
            net.run()
        finally:
            self.loss.limit = 0
        assert outcome.report.outcome == "complete"
        assert self.completed[-1] == outcome.update_id
        for name, node in net.nodes.items():
            assert not node.termination._computations, name
            assert not node.updates.sessions, name
            expected = truth.node_snapshot(name, node.wrapper.schema)
            for relation, rows in node.snapshot().items():
                assert rows_equal_up_to_nulls(rows, expected[relation]), (name, relation)


@given(update_programs())
@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
# Losses across updates must not spend one retry budget: retried
# ``update_complete``s draw no reply to refill it.
@example((2, ["N0:item(k, v) <- N1:item(k, v)"], {0: [], 1: []}, 0.6, [("update", 0, True)] * 4))
def test_every_update_completes_quiet_and_at_the_fixpoint(program):
    size, rules, data, loss, steps = program
    run = UpdateRun(size, rules, data, loss)
    for op, *args in steps:
        if op == "write":
            node, value = args
            run.net.node(f"N{node}").insert("item", (value, 0))
        else:
            run.update(*args)


@given(size=st.integers(2, 6), data=st.lists(st.integers(0, 9), max_size=3))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_a_repeat_update_with_nothing_new_sends_no_ack(size, data):
    """After a first update from the head of the chain every row has
    migrated there: in the second, each participant's last word is the
    result that closes its link, and it carries the sender's tree ack."""
    net = build(size, chain(size), {i: data if i == size - 1 else [] for i in range(size)})
    net.global_update("N0")
    net.run()
    stats = net.transport.stats
    before = dict(stats.by_kind)
    assert net.global_update("N0").report.outcome == "complete"
    net.run()
    sent = {
        kind: count - before.get(kind, 0)
        for kind, count in stats.by_kind.items()
        if count != before.get(kind, 0)
    }
    # A request and a closing result per link, then the completion flood.
    links = size - 1
    assert sent == {
        "update_request": links,
        "query_result": links,
        "update_complete": links,
    }


@given(
    size=st.integers(2, 6),
    data=st.lists(st.integers(0, 9), min_size=1, max_size=5, unique=True),
    batch=st.integers(0, 3),
)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_a_chain_update_sends_no_ack(size, data, batch):
    """A first update from the head of the chain, with fresh rows at
    the tail: every result goes to its sender's parent, covered by the
    sender's tree ack, which rides the last of them (``fin``)."""
    net = CoDBNetwork(seed=11, with_superpeer=False, config=NodeConfig(batch_rows=batch))
    for i in range(size):
        rows = [(k, 0) for k in data] if i == size - 1 else []
        net.add_node(f"N{i}", ITEM_SCHEMA, facts={"item": rows})
    net.add_rules(chain(size))
    net.start()
    stats = net.transport.stats
    before = dict(stats.by_kind)
    assert net.global_update("N0").report.outcome == "complete"
    net.run()
    assert stats.by_kind.get("ack", 0) == before.get("ack", 0)
    assert sorted(net.node("N0").rows("item")) == sorted((k, 0) for k in data)

"""The burst invariant: how deliveries are grouped changes nothing.

Franconi et al.'s fix-point does not depend on how message deliveries
are grouped, which is what licenses relaying bursts instead of single
messages — and what lets any transport split a burst anywhere.
Hypothesis draws small networks (chains, trees, cycles, mutual
imports, with and without existential heads) and runs the same global
update three ways on the simulator: every burst delivered whole, every
burst cut at random points, every message alone.  Each run must end in
the centralised fix-point up to a renaming of marked nulls, with every
Dijkstra–Scholten deficit paid and no session left behind.

The same invariant licenses ingesting a delivered run of results as
one T: how a burst is cut changes how many runs there are, never what
a node imports, mints or reports.  Hand-built bursts pin the run's
edges — a closing result joins the run and is applied after it, two
interleaved updates are two runs — and a crash hook and the fix-point guard behave the same
whether a burst arrives whole or a message at a time.
"""

from __future__ import annotations

import random
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro import CoDBNetwork, NodeConfig
from repro.baselines import CentralizedExchange
from repro.core.termination import DiffusingComputation
from repro.core.update import UpdateEngine
from repro.errors import FixpointGuardError
from repro.p2p.faults import FaultInjector
from repro.p2p.inproc import InProcessNetwork
from repro.p2p.messages import Message
from repro.relational.containment import rows_equal_up_to_nulls

SCHEMA = "item(k: int)\ntag(k: int, w)"


class SplittingNetwork(InProcessNetwork):
    """Cuts every burst after each message with probability *cut*;
    counts the results covered by their sender's tree ack, and the
    messages that carry it."""

    def __init__(self, seed: int, cut: float) -> None:
        super().__init__(seed)
        self.cut = cut
        self.cuts = random.Random(seed)
        self.fins = self.covered = 0

    def send_burst(self, messages):
        self.fins += sum(1 for m in messages if m.payload.get("fin"))
        self.covered += sum(
            1 for m in messages if m.kind == "query_result" and "ack" not in m.payload
        )
        start = 0
        for end in range(1, len(messages) + 1):
            if end == len(messages) or self.cuts.random() < self.cut:
                super().send_burst(messages[start:end])
                start = end


@st.composite
def networks(draw):
    """``(size, import edges, existential edges, data, origin, batch)``;
    edge ``(i, j)`` means ``Ni`` imports from ``Nj``.  Every shape is
    connected, so the update flood reaches every node."""
    size = draw(st.integers(min_value=2, max_value=5))
    shape = draw(st.sampled_from(["chain", "tree", "cycle", "mutual"]))
    if shape == "tree":
        edges = {
            (draw(st.integers(min_value=0, max_value=i - 1)), i)
            for i in range(1, size)
        }
    else:
        edges = {(i, i + 1) for i in range(size - 1)}
        if shape == "cycle":
            edges.add((size - 1, 0))
        if shape == "mutual":
            edges |= {(j, i) for i, j in edges}
    for i in range(size):  # a few chords on top
        for j in range(size):
            if i != j and draw(st.integers(min_value=0, max_value=5)) == 0:
                edges.add((i, j))
    edges = sorted(edges)
    existential = [edge for edge in edges if draw(st.booleans())]
    data = {
        i: draw(st.lists(st.integers(0, 9), max_size=5, unique=True))
        for i in range(size)
    }
    origin = draw(st.integers(min_value=0, max_value=size - 1))
    batch = draw(st.integers(min_value=1, max_value=3))
    return size, edges, existential, data, origin, batch


def build(description, transport) -> CoDBNetwork:
    size, edges, existential, data, _origin, batch = description
    net = CoDBNetwork(
        seed=3,
        transport=transport,
        with_superpeer=False,
        config=NodeConfig(batch_rows=batch),
    )
    for i in range(size):
        net.add_node(f"N{i}", SCHEMA, facts={"item": [(k,) for k in data[i]]})
    for i, j in edges:
        net.add_rule(f"N{i}:item(k) <- N{j}:item(k)")
    for i, j in existential:
        net.add_rule(f"N{i}:tag(k, w) <- N{j}:item(k)")
    net.start()
    return net


def run_to_quiescence(description, transport) -> CoDBNetwork:
    net = build(description, transport)
    outcome = net.global_update(f"N{description[4]}")
    net.run()
    assert outcome.report.outcome == "complete"
    assert net.transport.pending() == 0
    for name, node in net.nodes.items():
        assert not node.updates.sessions, name
        assert not node.admission.live, name
        assert node.termination.deficit(outcome.update_id) == 0, name
        assert not node.termination.is_engaged(outcome.update_id), name
        assert not node._inputs and not node.emitted, name
    return net


@given(networks(), st.integers(min_value=0, max_value=2**16))
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_whole_split_and_single_deliveries_reach_the_centralised_fixpoint(
    description, seed
):
    reference = build(description, InProcessNetwork(seed))
    truth = CentralizedExchange.for_network(reference).run_for_network(reference)
    runs = {
        "whole": run_to_quiescence(description, InProcessNetwork(seed)),
        "split": run_to_quiescence(description, SplittingNetwork(seed, 0.5)),
        "single": run_to_quiescence(description, SplittingNetwork(seed, 1.0)),
    }
    for label, net in runs.items():
        for name, node in net.nodes.items():
            expected = truth.node_snapshot(name, node.wrapper.schema)
            for relation, rows in node.snapshot().items():
                assert rows_equal_up_to_nulls(rows, expected[relation]), (
                    label,
                    name,
                    relation,
                    description,
                )
    # Grouping deliveries is what saves acknowledgements.
    acks = {
        label: net.transport.stats.by_kind.get("ack", 0)
        for label, net in runs.items()
    }
    engaging = sum(
        count
        for kind, count in runs["single"].transport.stats.by_kind.items()
        if kind in ("update_request", "query_result")
    )
    # Alone, every message costs its own ack, but a covered result
    # costs none, and neither does the tree edge whose ack a ``fin``
    # carries.
    single = runs["single"].transport
    assert acks["single"] + single.fins == engaging - single.covered
    assert acks["whole"] <= sum(
        count
        for kind, count in runs["whole"].transport.stats.by_kind.items()
        if kind in ("update_request", "query_result")
    )


def report_counts(net) -> dict:
    """Per node, what its report of the one update says it imported."""
    counts = {}
    for name, node in net.nodes.items():
        (report,) = node.stats.reports.values()
        counts[name] = (report.rows_imported, report.nulls_minted, report.longest_path)
    return counts


@given(networks(), st.integers(min_value=0, max_value=2**16))
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_how_a_burst_is_cut_changes_no_report_and_adds_no_result_message(
    description, seed
):
    # Dijkstra–Scholten's invariant: only an engaged node sends engaging
    # messages — a run is acknowledged after its sends are counted.
    sent_disengaged = []
    note_sent = DiffusingComputation.note_sent

    def checked(self, computation_id, recipient="", count=1):
        if not self.is_engaged(computation_id):
            sent_disengaged.append(computation_id)
        note_sent(self, computation_id, recipient, count)

    with mock.patch.object(DiffusingComputation, "note_sent", checked):
        runs = {
            "whole": run_to_quiescence(description, InProcessNetwork(seed)),
            "split": run_to_quiescence(description, SplittingNetwork(seed, 0.5)),
            "single": run_to_quiescence(description, SplittingNetwork(seed, 1.0)),
        }
    assert not sent_disengaged, description
    counts = {label: report_counts(net) for label, net in runs.items()}
    assert counts["whole"] == counts["split"] == counts["single"], description
    # A relay re-cuts a run's output into full batches: delivering
    # bursts whole never costs more result messages.
    results = {
        label: net.transport.stats.by_kind.get("query_result", 0)
        for label, net in runs.items()
    }
    assert results["whole"] <= results["single"], description


class MutedNetwork(InProcessNetwork):
    """Drops every burst addressed to a *muted* peer, whose side of the
    conversation the test writes by hand, and logs what is sent."""

    def __init__(self, *muted: str) -> None:
        super().__init__(seed=1)
        self.muted = set(muted)
        self.bursts: list[list[Message]] = []

    def send_burst(self, messages):
        self.bursts.append(list(messages))
        if messages[0].recipient not in self.muted:
            super().send_burst(messages)


class HandBuilt:
    """Messages from *sender* to *recipient*, with fresh ids."""

    def __init__(self, sender: str, recipient: str) -> None:
        self.sender, self.recipient = sender, recipient
        self.count = 0

    def message(self, kind: str, payload: dict) -> Message:
        self.count += 1
        return Message(
            kind, self.sender, self.recipient, payload, f"hand-{self.count}"
        )

    def results(
        self, update_id: str, rule_id: str, keys: list[int], *, closed=False
    ) -> Message:
        """A ``query_result``; *closed*: the link's last, carrying its
        closure."""
        payload = {
            "update_id": update_id,
            "rule_id": rule_id,
            "rows": [[k] for k in keys],
            "path_len": 1,
        }
        if closed:
            payload["closed"] = True
        return self.message("query_result", payload)


def spy_on_runs(monkeypatch) -> list[tuple[str, str, int]]:
    """``(node, update id, messages)`` of every run ingested from now on."""
    runs = []
    ingest = UpdateEngine.ingest_results

    def spying(self, messages):
        runs.append((self.node.name, self.update_id, len(messages)))
        return ingest(self, messages)

    monkeypatch.setattr(UpdateEngine, "ingest_results", spying)
    return runs


def test_a_close_marker_never_overtakes_the_run_in_front_of_it(monkeypatch):
    transport = MutedNetwork("N2")
    net = CoDBNetwork(
        transport=transport, with_superpeer=False, config=NodeConfig(batch_rows=2)
    )
    net.add_node("N0", SCHEMA)
    net.add_node("N1", SCHEMA, facts={"item": [(1,)]})
    net.add_node("N2", SCHEMA)
    net.add_rule("N0:item(k) <- N1:item(k)")
    relayed = net.add_rule("N1:item(k) <- N2:item(k)")
    net.start()
    update_id = net.submit_global_update("N0").request_id
    net.run()  # N1 serves its own row and waits on (muted) N2
    runs = spy_on_runs(monkeypatch)
    transport.bursts.clear()
    n2 = HandBuilt("N2", "N1")
    transport.send_burst(
        [
            n2.results(update_id, relayed.rule_id, [10, 11]),
            n2.results(update_id, relayed.rule_id, [12], closed=True),
        ]
    )
    net.run()
    # One run at the relay, one for what it relayed.
    assert runs == [("N1", update_id, 2), ("N0", update_id, 2)]
    (to_n0,) = [
        [(m.kind, m.payload.get("closed", False)) for m in burst]
        for burst in transport.bursts
        if burst[0].sender == "N1" and burst[0].recipient == "N0"
    ]
    # The three relayed rows leave in full batches, the closure on the
    # last: the cascade ran after the run was ingested.
    assert to_n0 == [("query_result", False), ("query_result", True)]
    assert sorted(net.node("N0").rows("item")) == [(1,), (10,), (11,), (12,)]


def interleaving_network() -> tuple[CoDBNetwork, MutedNetwork]:
    transport = MutedNetwork("N1")
    net = CoDBNetwork(transport=transport, with_superpeer=False)
    net.add_node("N0", SCHEMA)
    net.add_node("N1", SCHEMA)
    net.add_rule("N0:item(k) <- N1:item(k)")  # r0
    net.add_rule("N0:tag(k, w) <- N1:item(k)")  # r1, mints a null per k
    net.start()
    return net, transport


def test_interleaved_updates_are_separate_runs_and_end_as_if_sequential(
    monkeypatch,
):
    rows = {"u1": ([1, 2], [4]), "u2": ([2, 3],)}
    net, transport = interleaving_network()
    u1 = net.submit_global_update("N0").request_id
    u2 = net.submit_global_update("N0").request_id
    net.run()
    runs = spy_on_runs(monkeypatch)
    n1 = HandBuilt("N1", "N0")
    transport.send_burst(
        [
            n1.results(u1, "r0", rows["u1"][0]),
            n1.results(u1, "r1", rows["u1"][0]),
            n1.results(u2, "r0", rows["u2"][0], closed=True),
            n1.results(u2, "r1", rows["u2"][0], closed=True),
            n1.results(u1, "r0", rows["u1"][1], closed=True),
            n1.results(u1, "r1", rows["u1"][1], closed=True),
        ]
    )
    net.run()
    assert runs == [("N0", u1, 2), ("N0", u2, 2), ("N0", u1, 2)]

    sequential, transport = interleaving_network()
    n1 = HandBuilt("N1", "N0")
    for label in ("u1", "u2"):
        update_id = sequential.submit_global_update("N0").request_id
        sequential.run()
        transport.send_burst(
            [
                n1.results(update_id, rule_id, keys, closed=keys is rows[label][-1])
                for keys in rows[label]
                for rule_id in ("r0", "r1")
            ]
        )
        sequential.run()
    interleaved, expected = net.node("N0"), sequential.node("N0")
    for relation, got in interleaved.snapshot().items():
        assert rows_equal_up_to_nulls(got, expected.snapshot()[relation]), relation
    assert len(interleaved.rows("tag")) == 4  # one null per k, not per update


def test_a_row_two_rules_of_one_run_derive_is_new_for_the_first():
    transport = MutedNetwork("N1")
    net = CoDBNetwork(transport=transport, with_superpeer=False)
    net.add_node("N0", SCHEMA)
    net.add_node("N1", SCHEMA)
    net.add_rule("N0:item(k) <- N1:item(k)")  # r0
    net.add_rule("N0:item(k) <- N1:tag(k, w)")  # r1, into the same relation
    net.start()
    update_id = net.submit_global_update("N0").request_id
    net.run()
    n1 = HandBuilt("N1", "N0")
    burst = [n1.results(update_id, "r0", [1, 2]), n1.results(update_id, "r1", [2, 3])]
    transport.send_burst(burst)
    net.run()
    report = net.node("N0").stats.report_for(update_id)
    assert report.rows_imported == 3
    assert {rule: t.rows_new for rule, t in report.per_rule.items()} == {
        "r0": 2,
        "r1": 1,
    }
    # Each message still counts as a round with its own volume.
    assert report.rounds == 2
    assert [t.message_volumes for t in report.per_rule.values()] == [
        [m.payload_bytes()] for m in burst
    ]


CHAIN = {"N1": [1, 2, 3], "N2": [10, 11, 12, 13, 14], "N3": [20, 21, 22, 23]}


def crashing_chain(transport) -> CoDBNetwork:
    net = CoDBNetwork(
        transport=transport, with_superpeer=False, config=NodeConfig(batch_rows=2)
    )
    for i in range(4):
        net.add_node(
            f"N{i}", SCHEMA, facts={"item": [(k,) for k in CHAIN.get(f"N{i}", [])]}
        )
    for i in range(3):
        net.add_rule(f"N{i}:item(k) <- N{i + 1}:item(k)")
    net.start()
    return net


@pytest.mark.parametrize("cut", [None, 1.0], ids=["whole", "single"])
def test_a_crash_on_the_first_message_of_a_run_is_named_and_heals(cut):
    transport = InProcessNetwork(4) if cut is None else SplittingNetwork(4, cut)
    net = crashing_chain(transport)
    injector = FaultInjector()
    transport.install_faults(injector)
    # N2's first burst to N1 carries its five rows as three messages:
    # N1 dies right after the first of them is delivered.
    injector.at_delivery(
        lambda: net.node("N1").detach(), kind="query_result", recipient="N1"
    )
    outcome = net.global_update("N0")
    net.run()
    assert outcome.report.outcome == "partial"
    assert outcome.report.unreachable_peers == ["N1", "N2", "N3"]
    # N1 still ingests the message it died on; what it relays reaches
    # an origin that has written it off already.
    assert sorted(net.node("N1").rows("item")) == [(k,) for k in (1, 2, 3, 10, 11)]
    assert sorted(net.node("N0").rows("item")) == [(1,), (2,), (3,)]
    net.rejoin_node("N1")
    net.run()
    assert net.global_update("N0").report.outcome == "complete"
    reference = crashing_chain(InProcessNetwork(4))
    truth = CentralizedExchange.for_network(reference).run_for_network(reference)
    for name, node in net.nodes.items():
        assert node.snapshot() == truth.node_snapshot(name, node.wrapper.schema), name


@pytest.mark.parametrize("cut", [None, 0.5, 1.0], ids=["whole", "split", "single"])
def test_the_fixpoint_guard_trips_however_the_bursts_are_cut(cut):
    transport = InProcessNetwork(5) if cut is None else SplittingNetwork(5, cut)
    # B mints a w for every seed of A, and A takes every w back as a
    # seed: not weakly acyclic, so the chase diverges and the guard
    # must trip.  One row per message: A's seeds reach B as one run.
    net = CoDBNetwork(
        transport=transport,
        with_superpeer=False,
        config=NodeConfig(batch_rows=1, fixpoint_guard=50),
    )
    net.add_node("A", "seed(x)", facts="seed(1). seed(2). seed(3)")
    net.add_node("B", "pair(x, w)")
    net.add_rule("B:pair(x, w) <- A:seed(x)")
    net.add_rule("A:seed(w) <- B:pair(x, w)")
    net.start()
    assert not net.rule_file.is_weakly_acyclic()
    with pytest.raises(FixpointGuardError):
        net.global_update("B")

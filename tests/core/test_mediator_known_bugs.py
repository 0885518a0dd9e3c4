"""Two known mediator bugs, pinned so the fix flips a test.

Both are recorded in ROADMAP ("Found while fixing PR 13"), both predate
it, and neither is fixed here: each scenario is the smallest simulator
network that shows the bug, asserted against the centralised chase
(:mod:`repro.baselines.centralized`).  ``strict=True``: the PR that
fixes one must delete its marker.
"""

import pytest

from repro import CoDBNetwork, MediatorStore, NodeConfig, parse_schema
from repro.baselines.centralized import CentralizedExchange
from repro.relational.containment import rows_equal_up_to_nulls


def chase(net, name):
    """What the centralised fixpoint over the network's current data
    puts at node *name*."""
    result = CentralizedExchange.for_network(net).run_for_network(net)
    return result.node_snapshot(name, net.node(name).wrapper.schema)


@pytest.mark.xfail(
    strict=True,
    reason="a mediator's OutgoingLink.fired memory outlives its buffer: "
    "rows fired in an earlier update are not stored again, so a row "
    "that is new in this update never meets them in a join at the mediator",
)
@pytest.mark.parametrize(
    "config",
    [
        NodeConfig(answer_cache=False),
        NodeConfig(answer_cache=False, resend_suppression=False),
    ],
    ids=["delta-serving", "resend-suppression-off"],
)
def test_join_at_a_mediator_pairs_old_rows_with_new_ones(config):
    mediator = parse_schema("j(x: int, y: int)\nk(y: int, z: int)")
    net = CoDBNetwork(seed=5, with_superpeer=False, config=config)
    net.add_node(
        "S",
        "a(x: int, y: int)\nb(y: int, z: int)",
        facts={"a": [(1, 10)], "b": [(10, 100)]},
    )
    net.add_node("MED", mediator, store=MediatorStore(mediator))
    net.add_node("C", "out(x: int, z: int)")
    net.add_rule("MED:j(x, y) <- S:a(x, y)")
    net.add_rule("MED:k(y, z) <- S:b(y, z)")
    net.add_rule("C:out(x, z) <- MED:j(x, y), MED:k(y, z)")
    net.start()

    net.global_update("C")
    assert net.node("C").snapshot() == chase(net, "C") == {"out": [(1, 100)]}

    # A new k row that joins the *old* j row (1, 10).
    net.node("S").insert("b", (10, 200))
    net.global_update("C")
    expected = chase(net, "C")
    assert expected == {"out": [(1, 100), (1, 200)]}
    assert rows_equal_up_to_nulls(net.node("C").rows("out"), expected["out"])


@pytest.mark.parametrize(
    "config",
    [
        pytest.param(
            NodeConfig(),
            marks=pytest.mark.xfail(
                strict=True,
                reason="a cached network read behind a mediator is a stale "
                "hit after an insert two hops up",
            ),
            id="cached",
        ),
        # The control: same network, cache off, answers correctly.
        pytest.param(NodeConfig(answer_cache=False), id="uncached"),
    ],
)
def test_read_behind_a_mediator_sees_an_insert_two_hops_up(config):
    schema = parse_schema("item(k: int)")
    net = CoDBNetwork(seed=5, with_superpeer=False, config=config)
    net.add_node("SRC", "item(k: int)", facts={"item": [(1,), (2,)]})
    net.add_node("MED", schema, store=MediatorStore(schema))
    net.add_node("C", "item(k: int)")
    net.add_rule("MED:item(k) <- SRC:item(k)")
    net.add_rule("C:item(k) <- MED:item(k)")
    net.start()

    net.global_update("C")
    query = "q(k) <- item(k)"
    assert sorted(net.query("C", query, mode="network")) == [(1,), (2,)]

    net.node("SRC").insert("item", (3,))
    expected = chase(net, "C")["item"]
    assert expected == [(1,), (2,), (3,)]
    assert sorted(net.query("C", query, mode="network")) == expected

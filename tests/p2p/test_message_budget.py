"""Message budget of one global update on the benchmark's chatty chain.

``benchmarks/spine``'s ``update_chatty_tcp`` fails a whole run when
its message or byte counts differ between repetitions.  This is the
same network — an 8-node copy chain, ``batch_rows=8``, 20 fresh rows
at every non-origin node, one update from ``N0`` — checked in a second:
the counts must not depend on the transport or on socket timing, no
``ack`` is sent (every result goes to its sender's parent and is
covered by the sender's tree ack), and the paper's §4 statistics are
what they were before bursts existed (but for the closure, the tree
ack and its count that seven results carry).

And the gateway's ``A <- B <- C`` chain: a repeat update that finds
nothing new sends its requests, one closing result per link — each
its sender's last word, so it carries the tree ack too — and the
completion flood.
"""

import random

import pytest

from repro import CoDBNetwork, NodeConfig, TcpNetwork

NODES = 8
ROWS_PER_NODE = 20


def run_update(transport=None) -> dict:
    net = CoDBNetwork(
        seed=0,
        transport=transport,
        with_superpeer=False,
        config=NodeConfig(batch_rows=8),
    )
    try:
        for i in range(NODES):
            net.add_node(f"N{i}", "item(k: int, v: int)")
        for i in range(NODES - 1):
            net.add_rule(f"N{i}:item(k, v) <- N{i + 1}:item(k, v)")
        net.start()
        rng = random.Random(16)
        for node in range(1, NODES):
            # Fixed-width values: message bytes do not depend on the draw.
            base = 100_000_000 + node * 10_000_000
            rows = [
                (key, 100 + rng.randrange(900))
                for key in rng.sample(range(base, base + 100_000), ROWS_PER_NODE)
            ]
            net.node(f"N{node}").load_facts({"item": rows})
        net.run()
        stats = net.transport.stats
        kinds_before, bytes_before = dict(stats.by_kind), stats.bytes_sent
        outcome = net.global_update("N0")
        net.run()  # the last acks trail the handle's completion
        assert outcome.report.outcome == "complete"
        assert len(net.node("N0").rows("item")) == (NODES - 1) * ROWS_PER_NODE
        report = outcome.report
        return {
            "by_kind": {
                kind: count - kinds_before.get(kind, 0)
                for kind, count in stats.by_kind.items()
                if count != kinds_before.get(kind, 0)
            },
            "bytes_sent": stats.bytes_sent - bytes_before,
            "result_msgs": report.total_messages,
            "rules": len(report.messages_per_rule()),
            "volume": sum(report.message_volumes()),
            "longest_path": report.longest_path,
        }
    finally:
        net.stop()


@pytest.fixture(scope="module")
def simulated():
    return run_update()


def test_counts_do_not_depend_on_transport_or_timing(simulated):
    for _ in range(3):
        assert run_update(TcpNetwork()) == simulated


def test_acks_and_total_stay_within_the_burst_budget(simulated):
    by_kind = simulated["by_kind"]
    # Each closure and each tree ack rides the last result on its link.
    assert by_kind == {
        "update_request": 7,
        "query_result": 84,
        "update_complete": 7,
    }
    assert sum(by_kind.values()) == 98
    assert simulated["bytes_sent"] == 20318


def test_section_4_statistics_are_unmoved(simulated):
    assert simulated["rules"] == 7
    assert simulated["result_msgs"] / simulated["rules"] == 12
    # Seven results carry their link's closure (``"closed":true``) and
    # their sender's tree ack, with the count of the results it covers:
    # 3 for the 20 rows of each node behind the link.
    fins = sum(
        len(f',"fin":true,"covers":{3 * hop}') for hop in range(1, 8)
    )
    assert simulated["volume"] == 14924 + 7 * len(',"closed":true') + fins
    assert round(simulated["volume"] / simulated["result_msgs"], 2) == 180.71
    assert simulated["longest_path"] == 7


def test_a_repeat_update_on_the_gateway_chain_is_six_messages():
    net = CoDBNetwork(
        seed=0, with_superpeer=False, config=NodeConfig(max_active_sessions=4)
    )
    net.add_node("A", "item(k: int)")
    net.add_node("B", "item(k: int)", facts={"item": [(k,) for k in range(10, 70)]})
    net.add_node("C", "item(k: int)", facts={"item": [(k,) for k in range(70, 130)]})
    net.add_rule("A:item(k) <- B:item(k)")
    net.add_rule("B:item(k) <- C:item(k)")
    net.start()
    net.global_update("A")
    net.run()
    sent = []
    send_burst = net.transport.send_burst

    def recording(messages):
        sent.extend(messages)
        send_burst(messages)

    net.transport.send_burst = recording
    outcome = net.global_update("A")
    net.run()
    assert outcome.report.outcome == "complete"
    closing = {"rows": [], "closed": True, "fin": True}
    assert [
        (m.kind, m.sender, m.recipient, m.size_bytes()) for m in sent
    ] == [
        ("update_request", "A", "B", 92),
        ("update_request", "B", "C", 92),
        ("query_result", "C", "B", 127),
        ("query_result", "B", "A", 127),
        ("update_complete", "A", "B", 97),
        ("update_complete", "B", "C", 97),
    ]
    for result in sent[2:4]:
        assert {key: result.payload[key] for key in closing} == closing
    assert sum(m.size_bytes() for m in sent) == 632

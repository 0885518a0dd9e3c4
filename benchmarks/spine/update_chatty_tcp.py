"""``update_chatty_tcp`` — the smallest-message regime, over real sockets.

Closed loop, one client, ``TcpNetwork`` on loopback, an 8-node
copy-rule chain ``N0 <- N1 <- ... <- N7`` with
``NodeConfig(batch_rows=8)``.  One op = load a fresh 20-row batch at
every non-origin node (off the clock), then one global update from
``N0`` to transport quiescence.  Ops run in episodes of ten on one persistent network, which
is rebuilt (off the clock) per episode so store growth stays bounded.
≈ 200 small messages per op.

Why: here per-message cost sets the rate — ``p2p.messages``
encode/decode/``size_bytes``, ``p2p.tcp`` framing and thread hand-off
and ``core.termination`` ack traffic dominate.  Joins are single-atom,
so ``relational`` work is inserts and dedup: the same layer used for
writes where ``update_join_sim`` uses it for reads.

Check: every update ``complete``; each episode's final snapshot equals
the union the chain must converge to, and the first episode's also
equals the deterministic simulator's snapshot for the same inputs
(computed in set-up).
"""

from __future__ import annotations

import random
import statistics
import time
from dataclasses import dataclass

from repro import CoDBNetwork, NodeConfig, TcpNetwork
from repro.p2p.messages import Message

from .harness import Outcome
from .layers import UpdateTally
from .trace import Tracer

NAME = "update_chatty_tcp"

NODES = 8
BATCH_ROWS = 20
OPS_PER_EPISODE = 10
FULL_EPISODES = 4
SMOKE_EPISODES = 1
SMOKE_OPS = 2

#: episode -> op -> node index -> rows
Batches = list[list[dict[int, list[tuple[int, int]]]]]


def build(transport=None) -> CoDBNetwork:
    net = CoDBNetwork(
        seed=0,
        transport=transport,
        with_superpeer=False,
        config=NodeConfig(batch_rows=8),
    )
    for i in range(NODES):
        net.add_node(f"N{i}", "item(k: int, v: int)")
    for i in range(NODES - 1):
        net.add_rule(f"N{i}:item(k, v) <- N{i + 1}:item(k, v)")
    net.start()
    return net


def make_batches(rng: random.Random, episodes: int, ops: int) -> Batches:
    """Fixed-width keys in a stripe per (episode, op, node): every row
    is new everywhere it arrives and message bytes do not depend on
    the seed."""
    batches: Batches = []
    for _episode in range(episodes):
        per_op = []
        for op in range(ops):
            per_node = {}
            for node in range(1, NODES):
                base = 100_000_000 + node * 10_000_000 + op * 100_000
                keys = rng.sample(range(base, base + 100_000), BATCH_ROWS)
                per_node[node] = [(key, 100 + rng.randrange(900)) for key in keys]
            per_op.append(per_node)
        batches.append(per_op)
    return batches


def load_batch(net: CoDBNetwork, batch: dict[int, list]) -> None:
    for node, rows in batch.items():
        net.node(f"N{node}").load_facts({"item": rows})
    net.run()


def expected_snapshot(episode: list[dict[int, list]]) -> dict[str, dict]:
    """What the chain converges to: ``Ni`` holds every row loaded at
    ``Ni`` or upstream of it."""
    snapshot = {}
    for i in range(NODES):
        rows = [
            row
            for batch in episode
            for node, node_rows in batch.items()
            if node >= i
            for row in node_rows
        ]
        snapshot[f"N{i}"] = {"item": sorted(rows)}
    return snapshot


def run_episode(net: CoDBNetwork, episode: list[dict[int, list]], update) -> None:
    for batch in episode:
        load_batch(net, batch)
        update(net)


@dataclass
class State:
    batches: Batches
    simulator_snapshot: dict[str, dict]


def set_up(seed: int, smoke: bool) -> State:
    rng = random.Random(f"{seed}/{NAME}")
    batches = make_batches(
        rng,
        SMOKE_EPISODES if smoke else FULL_EPISODES,
        SMOKE_OPS if smoke else OPS_PER_EPISODE,
    )
    # Oracle: the first episode on the deterministic simulator.
    simulator = build()
    run_episode(simulator, batches[0], lambda net: net.global_update("N0"))
    # Warm-up: one op of the timed type, sockets and threads included.
    warm = build(TcpNetwork())
    try:
        run_episode(warm, batches[0][:1], lambda net: net.global_update("N0"))
    finally:
        warm.stop()
    return State(batches, simulator.snapshot())


def run(state: State, clock, layers: bool = False) -> Outcome:
    outcome = Outcome()
    tally = UpdateTally()
    first_op, last_op = [], []
    for index, episode in enumerate(state.batches):
        net = build(TcpNetwork())
        try:
            wire_before = net.transport.stats.wire_bytes_sent
            mark = len(clock.lat_ms)

            def to_quiescence(net):
                # The handle completes before the last acks have been
                # handled; they belong to this op's time, CPU and bytes.
                result = net.global_update("N0")
                net.run()
                return result

            def update(net):
                result = clock.timed(lambda: to_quiescence(net))
                tally.add_outcome(result)
                if result.report.outcome != "complete":
                    outcome.failed += 1
                    outcome.notes.append(f"{NAME}: update {result.report.outcome}")

            run_episode(net, episode, update)
            first_op.append(clock.lat_ms[mark])
            last_op.append(clock.lat_ms[-1])
            outcome.wire_bytes += net.transport.stats.wire_bytes_sent - wire_before
            tally.add_network(net)
            snapshot = net.snapshot()
        finally:
            net.stop()
        if snapshot != expected_snapshot(episode) or (
            index == 0 and snapshot != state.simulator_snapshot
        ):
            outcome.failed += 1
            outcome.notes.append(f"{NAME}: episode {index} converged to a wrong snapshot")
    outcome.counts = tally.counts()
    outcome.layer = tally.layer()
    outcome.layer["core.update.repeat_cost_ratio"] = statistics.median(
        last / first for first, last in zip(first_op, last_op)
    )
    # Op wall that no thread of the process spent computing: what the
    # op waited for sockets and the scheduler (handler busy time is the
    # process's CPU, since the handlers run on other threads).
    outcome.layer_ms["p2p.tcp.wait_ms_per_op"] = max(
        0.0, sum(clock.lat_ms) - clock.cpu_ms
    ) / len(clock.lat_ms)
    return outcome


def tear_down(state: State) -> None:
    pass


def traced_layers(plain, traced) -> dict[str, float]:
    """The codec probe: the messages of one more op, captured at
    ``TcpNetwork.send``, replayed through both codecs."""
    return probe_codecs(capture_messages(plain[0].state))


def capture_messages(state: State) -> list[Message]:
    captured: list[Message] = []
    recorder = Tracer()
    recorder.wrap(
        TcpNetwork, "send", "p2p.tcp.send",
        lambda _tracer, args, _kwargs, _result: captured.append(args[1]),
    )
    net = build(TcpNetwork())
    try:
        load_batch(net, state.batches[0][0])
        recorder.request = "probe"
        net.global_update("N0")
        net.run()
    finally:
        recorder.uninstall()
        net.stop()
    return captured


def probe_codecs(messages: list[Message], rounds: int = 5) -> dict[str, float]:
    def fresh() -> list[Message]:
        # New objects every round: both encoders cache per message.
        return [
            Message(m.kind, m.sender, m.recipient, m.payload, m.message_id)
            for m in messages
        ]

    def best(encode) -> tuple[float, int]:
        samples, size = [], 0
        for _ in range(rounds):
            batch = fresh()
            started = time.perf_counter()
            size = sum(len(encode(message)) for message in batch)
            samples.append(time.perf_counter() - started)
        return statistics.median(samples), size

    json_s, json_bytes = best(Message.to_wire)
    binary_s, binary_bytes = best(Message.to_binary)
    return {
        "p2p.probe.binary_over_json_encode_ratio": binary_s / json_s,
        "p2p.probe.binary_over_json_bytes_ratio": binary_bytes / json_bytes,
    }

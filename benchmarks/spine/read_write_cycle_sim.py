"""``read_write_cycle_sim`` — CUP's trade, measured in one number.

Closed loop, one client, simulator, a 5-node unary ``item`` chain
settled by one global update, answer cache on.  One op = one **cycle**:
insert one row at the tail and ``net.run()`` until the invalidation
cascade has settled (the settle time is the write's latency), then 12
network-mode reads at the head over three query templates — exactly 3
misses and 9 hits.

Why: CUP (arXiv cs/0202008) trades miss latency against
update-propagation cost per link, so both belong in one op: a cheaper
hit bought with a dearer invalidation, or the reverse, moves the cycle
latency the right way.  ``core.answercache``, ``core.query`` and the
interest/invalidation code in ``core.node`` do the work; ``relational``
joins and sockets do little.  A miss gets dearer with every write
(``core.query.miss_drift_ratio``); because the cycle count is fixed,
that drift is the same in every repetition.

The templates have the shape of ``repro.workloads.read_heavy_mix``
(one full scan, two ``x >= cut`` filters), but the cuts are the key
set's terciles instead of seed-drawn numbers, so answer sizes — and
with them the cost of a miss — do not depend on the seed.

Check: every answer equals the driver's own key set filtered by the
template (zero stale reads); hits = 9 × cycles and misses = 3 × cycles
exactly.  The write always settles before the first dependent read —
reading at once would race the asynchronous cascade on a real
transport.
"""

from __future__ import annotations

import random
import statistics
import time
from dataclasses import dataclass

from repro import CoDBNetwork

from .harness import Outcome

NAME = "read_write_cycle_sim"

LENGTH = 5
HEAD, TAIL = "N0", f"N{LENGTH - 1}"
READS_PER_CYCLE = 12
TEMPLATES = 3
FULL = {"tuples": 60, "cycles": 60}
SMOKE = {"tuples": 10, "cycles": 4}


@dataclass
class Cycle:
    write: int
    #: (query text, cut or None) in read order; every template occurs.
    reads: list[tuple[str, int | None]]


@dataclass
class State:
    net: CoDBNetwork
    keys: set[int]
    cycles: list[Cycle]


def build(keys_per_node: list[list[int]]) -> CoDBNetwork:
    net = CoDBNetwork(seed=0, with_superpeer=False)
    for i, keys in enumerate(keys_per_node):
        net.add_node(f"N{i}", "item(k: int)", facts={"item": [(k,) for k in keys]})
    for i in range(LENGTH - 1):
        net.add_rule(f"N{i}:item(k) <- N{i + 1}:item(k)")
    net.start()
    net.global_update(HEAD)
    return net


def read(net: CoDBNetwork, keys: set[int], query: str, cut: int | None) -> bool:
    """One network-mode read at the head, checked against the driver's
    own key set; True when the answer is right."""
    answer = net.query(HEAD, query, mode="network")
    expected = sorted(k for k in keys if cut is None or k >= cut)
    return sorted(k for (k,) in answer) == expected


def set_up(seed: int, smoke: bool) -> State:
    size = SMOKE if smoke else FULL
    rng = random.Random(f"{seed}/{NAME}")
    # Six-digit keys throughout: message bytes do not depend on the seed.
    keys_per_node = [
        rng.sample(range(100_000 + i * 100_000, 200_000 + i * 100_000), size["tuples"])
        for i in range(LENGTH)
    ]
    keys = {k for node_keys in keys_per_node for k in node_keys}
    ordered = sorted(keys)
    cuts = [ordered[len(ordered) // 3], ordered[2 * len(ordered) // 3]]
    templates: list[tuple[str, int | None]] = [("q(x) <- item(x)", None)]
    templates += [(f"q(x) <- item(x), x >= {cut}", cut) for cut in cuts]
    writes = rng.sample(range(700_000, 800_000), size["cycles"] + 1)
    cycles = []
    for write in writes:
        reads = templates + [
            rng.choice(templates) for _ in range(READS_PER_CYCLE - TEMPLATES)
        ]
        rng.shuffle(reads)
        cycles.append(Cycle(write, reads))
    net = build(keys_per_node)
    state = State(net, keys, cycles[1:])
    # Warm-up: one whole cycle (a write, three misses, nine hits).
    warm = cycles[0]
    net.node(TAIL).insert("item", (warm.write,))
    net.run()
    keys.add(warm.write)
    for query, cut in warm.reads:
        read(net, keys, query, cut)
    return state


def run(state: State, clock, layers: bool = False) -> Outcome:
    outcome = Outcome()
    net, keys = state.net, state.keys
    before = net.lifetime_totals()
    kinds_before = dict(net.transport.stats.by_kind)
    bytes_before = net.transport.stats.bytes_sent
    settle_ms, hit_ms, miss_ms = [], [], []

    def cycle(step: Cycle) -> int:
        wrong = 0
        started = time.perf_counter()
        net.node(TAIL).insert("item", (step.write,))
        net.run()
        settle_ms.append((time.perf_counter() - started) * 1e3)
        keys.add(step.write)
        filled = set()
        for query, cut in step.reads:
            started = time.perf_counter()
            wrong += not read(net, keys, query, cut)
            elapsed = (time.perf_counter() - started) * 1e3
            (hit_ms if query in filled else miss_ms).append(elapsed)
            filled.add(query)
        return wrong

    for step in state.cycles:
        wrong = clock.timed(lambda: cycle(step))
        if wrong:
            outcome.failed += 1
            outcome.notes.append(f"{NAME}: {wrong} stale or wrong answers in one cycle")

    cycles = len(state.cycles)
    after = net.lifetime_totals()
    delta = {
        key: sum(after[node][key] - before[node][key] for node in after)
        for key in (
            "cache_hits", "cache_misses", "cache_evictions",
            "invalidation_batches", "invalidations_coalesced",
        )
    }
    head_hits = after[HEAD]["cache_hits"] - before[HEAD]["cache_hits"]
    head_misses = after[HEAD]["cache_misses"] - before[HEAD]["cache_misses"]
    if head_hits != (READS_PER_CYCLE - TEMPLATES) * cycles or head_misses != TEMPLATES * cycles:
        outcome.failed += 1
        outcome.notes.append(
            f"{NAME}: {head_hits} hits / {head_misses} misses at the head, expected "
            f"{(READS_PER_CYCLE - TEMPLATES) * cycles} / {TEMPLATES * cycles}"
        )
    kinds = {
        kind: count - kinds_before.get(kind, 0)
        for kind, count in net.transport.stats.by_kind.items()
    }
    messages = sum(kinds.values())
    outcome.wire_bytes = net.transport.stats.bytes_sent - bytes_before
    outcome.counts = {"messages": messages, "bytes": outcome.wire_bytes, **delta}
    query_msgs = sum(
        kinds.get(kind, 0) for kind in ("query_request", "query_data", "query_complete")
    )
    quarter = max(1, len(miss_ms) // 4)
    outcome.layer = {
        "core.answercache.hit_frac": head_hits / (head_hits + head_misses),
        "core.answercache.evictions_per_op": delta["cache_evictions"] / cycles,
        "core.query.miss_drift_ratio": statistics.median(miss_ms[-quarter:])
        / statistics.median(miss_ms[:quarter]),
        "core.query.msgs_per_miss": query_msgs / head_misses,
        "core.node.invalidation_msgs_per_write": delta["invalidation_batches"] / cycles,
        "core.node.invalidations_coalesced_per_write": delta["invalidations_coalesced"]
        / cycles,
        "core.termination.ack_msgs_per_op": kinds.get("ack", 0) / cycles,
        "core.termination.ack_frac": kinds.get("ack", 0) / messages,
        "p2p.messages.msgs_per_op": messages / cycles,
        "p2p.messages.bytes_per_msg": outcome.wire_bytes / messages,
    }
    outcome.samples = {
        "core.answercache.hit_ms_p50": (hit_ms, 50),
        "core.query.miss_ms_p50": (miss_ms, 50),
        "core.node.write_settle_ms_p50": (settle_ms, 50),
    }
    return outcome


def tear_down(state: State) -> None:
    state.net.stop()


def traced_layers(plain, traced) -> dict[str, float]:
    return {}

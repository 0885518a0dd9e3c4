"""``update_join_sim`` — the paper's §4 experiment on a join-heavy network.

Closed loop, one client, deterministic simulator, ``MemoryStore``.
One op = one global update from ``MART`` to ``complete`` on a freshly
built (off the clock) five-node heterogeneous network::

    S0, S1, S2   orders(o, c, amt)  customer(c, r)  region(r, name)
    HUB          sale(o, c, amt)    custreg(c, name)
    MART         fact(o, name, batch)          -- batch is existential

``HUB`` imports through a 2-atom and a 3-atom join with a comparison,
``MART`` through a join of two hub relations whose head mints marked
nulls.  One order in forty passes the comparison, so the bodies scan
well over 20× the rows the heads emit.  Ops come in three seeded size classes
(60 % S / 25 % M / 15 % L): p50 sits inside S and p90 inside L, both
more than five percentile points from a class boundary.

Why: start nodes, set rules, run the update, collect statistics — the
``relational`` planner and columnar executor do most of the work and
``p2p`` almost none (≈ 50 messages, no sockets).

Check: after the first op of each class every node equals the
centralised chase up to null renaming; every op must report
``complete`` and import exactly its class's rows and nulls.
"""

from __future__ import annotations

import random
import statistics
import time
from dataclasses import dataclass

from repro import CoDBNetwork, MemoryStore, SqliteStore
from repro.baselines.centralized import CentralizedExchange
from repro.relational.containment import rows_equal_up_to_nulls

from .harness import Outcome
from .layers import UpdateTally

NAME = "update_join_sim"

SOURCES = ("S0", "S1", "S2")
SOURCE_SCHEMA = """
orders(o: int, c: int, amt: int)
customer(c: int, r: int)
region(r: int, name: str)
"""
HUB_SCHEMA = """
sale(o: int, c: int, amt: int)
custreg(c: int, name: str)
"""
MART_SCHEMA = "fact(o: int, name: str, batch)"
REGIONS = 8
#: ``amt >= CUT`` keeps exactly one order in forty.
CUT = 950
PASSING_SHARE = 40

#: class -> (orders, customers) per source.
CLASSES = {"S": (1200, 300), "M": (3000, 600), "L": (6000, 1200)}
#: ops per class in one repetition: 60 % / 25 % / 15 %.
FULL_MIX = {"S": 24, "M": 10, "L": 6}
SMOKE_CLASSES = {"S": (80, 20), "M": (160, 40), "L": (240, 60)}
SMOKE_MIX = {"S": 3, "M": 1, "L": 1}


def rules() -> list[str]:
    texts = []
    for source in SOURCES:
        texts.append(
            f"HUB:sale(o, c, a) <- {source}:orders(o, c, a), "
            f"{source}:customer(c, r), a >= {CUT}"
        )
        texts.append(
            f"HUB:custreg(c, n) <- {source}:orders(o, c, a), "
            f"{source}:customer(c, r), {source}:region(r, n), a >= {CUT}"
        )
    texts.append("MART:fact(o, n, b) <- HUB:sale(o, c, a), HUB:custreg(c, n)")
    return texts


def source_facts(rng: random.Random, index: int, orders: int, customers: int):
    """One source's relations.  Counts are seed-independent by
    construction: exactly ``orders // 40`` orders pass the cut and they
    belong to distinct customers, so every class imports the same
    number of rows whatever the seed; all numbers have fixed widths so
    message bytes are seed-independent too."""
    base = (index + 1) * 1_000_000
    customer_ids = [base + j for j in range(customers)]
    passing = orders // PASSING_SHARE
    passing_slots = set(rng.sample(range(orders), passing))
    passing_customers = iter(rng.sample(customer_ids, passing))
    order_rows = []
    for j in range(orders):
        if j in passing_slots:
            row = (base + j, next(passing_customers), CUT + rng.randrange(1000 - CUT))
        else:
            row = (base + j, rng.choice(customer_ids), 100 + rng.randrange(CUT - 100))
        order_rows.append(row)
    return {
        "orders": order_rows,
        "customer": [(c, rng.randrange(REGIONS)) for c in customer_ids],
        "region": [(r, f"R{r}") for r in range(REGIONS)],
    }


def build(facts: dict[str, dict]) -> CoDBNetwork:
    net = CoDBNetwork(seed=0, with_superpeer=False)
    for source in SOURCES:
        net.add_node(source, SOURCE_SCHEMA, facts=facts[source])
    net.add_node("HUB", HUB_SCHEMA)
    net.add_node("MART", MART_SCHEMA)
    net.add_rules(rules())
    net.start()
    return net


@dataclass
class Op:
    size_class: str
    facts: dict[str, dict]
    check_oracle: bool


@dataclass
class State:
    ops: list[Op]
    #: class -> (rows imported, nulls minted) — the class constants.
    constants: dict[str, tuple[int, int]]
    #: class -> {node: {relation: rows}} from the centralised chase.
    oracle: dict[str, dict]


def set_up(seed: int, smoke: bool) -> State:
    classes = SMOKE_CLASSES if smoke else CLASSES
    mix = SMOKE_MIX if smoke else FULL_MIX
    rng = random.Random(f"{seed}/{NAME}")
    order = [name for name, count in mix.items() for _ in range(count)]
    rng.shuffle(order)
    ops, seen = [], set()
    for size_class in order:
        orders, customers = classes[size_class]
        facts = {
            source: source_facts(rng, index, orders, customers)
            for index, source in enumerate(SOURCES)
        }
        ops.append(Op(size_class, facts, size_class not in seen))
        seen.add(size_class)
    constants, oracle = {}, {}
    for op in ops:
        if not op.check_oracle:
            continue
        net = build(op.facts)
        chase = CentralizedExchange.for_network(net).run_for_network(net)
        constants[op.size_class] = (chase.tuples_added, chase.nulls_minted)
        oracle[op.size_class] = {
            name: chase.node_snapshot(name, node.wrapper.schema)
            for name, node in net.nodes.items()
        }
        # Warm-up: one op of this type, off the clock.
        net.global_update("MART")
    return State(ops, constants, oracle)


def run(state: State, clock, layers: bool = False) -> Outcome:
    outcome = Outcome()
    tally = UpdateTally()
    for op in state.ops:
        net = build(op.facts)
        update = clock.timed(lambda: net.global_update("MART"))
        tally.add_outcome(update)
        tally.add_network(net)
        outcome.wire_bytes += update.transport_bytes
        expected = state.constants[op.size_class]
        got = (update.rows_imported, update.report.total_nulls_minted)
        ok = update.report.outcome == "complete" and got == expected
        if ok and op.check_oracle:
            ok = all(
                rows_equal_up_to_nulls(rows, state.oracle[op.size_class][name][relation])
                for name, node in net.nodes.items()
                for relation, rows in node.snapshot().items()
            )
        if not ok:
            outcome.failed += 1
            outcome.notes.append(
                f"{NAME}: class {op.size_class} update {update.report.outcome}, "
                f"imported/nulls {got}, expected {expected}"
            )
    outcome.counts = tally.counts()
    outcome.layer = tally.layer()
    return outcome


def tear_down(state: State) -> None:
    pass


def traced_layers(plain, traced) -> dict[str, float]:
    """The two executor probes: the rule bodies this workload evaluates
    at its sources, replayed on the other two executors."""
    return probe_executors(plain[0].state)


def probe_executors(state: State, rounds: int = 5) -> dict[str, float]:
    op = next(op for op in state.ops if op.size_class == "S")
    net = build(op.facts)
    bodies = [rule for rule in net.rule_file.rules if rule.source == "S0"]
    schema = net.node("S0").wrapper.schema
    stores = {
        "columnar": MemoryStore(schema),
        "rows": MemoryStore(schema, executor="rows"),
        "sqlite": SqliteStore(schema),
    }
    timings: dict[str, float] = {}
    answers = {}
    try:
        for label, store in stores.items():
            store.load(op.facts["S0"])
            samples = []
            for _ in range(rounds + 1):  # first round compiles the plans
                started = time.perf_counter()
                answers[label] = [
                    len(store.evaluate_mapping_bindings(rule.mapping, rule_key=rule.rule_id))
                    for rule in bodies
                ]
                samples.append(time.perf_counter() - started)
            timings[label] = statistics.median(samples[1:])
    finally:
        stores["sqlite"].close()
    if not answers["columnar"] == answers["rows"] == answers["sqlite"]:
        raise AssertionError(f"executors disagree on the probe: {answers}")
    return {
        "relational.probe.sqlite_over_memory_ratio": timings["sqlite"] / timings["columnar"],
        "relational.probe.rowloop_over_columnar_ratio": timings["rows"] / timings["columnar"],
    }

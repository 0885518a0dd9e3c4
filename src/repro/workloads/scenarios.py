"""Hand-written heterogeneous scenarios.

The topology blueprints keep every node's schema identical so topology
is the only variable.  These scenarios do the opposite: realistic
*different* schemas per node, GLAV rules that reshape data (join in
the body, multiple atoms and existential variables in the head) — the
setting the paper's introduction motivates (autonomous databases in
the Trentino region was the running example of the coDB group's
papers).
"""

from __future__ import annotations

import random

from repro.core.network import CoDBNetwork
from repro.core.node import NodeConfig


def trentino_scenario(
    *, seed: int = 0, config: NodeConfig | None = None
) -> CoDBNetwork:
    """Civil registries of Bolzano and Trento plus a hospital.

    * ``BZ`` — registry of Bolzano: ``person(name, city)`` and
      ``works(name, org)``.
    * ``TN`` — registry of Trento: ``citizen(name)`` and
      ``address(name, city)``.
    * ``HOSP`` — a hospital: ``patient(name, ward)``; its ward for
      migrated records is unknown — the rule's head has an existential
      variable, so the update mints marked nulls.

    The two registries mirror each other (a cyclic rule pair), and the
    hospital imports Trento's citizens.
    """
    net = CoDBNetwork(seed=seed, config=config)
    net.add_node(
        "BZ",
        """
        person(name: str, city: str)
        works(name: str, org: str)
        """,
        facts="""
        person('anna', 'Trento'). person('bruno', 'Bolzano').
        person('carla', 'Merano'). person('dario', 'Trento').
        works('anna', 'unibz'). works('bruno', 'museion').
        works('dario', 'unitn').
        """,
    )
    net.add_node(
        "TN",
        """
        citizen(name: str)
        address(name: str, city: str)
        """,
        facts="""
        citizen('elena'). citizen('fabio').
        address('elena', 'Trento'). address('fabio', 'Rovereto').
        """,
    )
    net.add_node(
        "HOSP",
        "patient(name: str, ward: str)",
        facts="patient('giulia', 'cardiology')",
    )
    # Trento registers every person BZ knows to live in Trento; both
    # the citizen list and the address book are filled by one rule
    # (a conjunctive head).
    net.add_rule(
        "TN:citizen(n), TN:address(n, c) <- BZ:person(n, c), c = 'Trento'"
    )
    # Bolzano mirrors Trento's address book back (closing the cycle).
    net.add_rule("BZ:person(n, c) <- TN:address(n, c)")
    # The hospital admits Trento's citizens; the ward is unknown, so
    # the head's existential variable w becomes a marked null.
    net.add_rule("HOSP:patient(n, w) <- TN:citizen(n)")
    net.start()
    return net


def supply_chain_scenario(
    *, suppliers: int = 3, seed: int = 0, config: NodeConfig | None = None
) -> CoDBNetwork:
    """A distributor aggregating heterogeneous supplier catalogues.

    Each supplier ``S{i}`` exports ``product(sku, price)`` and keeps a
    non-exported ``cost`` relation (exercising the DBS ⊂ LDB split);
    the distributor's schema is ``offer(sku, supplier, price)`` —
    the supplier name is baked in by a constant in the rule head — and
    a ``listed(sku)`` summary filled by a second rule.  A retailer
    imports cheap offers from the distributor with a comparison
    predicate.
    """
    net = CoDBNetwork(seed=seed, config=config)
    for i in range(suppliers):
        rows = [(f"sku{i}_{j}", 10 * (i + 1) + j) for j in range(5)]
        net.add_node(
            f"S{i}",
            """
            product(sku: str, price: int)
            local cost(sku: str, amount: int)
            """,
        )
        net.node(f"S{i}").load_facts({"product": rows})
        net.node(f"S{i}").load_facts(
            {"cost": [(sku, price - 5) for sku, price in rows]}
        )
    net.add_node(
        "DIST",
        """
        offer(sku: str, supplier: str, price: int)
        listed(sku: str)
        """,
    )
    net.add_node("SHOP", "bargain(sku: str, price: int)")
    for i in range(suppliers):
        net.add_rule(
            f"DIST:offer(s, '{f'S{i}'}', p), DIST:listed(s) <- S{i}:product(s, p)"
        )
    net.add_rule("SHOP:bargain(s, p) <- DIST:offer(s, w, p), p <= 20")
    net.start()
    return net


# ---------------------------------------------------------------------------
# Read-heavy query mixes (the answer-cache workloads)
# ---------------------------------------------------------------------------


def read_heavy_mix(
    relation: str = "item",
    *,
    reads: int = 40,
    distinct: int = 4,
    upper: int = 1_000,
    seed: int = 0,
) -> list[str]:
    """A seeded read-heavy query sequence over one unary relation.

    ``reads`` conjunctive queries drawn (with repetition) from a pool
    of ``distinct`` templates — one full scan plus range filters with
    seed-determined cut-offs below ``upper``.  The repetition ratio
    ``reads / distinct`` is the answer cache's working-set knob: every
    repeat of a template between writes is a potential hit, so the
    expected warm hit rate is ``1 - distinct / reads``.
    """
    if distinct < 1:
        raise ValueError(f"need at least one template, got {distinct}")
    rng = random.Random(f"{seed}/read-mix")
    pool = [f"q(x) <- {relation}(x)"]
    while len(pool) < distinct:
        pool.append(f"q(x) <- {relation}(x), x >= {rng.randrange(upper)}")
    return [rng.choice(pool) for _ in range(reads)]


# ---------------------------------------------------------------------------
# Adversarial weather (the fault-injection engine's standard scenarios)
# ---------------------------------------------------------------------------

#: Scenario name -> builder; shared by the randomized differential
#: tests so all of them exercise exactly the same weather.  ``peers``
#: is the network's node list in driver order: flap picks the first
#: edge, a partition cuts the tail half.
FAULT_SCENARIO_NAMES = (
    "duplicate",
    "reorder",
    "delay",
    "dup+reorder+delay",
    "loss-retried",
    "flap",
)


def fault_models(scenario: str, peers: list[str]) -> list:
    """Build the fault-model stack for one named scenario.

    Everything here is *absorbable* weather: duplication is dropped by
    endpoint dedup, reorder/delay only stretch the schedule, losses are
    retried to absorption and flapped links bounce-and-retransmit — so
    each scenario's final states must be differential-equal to the
    fault-free run (the partition scenarios, whose divergence is the
    point, are built explicitly by their tests instead).
    """
    from repro.p2p.faults import (
        Duplication,
        ExtraDelay,
        LinkFlap,
        MessageLoss,
        Reorder,
    )

    stacks = {
        "duplicate": lambda: [Duplication(0.35)],
        "reorder": lambda: [Reorder(0.8, max_extra=0.004)],
        "delay": lambda: [ExtraDelay(0.002, jitter=0.002)],
        "dup+reorder+delay": lambda: [
            Duplication(0.25),
            Reorder(0.6, max_extra=0.003),
            ExtraDelay(0.001, jitter=0.001),
        ],
        "loss-retried": lambda: [
            MessageLoss(0.25, retries=25, retry_delay=0.002)
        ],
        "flap": lambda: [
            LinkFlap(peers[0], peers[1], down_every=4, down_for=2)
        ],
    }
    if scenario not in stacks:
        raise ValueError(
            f"unknown fault scenario {scenario!r} "
            f"(known: {', '.join(FAULT_SCENARIO_NAMES)})"
        )
    return stacks[scenario]()


def install_fault_scenario(net: CoDBNetwork, scenario: str, *, seed: int = 0):
    """Install one named scenario on a (started) simulator network;
    returns the bound :class:`~repro.p2p.faults.FaultInjector`."""
    from repro.p2p.faults import FaultInjector

    peers = list(net.nodes)
    injector = FaultInjector(*fault_models(scenario, peers), seed=seed)
    net.transport.install_faults(injector)
    return injector

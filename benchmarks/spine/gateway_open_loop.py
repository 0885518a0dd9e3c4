"""``gateway_open_loop`` — the service front door under a fixed schedule.

Open loop: one asyncio generator in the benchmark process sends to
``serve_in_thread`` over the 3-node ``A <- B <- C`` simulator chain of
``benchmarks/bench_gateway.py``.  Four tenants with quotas wide enough
that nothing is refused; 80 % cache-capable network queries at ``A``,
20 % global updates, in an exact seeded order on a uniform schedule
(plus a seeded sub-millisecond phase per request, see ``openloop``).
The end-to-end metrics are the **100 req/s** step (rate × p50 < 1, so
at most two requests are in flight on two cores).  The traced run adds
steps at 50 and 200 req/s and a direct-handle baseline of the same mix.

Why: the only workload where ``service`` — HTTP parse, executor hop,
quotas, result long-poll — is most of the latency and the peers do
little.  It bypasses every executor and codec optimisation, so those
must predict "no change" here.  Latency rises before throughput stops
rising, so a ``service`` gain shows first in ``…latency_p90_ms_at_200``.

Check: nothing lost, every reply ``200 ok``, every query answer equals
the expected key set, every update ``complete``; generator lag reported.
"""

from __future__ import annotations

import asyncio
import random
import statistics
import time
from dataclasses import dataclass

from repro import CoDBNetwork, NodeConfig, TenantQuotas
from repro.relational.values import encode_row
from repro.service import serve_in_thread
from repro.service.loadgen import http_json

from .harness import Outcome, percentile
from .openloop import Arrival, StepResult, run_step

NAME = "gateway_open_loop"

QUERY = "q(x) <- item(x)"
TENANTS = ("t0", "t1", "t2", "t3")
TUPLES = 60
#: The reported step, and the two the traced run adds around it.
RATE = 100.0
LOW_RATE, HIGH_RATE = 50.0, 200.0
#: Latency limit on p90 for ``service.gateway.slo_rate_ops_s``.
SLO_P90_MS = 50.0
FULL = {"requests": 150, "side_requests": 100, "direct": 100}
SMOKE = {"requests": 20, "side_requests": 10, "direct": 10}


def build(keys_b: list[int], keys_c: list[int]) -> CoDBNetwork:
    net = CoDBNetwork(
        seed=0, with_superpeer=False, config=NodeConfig(max_active_sessions=4)
    )
    net.add_node("A", "item(k: int)")
    net.add_node("B", "item(k: int)", facts={"item": [(k,) for k in keys_b]})
    net.add_node("C", "item(k: int)", facts={"item": [(k,) for k in keys_c]})
    net.add_rule("A:item(k) <- B:item(k)")
    net.add_rule("B:item(k) <- C:item(k)")
    net.start()
    # Steady state: everything has migrated to A before the first request.
    net.global_update("A")
    return net


def schedule(rng: random.Random, total: int) -> list[Arrival]:
    """Exactly one update in five, in seeded order, tenants round-robin."""
    kinds = ["update"] * (total // 5) + ["query"] * (total - total // 5)
    rng.shuffle(kinds)
    arrivals = []
    for index, kind in enumerate(kinds):
        tenant = TENANTS[index % len(TENANTS)]
        jitter_s = rng.random() * 1e-3
        if kind == "update":
            arrivals.append(Arrival(kind, "/v1/update", {"origin": "A"}, tenant, jitter_s))
        else:
            body = {"node": "A", "query": QUERY, "mode": "network"}
            arrivals.append(Arrival(kind, "/v1/query", body, tenant, jitter_s))
    return arrivals


@dataclass
class State:
    keys: tuple[list[int], list[int]]
    net: CoDBNetwork
    gateway: object
    expected_rows: list
    #: rate -> arrivals of that step
    steps: dict[float, list[Arrival]]
    direct: list[Arrival]


def set_up(seed: int, smoke: bool) -> State:
    size = SMOKE if smoke else FULL
    rng = random.Random(f"{seed}/{NAME}")
    keys_b = rng.sample(range(100_000, 200_000), TUPLES)
    keys_c = rng.sample(range(200_000, 300_000), TUPLES)
    steps = {
        LOW_RATE: schedule(rng, size["side_requests"]),
        RATE: schedule(rng, size["requests"]),
        HIGH_RATE: schedule(rng, size["side_requests"]),
    }
    direct = schedule(rng, size["direct"])
    net = build(keys_b, keys_c)
    expected = sorted(encode_row((k,)) for k in keys_b + keys_c)
    gateway = serve_in_thread(net, quotas=TenantQuotas(64))
    state = State((keys_b, keys_c), net, gateway, expected, steps, direct)
    # Warm-up: one request of each type through the whole HTTP path.
    warm = schedule(random.Random(0), 5)
    result = asyncio.run(
        run_step(gateway.host, gateway.port, warm, RATE, check=checker(state))
    )
    if result.failed or result.lost:
        raise RuntimeError(f"{NAME}: warm-up failed: {result.errors}")
    return state


def checker(state: State):
    def check(arrival: Arrival, reply: dict) -> bool:
        result = reply.get("result") or {}
        if arrival.kind == "update":
            return result.get("outcome") == "complete"
        return sorted(result.get("rows", [])) == state.expected_rows

    return check


def drive(state: State, rate: float, clock, tracer=None) -> StepResult:
    """One rate step, with kernel runs before and after it."""
    gateway = state.gateway
    clock.calibrate(runs=15)
    if tracer is not None:
        tracer.request = f"step-{rate:g}"
    try:
        result = asyncio.run(
            run_step(
                gateway.host, gateway.port, state.steps[rate], rate,
                check=checker(state), tracer=tracer,
            )
        )
    finally:
        if tracer is not None:
            tracer.request = None
    clock.calibrate(runs=15)
    return result


def run_direct(state: State) -> list[float]:
    """The same kind of mix straight through the handle API on an
    identical network: what a request costs without the front door."""
    net = build(*state.keys)
    latencies = []
    try:
        net.query("A", QUERY, mode="network")  # fill the cache, as warm-up did
        for arrival in state.direct:
            started = time.perf_counter()
            if arrival.kind == "update":
                net.submit_global_update("A", tenant=arrival.tenant).result()
            else:
                net.submit_query("A", QUERY, mode="network", tenant=arrival.tenant).result()
            net.run()
            latencies.append((time.perf_counter() - started) * 1e3)
    finally:
        net.stop()
    return latencies


def run(state: State, clock, layers: bool = False) -> Outcome:
    outcome = Outcome()
    net = state.net
    steps: dict[float, StepResult] = {}
    if layers:
        steps[LOW_RATE] = drive(state, LOW_RATE, clock)
    before = net.lifetime_totals()["A"]
    kinds_before = dict(net.transport.stats.by_kind)
    messages_before = net.transport.stats.messages_sent
    bytes_before = net.transport.stats.bytes_sent
    main = steps[RATE] = drive(state, RATE, clock, clock.tracer)
    after = net.lifetime_totals()["A"]
    messages = net.transport.stats.messages_sent - messages_before
    outcome.wire_bytes = net.transport.stats.bytes_sent - bytes_before
    acks = net.transport.stats.by_kind.get("ack", 0) - kinds_before.get("ack", 0)
    if layers:
        steps[HIGH_RATE] = drive(state, HIGH_RATE, clock)

    for rate, step in steps.items():
        outcome.failed += step.failed + step.lost
        outcome.notes += [f"{NAME} at {rate:g}/s: {error}" for error in step.errors[:3]]
        if step.lost:
            outcome.notes.append(f"{NAME} at {rate:g}/s: {step.lost} requests lost")
    outcome.lat_ms = main.latency_ms
    outcome.unscaled_ms = main.completed_lag_ms
    outcome.wall_s = main.wall_s
    outcome.cpu_ms = main.cpu_ms
    hits = after["cache_hits"] - before["cache_hits"]
    misses = after["cache_misses"] - before["cache_misses"]
    outcome.counts = {
        "sent": main.sent,
        "completed": main.completed,
        "updates": sum(a.kind == "update" for a in state.steps[RATE]),
        "messages": messages,
        "bytes": outcome.wire_bytes,
        "cache_hits": hits,
        "cache_misses": misses,
    }
    outcome.layer = {
        "core.answercache.hit_frac": hits / max(1, hits + misses),
        "core.answercache.evictions_per_op": (
            after["cache_evictions"] - before["cache_evictions"]
        ) / main.sent,
        "core.termination.ack_msgs_per_op": acks / main.sent,
        "core.termination.ack_frac": acks / max(1, messages),
        "p2p.messages.msgs_per_op": messages / main.sent,
        "p2p.messages.bytes_per_msg": outcome.wire_bytes / max(1, messages),
        "service.quotas.rejected_frac": main.rejected / main.sent,
        "service.loadgen.peak_inflight": float(main.peak_inflight),
    }
    outcome.samples = {
        "service.gateway.submit_ms_p50": (main.submit_ms, 50),
        "service.gateway.result_wait_ms_p50": (main.result_ms, 50),
        "service.loadgen.lag_ms_p90": (main.lag_ms, 90),
    }
    if layers:
        outcome.samples["service.gateway.latency_p90_ms_at_50"] = (
            steps[LOW_RATE].latency_ms, 90,
        )
        outcome.samples["service.gateway.latency_p90_ms_at_200"] = (
            steps[HIGH_RATE].latency_ms, 90,
        )
        # Highest fixed rate that meets the limit with no growing
        # backlog (completions keep up with the schedule).
        outcome.layer["service.gateway.slo_rate_ops_s"] = max(
            (
                rate
                for rate, step in steps.items()
                if step.latency_ms
                and percentile(step.latency_ms, 90) <= SLO_P90_MS
                and step.completed / step.wall_s >= 0.95 * rate
            ),
            default=0.0,
        )
        direct = run_direct(state)
        outcome.layer_ms["service.gateway.hop_ms_p50"] = percentile(
            main.latency_ms, 50
        ) - percentile(direct, 50)
        started = time.perf_counter()
        status, _body, _headers = asyncio.run(
            http_json(state.gateway.host, state.gateway.port, "GET", "/metrics")
        )
        outcome.layer_ms["service.metrics.render_ms"] = (
            time.perf_counter() - started
        ) * 1e3
        if status != 200:
            outcome.failed += 1
            outcome.notes.append(f"{NAME}: /metrics answered HTTP {status}")
    return outcome


def tear_down(state: State) -> None:
    state.gateway.stop()
    state.net.stop()


def traced_layers(plain, traced) -> dict[str, float]:
    """Client-side phases cover the server's work in time, so the
    ``service`` share is what the phases took minus what the peers did
    underneath them."""
    shares, coverage = [], []
    for rep in traced:
        table = rep.tracer.self_times()
        phases = sum(
            row["total_ms"] for name, row in table.items()
            if name.startswith("service.loadgen.")
        )
        peers = sum(
            row["self_ms"] for name, row in table.items()
            if not name.startswith(("service.", "bench."))
        )
        shares.append((phases - peers) * rep.wall_factor / rep.ops)
        # What the phases do not cover is the generator's lag.
        coverage.append(phases / sum(rep.lat_ms))
    return {
        "service.self_ms_per_op": statistics.median(shares),
        "bench.trace_coverage_frac": statistics.median(coverage),
    }

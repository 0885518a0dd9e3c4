"""Repetitions, calibration and aggregation — shared by all workloads.

One *repetition* is: set up from the seed (inputs, oracle, first
build, warm-up — timed as set-up), then run the workload's fixed,
count-boxed operation sequence from that fresh state.  A run makes as
many repetitions as fit into ``--seconds`` (at least three), so a run's
length is bounded while every repetition measures exactly the same
operation mix; a faster tree completes more repetitions, never a
different mix.  The first repetition whose state a probe needs is the
only one kept; the rest are dropped as they finish.

Noise discipline, all of it enforced here:

* every timed op is preceded, off the clock, by ``gc.collect()`` and one
  run of the reference kernel; a repetition's time metrics are
  multiplied by ``KERNEL_REF_MS / median(kernel times in it)``;
* count metrics must be identical in every repetition, or the run
  fails — the guard against racing an asynchronous cascade;
* every time metric is computed per repetition and aggregated with
  :func:`undisturbed` — the good-side quartile over repetitions.
"""

from __future__ import annotations

import gc
import itertools
import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any

from .kernel import KERNEL_REF_MS, calibration_factor, kernel_ms
from .trace import Tracer, layer_of, targets

#: name -> unit, in the order BENCHMARK.json lists them.
END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "throughput_ops_s": "1/s",
    "cpu_ms_per_op": "ms",
    "wire_bytes_per_op": "B",
    "peak_rss_mb": "MB",
}

#: name -> unit of every per-layer metric; each is reported on every
#: workload (0 where the layer does no work on that workload).
PER_LAYER = {
    "relational.self_ms_per_op": "ms",
    "core.self_ms_per_op": "ms",
    "p2p.self_ms_per_op": "ms",
    "service.self_ms_per_op": "ms",
    "relational.planner.compile_ms_per_op": "ms",
    "relational.planner.plan_cache_hit_frac": "ratio",
    "relational.wrapper.evaluate_ms_per_op": "ms",
    "relational.wrapper.rows_scanned_per_row_out": "ratio",
    "relational.executor.columnar_frac": "ratio",
    "relational.wrapper.insert_ms_per_op": "ms",
    "relational.wrapper.insert_new_frac": "ratio",
    "relational.probe.sqlite_over_memory_ratio": "ratio",
    "relational.probe.rowloop_over_columnar_ratio": "ratio",
    "core.update.ingest_ms_per_op": "ms",
    "core.update.rows_imported_per_op": "count",
    "core.update.rows_suppressed_per_op": "count",
    "core.update.rounds_per_op": "count",
    "core.update.result_msgs_per_rule": "count",
    "core.update.volume_per_msg_mean_b": "B",
    "core.update.longest_path": "count",
    "core.update.repeat_cost_ratio": "ratio",
    "core.termination.ack_msgs_per_op": "count",
    "core.termination.ack_frac": "ratio",
    "core.termination.on_ack_ms_per_op": "ms",
    "core.answercache.hit_ms_p50": "ms",
    "core.answercache.hit_frac": "ratio",
    "core.answercache.evictions_per_op": "count",
    "core.query.miss_ms_p50": "ms",
    "core.query.miss_drift_ratio": "ratio",
    "core.query.msgs_per_miss": "count",
    "core.node.write_settle_ms_p50": "ms",
    "core.node.invalidation_msgs_per_write": "count",
    "core.node.invalidations_coalesced_per_write": "count",
    "p2p.messages.encode_ms_per_op": "ms",
    "p2p.messages.decode_ms_per_op": "ms",
    "p2p.messages.size_bytes_ms_per_op": "ms",
    "p2p.messages.bytes_per_msg": "B",
    "p2p.messages.msgs_per_op": "count",
    "p2p.tcp.send_self_ms_per_op": "ms",
    "p2p.tcp.wait_ms_per_op": "ms",
    "p2p.tcp.wire_over_payload_ratio": "ratio",
    "p2p.probe.binary_over_json_encode_ratio": "ratio",
    "p2p.probe.binary_over_json_bytes_ratio": "ratio",
    "service.gateway.submit_ms_p50": "ms",
    "service.gateway.result_wait_ms_p50": "ms",
    "service.gateway.hop_ms_p50": "ms",
    "service.gateway.latency_p90_ms_at_50": "ms",
    "service.gateway.latency_p90_ms_at_200": "ms",
    "service.gateway.slo_rate_ops_s": "1/s",
    "service.quotas.rejected_frac": "ratio",
    "service.metrics.render_ms": "ms",
    "service.loadgen.lag_ms_p90": "ms",
    "service.loadgen.peak_inflight": "count",
    "bench.trace_overhead_frac": "ratio",
    "bench.trace_coverage_frac": "ratio",
    "bench.kernel_ms_p50": "ms",
    "bench.kernel_spread": "ratio",
}

#: span name -> the per-op layer metric its self time feeds.
SPAN_METRICS = {
    "relational.planner.plan": "relational.planner.compile_ms_per_op",
    "relational.wrapper.evaluate": "relational.wrapper.evaluate_ms_per_op",
    "relational.wrapper.insert": "relational.wrapper.insert_ms_per_op",
    "core.update.ingest": "core.update.ingest_ms_per_op",
    "core.termination.on_ack": "core.termination.on_ack_ms_per_op",
    "p2p.messages.encode": "p2p.messages.encode_ms_per_op",
    "p2p.messages.decode": "p2p.messages.decode_ms_per_op",
    "p2p.messages.size_bytes": "p2p.messages.size_bytes_ms_per_op",
    "p2p.tcp.send": "p2p.tcp.send_self_ms_per_op",
}


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def undisturbed(values, *, best=min) -> float:
    """A metric's value across repetitions: the quartile on its good
    side.  Interference on a shared box only ever makes a repetition
    worse, so the good-side quartile is what the tree does when left
    alone, yet unlike the single best repetition it is not an outlier
    itself.  (Over ten seeds in a noisy hour this held every time
    metric to 2-4 %, where pooled percentiles and medians over
    repetitions spread by 8-12 %.)"""
    values = list(values)
    if len(values) < 2:
        return values[0]
    quartiles = statistics.quantiles(values, n=4)
    return quartiles[0] if best is min else quartiles[2]


class OpClock:
    """Times the operations of one repetition (see module docstring)."""

    def __init__(self, tracer: Tracer | None = None) -> None:
        self.tracer = tracer
        self.lat_ms: list[float] = []
        self.cpu_ms = 0.0
        self.kernel_ms: list[float] = []

    def calibrate(self, runs: int = 1) -> None:
        """Off-the-clock kernel runs (open loops call this around a step)."""
        gc.collect()
        for _ in range(runs):
            self.kernel_ms.append(kernel_ms())

    def timed(self, operation):
        """Run ``operation()`` on the clock; returns its result."""
        self.calibrate()
        tracer = self.tracer
        root = None
        if tracer is not None:
            tracer.request = len(self.lat_ms)
            root = tracer.begin("bench.op")
        cpu_started = time.process_time()
        started = time.perf_counter()
        try:
            return operation()
        finally:
            finished = time.perf_counter()
            self.cpu_ms += (time.process_time() - cpu_started) * 1e3
            self.lat_ms.append((finished - started) * 1e3)
            if tracer is not None:
                tracer.end(root)
                tracer.request = None


@dataclass
class Outcome:
    """What a workload's ``run`` hands back for one repetition."""

    failed: int = 0
    #: Exact counters (messages, bytes, rows, hits ...): identical in
    #: every repetition or the run fails.
    counts: dict[str, int] = field(default_factory=dict)
    wire_bytes: int = 0
    #: Finished per-layer values of this repetition (counts, ratios).
    layer: dict[str, float] = field(default_factory=dict)
    #: Per-repetition layer values in milliseconds (calibrated here).
    layer_ms: dict[str, float] = field(default_factory=dict)
    #: Per-layer millisecond samples to pool: name -> (samples, pct).
    samples: dict[str, tuple[list[float], float]] = field(default_factory=dict)
    #: Open loops report their own latencies / wall / cpu instead of
    #: going through :meth:`OpClock.timed`.
    lat_ms: list[float] | None = None
    #: The part of each of those latencies spent waiting on the wall
    #: clock rather than on the CPU (the generator's timer lag).
    unscaled_ms: list[float] | None = None
    wall_s: float | None = None
    cpu_ms: float | None = None
    notes: list[str] = field(default_factory=list)


@dataclass
class Repetition:
    traced: bool
    setup_s: float
    ops: int
    outcome: Outcome
    lat_ms: list[float]
    wall_s: float
    cpu_ms: float
    kernel_ms: list[float]
    tracer: Tracer | None
    #: Open loops run on a wall-clock schedule: their rate does not
    #: depend on machine speed, and neither does the part of a latency
    #: that is the generator's timer lag (``outcome.unscaled_ms``).
    #: Only what the request spent being served is calibrated.
    open_loop: bool
    #: The workload's set-up product (inputs, oracle), kept for probes.
    state: Any

    @property
    def factor(self) -> float:
        return calibration_factor(self.kernel_ms)

    @property
    def wall_factor(self) -> float:
        return 1.0 if self.open_loop else self.factor

    @property
    def throughput_ops_s(self) -> float:
        return len(self.lat_ms) / (self.wall_s * self.wall_factor)

    def latency_ms(self, pct: float) -> float:
        """A percentile of this repetition's calibrated latencies."""
        factor = self.factor
        unscaled = self.outcome.unscaled_ms or [0.0] * len(self.lat_ms)
        return percentile(
            [fixed + (ms - fixed) * factor for ms, fixed in zip(self.lat_ms, unscaled)],
            pct,
        )


def one_repetition(
    workload, seed: int, smoke: bool, traced: bool, layers: bool
) -> Repetition:
    gc.collect()
    tracer = Tracer() if traced else None
    if tracer is not None:
        # Before set-up: nodes bind their handlers at construction.
        tracer.install(targets())
    try:
        started = time.perf_counter()
        state = workload.set_up(seed, smoke)
        setup_s = time.perf_counter() - started
        clock = OpClock(tracer)
        # The inputs live until the repetition ends: keep them out of
        # the per-op collections, which then cost what the op left behind.
        gc.collect()
        gc.freeze()
        try:
            outcome = workload.run(state, clock, layers)
        finally:
            gc.unfreeze()
            workload.tear_down(state)
    finally:
        if tracer is not None:
            tracer.request = None
            tracer.uninstall()
    open_loop = outcome.lat_ms is not None
    lat_ms = outcome.lat_ms if open_loop else clock.lat_ms
    return Repetition(
        traced=traced,
        setup_s=setup_s,
        # A closed loop times failed ops too; a lost request has no latency.
        ops=len(lat_ms) + (outcome.failed if open_loop else 0),
        outcome=outcome,
        lat_ms=lat_ms,
        wall_s=outcome.wall_s if open_loop else sum(lat_ms) / 1e3,
        cpu_ms=outcome.cpu_ms if open_loop else clock.cpu_ms,
        kernel_ms=clock.kernel_ms,
        tracer=tracer,
        open_loop=open_loop,
        state=state,
    )


def measure(
    workload, *, seed: int, seconds: float, trace: bool, smoke: bool, import_s: float
) -> dict[str, Any]:
    """Run repetitions for ``seconds`` and aggregate; returns the run
    record (``result`` holds the contract's last-line object).
    ``import_s`` is what importing the program took in this process:
    part of ``setup_s``, calibrated by kernel runs made right here."""
    import_kernel_ms = [kernel_ms() for _ in range(15)] if import_s else []
    started = time.perf_counter()
    reps: list[Repetition] = []
    order = itertools.cycle([False, True]) if trace else itertools.repeat(False)
    least = 2 if (smoke or trace) else 3
    while True:
        reps.append(one_repetition(workload, seed, smoke, next(order), trace))
        if len(reps) > 1 or not trace:
            # Only the probes of a traced run read a state again, and
            # one is enough; holding more would make peak RSS grow with
            # the number of repetitions.
            reps[-1].state = None
        elapsed = time.perf_counter() - started
        complete = len(reps) >= least and not (trace and len(reps) % 2)
        # Stop once the next repetition (pair, when tracing) would end
        # further past the budget than stopping now falls short of it.
        step = elapsed / len(reps) * (2 if trace else 1)
        if complete and (smoke or elapsed + step / 2 > seconds):
            break
    problems = check(reps)
    record: dict[str, Any] = {
        "workload": workload.NAME,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "kernel_ref_ms": KERNEL_REF_MS,
        "repetitions": [describe(rep) for rep in reps],
        "problems": problems,
    }
    if trace:
        metrics = layer_metrics(workload, reps, record)
        units = PER_LAYER
    else:
        metrics = end_to_end(reps, import_s, import_kernel_ms, record)
        units = END_TO_END
    attempted = sum(rep.ops for rep in reps)
    failed = sum(rep.outcome.failed for rep in reps)
    record["result"] = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    record["tracer"] = next((rep.tracer for rep in reps if rep.tracer), None)
    return record


def check(reps: list[Repetition]) -> list[str]:
    """Everything that makes the run invalid, as readable lines."""
    problems = [note for rep in reps for note in rep.outcome.notes]
    first = reps[0].outcome
    for index, rep in enumerate(reps[1:], start=1):
        for name in sorted(set(first.counts) | set(rep.outcome.counts)):
            ours, theirs = first.counts.get(name), rep.outcome.counts.get(name)
            if ours != theirs:
                problems.append(
                    f"count {name} differs between repetitions: "
                    f"{ours} (rep 0) vs {theirs} (rep {index})"
                )
        if rep.outcome.wire_bytes != first.wire_bytes:
            problems.append(
                f"wire bytes differ between repetitions: "
                f"{first.wire_bytes} (rep 0) vs {rep.outcome.wire_bytes} (rep {index})"
            )
    return problems


def describe(rep: Repetition) -> dict[str, Any]:
    """One repetition in the run record: raw values, the calibration
    factor and the calibrated medians, so spread is visible per rep."""
    factor = rep.factor
    return {
        "traced": rep.traced,
        "ops": rep.ops,
        "failed": rep.outcome.failed,
        "kernel_ms_p50": statistics.median(rep.kernel_ms),
        "factor": factor,
        "setup_s_raw": rep.setup_s,
        "wall_s_raw": rep.wall_s,
        "cpu_ms_raw": rep.cpu_ms,
        "latency_p50_ms_raw": percentile(rep.lat_ms, 50),
        "latency_p90_ms_raw": percentile(rep.lat_ms, 90),
        "latency_p50_ms": rep.latency_ms(50),
        "latency_p90_ms": rep.latency_ms(90),
        "throughput_ops_s": rep.throughput_ops_s,
        "cpu_ms_per_op": rep.cpu_ms * factor / rep.ops,
        "setup_s": rep.setup_s * factor,
        "counts": rep.outcome.counts,
        "wire_bytes": rep.outcome.wire_bytes,
    }


def end_to_end(
    reps: list[Repetition], import_s: float, import_kernel_ms: list[float], record: dict
) -> dict[str, float]:
    import_factor = calibration_factor(import_kernel_ms) if import_kernel_ms else 1.0
    record["raw"] = {
        "import_s": import_s,
        "setup_s": import_s + undisturbed(rep.setup_s for rep in reps),
        "latency_p50_ms": undisturbed(percentile(rep.lat_ms, 50) for rep in reps),
        "latency_p90_ms": undisturbed(percentile(rep.lat_ms, 90) for rep in reps),
        "throughput_ops_s": undisturbed(
            (len(rep.lat_ms) / rep.wall_s for rep in reps), best=max
        ),
        "cpu_ms_per_op": undisturbed(rep.cpu_ms / rep.ops for rep in reps),
        "samples": sum(len(rep.lat_ms) for rep in reps),
    }
    return {
        "setup_s": import_s * import_factor
        + undisturbed(rep.setup_s * rep.factor for rep in reps),
        "latency_p50_ms": undisturbed(rep.latency_ms(50) for rep in reps),
        "latency_p90_ms": undisturbed(rep.latency_ms(90) for rep in reps),
        "throughput_ops_s": undisturbed(
            (rep.throughput_ops_s for rep in reps), best=max
        ),
        "cpu_ms_per_op": undisturbed(
            rep.cpu_ms * rep.factor / rep.ops for rep in reps
        ),
        "wire_bytes_per_op": reps[0].outcome.wire_bytes / reps[0].ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def layer_metrics(workload, reps: list[Repetition], record: dict) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric.  Timed sub-operations and counts
    come from the untraced repetitions (no tracing overhead in them);
    self times come from the traced ones."""
    plain = [rep for rep in reps if not rep.traced]
    traced = [rep for rep in reps if rep.traced]
    metrics = dict.fromkeys(PER_LAYER, 0.0)

    for name in plain[0].outcome.layer:
        metrics[name] = statistics.median(rep.outcome.layer[name] for rep in plain)
    for name in plain[0].outcome.layer_ms:
        metrics[name] = statistics.median(
            rep.outcome.layer_ms[name] * rep.wall_factor for rep in plain
        )
    for name, (_samples, pct) in plain[0].outcome.samples.items():
        pooled = [
            ms * rep.wall_factor for rep in plain for ms in rep.outcome.samples[name][0]
        ]
        if pooled:
            metrics[name] = percentile(pooled, pct)

    tables = []
    layer_self = {layer: [] for layer in ("relational", "core", "p2p", "service")}
    span_values: dict[str, list[float]] = {name: [] for name in SPAN_METRICS.values()}
    coverage = []
    for rep in traced:
        table = rep.tracer.self_times()
        tables.append(table)
        per_op = rep.wall_factor / rep.ops
        for span, metric in SPAN_METRICS.items():
            span_values[metric].append(table.get(span, {}).get("self_ms", 0.0) * per_op)
        for layer, values in layer_self.items():
            values.append(
                sum(row["self_ms"] for span, row in table.items() if layer_of(span) == layer)
                * per_op
            )
        op_wall = table.get("bench.op", {}).get("total_ms", 0.0)
        if op_wall:
            coverage.append(1.0 - table["bench.op"]["self_ms"] / op_wall)
        counters = rep.tracer.counters
        if counters.get("rows_out"):
            metrics["relational.wrapper.rows_scanned_per_row_out"] = (
                counters["rows_scanned"] / counters["rows_out"]
            )
        if counters.get("rows_offered"):
            metrics["relational.wrapper.insert_new_frac"] = (
                counters["rows_new"] / counters["rows_offered"]
            )
        if counters.get("payload_bytes"):
            metrics["p2p.tcp.wire_over_payload_ratio"] = (
                rep.outcome.wire_bytes / counters["payload_bytes"]
            )
    for metric, values in span_values.items():
        metrics[metric] = statistics.median(values)
    for layer, values in layer_self.items():
        metrics[f"{layer}.self_ms_per_op"] = statistics.median(values)
    if coverage:
        metrics["bench.trace_coverage_frac"] = statistics.median(coverage)

    # Workload-specific layer values that need the tracer (client-side
    # HTTP phases, probes replaying captured inputs).
    metrics.update(workload.traced_layers(plain, traced))

    plain_wall = statistics.median(rep.wall_s * rep.wall_factor for rep in plain)
    traced_wall = statistics.median(rep.wall_s * rep.wall_factor for rep in traced)
    metrics["bench.trace_overhead_frac"] = traced_wall / plain_wall - 1.0
    kernel = [ms for rep in reps for ms in rep.kernel_ms]
    quartiles = statistics.quantiles(kernel, n=4)
    metrics["bench.kernel_ms_p50"] = statistics.median(kernel)
    metrics["bench.kernel_spread"] = (quartiles[2] - quartiles[0]) / quartiles[1]
    record["self_times"] = tables[0]
    return metrics

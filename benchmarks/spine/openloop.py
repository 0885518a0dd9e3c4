"""An open-loop HTTP driver that times every request from when it was due.

``repro.service.loadgen.run_open_loop`` starts a request's clock inside
its task, after the generator got round to creating it — so when the
generator (or the gateway) stalls, the wait that stall imposes on later
arrivals never shows.  This driver fixes the schedule up front, stamps
each request with its *due* time, measures latency from that instant
and reports how late the generator actually ran.  It reuses the
loadgen's ``http_json`` client and changes nothing under ``src/``.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.service.loadgen import http_json

from .trace import Tracer


@dataclass
class Arrival:
    kind: str  # "query" | "update"
    path: str
    body: dict[str, Any]
    tenant: str
    #: Seeded sub-millisecond offset added to this arrival's slot.  The
    #: event loop wakes on whole milliseconds, so on an exact 10 ms grid
    #: every request of a step would leave late by the same fraction of
    #: a millisecond — a random constant per step on a 3 ms latency.
    #: With the phase spread uniformly, that lag averages out inside
    #: each step instead of between them.
    jitter_s: float = 0.0


@dataclass
class StepResult:
    rate: float
    sent: int = 0
    completed: int = 0
    failed: int = 0
    rejected: int = 0
    wall_s: float = 0.0
    cpu_ms: float = 0.0
    peak_inflight: int = 0
    #: Due-to-done latency of each completed request, milliseconds.
    latency_ms: list[float] = field(default_factory=list)
    #: How late each request left the generator, milliseconds.
    lag_ms: list[float] = field(default_factory=list)
    #: The same lag, of the completed requests only (pairs with
    #: ``latency_ms``): the part of a latency the CPU's speed cannot move.
    completed_lag_ms: list[float] = field(default_factory=list)
    submit_ms: list[float] = field(default_factory=list)
    result_ms: list[float] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    @property
    def lost(self) -> int:
        return self.sent - self.completed - self.failed


async def run_step(
    host: str,
    port: int,
    arrivals: list[Arrival],
    rate: float,
    *,
    check: Callable[[Arrival, dict[str, Any]], bool],
    tracer: Tracer | None = None,
    wait_timeout: float = 30.0,
) -> StepResult:
    """Send ``arrivals`` at ``rate`` per second on a fixed schedule,
    whatever the replies do; returns once every request has settled."""
    loop = asyncio.get_running_loop()
    result = StepResult(rate=rate)
    inflight = 0

    async def one(index: int, arrival: Arrival, due: float) -> None:
        nonlocal inflight
        lag_ms = (loop.time() - due) * 1e3
        result.lag_ms.append(lag_ms)
        inflight += 1
        result.peak_inflight = max(result.peak_inflight, inflight)
        try:
            sent_ns = time.perf_counter_ns()
            status, reply, _headers = await http_json(
                host, port, "POST", arrival.path, arrival.body,
                headers={"X-Tenant": arrival.tenant}, timeout=wait_timeout,
            )
            accepted_ns = time.perf_counter_ns()
            if status == 429:
                result.rejected += 1
            if status != 202:
                result.failed += 1
                result.errors.append(f"submit {arrival.kind}: HTTP {status} {reply}")
                return
            status, reply, _headers = await http_json(
                host, port, "GET",
                f"/v1/result/{reply['request_id']}?wait={wait_timeout:g}",
                timeout=wait_timeout * 2,
            )
            done_ns = time.perf_counter_ns()
            done_at = loop.time()
            if status == 200 and reply.get("ok") and check(arrival, reply):
                result.completed += 1
                result.latency_ms.append((done_at - due) * 1e3)
                result.completed_lag_ms.append(lag_ms)
                result.submit_ms.append((accepted_ns - sent_ns) / 1e6)
                result.result_ms.append((done_ns - accepted_ns) / 1e6)
                if tracer is not None:
                    tracer.flat_span("service.loadgen.submit", sent_ns, accepted_ns, index)
                    tracer.flat_span("service.loadgen.result_wait", accepted_ns, done_ns, index)
            else:
                result.failed += 1
                result.errors.append(f"result {arrival.kind}: HTTP {status} {reply}")
        except (OSError, asyncio.TimeoutError) as exc:
            result.failed += 1
            result.errors.append(f"{arrival.kind}: {type(exc).__name__}: {exc}")
        finally:
            inflight -= 1

    cpu_started = time.process_time()
    started = loop.time()
    tasks = []
    for index, arrival in enumerate(arrivals):
        due = started + index / rate + arrival.jitter_s
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        result.sent += 1
        tasks.append(loop.create_task(one(index, arrival, due)))
    await asyncio.gather(*tasks)
    result.wall_s = loop.time() - started
    result.cpu_ms = (time.process_time() - cpu_started) * 1e3
    return result

"""Async open-loop load generation against the service gateway.

An *open-loop* generator submits on a fixed arrival schedule
regardless of how fast responses come back — the arrival process does
not slow down when the server does, which is what exposes queueing
behaviour (closed-loop "submit, wait, repeat" drivers self-throttle
and hide it).  Combined with per-tenant round-robin arrivals it is the
adversarial-skew workload the gateway's quotas are built for: a greedy
tenant's arrivals keep coming, its 429s pile up, everyone else keeps
their slots.

Stdlib only: a minimal asyncio HTTP/1.1 client and an NDJSON stream
reader.  ``http_json`` keeps connections alive: a running event loop
parks the ones it opened, per ``(host, port)``, reuses them for later
requests (the gateway keeps per-request state, not per-connection) and
closes them when it winds down, so at most as many are open as requests
were ever in flight at once.  Used by
``benchmarks/spine/gateway_open_loop.py``, the service tests and
``repro serve --selftest``.
"""

from __future__ import annotations

import asyncio
import json
import random
from dataclasses import dataclass, field
from typing import Any, AsyncIterator, Callable

from repro.errors import CoDBError
from repro.service.gateway import parse_header_lines
from repro.service.metrics import quantile


# ----------------------------------------------------------------------
# Minimal HTTP client
# ----------------------------------------------------------------------

#: Idle keep-alive connections: running loop -> (the task that closes
#: them when the loop winds down, ``(host, port)`` -> parked streams).
#: The loop holds tasks weakly: this entry is what keeps the closer alive.
_POOLS: dict[Any, tuple[asyncio.Task, dict[tuple[str, int], list]]] = {}


async def _close(writer: asyncio.StreamWriter) -> None:
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):  # pragma: no cover - teardown race
        pass


async def _close_pool_with_loop(loop, idle: dict) -> None:
    try:
        # Never resolved: ``asyncio.run`` cancels what is still pending.
        await loop.create_future()
    finally:
        del _POOLS[loop]
        for connections in idle.values():
            for _reader, writer in connections:
                await _close(writer)


def _idle_connections(host: str, port: int) -> list:
    loop = asyncio.get_running_loop()
    if loop not in _POOLS:
        idle: dict[tuple[str, int], list] = {}
        closer = loop.create_task(_close_pool_with_loop(loop, idle))
        _POOLS[loop] = (closer, idle)
    return _POOLS[loop][1].setdefault((host, port), [])


async def http_json(
    host: str,
    port: int,
    method: str,
    path: str,
    body: dict[str, Any] | None = None,
    *,
    headers: dict[str, str] | None = None,
    timeout: float = 30.0,
) -> tuple[int, dict[str, Any], dict[str, str]]:
    """One request; returns ``(status, decoded body, headers)``.

    Reuses an idle connection of the running loop when there is one; if
    the server closed it meanwhile (no byte of a reply arrived, so the
    request was not served) the request goes again on a fresh one."""
    payload = b""
    if body is not None:
        payload = json.dumps(body).encode("utf-8")
    lines = [
        f"{method} {path} HTTP/1.1",
        f"Host: {host}:{port}",
        f"Content-Length: {len(payload)}",
    ]
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    request = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + payload
    idle = _idle_connections(host, port)
    while True:
        reused = bool(idle)
        if reused:
            reader, writer = idle.pop()
        else:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(host, port), timeout
            )
        head, keep = b"", False
        try:
            async with asyncio.timeout(timeout):
                writer.write(request)
                await writer.drain()
                head = await reader.readuntil(b"\r\n\r\n")
                head_lines = head[:-4].decode("latin-1").split("\r\n")
                status = int(head_lines[0].split(" ", 2)[1])
                response_headers = parse_header_lines(head_lines[1:])
                length = response_headers.get("content-length")
                if length is None:  # framed by EOF: the connection is spent
                    rest = await reader.read()
                else:
                    rest = await reader.readexactly(int(length))
                    connection = response_headers.get("connection", "")
                    keep = connection.lower() != "close"
        except (asyncio.IncompleteReadError, ConnectionError) as exc:
            if reused and not head and not getattr(exc, "partial", b""):
                continue  # the server closed it while it was parked
            raise ConnectionResetError("connection closed mid-reply") from exc
        finally:
            if keep:
                idle.append((reader, writer))
            else:
                await _close(writer)
        break
    decoded: dict[str, Any] = {}
    if rest:
        try:
            decoded = json.loads(rest.decode("utf-8"))
        except ValueError:
            decoded = {"raw": rest.decode("utf-8", "replace")}
    return status, decoded, response_headers


async def stream_events(
    host: str,
    port: int,
    *,
    timeout: float = 30.0,
) -> AsyncIterator[dict[str, Any]]:
    """Subscribe to ``GET /v1/stream``; yields decoded events.

    The NDJSON stream is read line by line.  Terminates on the
    gateway's ``shutdown`` event or EOF."""
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(host, port), timeout
    )
    try:
        writer.write(
            (
                "GET /v1/stream HTTP/1.1\r\n"
                f"Host: {host}:{port}\r\n\r\n"
            ).encode("latin-1")
        )
        await writer.drain()
        await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"), timeout)
        while True:
            line = await asyncio.wait_for(reader.readline(), timeout)
            if not line:
                return
            event = json.loads(line.decode("utf-8"))
            yield event
            if event.get("event") == "shutdown":
                return
    except asyncio.IncompleteReadError:
        return
    finally:
        await _close(writer)


# ----------------------------------------------------------------------
# Workload + results
# ----------------------------------------------------------------------


@dataclass
class Workload:
    """What to submit: update origins and/or query targets."""

    #: Nodes global updates originate from (round-robin + jitter).
    origins: list[str] = field(default_factory=list)
    #: ``(node, query text)`` pairs for query submissions.
    queries: list[tuple[str, str]] = field(default_factory=list)
    #: Fraction of arrivals that are updates (when both kinds exist).
    update_fraction: float = 0.5
    #: Query mode forwarded to the gateway.
    query_mode: str = "network"

    def pick(self, rng: random.Random) -> tuple[str, str, dict[str, Any]]:
        """One arrival: ``(kind, path, body)``."""
        want_update = bool(self.origins) and (
            not self.queries or rng.random() < self.update_fraction
        )
        if want_update:
            return (
                "update",
                "/v1/update",
                {"origin": rng.choice(self.origins)},
            )
        if not self.queries:
            raise CoDBError("workload has neither origins nor queries")
        node, query = rng.choice(self.queries)
        return (
            "query",
            "/v1/query",
            {"node": node, "query": query, "mode": self.query_mode},
        )


@dataclass
class LoadResult:
    """Aggregate outcome of one open-loop run."""

    sent: int = 0
    completed: int = 0
    failed: int = 0
    rejected: int = 0
    wall_time: float = 0.0
    #: Submit-to-result latency of each completed request, seconds.
    latencies: list[float] = field(default_factory=list)
    #: Final per-request response payloads (request id -> body).
    responses: dict[str, dict[str, Any]] = field(default_factory=dict)

    @property
    def lost(self) -> int:
        """Requests that neither completed, failed, nor were rejected."""
        return self.sent - self.completed - self.failed

    def throughput(self) -> float:
        if self.wall_time <= 0:
            return 0.0
        return self.completed / self.wall_time

    def percentile(self, q: float) -> float:
        return quantile(sorted(self.latencies), q)

    def summary(self) -> dict[str, Any]:
        return {
            "sent": self.sent,
            "completed": self.completed,
            "failed": self.failed,
            "rejected_429": self.rejected,
            "lost": self.lost,
            "wall_time_s": self.wall_time,
            "throughput_rps": self.throughput(),
            "p50_s": self.percentile(0.5),
            "p99_s": self.percentile(0.99),
        }


async def _drive_one(
    host: str,
    port: int,
    tenant: str,
    kind: str,
    path: str,
    body: dict[str, Any],
    result: LoadResult,
    *,
    lock: asyncio.Lock,
    max_retries: int,
    wait_timeout: float,
    clock: Callable[[], float],
) -> None:
    submitted_at = clock()
    attempt = 0
    while True:
        status, reply, headers = await http_json(
            host,
            port,
            "POST",
            path,
            body,
            headers={"X-Tenant": tenant},
            timeout=wait_timeout,
        )
        if status == 429:
            async with lock:
                result.rejected += 1
            if attempt >= max_retries:
                async with lock:
                    result.failed += 1
                return
            attempt += 1
            # Honor the gateway's ``Retry-After`` header (the *yield*
            # admission message); the JSON body's ``retry_after`` is
            # the fallback for proxies that strip headers.
            try:
                backoff = float(
                    headers.get(
                        "retry-after", reply.get("retry_after", 0.05)
                    )
                )
            except (TypeError, ValueError):
                backoff = 0.05
            await asyncio.sleep(max(0.0, backoff))
            continue
        break
    if status != 202:
        async with lock:
            result.failed += 1
            result.responses[f"submit-error-{kind}-{id(body)}"] = reply
        return
    request_id = reply["request_id"]
    status, reply, _headers = await http_json(
        host,
        port,
        "GET",
        f"/v1/result/{request_id}?wait={wait_timeout:g}",
        timeout=wait_timeout * 2,
    )
    latency = clock() - submitted_at
    async with lock:
        result.responses[request_id] = reply
        if status == 200 and reply.get("ok"):
            result.completed += 1
            result.latencies.append(latency)
        else:
            result.failed += 1


async def run_open_loop(
    host: str,
    port: int,
    workload: Workload,
    *,
    total: int = 64,
    rate: float = 200.0,
    tenants: tuple[str, ...] = ("default",),
    seed: int = 0,
    max_retries: int = 50,
    wait_timeout: float = 30.0,
) -> LoadResult:
    """Submit *total* arrivals at *rate*/s, round-robin over *tenants*.

    Every arrival is an independent task: submit (retrying 429 yields
    with the server's ``Retry-After`` up to *max_retries* times), then
    bounded-block on ``/v1/result``.  Returns once every arrival's
    task finished — the :class:`LoadResult` accounts for each one, so
    ``result.lost == 0`` is the zero-lost-requests check."""
    loop = asyncio.get_running_loop()
    rng = random.Random(seed)
    result = LoadResult()
    lock = asyncio.Lock()
    started = loop.time()
    interarrival = 1.0 / rate if rate > 0 else 0.0
    tasks: list[asyncio.Task] = []
    for index in range(total):
        target_time = started + index * interarrival
        delay = target_time - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        kind, path, body = workload.pick(rng)
        tenant = tenants[index % len(tenants)]
        result.sent += 1
        tasks.append(
            loop.create_task(
                _drive_one(
                    host,
                    port,
                    tenant,
                    kind,
                    path,
                    body,
                    result,
                    lock=lock,
                    max_retries=max_retries,
                    wait_timeout=wait_timeout,
                    clock=loop.time,
                )
            )
        )
    await asyncio.gather(*tasks)
    result.wall_time = loop.time() - started
    return result


def run_open_loop_sync(
    host: str,
    port: int,
    workload: Workload,
    **kwargs: Any,
) -> LoadResult:
    """Blocking wrapper over :func:`run_open_loop` (its own loop)."""
    return asyncio.run(run_open_loop(host, port, workload, **kwargs))

"""The asyncio service gateway: persistent-serve over the handle API.

One :class:`ServiceGateway` boots (or is handed) a persistent
:class:`~repro.core.network.CoDBNetwork` /
:class:`~repro.p2p.procs.ProcessNetwork` and serves it over plain
HTTP/1.1 on stdlib ``asyncio`` streams — no web framework, no new
dependencies:

``POST /v1/update``
    ``{"origin": node, "tenant": t?}`` — submit a global update;
    returns ``202`` with a request id immediately.
``POST /v1/query``
    ``{"node": n, "query": text, "mode": "network"?, "cache"?,
    "tenant"?}`` — submit a query the same way.  A query's imports
    always stay stored: a ``"persist"`` other than ``true`` is a
    ``400``.
``GET /v1/result/<id>[?wait=seconds]``
    Poll (or bounded-block for) the outcome; query answers come back
    as encoded rows (:func:`repro.relational.values.encode_row`).
``DELETE /v1/request/<id>``
    Retract: withdraw the request from its origin's admission queue if
    it has not gone live (``RequestHandle.cancel``).
``GET /v1/stream``
    Completion events in real time, in ``as_completed`` order, as
    newline-delimited JSON.
``GET /metrics``
    §4 lifetime statistics + gateway counters in Prometheus text
    format (:mod:`repro.service.metrics`).

Connections are kept alive.  A handler closes — saying ``Connection:
close`` in its last reply — when the client asked for that, after a
``500`` or a request it could not frame (``400`` / ``413`` / ``431``),
once shutdown has begun, or after ``KEEPALIVE_IDLE_S`` without a request.

Threading model — the part that keeps the no-sleep-polling invariant:

* the asyncio event loop never touches the network.  Submissions,
  result assembly, retraction and metric scrapes all hop to ONE
  dedicated network executor thread, so a single-threaded simulator
  transport sees strictly serialized access, exactly like a driver
  script;
* a submission is ONE job on that executor: submit, *pump* a simulator
  transport (``network.run()`` — the event queue drains, sessions
  complete, completion listeners fire) and, if the handle is done by
  then, assemble its result.  The record settles from that one return;
  its outcome is JSON-encoded once and polls splice the stored text;
* a handle still pending after its job (real transports, requests
  queued behind admission) crosses back via
  :meth:`~repro.core.requests.RequestHandle.asyncio_future` —
  done-callbacks marshalled onto the loop with
  ``call_soon_threadsafe`` — so the loop awaits futures, never polls.

Admission is two-layered: the network's own
``NodeConfig.max_active_sessions`` protects each peer, and the
gateway's :class:`~repro.service.quotas.TenantQuotas` protects tenants
from each other.  A tenant over its cap gets an immediate ``429`` with
``Retry-After`` (the *yield* admission message) — nothing is queued
gateway-side, so one tenant's burst can never head-of-line-block
another's.

Shutdown (``SIGTERM`` under ``repro serve``, or
:meth:`ServiceGateway.shutdown`): stop accepting, close the connections
parked between requests (busy ones close behind their reply), drain
in-flight requests (``network.drain``), retract what is still queued, and
force-fail whatever remains — every handle the gateway ever accepted
settles as done / cancelled / failed before the loop exits.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import signal
import threading
import time
from collections import OrderedDict, defaultdict, deque
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable
from urllib.parse import parse_qs, urlsplit

from repro.errors import CoDBError
from repro.p2p.inproc import InProcessNetwork
from repro.relational.values import encode_row
from repro.service.metrics import MetricFamily, quantile, render_metrics
from repro.service.quotas import QuotaExceededError, TenantQuotas

DEFAULT_TENANT = "default"
#: Largest accepted request body (a query text, not a bulk load).
MAX_BODY_BYTES = 1 << 20
#: Settled request records kept for ``GET /v1/result`` (FIFO trim).
RESULT_RETENTION = 4096
#: Seconds a connection may sit between requests before it is dropped.
KEEPALIVE_IDLE_S = 75.0

_STATUS_TEXT = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


# ----------------------------------------------------------------------
# HTTP plumbing
# ----------------------------------------------------------------------


class _HttpRequest:
    __slots__ = ("method", "path", "params", "headers", "body")

    def __init__(
        self,
        method: str,
        target: str,
        headers: dict[str, str],
        body: bytes,
    ) -> None:
        self.method = method
        split = urlsplit(target)
        self.path = split.path
        self.params = {
            key: values[-1] for key, values in parse_qs(split.query).items()
        }
        self.headers = headers
        self.body = body

    def json(self) -> dict[str, Any]:
        if not self.body:
            return {}
        try:
            payload = json.loads(self.body.decode("utf-8"))
        except RecursionError:
            raise ValueError("request body nests too deeply") from None
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        return payload


class _BadRequest(Exception):
    """A request that cannot be framed: answered with ``args[0]``, then
    the connection closes (where the next one starts is unknowable)."""


def parse_header_lines(lines: list[str]) -> dict[str, str]:
    """``Name: value`` lines as a dict keyed by lower-cased name."""
    headers: dict[str, str] = {}
    for line in lines:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return headers


async def _read_http_request(
    reader: asyncio.StreamReader,
) -> _HttpRequest | None:
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.LimitOverrunError:
        raise _BadRequest(431, "request header block is too large") from None
    except (asyncio.IncompleteReadError, ConnectionError):
        return None
    lines = head[:-4].decode("latin-1").split("\r\n")
    try:
        method, target, _version = lines[0].split(" ", 2)
    except ValueError:
        raise _BadRequest(400, "malformed request line") from None
    headers = parse_header_lines(lines[1:])
    declared = headers.get("content-length", "0") or "0"
    if not (declared.isascii() and declared.isdigit()):
        raise _BadRequest(400, f"invalid Content-Length {declared!r}")
    length = int(declared)
    if length > MAX_BODY_BYTES:
        raise _BadRequest(413, f"a {length}-byte request body exceeds the cap")
    body = await reader.readexactly(length) if length else b""
    return _HttpRequest(method.upper(), target, headers, body)


def _http_response(
    status: int,
    payload: dict[str, Any] | str | bytes,
    *,
    content_type: str = "application/json",
    extra_headers: dict[str, str] | None = None,
) -> bytes:
    if isinstance(payload, bytes):
        body = payload
    elif isinstance(payload, str):
        body = payload.encode("utf-8")
    else:
        body = (json.dumps(payload) + "\n").encode("utf-8")
    headers = [
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}",
        f"Content-Type: {content_type}; charset=utf-8",
        f"Content-Length: {len(body)}",
    ]
    for name, value in (extra_headers or {}).items():
        headers.append(f"{name}: {value}")
    return ("\r\n".join(headers) + "\r\n\r\n").encode("latin-1") + body


def _closing(response: bytes) -> bytes:
    """*response*, announcing that the connection closes behind it."""
    return response.replace(b"\r\n", b"\r\nConnection: close\r\n", 1)


# ----------------------------------------------------------------------
# Request records
# ----------------------------------------------------------------------


class _GatewayRequest:
    """One accepted submission: the handle plus its service-side state.

    Settling (exactly once, always on the event loop) releases the
    tenant's quota slot — the single release point is what makes
    slot accounting leak-proof across completion, retraction, failure
    and forced shutdown."""

    __slots__ = (
        "request_id",
        "kind",
        "tenant",
        "target",
        "handle",
        "status",
        "ok",
        "result",
        "error",
        "submitted_at",
        "latency",
        "done_event",
        "settled",
    )

    def __init__(
        self, handle, kind: str, tenant: str, target: str, submitted_at: float
    ) -> None:
        self.request_id = handle.request_id
        self.kind = kind
        self.tenant = tenant
        self.target = target
        self.handle = handle
        self.status = "pending"
        self.ok: bool | None = None
        #: The outcome as JSON text, encoded once when the record settles.
        self.result = ""
        self.error = ""
        self.submitted_at = submitted_at
        self.latency = 0.0
        self.done_event = asyncio.Event()
        self.settled = False

    def summary(self) -> dict[str, Any]:
        summary = {
            "request_id": self.request_id,
            "kind": self.kind,
            "tenant": self.tenant,
            "target": self.target,
            "status": self.status,
        }
        if self.settled:
            summary["ok"] = self.ok
            summary["latency_s"] = self.latency
            if self.error:
                summary["error"] = self.error
        return summary


# ----------------------------------------------------------------------
# The gateway
# ----------------------------------------------------------------------


class ServiceGateway:
    """HTTP front door over one persistent network.

    Parameters
    ----------
    network:
        A started :class:`~repro.core.network.CoDBNetwork` or
        :class:`~repro.p2p.procs.ProcessNetwork`.  The gateway drives
        it but does not own it — the caller stops the network after
        :meth:`shutdown`.
    host / port:
        Listen address; ``port=0`` picks a free port (read it back
        from :attr:`port` after :meth:`start`).
    quotas:
        Per-tenant admission quotas; defaults to
        ``TenantQuotas()``.
    drain_timeout:
        Seconds :meth:`shutdown` waits for in-flight requests before
        retracting / force-failing the stragglers.
    """

    def __init__(
        self,
        network,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        quotas: TenantQuotas | None = None,
        drain_timeout: float = 10.0,
        retention: int = RESULT_RETENTION,
    ) -> None:
        self.network = network
        self.host = host
        self.port = port
        self.quotas = quotas if quotas is not None else TenantQuotas()
        self.drain_timeout = drain_timeout
        self.retention = retention
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.base_events.Server | None = None
        self._net_exec = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="codb-gateway-net"
        )
        self._requests: "OrderedDict[str, _GatewayRequest]" = OrderedDict()
        #: Connections parked between requests -> their handler tasks.
        self._idle: dict[asyncio.StreamWriter, asyncio.Task] = {}
        self._subscribers: set[asyncio.Queue] = set()
        self._finishers: set[asyncio.Task] = set()
        self._shutdown_task: asyncio.Task | None = None
        self._accepting = False
        self._shutdown_started = False
        self._closed = asyncio.Event()
        # A simulator transport only makes progress when pumped; real
        # transports (TCP delivery threads, the process-runner pump)
        # progress on their own.
        self._pump_needed = isinstance(
            getattr(network, "transport", None), InProcessNetwork
        )
        # Gateway-side counters, mutated on the event loop only.
        self._requests_total: dict[tuple[str, str], int] = {}
        self._completed_total: dict[str, int] = {}
        self._rejected_total = 0
        self._bad_requests_total: dict[int, int] = defaultdict(int)
        self._retractions_total = 0
        self._stream_clients = 0
        self._latency_sum = 0.0
        self._latency_count = 0
        self._latencies: deque[float] = deque(maxlen=4096)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Bind and start serving; resolves :attr:`host` / :attr:`port`."""
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        self._accepting = True

    async def serve_forever(self, *, handle_signals: bool = True) -> None:
        """Start (if needed) and serve until :meth:`shutdown` finishes.

        With *handle_signals*, ``SIGTERM`` / ``SIGINT`` trigger the
        drain-then-settle shutdown — the ``repro serve`` contract."""
        if self._server is None:
            await self.start()
        assert self._loop is not None
        if handle_signals:
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    self._loop.add_signal_handler(
                        signum, self.request_shutdown
                    )
                except (NotImplementedError, RuntimeError):
                    break  # non-main thread or exotic platform
        await self._closed.wait()

    def request_shutdown(self) -> None:
        """Begin shutdown from a signal handler or another thread."""
        loop = self._loop
        if loop is None:
            return

        def begin() -> None:
            if not self._shutdown_started:
                self._shutdown_task = loop.create_task(self.shutdown())

        # A loop that has closed, or is past running callbacks, has
        # finished (or is finishing) the shutdown already.
        with contextlib.suppress(RuntimeError):
            loop.call_soon_threadsafe(begin)

    async def shutdown(self) -> None:
        """Stop accepting, drain the storm, settle every record.

        Idempotent; concurrent calls await the same completion.  After
        it returns every request the gateway ever accepted is settled
        (``done`` / ``cancelled`` / ``failed``), every quota slot is
        released, and stream subscribers have received the final
        ``shutdown`` event."""
        if self._shutdown_started:
            await self._closed.wait()
            return
        self._shutdown_started = True
        self._accepting = False
        if self._server is not None:
            self._server.close()
            # Parked connections would hold the server open (3.12+) or
            # end as cancelled tasks; busy ones close behind their reply.
            parked = list(self._idle.values())
            for writer in self._idle:
                writer.close()
            if parked:
                await asyncio.wait(parked)
            await self._server.wait_closed()
        pending = [r for r in self._requests.values() if not r.settled]
        if pending:
            loop = asyncio.get_running_loop()
            self._kick_pump()

            def drain() -> None:
                try:
                    self.network.drain(self.drain_timeout)
                except CoDBError:
                    pass  # stragglers handled below

            await loop.run_in_executor(self._net_exec, drain)
            waits = [r.done_event.wait() for r in pending]
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(
                    asyncio.gather(*waits), self.drain_timeout
                )
            # Retract whatever is still queued behind admission...
            stragglers = [r for r in pending if not r.settled]
            for record in stragglers:
                await loop.run_in_executor(
                    self._net_exec, record.handle.cancel
                )
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(
                    asyncio.gather(
                        *(r.done_event.wait() for r in stragglers)
                    ),
                    1.0,
                )
            # ...and force-fail anything the network never settled, so
            # no client is left holding a hung request id.
            for record in pending:
                if not record.settled:
                    self._settle(
                        record,
                        "failed",
                        error="gateway shut down before completion",
                    )
        self._broadcast({"event": "shutdown"})
        for queue in list(self._subscribers):
            with contextlib.suppress(asyncio.QueueFull):
                queue.put_nowait(None)
        for task in list(self._finishers):
            task.cancel()
        self._net_exec.shutdown(wait=False)
        self._closed.set()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            while self._accepting:
                self._idle[writer] = asyncio.current_task()
                timer = self._loop.call_later(KEEPALIVE_IDLE_S, writer.close)
                try:
                    request = await _read_http_request(reader)
                except _BadRequest as exc:
                    status, message = exc.args
                    self._bad_requests_total[status] += 1
                    response = _http_response(status, {"error": message})
                    writer.write(_closing(response))
                    await writer.drain()
                    return
                finally:
                    timer.cancel()
                    del self._idle[writer]
                if request is None or writer.is_closing():
                    return  # EOF — or closed while parked: cannot reply
                if request.path == "/v1/stream" and request.method == "GET":
                    await self._serve_stream(writer)
                    return
                response, keep_alive = await self._dispatch(request)
                keep_alive = keep_alive and self._accepting
                writer.write(response if keep_alive else _closing(response))
                await writer.drain()
                if not keep_alive:
                    return
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _dispatch(self, request: _HttpRequest) -> tuple[bytes, bool]:
        keep_alive = (
            request.headers.get("connection", "keep-alive").lower()
            != "close"
        )
        try:
            if request.method == "POST" and request.path == "/v1/update":
                return await self._submit("update", request), keep_alive
            if request.method == "POST" and request.path == "/v1/query":
                return await self._submit("query", request), keep_alive
            if request.method == "GET" and request.path.startswith(
                "/v1/result/"
            ):
                request_id = request.path[len("/v1/result/"):]
                return await self._result(request_id, request), keep_alive
            if request.method == "DELETE" and request.path.startswith(
                "/v1/request/"
            ):
                request_id = request.path[len("/v1/request/"):]
                return await self._retract(request_id), keep_alive
            if request.method == "GET" and request.path == "/v1/requests":
                summaries = [
                    record.summary() for record in self._requests.values()
                ]
                return (
                    _http_response(200, {"requests": summaries}),
                    keep_alive,
                )
            if request.method == "GET" and request.path == "/metrics":
                return await self._metrics(), keep_alive
            if request.method == "GET" and request.path == "/healthz":
                return (
                    _http_response(
                        200,
                        {
                            "status": "ok" if self._accepting else "draining",
                            "live_requests": self.quotas.live(),
                        },
                    ),
                    keep_alive,
                )
            return _http_response(404, {"error": "no such route"}), keep_alive
        except (ValueError, KeyError) as exc:
            return _http_response(400, {"error": str(exc)}), keep_alive
        except CoDBError as exc:
            return _http_response(400, {"error": str(exc)}), keep_alive
        except Exception as exc:  # pragma: no cover - defensive surface
            return _http_response(500, {"error": str(exc)}), False

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def _submission(
        self, kind: str, body: dict[str, Any], tenant: str
    ) -> tuple[str, Callable[[], Any]]:
        """The (target node, zero-arg submit) pair for one request."""
        if kind == "update":
            origin = str(body["origin"])
            return origin, lambda: self.network.submit_global_update(
                origin, tenant=tenant
            )
        node = str(body["node"])
        query = str(body["query"])
        mode = str(body.get("mode", "network"))
        if body.get("persist", True) is not True:
            raise ValueError(
                "'persist' is retired: a query's imports always stay stored"
            )
        cache = body.get("cache", None)
        return node, lambda: self.network.submit_query(
            node,
            query,
            mode=mode,
            cache=None if cache is None else bool(cache),
            tenant=tenant,
        )

    async def _submit(self, kind: str, request: _HttpRequest) -> bytes:
        if not self._accepting:
            return _http_response(
                503, {"error": "gateway is shutting down"}
            )
        body = request.json()
        tenant = (
            request.headers.get("x-tenant")
            or str(body.get("tenant", ""))
            or DEFAULT_TENANT
        )
        target, submit = self._submission(kind, body, tenant)
        try:
            self.quotas.acquire(tenant)
        except QuotaExceededError as exc:
            self._rejected_total += 1
            return _http_response(
                429,
                {
                    "error": str(exc),
                    "tenant": tenant,
                    "retry_after": exc.retry_after,
                },
                extra_headers={"Retry-After": f"{exc.retry_after:g}"},
            )
        loop = asyncio.get_running_loop()
        submitted_at = time.monotonic()
        try:
            handle, outcome = await loop.run_in_executor(
                self._net_exec, self._run_submission, submit
            )
        except Exception as exc:
            self.quotas.release(tenant)
            status = 400 if isinstance(exc, CoDBError) else 500
            return _http_response(status, {"error": str(exc)})
        record = _GatewayRequest(handle, kind, tenant, target, submitted_at)
        self._requests[record.request_id] = record
        self._trim_records()
        key = (kind, tenant)
        self._requests_total[key] = self._requests_total.get(key, 0) + 1
        if outcome is not None:
            self._settle(record, *outcome)
        else:
            # Still pending (a real transport, or queued behind
            # admission): completion comes back through the future.
            future = handle.asyncio_future(loop)
            task = loop.create_task(self._finish(record, future))
            self._finishers.add(task)
            task.add_done_callback(self._finishers.discard)
        return _http_response(
            202,
            {
                "request_id": record.request_id,
                "kind": kind,
                "tenant": tenant,
                "target": target,
                "status": "pending",
            },
        )

    def _trim_records(self) -> None:
        """Forget the oldest settled records beyond ``retention``."""
        excess = len(self._requests) - self.retention
        if excess > 0:
            settled = (i for i, r in self._requests.items() if r.settled)
            for request_id in [i for _, i in zip(range(excess), settled)]:
                del self._requests[request_id]

    def _run_submission(
        self, submit: Callable[[], Any]
    ) -> tuple[Any, tuple[str, Any, str] | None]:
        """Network thread, one job per submission: submit, pump, and
        assemble the outcome if that already completed the request."""
        handle = submit()
        self._pump()
        return handle, self._outcome(handle) if handle.done() else None

    def _pump(self) -> None:
        """Network thread: run a simulator transport to quiescence."""
        if self._pump_needed:
            try:
                self.network.run()
            except CoDBError:
                pass  # transport stopped mid-shutdown

    def _kick_pump(self) -> None:
        """Schedule one simulator pump on the network thread."""
        if self._pump_needed and self._loop is not None:
            self._loop.run_in_executor(self._net_exec, self._pump)

    def _outcome(self, handle) -> tuple[str, Any, str]:
        """Network thread: a completed handle's ``(status, result,
        error)`` — assembly may block on the network."""
        if handle.cancelled():
            return "cancelled", None, "retracted before admission"
        try:
            raw = handle.result(self.network.poll_timeout)
        except Exception as exc:
            return "failed", None, str(exc)
        return "done", self._encode_result(handle.kind, raw), ""

    async def _finish(self, record: _GatewayRequest, future) -> None:
        handle = await future
        if record.settled:
            return  # shutdown force-failed it while we waited
        outcome = await asyncio.get_running_loop().run_in_executor(
            self._net_exec, self._outcome, handle
        )
        if not record.settled:
            self._settle(record, *outcome)

    def _settle(
        self,
        record: _GatewayRequest,
        status: str,
        result: Any = None,
        error: str = "",
    ) -> None:
        """Single settle point (event loop only): state, quota, events."""
        ok = status == "done"
        record.status = status
        record.ok = ok
        if ok:
            record.result = json.dumps(result)
        record.error = error
        record.latency = time.monotonic() - record.submitted_at
        record.settled = True
        self.quotas.release(record.tenant)
        self._completed_total[status] = (
            self._completed_total.get(status, 0) + 1
        )
        if ok:
            self._latencies.append(record.latency)
            self._latency_sum += record.latency
            self._latency_count += 1
        record.done_event.set()
        self._broadcast(
            {
                "event": "completed",
                "request_id": record.request_id,
                "kind": record.kind,
                "tenant": record.tenant,
                "status": status,
                "ok": ok,
                "latency_s": record.latency,
            }
        )

    @staticmethod
    def _encode_result(kind: str, raw: Any) -> Any:
        if kind == "query":
            return {"rows": [encode_row(row) for row in raw]}
        report = getattr(raw, "report", None)
        return {
            "update_id": raw.update_id,
            "origin": raw.origin,
            "outcome": getattr(report, "outcome", ""),
            "wall_time": raw.wall_time,
            "transport_messages": raw.transport_messages,
            "transport_bytes": raw.transport_bytes,
            "rows_imported": raw.rows_imported,
            "result_messages": raw.result_messages,
            "longest_path": raw.longest_path,
        }

    # ------------------------------------------------------------------
    # Results & retraction
    # ------------------------------------------------------------------

    async def _result(
        self, request_id: str, request: _HttpRequest
    ) -> bytes:
        record = self._requests.get(request_id)
        if record is None:
            return _http_response(
                404, {"error": f"unknown request {request_id!r}"}
            )
        try:
            wait = float(request.params.get("wait", "0") or "0")
        except ValueError:
            return _http_response(400, {"error": "wait must be a number"})
        if wait > 0 and not record.settled:
            self._kick_pump()
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(record.done_event.wait(), wait)
        if not record.settled:
            return _http_response(202, record.summary())
        body = json.dumps(record.summary())
        if record.ok:
            # The summary's closing brace gives way to the stored text.
            body = f'{body[:-1]}, "result": {record.result}}}'
        return _http_response(200, (body + "\n").encode("utf-8"))

    async def _retract(self, request_id: str) -> bytes:
        record = self._requests.get(request_id)
        if record is None:
            return _http_response(
                404, {"error": f"unknown request {request_id!r}"}
            )
        if record.settled:
            return _http_response(
                200, {"retracted": False, "status": record.status}
            )
        loop = asyncio.get_running_loop()
        retracted = await loop.run_in_executor(
            self._net_exec, record.handle.cancel
        )
        if retracted:
            self._retractions_total += 1
        return _http_response(200, {"retracted": bool(retracted)})

    # ------------------------------------------------------------------
    # Streaming
    # ------------------------------------------------------------------

    def _broadcast(self, event: dict[str, Any]) -> None:
        for queue in list(self._subscribers):
            try:
                queue.put_nowait(event)
            except asyncio.QueueFull:
                # A stalled subscriber: closing its queue (None) beats
                # buffering the whole storm for a client not reading.
                self._subscribers.discard(queue)
                with contextlib.suppress(asyncio.QueueFull):
                    queue.put_nowait(None)

    async def _serve_stream(self, writer: asyncio.StreamWriter) -> None:
        """Write completion events until shutdown, a stalled queue or
        the client going away (the caller closes the connection)."""
        queue: asyncio.Queue = asyncio.Queue(maxsize=1024)
        self._subscribers.add(queue)
        self._stream_clients += 1
        try:
            writer.write(
                (
                    "HTTP/1.1 200 OK\r\n"
                    "Content-Type: application/x-ndjson\r\n"
                    "Connection: close\r\n\r\n"
                ).encode("latin-1")
            )
            event = {"event": "hello", "streaming": "ndjson"}
            while event is not None:
                writer.write(json.dumps(event).encode("utf-8") + b"\n")
                await writer.drain()
                if event.get("event") == "shutdown":
                    break
                event = await queue.get()
        finally:
            self._subscribers.discard(queue)
            self._stream_clients -= 1

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------

    async def _metrics(self) -> bytes:
        loop = asyncio.get_running_loop()
        totals = await loop.run_in_executor(
            self._net_exec, self.network.lifetime_totals
        )
        tenant_totals = await loop.run_in_executor(
            self._net_exec, self._collect_tenant_totals
        )
        text = render_metrics(
            totals,
            tenant_totals=tenant_totals,
            extra_families=self._gateway_families(),
        )
        return _http_response(
            200, text, content_type="text/plain; version=0.0.4"
        )

    def _collect_tenant_totals(self) -> dict[str, dict[str, dict[str, int]]]:
        """Per-node tenant submission counts, where observable.

        In-process networks expose node statistics directly; a
        :class:`~repro.p2p.procs.ProcessNetwork`'s live in its workers
        (the gateway's own ``codb_gateway_requests_total{tenant=...}``
        covers the same ground driver-side)."""
        nodes = getattr(self.network, "nodes", None)
        if not isinstance(nodes, dict):
            return {}
        collected: dict[str, dict[str, dict[str, int]]] = {}
        for name, node in nodes.items():
            stats = getattr(node, "stats", None)
            if stats is None:
                continue
            totals = stats.tenant_totals()
            if totals:
                collected[name] = totals
        return collected

    def _gateway_families(self) -> list[MetricFamily]:
        families = []
        requests = MetricFamily(
            "codb_gateway_requests_total",
            "counter",
            "Submissions admitted by the gateway",
        )
        for (kind, tenant), count in sorted(self._requests_total.items()):
            requests.add({"kind": kind, "tenant": tenant}, count)
        families.append(requests)
        completed = MetricFamily(
            "codb_gateway_completed_total",
            "counter",
            "Requests settled, by final status",
        )
        for status, count in sorted(self._completed_total.items()):
            completed.add({"status": status}, count)
        families.append(completed)
        families.append(
            MetricFamily(
                "codb_gateway_rejections_total",
                "counter",
                "Submissions yielded back with 429 (quota exhausted)",
            ).add({}, self._rejected_total)
        )
        bad_requests = MetricFamily(
            "codb_gateway_bad_requests_total",
            "counter",
            "Requests that could not be framed (answered, then closed)",
        )
        for status, count in sorted(self._bad_requests_total.items()):
            bad_requests.add({"status": str(status)}, count)
        families.append(bad_requests)
        families.append(
            MetricFamily(
                "codb_gateway_retractions_total",
                "counter",
                "Requests withdrawn before admission via DELETE",
            ).add({}, self._retractions_total)
        )
        families.append(
            MetricFamily(
                "codb_gateway_stream_clients",
                "gauge",
                "Completion-stream subscribers currently connected",
            ).add({}, self._stream_clients)
        )
        live = MetricFamily(
            "codb_gateway_tenant_live_requests",
            "gauge",
            "Requests currently live per tenant",
        )
        peak = MetricFamily(
            "codb_gateway_tenant_peak_live_requests",
            "gauge",
            "Most requests ever simultaneously live per tenant",
        )
        admitted = MetricFamily(
            "codb_gateway_tenant_admitted_total",
            "counter",
            "Quota slots granted per tenant",
        )
        rejected = MetricFamily(
            "codb_gateway_tenant_rejected_total",
            "counter",
            "Quota rejections per tenant",
        )
        for tenant, counters in self.quotas.counters().items():
            live.add({"tenant": tenant}, counters["live"])
            peak.add({"tenant": tenant}, counters["peak"])
            admitted.add({"tenant": tenant}, counters["admitted"])
            rejected.add({"tenant": tenant}, counters["rejected"])
        families.extend([live, peak, admitted, rejected])
        families.append(
            MetricFamily(
                "codb_gateway_quota_limit",
                "gauge",
                "Per-tenant live-request cap (0 = unlimited)",
            ).add({}, self.quotas.per_tenant)
        )
        ordered = sorted(self._latencies)
        latency = MetricFamily(
            "codb_gateway_latency_seconds",
            "summary",
            "Submission-to-settle latency of completed requests",
            sum_value=self._latency_sum,
            count_value=float(self._latency_count),
        )
        for q in (0.5, 0.9, 0.99):
            latency.add({"quantile": str(q)}, quantile(ordered, q))
        families.append(latency)
        return families


# ----------------------------------------------------------------------
# Background-thread serving (tests, benchmarks, drivers)
# ----------------------------------------------------------------------


class GatewayThread:
    """Run a :class:`ServiceGateway` on a dedicated event-loop thread.

    The driver-side harness tests and benchmarks use: start it, talk
    plain HTTP from the calling thread, then :meth:`stop` (which runs
    the full drain-then-settle shutdown).  Also usable as a context
    manager.  :meth:`install_sigterm` wires ``SIGTERM`` of the whole
    process to :meth:`request_shutdown` — only callable from the main
    thread (CPython restricts ``signal.signal``)."""

    def __init__(self, gateway: ServiceGateway) -> None:
        self.gateway = gateway
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._error: BaseException | None = None
        self._previous_sigterm: Any = None

    @property
    def host(self) -> str:
        return self.gateway.host

    @property
    def port(self) -> int:
        return self.gateway.port

    def start(self) -> "GatewayThread":
        self._thread = threading.Thread(
            target=self._run, name="codb-gateway", daemon=True
        )
        self._thread.start()
        if not self._started.wait(30.0):  # pragma: no cover - hang guard
            raise CoDBError("gateway event loop failed to start")
        if self._error is not None:
            raise CoDBError(f"gateway failed to start: {self._error}")
        return self

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        try:
            await self.gateway.start()
        except BaseException as exc:  # surface bind errors to start()
            self._error = exc
            self._started.set()
            return
        self._started.set()
        await self.gateway.serve_forever(handle_signals=False)

    def install_sigterm(self) -> None:
        """Route process ``SIGTERM`` to a clean gateway shutdown."""
        self._previous_sigterm = signal.signal(
            signal.SIGTERM, lambda _signum, _frame: self.request_shutdown()
        )

    def request_shutdown(self) -> None:
        self.gateway.request_shutdown()

    def stop(self, timeout: float = 60.0) -> None:
        """Shut the gateway down and join the loop thread."""
        if self._previous_sigterm is not None:
            signal.signal(signal.SIGTERM, self._previous_sigterm)
            self._previous_sigterm = None
        if self._thread is not None:
            # The thread ends when the shutdown does — whoever began it
            # (SIGTERM may have, and the loop may be winding down now).
            self.gateway.request_shutdown()
            self._thread.join(timeout)
            if self._thread.is_alive():
                raise CoDBError(
                    f"gateway did not shut down within {timeout:g} s"
                )

    def __enter__(self) -> "GatewayThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def serve_in_thread(network, **kwargs: Any) -> GatewayThread:
    """Start a gateway over *network* on a background thread; returns
    the running :class:`GatewayThread` (``.host`` / ``.port`` bound)."""
    return GatewayThread(ServiceGateway(network, **kwargs)).start()

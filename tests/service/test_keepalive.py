"""Persistent connections, one network-thread job per submission and
encode-once results: the gateway's per-request unit of work.

Raw-socket tests speak HTTP/1.1 by hand so framing is checked byte by
byte; the ``http_json`` tests count connections server-side (a gateway
subclass that counts ``_handle_connection`` calls) rather than trusting
the client's own bookkeeping.
"""

import asyncio
import json
import socket
import threading
import time

import pytest

from repro import CoDBNetwork, NodeConfig, TcpNetwork, TenantQuotas
from repro.relational.values import encode_row
from repro.service import gateway as gateway_module
from repro.service import loadgen
from repro.service.gateway import GatewayThread, ServiceGateway
from repro.service.loadgen import http_json

QUERY = "q(n) <- resident(n)"


def build_network(transport=None, **config) -> CoDBNetwork:
    net = CoDBNetwork(seed=11, transport=transport, config=NodeConfig(**config))
    net.add_node(
        "BZ",
        "person(name: str, city: str)",
        facts="person('anna', 'Trento'). person('bruno', 'Bolzano').",
    )
    net.add_node("TN", "resident(name: str)")
    net.add_rule("TN:resident(n) <- BZ:person(n, c), c = 'Trento'")
    net.start()
    return net


class CountingGateway(ServiceGateway):
    """Counts accepted connections and network-executor jobs."""

    def __init__(self, network, **kwargs) -> None:
        super().__init__(network, **kwargs)
        self.accepted = 0
        self.jobs = 0
        self.finishes = 0
        submit = self._net_exec.submit

        def counting_submit(fn, *args, **kw):
            self.jobs += 1
            return submit(fn, *args, **kw)

        self._net_exec.submit = counting_submit

    async def _handle_connection(self, reader, writer) -> None:
        self.accepted += 1
        await super()._handle_connection(reader, writer)

    async def _finish(self, record, future) -> None:
        self.finishes += 1
        await super()._finish(record, future)


@pytest.fixture
def served():
    """A counting gateway over the two-node simulator network."""
    net = build_network()
    thread = GatewayThread(CountingGateway(net)).start()
    try:
        yield thread
    finally:
        thread.stop()
        net.stop()


def on_gateway_loop(thread, fn):
    """Run ``fn()`` on the gateway's event loop; return its result."""
    done = threading.Event()
    box = []

    def call() -> None:
        box.append(fn())
        done.set()

    thread.gateway._loop.call_soon_threadsafe(call)
    assert done.wait(10)
    return box[0]


# ----------------------------------------------------------------------
# Raw sockets: framing
# ----------------------------------------------------------------------


def encode_request(method, path, body=None, headers=()) -> bytes:
    payload = b"" if body is None else json.dumps(body).encode()
    lines = [f"{method} {path} HTTP/1.1", "Host: test"]
    lines += list(headers)
    lines.append(f"Content-Length: {len(payload)}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode() + payload


def read_reply(stream) -> tuple[int, dict[str, str], bytes]:
    """One ``Content-Length``-framed reply off a socket file."""
    status_line = stream.readline()
    assert status_line.startswith(b"HTTP/1.1 "), status_line
    headers = {}
    while True:
        line = stream.readline()
        if line in (b"\r\n", b""):
            break
        name, _, value = line.decode().partition(":")
        headers[name.strip().lower()] = value.strip()
    body = stream.read(int(headers["content-length"]))
    return int(status_line.split()[1]), headers, body


class TestOneSocketManyRequests:
    def test_mixed_requests_get_framed_replies_in_order(self, served):
        with socket.create_connection((served.host, served.port)) as sock:
            stream = sock.makefile("rb")

            def exchange(method, path, body=None, headers=()):
                sock.sendall(encode_request(method, path, body, headers))
                return read_reply(stream)

            status, headers, body = exchange("GET", "/healthz")
            assert status == 200 and json.loads(body)["status"] == "ok"
            assert "connection" not in headers

            status, _, body = exchange("POST", "/v1/update", {"origin": "TN"})
            assert status == 202
            update_id = json.loads(body)["request_id"]
            status, _, body = exchange("GET", f"/v1/result/{update_id}?wait=30")
            assert status == 200
            assert json.loads(body)["result"]["outcome"] == "complete"

            status, _, body = exchange(
                "POST", "/v1/query", {"node": "TN", "query": QUERY}
            )
            assert status == 202
            query_id = json.loads(body)["request_id"]
            status, _, body = exchange("GET", f"/v1/result/{query_id}?wait=30")
            assert json.loads(body)["result"]["rows"] == [encode_row(("anna",))]

            # Client errors are answered and the connection lives on.
            assert exchange("GET", "/v1/nope")[0] == 404
            assert exchange("POST", "/v1/update", {})[0] == 400
            assert exchange("GET", f"/v1/result/{query_id}?wait=abc")[0] == 400
            status, headers, body = exchange("GET", "/metrics")
            assert status == 200
            assert headers["content-type"].startswith("text/plain")
            assert b"codb_gateway_requests_total" in body

            # Pipelined: three requests in one write, three replies in order.
            sock.sendall(
                encode_request("GET", "/healthz")
                + encode_request("GET", "/v1/nope")
                + encode_request("GET", f"/v1/result/{update_id}")
            )
            assert [read_reply(stream)[0] for _ in range(3)] == [200, 404, 200]

            # ``Connection: close`` is honoured, and said back.
            status, headers, _ = exchange(
                "GET", "/healthz", headers=["Connection: close"]
            )
            assert status == 200 and headers["connection"] == "close"
            assert stream.read() == b""  # EOF: the gateway closed
        assert served.gateway.accepted == 1

    def test_one_request_per_connection_still_works(self, served):
        for _ in range(3):
            with socket.create_connection((served.host, served.port)) as sock:
                sock.sendall(
                    encode_request("GET", "/healthz", headers=["Connection: close"])
                )
                raw = sock.makefile("rb").read()  # framed by EOF, as before
                head, _, body = raw.partition(b"\r\n\r\n")
                assert head.startswith(b"HTTP/1.1 200 OK")
                assert json.loads(body)["status"] == "ok"
        assert served.gateway.accepted == 3


MALFORMED = [
    # (what is sent, expected status)
    (b"GET /healthz HTTP/1.1\r\nContent-Length: abc\r\n\r\n", 400),
    (b"GET /healthz HTTP/1.1\r\nContent-Length: -5\r\n\r\n", 400),
    (b"GET /healthz HTTP/1.1\r\nContent-Length: +5\r\n\r\n", 400),
    (b"GARBAGE\r\n\r\n", 400),
    (b"POST /v1/query HTTP/1.1\r\nContent-Length: 2000000\r\n\r\n", 413),
    (b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"a" * 66_000, 431),
]


class TestMalformedRequests:
    @pytest.mark.parametrize("sent, expected", MALFORMED)
    def test_answered_then_closed(self, served, sent, expected):
        with socket.create_connection((served.host, served.port)) as sock:
            sock.sendall(sent)
            stream = sock.makefile("rb")
            status, headers, body = read_reply(stream)
            assert status == expected
            assert headers["connection"] == "close"
            assert "error" in json.loads(body)
            assert stream.read() == b""
        counts = served.gateway._bad_requests_total
        assert dict(counts) == {expected: 1}

    def test_counted_in_metrics_and_gateway_keeps_serving(self, served):
        for sent, _expected in MALFORMED[:2]:
            with socket.create_connection((served.host, served.port)) as sock:
                sock.sendall(sent)
                assert read_reply(sock.makefile("rb"))[0] == 400
        status, body, _ = asyncio.run(
            http_json(served.host, served.port, "GET", "/metrics")
        )
        assert status == 200
        assert 'codb_gateway_bad_requests_total{status="400"} 2' in body["raw"]

    def test_a_deeply_nested_body_is_a_400_and_the_connection_lives(
        self, served
    ):
        nested = b"[" * 200_000
        head = (
            "POST /v1/query HTTP/1.1\r\nHost: test\r\n"
            f"Content-Length: {len(nested)}\r\n\r\n"
        )
        with socket.create_connection((served.host, served.port)) as sock:
            stream = sock.makefile("rb")
            sock.sendall(head.encode() + nested)
            status, headers, body = read_reply(stream)
            assert status == 400
            assert "connection" not in headers
            assert "nests too deeply" in json.loads(body)["error"]
            sock.sendall(encode_request("GET", "/healthz"))
            assert read_reply(stream)[0] == 200
        assert served.gateway.accepted == 1


# ----------------------------------------------------------------------
# The pooled client
# ----------------------------------------------------------------------


class TestClientReuse:
    def test_sequential_requests_share_one_connection(self, served):
        async def drive():
            for _ in range(5):
                status, reply, _ = await http_json(
                    served.host, served.port, "POST", "/v1/update", {"origin": "TN"}
                )
                assert status == 202
                status, reply, _ = await http_json(
                    served.host, served.port, "GET",
                    f"/v1/result/{reply['request_id']}?wait=30",
                )
                assert status == 200 and reply["ok"]

        asyncio.run(drive())
        assert served.gateway.accepted == 1  # not 2 x 5
        asyncio.run(drive())  # a new loop never inherits a connection
        assert served.gateway.accepted == 2
        assert loadgen._POOLS == {}

    def test_connections_track_peak_concurrency(self, served):
        async def drive():
            async def one():
                status, _, _ = await http_json(
                    served.host, served.port, "GET", "/healthz"
                )
                assert status == 200

            await asyncio.gather(*(one() for _ in range(4)))
            for _ in range(8):
                await one()
            await asyncio.gather(*(one() for _ in range(4)))

        asyncio.run(drive())
        assert served.gateway.accepted == 4

    def test_retries_on_a_connection_the_server_dropped(self, served, monkeypatch):
        monkeypatch.setattr(gateway_module, "KEEPALIVE_IDLE_S", 0.05)
        gateway = served.gateway

        async def drive():
            status, _, _ = await http_json(served.host, served.port, "GET", "/healthz")
            assert status == 200
            # Parked client-side; the gateway drops it after 50 ms idle.
            deadline = time.monotonic() + 10
            while on_gateway_loop(served, lambda: len(gateway._idle)):
                assert time.monotonic() < deadline
                await asyncio.sleep(0.01)
            status, reply, _ = await http_json(
                served.host, served.port, "POST", "/v1/update", {"origin": "TN"}
            )
            assert status == 202

        asyncio.run(drive())
        assert gateway.accepted == 2
        assert len(gateway._requests) == 1  # retried, not submitted twice

    def test_no_reuse_after_close_or_500(self, served, monkeypatch):
        gateway = served.gateway

        async def boom():
            raise RuntimeError("scrape exploded")

        monkeypatch.setattr(gateway, "_metrics", boom)

        async def drive():
            status, reply, headers = await http_json(
                served.host, served.port, "GET", "/metrics"
            )
            assert status == 500 and headers["connection"] == "close"
            assert "scrape exploded" in reply["error"]
            status, _, _ = await http_json(served.host, served.port, "GET", "/healthz")
            assert status == 200
            assert gateway.accepted == 2  # the 500's connection was spent
            status, _, headers = await http_json(
                served.host, served.port, "GET", "/healthz",
                headers={"Connection": "close"},
            )
            assert status == 200 and headers["connection"] == "close"
            status, _, _ = await http_json(served.host, served.port, "GET", "/healthz")
            assert status == 200

        asyncio.run(drive())
        assert gateway.accepted == 3

    def test_reply_without_length_is_read_to_eof(self):
        async def drive():
            async def serve(reader, writer):
                await reader.readuntil(b"\r\n\r\n")
                writer.write(b'HTTP/1.1 200 OK\r\n\r\n{"legacy": true}')
                writer.close()

            server = await asyncio.start_server(serve, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                for _ in range(2):
                    status, reply, _ = await http_json("127.0.0.1", port, "GET", "/")
                    assert status == 200 and reply == {"legacy": True}
            finally:
                server.close()
                await server.wait_closed()

        asyncio.run(drive())

    def test_a_fresh_connection_that_dies_is_an_error_not_a_retry(self):
        async def drive():
            accepted = 0

            async def serve(reader, writer):
                nonlocal accepted
                accepted += 1
                await reader.readuntil(b"\r\n\r\n")
                writer.close()

            server = await asyncio.start_server(serve, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                with pytest.raises(ConnectionError):
                    await http_json("127.0.0.1", port, "GET", "/")
            finally:
                server.close()
                await server.wait_closed()
            assert accepted == 1

        asyncio.run(drive())


# ----------------------------------------------------------------------
# Shutdown with connections parked
# ----------------------------------------------------------------------


class TestShutdownWithIdleConnections:
    def test_returns_promptly_and_silently(self, capfd):
        net = build_network()
        thread = GatewayThread(CountingGateway(net)).start()
        gateway = thread.gateway

        async def drive():
            async def one():
                await http_json(thread.host, thread.port, "GET", "/healthz")

            await asyncio.gather(*(one() for _ in range(3)))
            assert on_gateway_loop(thread, lambda: len(gateway._idle)) == 3
            started = time.monotonic()
            await asyncio.get_running_loop().run_in_executor(None, thread.stop)
            assert time.monotonic() - started < 5.0
            assert gateway._idle == {}
            # The parked client side notices on its next use.
            with pytest.raises(OSError):
                await http_json(thread.host, thread.port, "GET", "/healthz")

        try:
            asyncio.run(drive())
        finally:
            thread.stop()
            net.stop()
        assert capfd.readouterr().err == ""


# ----------------------------------------------------------------------
# One network-thread job per submission
# ----------------------------------------------------------------------


def submit_and_wait(thread, path, body):
    async def drive():
        status, reply, _ = await http_json(
            thread.host, thread.port, "POST", path, body
        )
        assert status == 202, reply
        return await http_json(
            thread.host, thread.port, "GET",
            f"/v1/result/{reply['request_id']}?wait=30",
        )

    status, reply, _ = asyncio.run(drive())
    return status, reply


class TestOneHop:
    def test_simulator_submission_is_one_job_and_settles_at_submit(self, served):
        gateway = served.gateway
        for path, body in (
            ("/v1/update", {"origin": "TN"}),
            ("/v1/query", {"node": "TN", "query": QUERY, "mode": "network"}),
            ("/v1/query", {"node": "TN", "query": QUERY, "mode": "network"}),
        ):
            before = gateway.jobs
            status, reply = submit_and_wait(served, path, body)
            assert status == 200 and reply["ok"], reply
            assert gateway.jobs - before == 1
        assert gateway.finishes == 0
        assert gateway._finishers == set()

    def test_failed_submission_is_one_job_too(self, served):
        before = served.gateway.jobs
        status, reply, _ = asyncio.run(
            http_json(
                served.host, served.port, "POST", "/v1/update", {"origin": "NOPE"}
            )
        )
        assert status == 400
        assert served.gateway.jobs - before == 1
        assert served.gateway.quotas.live() == 0

    def test_pending_handle_takes_the_future_route(self):
        """Queued behind ``max_active_sessions`` on a frozen simulator:
        nothing is done when the submit job returns."""
        net = build_network(max_active_sessions=1)
        thread = GatewayThread(CountingGateway(net)).start()
        gateway = thread.gateway
        try:
            gateway._pump_needed = False
            ids = []
            for _ in range(2):
                status, reply, _ = asyncio.run(
                    http_json(
                        thread.host, thread.port, "POST", "/v1/update",
                        {"origin": "TN"},
                    )
                )
                assert status == 202
                ids.append(reply["request_id"])
            # One waiting ``_finish`` task each, registered before the 202.
            assert on_gateway_loop(thread, lambda: len(gateway._finishers)) == 2
            assert not any(gateway._requests[i].settled for i in ids)
            gateway._pump_needed = True
            for request_id in ids:
                status, reply, _ = asyncio.run(
                    http_json(
                        thread.host, thread.port, "GET",
                        f"/v1/result/{request_id}?wait=30",
                    )
                )
                assert status == 200 and reply["ok"], reply
            assert gateway.finishes == 2
            assert gateway.quotas.live() == 0
        finally:
            gateway._pump_needed = True
            thread.stop()
            net.stop()

    def test_tcp_network_settles_by_either_route(self):
        net = build_network(transport=TcpNetwork())
        thread = GatewayThread(CountingGateway(net)).start()
        gateway = thread.gateway
        try:
            assert gateway._pump_needed is False
            status, reply = submit_and_wait(thread, "/v1/update", {"origin": "TN"})
            assert status == 200 and reply["result"]["outcome"] == "complete"
            # Done at submit: one job.  Still in flight: the future
            # route adds the assembly hop.
            assert gateway.jobs == 1 + gateway.finishes
            status, reply = submit_and_wait(
                thread, "/v1/query", {"node": "TN", "query": QUERY, "mode": "local"}
            )
            assert reply["result"]["rows"] == [encode_row(("anna",))]
        finally:
            thread.stop()
            net.stop()


# ----------------------------------------------------------------------
# Encode once: reply bytes
# ----------------------------------------------------------------------


def raw_get(thread, path) -> tuple[int, bytes]:
    with socket.create_connection((thread.host, thread.port)) as sock:
        sock.sendall(encode_request("GET", path, headers=["Connection: close"]))
        status, _headers, body = read_reply(sock.makefile("rb"))
    return status, body


def parent_body(payload: dict) -> bytes:
    """How the dict-per-poll gateway serialised a reply."""
    return (json.dumps(payload) + "\n").encode("utf-8")


class TestResultBytes:
    def test_settled_update_and_query(self, served):
        gateway = served.gateway
        direct = build_network()
        try:
            outcome = direct.submit_global_update("TN").result()
            rows = direct.query("TN", QUERY, mode="network")
        finally:
            direct.stop()

        _, reply = submit_and_wait(served, "/v1/update", {"origin": "TN"})
        record = gateway._requests[reply["request_id"]]
        expected = record.summary()
        expected["result"] = {
            "update_id": record.request_id,
            "origin": "TN",
            "outcome": "complete",
            "wall_time": reply["result"]["wall_time"],
            "transport_messages": outcome.transport_messages,
            "transport_bytes": outcome.transport_bytes,
            "rows_imported": outcome.rows_imported,
            "result_messages": outcome.result_messages,
            "longest_path": outcome.longest_path,
        }
        status, body = raw_get(served, f"/v1/result/{record.request_id}")
        assert status == 200 and body == parent_body(expected)
        # Polling again re-sends the same bytes.
        assert raw_get(served, f"/v1/result/{record.request_id}?wait=5")[1] == body

        _, reply = submit_and_wait(
            served, "/v1/query", {"node": "TN", "query": QUERY, "mode": "network"}
        )
        record = gateway._requests[reply["request_id"]]
        expected = record.summary()
        expected["result"] = {"rows": [encode_row(row) for row in rows]}
        status, body = raw_get(served, f"/v1/result/{record.request_id}")
        assert status == 200 and body == parent_body(expected)
        assert isinstance(record.result, str)  # text, not row lists

    def test_pending_cancelled_and_failed(self):
        net = build_network(max_active_sessions=1)
        thread = GatewayThread(CountingGateway(net)).start()
        gateway = thread.gateway
        try:
            gateway._pump_needed = False
            ids = []
            for _ in range(3):
                status, reply, _ = asyncio.run(
                    http_json(
                        thread.host, thread.port, "POST", "/v1/update",
                        {"origin": "TN"},
                    )
                )
                ids.append(reply["request_id"])
            live, queued, doomed = (gateway._requests[i] for i in ids)

            status, body = raw_get(thread, f"/v1/result/{live.request_id}")
            assert status == 202 and body == parent_body(live.summary())
            assert "result" not in json.loads(body)

            status, reply, _ = asyncio.run(
                http_json(
                    thread.host, thread.port, "DELETE",
                    f"/v1/request/{queued.request_id}",
                )
            )
            assert reply["retracted"] is True
            status, body = raw_get(thread, f"/v1/result/{queued.request_id}?wait=30")
            assert status == 200 and body == parent_body(queued.summary())
            payload = json.loads(body)
            assert payload["status"] == "cancelled" and payload["ok"] is False
            assert payload["error"] == "retracted before admission"
            assert "result" not in payload

            on_gateway_loop(
                thread, lambda: gateway._settle(doomed, "failed", error="boom")
            )
            status, body = raw_get(thread, f"/v1/result/{doomed.request_id}")
            assert status == 200 and body == parent_body(doomed.summary())
            payload = json.loads(body)
            assert payload["status"] == "failed" and payload["error"] == "boom"
            assert "result" not in payload
        finally:
            gateway._pump_needed = True
            thread.stop()
            net.stop()


# ----------------------------------------------------------------------
# Record retention
# ----------------------------------------------------------------------


class TestTrimRecords:
    def test_trims_oldest_settled_and_only_past_retention(self):
        net = build_network()
        thread = GatewayThread(CountingGateway(net, retention=3)).start()
        gateway = thread.gateway
        try:
            ids = []
            for _ in range(3):
                _, reply = submit_and_wait(thread, "/v1/update", {"origin": "TN"})
                ids.append(reply["request_id"])
            assert list(gateway._requests) == ids  # at the cap: nothing goes
            # An unsettled record at the front is stepped over, not waited for.
            on_gateway_loop(
                thread, lambda: setattr(gateway._requests[ids[0]], "settled", False)
            )
            _, reply = submit_and_wait(thread, "/v1/update", {"origin": "TN"})
            ids.append(reply["request_id"])
            assert list(gateway._requests) == [ids[0], ids[2], ids[3]]
            on_gateway_loop(
                thread, lambda: setattr(gateway._requests[ids[0]], "settled", True)
            )
        finally:
            thread.stop()
            net.stop()


class TestQuotaBurst:
    def test_burst_over_the_cap_yields_429s_on_kept_connections(self):
        """Same 429s as one-connection-per-request: rejected at the
        door, never queued, and the connection survives the refusal."""
        net = build_network()
        thread = GatewayThread(
            CountingGateway(net, quotas=TenantQuotas(2))
        ).start()
        gateway = thread.gateway
        stall = threading.Event()
        try:
            gateway._net_exec.submit(stall.wait)  # park every submission

            async def drive():
                async def post():
                    return await http_json(
                        thread.host, thread.port, "POST", "/v1/update",
                        {"origin": "TN"}, headers={"X-Tenant": "greedy"},
                    )

                admitted = [asyncio.ensure_future(post()) for _ in range(2)]
                deadline = time.monotonic() + 10
                while on_gateway_loop(thread, gateway.quotas.live) < 2:
                    assert time.monotonic() < deadline
                    await asyncio.sleep(0.01)
                refused = await asyncio.gather(*(post() for _ in range(5)))
                for status, reply, headers in refused:
                    assert status == 429 and reply["tenant"] == "greedy"
                    assert float(headers["retry-after"]) > 0
                    assert "connection" not in headers
                stall.set()
                for status, reply, _ in await asyncio.gather(*admitted):
                    assert status == 202
                    status, reply, _ = await http_json(
                        thread.host, thread.port, "GET",
                        f"/v1/result/{reply['request_id']}?wait=30",
                    )
                    assert status == 200 and reply["ok"]

            asyncio.run(drive())
            counters = gateway.quotas.counters()["greedy"]
            assert counters["rejected"] == 5 and counters["admitted"] == 2
            assert gateway.quotas.live() == 0
            assert gateway.accepted == 7  # peak concurrency: 2 parked + 5 refused
        finally:
            stall.set()
            thread.stop()
            net.stop()

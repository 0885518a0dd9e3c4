"""The service gateway end to end: differential answers, quotas under
storm, retraction, SIGTERM drain, streaming and error surfaces.

Every test drives a real gateway over real sockets (loopback, port 0)
with the stdlib loadgen client — no mocks, no sleep-polling.  The
deterministic quota/retraction tests hold the gateway's single network
executor hostage with a ``threading.Event`` so over-cap submissions
and queued-behind-admission states are reproduced exactly, not raced.
"""

import asyncio
import json
import os
import signal
import socket
import threading

import pytest

from repro import CoDBNetwork, NodeConfig, TenantQuotas
from repro.p2p.procs import ProcessNetwork
from repro.relational.containment import rows_equal_up_to_nulls
from repro.relational.parser import MAX_QUERY_CHARS
from repro.relational.values import decode_row
from repro.service import serve_in_thread
from repro.service.loadgen import (
    Workload,
    http_json,
    run_open_loop_sync,
    stream_events,
)

QUERY = "q(n) <- resident(n)"


def build_network(**config) -> CoDBNetwork:
    """BZ -> TN with an existential-free rule plus one minting nulls,
    so query answers carry marked nulls (the differential comparison
    must hold up to null renaming, not just equality)."""
    net = CoDBNetwork(seed=11, config=NodeConfig(**config))
    net.add_node(
        "BZ",
        "person(name: str, city: str)",
        facts="""
        person('anna',  'Trento').
        person('bruno', 'Bolzano').
        person('carla', 'Trento').
        """,
    )
    net.add_node(
        "TN", "resident(name: str)\nhoused(name: str, addr: str)"
    )
    net.add_rule("TN:resident(n) <- BZ:person(n, c), c = 'Trento'")
    net.add_rule("TN:housed(n, A) <- BZ:person(n, c), c = 'Trento'")
    net.start()
    return net


def request(thread, method, path, body=None, **kwargs):
    return asyncio.run(
        http_json(thread.host, thread.port, method, path, body, **kwargs)
    )


def submit_and_wait(thread, path, body, tenant="default", wait=30):
    status, reply, _ = request(
        thread, "POST", path, body, headers={"X-Tenant": tenant}
    )
    assert status == 202, reply
    status, reply, _ = request(
        thread, "GET", f"/v1/result/{reply['request_id']}?wait={wait}"
    )
    return status, reply


class TestDifferential:
    """The gateway is a transport, not a semantics layer: answers must
    match a direct handle-API run up to a renaming of marked nulls."""

    def test_update_and_query_match_direct_run(self):
        direct = build_network()
        try:
            outcome = direct.submit_global_update("TN").result()
            direct_rows = direct.query("TN", QUERY)
            direct_housed = direct.query("TN", "q(n, a) <- housed(n, a)")
        finally:
            direct.stop()

        net = build_network()
        thread = serve_in_thread(net)
        try:
            status, reply = submit_and_wait(
                thread, "/v1/update", {"origin": "TN"}
            )
            assert status == 200 and reply["ok"], reply
            result = reply["result"]
            assert result["outcome"] == "complete"
            assert result["origin"] == "TN"
            assert result["rows_imported"] == outcome.rows_imported
            assert result["result_messages"] == outcome.result_messages
            assert result["longest_path"] == outcome.longest_path

            status, reply = submit_and_wait(
                thread,
                "/v1/query",
                {"node": "TN", "query": QUERY, "mode": "local"},
            )
            gateway_rows = [decode_row(r) for r in reply["result"]["rows"]]
            assert rows_equal_up_to_nulls(gateway_rows, direct_rows)

            status, reply = submit_and_wait(
                thread,
                "/v1/query",
                {"node": "TN", "query": "q(n, a) <- housed(n, a)",
                 "mode": "local"},
            )
            gateway_housed = [decode_row(r) for r in reply["result"]["rows"]]
            # housed/2 mints a null per row: the bijection search must
            # do real work here, proving wire encoding preserves nulls.
            assert any(
                not isinstance(v, str) for row in gateway_housed for v in row
            )
            assert rows_equal_up_to_nulls(gateway_housed, direct_housed)
        finally:
            thread.stop()
            net.stop()

    def test_network_query_through_gateway(self):
        net = build_network()
        thread = serve_in_thread(net)
        try:
            status, reply = submit_and_wait(
                thread,
                "/v1/query",
                {"node": "TN", "query": QUERY, "mode": "network"},
            )
            rows = {decode_row(r) for r in reply["result"]["rows"]}
            assert rows == {("anna",), ("carla",)}
        finally:
            thread.stop()
            net.stop()


class TestConcurrentStorm:
    def test_64_submissions_across_4_tenants_none_lost(self):
        net = build_network(max_active_sessions=4)
        thread = serve_in_thread(net, quotas=TenantQuotas(4))
        try:
            result = run_open_loop_sync(
                thread.host,
                thread.port,
                Workload(origins=["BZ", "TN"], queries=[("TN", QUERY)]),
                total=64,
                rate=400.0,
                tenants=("t0", "t1", "t2", "t3"),
            )
            assert result.sent == 64
            assert result.lost == 0
            assert result.failed == 0
            assert result.completed == 64
            counters = thread.gateway.quotas.counters()
            assert set(counters) == {"t0", "t1", "t2", "t3"}
            for tenant, stats in counters.items():
                assert stats["live"] == 0, tenant  # no leaked slots
                assert 0 < stats["peak"] <= 4, tenant  # cap enforced
        finally:
            thread.stop()
            net.stop()


class TestQuotaExhaustion:
    def test_429_is_retryable_and_leaks_no_slot(self):
        net = build_network(max_active_sessions=4)
        thread = serve_in_thread(net, quotas=TenantQuotas(1))
        gateway = thread.gateway
        stall = threading.Event()
        try:
            # Hold the network executor hostage: the first submission
            # acquires its quota slot, then parks on the executor hop.
            gateway._net_exec.submit(stall.wait)

            first: dict = {}

            def submit_first():
                status, reply, _ = request(
                    thread,
                    "POST",
                    "/v1/update",
                    {"origin": "TN"},
                    headers={"X-Tenant": "greedy"},
                )
                first["status"], first["reply"] = status, reply

            blocked = threading.Thread(target=submit_first)
            blocked.start()
            deadline = 50
            while gateway.quotas.live("greedy") == 0 and deadline:
                threading.Event().wait(0.02)
                deadline -= 1
            assert gateway.quotas.live("greedy") == 1

            # Over-cap while the slot is held: immediate deterministic
            # 429 with a Retry-After header, and no slot consumed.
            status, reply, headers = request(
                thread,
                "POST",
                "/v1/update",
                {"origin": "TN"},
                headers={"X-Tenant": "greedy"},
            )
            assert status == 429
            assert reply["tenant"] == "greedy"
            assert float(reply["retry_after"]) > 0
            assert float(headers["retry-after"]) > 0
            assert gateway.quotas.live("greedy") == 1

            # Other tenants are unaffected: no head-of-line blocking
            # from greedy's 429s (their submission completes once the
            # executor is released below).
            stall.set()
            blocked.join(30)
            assert first["status"] == 202
            status, reply = submit_and_wait(
                thread, "/v1/update", {"origin": "BZ"}, tenant="polite"
            )
            assert status == 200 and reply["ok"]

            # The retry the 429 promised now succeeds: wait for the
            # first request to settle, then resubmit.
            status, reply, _ = request(
                thread,
                "GET",
                f"/v1/result/{first['reply']['request_id']}?wait=30",
            )
            assert status == 200
            status, reply = submit_and_wait(
                thread, "/v1/update", {"origin": "TN"}, tenant="greedy"
            )
            assert status == 200 and reply["ok"]
            assert gateway.quotas.live() == 0  # every slot came back
            counters = gateway.quotas.counters()["greedy"]
            assert counters["rejected"] == 1
            assert counters["admitted"] == 2
        finally:
            stall.set()
            thread.stop()
            net.stop()


class TestRetraction:
    def test_queued_request_retracts_and_releases_slot(self):
        net = build_network(max_active_sessions=1)
        thread = serve_in_thread(net)
        gateway = thread.gateway
        try:
            # Freeze the simulator: submissions are admitted (or
            # queued) synchronously but no session makes progress, so
            # the second same-origin update sits in TN's admission
            # queue — the only state DELETE may retract from.
            gateway._pump_needed = False
            status, live_reply, _ = request(
                thread, "POST", "/v1/update", {"origin": "TN"}
            )
            assert status == 202
            status, queued_reply, _ = request(
                thread, "POST", "/v1/update", {"origin": "TN"}
            )
            assert status == 202

            status, reply, _ = request(
                thread,
                "DELETE",
                f"/v1/request/{queued_reply['request_id']}",
            )
            assert status == 200 and reply["retracted"] is True

            # Thaw: the live update completes, the retracted one
            # settles as cancelled without ever running.
            gateway._pump_needed = True
            status, reply, _ = request(
                thread,
                "GET",
                f"/v1/result/{live_reply['request_id']}?wait=30",
            )
            assert status == 200 and reply["ok"], reply
            status, reply, _ = request(
                thread,
                "GET",
                f"/v1/result/{queued_reply['request_id']}?wait=30",
            )
            assert status == 200
            assert reply["status"] == "cancelled"
            assert reply["ok"] is False
            assert gateway.quotas.live() == 0

            # Retracting a settled request is a no-op, reported as such.
            status, reply, _ = request(
                thread,
                "DELETE",
                f"/v1/request/{queued_reply['request_id']}",
            )
            assert status == 200 and reply["retracted"] is False
        finally:
            gateway._pump_needed = True
            thread.stop()
            net.stop()


class TestSigtermDrain:
    def test_sigterm_mid_storm_settles_every_request(self):
        net = build_network(max_active_sessions=2)
        thread = serve_in_thread(net, quotas=TenantQuotas(8))
        gateway = thread.gateway
        try:
            thread.install_sigterm()
            ids = []
            for index in range(8):
                status, reply, _ = request(
                    thread,
                    "POST",
                    "/v1/update",
                    {"origin": ("TN", "BZ")[index % 2]},
                    headers={"X-Tenant": f"t{index % 4}"},
                )
                assert status == 202
                ids.append(reply["request_id"])

            os.kill(os.getpid(), signal.SIGTERM)
            thread.stop()  # joins the drain the signal started

            # Every accepted request settled: done, cancelled or
            # cleanly failed — never hung, never leaking admission.
            records = gateway._requests
            assert set(ids) <= set(records)
            for request_id in ids:
                record = records[request_id]
                assert record.settled, request_id
                assert record.status in {"done", "cancelled", "failed"}
            assert gateway.quotas.live() == 0
        finally:
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            thread.stop()
            net.stop()


class TestStreaming:
    def test_stream_sees_completions(self):
        net = build_network()
        thread = serve_in_thread(net)
        try:
            events = asyncio.run(self._subscribe_and_submit(thread))
            assert events[0] == {"event": "hello", "streaming": "ndjson"}
            completed = [e for e in events if e["event"] == "completed"]
            assert len(completed) == 1
            assert completed[0]["status"] == "done"
            assert completed[0]["ok"] is True
            assert completed[0]["kind"] == "update"
        finally:
            thread.stop()
            net.stop()

    def test_upgrade_request_gets_the_ndjson_reply(self):
        """There is one stream format: a WebSocket handshake is answered
        byte for byte like a plain ``GET /v1/stream``."""

        def opening(extra_headers):
            with socket.create_connection(
                (thread.host, thread.port), timeout=10
            ) as sock:
                sock.sendall(
                    (
                        "GET /v1/stream HTTP/1.1\r\n"
                        f"Host: {thread.host}\r\n{extra_headers}\r\n"
                    ).encode("latin-1")
                )
                with sock.makefile("rb") as stream:
                    head = b""
                    while not head.endswith(b"\r\n\r\n"):
                        head += stream.readline()
                    return head, json.loads(stream.readline())

        net = build_network()
        thread = serve_in_thread(net)
        try:
            plain = opening("")
            upgraded = opening(
                "Upgrade: websocket\r\nConnection: Upgrade\r\n"
                "Sec-WebSocket-Key: Y29kYi1sb2FkZ2VuLXdzLWtleQ==\r\n"
                "Sec-WebSocket-Version: 13\r\n"
            )
            assert upgraded == plain
            head, hello = upgraded
            assert head.startswith(b"HTTP/1.1 200 OK\r\n")
            assert b"application/x-ndjson" in head
            assert hello == {"event": "hello", "streaming": "ndjson"}
        finally:
            thread.stop()
            net.stop()

    @staticmethod
    async def _subscribe_and_submit(thread):
        events = []
        ready = asyncio.Event()

        async def subscribe():
            async for event in stream_events(thread.host, thread.port):
                events.append(event)
                if event.get("event") == "hello":
                    ready.set()
                if event.get("event") == "completed":
                    return

        subscriber = asyncio.create_task(subscribe())
        await asyncio.wait_for(ready.wait(), 10)
        status, reply, _ = await http_json(
            thread.host, thread.port, "POST", "/v1/update", {"origin": "TN"}
        )
        assert status == 202
        await http_json(
            thread.host,
            thread.port,
            "GET",
            f"/v1/result/{reply['request_id']}?wait=30",
        )
        await asyncio.wait_for(subscriber, 10)
        return events


class TestErrorSurfaces:
    def test_unknown_routes_and_ids(self):
        net = build_network()
        thread = serve_in_thread(net)
        try:
            status, _, _ = request(thread, "GET", "/v1/nope")
            assert status == 404
            status, reply, _ = request(thread, "GET", "/v1/result/ghost")
            assert status == 404
            status, reply, _ = request(thread, "DELETE", "/v1/request/ghost")
            assert status == 404
        finally:
            thread.stop()
            net.stop()

    def test_bad_submissions_release_their_slot(self):
        net = build_network()
        thread = serve_in_thread(net)
        gateway = thread.gateway
        try:
            # Unknown node: the quota slot taken before the network
            # hop must be released on the submission error.
            status, reply, _ = request(
                thread, "POST", "/v1/update", {"origin": "NOPE"}
            )
            assert status == 400
            assert gateway.quotas.live() == 0
            # Malformed query text surfaces as a 400, not a 500.
            status, reply, _ = request(
                thread,
                "POST",
                "/v1/query",
                {"node": "TN", "query": "this is not a query"},
            )
            assert status == 400
            assert gateway.quotas.live() == 0
            # So does a query text over the parser's size cap, refused
            # unread.
            status, reply, _ = request(
                thread,
                "POST",
                "/v1/query",
                {"node": "TN", "query": QUERY + " " * MAX_QUERY_CHARS},
            )
            assert status == 400
            assert "cap" in reply["error"]
            assert gateway.quotas.live() == 0
            # Missing required field.
            status, reply, _ = request(thread, "POST", "/v1/update", {})
            assert status == 400
        finally:
            thread.stop()
            net.stop()

    def test_the_retired_persist_field_fails_closed(self):
        net = build_network()
        thread = serve_in_thread(net)
        try:
            body = {"node": "TN", "query": QUERY, "mode": "network"}
            status, reply, _ = request(
                thread, "POST", "/v1/query", {**body, "persist": False}
            )
            assert status == 400
            assert "persist" in reply["error"]
            assert thread.gateway.quotas.live() == 0
            assert net.node("TN").rows("resident") == []  # nothing ran
            for extra in ({}, {"persist": True}):
                status, reply = submit_and_wait(
                    thread, "/v1/query", {**body, **extra}
                )
                assert status == 200
                rows = {decode_row(r) for r in reply["result"]["rows"]}
                assert rows == {("anna",), ("carla",)}
        finally:
            thread.stop()
            net.stop()

    @pytest.mark.parametrize(
        "value", [None, 0, 1, "true"], ids=["null", "zero", "one", "string"]
    )
    def test_a_persist_field_that_is_not_true_is_refused(self, value):
        # Only the JSON literal true means what every query now does.
        net = build_network()
        thread = serve_in_thread(net)
        try:
            status, reply, _ = request(
                thread,
                "POST",
                "/v1/query",
                {"node": "TN", "query": QUERY, "mode": "network", "persist": value},
            )
            assert status == 400
            assert "persist" in reply["error"]
            assert thread.gateway.quotas.live() == 0
        finally:
            thread.stop()
            net.stop()

    def test_healthz_and_requests_listing(self):
        net = build_network()
        thread = serve_in_thread(net)
        try:
            status, reply, _ = request(thread, "GET", "/healthz")
            assert status == 200
            assert reply["status"] == "ok"
            submit_and_wait(thread, "/v1/update", {"origin": "TN"})
            status, reply, _ = request(thread, "GET", "/v1/requests")
            assert status == 200
            assert len(reply["requests"]) == 1
            assert reply["requests"][0]["status"] == "done"
        finally:
            thread.stop()
            net.stop()


class TestProcessNetworkGateway:
    """The same front door over one-OS-process-per-node deployment."""

    def test_updates_and_queries_over_processes(self):
        net = ProcessNetwork(seed=5)
        net.add_node(
            "BZ",
            "person(name: str, city: str)",
            facts="person('anna', 'Trento'). person('dino', 'Bolzano').",
        )
        net.add_node("TN", "resident(name: str)")
        net.add_rule("TN:resident(n) <- BZ:person(n, c), c = 'Trento'")
        net.start()
        thread = serve_in_thread(net)
        try:
            status, reply = submit_and_wait(
                thread, "/v1/update", {"origin": "TN"}
            )
            assert status == 200 and reply["ok"], reply
            assert reply["result"]["outcome"] == "complete"
            status, reply = submit_and_wait(
                thread,
                "/v1/query",
                {"node": "TN", "query": QUERY, "mode": "local"},
            )
            rows = {decode_row(r) for r in reply["result"]["rows"]}
            assert rows == {("anna",)}
        finally:
            thread.stop()
            net.stop()


class TestServeCli:
    def test_selftest_drives_the_gateway(self, tmp_path, capsys):
        from repro.cli import main

        spec = {
            "seed": 3,
            "nodes": [
                {
                    "name": "BZ",
                    "schema": "person(name: str, city: str)",
                    "facts": "person('anna', 'Trento').",
                },
                {"name": "TN", "schema": "resident(name: str)"},
            ],
            "rules": "TN:resident(n) <- BZ:person(n, c), c = 'Trento'",
        }
        spec_path = tmp_path / "network.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        code = main(
            ["serve", str(spec_path), "--port", "0", "--selftest", "8"]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["sent"] == 8
        assert summary["lost"] == 0
        assert summary["failed"] == 0

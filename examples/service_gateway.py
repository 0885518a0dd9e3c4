"""The service gateway: a coDB network as a long-running service.

Everything else in ``examples/`` is a driver script — build a network,
run a storm, exit.  This example keeps the network up behind the
:mod:`repro.service` gateway and talks to it the way an external
client would: HTTP submissions, per-tenant quotas, a live completion
stream, and a Prometheus ``/metrics`` scrape.

Run:  python examples/service_gateway.py
"""

import asyncio
import json

from repro import CoDBNetwork, NodeConfig, TenantQuotas, serve_in_thread
from repro.service import parse_metrics
from repro.service.loadgen import (
    Workload,
    http_json,
    run_open_loop,
    stream_events,
)


def build_network() -> CoDBNetwork:
    net = CoDBNetwork(seed=7, config=NodeConfig(max_active_sessions=4))
    net.add_node(
        "BZ",
        "person(name: str, city: str)",
        facts="""
        person('anna',  'Trento').
        person('bruno', 'Bolzano').
        person('carla', 'Trento').
        """,
    )
    net.add_node("TN", "resident(name: str)")
    net.add_rule("TN:resident(n) <- BZ:person(n, c), c = 'Trento'")
    net.start()
    return net


async def drive(host: str, port: int) -> None:
    # A streaming subscriber sees completions in real time (NDJSON).
    events: list[dict] = []

    async def subscribe() -> None:
        async for event in stream_events(host, port):
            events.append(event)
            if sum(1 for e in events if e.get("event") == "completed") >= 3:
                return

    subscriber = asyncio.create_task(subscribe())
    await asyncio.sleep(0.05)  # let the subscription land first

    # Submit an update, await its outcome over plain HTTP.
    status, reply, _ = await http_json(
        host, port, "POST", "/v1/update", {"origin": "TN", "tenant": "demo"}
    )
    print(f"POST /v1/update -> {status} {reply}")
    request_id = reply["request_id"]
    status, reply, _ = await http_json(
        host, port, "GET", f"/v1/result/{request_id}?wait=10"
    )
    print(f"GET /v1/result  -> {status} outcome={reply['result']['outcome']}")

    # Queries go through the same front door.
    status, reply, _ = await http_json(
        host,
        port,
        "POST",
        "/v1/query",
        {"node": "TN", "query": "q(n) <- resident(n)", "tenant": "demo"},
    )
    request_id = reply["request_id"]
    status, reply, _ = await http_json(
        host, port, "GET", f"/v1/result/{request_id}?wait=10"
    )
    print(f"query rows      -> {reply['result']['rows']}")

    # An open-loop burst across two tenants, quota-checked.
    result = await run_open_loop(
        host,
        port,
        Workload(origins=["BZ", "TN"]),
        total=8,
        rate=100.0,
        tenants=("alpha", "beta"),
    )
    print(f"open loop       -> {json.dumps(result.summary())}")

    await asyncio.wait_for(subscriber, 10)
    print(f"streamed        -> {len(events)} event(s), "
          f"first: {events[0]['event']}")

    # Scrape /metrics and read one §4 counter back out of it.
    status, text, _ = await http_json(host, port, "GET", "/metrics")
    raw = text["raw"] if isinstance(text, dict) else text
    parsed = parse_metrics(raw)
    print(f"/metrics        -> {len(parsed.types)} families; "
          f"TN updates_total="
          f"{parsed.value('codb_node_updates_total', node='TN')}")


def main() -> None:
    net = build_network()
    gateway = serve_in_thread(net, quotas=TenantQuotas(4))
    print(f"gateway at http://{gateway.host}:{gateway.port}\n")
    try:
        asyncio.run(drive(gateway.host, gateway.port))
    finally:
        gateway.stop()  # drains in-flight requests, settles every handle
        net.stop()
    print("\nclean shutdown: every accepted request settled.")


if __name__ == "__main__":
    main()

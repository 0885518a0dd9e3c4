"""The service front door: a long-lived gateway over the handle API.

Everything below :mod:`repro.core` is driver-script-shaped — a network
boots, a script submits a storm, the process exits.  This package
turns the reproduction into something a load generator (and eventually
real traffic) can hit:

* :mod:`repro.service.gateway` — an asyncio HTTP gateway
  (stdlib streams, no new runtime deps) over a persistent
  :class:`~repro.core.network.CoDBNetwork` or
  :class:`~repro.p2p.procs.ProcessNetwork`;
* :mod:`repro.service.quotas` — per-tenant admission quotas layered on
  ``NodeConfig.max_active_sessions`` (the retract/yield message for
  adversarial arrival skew);
* :mod:`repro.service.metrics` — the §4 statistics module as live
  operational metrics: Prometheus text exposition of
  ``lifetime_totals()`` plus gateway counters, and a strict parser the
  scrape-lint tests use;
* :mod:`repro.service.loadgen` — an async open-loop load generator
  driving the gateway for benchmarks.
"""

from repro.service.gateway import GatewayThread, ServiceGateway, serve_in_thread
from repro.service.loadgen import LoadResult, Workload, run_open_loop
from repro.service.metrics import MetricsFormatError, parse_metrics, render_metrics
from repro.service.quotas import QuotaExceededError, TenantQuotas

__all__ = [
    "GatewayThread",
    "LoadResult",
    "MetricsFormatError",
    "QuotaExceededError",
    "ServiceGateway",
    "TenantQuotas",
    "Workload",
    "parse_metrics",
    "render_metrics",
    "run_open_loop",
    "serve_in_thread",
]

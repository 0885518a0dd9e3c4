"""Prometheus rendering + the strict scrape-lint parser.

The acceptance check for the service gateway's ``/metrics`` endpoint:
the rendered payload must be valid text exposition format 0.0.4,
verified by a parser — not by eyeball.  ``TestLiveGatewayScrape``
scrapes a real gateway and asserts both validity and the presence of
the dispatch / cache / fault / admission counter families.
"""

import pytest

from repro import CoDBNetwork, NodeConfig, TenantQuotas, serve_in_thread
from repro.service.loadgen import Workload, run_open_loop_sync
from repro.service.metrics import (
    MetricFamily,
    MetricsFormatError,
    node_families,
    parse_metrics,
    quantile,
    render_families,
    render_metrics,
    tenant_families,
)


class TestRendering:
    def test_roundtrip_through_parser(self):
        families = [
            MetricFamily("demo_total", "counter", "a counter").add(
                {"node": "BZ"}, 3
            ).add({"node": "TN"}, 5),
            MetricFamily("demo_gauge", "gauge", "a gauge").add({}, 1.5),
        ]
        parsed = parse_metrics(render_families(families))
        assert parsed.types == {"demo_total": "counter", "demo_gauge": "gauge"}
        assert parsed.value("demo_total", node="BZ") == 3
        assert parsed.value("demo_total", node="TN") == 5
        assert parsed.value("demo_gauge") == 1.5

    def test_label_values_escaped_and_recovered(self):
        tricky = 'quo"te\\slash\nnewline'
        families = [
            MetricFamily("demo_total", "counter", "h").add(
                {"tenant": tricky}, 1
            )
        ]
        parsed = parse_metrics(render_families(families))
        assert parsed.value("demo_total", tenant=tricky) == 1

    def test_summary_renders_sum_and_count(self):
        family = MetricFamily(
            "demo_seconds",
            "summary",
            "latency",
            sum_value=2.5,
            count_value=4.0,
        )
        family.add({"quantile": "0.5"}, 0.5)
        parsed = parse_metrics(render_families([family]))
        assert parsed.value("demo_seconds", quantile="0.5") == 0.5
        assert parsed.value("demo_seconds_sum") == 2.5
        assert parsed.value("demo_seconds_count") == 4

    def test_empty_families_are_skipped(self):
        text = render_families(
            [MetricFamily("demo_total", "counter", "never sampled")]
        )
        assert "demo_total" not in text

    def test_nan_sample_refused(self):
        family = MetricFamily("demo_total", "counter", "h").add(
            {}, float("nan")
        )
        with pytest.raises(MetricsFormatError):
            render_families([family])

    def test_duplicate_family_refused(self):
        families = [
            MetricFamily("demo_total", "counter", "h").add({}, 1),
            MetricFamily("demo_total", "counter", "h").add({}, 2),
        ]
        with pytest.raises(MetricsFormatError):
            render_families(families)

    def test_bad_name_and_type_refused(self):
        with pytest.raises(MetricsFormatError):
            render_families(
                [MetricFamily("demo total", "counter", "h").add({}, 1)]
            )
        with pytest.raises(MetricsFormatError):
            render_families(
                [MetricFamily("demo_total", "meter", "h").add({}, 1)]
            )


class TestNodeFamilies:
    def test_declared_keys_use_their_prometheus_names(self):
        families = node_families(
            {"BZ": {"updates": 2, "cache_hits": 7}}
        )
        by_name = {family.name: family for family in families}
        assert by_name["codb_node_updates_total"].samples == [
            ({"node": "BZ"}, 2.0)
        ]
        assert by_name["codb_node_cache_hits_total"].type == "counter"

    def test_unknown_numeric_key_falls_back_to_gauge(self):
        families = node_families({"BZ": {"brand-new counter": 3}})
        (family,) = families
        assert family.name == "codb_node_brand_new_counter"
        assert family.type == "gauge"
        parse_metrics(render_families(families))  # still a legal scrape

    def test_list_values_export_length(self):
        families = node_families(
            {"BZ": {"unreachable_peers": ["TN", "RM"]}}
        )
        (family,) = families
        assert family.samples == [({"node": "BZ"}, 2.0)]

    def test_non_numeric_values_skipped(self):
        assert node_families({"BZ": {"diagnostic": "text"}}) == []

    def test_tenant_families_shape(self):
        families = tenant_families(
            {"BZ": {"alpha": {"update": 2, "query": 1}}}
        )
        (family,) = families
        assert family.name == "codb_node_tenant_submissions_total"
        parsed = parse_metrics(render_families(families))
        assert (
            parsed.value(
                "codb_node_tenant_submissions_total",
                node="BZ",
                tenant="alpha",
                kind="update",
            )
            == 2
        )
        assert tenant_families({}) == []


class TestParserRejections:
    def test_malformed_sample_line(self):
        with pytest.raises(MetricsFormatError):
            parse_metrics("# TYPE a counter\na{b} oops trailing\n")

    def test_duplicate_sample(self):
        with pytest.raises(MetricsFormatError):
            parse_metrics('# TYPE a counter\na{x="1"} 1\na{x="1"} 2\n')

    def test_unknown_type(self):
        with pytest.raises(MetricsFormatError):
            parse_metrics("# TYPE a meter\na 1\n")

    def test_type_after_samples(self):
        with pytest.raises(MetricsFormatError):
            parse_metrics("# TYPE b counter\nb 1\na 1\n# TYPE a counter\n")

    def test_sample_without_type(self):
        with pytest.raises(MetricsFormatError):
            parse_metrics("# TYPE a counter\na 1\nloose_sample 2\n")

    def test_second_type_for_family(self):
        with pytest.raises(MetricsFormatError):
            parse_metrics("# TYPE a counter\n# TYPE a gauge\na 1\n")

    def test_bad_label_block(self):
        with pytest.raises(MetricsFormatError):
            parse_metrics('# TYPE a counter\na{x=unquoted} 1\n')
        with pytest.raises(MetricsFormatError):
            parse_metrics('# TYPE a counter\na{x="1",} 1\n')

    def test_duplicate_label_name(self):
        with pytest.raises(MetricsFormatError):
            parse_metrics('# TYPE a counter\na{x="1",x="2"} 1\n')

    def test_non_finite_values(self):
        with pytest.raises(MetricsFormatError):
            parse_metrics("# TYPE a gauge\na NaN\n")
        with pytest.raises(MetricsFormatError):
            parse_metrics("# TYPE a gauge\na +Inf\n")
        with pytest.raises(MetricsFormatError):
            parse_metrics("# TYPE a gauge\na potato\n")

    def test_plain_comments_ignored(self):
        parsed = parse_metrics("# just a note\n# TYPE a counter\na 1\n")
        assert parsed.value("a") == 1


class TestQuantile:
    def test_nearest_rank(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert quantile(values, 0.5) == 2.0
        assert quantile(values, 0.99) == 4.0
        assert quantile([], 0.5) == 0.0


class TestLiveGatewayScrape:
    """Scrape a real gateway; the ISSUE's parser-verified acceptance
    criterion: dispatch, cache, fault and admission counters all
    present in one valid exposition payload."""

    def test_scrape_is_valid_and_complete(self):
        net = CoDBNetwork(seed=3, config=NodeConfig(max_active_sessions=4))
        net.add_node(
            "BZ",
            "person(name: str, city: str)",
            facts="person('anna', 'Trento'). person('bob', 'Bolzano').",
        )
        net.add_node("TN", "resident(name: str)")
        net.add_rule("TN:resident(n) <- BZ:person(n, c), c = 'Trento'")
        net.start()
        thread = serve_in_thread(net, quotas=TenantQuotas(4))
        try:
            result = run_open_loop_sync(
                thread.host,
                thread.port,
                Workload(
                    origins=["TN"],
                    queries=[("TN", "q(n) <- resident(n)")],
                ),
                total=8,
                rate=400.0,
                tenants=("alpha", "beta"),
            )
            assert result.lost == 0
            import asyncio

            from repro.service.loadgen import http_json

            status, body, _ = asyncio.run(
                http_json(thread.host, thread.port, "GET", "/metrics")
            )
            assert status == 200
            text = body["raw"] if isinstance(body, dict) else body
            parsed = parse_metrics(text)  # validity: the strict parser
            names = parsed.names()
            # Dispatch counters (plan/session work).
            assert parsed.value("codb_node_updates_total", node="TN") >= 1
            assert "codb_node_messages_sent_total" in names
            # Send-memory accounting: rows kept off the wire, and which
            # path (store tail vs whole body) served each activation.
            assert "codb_node_rows_suppressed_total" in names
            assert "codb_node_activations_incremental_total" in names
            assert (
                parsed.value("codb_node_activations_full_total", node="BZ") >= 1
            )
            # Cache counters.
            assert "codb_node_cache_hits_total" in names
            assert "codb_node_cache_misses_total" in names
            # Fault counters (unreachable_peers is the fallback gauge,
            # exported as the list's length).
            assert "codb_node_partial_updates_total" in names
            assert "codb_node_unreachable_peers" in names
            # Admission counters: node-side deferrals + gateway quotas.
            assert "codb_node_sessions_deferred_total" in names
            for tenant in ("alpha", "beta"):
                assert (
                    parsed.value(
                        "codb_gateway_tenant_admitted_total", tenant=tenant
                    )
                    >= 1
                )
                assert (
                    parsed.value(
                        "codb_gateway_tenant_peak_live_requests",
                        tenant=tenant,
                    )
                    <= 4
                )
            assert parsed.value("codb_gateway_quota_limit") == 4
            assert (
                parsed.value("codb_gateway_latency_seconds_count")
                >= result.completed
            )
        finally:
            thread.stop()
            net.stop()

    def test_render_metrics_direct(self):
        net = CoDBNetwork(seed=1)
        net.add_node("BZ", "item(k: str)", facts="item('a').")
        net.start()
        net.global_update("BZ")
        text = render_metrics(net.lifetime_totals())
        parsed = parse_metrics(text)
        assert parsed.value("codb_node_updates_total", node="BZ") == 1
        net.stop()

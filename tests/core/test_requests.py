"""The unified request-handle API: submit, stream, cancel, admit.

Covers the PR-4 surface: ``submit_global_update`` / ``submit_query``
returning :class:`~repro.core.requests.RequestHandle`\\ s,
``result(timeout=)`` semantics, ``cancel()`` before admission,
``as_completed`` streaming true completion order on both transports,
``wait(return_when=...)``, and ``NodeConfig.max_active_sessions``
admission-cap enforcement (never more than the cap of live engines
per node, outcomes unchanged vs the sequential twin).
"""

import pytest

from repro import (
    ALL_COMPLETED,
    FIRST_COMPLETED,
    CoDBNetwork,
    NodeConfig,
    RequestCancelledError,
    RequestTimeoutError,
    TcpNetwork,
    as_completed,
    wait,
)
from repro.core.requests import RequestHandle
from repro.relational.containment import rows_equal_up_to_nulls


def build_chain(config=None, seed=41):
    net = CoDBNetwork(seed=seed, config=config)
    net.add_node("C", "item(k: int)", facts="item(1). item(2)")
    net.add_node("B", "item(k: int)", facts="item(3)")
    net.add_node("A", "item(k: int)")
    net.add_rule("B:item(k) <- C:item(k)")
    net.add_rule("A:item(k) <- B:item(k)")
    net.start()
    return net


def build_components(depths, *, transport=None, seed=40, config=None):
    """Disconnected chain components, one origin each.

    Component *i* is a chain of ``depths[i]`` hops ending at a data
    source; a request at the origin must pull data across every hop,
    so completion time grows with depth — the controlled latency skew
    the streaming tests rely on.  Returns ``(net, origins)``.
    """
    net = CoDBNetwork(
        seed=seed, transport=transport, with_superpeer=False, config=config
    )
    origins = []
    for index, depth in enumerate(depths):
        names = [f"N{index}_{j}" for j in range(depth + 1)]
        for j, name in enumerate(names):
            facts = None
            if j == depth:  # the far end holds the data
                facts = {"item": [(index * 100 + t,) for t in range(3)]}
            net.add_node(name, "item(k: int)", facts=facts)
        for j in range(depth):
            net.add_rule(f"{names[j]}:item(k) <- {names[j + 1]}:item(k)")
        origins.append(names[0])
    net.start()
    return net, origins


ALL_ITEMS = [(1,), (2,), (3,)]


class TestHandleBasics:
    def test_submit_global_update_returns_completing_handle(self):
        net = build_chain()
        handle = net.submit_global_update("A")
        assert handle.kind == "update"
        assert handle.origin == "A"
        assert not handle.done()
        outcome = handle.result()
        assert handle.done()
        assert outcome.update_id == handle.request_id
        assert sorted(net.node("A").rows("item")) == ALL_ITEMS
        # result() is idempotent and cached
        assert handle.result() is outcome

    def test_submit_query_returns_answer_rows(self):
        net = build_chain()
        handle = net.submit_query("A", "q(k) <- item(k)")
        assert handle.kind == "query"
        assert sorted(handle.result()) == ALL_ITEMS

    def test_submit_query_local_mode_is_already_done(self):
        net = build_chain()
        handle = net.submit_query("A", "q(k) <- item(k)", mode="local")
        assert handle.done()
        assert handle.result() == []  # nothing materialised locally yet

    def test_blocking_wrappers_still_work(self):
        net = build_chain()
        outcome = net.global_update("A")
        assert outcome.rows_imported > 0
        assert sorted(net.query("A", "q(k) <- item(k)")) == ALL_ITEMS
        assert sorted(
            net.query("A", "q(k) <- item(k)", mode="network")
        ) == ALL_ITEMS

    def test_add_done_callback_fires_on_completion(self):
        net = build_chain()
        seen = []
        handle = net.submit_global_update("A")
        handle.add_done_callback(lambda h: seen.append(h.request_id))
        assert seen == []
        handle.result()
        assert seen == [handle.request_id]
        # late registration fires immediately
        handle.add_done_callback(lambda h: seen.append("late"))
        assert seen == [handle.request_id, "late"]

    def test_node_level_submission_yields_handle_and_statistics(self):
        net = build_chain()
        handle = net.node("A").submit_global_update()
        report = handle.result()
        assert report is not None and report.node == "A"
        assert report.status == "closed"
        # the network driver sees the same session (same registry)
        assert net.node("A").update_done(handle.request_id)
        assert net.node("B").update_report(handle.request_id) is not None

    def test_handles_from_different_networks_cannot_mix(self):
        from repro.errors import ProtocolError

        first = build_chain()
        second = build_chain(seed=43)
        h1 = first.submit_global_update("A")
        h2 = second.submit_global_update("A")
        with pytest.raises(ProtocolError):
            list(as_completed([h1, h2]))


class TestTimeouts:
    def test_simulator_idle_before_completion_raises(self):
        net = build_chain()
        with pytest.raises(RequestTimeoutError):
            net.transport.wait_for(lambda: False, description="never")

    def test_result_timeout_over_tcp(self):
        net = CoDBNetwork(transport=TcpNetwork(), with_superpeer=False)
        try:
            net.add_node(
                "SRC",
                "item(k: int)",
                facts={"item": [(i,) for i in range(300)]},
            )
            net.add_node("MID", "item(k: int)")
            net.add_node("DST", "item(k: int)")
            net.add_rule("MID:item(k) <- SRC:item(k)")
            net.add_rule("DST:item(k) <- MID:item(k)")
            net.start()
            handle = net.submit_global_update("DST")
            with pytest.raises(RequestTimeoutError):
                handle.result(timeout=1e-5)
            # the update itself still completes
            outcome = handle.result(timeout=30.0)
            assert outcome.rows_imported > 0
        finally:
            net.stop()


class TestCancellation:
    def test_cancel_before_admission(self):
        net = build_chain(NodeConfig(max_active_sessions=1))
        first = net.submit_global_update("A")
        second = net.submit_global_update("A")  # queued behind the cap
        assert second.cancel() is True
        assert second.cancel() is True  # idempotent
        assert second.done() and second.cancelled()
        with pytest.raises(RequestCancelledError):
            second.result()
        # the admitted update is unaffected
        outcome = first.result()
        assert outcome.rows_imported > 0
        # the cancelled update never opened a session anywhere
        for name in "ABC":
            assert net.node(name).update_report(second.request_id) is None

    def test_cancel_after_admission_fails(self):
        net = build_chain()
        handle = net.submit_global_update("A")
        assert handle.cancel() is False  # admitted immediately
        handle.result()
        assert handle.cancel() is False  # done

    def test_cancelled_query_root(self):
        net = build_chain(NodeConfig(max_active_sessions=1))
        update = net.submit_global_update("A")
        query = net.submit_query("A", "q(k) <- item(k)")  # queued
        assert query.cancel() is True
        with pytest.raises(RequestCancelledError):
            query.result()
        update.result()

    def test_queued_initiation_runs_after_release(self):
        net = build_chain(NodeConfig(max_active_sessions=1))
        first = net.submit_global_update("A")
        second = net.submit_global_update("A")
        # both complete; the second waited for the first's slot
        outcomes = [first.result(), second.result()]
        assert all(o.report.node_reports for o in outcomes)
        assert sorted(net.node("A").rows("item")) == ALL_ITEMS


class TestStreaming:
    def test_as_completed_streams_true_completion_order_simulator(self):
        # 16 components of strictly increasing depth; updates on the
        # shallow half, network queries on the deep half.  Submitted in
        # REVERSE depth order, they must stream back in depth order.
        depths = list(range(1, 17))
        net, origins = build_components(depths)
        handles = []
        for index in reversed(range(len(origins))):
            if index < 8:
                handles.append(net.submit_global_update(origins[index]))
            else:
                handles.append(
                    net.submit_query(origins[index], "q(k) <- item(k)")
                )
        completed = list(as_completed(handles))
        assert len(completed) == 16
        assert {h.request_id for h in completed} == {
            h.request_id for h in handles
        }
        # the yielded order is the real completion order...
        finished = [h.finished_at for h in completed]
        assert finished == sorted(finished)
        # ...and reordering genuinely happened (submission order was
        # reversed): per kind, completions go shallow-to-deep.
        update_order = [h.origin for h in completed if h.kind == "update"]
        query_order = [h.origin for h in completed if h.kind == "query"]
        assert update_order == [origins[i] for i in range(8)]
        assert query_order == [origins[i] for i in range(8, 16)]
        assert [h.origin for h in completed] != [h.origin for h in handles]
        # outcomes are intact after streaming
        for handle in completed:
            if handle.kind == "update":
                assert handle.result().rows_imported == 3 * depths[
                    origins.index(handle.origin)
                ]
            else:
                assert len(handle.result()) == 3

    def test_as_completed_16_origin_storm_over_tcp(self):
        depths = [(i % 4) + 1 for i in range(16)]
        net, origins = build_components(depths, transport=TcpNetwork())
        try:
            handles = [net.submit_global_update(o) for o in origins]
            completed = list(as_completed(handles, timeout=60.0))
            assert len(completed) == 16
            finished = [h.finished_at for h in completed]
            assert finished == sorted(finished)
            for handle, depth in zip(handles, depths):
                assert handle.result().rows_imported == 3 * depth
        finally:
            net.stop()

    def test_wait_first_completed_and_all_completed(self):
        depths = [1, 4]
        net, origins = build_components(depths, seed=44)
        slow = net.submit_global_update(origins[1])
        fast = net.submit_global_update(origins[0])
        done, not_done = wait([slow, fast], return_when=FIRST_COMPLETED)
        assert [h.origin for h in done] == [origins[0]]
        assert [h.origin for h in not_done] == [origins[1]]
        done, not_done = wait([slow, fast], return_when=ALL_COMPLETED)
        assert {h.origin for h in done} == set(origins)
        assert not_done == []

    def test_wait_returns_partition_on_timeout(self):
        net = build_chain(NodeConfig(max_active_sessions=1))
        first = net.submit_global_update("A")
        second = net.submit_global_update("A")
        second.cancel()
        done, not_done = wait([first, second])
        assert {h.request_id for h in done} == {
            first.request_id,
            second.request_id,  # cancelled counts as done
        }
        assert not_done == []

    def test_as_completed_empty_iterable(self):
        assert list(as_completed([])) == []


def storm_network(cap, seed=160, transport=None):
    """A connected star: every origin imports every leaf's data."""
    config = NodeConfig(max_active_sessions=cap)
    net = CoDBNetwork(
        seed=seed, transport=transport, with_superpeer=False, config=config
    )
    net.add_node("HUB", "item(k: int)")
    origins = []
    for c in range(5):
        leaf = f"L{c}"
        net.add_node(
            leaf,
            "item(k: int)",
            facts={"item": [(c * 100 + t,) for t in range(5)]},
        )
        net.add_rule(f"HUB:item(k) <- {leaf}:item(k)")
    for c in range(10):
        origin = f"O{c}"
        net.add_node(origin, "item(k: int)")
        net.add_rule(f"{origin}:item(k) <- HUB:item(k)")
        origins.append(origin)
    net.start()
    return net, origins


class TestAdmissionControl:
    def test_capped_storm_never_exceeds_cap_and_matches_sequential(self):
        capped, origins = storm_network(cap=2)
        handles = [capped.submit_global_update(o) for o in origins]
        outcomes = [h.result() for h in as_completed(handles)]
        assert len(outcomes) == 10

        # Enforcement: never more than 2 live engines per node, ever.
        for name, node in capped.nodes.items():
            assert node.stats.live_sessions_peak <= 2, name
            assert node.stats.live_sessions_peak >= 1
        # The storm genuinely queued somewhere.
        assert any(
            node.stats.sessions_deferred > 0
            for node in capped.nodes.values()
        )
        assert all(
            node.admission.queue_depth() == 0
            for node in capped.nodes.values()
        )

        # Outcomes equal the sequential twin up to marked-null renaming.
        sequential, seq_origins = storm_network(cap=0)
        for origin in seq_origins:
            sequential.global_update(origin)
        concurrent_state = capped.snapshot()
        sequential_state = sequential.snapshot()
        assert set(concurrent_state) == set(sequential_state)
        for node_name, relations in concurrent_state.items():
            for relation, rows in relations.items():
                assert rows_equal_up_to_nulls(
                    rows, sequential_state[node_name][relation]
                ), f"{node_name}.{relation} diverged"

    def test_admission_metrics_surface_in_lifetime_totals(self):
        net, origins = storm_network(cap=2, seed=161)
        for handle in [net.submit_global_update(o) for o in origins[:4]]:
            handle.result()
        totals = net.lifetime_totals()
        for name, node_totals in totals.items():
            assert node_totals["live_sessions_peak"] <= 2
            assert "sessions_deferred" in node_totals
            assert "admission_queue_peak" in node_totals

    def test_uncapped_default_never_defers(self):
        net, origins = storm_network(cap=0, seed=162)
        for handle in [net.submit_global_update(o) for o in origins[:4]]:
            handle.result()
        assert all(
            node.stats.sessions_deferred == 0 for node in net.nodes.values()
        )
        # peak tracks genuine concurrency without a cap
        assert any(
            node.stats.live_sessions_peak >= 2 for node in net.nodes.values()
        )

    def test_queries_count_against_the_cap(self):
        net = build_chain(NodeConfig(max_active_sessions=1))
        update = net.submit_global_update("A")
        query = net.submit_query("A", "q(k) <- item(k)")
        # both complete despite sharing node A's single session slot
        assert update.result().rows_imported > 0
        assert sorted(query.result()) == ALL_ITEMS
        assert net.node("A").stats.live_sessions_peak == 1


class TestNoSleepPollingRemains:
    def test_completion_paths_never_sleep(self, monkeypatch):
        """The acceptance gate: no ``time.sleep`` on any completion
        path — simulator stepping and condition waits only."""
        import time as time_module

        def forbidden(_seconds):  # pragma: no cover - failure path
            raise AssertionError("time.sleep on a completion path")

        monkeypatch.setattr(time_module, "sleep", forbidden)
        net = build_chain()
        handle = net.submit_global_update("A")
        handle.result()
        assert sorted(
            net.query("A", "q(k) <- item(k)", mode="network")
        ) == ALL_ITEMS


class TestRequestHandleUnit:
    def test_result_assembles_once(self):
        calls = []

        class FakeTransport:
            class stats:
                messages_sent = 0
                bytes_sent = 0

            def now(self):
                return 1.0

            def wait_for(self, predicate, timeout=None, *, description=""):
                pass

            def notify_progress(self):
                pass

        handle = RequestHandle(
            request_id="update-x-0001",
            kind="update",
            origin="A",
            transport=FakeTransport(),
            is_done=lambda: True,
            assemble=lambda h: calls.append(1) or "outcome",
        )
        assert handle.result() == "outcome"
        assert handle.result() == "outcome"
        assert calls == [1]

"""Node construction, rule validation, the network builder API."""

from dataclasses import fields

import pytest

from repro import (
    CoDBNetwork,
    CoDBNode,
    MediatorStore,
    NodeConfig,
    SqliteStore,
    parse_schema,
)
from repro.errors import ArityError, CoDBError, ProtocolError, RuleError
from repro.p2p.ids import IdAuthority
from repro.p2p.inproc import InProcessNetwork
from repro.p2p.messages import KINDS
from repro.p2p.transport import Transport


class TestNodeConstruction:
    def test_invalid_name_rejected(self):
        transport = InProcessNetwork()
        with pytest.raises(ProtocolError):
            CoDBNode(
                "has space", parse_schema("r(a)"), transport, IdAuthority()
            )

    def test_store_schema_mismatch_rejected(self):
        transport = InProcessNetwork()
        store = SqliteStore(parse_schema("r(a)"))
        with pytest.raises(RuleError):
            CoDBNode("N", parse_schema("r(a)"), transport, IdAuthority(), store=store)

    def test_database_property(self):
        net = CoDBNetwork(seed=1)
        node = net.add_node("N", "r(a)")
        assert node.database is not None
        schema = parse_schema("r(a)")
        sqlite_node = CoDBNetwork(seed=2)
        n2 = sqlite_node.add_node("M", schema, store=SqliteStore(schema))
        assert n2.database is None

    def test_node_config_holds_only_workload_settings(self):
        # The §3 engine is not configurable; what is left are the
        # settings a workload sets or a differential test uses as its
        # oracle.
        assert [field.name for field in fields(NodeConfig)] == [
            "subsumption_dedup",
            "fixpoint_guard",
            "batch_rows",
            "max_active_sessions",
            "resend_suppression",
            "answer_cache",
            "interest_lease_events",
        ]


class TestRuleValidation:
    def make_net(self):
        net = CoDBNetwork(seed=3)
        net.add_node("S", "src(a, b)\nlocal hidden(a)")
        net.add_node("D", "dst(a)")
        return net

    def test_head_arity_checked_at_target(self):
        net = self.make_net()
        net.add_rule("D:dst(a, b) <- S:src(a, b)")
        with pytest.raises(ArityError):
            net.start()

    def test_body_arity_checked_at_source(self):
        net = self.make_net()
        net.add_rule("D:dst(a) <- S:src(a)")
        with pytest.raises(ArityError):
            net.start()

    def test_unexported_body_relation_rejected(self):
        net = self.make_net()
        net.add_rule("D:dst(a) <- S:hidden(a)")
        with pytest.raises(RuleError):
            net.start()

    def test_rule_referencing_unknown_node_rejected_early(self):
        net = self.make_net()
        with pytest.raises(ProtocolError):
            net.add_rule("D:dst(a) <- GHOST:src(a, b)")

    def test_valid_rules_install_cleanly(self):
        net = self.make_net()
        net.add_rule("D:dst(a) <- S:src(a, b), b != 'x'")
        net.start()
        assert list(net.node("D").links.outgoing) == ["r0"]


class TestNetworkBuilder:
    def test_duplicate_node_rejected(self):
        net = CoDBNetwork(seed=4)
        net.add_node("N", "r(a)")
        with pytest.raises(ProtocolError):
            net.add_node("N", "r(a)")

    def test_unknown_node_lookup(self):
        net = CoDBNetwork(seed=4)
        with pytest.raises(ProtocolError):
            net.node("ghost")

    def test_without_superpeer_direct_install(self):
        net = CoDBNetwork(seed=5, with_superpeer=False)
        net.add_node("A", "r(a)", facts="r(1)")
        net.add_node("B", "r(a)")
        net.add_rule("B:r(a) <- A:r(a)")
        net.start()
        net.global_update("B")
        assert net.node("B").rows("r") == [(1,)]
        with pytest.raises(ProtocolError):
            net.collect_statistics()

    def test_context_manager_stops_transport(self):
        with CoDBNetwork(seed=6) as net:
            net.add_node("A", "r(a)")
        from repro.errors import TransportStoppedError

        with pytest.raises(TransportStoppedError):
            net.transport.send(
                __import__("repro.p2p.messages", fromlist=["Message"]).Message(
                    "k", "A", "A", {}
                )
            )

    def test_snapshot_and_total_rows(self):
        net = CoDBNetwork(seed=7)
        net.add_node("A", "r(a)", facts="r(1). r(2)")
        net.add_node("B", "s(a)", facts="s(3)")
        assert net.total_rows() == 3
        snap = net.snapshot()
        assert snap["A"]["r"] == [(1,), (2,)]
        assert snap["B"]["s"] == [(3,)]

    def test_load_facts_via_dict(self):
        net = CoDBNetwork(seed=8)
        node = net.add_node("A", "r(a: int)")
        node.load_facts({"r": [(5,), (6,)]})
        assert node.rows("r") == [(5,), (6,)]

    def test_node_level_error_hierarchy(self):
        # every library error is a CoDBError
        net = CoDBNetwork(seed=9)
        try:
            net.node("ghost")
        except CoDBError:
            pass
        else:  # pragma: no cover
            pytest.fail("ProtocolError must subclass CoDBError")

    def test_every_wire_kind_has_a_handler(self):
        """The wire vocabulary is exactly what some peer handles (or the
        transport itself emits): a kind nobody handles is dead."""
        net = CoDBNetwork(seed=10)
        net.add_node("A", "r(a)")
        endpoints = [node.endpoint for node in net.nodes.values()]
        endpoints.append(net.superpeer.endpoint)
        handled = set(Transport.CONTROL_KINDS)
        for endpoint in endpoints:
            handled |= {*endpoint._handlers, *endpoint._run_handlers}
        assert handled == set(KINDS)

    @pytest.mark.parametrize(
        "kind", ["hello", "discovery_request", "discovery_response"]
    )
    def test_a_retired_kind_is_counted_and_ignored(self, kind):
        """Kinds no longer in the vocabulary, as an older peer might
        still send them, are counted as unhandled and change nothing."""
        assert kind not in KINDS
        net = CoDBNetwork(seed=11)
        net.add_node("A", "r(a: int)", facts="r(1)")
        net.add_node("B", "r(a: int)")
        net.add_rule("B:r(a) <- A:r(a)")
        net.start()
        net.superpeer.endpoint.send("B", kind, {})
        net.run()
        assert net.node("B").endpoint.unhandled_count == 1
        net.global_update("B")
        assert net.node("B").rows("r") == [(1,)]


class TestHeterogeneousStores:
    def test_mixed_backends_in_one_network(self, tmp_path):
        sqlite_schema = parse_schema("item(k: int)")
        mediator_schema = parse_schema("item(k: int)")
        net = CoDBNetwork(seed=10)
        net.add_node("MEM", "item(k: int)", facts="item(1)")
        net.add_node(
            "SQL", sqlite_schema,
            store=SqliteStore(sqlite_schema, str(tmp_path / "n.db")),
        )
        net.add_node("MED", mediator_schema, store=MediatorStore(mediator_schema))
        net.add_node("SINK", "item(k: int)")
        net.add_rule("SQL:item(k) <- MEM:item(k)")
        net.add_rule("MED:item(k) <- SQL:item(k)")
        net.add_rule("SINK:item(k) <- MED:item(k)")
        net.start()
        net.global_update("SINK")
        assert net.node("SQL").rows("item") == [(1,)]
        assert net.node("SINK").rows("item") == [(1,)]
        assert net.node("MED").wrapper.total_rows() == 0  # dropped buffer

    def test_sequential_updates_through_mediator(self):
        schema = parse_schema("item(k: int)")
        net = CoDBNetwork(seed=11)
        net.add_node("SRC", "item(k: int)", facts="item(1)")
        net.add_node("MED", schema, store=MediatorStore(schema))
        net.add_node("SINK", "item(k: int)")
        net.add_rule("MED:item(k) <- SRC:item(k)")
        net.add_rule("SINK:item(k) <- MED:item(k)")
        net.start()
        net.global_update("SINK")
        net.node("SRC").insert("item", (2,))
        net.global_update("SINK")
        assert sorted(net.node("SINK").rows("item")) == [(1,), (2,)]


    @staticmethod
    def chain_with_interiors(length, tuples, interior_store):
        """``N0 <- N1 <- ... <- N{length-1}`` with the data at the far
        end; ``interior_store(i, schema)`` picks each interior node's
        store (``None`` = the default in-memory one)."""
        net = CoDBNetwork(seed=160)
        for i in range(length):
            schema = parse_schema("item(k: int, v: int)")
            store = interior_store(i, schema) if 0 < i < length - 1 else None
            net.add_node(f"N{i}", schema, store=store)
        net.node(f"N{length - 1}").load_facts(
            {"item": [(j, j * 2) for j in range(tuples)]}
        )
        for i in range(length - 1):
            net.add_rule(f"N{i}:item(k, v) <- N{i + 1}:item(k, v)")
        net.start()
        return net

    def test_protocol_traffic_does_not_depend_on_the_backend(self, tmp_path):
        """§2: the Wrapper "is adjusted depending on the underlying
        database" — the protocol above it cannot tell: same result
        messages, same bytes, same origin state whatever the interiors
        store their rows in."""
        backends = {
            "memory": lambda i, schema: None,
            "sqlite": lambda i, schema: SqliteStore(schema),
            "sqlite-file": lambda i, schema: SqliteStore(
                schema, str(tmp_path / f"n{i}.db")
            ),
            "mediator": lambda i, schema: MediatorStore(schema),
        }
        seen = {}
        for backend, interior_store in backends.items():
            net = self.chain_with_interiors(4, 20, interior_store)
            outcome = net.global_update("N0")
            seen[backend] = (
                outcome.report.total_messages,
                outcome.report.total_bytes,
                net.node("N0").snapshot(),
            )
        assert len(seen["memory"][2]["item"]) == 20
        for backend, observed in seen.items():
            assert observed == seen["memory"], backend

    @pytest.mark.parametrize("mediators", [3, 6])
    def test_chain_of_mediators_relays_everything_and_keeps_nothing(
        self, mediators
    ):
        """§2: a node without a local database "acts as a mediator for
        propagating of requests and data" — also through other
        mediators: the far end gets every row, the mediators hold none
        once the update is over, the storing interiors hold all."""
        net = self.chain_with_interiors(
            8, 10,
            lambda i, schema: MediatorStore(schema) if i <= mediators else None,
        )
        net.global_update("N0")
        assert net.node("N0").wrapper.count("item") == 10
        for i in range(1, 7):
            kept = net.node(f"N{i}").wrapper.total_rows()
            assert kept == (0 if i <= mediators else 10), f"N{i}"


class TestMultiUpdateApi:
    def build(self):
        net = CoDBNetwork(seed=77)
        net.add_node("C", "item(k: int)", facts="item(1). item(2)")
        net.add_node("B", "item(k: int)", facts="item(3)")
        net.add_node("A", "item(k: int)")
        net.add_rule("B:item(k) <- C:item(k)")
        net.add_rule("A:item(k) <- B:item(k)")
        net.start()
        return net

    def test_start_then_await_returns_outcomes_in_handle_order(self):
        net = self.build()
        handles = [net.submit_global_update(o) for o in ["A", "C", "B"]]
        assert [h.origin for h in handles] == ["A", "C", "B"]
        assert len({h.request_id for h in handles}) == 3
        outcomes = [h.result() for h in handles]
        assert [o.update_id for o in outcomes] == [h.request_id for h in handles]
        assert [o.origin for o in outcomes] == ["A", "C", "B"]
        for outcome in outcomes:
            assert outcome.wall_time >= 0
            assert outcome.report.node_reports

    def test_global_update_is_the_singleton_case(self):
        net = self.build()
        outcome = net.global_update("A")
        assert outcome.origin == "A"
        assert net.node("A").update_done(outcome.update_id)
        assert outcome.transport_messages > 0

    def test_lifetime_totals_across_updates(self):
        net = self.build()
        for handle in [net.submit_global_update(o) for o in ["A", "C"]]:
            handle.result()
        totals = net.lifetime_totals()
        assert set(totals) == {"A", "B", "C"}
        assert totals["A"]["updates"] == 2
        assert totals["A"]["open_updates"] == 0
        assert totals["A"]["rows_imported"] >= 3
        assert totals["B"]["peak_concurrent_updates"] >= 1

    def test_mediator_buffer_survives_overlapping_updates(self):
        schema = parse_schema("item(k: int)")
        net = CoDBNetwork(seed=78)
        net.add_node("SRC", "item(k: int)", facts="item(1)")
        net.add_node("MED", schema, store=MediatorStore(schema))
        net.add_node("SINK", "item(k: int)")
        net.add_rule("MED:item(k) <- SRC:item(k)")
        net.add_rule("SINK:item(k) <- MED:item(k)")
        net.start()
        for handle in [net.submit_global_update("SINK") for _ in range(2)]:
            handle.result()
        assert sorted(net.node("SINK").rows("item")) == [(1,)]
        assert net.node("MED").wrapper.total_rows() == 0  # dropped at last finish

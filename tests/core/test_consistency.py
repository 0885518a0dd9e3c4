"""Local inconsistency handling (§1: the semantics "allows for local
inconsistency handling" and "(d) local inconsistency does not
propagate")."""

import pytest

from repro import CoDBNetwork, parse_schema
from repro.relational.wrapper import MemoryStore, SqliteStore


class TestKeyConstraints:
    def test_parser_key_marker(self):
        schema = parse_schema("person(name!: str, age: int)\nitem(k!, v)")
        assert schema["person"].key == ("name",)
        assert schema["item"].key == ("k",)
        assert schema["person"].key_positions() == (0,)

    def test_composite_key(self):
        schema = parse_schema("reading(sensor!, tick!, value)")
        assert schema["reading"].key == ("sensor", "tick")

    def test_key_rendering_round_trips(self):
        schema = parse_schema("person(name!: str, age: int)")
        again = parse_schema(str(schema["person"]))
        assert again["person"].key == ("name",)

    def test_unknown_key_attribute_rejected(self):
        from repro.errors import SchemaError
        from repro.relational.schema import RelationSchema

        with pytest.raises(SchemaError):
            RelationSchema.of("r", ["a"], key=("zz",))

    def test_violation_detection(self):
        store = MemoryStore(parse_schema("person(name!: str, age: int)"))
        store.load({"person": [("anna", 24), ("bob", 30)]})
        assert store.is_consistent()
        store.insert_new("person", [("anna", 99)])  # conflict, accepted
        assert not store.is_consistent()
        ((relation, key_value, rows),) = store.key_violations()
        assert relation == "person"
        assert key_value == ("anna",)
        assert len(rows) == 2

    def test_no_keys_trivially_consistent(self):
        store = MemoryStore(parse_schema("person(name, age)"))
        store.load({"person": [("anna", 24), ("anna", 99)]})
        assert store.is_consistent()  # no declared key, no violation


class TestQuarantine:
    def build(self):
        net = CoDBNetwork(seed=121)
        net.add_node(
            "SRC", "person(name!: str, age: int)",
            facts="person('anna', 24). person('bob', 30)",
        )
        net.add_node("DST", "rec(name: str, age: int)")
        net.add_rule("DST:rec(n, a) <- SRC:person(n, a)")
        net.start()
        return net

    def test_consistent_node_serves_normally(self):
        net = self.build()
        net.global_update("DST")
        assert len(net.node("DST").rows("rec")) == 2

    def test_inconsistent_node_serves_nothing(self):
        net = self.build()
        net.node("SRC").insert("person", ("anna", 99))  # key violation
        outcome = net.global_update("DST")
        assert net.node("DST").rows("rec") == []
        report = net.node("SRC").update_report(outcome.update_id)
        assert report.quarantined is True

    def test_update_still_terminates_under_quarantine(self):
        net = self.build()
        net.node("SRC").insert("person", ("anna", 99))
        outcome = net.global_update("DST")
        assert net.node("DST").update_done(outcome.update_id)

    def test_repairing_restores_service(self):
        net = self.build()
        net.node("SRC").insert("person", ("anna", 99))
        net.global_update("DST")
        net.node("SRC").wrapper.delete_rows("person", [("anna", 99)])
        outcome = net.global_update("DST")
        assert len(net.node("DST").rows("rec")) == 2
        report = net.node("SRC").update_report(outcome.update_id)
        assert report.quarantined is False

    def test_an_inconsistent_sqlite_store_serves_nothing(self):
        net = CoDBNetwork(seed=124)
        schema = parse_schema("person(name!: str, age: int)")
        store = SqliteStore(schema)
        net.add_node("SRC", schema, store=store, facts="person('anna', 24)")
        net.add_node("DST", "rec(name: str, age: int)")
        net.add_rule("DST:rec(n, a) <- SRC:person(n, a)")
        net.start()
        net.node("SRC").insert("person", ("anna", 99))  # key violation
        outcome = net.global_update("DST")
        assert net.node("DST").rows("rec") == []
        assert net.node("SRC").update_report(outcome.update_id).quarantined
        store.delete_rows("person", [("anna", 99)])
        net.global_update("DST")
        assert net.node("DST").rows("rec") == [("anna", 24)]
        store.close()

    def test_inconsistency_does_not_poison_neighbours(self):
        # A consistent node between an inconsistent source and the sink
        # still serves its own data.
        net = CoDBNetwork(seed=122)
        net.add_node("BAD", "item(k!, v)", facts="item(1, 'x'). item(1, 'y')")
        net.add_node("MID", "item(k, v)", facts="item(5, 'own')")
        net.add_node("SINK", "item(k, v)")
        net.add_rule("MID:item(k, v) <- BAD:item(k, v)")
        net.add_rule("SINK:item(k, v) <- MID:item(k, v)")
        net.start()
        net.global_update("SINK")
        assert net.node("SINK").rows("item") == [(5, "own")]

    def test_a_later_update_is_quarantined_too(self):
        net = CoDBNetwork(seed=123)
        net.add_node("SRC", "item(k!, v)")
        net.add_node("DST", "item(k, v)")
        net.add_rule("DST:item(k, v) <- SRC:item(k, v)")
        net.start()
        net.global_update("DST")
        net.node("SRC").insert("item", (1, "x"))
        net.global_update("DST")
        assert net.node("DST").rows("item") == [(1, "x")]
        net.node("SRC").insert("item", (1, "y"))  # now inconsistent
        outcome = net.global_update("DST")
        assert net.node("DST").rows("item") == [(1, "x")]  # not propagated
        assert net.node("SRC").update_report(outcome.update_id).quarantined


class TestQueryQuarantine:
    """§1d for the query path: a network query reaches an inconsistent
    node like an update does, and gets nothing from it either."""

    def build(self):
        net = CoDBNetwork(seed=125, with_superpeer=False)
        net.add_node("SRC", "item(k!, v)", facts="item(1, 'x'). item(1, 'y')")
        net.add_node("DST", "item(k, v)")
        net.add_rule("DST:item(k, v) <- SRC:item(k, v)")
        net.start()
        return net

    def test_an_uncached_network_query_imports_nothing(self):
        net = self.build()
        answer = net.query("DST", "q(k, v) <- item(k, v)", mode="network", cache=False)
        assert answer == []
        assert net.node("DST").rows("item") == []
        assert net.lifetime_totals()["SRC"]["queries_quarantined"] == 1

    def test_a_quarantined_answer_is_not_cached(self):
        net = self.build()
        dst = net.node("DST")
        assert net.query("DST", "q(k, v) <- item(k, v)", mode="network") == []
        assert dst.cache.fills_skipped == 1
        net.node("SRC").wrapper.delete_rows("item", [(1, "y")])  # repaired
        answer = net.query("DST", "q(k, v) <- item(k, v)", mode="network")
        assert answer == [(1, "x")]

    def test_an_inconsistent_relay_forwards_nothing_it_imports(self):
        net = CoDBNetwork(seed=126, with_superpeer=False)
        net.add_node("SRC", "item(k, v)", facts="item(7, 'far')")
        net.add_node("MID", "item(k!, v)", facts="item(1, 'x')")
        net.add_node("DST", "item(k, v)")
        net.add_rule("MID:item(k, v) <- SRC:item(k, v)")
        net.add_rule("DST:item(k, v) <- MID:item(k, v)")
        net.start()
        assert net.query("DST", "q(k) <- item(k, v)", mode="network") == [(1,), (7,)]
        net.node("MID").insert("item", (1, "y"))  # now inconsistent
        net.node("SRC").insert("item", (8, "new"))
        answer = net.query("DST", "q(k) <- item(k, v)", mode="network", cache=False)
        assert sorted(answer) == [(1,), (7,)]

"""Snapshot persistence, CQ minimisation and query explanation."""

import pytest

from repro import CoDBNetwork, MarkedNull, parse_query, parse_schema
from repro.errors import SchemaError
from repro.relational.database import Database
from repro.relational.explain import explain
from repro.relational.minimize import minimize_mapping, minimize_query
from repro.relational.parser import parse_mapping
from repro.relational.persist import (
    dump_network,
    dump_store,
    dump_store_to_file,
    load_network,
    load_store,
    load_store_from_file,
)
from repro.relational.wrapper import MemoryStore, SqliteStore


SCHEMA = "person(name!: str, age: int)\nlocal wages(name, amount)"


class TestPersistence:
    def make_store(self):
        store = MemoryStore(parse_schema(SCHEMA))
        store.load(
            {
                "person": [("anna", 24), ("bob", MarkedNull("N1@x"))],
                "wages": [("anna", 100)],
            }
        )
        return store

    def test_round_trip_memory(self):
        store = self.make_store()
        restored = MemoryStore(parse_schema(SCHEMA))
        assert load_store(restored, dump_store(store)) == 3
        assert restored.snapshot() == store.snapshot()

    def test_round_trip_cross_backend(self):
        store = self.make_store()
        restored = SqliteStore(parse_schema(SCHEMA))
        load_store(restored, dump_store(store))
        assert restored.snapshot() == store.snapshot()
        restored.close()

    def test_round_trip_via_file(self, tmp_path):
        store = self.make_store()
        path = str(tmp_path / "node.snapshot.json")
        dump_store_to_file(store, path)
        restored = MemoryStore(parse_schema(SCHEMA))
        assert load_store_from_file(restored, path) == 3
        assert restored.snapshot() == store.snapshot()

    def test_schema_mismatch_rejected(self):
        store = self.make_store()
        other = MemoryStore(parse_schema("person(name, age)"))  # no key
        with pytest.raises(SchemaError):
            load_store(other, dump_store(store))

    def test_bad_format_rejected(self):
        store = MemoryStore(parse_schema(SCHEMA))
        with pytest.raises(SchemaError):
            load_store(store, '{"format": 999, "schema": [], "rows": {}}')

    def test_deterministic_output(self):
        assert dump_store(self.make_store()) == dump_store(self.make_store())

    def test_network_round_trip(self):
        def build():
            net = CoDBNetwork(seed=33)
            net.add_node("A", "p(x: int)", facts="p(1)")
            net.add_node("B", "q(x: int, t)")
            net.add_rule("B:q(x, w) <- A:p(x)")
            net.start()
            return net

        original = build()
        original.global_update("B")
        snapshot = dump_network(original)

        restored = build()
        loaded = load_network(restored, snapshot)
        # build() pre-loads p(1); only the update-imported rows are new.
        assert loaded == original.total_rows() - 1
        assert restored.snapshot() == original.snapshot()


class TestMinimize:
    def test_redundant_atom_dropped(self):
        q = minimize_query(parse_query("q(x) <- r(x, y), r(x, z)"))
        assert len(q.body) == 1

    def test_core_preserved_for_non_redundant(self):
        q = parse_query("q(x) <- r(x, y), s(y, z)")
        assert minimize_query(q).body == q.body

    def test_chain_collapses_onto_loop_pattern(self):
        # r(x,y), r(y,x2) with x distinguished: the second atom is not
        # redundant (it constrains y to have a successor).
        q = parse_query("q(x) <- r(x, y), r(y, z)")
        assert len(minimize_query(q).body) == 2

    def test_duplicate_atoms_removed(self):
        q = minimize_query(parse_query("q(x, y) <- r(x, y), r(x, y)"))
        assert len(q.body) == 1

    def test_equivalence_after_minimisation(self):
        from repro.relational.containment import is_equivalent_to

        original = parse_query("q(x) <- e(x, y), e(x, y2), e(y, z)")
        minimised = minimize_query(original)
        assert is_equivalent_to(original, minimised)
        assert len(minimised.body) < len(original.body)

    def test_mapping_body_minimised(self):
        parsed = parse_mapping("B:out(n) <- A:src(n, a), A:src(n, b)")
        minimised = minimize_mapping(parsed.mapping)
        assert len(minimised.body) == 1
        assert minimised.head == parsed.mapping.head

    def test_mapping_frontierless_untouched(self):
        parsed = parse_mapping("B:flag('on') <- A:src(n), A:src(m)")
        minimised = minimize_mapping(parsed.mapping)
        assert minimised.body == parsed.mapping.body

    def test_constants_respected(self):
        q = parse_query("q(x) <- r(x, 1), r(x, y)")
        # r(x, y) is implied by r(x, 1): droppable; r(x, 1) is not.
        minimised = minimize_query(q)
        assert len(minimised.body) == 1
        assert minimised.body[0].terms[1] == 1


class TestExplain:
    def make_db(self):
        schema = parse_schema("big(a, b)\nsmall(a)")
        db = Database(schema)
        db.load({"big": [(i % 50, i) for i in range(500)]})
        db.load({"small": [(1,), (2,)]})
        return db

    def test_small_relation_first(self):
        db = self.make_db()
        q = parse_query("q(b) <- big(a, b), small(a)")
        plan = explain(db, q)
        assert plan.atom_order() == ["small", "big"]

    def test_bound_columns_recorded(self):
        db = self.make_db()
        q = parse_query("q(b) <- big(a, b), small(a)")
        plan = explain(db, q)
        assert plan.steps[1].bound_positions == (0,)

    def test_comparisons_attached_to_binding_step(self):
        db = self.make_db()
        q = parse_query("q(b) <- small(a), big(a, b), b > 100")
        plan = explain(db, q)
        big_step = [s for s in plan.steps if s.atom.relation == "big"][0]
        assert any(">" in c for c in big_step.comparisons_checked)

    def test_comparison_placement_and_selectivity_shown(self):
        db = self.make_db()
        # b > 495 keeps 4 of big's 500 rows — still more than small's
        # 2, so small leads and b > 495 filters each probed bucket.
        plan = explain(
            db, parse_query("q(b) <- small(a), big(a, b), b > 495, a < b, 1 < 2")
        )
        small_step, big_step = plan.steps
        assert small_step.comparisons_checked == ("ground: 1 < 2",)
        assert big_step.comparisons_checked == (
            "bucket filter: ?b > 495",
            "cross-step filter: ?a < ?b",
        )
        assert big_step.selectivity == pytest.approx(4 / 500, rel=0.5)
        assert small_step.selectivity == 1.0
        assert "selectivity" in plan.format()
        # A selective enough predicate moves its atom to the front,
        # where it runs as a scan filter.
        plan = explain(db, parse_query("q(b) <- small(a), big(a, b), b >= 499"))
        assert plan.atom_order() == ["big", "small"]
        assert plan.steps[0].comparisons_checked == ("scan filter: ?b >= 499",)
        assert plan.steps[0].estimated_matches == pytest.approx(1.0, rel=0.5)

    def test_format_contains_plan(self):
        db = self.make_db()
        plan = explain(db, parse_query("q(b) <- big(a, b), small(a)"))
        text = plan.format()
        assert "plan for" in text
        assert "small" in text and "big" in text

    def test_estimated_cost_positive(self):
        db = self.make_db()
        plan = explain(db, parse_query("q(a) <- big(a, b)"))
        assert plan.estimated_cost() == pytest.approx(500.0)

    def test_steps_show_rows_after_them_and_the_plan_its_c_out(self):
        from repro.relational.planner import compile_plan

        db = self.make_db()
        query = parse_query("q(b) <- big(a, b), small(a)")
        plan = explain(db, query)
        small_step, big_step = plan.steps
        # small: 2 rows; big probed on a: 500 / max(50 distinct a in
        # big, 2 in small) = 10 per small row, 20 rows after it.
        assert small_step.estimated_matches == small_step.estimated_rows == 2.0
        assert big_step.estimated_matches == pytest.approx(10.0)
        assert big_step.estimated_rows == pytest.approx(20.0)
        # C_out, the quantity the planner minimised (big first: 520).
        assert plan.estimated_cost() == pytest.approx(22.0)
        compiled = compile_plan(query.body, (), query.head.terms, view=db)
        assert compiled.estimated_cost() == plan.estimated_cost()
        text = plan.format()
        assert "est. rows out" in text
        assert "estimated cost (C_out): 22.0" in text

    def test_plan_matches_execution_reality(self):
        # the plan's first atom really is the cheaper side: verify by
        # checking estimates are non-decreasing at selection time
        db = self.make_db()
        plan = explain(db, parse_query("q(b) <- big(a, b), small(a)"))
        assert plan.steps[0].estimated_matches <= plan.steps[1].estimated_matches + 500

    def test_explain_renders_pushdown_sql(self):
        db = self.make_db()
        plan = explain(db, parse_query("q(b) <- big(a, b), small(a), b > 100"))
        assert plan.sql is not None
        # The SQL FROM order is the explained atom order (CROSS JOIN
        # pins it), comparisons go through the registered function, and
        # the comparison constant rides along as a parameter.
        assert '"small"' in plan.sql.sql and '"big"' in plan.sql.sql
        assert plan.sql.sql.index('"small"') < plan.sql.sql.index('"big"')
        assert "CROSS JOIN" in plan.sql.sql
        assert "codb_cmp('>'" in plan.sql.sql
        assert plan.sql.params == (100,)
        text = plan.format()
        assert "pushdown SQL: SELECT" in text

    def test_explain_marks_unpushable_plans(self):
        db = self.make_db()
        schema_q = parse_query("q(x) <- big(x, y), ghost(y)")
        plan = explain(db, schema_q)
        assert plan.sql is None
        assert "in-memory only" in plan.format()

    def test_explained_sql_executes_identically(self):
        # What explain shows is what a SQLite store runs: execute the
        # rendered SqlPlan directly and compare with the evaluator.
        from repro.relational.evaluation import evaluate_query
        from repro.relational.wrapper import SqliteStore

        db = self.make_db()
        query = parse_query("q(b) <- big(a, b), small(a), b > 100")
        plan = explain(db, query)
        store = SqliteStore(parse_schema("big(a, b)\nsmall(a)"))
        store.insert_new("big", db.relation("big").rows())
        store.insert_new("small", db.relation("small").rows())
        pushed = sorted(set(store.execute_plan(plan.sql)))
        assert pushed == sorted(set(evaluate_query(db, query)))
        store.close()

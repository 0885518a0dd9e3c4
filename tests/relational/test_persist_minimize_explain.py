"""Snapshot persistence and what a compiled plan says about itself.

A node's rows persist through :mod:`repro.runner.snapshot`, the one
snapshot format: tagged, versioned and fail-closed.  A body's join
order, probe templates, comparison placement, estimates and pushdown
SQL are read straight off :func:`~repro.relational.planner.compile_plan`
and :func:`~repro.relational.planner.compile_plan_sql` — the plan the
stores execute.
"""

import json

import pytest

from repro import CoDBNetwork, MarkedNull, parse_query, parse_schema
from repro.errors import SnapshotError
from repro.relational.database import Database
from repro.relational.planner import compile_plan, compile_plan_sql
from repro.relational.wrapper import SqliteStore
from repro.runner.snapshot import (
    read_snapshot,
    restore_node,
    snapshot_node,
    write_snapshot,
)

SCHEMA = "person(name!: str, age: int)\nlocal wages(name, amount)"


class TestPersistence:
    def make_node(self, *, schema=SCHEMA, store=None, facts=True):
        net = CoDBNetwork(seed=31, with_superpeer=False)
        node = net.add_node("N", schema, store=store)
        if facts:
            node.load_facts(
                {
                    "person": [("anna", 24), ("bob", MarkedNull("N1@x"))],
                    "wages": [("anna", 100)],
                }
            )
        net.start()
        return node

    def test_round_trip_memory(self):
        node = self.make_node()
        restored = self.make_node(facts=False)
        assert restore_node(restored, snapshot_node(node))["rows_loaded"] == 3
        assert restored.snapshot() == node.snapshot()

    def test_round_trip_cross_backend(self):
        node = self.make_node()
        store = SqliteStore(parse_schema(SCHEMA))
        restored = self.make_node(schema=store.schema, store=store, facts=False)
        restore_node(restored, snapshot_node(node))
        assert restored.snapshot() == node.snapshot()
        store.close()

    def test_round_trip_via_file(self, tmp_path):
        node = self.make_node()
        path = str(tmp_path / "node.snapshot.json")
        write_snapshot(path, snapshot_node(node))
        restored = self.make_node(facts=False)
        assert restore_node(restored, read_snapshot(path))["rows_loaded"] == 3
        assert restored.snapshot() == node.snapshot()

    def test_schema_mismatch_rejected(self):
        node = self.make_node()
        other = self.make_node(schema="person(name)", facts=False)
        with pytest.raises(SnapshotError):
            restore_node(other, snapshot_node(node))
        assert other.snapshot() == {"person": []}

    def test_bad_format_rejected(self, tmp_path):
        path = tmp_path / "node.snapshot.json"
        path.write_text(
            '{"format": 999, "version": 1, "facts": {}}', encoding="utf-8"
        )
        with pytest.raises(SnapshotError):
            read_snapshot(str(path))

    def test_deterministic_output(self, tmp_path):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        write_snapshot(str(first), snapshot_node(self.make_node()))
        write_snapshot(str(second), snapshot_node(self.make_node()))
        assert first.read_bytes() == second.read_bytes()
        assert json.loads(first.read_text(encoding="utf-8"))["name"] == "N"

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
        snapshots = {
            name: snapshot_node(node) for name, node in original.nodes.items()
        }

        restored = build()
        loaded = sum(
            restore_node(node, snapshots[name])["rows_loaded"]
            for name, node in restored.nodes.items()
        )
        # build() pre-loads p(1); only the update-imported rows are new.
        assert loaded == original.total_rows() - 1
        assert restored.snapshot() == original.snapshot()


class TestExplain:
    def make_db(self):
        schema = parse_schema("big(a, b)\nsmall(a)")
        db = Database(schema)
        db.load({"big": [(i % 50, i) for i in range(500)]})
        db.load({"small": [(1,), (2,)]})
        return db

    def plan(self, db, query):
        return compile_plan(
            query.body, query.comparisons, query.head.terms, view=db
        )

    def order(self, query, plan):
        return [query.body[i].relation for i in plan.atom_order()]

    def test_small_relation_first(self):
        db = self.make_db()
        q = parse_query("q(b) <- big(a, b), small(a)")
        assert self.order(q, self.plan(db, q)) == ["small", "big"]

    def test_bound_columns_recorded(self):
        db = self.make_db()
        plan = self.plan(db, parse_query("q(b) <- big(a, b), small(a)"))
        assert plan.steps[0].probe_positions == ()
        assert plan.steps[1].probe_positions == (0,)
        assert plan.steps[1].probe_sources == ((True, "a"),)

    def test_comparisons_attached_to_binding_step(self):
        db = self.make_db()
        q = parse_query("q(b) <- small(a), big(a, b), b > 100")
        plan = self.plan(db, q)
        big_step = [s for s in plan.steps if s.relation == "big"][0]
        (index,) = big_step.comparison_indices
        assert repr(plan.comparisons[index]) == "?b > 100"

    def test_comparison_placement_and_selectivity_shown(self):
        db = self.make_db()
        # b > 495 keeps 4 of big's 500 rows — still more than small's
        # 2, so small leads and b > 495 filters each probed bucket.
        q = parse_query("q(b) <- small(a), big(a, b), b > 495, a < b, 1 < 2")
        plan = self.plan(db, q)
        small_step, big_step = plan.steps
        assert [repr(plan.comparisons[i]) for i in plan.ground_comparisons] == [
            "1 < 2"
        ]
        assert small_step.comparison_indices == ()
        assert big_step.probe_positions == (0,)
        local = [repr(plan.comparisons[i]) for i in big_step.local_comparisons]
        cross = [
            repr(plan.comparisons[i])
            for i in big_step.comparison_indices
            if i not in big_step.local_comparisons
        ]
        assert (local, cross) == (["?b > 495"], ["?a < ?b"])
        assert big_step.selectivity == pytest.approx(4 / 500, rel=0.5)
        assert small_step.selectivity == 1.0
        # A selective enough predicate moves its atom to the front,
        # where it runs as a scan filter.
        q = parse_query("q(b) <- small(a), big(a, b), b >= 499")
        plan = self.plan(db, q)
        assert self.order(q, plan) == ["big", "small"]
        first = plan.steps[0]
        assert first.probe_positions == ()
        assert [repr(plan.comparisons[i]) for i in first.local_comparisons] == [
            "?b >= 499"
        ]
        assert first.estimated_cost == pytest.approx(1.0, rel=0.5)

    def test_format_contains_plan(self):
        db = self.make_db()
        plan = self.plan(db, parse_query("q(b) <- big(a, b), small(a)"))
        assert repr(plan) == "<JoinPlan small[1] -> big[0]>"

    def test_estimated_cost_positive(self):
        db = self.make_db()
        plan = self.plan(db, parse_query("q(a) <- big(a, b)"))
        assert plan.estimated_cost() == pytest.approx(500.0)

    def test_steps_show_rows_after_them_and_the_plan_its_c_out(self):
        db = self.make_db()
        plan = self.plan(db, parse_query("q(b) <- big(a, b), small(a)"))
        small_step, big_step = plan.steps
        # small: 2 rows; big probed on a: 500 / max(50 distinct a in
        # big, 2 in small) = 10 per small row, 20 rows after it.
        assert small_step.estimated_cost == small_step.estimated_rows == 2.0
        assert big_step.estimated_cost == pytest.approx(10.0)
        assert big_step.estimated_rows == pytest.approx(20.0)
        # C_out, the quantity the planner minimised (big first: 520).
        assert plan.estimated_cost() == pytest.approx(22.0)

    def test_plan_matches_execution_reality(self):
        # The estimates are the executed plan's: each step's estimated
        # rows out match what executing the plan up to it yields.
        db = self.make_db()
        q = parse_query("q(b) <- big(a, b), small(a)")
        plan = self.plan(db, q)
        assert plan.steps[-1].estimated_rows == pytest.approx(
            len(list(plan.execute(db)))
        )

    def test_explain_renders_pushdown_sql(self):
        db = self.make_db()
        plan = self.plan(db, parse_query("q(b) <- big(a, b), small(a), b > 100"))
        sql = compile_plan_sql(plan, db.relation_names)
        assert sql is not None
        # The SQL FROM order is the plan's atom order (CROSS JOIN pins
        # it), comparisons go through the registered function, and the
        # comparison constant rides along as a parameter.
        assert '"small"' in sql.sql and '"big"' in sql.sql
        assert sql.sql.index('"small"') < sql.sql.index('"big"')
        assert "CROSS JOIN" in sql.sql
        assert "codb_cmp('>'" in sql.sql
        assert sql.params == (100,)
        assert sql.sql.startswith("SELECT")

    def test_explain_marks_unpushable_plans(self):
        db = self.make_db()
        plan = self.plan(db, parse_query("q(x) <- big(x, y), ghost(y)"))
        assert compile_plan_sql(plan, db.relation_names) is None

    def test_explained_sql_executes_identically(self):
        # The pushdown SQL of a plan is what a SQLite store runs:
        # execute it directly and compare with the evaluator.
        from repro.relational.evaluation import evaluate_query

        db = self.make_db()
        query = parse_query("q(b) <- big(a, b), small(a), b > 100")
        plan = self.plan(db, query)
        store = SqliteStore(parse_schema("big(a, b)\nsmall(a)"))
        store.insert_new("big", db.relation("big").rows())
        store.insert_new("small", db.relation("small").rows())
        sql = compile_plan_sql(plan, db.relation_names)
        pushed = sorted(set(store.execute_plan(sql)))
        assert pushed == sorted(set(evaluate_query(db, query)))
        store.close()

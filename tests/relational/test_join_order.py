"""Whole-body join ordering: the planner keeps the cheapest order.

:func:`~repro.relational.planner.compile_plan` costs every admissible
left-deep order of a body by C_out — the sum of the estimated
intermediate row counts — and keeps the smallest.  These tests restate
that cost model from the relations' own estimators (``len``,
``ndv_estimate``, ``selectivity_estimate``) and brute-force it over
every permutation; pin the orders of the paper's §4 bodies; and count
the estimator calls a compile makes.
"""

import math
import random
from itertools import permutations

import pytest

from repro.relational.comparisons import compile_comparison, conjoin
from repro.relational.conjunctive import Variable
from repro.relational.database import Database
from repro.relational.parser import parse_query, parse_schema
from repro.relational.planner import compile_plan, compile_plan_sql
from repro.relational.storage import Relation
from repro.relational.wrapper import SqliteStore
from test_planner import build_random_database
from test_planner import random_query as planner_query
from test_pushdown import SCHEMA_TEXT, instance_facts
from test_pushdown import random_query as pushdown_query

# ---------------------------------------------------------------------------
# The cost model, restated
# ---------------------------------------------------------------------------


def admissible(body, order, delta_atom):
    """The delta atom first; a cross product only when no atom left
    shares a variable with the ones before it."""
    if delta_atom is not None and order[0] != delta_atom:
        return False
    bound: set[str] = set()
    for k, index in enumerate(order):
        connected = [i for i in order[k:] if body[i].variables() & bound]
        if connected and index not in connected:
            return False
        bound |= body[index].variables()
    return True


def c_out(view, body, comparisons, order, delta_atom):
    """Σ over the steps of the estimated rows after each step."""

    def ndv(index, position):
        if index == delta_atom or body[index].relation not in view.relation_names:
            return 1
        return max(view.relation(body[index].relation).ndv_estimate(position), 1)

    rows, cost, placed = 1.0, 0.0, []
    for index in order:
        atom = body[index]
        bound = {name for i in placed for name in body[i].variables()}
        if index == delta_atom:
            fan_out = 1.0
        elif atom.relation not in view.relation_names:
            fan_out = 0.0
        else:
            relation = view.relation(atom.relation)
            fan_out, probed = float(len(relation)), set()
            for position, term in enumerate(atom.terms):
                if not isinstance(term, Variable):
                    fan_out /= ndv(index, position)
                elif term.name in bound:
                    held = min(
                        ndv(i, p)
                        for i in placed
                        for p, other in enumerate(body[i].terms)
                        if other == term
                    )
                    fan_out /= max(ndv(index, position), held)
                else:
                    continue
                probed.add(position)
            keys = relation.schema.key_positions()
            if keys and set(keys) <= probed:
                fan_out = min(fan_out, 1.0)
            local = [
                c
                for c in comparisons
                if c.variables()
                and c.variables() <= atom.variables()
                and not c.variables() & bound
            ]
            if local and hasattr(relation, "selectivity_estimate"):
                slots: dict[str, int] = {}
                for position, term in enumerate(atom.terms):
                    if isinstance(term, Variable):
                        slots.setdefault(term.name, position)
                kernel = conjoin([compile_comparison(c, slots) for c in local])
                fan_out *= relation.selectivity_estimate(kernel)
        rows *= fan_out
        cost += rows
        placed.append(index)
    return cost


def assert_cheapest(view, query, delta_atom=None):
    body, comparisons = query.body, query.comparisons
    plan = compile_plan(
        body, comparisons, query.head.terms, view=view, delta_atom=delta_atom
    )
    costs = [
        c_out(view, body, comparisons, order, delta_atom)
        for order in permutations(range(len(body)))
        if admissible(body, order, delta_atom)
    ]
    chosen = plan.atom_order()
    assert admissible(body, chosen, delta_atom), (query, chosen)
    assert plan.estimated_cost() == pytest.approx(
        c_out(view, body, comparisons, chosen, delta_atom), rel=1e-9
    ), query
    assert plan.estimated_cost() == pytest.approx(min(costs), rel=1e-9), query


class TestCheapestOrder:
    @pytest.mark.parametrize("seed", range(20))
    def test_planner_bodies(self, seed):
        db = build_random_database(seed)
        rng = random.Random(7000 + seed)
        for _ in range(8):
            query = planner_query(rng)
            assert_cheapest(db, query)
            for occurrence in range(len(query.body)):
                assert_cheapest(db, query, occurrence)

    @pytest.mark.parametrize("seed", range(10))
    def test_pushdown_bodies_on_both_backends(self, seed):
        facts = instance_facts(seed)
        db = Database(parse_schema(SCHEMA_TEXT))
        db.load(facts)
        store = SqliteStore(parse_schema(SCHEMA_TEXT))
        for relation, rows in facts.items():
            store.insert_new(relation, rows)
        rng = random.Random(8000 + seed)
        try:
            for _ in range(8):
                query = pushdown_query(rng)
                for view in (db, store._view()):
                    assert_cheapest(view, query)
                    for occurrence in range(len(query.body)):
                        assert_cheapest(view, query, occurrence)
        finally:
            store.close()


# ---------------------------------------------------------------------------
# The paper's §4 bodies, on update_join_sim's S class
# ---------------------------------------------------------------------------


def section4_source(seed):
    """One source shaped like ``update_join_sim``'s S class: 1 200
    orders, 300 customers, 8 regions, one order in forty passing
    ``a >= 950`` (each a distinct customer's)."""
    rng = random.Random(seed)
    customers = list(range(1000, 1300))
    passing = set(rng.sample(range(1200), 30))
    passing_customers = iter(rng.sample(customers, 30))
    orders = [
        (j, next(passing_customers), 950 + rng.randrange(50))
        if j in passing
        else (j, rng.choice(customers), 100 + rng.randrange(850))
        for j in range(1200)
    ]
    db = Database(
        parse_schema(
            "orders(o: int, c: int, amt: int)\n"
            "customer(c: int, r: int)\n"
            "region(r: int, name: str)"
        )
    )
    db.load(
        {
            "orders": orders,
            "customer": [(c, rng.randrange(8)) for c in customers],
            "region": [(r, f"R{r}") for r in range(8)],
        }
    )
    return db


SALE = "sale(o, c, a) <- orders(o, c, a), customer(c, r), a >= 950"
CUSTREG = (
    "custreg(c, n) <- orders(o, c, a), customer(c, r), region(r, n), a >= 950"
)


class TestSection4Bodies:
    @pytest.mark.parametrize("seed", range(3))
    def test_both_bodies_start_from_the_selection(self, seed):
        db = section4_source(seed)
        for text, order in ((SALE, (0, 1)), (CUSTREG, (0, 1, 2))):
            query = parse_query(text)
            plan = compile_plan(
                query.body, query.comparisons, query.head.terms, view=db
            )
            # orders (30 rows after the selection) -> customer probed on
            # c -> region probed on r, never the 8-row region crossed
            # with the selection.
            assert plan.atom_order() == order
            assert plan.steps[0].estimated_rows == pytest.approx(30, rel=0.5)
            assert all(step.probe_positions for step in plan.steps[1:])

    def test_pushdown_sql_joins_in_that_order(self):
        db = section4_source(0)
        query = parse_query(CUSTREG)
        plan = compile_plan(
            query.body, query.comparisons, query.head.terms, view=db
        )
        order = [query.body[i].relation for i in plan.atom_order()]
        assert order == ["orders", "customer", "region"]
        sql = compile_plan_sql(plan, db.relation_names).sql
        assert sql.index('"orders"') < sql.index('"customer"') < sql.index('"region"')


# ---------------------------------------------------------------------------
# Compile cost, counted
# ---------------------------------------------------------------------------


FOUR_ATOMS = "q(x, w) <- r(x, y), s(y, z), t(z, w, x), r(w, v), v < 5, x != y"


class TestCompileCost:
    def test_each_estimate_is_read_once_per_compile(self, monkeypatch):
        db = build_random_database(3)
        calls: list[tuple] = []
        for name in ("ndv_estimate", "selectivity_estimate"):
            real = getattr(Relation, name)

            def counted(self, argument, _real=real, _name=name):
                key = argument if _name == "ndv_estimate" else argument.key
                calls.append((_name, self.schema.name, key))
                return _real(self, argument)

            monkeypatch.setattr(Relation, name, counted)
        query = parse_query(FOUR_ATOMS)
        for delta_atom in (None, 0, 1, 2, 3):
            calls.clear()
            compile_plan(
                query.body,
                query.comparisons,
                query.head.terms,
                view=db,
                delta_atom=delta_atom,
            )
            assert calls, "the cost model read no statistics"
            assert len(calls) == len(set(calls)), calls

    def test_sqlite_counts_each_column_once_per_compile(self):
        store = SqliteStore(parse_schema(SCHEMA_TEXT))
        for relation, rows in instance_facts(3).items():
            store.insert_new(relation, rows)
        statements: list[str] = []
        store._connection.set_trace_callback(statements.append)
        query = parse_query(FOUR_ATOMS)
        try:
            for delta_atom in (None, 0, 1, 2, 3):
                statements.clear()
                compile_plan(
                    query.body,
                    query.comparisons,
                    query.head.terms,
                    view=store._view(),
                    delta_atom=delta_atom,
                )
                counts = [s for s in statements if "COUNT(DISTINCT" in s]
                assert counts
                assert len(counts) == len(set(counts)), counts
        finally:
            store.close()


def test_cost_model_helpers_agree_on_a_hand_computed_plan():
    # small(a) 2 rows, big(a, b) 500 rows with 50 distinct a: small
    # first costs 2 + 2 * 500 / 50 = 22, big first 500 + 500 * 2 / 50.
    db = Database(parse_schema("big(a, b)\nsmall(a)"))
    db.load({"big": [(i % 50, i) for i in range(500)], "small": [(1,), (2,)]})
    query = parse_query("q(b) <- big(a, b), small(a)")
    assert c_out(db, query.body, (), (1, 0), None) == pytest.approx(22.0)
    assert c_out(db, query.body, (), (0, 1), None) == pytest.approx(520.0)
    assert math.isclose(
        compile_plan(query.body, (), query.head.terms, view=db).estimated_cost(), 22.0
    )

"""Compiled join plans: shape, caching, and interpreter equivalence.

The planner must be *observationally identical* to the interpreter in
:mod:`repro.relational.evaluation` — the interpreter is the semantics
oracle.  The differential tests here randomize conjunctive queries
(via :mod:`repro.workloads.datagen` seeds), including delta mode with
repeated relation occurrences and marked nulls, and require identical
answer sets.
"""

import random

import pytest

from repro.relational.conjunctive import (
    Atom,
    Comparison,
    ConjunctiveQuery,
    GlavMapping,
    Variable,
)
from repro.relational.database import Database
from repro.relational.evaluation import (
    evaluate_mapping_bindings,
    evaluate_query,
    evaluate_query_delta,
)
from repro.relational.parser import parse_mapping, parse_query, parse_schema
from repro.relational.planner import (
    PlanCache,
    cardinality_fingerprint,
    compile_plan,
    evaluate_mapping_bindings_planned,
    evaluate_query_delta_planned,
    evaluate_query_planned,
)
from repro.relational.values import MarkedNull, row_sort_key
from repro.relational.wrapper import MemoryStore, SqliteStore
from repro.workloads import DataGenerator


# ---------------------------------------------------------------------------
# Plan shape
# ---------------------------------------------------------------------------


@pytest.fixture
def graph_schema():
    return parse_schema("node(id: int)\nedge(a: int, b: int)")


def make_graph(schema, edges, nodes=()):
    db = Database(schema)
    db.load({"edge": edges, "node": [(n,) for n in nodes]})
    return db


class TestPlanShape:
    def test_every_atom_appears_once(self, graph_schema):
        db = make_graph(graph_schema, [(1, 2), (2, 3)])
        q = parse_query("q(x, z) <- edge(x, y), edge(y, z)")
        plan = compile_plan(q.body, q.comparisons, q.head.terms, view=db)
        assert sorted(plan.atom_order()) == [0, 1]

    def test_second_step_probes_the_join_column(self, graph_schema):
        db = make_graph(graph_schema, [(1, 2), (2, 3)])
        q = parse_query("q(x, z) <- edge(x, y), edge(y, z)")
        plan = compile_plan(q.body, q.comparisons, q.head.terms, view=db)
        first, second = plan.steps
        assert first.probe_positions == ()
        assert len(second.probe_positions) == 1
        assert second.probe_sources[0][0] is True  # bound by a variable

    def test_delta_atom_forced_first(self, graph_schema):
        db = make_graph(graph_schema, [(1, 2), (2, 3)])
        q = parse_query("q(x, z) <- edge(x, y), edge(y, z)")
        plan = compile_plan(
            q.body, q.comparisons, q.head.terms, view=db, delta_atom=1
        )
        assert plan.steps[0].atom_index == 1
        assert plan.steps[0].is_delta is True
        assert not plan.steps[0].probe_positions  # deltas cannot be probed

    def test_constants_become_probe_template_entries(self, graph_schema):
        db = make_graph(graph_schema, [(1, 2), (2, 3)])
        q = parse_query("q(x) <- edge(x, 3)")
        plan = compile_plan(q.body, q.comparisons, q.head.terms, view=db)
        (step,) = plan.steps
        assert step.probe_positions == (1,)
        assert step.probe_sources == ((False, 3),)

    def test_repeated_new_variable_checked_in_row(self, graph_schema):
        db = make_graph(graph_schema, [(1, 1), (1, 2)])
        q = parse_query("loop(x) <- edge(x, x)")
        plan = compile_plan(q.body, q.comparisons, q.head.terms, view=db)
        (step,) = plan.steps
        assert step.bind_slots == ((0, "x"),)
        assert step.same_row_checks == ((1, 0),)

    def test_comparison_scheduled_at_earliest_step(self, graph_schema):
        db = make_graph(graph_schema, [(1, 2)], nodes=[1, 2])
        q = parse_query("q(x, z) <- edge(x, y), node(z), x < y")
        plan = compile_plan(q.body, q.comparisons, q.head.terms, view=db)
        scheduling = {
            step.atom_index: step.comparison_indices for step in plan.steps
        }
        assert scheduling[0] == (0,)  # x < y checkable right after edge
        assert scheduling[1] == ()

    def test_ground_comparisons_hoisted(self, graph_schema):
        db = make_graph(graph_schema, [(1, 2)])
        body = (Atom.of("edge", "x", "y"),)
        comparisons = (Comparison("<", 2, 1),)
        plan = compile_plan(body, comparisons, (Variable("x"),), view=db)
        assert plan.ground_comparisons == (0,)
        assert list(plan.execute(db)) == []

    def test_compilation_is_read_only(self, graph_schema):
        db = make_graph(graph_schema, [(i, i + 1) for i in range(100)])
        q = parse_query("q(x, z) <- edge(x, y), edge(y, z), node(z)")
        compile_plan(q.body, q.comparisons, q.head.terms, view=db)
        assert db.relation("edge")._indexes == {}
        assert db.relation("edge")._multi_indexes == {}
        assert db.relation("node")._indexes == {}

    def test_unknown_relation_yields_nothing(self, graph_schema):
        db = make_graph(graph_schema, [(1, 2)])
        body = (Atom.of("edge", "x", "y"), Atom.of("ghost", "y"))
        plan = compile_plan(body, (), (Variable("x"),), view=db)
        assert list(plan.execute(db)) == []

    def test_projection_with_constants(self, graph_schema):
        db = make_graph(graph_schema, [(1, 2)])
        q = parse_query("q(x, 'tag') <- edge(x, y)")
        plan = compile_plan(q.body, q.comparisons, q.head.terms, view=db)
        assert list(plan.execute(db)) == [(1, "tag")]

    def test_repeated_bound_variable_through_probe_path(self, graph_schema):
        # node(x), edge(x, x): x is bound when edge is reached, so both
        # edge positions are probed (composite index on a relation this
        # size) — the diagonal must still filter correctly.
        edges = [(i, j) for i in range(10) for j in range(10)]
        db = make_graph(graph_schema, edges, nodes=range(10))
        q = parse_query("self(x) <- node(x), edge(x, x)")
        expected = sorted(evaluate_query(db, q))
        got = sorted(evaluate_query_planned(db, q, PlanCache()))
        assert got == expected == [(i,) for i in range(10)]


class TestPlanCache:
    def test_repeat_is_a_hit(self, graph_schema):
        db = make_graph(graph_schema, [(1, 2), (2, 3)])
        q = parse_query("q(x, z) <- edge(x, y), edge(y, z)")
        cache = PlanCache()
        evaluate_query_planned(db, q, cache)
        evaluate_query_planned(db, q, cache)
        assert cache.misses == 1
        assert cache.hits == 1

    def test_rule_key_shares_plans_across_equal_queries(self, graph_schema):
        db = make_graph(graph_schema, [(1, 2)])
        cache = PlanCache()
        q1 = parse_query("q(x, z) <- edge(x, y), edge(y, z)")
        q2 = parse_query("q(x, z) <- edge(x, y), edge(y, z)")
        evaluate_query_planned(db, q1, cache, rule_key="rule-7")
        evaluate_query_planned(db, q2, cache, rule_key="rule-7")
        assert cache.hits == 1

    def test_rule_key_reuse_with_different_query_recompiles(self, graph_schema):
        # Same rule_key, different body: the cache must not serve the
        # first query's plan (and answers) for the second.
        db = make_graph(graph_schema, [(1, 2), (2, 3)], nodes=[1, 2, 3])
        cache = PlanCache()
        q1 = parse_query("q(x) <- edge(x, y)")
        q2 = parse_query("q(x) <- edge(y, x)")
        first = evaluate_query_planned(db, q1, cache, rule_key="shared")
        second = evaluate_query_planned(db, q2, cache, rule_key="shared")
        assert sorted(first) == [(1,), (2,)]
        assert sorted(second) == [(2,), (3,)]
        assert cache.hits == 0

    def test_magnitude_shift_triggers_replan(self, graph_schema):
        db = make_graph(graph_schema, [(1, 2), (2, 3)])
        q = parse_query("q(x, z) <- edge(x, y), edge(y, z)")
        cache = PlanCache()
        evaluate_query_planned(db, q, cache)
        db.load({"edge": [(i, i + 1) for i in range(10, 200)]})
        evaluate_query_planned(db, q, cache)
        assert cache.replans == 1

    def test_small_growth_does_not_replan(self, graph_schema):
        db = make_graph(graph_schema, [(i, i + 1) for i in range(10)])
        q = parse_query("q(x, z) <- edge(x, y), edge(y, z)")
        cache = PlanCache()
        evaluate_query_planned(db, q, cache)
        db.load({"edge": [(100, 101)]})  # 10 -> 11 rows: same magnitude
        evaluate_query_planned(db, q, cache)
        assert cache.replans == 0
        assert cache.hits == 1

    def test_delta_occurrences_get_distinct_plans(self, graph_schema):
        db = make_graph(graph_schema, [(1, 2), (2, 3)])
        q = parse_query("q(x, z) <- edge(x, y), edge(y, z)")
        cache = PlanCache()
        evaluate_query_delta_planned(db, q, "edge", [(3, 4)], cache)
        assert len(cache) == 2  # one per body occurrence

    def test_cache_is_bounded(self, graph_schema):
        db = make_graph(graph_schema, [(1, 2)])
        cache = PlanCache(max_plans=4)
        for i in range(10):
            q = parse_query(f"q(x) <- edge(x, {i})")
            evaluate_query_planned(db, q, cache)
        assert len(cache) <= 4

    def test_fingerprint_marks_missing_and_empty(self, graph_schema):
        db = Database(graph_schema)
        assert cardinality_fingerprint(db, ["edge", "ghost"]) == (-1, -2)
        db.load({"edge": [(1, 2)] })
        assert cardinality_fingerprint(db, ["edge"]) == (0,)


# ---------------------------------------------------------------------------
# Wrapper integration
# ---------------------------------------------------------------------------


class TestWrapperIntegration:
    SCHEMA = "r(a: int, b: int)\ns(b: int, c: int)"

    def _fill(self, store):
        store.insert_new("r", [(i, i % 5) for i in range(40)])
        store.insert_new("s", [(i % 5, i % 3) for i in range(30)])

    def test_memory_store_uses_plan_cache(self):
        store = MemoryStore(parse_schema(self.SCHEMA))
        self._fill(store)
        q = parse_query("q(a, c) <- r(a, b), s(b, c)")
        first = store.evaluate_query(q, rule_key="q1")
        second = store.evaluate_query(q, rule_key="q1")
        assert first == second
        assert store.plan_cache.hits >= 1

    def test_sqlite_store_matches_memory_store(self):
        memory = MemoryStore(parse_schema(self.SCHEMA))
        sqlite = SqliteStore(parse_schema(self.SCHEMA))
        for store in (memory, sqlite):
            self._fill(store)
        q = parse_query("q(a, c) <- r(a, b), s(b, c), a >= 10")
        assert sorted(memory.evaluate_query(q)) == sorted(sqlite.evaluate_query(q))
        delta = [(99, 2)]
        memory.insert_new("r", delta)
        sqlite.insert_new("r", delta)
        assert sorted(
            memory.evaluate_query_delta(q, "r", delta)
        ) == sorted(sqlite.evaluate_query_delta(q, "r", delta))
        sqlite.close()

    def test_sqlite_row_counts_maintained_without_count_star(self):
        store = SqliteStore(parse_schema("r(a: int)"))
        store.insert_new("r", [(1,), (2,), (2,), (3,)])
        view = store._view()
        assert len(view.relation("r")) == 3 == store.count("r")
        store.delete_rows("r", [(2,)])
        assert len(view.relation("r")) == 2
        store.clear()
        assert len(view.relation("r")) == 0
        store.close()

    def test_sqlite_row_counts_survive_reopen(self, tmp_path):
        path = str(tmp_path / "store.db")
        schema = parse_schema("r(a: int)")
        first = SqliteStore(schema, path)
        first.insert_new("r", [(1,), (2,)])
        first.close()
        second = SqliteStore(parse_schema("r(a: int)"), path)
        assert len(second._view().relation("r")) == 2
        second.close()

    def test_mapping_bindings_with_empty_frontier(self):
        store = MemoryStore(parse_schema("r(a: int)"))
        store.insert_new("r", [(1,), (2,)])
        mapping = parse_mapping("X:flag('on') <- Y:r(x)").mapping
        view = store._view()
        assert evaluate_mapping_bindings(view, mapping) == [{}]
        # Planned bindings are positional: one empty tuple, keyed as itself.
        assert evaluate_mapping_bindings_planned(view, mapping, PlanCache()) == {(): ()}


# ---------------------------------------------------------------------------
# Differential testing against the interpreter oracle
# ---------------------------------------------------------------------------

VARIABLE_POOL = ("x", "y", "z", "w", "v")
ARITIES = {"r": 2, "s": 2, "t": 3}
DOMAIN = 8
NULL_LABELS = tuple(f"N{i}@peer" for i in range(4))


def build_random_database(seed: int) -> Database:
    """A small, join-dense instance derived from the seeded datagen.

    Measurement rows provide the raw material (sensor ids live in a
    small domain, so random joins actually match); a slice of values is
    rewritten into marked nulls drawn from a small label pool, so null
    joins and null dedup are exercised too.
    """
    gen = DataGenerator(seed)
    rng = random.Random(seed * 31 + 7)
    raw = gen.measurements(120, sensors=DOMAIN)
    schema = parse_schema("r(a, b)\ns(a, b)\nt(a, b, c)")
    db = Database(schema)

    def maybe_null(value):
        if rng.random() < 0.12:
            return MarkedNull(rng.choice(NULL_LABELS))
        return value % DOMAIN

    db.load(
        {
            "r": [(maybe_null(s), maybe_null(v)) for s, _, v in raw[:50]],
            "s": [(maybe_null(v), maybe_null(s)) for s, _, v in raw[50:90]],
            "t": [
                (maybe_null(s), maybe_null(v), maybe_null(t))
                for s, t, v in raw[90:]
            ],
        }
    )
    return db


def random_query(rng: random.Random) -> ConjunctiveQuery:
    body = []
    for _ in range(rng.randint(2, 4)):
        relation = rng.choice(sorted(ARITIES))
        terms = []
        for _ in range(ARITIES[relation]):
            roll = rng.random()
            if roll < 0.75:
                terms.append(Variable(rng.choice(VARIABLE_POOL)))
            else:
                terms.append(rng.randrange(DOMAIN))
        body.append(Atom(relation, tuple(terms)))
    body_vars = sorted({name for atom in body for name in atom.variables()})
    if not body_vars:  # all-constant body: give it a constant head
        return ConjunctiveQuery(Atom("q", (1,)), tuple(body))
    head_vars = rng.sample(body_vars, rng.randint(1, min(3, len(body_vars))))
    # 0-2 comparisons: against a constant or within one atom (that
    # atom's own filter) and across atoms (a filter on the joined
    # batch) — the same mix as tests/relational/test_pushdown.py.
    with_vars = [sorted(atom.variables()) for atom in body if atom.variables()]
    comparisons = []
    for _ in range(rng.choice((0, 1, 1, 2))):
        names = rng.choice(with_vars)
        left = Variable(rng.choice(names))
        shape = rng.random()
        if shape < 0.4:
            right = rng.randrange(DOMAIN)
        elif shape < 0.6:
            right = Variable(rng.choice(names))
        else:
            right = Variable(rng.choice(rng.choice(with_vars)))
        if rng.random() < 0.5:
            left, right = right, left
        comparisons.append(
            Comparison(rng.choice(("<", "<=", "!=", ">", ">=", "=")), left, right)
        )
    return ConjunctiveQuery(
        Atom("q", tuple(Variable(name) for name in head_vars)),
        tuple(body),
        tuple(comparisons),
    )


def random_delta(rng: random.Random, db: Database, relation: str):
    """A delta mixing rows already stored with genuinely new ones."""
    stored = db.relation(relation).rows()
    delta = [rng.choice(stored) for _ in range(min(3, len(stored)))]
    arity = len(stored[0])
    for _ in range(3):
        delta.append(tuple(rng.randrange(DOMAIN) for _ in range(arity)))
    return delta


def canonical_rows(rows):
    return sorted(rows, key=row_sort_key)


def canonical_bindings(bindings):
    return {tuple(sorted(b.items(), key=lambda kv: kv[0])) for b in bindings}


def named(mapping, keyed):
    """Planned bindings (``{row key: frontier values}``) as the
    interpreter's binding dicts."""
    frontier = sorted(mapping.frontier_variables())
    return [dict(zip(frontier, row)) for row in keyed.values()]


class TestDifferential:
    @pytest.mark.parametrize("seed", range(20))
    def test_full_evaluation_matches_interpreter(self, seed):
        db = build_random_database(seed)
        rng = random.Random(1000 + seed)
        cache = PlanCache()
        for _ in range(8):
            query = random_query(rng)
            expected = canonical_rows(evaluate_query(db, query))
            actual = canonical_rows(evaluate_query_planned(db, query, cache))
            assert actual == expected, f"seed={seed} query={query!r}"

    @pytest.mark.parametrize("seed", range(20))
    def test_delta_evaluation_matches_interpreter(self, seed):
        db = build_random_database(seed)
        rng = random.Random(2000 + seed)
        cache = PlanCache()
        for _ in range(6):
            query = random_query(rng)
            changed = rng.choice([atom.relation for atom in query.body])
            delta = random_delta(rng, db, changed)
            expected = canonical_rows(
                evaluate_query_delta(db, query, changed, delta)
            )
            actual = canonical_rows(
                evaluate_query_delta_planned(db, query, changed, delta, cache)
            )
            assert actual == expected, (
                f"seed={seed} changed={changed} query={query!r}"
            )

    @pytest.mark.parametrize("seed", range(10))
    def test_repeated_occurrence_delta_matches_interpreter(self, seed):
        # Force bodies where the changed relation occurs several times:
        # the planner must union one delta plan per occurrence.
        db = build_random_database(seed)
        rng = random.Random(3000 + seed)
        cache = PlanCache()
        query = ConjunctiveQuery(
            Atom.of("q", "x", "z"),
            (
                Atom.of("r", "x", "y"),
                Atom.of("r", "y", "z"),
                Atom.of("r", "z", "w"),
            ),
        )
        for _ in range(4):
            delta = random_delta(rng, db, "r")
            expected = canonical_rows(evaluate_query_delta(db, query, "r", delta))
            actual = canonical_rows(
                evaluate_query_delta_planned(db, query, "r", delta, cache)
            )
            assert actual == expected, f"seed={seed}"

    @pytest.mark.parametrize("seed", range(10))
    def test_mapping_bindings_match_interpreter(self, seed):
        db = build_random_database(seed)
        rng = random.Random(4000 + seed)
        cache = PlanCache()
        mapping = GlavMapping(
            head=(Atom.of("out", "x", "z", "fresh"),),
            body=(Atom.of("r", "x", "y"), Atom.of("s", "y", "z")),
            comparisons=(),
        )
        expected = canonical_bindings(evaluate_mapping_bindings(db, mapping))
        actual = canonical_bindings(
            named(mapping, evaluate_mapping_bindings_planned(db, mapping, cache))
        )
        assert actual == expected
        for _ in range(3):
            changed = rng.choice(("r", "s"))
            delta = random_delta(rng, db, changed)
            expected = canonical_bindings(
                evaluate_mapping_bindings(
                    db, mapping, changed_relation=changed, delta_rows=delta
                )
            )
            actual = canonical_bindings(
                named(
                    mapping,
                    evaluate_mapping_bindings_planned(
                        db,
                        mapping,
                        cache,
                        changed_relation=changed,
                        delta_rows=delta,
                    ),
                )
            )
            assert actual == expected, f"seed={seed} changed={changed}"

    def test_interpreter_remains_available_as_oracle(self):
        # The module contract: evaluation.py stays importable and
        # independently usable so future planner changes can be
        # differentially tested against it.
        db = build_random_database(0)
        query = parse_query("q(x) <- r(x, y), s(y, x)")
        assert canonical_rows(evaluate_query(db, query)) == canonical_rows(
            evaluate_query_planned(db, query, PlanCache())
        )


class TestSelectionAwareOrdering:
    """Join ordering sees selections: an atom's estimate is scaled by
    the sampled selectivity of the comparisons it alone binds."""

    def _db(self):
        schema = parse_schema("orders(o: int, c: int, amt: int)\ncustomer(c: int, r: int)")
        db = Database(schema)
        # One order in forty has amt >= 950, at seeded positions; the
        # customer column is periodic (i % 300).
        passing = set(random.Random(14).sample(range(1200), 30))
        db.load(
            {
                "orders": [
                    (i, i % 300, 950 + i % 50 if i in passing else 100 + i % 850)
                    for i in range(1200)
                ],
                "customer": [(c, c % 8) for c in range(300)],
            }
        )
        return db

    def _plan(self, db, text):
        q = parse_query(text)
        return compile_plan(q.body, q.comparisons, q.head.terms, view=db)

    def test_selective_local_predicate_puts_its_atom_first(self):
        db = self._db()
        plan = self._plan(
            db, "q(o, r) <- orders(o, c, a), customer(c, r), a >= 950"
        )
        # 1200 orders * 1/40 = 30 < 300 customers: start from the
        # selection and probe customer, instead of scanning customer and
        # indexing every order.
        assert plan.atom_order() == (0, 1)
        first, second = plan.steps
        assert first.local_comparisons == (0,) and not first.probe_positions
        assert first.selectivity == pytest.approx(1 / 40, rel=0.5)
        assert first.estimated_cost == pytest.approx(30, rel=0.5)
        assert second.probe_positions == (0,) and second.selectivity == 1.0
        assert len(plan.execute_columnar(db)) == 30

    def test_predicate_passing_the_whole_sample_changes_nothing(self):
        db = self._db()
        bare = self._plan(db, "q(o, r) <- orders(o, c, a), customer(c, r)")
        plan = self._plan(
            db, "q(o, r) <- orders(o, c, a), customer(c, r), a >= 100"
        )
        assert plan.atom_order() == bare.atom_order() == (1, 0)
        assert [s.estimated_cost for s in plan.steps] == [
            s.estimated_cost for s in bare.steps
        ]
        assert plan.steps[1].local_comparisons == (0,)
        assert plan.steps[1].selectivity == 1.0

    def test_cross_step_comparison_does_not_move_the_order(self):
        db = self._db()
        plan = self._plan(db, "q(o, r) <- orders(o, c, a), customer(c, r), a < r")
        assert plan.atom_order() == (1, 0)
        assert all(step.local_comparisons == () for step in plan.steps)
        assert plan.steps[1].comparison_indices == (0,)

    def test_ordering_is_read_only(self):
        db = self._db()
        orders, customer = db.relation("orders"), db.relation("customer")
        versions = (orders._version, customer._version)
        self._plan(db, "q(o, r) <- orders(o, c, a), customer(c, r), a >= 950")
        # The cost model read the distinct counts on both sides of the
        # join column and the selection's sampled selectivity ...
        assert ("ndv", 1) in orders._column_cache
        assert ("ndv", 0) in customer._column_cache
        assert any(key[0] == "selectivity" for key in orders._column_cache)
        # ... and wrote nothing: no mutation, no index.
        assert (orders._version, customer._version) == versions
        for relation in (orders, customer):
            assert relation._indexes == {} and relation._multi_indexes == {}

    def test_sampled_ndv_does_not_alias_with_a_periodic_column(self):
        # orders.c is i % 300 over 1 200 rows: a fixed stride of 5
        # divides the period and read it as 60 distinct values.
        assert 150 <= self._db().relation("orders").ndv_estimate(1) <= 600

    def test_selections_sharing_a_predicate_select_once(self):
        db = self._db()
        orders = db.relation("orders")
        store = MemoryStore(db.schema, db)
        two = parse_query("q(o, r) <- orders(o, c, a), customer(c, r), a >= 950")
        one = parse_query("q(o) <- orders(o, c, a), 950 <= a")

        def selection(query):
            plan = compile_plan(
                query.body, query.comparisons, query.head.terms, view=db
            )
            return orders.select_rows(plan.steps[0].local_kernel)

        assert len(store.evaluate_query(two)) == 30
        selected = selection(two)
        assert len(store.evaluate_query(one)) == 30
        # The same list object: the second body (the same predicate,
        # spelled mirrored) reused the first one's selection ...
        assert selection(one) is selected
        # ... until the relation changes.
        orders.insert((5000, 1, 999))
        assert len(store.evaluate_query(one)) == 31
        assert len(store.evaluate_query(two)) == 31
        assert selection(one) is not selected


class TestKeyAwarePlanning:
    """A fully bound declared key plans as exactly one row (ROADMAP item)."""

    def _db(self):
        # k declares a key on its first column but the data violates it
        # (coDB tolerates local inconsistency): NDV-based estimation
        # reads ~30 matches per probe, the key contract reads 1.
        schema = parse_schema("src(a: int)\nk(a!: int, b: int)\nsmall(b: int, c: int)")
        db = Database(schema)
        db.load(
            {
                "src": [(i,) for i in range(5)],
                "k": [(i % 10, i) for i in range(300)],
                "small": [(i, i) for i in range(15)],
            }
        )
        return db

    def test_keyed_atom_ordered_first_among_bound_candidates(self):
        db = self._db()
        q = parse_query("q(x, z) <- src(x), k(x, z), small(z, w)")
        plan = compile_plan(q.body, q.comparisons, q.head.terms, view=db)
        # src (cheapest scan) binds x; the keyed probe on k then costs
        # exactly 1 and must beat small's 15-row scan.  Sampled NDVs
        # alone would cost k at ~30 and order small first.
        assert plan.atom_order() == (0, 1, 2)
        assert plan.steps[1].relation == "k"
        assert plan.steps[1].estimated_cost == 1.0

    def test_partially_bound_key_still_uses_ndv(self):
        db = self._db()
        schema = parse_schema("src(a: int)\nk2(a!: int, b!: int, c: int)")
        db2 = Database(schema)
        db2.load(
            {
                "src": [(i,) for i in range(50)],
                "k2": [(i % 10, i % 3, i) for i in range(300)],
            }
        )
        relation = db2.relation("k2")
        assert relation.estimated_matches([0]) == pytest.approx(30, rel=0.5)
        assert relation.estimated_matches([0, 1]) == 1.0

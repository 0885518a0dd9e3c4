"""Interpreter ≡ row JoinPlan ≡ columnar ≡ pushdown.

The randomized differential harness for every executor of the shared
:class:`~repro.relational.planner.JoinPlan` IR: rule bodies with
repeated relations, repeated variables, constants, comparison
predicates and marked nulls are evaluated three ways against the
interpreter —

* the interpreter (:mod:`repro.relational.evaluation`, the semantics
  oracle),
* the in-memory compiled plan in the row-at-a-time join loop,
* the **columnar** batch-at-a-time executor
  (:meth:`~repro.relational.planner.JoinPlan.execute_columnar`, via a
  default-configured :class:`MemoryStore`),
* the SQLite **pushdown** (the plan translated by ``compile_plan_sql``
  and run as one SQL join inside :class:`SqliteStore`),

in both full and semi-naive (delta) mode, and the answer sets must be
identical.  The randomized pool is ints plus marked nulls;
``TestCrossTypeIdentity`` pins the once-divergent cross-type case
(``3`` vs ``3.0`` vs ``True``) now that the in-memory engine enforces
the same injective, type-strict value identity as the cell encoding.

Seeds × queries per seed give well over 200 randomized rule/instance
pairs per mode (the ISSUE's acceptance floor).
"""

import random

import pytest

from repro.relational.conjunctive import (
    Atom,
    Comparison,
    ConjunctiveQuery,
    Variable,
)
from repro.relational.database import Database
from repro.relational.evaluation import (
    evaluate_body,
    evaluate_query,
    evaluate_query_delta,
    project_head_row,
)
from repro.relational.parser import parse_mapping, parse_query, parse_schema
from repro.relational.planner import (
    PlanCache,
    compile_plan,
    compile_plan_sql,
    evaluate_mapping_bindings_planned,
    evaluate_query_delta_planned,
    evaluate_query_planned,
)
from repro.relational.values import MarkedNull, row_sort_key
from repro.relational.wrapper import MemoryStore, SqliteStore
from repro.workloads import DataGenerator

SCHEMA_TEXT = "r(a, b)\ns(a, b)\nt(a, b, c)"
VARIABLE_POOL = ("x", "y", "z", "w", "v")
ARITIES = {"r": 2, "s": 2, "t": 3}
DOMAIN = 8
NULL_LABELS = tuple(f"N{i}@peer" for i in range(4))

#: Full-mode pairs: FULL_SEEDS × QUERIES_PER_SEED ≥ 200.
FULL_SEEDS = 25
QUERIES_PER_SEED = 8
#: Delta-mode pairs: DELTA_SEEDS × DELTAS_PER_SEED ≥ 200.
DELTA_SEEDS = 25
DELTAS_PER_SEED = 8


def instance_facts(seed: int) -> dict[str, list]:
    """The random facts of one instance, identical for every backend:
    ints from a small domain (so random joins match) with a slice
    rewritten into marked nulls from a small label pool (so null joins,
    null projection and null comparisons are all exercised)."""
    gen = DataGenerator(seed)
    rng = random.Random(seed * 31 + 7)
    raw = gen.measurements(120, sensors=DOMAIN)

    def maybe_null(value):
        if rng.random() < 0.12:
            return MarkedNull(rng.choice(NULL_LABELS))
        return value % DOMAIN

    return {
        "r": [(maybe_null(s), maybe_null(v)) for s, _, v in raw[:50]],
        "s": [(maybe_null(v), maybe_null(s)) for s, _, v in raw[50:90]],
        "t": [
            (maybe_null(s), maybe_null(v), maybe_null(t)) for s, t, v in raw[90:]
        ],
    }


def build_instance(seed: int):
    """One random instance, loaded identically into every backend.

    Returns ``(database, sqlite_store)`` with byte-identical contents.
    """
    facts = instance_facts(seed)
    db = Database(parse_schema(SCHEMA_TEXT))
    db.load(facts)
    store = SqliteStore(parse_schema(SCHEMA_TEXT))
    for relation, rows in facts.items():
        store.insert_new(relation, rows)
    return db, store


OPERATORS = ("<", "<=", "!=", ">", ">=", "=")


def random_comparisons(rng: random.Random, body) -> list[Comparison]:
    """0–2 comparisons over *body*'s variables, in the three places a
    plan can run one: against a constant or within one atom (the
    atom's own filter, whichever step it lands on) and across two
    atoms (a filter on the joined batch)."""
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
        comparisons.append(Comparison(rng.choice(OPERATORS), left, right))
    return comparisons


def random_query(rng: random.Random) -> ConjunctiveQuery:
    """A random CQ: 2–4 atoms, repeated relations/variables, constants,
    and 0–2 comparison predicates (:func:`random_comparisons`)."""
    body = []
    for _ in range(rng.randint(2, 4)):
        relation = rng.choice(sorted(ARITIES))
        terms = []
        for _ in range(ARITIES[relation]):
            if rng.random() < 0.75:
                terms.append(Variable(rng.choice(VARIABLE_POOL)))
            else:
                terms.append(rng.randrange(DOMAIN))
        body.append(Atom(relation, tuple(terms)))
    body_vars = sorted({name for atom in body for name in atom.variables()})
    if not body_vars:
        return ConjunctiveQuery(Atom("q", (1,)), tuple(body))
    head_vars = rng.sample(body_vars, rng.randint(1, min(3, len(body_vars))))
    return ConjunctiveQuery(
        Atom("q", tuple(Variable(name) for name in head_vars)),
        tuple(body),
        tuple(random_comparisons(rng, body)),
    )


def random_delta(rng: random.Random, db: Database, relation: str):
    """Delta rows mixing already-stored rows, fresh constants and fresh
    null-carrying rows — the shape ``T'`` actually has mid-update."""
    stored = db.relation(relation).rows()
    delta = [rng.choice(stored) for _ in range(min(3, len(stored)))]
    arity = len(stored[0])
    for _ in range(3):
        delta.append(tuple(rng.randrange(DOMAIN) for _ in range(arity)))
    row = [rng.randrange(DOMAIN) for _ in range(arity)]
    row[rng.randrange(arity)] = MarkedNull(rng.choice(NULL_LABELS))
    delta.append(tuple(row))
    return delta


def canonical(rows):
    return sorted(set(rows), key=row_sort_key)


def multiset(rows):
    return sorted(rows, key=row_sort_key)


class TestDifferentialFull:
    @pytest.mark.parametrize("seed", range(FULL_SEEDS))
    def test_four_way_equality(self, seed):
        db, store = build_instance(seed)
        columnar = MemoryStore(parse_schema(SCHEMA_TEXT), db)
        rng = random.Random(5000 + seed)
        cache = PlanCache()
        try:
            for _ in range(QUERIES_PER_SEED):
                query = random_query(rng)
                oracle = canonical(evaluate_query(db, query))
                planned = canonical(evaluate_query_planned(db, query, cache))
                batched = canonical(columnar.evaluate_query(query))
                pushed = canonical(store.evaluate_query(query))
                assert planned == oracle, f"seed={seed} query={query!r}"
                assert batched == oracle, f"seed={seed} query={query!r}"
                assert pushed == oracle, f"seed={seed} query={query!r}"
            # Each dispatch case must actually have run — a silently
            # falling-back store would make this file vacuous.
            assert store.plans_pushdown >= QUERIES_PER_SEED
            assert store.pushdown_fallbacks == 0
            assert columnar.plans_columnar >= QUERIES_PER_SEED
        finally:
            store.close()

    @pytest.mark.parametrize("seed", range(FULL_SEEDS))
    def test_executors_agree_as_multisets(self, seed):
        """Below set semantics: one compiled plan, run by the row loop,
        the columnar executor and SQLite, yields the same *multiset* of
        projected tuples as the interpreter's satisfying assignments —
        a filter applied twice, or on the wrong side of an expansion,
        changes multiplicities before it changes the answer set."""
        db, store = build_instance(seed)
        rng = random.Random(8000 + seed)
        try:
            for _ in range(QUERIES_PER_SEED):
                query = random_query(rng)
                plan = compile_plan(
                    query.body, query.comparisons, query.head.terms, view=db
                )
                oracle = multiset(
                    project_head_row(query.head, binding)
                    for binding in evaluate_body(db, query.body, query.comparisons)
                )
                sql_plan = compile_plan_sql(plan, store.schema.relation_names)
                assert multiset(plan.execute(db)) == oracle, f"{query!r}"
                assert multiset(plan.execute_columnar(db)) == oracle, f"{query!r}"
                assert multiset(store.execute_plan(sql_plan)) == oracle, f"{query!r}"
                # The two in-memory executors are exchangeable result
                # for result — same order, not merely the same multiset
                # — on full plans and on delta plans.
                assert plan.execute_columnar(db) == list(plan.execute(db))
                delta = random_delta(rng, db, query.body[0].relation)
                delta_plan = compile_plan(
                    query.body, query.comparisons, query.head.terms,
                    view=db, delta_atom=0,
                )
                assert delta_plan.execute_columnar(db, delta) == list(
                    delta_plan.execute(db, delta)
                ), f"{query!r}"
        finally:
            store.close()

    def test_harness_reaches_every_filter_placement(self):
        """The randomized bodies above are not vacuous: their plans put
        comparisons in all three places one can run."""
        placements = set()
        for seed in range(FULL_SEEDS):
            db, store = build_instance(seed)
            store.close()
            rng = random.Random(8000 + seed)
            for _ in range(QUERIES_PER_SEED):
                query = random_query(rng)
                plan = compile_plan(
                    query.body, query.comparisons, query.head.terms, view=db
                )
                for step in plan.steps:
                    for ci in step.comparison_indices:
                        if ci not in step.local_comparisons:
                            placements.add("cross-step filter")
                        elif step.probe_positions:
                            placements.add("bucket filter")
                        else:
                            placements.add("scan filter")
        assert placements == {"scan filter", "bucket filter", "cross-step filter"}


class TestDifferentialDelta:
    @pytest.mark.parametrize("seed", range(DELTA_SEEDS))
    def test_four_way_equality_semi_naive(self, seed):
        db, store = build_instance(seed)
        columnar = MemoryStore(parse_schema(SCHEMA_TEXT), db)
        rng = random.Random(6000 + seed)
        cache = PlanCache()
        try:
            for _ in range(DELTAS_PER_SEED):
                query = random_query(rng)
                changed = rng.choice([atom.relation for atom in query.body])
                delta = random_delta(rng, db, changed)
                oracle = canonical(
                    evaluate_query_delta(db, query, changed, delta)
                )
                planned = canonical(
                    evaluate_query_delta_planned(db, query, changed, delta, cache)
                )
                batched = canonical(
                    columnar.evaluate_query_delta(query, changed, delta)
                )
                pushed = canonical(
                    store.evaluate_query_delta(query, changed, delta)
                )
                assert planned == oracle, (
                    f"seed={seed} changed={changed} query={query!r}"
                )
                assert batched == oracle, (
                    f"seed={seed} changed={changed} query={query!r}"
                )
                assert pushed == oracle, (
                    f"seed={seed} changed={changed} query={query!r}"
                )
            assert store.plans_pushdown > 0
            assert store.pushdown_fallbacks == 0
            assert columnar.plans_columnar > 0
        finally:
            store.close()

    @pytest.mark.parametrize("seed", range(8))
    def test_repeated_occurrence_delta(self, seed):
        # The changed relation occurs three times: the pushdown must
        # union one delta plan per occurrence, exactly like the
        # in-memory executor and the interpreter.
        db, store = build_instance(seed)
        rng = random.Random(7000 + seed)
        query = ConjunctiveQuery(
            Atom.of("q", "x", "z"),
            (
                Atom.of("r", "x", "y"),
                Atom.of("r", "y", "z"),
                Atom.of("r", "z", "w"),
            ),
        )
        try:
            for _ in range(3):
                delta = random_delta(rng, db, "r")
                oracle = canonical(evaluate_query_delta(db, query, "r", delta))
                pushed = canonical(store.evaluate_query_delta(query, "r", delta))
                assert pushed == oracle, f"seed={seed}"
        finally:
            store.close()


class TestMappingsAndDispatch:
    def test_mapping_bindings_match_memory(self):
        db, store = build_instance(3)
        mapping = parse_mapping(
            "X:out(x, z, fresh) <- Y:r(x, y), Y:s(y, z), x != 5"
        ).mapping
        expected = evaluate_mapping_bindings_planned(db, mapping, PlanCache())
        actual = store.evaluate_mapping_bindings(mapping)
        assert expected and set(actual.values()) == set(expected.values())
        assert store.plans_pushdown > 0
        store.close()

    def test_empty_frontier_mapping_pushes_down(self):
        store = SqliteStore(parse_schema("r(a, b)"))
        store.insert_new("r", [(1, 2)])
        mapping = parse_mapping("X:flag('on') <- Y:r(x, y)").mapping
        assert store.evaluate_mapping_bindings(mapping) == {(): ()}
        assert store.plans_pushdown == 1
        store.close()

    def test_unknown_relation_falls_back_to_memory_executor(self):
        store = SqliteStore(parse_schema("r(a, b)"))
        store.insert_new("r", [(1, 2)])
        query = parse_query("q(x) <- r(x, y), ghost(y)")
        assert store.evaluate_query(query) == []
        assert store.pushdown_fallbacks == 1
        assert store.plans_pushdown == 0
        store.close()

    def test_pushdown_disabled_store_agrees(self):
        db, pushed_store = build_instance(11)
        plain = SqliteStore(parse_schema(SCHEMA_TEXT), pushdown=False)
        for relation in ("r", "s", "t"):
            plain.insert_new(relation, db.relation(relation).rows())
        rng = random.Random(8000)
        try:
            for _ in range(5):
                query = random_query(rng)
                assert canonical(plain.evaluate_query(query)) == canonical(
                    pushed_store.evaluate_query(query)
                )
            assert plain.plans_pushdown == 0
        finally:
            plain.close()
            pushed_store.close()

    def test_negative_zero_joins_like_python_equality(self):
        # -0.0 == 0.0 in Python; the encoder normalises the cells so
        # the pushed-down join agrees (regression for a review finding).
        store = SqliteStore(parse_schema("r(a: float)\ns(a: float)"))
        store.insert_new("r", [(-0.0,)])
        store.insert_new("s", [(0.0,)])
        query = parse_query("q(x) <- r(x), s(x)")
        assert store.evaluate_query(query) == [(0.0,)]
        assert store.plans_pushdown == 1
        store.close()

    def test_delta_with_no_rows_short_circuits(self):
        store = SqliteStore(parse_schema("r(a, b)"))
        store.insert_new("r", [(1, 2)])
        query = parse_query("q(x) <- r(x, y)")
        assert store.evaluate_query_delta(query, "r", []) == []
        store.close()

    def test_sql_translation_is_cached_per_plan(self):
        store = SqliteStore(parse_schema("r(a, b)\ns(a, b)"))
        store.insert_new("r", [(1, 2)])
        store.insert_new("s", [(2, 3)])
        query = parse_query("q(x, z) <- r(x, y), s(y, z)")
        store.evaluate_query(query, rule_key="k")
        plan = next(iter(store.plan_cache._plans.values()))
        first = compile_plan_sql(plan, store.schema.relation_names)
        again = compile_plan_sql(plan, store.schema.relation_names)
        assert first is again
        store.evaluate_query(query, rule_key="k")
        assert store.plans_pushdown == 2
        store.close()


class TestCrossTypeIdentity:
    """Memory ≡ SQLite on untyped columns holding cross-type values.

    Regression for the ROADMAP caveat: Python ``==`` unifies ``3`` with
    ``3.0`` and ``True`` with ``1``, but the injective type-tagged cell
    encoding does not.  The chosen semantics is the encoding's (cross-
    type numerics do NOT join); these tests pin the in-memory engine,
    the compiled-plan executor and the SQLite pushdown to it.
    """

    SCHEMA = "r(a, b)\ns(a, b)"
    FACTS = {
        "r": [(3, "int"), (3.0, "float"), (True, "bool"), (1, "one")],
        "s": [(3, "s-int"), (3.0, "s-float"), (1, "s-one"), (True, "s-bool")],
    }

    def build(self):
        db = Database(parse_schema(self.SCHEMA))
        db.load(self.FACTS)
        store = SqliteStore(parse_schema(self.SCHEMA))
        for relation, rows in self.FACTS.items():
            store.insert_new(relation, rows)
        return db, store

    @staticmethod
    def typed_canonical(rows):
        from repro.relational.values import row_key

        return sorted({row_key(row) for row in rows}, key=repr)

    def test_cross_type_rows_are_distinct_on_both_backends(self):
        db, store = self.build()
        try:
            assert len(db.relation("r")) == 4
            assert store.count("r") == 4
        finally:
            store.close()

    @pytest.mark.parametrize(
        "query_text",
        [
            "q(x, l, m) <- r(x, l), s(x, m)",   # join on the untyped column
            "q(l) <- r(x, l), x = 3",            # comparison selects ints only
            "q(l) <- r(x, l), x = 3.0",
            "q(l) <- r(x, l), x != 3",
            "q(x, l) <- r(x, l)",                # projection keeps all four
        ],
    )
    def test_memory_equals_pushdown(self, query_text):
        db, store = self.build()
        cache = PlanCache()
        try:
            query = parse_query(query_text)
            oracle = self.typed_canonical(evaluate_query(db, query))
            planned = self.typed_canonical(evaluate_query_planned(db, query, cache))
            pushed = self.typed_canonical(store.evaluate_query(query))
            assert planned == oracle
            assert pushed == oracle
            assert store.pushdown_fallbacks == 0
        finally:
            store.close()

    def test_join_pairs_types_strictly(self):
        db, store = self.build()
        try:
            query = parse_query("q(l, m) <- r(x, l), s(x, m)")
            expected = {
                ("int", "s-int"),
                ("float", "s-float"),
                ("bool", "s-bool"),
                ("one", "s-one"),
            }
            assert set(evaluate_query(db, query)) == expected
            assert set(store.evaluate_query(query)) == expected
        finally:
            store.close()

    def test_insert_new_treats_cross_type_rows_as_new(self):
        db, store = self.build()
        try:
            for backend_insert in (
                lambda rows: db.insert_new("r", rows),
                lambda rows: store.insert_new("r", rows),
            ):
                assert backend_insert([(3, "int")]) == []       # exact dup
                assert backend_insert([(3.0, "int")]) == [(3.0, "int")]
                assert backend_insert([(False, "zero")]) == [(False, "zero")]
                assert backend_insert([(0, "zero")]) == [(0, "zero")]
        finally:
            store.close()

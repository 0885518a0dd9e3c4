"""Property-based tests (hypothesis) on the relational substrate."""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.relational.comparisons import evaluate_comparison
from repro.relational.conjunctive import Atom, Comparison, Variable
from repro.relational.containment import rows_equal_up_to_nulls, tuple_subsumed
from repro.relational.database import Database
from repro.relational.evaluation import evaluate_query, evaluate_query_delta
from repro.relational.parser import parse_query, parse_schema
from repro.relational.schema import RelationSchema
from repro.relational.storage import Relation
from repro.relational.values import (
    MarkedNull,
    decode_row,
    encode_row,
    row_key,
    row_sort_key,
    same_value,
)

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

constants = st.one_of(
    st.integers(min_value=-50, max_value=50),
    st.text(alphabet="abcxyz", min_size=0, max_size=3),
    st.booleans(),
)

values = st.one_of(
    constants,
    st.builds(MarkedNull, st.text(alphabet="nm", min_size=1, max_size=3)),
)

pairs = st.tuples(values, values)
pair_lists = st.lists(pairs, max_size=30)


def make_relation(rows):
    relation = Relation(RelationSchema.of("r", ["a", "b"]))
    relation.insert_new(rows)
    return relation


# ---------------------------------------------------------------------------
# Storage invariants
# ---------------------------------------------------------------------------


def keyed(rows):
    """Row sets under the engine's typed identity (not Python ``==``,
    which unifies 0 with False and 1 with 1.0)."""
    return {row_key(row) for row in rows}


class TestStorageProperties:
    @given(pair_lists)
    def test_set_semantics(self, rows):
        relation = make_relation(rows)
        assert len(relation) == len(keyed(relation.rows()))
        assert keyed(relation.rows()) == keyed(rows)

    @given(pair_lists, pair_lists)
    def test_insert_new_returns_exact_delta(self, first, second):
        relation = make_relation(first)
        before = keyed(relation.rows())
        delta = relation.insert_new(second)
        after = keyed(relation.rows())
        assert keyed(delta) == after - before
        assert len(delta) == len(keyed(delta))

    @given(pair_lists, values)
    def test_lookup_agrees_with_scan(self, rows, probe):
        relation = make_relation(rows)
        via_index = sorted(relation.lookup({0: probe}), key=row_sort_key)
        via_scan = sorted(
            (row for row in relation.rows() if same_value(row[0], probe)),
            key=row_sort_key,
        )
        assert via_index == via_scan

    @given(pair_lists)
    def test_delete_then_absent(self, rows):
        relation = make_relation(rows)
        for row in list(relation.rows()):
            assert relation.delete(row)
            assert row not in relation
        assert len(relation) == 0


# ---------------------------------------------------------------------------
# Wire codec
# ---------------------------------------------------------------------------


class TestCodecProperties:
    @given(st.lists(values, min_size=1, max_size=6))
    def test_row_round_trip(self, row):
        assert decode_row(encode_row(tuple(row))) == tuple(row)


# ---------------------------------------------------------------------------
# Evaluation vs. brute force
# ---------------------------------------------------------------------------

small_ints = st.integers(min_value=0, max_value=6)
edges = st.lists(st.tuples(small_ints, small_ints), max_size=25)


class TestEvaluationProperties:
    @given(edges)
    @settings(max_examples=60)
    def test_join_matches_brute_force(self, edge_rows):
        schema = parse_schema("e(a: int, b: int)")
        db = Database(schema)
        db.load({"e": edge_rows})
        q = parse_query("p(x, z) <- e(x, y), e(y, z)")
        fast = set(evaluate_query(db, q))
        slow = {
            (x, z)
            for (x, y) in set(edge_rows)
            for (y2, z) in set(edge_rows)
            if y == y2
        }
        assert fast == slow

    @given(edges, edges)
    @settings(max_examples=60)
    def test_delta_covers_all_new_derivations(self, initial, extra):
        schema = parse_schema("e(a: int, b: int)")
        db = Database(schema)
        db.load({"e": initial})
        q = parse_query("p(x, z) <- e(x, y), e(y, z)")
        before = set(evaluate_query(db, q))
        delta = db.relation("e").insert_new(extra)
        incremental = set(evaluate_query_delta(db, q, "e", delta))
        after = set(evaluate_query(db, q))
        # sound: everything incremental is a real answer now
        assert incremental <= after
        # complete: everything new is found incrementally
        assert after - before <= incremental

    @given(edges, st.integers(min_value=0, max_value=6))
    @settings(max_examples=40)
    def test_selection_pushdown_consistent(self, edge_rows, bound):
        schema = parse_schema("e(a: int, b: int)")
        db = Database(schema)
        db.load({"e": edge_rows})
        q = parse_query(f"p(x, y) <- e(x, y), x >= {bound}")
        assert set(evaluate_query(db, q)) == {
            (x, y) for (x, y) in set(edge_rows) if x >= bound
        }


# ---------------------------------------------------------------------------
# Containment / subsumption
# ---------------------------------------------------------------------------


class TestHomomorphismProperties:
    @given(pair_lists)
    @settings(max_examples=50)
    def test_rows_iso_reflexive(self, rows):
        relation = make_relation(rows)
        assert rows_equal_up_to_nulls(relation.rows(), relation.rows())

    @given(pair_lists)
    @settings(max_examples=50)
    def test_rows_iso_invariant_under_renaming(self, rows):
        relation = make_relation(rows)
        mapping: dict[str, MarkedNull] = {}

        def rename(value):
            if isinstance(value, MarkedNull):
                return mapping.setdefault(
                    value.label, MarkedNull(f"renamed-{len(mapping)}")
                )
            return value

        renamed = [tuple(rename(v) for v in row) for row in relation.rows()]
        assert rows_equal_up_to_nulls(relation.rows(), renamed)

    @given(pair_lists, pairs)
    @settings(max_examples=50)
    def test_subsumed_implies_homomorphic_image_present(self, rows, candidate):
        relation = make_relation(rows)
        if tuple_subsumed(candidate, relation):
            constants = [
                (i, v)
                for i, v in enumerate(candidate)
                if not isinstance(v, MarkedNull)
            ]
            assert any(
                all(row[i] == v for i, v in constants)
                for row in relation.rows()
            )


# ---------------------------------------------------------------------------
# Comparison semantics
# ---------------------------------------------------------------------------


class TestComparisonProperties:
    @given(values, values)
    def test_certain_semantics_consistency(self, left, right):
        eq = evaluate_comparison(Comparison("=", left, right), {})
        ne = evaluate_comparison(Comparison("!=", left, right), {})
        # never both true (they can both be false with nulls)
        assert not (eq and ne)
        if not isinstance(left, MarkedNull) and not isinstance(right, MarkedNull):
            assert eq != ne  # total on constants

    @given(constants, constants)
    def test_order_antisymmetry_on_constants(self, left, right):
        lt = evaluate_comparison(Comparison("<", left, right), {})
        gt = evaluate_comparison(Comparison(">", left, right), {})
        assert not (lt and gt)

"""Null-aware row comparison: subsumption and null-isomorphism."""

from repro.relational.containment import rows_equal_up_to_nulls, tuple_subsumed
from repro.relational.schema import RelationSchema
from repro.relational.storage import Relation
from repro.relational.values import MarkedNull


class TestTupleSubsumption:
    def make_relation(self, rows):
        relation = Relation(RelationSchema.of("r", ["a", "b"]))
        relation.insert_new(rows)
        return relation

    def test_null_subsumed_by_constant_row(self):
        relation = self.make_relation([("anna", 24)])
        assert tuple_subsumed(("anna", MarkedNull("n")), relation)

    def test_constant_mismatch_not_subsumed(self):
        relation = self.make_relation([("anna", 24)])
        assert not tuple_subsumed(("bob", MarkedNull("n")), relation)

    def test_ground_tuple_subsumed_only_by_itself(self):
        relation = self.make_relation([("anna", 24)])
        assert tuple_subsumed(("anna", 24), relation)
        assert not tuple_subsumed(("anna", 25), relation)

    def test_repeated_null_must_map_consistently(self):
        null = MarkedNull("n")
        relation = self.make_relation([(1, 2)])
        assert not tuple_subsumed((null, null), relation)
        relation.insert((3, 3))
        assert tuple_subsumed((null, null), relation)

    def test_null_subsumed_by_null_row(self):
        stored = MarkedNull("stored")
        relation = self.make_relation([("anna", stored)])
        assert tuple_subsumed(("anna", MarkedNull("fresh")), relation)

    def test_all_null_tuple_subsumed_by_any_stored_row(self):
        relation = self.make_relation([("anna", 24)])
        assert tuple_subsumed((MarkedNull("a"), MarkedNull("b")), relation)

    def test_empty_relation_subsumes_nothing(self):
        relation = self.make_relation([])
        assert not tuple_subsumed((MarkedNull("a"), MarkedNull("b")), relation)
        assert not tuple_subsumed(("anna", 24), relation)


class TestRowsEqualUpToNulls:
    def test_identical_constants(self):
        assert rows_equal_up_to_nulls([(1, 2)], [(1, 2)])

    def test_null_renaming(self):
        a, b = MarkedNull("a"), MarkedNull("b")
        x, y = MarkedNull("x"), MarkedNull("y")
        assert rows_equal_up_to_nulls([(1, a), (2, b)], [(1, x), (2, y)])

    def test_shared_null_structure_matters(self):
        a = MarkedNull("a")
        x, y = MarkedNull("x"), MarkedNull("y")
        # left shares one null across rows, right uses two distinct ones
        assert not rows_equal_up_to_nulls([(1, a), (2, a)], [(1, x), (2, y)])
        assert rows_equal_up_to_nulls([(1, a), (2, a)], [(1, x), (2, x)])

    def test_cardinality_mismatch(self):
        assert not rows_equal_up_to_nulls([(1,)], [(1,), (2,)])

    def test_null_vs_constant(self):
        assert not rows_equal_up_to_nulls([(MarkedNull("n"),)], [(1,)])

    def test_bijection_required(self):
        a, b = MarkedNull("a"), MarkedNull("b")
        x = MarkedNull("x")
        # two distinct nulls cannot both map to the same target null
        assert not rows_equal_up_to_nulls(
            [(1, a), (1, b)], [(1, x), (1, x)]
        )

    def test_row_order_does_not_matter(self):
        a, x = MarkedNull("a"), MarkedNull("x")
        assert rows_equal_up_to_nulls([(1, a), (2, 3)], [(2, 3), (1, x)])

    def test_null_shared_within_a_row_matters(self):
        a = MarkedNull("a")
        x, y = MarkedNull("x"), MarkedNull("y")
        assert not rows_equal_up_to_nulls([(a, a)], [(x, y)])
        assert rows_equal_up_to_nulls([(a, a)], [(x, x)])

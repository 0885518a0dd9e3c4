"""The batch forms (``validate_rows``, ``row_keys``, ``sort_rows``, bulk
``insert_new``) agree with their row-at-a-time originals — on ordinary
batches, which take the column-wise short cut, and on everything that
must not."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ArityError, TypeMismatchError
from repro.relational.schema import RelationSchema
from repro.relational.storage import Relation
from repro.relational.values import (
    MarkedNull,
    row_key,
    row_keys,
    row_sort_key,
    sort_rows,
)


class Code(int):
    """A subclass of an admitted class: fits an int column, but only
    the row-at-a-time check knows that."""


values = st.one_of(
    st.integers(-3, 3),
    st.floats(-2, 2, allow_nan=False).map(lambda x: round(x, 1)),
    st.sampled_from(["a", "b", ""]),
    st.booleans(),
    st.sampled_from([MarkedNull("n1"), MarkedNull("n2")]),
)
plain_values = st.one_of(st.integers(-3, 3), st.sampled_from(["a", "b", ""]))


def batches(cells):
    return st.integers(1, 3).flatmap(
        lambda arity: st.lists(st.tuples(*[cells] * arity), max_size=8)
    )


class TestValidateRows:
    schema = RelationSchema.of("r", ["a: int", "b: str", "c"])

    def test_ordinary_batch_is_returned_as_tuples(self):
        rows = [(1, "x", 2.5), [2, "y", MarkedNull("n")], (MarkedNull("m"), "z", True)]
        assert self.schema.validate_rows(rows) == [tuple(row) for row in rows]
        assert all(type(row) is tuple for row in self.schema.validate_rows(rows))

    def test_empty_batch(self):
        assert self.schema.validate_rows([]) == []
        assert self.schema.validate_rows(iter(())) == []

    def test_subclass_is_judged_row_by_row(self):
        assert self.schema.validate_rows([(Code(7), "x", 1)]) == [(7, "x", 1)]

    @pytest.mark.parametrize(
        "bad, error",
        [
            ((1, "x"), ArityError),
            ((1, "x", 2, 3), ArityError),
            ((True, "x", 1), TypeMismatchError),  # bool is not an int here
            ((1.0, "x", 1), TypeMismatchError),
            ((1, 2, 1), TypeMismatchError),
            ((1, "x", None), TypeError),
            ((1, "x", [1]), TypeError),
        ],
    )
    def test_first_bad_row_raises_what_validate_row_raises(self, bad, error):
        with pytest.raises(error) as batch:
            self.schema.validate_rows([(1, "x", 1), bad, ("also bad",)])
        with pytest.raises(error) as single:
            self.schema.validate_row(bad)
        assert str(batch.value) == str(single.value)

    @given(batches(values))
    def test_agrees_with_validate_row(self, rows):
        for types in (["a: int", "b: str", "c"], ["a: float", "b", "c: bool"]):
            schema = RelationSchema.of("r", types[: len(rows[0])] if rows else types)
            try:
                expected = [schema.validate_row(row) for row in rows]
            except (TypeMismatchError, ArityError) as error:
                with pytest.raises(type(error)):
                    schema.validate_rows(rows)
            else:
                assert schema.validate_rows(rows) == expected


class TestRowKeys:
    @given(batches(values))
    def test_agrees_with_row_key(self, rows):
        assert row_keys(rows) == [row_key(row) for row in rows]

    @given(batches(plain_values))
    def test_plain_batch_is_its_own_keys(self, rows):
        assert row_keys(rows) is rows or not rows

    def test_ragged_batch_is_keyed_row_by_row(self):
        rows = [(1,), (1, 2.0), (1, True)]
        assert row_keys(rows) == [row_key(row) for row in rows]
        assert row_keys(rows)[1] != row_keys(rows)[2]

    def test_rows_that_are_not_plain_tuples(self):
        assert row_keys([[1, "a"], (2, "b")]) == [(1, "a"), (2, "b")]


class TestSortRows:
    @given(batches(values))
    def test_agrees_with_row_sort_key(self, rows):
        assert sort_rows(rows) == sorted(rows, key=row_sort_key)

    @given(batches(plain_values))
    def test_plain_batches(self, rows):
        assert sort_rows(iter(rows)) == sorted(rows, key=row_sort_key)

    def test_numbers_and_strings_take_pythons_own_order(self):
        rows = [(2, "b"), (1.5, "a"), (1, "c"), (1, "a")]
        assert sort_rows(rows) == [(1, "a"), (1, "c"), (1.5, "a"), (2, "b")]

    def test_bools_still_rank_before_numbers(self):
        assert sort_rows([(0,), (True,), (-1,), (False,)]) == [(False,), (True,), (-1,), (0,)]

    def test_ragged_rows(self):
        rows = [(2,), (1, "x"), (1,)]
        assert sort_rows(rows) == sorted(rows, key=row_sort_key)


class TestBulkInsert:
    @given(st.lists(st.lists(st.tuples(values, values), max_size=6), max_size=4))
    def test_bulk_insert_is_insert_row_by_row(self, batches_):
        schema = RelationSchema.of("r", ["a", "b"])
        bulk, single = Relation(schema), Relation(schema)
        bulk.lookup({0: 1})  # an index to keep up to date
        single.lookup({0: 1})
        for batch in batches_:
            fresh = bulk.insert_new(batch)
            assert fresh == [row for row in batch if single.insert(row)]
        assert bulk.rows() == single.rows()
        assert list(bulk.lookup({0: 1})) == list(single.lookup({0: 1}))

    def test_first_of_two_equal_rows_is_the_one_stored(self):
        relation = Relation(RelationSchema.of("r", ["a: float"]))
        assert relation.insert_new([(0.0,), (-0.0,), (0,)]) == [(0.0,), (0,)]
        assert str(relation.rows()[0][0]) == "0.0"

    def test_a_bad_row_leaves_the_relation_untouched(self):
        relation = Relation(RelationSchema.of("r", ["a: int"]))
        relation.insert_new([(1,)])
        version = relation._version
        with pytest.raises(TypeMismatchError):
            relation.insert_new([(2,), ("three",)])
        assert relation.rows() == [(1,)]
        assert relation._version == version

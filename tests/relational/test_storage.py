"""The tuple store: set semantics, deltas, indexes."""

import pytest

from repro.errors import SchemaError
from repro.relational.schema import RelationSchema
from repro.relational.storage import Relation
from repro.relational.values import MarkedNull


@pytest.fixture
def relation():
    return Relation(RelationSchema.of("r", ["a", "b"]))


class TestInsert:
    def test_insert_reports_newness(self, relation):
        assert relation.insert((1, 2)) is True
        assert relation.insert((1, 2)) is False
        assert len(relation) == 1

    def test_insert_new_returns_exact_delta(self, relation):
        relation.insert((1, 2))
        delta = relation.insert_new([(1, 2), (3, 4), (3, 4), (5, 6)])
        assert delta == [(3, 4), (5, 6)]
        assert len(relation) == 3

    def test_insertion_order_preserved(self, relation):
        relation.insert_new([(3, 1), (1, 1), (2, 1)])
        assert relation.rows() == [(3, 1), (1, 1), (2, 1)]

    def test_rows_with_nulls(self, relation):
        null = MarkedNull("n")
        relation.insert((1, null))
        assert relation.insert((1, null)) is False
        assert relation.insert((1, MarkedNull("m"))) is True

    def test_validation_applied(self, relation):
        with pytest.raises(Exception):
            relation.insert((1,))  # wrong arity


class TestDelete:
    def test_delete_present(self, relation):
        relation.insert((1, 2))
        assert relation.delete((1, 2)) is True
        assert len(relation) == 0

    def test_delete_absent(self, relation):
        assert relation.delete((9, 9)) is False

    def test_delete_maintains_index(self, relation):
        relation.insert_new([(1, 2), (1, 3)])
        list(relation.lookup({0: 1}))  # force index build
        relation.delete((1, 2))
        assert list(relation.lookup({0: 1})) == [(1, 3)]


class TestLookup:
    def test_unbound_lookup_scans(self, relation):
        relation.insert_new([(1, 2), (3, 4)])
        assert list(relation.lookup({})) == [(1, 2), (3, 4)]

    def test_single_column_probe(self, relation):
        relation.insert_new([(1, 2), (1, 3), (2, 2)])
        assert sorted(relation.lookup({0: 1})) == [(1, 2), (1, 3)]

    def test_multi_column_probe(self, relation):
        relation.insert_new([(1, 2), (1, 3), (2, 2)])
        assert list(relation.lookup({0: 1, 1: 3})) == [(1, 3)]

    def test_probe_missing_value(self, relation):
        relation.insert((1, 2))
        assert list(relation.lookup({0: 99})) == []

    def test_index_updated_by_later_inserts(self, relation):
        relation.insert((1, 2))
        list(relation.lookup({0: 1}))  # index exists now
        relation.insert((1, 5))
        assert sorted(relation.lookup({0: 1})) == [(1, 2), (1, 5)]

    def test_lookup_out_of_range_column(self, relation):
        with pytest.raises(SchemaError):
            list(relation.lookup({7: 1}))

    def test_value_identity_is_type_strict(self, relation):
        # One identity relation everywhere, and it is the type-strict
        # one of the injective cell encoding: True, 1 and 1.0 are three
        # distinct values, so such rows do NOT unify at storage level.
        relation.insert((1, "x"))
        assert relation.insert((True, "x")) is True
        assert relation.insert((1.0, "x")) is True
        assert len(relation) == 3
        assert (True, "x") in relation
        assert (1, "x") in relation
        assert (2, "x") not in relation
        # Index probes distinguish the three as well.
        assert list(relation.lookup({0: 1})) == [(1, "x")]
        assert list(relation.lookup({0: True})) == [(True, "x")]
        assert list(relation.lookup({0: 1.0})) == [(1.0, "x")]
        # ... while -0.0 and 0.0 remain one float value.
        relation.insert((0.0, "z"))
        assert relation.insert((-0.0, "z")) is False


class TestEstimates:
    def test_estimate_shrinks_with_bound_columns(self, relation):
        relation.insert_new([(i % 3, i) for i in range(30)])
        full = relation.estimated_matches([])
        bound = relation.estimated_matches([0])
        assert full == 30
        assert bound == pytest.approx(10)

    def test_count(self, relation):
        relation.insert_new([(1, 2), (1, 3), (2, 2)])
        assert relation.count() == 3
        assert relation.count({0: 1}) == 2


class TestProbe:
    """The planner's fast path: fixed-position index probes."""

    def test_probe_no_positions_scans(self, relation):
        relation.insert_new([(1, 2), (3, 4)])
        assert list(relation.probe((), ())) == [(1, 2), (3, 4)]

    def test_probe_single_position(self, relation):
        relation.insert_new([(1, 2), (1, 3), (2, 2)])
        assert list(relation.probe((0,), (1,))) == [(1, 2), (1, 3)]
        assert list(relation.probe((0,), (9,))) == []

    def test_probe_small_relation_falls_back_to_lookup(self, relation):
        relation.insert_new([(1, 2), (1, 3), (2, 2)])
        assert list(relation.probe((0, 1), (1, 3))) == [(1, 3)]
        assert relation._multi_indexes == {}  # too small for a composite

    def test_probe_large_relation_builds_composite_index(self, relation):
        relation.insert_new([(i % 5, i % 7) for i in range(100)])
        expected = sorted(relation.lookup({0: 2, 1: 3}))
        assert sorted(relation.probe((0, 1), (2, 3))) == expected
        assert (0, 1) in relation._multi_indexes

    def test_composite_index_maintained_on_insert_and_delete(self, relation):
        relation.insert_new([(i % 5, i % 7) for i in range(100)])
        list(relation.probe((0, 1), (2, 3)))  # composite exists now
        relation.insert((2, 3))
        assert (2, 3) in set(relation.probe((0, 1), (2, 3)))
        before = len(list(relation.probe((0, 1), (2, 3))))
        relation.delete((2, 3))
        assert len(list(relation.probe((0, 1), (2, 3)))) == before - 1

    def test_probe_agrees_with_lookup(self, relation):
        relation.insert_new([(i % 4, i % 6) for i in range(80)])
        for key in [(0, 0), (1, 3), (3, 5), (9, 9)]:
            assert list(relation.probe((0, 1), key)) == list(
                relation.lookup({0: key[0], 1: key[1]})
            )

    def test_probe_out_of_range_column(self, relation):
        relation.insert_new([(i, i) for i in range(50)])
        with pytest.raises(SchemaError):
            list(relation.probe((0, 7), (1, 1)))


class TestEstimatesAreReadOnly:
    """Regression: cost probes must never materialise indexes."""

    def test_estimated_matches_builds_no_index(self, relation):
        relation.insert_new([(i % 3, i) for i in range(30)])
        relation.estimated_matches([0, 1])
        assert relation._indexes == {}
        assert relation._multi_indexes == {}

    def test_estimate_uses_existing_index_when_built(self, relation):
        relation.insert_new([(i % 3, i) for i in range(30)])
        list(relation.lookup({0: 0}))  # builds the column-0 index
        assert relation.ndv_estimate(0) == 3

    def test_sampled_ndv_exact_on_small_relations(self, relation):
        relation.insert_new([(i % 3, i) for i in range(30)])
        assert relation.ndv_estimate(0) == 3
        assert relation.ndv_estimate(1) == 30

    def test_sampled_ndv_cache_invalidated_by_mutation(self, relation):
        relation.insert_new([(0, i) for i in range(10)])
        assert relation.ndv_estimate(0) == 1
        relation.insert_new([(i, 100 + i) for i in range(1, 5)])
        assert relation.ndv_estimate(0) == 5

    def test_clustered_load_does_not_fool_the_sample(self, relation):
        from repro.relational.storage import NDV_SAMPLE_LIMIT

        # Rows grouped by column 0 (all of value 0 first, then 1, ...):
        # a prefix sample would see a single value and report NDV=1; the
        # strided sample must see (roughly) all ten groups.
        total = NDV_SAMPLE_LIMIT * 10
        rows = [(group, i) for group in range(10) for i in range(total // 10)]
        relation.insert_new(rows)
        assert relation.ndv_estimate(0) >= 8

    def test_key_like_column_estimated_at_full_count(self, relation):
        from repro.relational.storage import NDV_SAMPLE_LIMIT

        total = NDV_SAMPLE_LIMIT * 4
        relation.insert_new([(i, i % 2) for i in range(total)])
        assert relation.ndv_estimate(0) == total
        assert relation.ndv_estimate(1) == 2


class TestSelections:
    """Comparison kernels over a relation: the cached column-wise
    selection and its sampled selectivity."""

    @staticmethod
    def kernel(op, constant, position=1):
        from repro.relational.comparisons import compile_comparison
        from repro.relational.conjunctive import Comparison, Variable

        return compile_comparison(
            Comparison(op, Variable("x"), constant), {"x": position}
        )

    def test_select_rows_keeps_insertion_order_and_semantics(self, relation):
        null = MarkedNull("n")
        relation.insert_new([(1, 5), (2, "5"), (3, 7.5), (4, null), (5, True), (6, 9)])
        assert relation.select_rows(self.kernel(">=", 7)) == [(3, 7.5), (6, 9)]
        assert relation.select_rows(self.kernel("=", null)) == [(4, null)]
        assert relation.select_rows(self.kernel("!=", 5)) == [
            (2, "5"), (3, 7.5), (5, True), (6, 9)
        ]  # fmt: skip

    def test_select_rows_cached_until_mutation(self, relation):
        relation.insert_new([(i, i) for i in range(10)])
        first = relation.select_rows(self.kernel(">=", 8))
        assert relation.select_rows(self.kernel(">=", 8)) is first
        relation.insert((10, 10))
        assert relation.select_rows(self.kernel(">=", 8)) == [(8, 8), (9, 9), (10, 10)]
        relation.delete((9, 9))
        assert relation.select_rows(self.kernel(">=", 8)) == [(8, 8), (10, 10)]

    def test_selectivity_estimate_is_read_only(self, relation):
        relation.insert_new([(i % 3, i) for i in range(30)])
        version = relation._version
        assert relation.selectivity_estimate(self.kernel("<", 3)) == pytest.approx(0.1)
        assert relation._version == version
        assert relation._indexes == {}
        assert relation._multi_indexes == {}

    def test_selectivity_estimate_bounds(self, relation):
        assert relation.selectivity_estimate(self.kernel("<", 3)) == 1.0  # empty
        relation.insert_new([(i % 3, i) for i in range(30)])
        # The whole sample passes: exactly 1.0 (join order untouched);
        # nothing passes: one row's worth, never zero.
        assert relation.selectivity_estimate(self.kernel(">=", 0)) == 1.0
        assert relation.selectivity_estimate(self.kernel("<", 0)) == pytest.approx(1 / 30)

    def test_selectivity_estimate_samples_large_relations(self, relation):
        import random

        from repro.relational.storage import NDV_SAMPLE_LIMIT

        total = NDV_SAMPLE_LIMIT * 20
        values = list(range(total))
        random.Random(3).shuffle(values)
        relation.insert_new([(i, v) for i, v in enumerate(values)])
        estimate = relation.selectivity_estimate(self.kernel("<", total // 4))
        assert estimate == pytest.approx(0.25, abs=0.1)
        relation.insert((total, -1))
        assert relation.selectivity_estimate(self.kernel("<", 0)) <= 2 / NDV_SAMPLE_LIMIT

    def test_column_cache_is_bounded(self, relation):
        from repro.relational.storage import COLUMN_CACHE_LIMIT

        relation.insert_new([(i, i) for i in range(20)])
        for cut in range(3 * COLUMN_CACHE_LIMIT):
            relation.select_rows(self.kernel(">=", cut))
        assert len(relation._column_cache) <= COLUMN_CACHE_LIMIT


class TestInsertNewBatches:
    def test_large_batch_with_duplicates(self, relation):
        # One running set alongside the ordered list: the whole batch is
        # O(n), and within-batch duplicates are reported exactly once.
        rows = [(i % 500, i % 250) for i in range(5_000)]
        delta = relation.insert_new(rows)
        assert len(delta) == len(set(rows))
        assert delta == list(dict.fromkeys(rows))

    def test_batch_maintains_existing_indexes(self, relation):
        relation.insert((1, 1))
        list(relation.lookup({0: 1}))
        relation.insert_new([(1, 2), (2, 2), (1, 3)])
        assert sorted(relation.lookup({0: 1})) == [(1, 1), (1, 2), (1, 3)]


class TestCopyAndClear:
    def test_copy_is_independent(self, relation):
        relation.insert((1, 2))
        clone = relation.copy()
        clone.insert((3, 4))
        assert len(relation) == 1
        assert len(clone) == 2

    def test_clear(self, relation):
        relation.insert((1, 2))
        relation.clear()
        assert len(relation) == 0
        assert list(relation.lookup({0: 1})) == []

    def test_sorted_rows_canonical(self, relation):
        relation.insert_new([(3, 1), (1, 1), (2, MarkedNull("z"))])
        ordered = relation.sorted_rows()
        assert ordered[0] == (1, 1)
        assert ordered[-1] == (3, 1)


class TestCompositeIndexBudget:
    """LRU eviction: composite indexes have a per-relation memory budget."""

    def _wide_relation(self, columns=6, rows=100):
        relation = Relation(
            RelationSchema.of("wide", [f"c{i}" for i in range(columns)])
        )
        # Last column carries r, so all rows are distinct and the
        # relation is large enough for composite indexes to pay off.
        relation.insert_new(
            [
                tuple((r * (i + 1)) % 7 for i in range(columns - 1)) + (r,)
                for r in range(rows)
            ]
        )
        return relation

    def test_budget_bounds_index_count(self):
        relation = self._wide_relation()
        relation.composite_index_budget = 3
        for i in range(5):
            list(relation.probe((i, i + 1), (1, 1)))
        assert len(relation._multi_indexes) == 3

    def test_eviction_is_least_recently_probed(self):
        relation = self._wide_relation()
        relation.composite_index_budget = 2
        list(relation.probe((0, 1), (1, 1)))
        list(relation.probe((1, 2), (1, 1)))
        list(relation.probe((0, 1), (1, 1)))  # refresh (0, 1)
        list(relation.probe((2, 3), (1, 1)))  # evicts (1, 2), not (0, 1)
        assert set(relation._multi_indexes) == {(0, 1), (2, 3)}

    def test_eviction_preserves_probe_correctness(self):
        relation = self._wide_relation()
        relation.composite_index_budget = 1
        position_sets = [(0, 1), (2, 3), (4, 5), (1, 3)]
        expected = {
            positions: sorted(relation.lookup({positions[0]: 2, positions[1]: 4}))
            for positions in position_sets
        }
        # Cycle through the sets twice: every probe after the first
        # round hits a previously evicted index and must rebuild it.
        for _ in range(2):
            for positions in position_sets:
                assert sorted(relation.probe(positions, (2, 4))) == expected[
                    positions
                ], positions
        assert len(relation._multi_indexes) == 1

    def test_rebuilt_index_sees_mutations_during_eviction(self):
        relation = self._wide_relation()
        relation.composite_index_budget = 1
        list(relation.probe((0, 1), (0, 0)))
        list(relation.probe((2, 3), (0, 0)))  # evicts (0, 1)
        row = (0, 0, 9, 9, 9, 9)
        relation.insert(row)  # while (0, 1) is evicted
        assert row in set(relation.probe((0, 1), (0, 0)))

    def test_zero_budget_retains_nothing_but_probes_correctly(self):
        relation = self._wide_relation()
        relation.composite_index_budget = 0
        expected = sorted(relation.lookup({0: 2, 1: 4}))
        assert sorted(relation.probe((0, 1), (2, 4))) == expected
        assert relation._multi_indexes == {}
        relation.insert((2, 4, 0, 0, 0, 999))
        assert (2, 4, 0, 0, 0, 999) in set(relation.probe((0, 1), (2, 4)))

    def test_lowering_budget_to_zero_drops_cached_indexes(self):
        relation = self._wide_relation()
        list(relation.probe((0, 1), (1, 1)))
        list(relation.probe((2, 3), (1, 1)))
        assert len(relation._multi_indexes) == 2
        relation.composite_index_budget = 0
        list(relation.probe((4, 5), (1, 1)))  # next probe enforces it
        assert relation._multi_indexes == {}


class TestKeyEstimates:
    """A fully bound declared key estimates exactly one row."""

    def _keyed(self, rows):
        relation = Relation(
            RelationSchema.of("person", ["id", "grp", "name"], key=["id", "grp"])
        )
        relation.insert_new(rows)
        return relation

    def test_fully_bound_key_estimates_one(self):
        relation = self._keyed([(i, i % 4, f"p{i}") for i in range(300)])
        assert relation.estimated_matches([0, 1]) == 1.0
        assert relation.estimated_matches([0, 1, 2]) == 1.0

    def test_partially_bound_key_uses_ndv(self):
        relation = self._keyed([(i, i % 4, f"p{i}") for i in range(300)])
        assert relation.estimated_matches([1]) == pytest.approx(75, rel=0.5)

    def test_empty_keyed_relation_estimates_zero(self):
        relation = self._keyed([])
        assert relation.estimated_matches([0, 1]) == 0.0

    def test_key_estimate_exact_even_when_sampling_would_mislead(self):
        # Declared key, locally inconsistent data (coDB tolerates it):
        # column NDVs suggest ~30 matches, the key contract says <= 1
        # per probe; the declared key wins.
        relation = self._keyed([(i % 10, i % 3, f"p{i}") for i in range(300)])
        assert relation.estimated_matches([0, 1]) == 1.0


class TestColumnView:
    """The column-major view the batch executor scans."""

    def test_columns_aligned_with_row_list(self, relation):
        relation.insert((1, "x"))
        relation.insert((2, "y"))
        relation.insert((3, MarkedNull("N1@BZ")))
        rows = relation.row_list()
        assert rows == relation.rows()
        assert relation.column_values(0) == [row[0] for row in rows]
        assert relation.column_values(1) == [row[1] for row in rows]

    def test_views_cached_until_mutation(self, relation):
        relation.insert((1, "x"))
        assert relation.row_list() is relation.row_list()
        assert relation.column_values(0) is relation.column_values(0)
        assert relation.column_keys(1) is relation.column_keys(1)
        before = relation.row_list()
        relation.insert((2, "y"))
        assert relation.row_list() is not before
        assert relation.row_list() == before + [(2, "y")]

    def test_delete_and_clear_invalidate(self, relation):
        relation.insert((1, "x"))
        relation.insert((2, "y"))
        stale_values = relation.column_values(0)
        relation.delete((1, "x"))
        assert relation.column_values(0) == [2]
        assert stale_values == [1, 2]  # old snapshot untouched
        relation.clear()
        assert relation.column_values(0) == []
        assert relation.row_list() == []

    def test_column_keys_use_value_key_identity(self, relation):
        from repro.relational.values import value_key

        null = MarkedNull("N1@TN")
        relation.insert((1, 2))
        relation.insert((True, 2.0))
        relation.insert((null, "s"))
        assert relation.column_keys(0) == [
            value_key(1),
            value_key(True),
            value_key(null),
        ]
        # type-strict: the bool keys apart from the int
        keys = relation.column_keys(0)
        assert keys[0] != keys[1]

    def test_key_index_probes_by_typed_key(self, relation):
        from repro.relational.values import value_key

        relation.insert((1, "int"))
        relation.insert((True, "bool"))
        index = relation.key_index(0)
        assert [row for row in index[value_key(1)].values()] == [(1, "int")]
        assert [row for row in index[value_key(True)].values()] == [
            (True, "bool")
        ]
        multi = relation.key_multi_index((0, 1))
        assert list(multi[(value_key(1), "int")].values()) == [(1, "int")]

    def test_noop_mutations_keep_cache(self, relation):
        relation.insert((1, "x"))
        cached = relation.column_keys(0)
        assert relation.insert((1, "x")) is False  # duplicate
        assert relation.delete((9, "z")) is False  # absent
        assert relation.column_keys(0) is cached

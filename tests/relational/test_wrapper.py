"""The storage wrappers: memory, sqlite and mediator equivalence."""

import pytest

from repro.errors import UnknownRelationError
from repro.relational.parser import parse_mapping, parse_query, parse_schema
from repro.relational.values import MarkedNull
from repro.relational.wrapper import (
    MediatorStore,
    MemoryStore,
    SqliteStore,
    decode_sqlite_value,
    encode_sqlite_value,
)

SCHEMA_TEXT = "person(name: str, age: int)\nlikes(a: str, b: str)"


def make_stores():
    return [
        MemoryStore(parse_schema(SCHEMA_TEXT)),
        SqliteStore(parse_schema(SCHEMA_TEXT)),
        MediatorStore(parse_schema(SCHEMA_TEXT)),
    ]


@pytest.fixture(params=["memory", "sqlite", "mediator"])
def store(request):
    schema = parse_schema(SCHEMA_TEXT)
    if request.param == "memory":
        yield MemoryStore(schema)
    elif request.param == "sqlite":
        s = SqliteStore(schema)
        yield s
        s.close()
    else:
        yield MediatorStore(schema)


class TestStoreContract:
    def test_insert_new_dedups(self, store):
        first = store.insert_new("person", [("anna", 24), ("anna", 24)])
        assert first == [("anna", 24)]
        second = store.insert_new("person", [("anna", 24), ("bob", 30)])
        assert second == [("bob", 30)]
        assert store.count("person") == 2

    def test_rows_round_trip_types(self, store):
        store.insert_new("person", [("anna", 24)])
        store.insert_new("likes", [("anna", "bob")])
        assert store.rows("person") == [("anna", 24)]
        assert store.rows("likes") == [("anna", "bob")]

    def test_marked_nulls_round_trip(self, store):
        null = MarkedNull("N3@X")
        store.insert_new("person", [("anna", null)])
        assert store.rows("person") == [("anna", null)]
        # same null deduped, fresh null kept
        assert store.insert_new("person", [("anna", null)]) == []
        assert len(store.insert_new("person", [("anna", MarkedNull("other"))])) == 1

    def test_evaluate_query(self, store):
        store.insert_new("person", [("anna", 24), ("bob", 17)])
        rows = store.evaluate_query(parse_query("q(x) <- person(x, a), a >= 18"))
        assert rows == [("anna",)]

    def test_evaluate_join_query(self, store):
        store.insert_new("person", [("anna", 24), ("bob", 17)])
        store.insert_new("likes", [("anna", "bob"), ("bob", "anna")])
        q = parse_query("q(x, y) <- person(x, a), likes(x, y), a >= 18")
        assert store.evaluate_query(q) == [("anna", "bob")]

    def test_evaluate_query_delta(self, store):
        store.insert_new("person", [("anna", 24)])
        q = parse_query("q(x) <- person(x, a)")
        delta = store.insert_new("person", [("carl", 30)])
        assert store.evaluate_query_delta(q, "person", delta) == [("carl",)]

    def test_evaluate_mapping_bindings(self, store):
        store.insert_new("person", [("anna", 24), ("bob", 17)])
        mapping = parse_mapping("X:r(n) <- Y:person(n, a), a >= 18").mapping
        # Positional over the sorted frontier (here just ``n``), keyed.
        assert store.evaluate_mapping_bindings(mapping) == {("anna",): ("anna",)}

    def test_delete_rows(self, store):
        store.insert_new("person", [("anna", 24), ("bob", 30)])
        assert store.delete_rows("person", [("anna", 24), ("zoe", 1)]) == 1
        assert store.rows("person") == [("bob", 30)]

    def test_total_rows_and_snapshot(self, store):
        store.insert_new("person", [("b", 2), ("a", 1)])
        assert store.total_rows() == 2
        snap = store.snapshot()
        assert snap["person"] == [("a", 1), ("b", 2)]  # canonical order
        assert snap["likes"] == []

    def test_clear(self, store):
        store.insert_new("person", [("anna", 24)])
        store.clear()
        assert store.total_rows() == 0

    def test_unknown_relation(self, store):
        with pytest.raises(UnknownRelationError):
            store.rows("nope")


class TestMediatorLifecycle:
    def test_buffer_dropped_after_update(self):
        store = MediatorStore(parse_schema(SCHEMA_TEXT))
        store.on_update_started()
        store.insert_new("person", [("anna", 24)])
        assert store.total_rows() == 1
        store.on_update_finished()
        assert store.total_rows() == 0

    def test_retain_keeps_buffer(self):
        store = MediatorStore(parse_schema(SCHEMA_TEXT), retain=True)
        store.on_update_started()
        store.insert_new("person", [("anna", 24)])
        store.on_update_finished()
        assert store.total_rows() == 1

    def test_not_persistent(self):
        assert MediatorStore(parse_schema(SCHEMA_TEXT)).persistent is False
        assert MemoryStore(parse_schema(SCHEMA_TEXT)).persistent is True


class TestSqliteEncoding:
    @pytest.mark.parametrize(
        "value", [3, -7, 2.5, "hello", "", True, False, MarkedNull("N1@x")]
    )
    def test_round_trip(self, value):
        assert decode_sqlite_value(encode_sqlite_value(value)) == value

    def test_encoding_injective_across_types(self):
        values = [1, "1", True, 1.5, "1.5", MarkedNull("1")]
        encoded = [encode_sqlite_value(v) for v in values]
        assert len(set(encoded)) == len(values)

    def test_string_with_separator(self):
        tricky = "s:with:colons"
        assert decode_sqlite_value(encode_sqlite_value(tricky)) == tricky

    def test_file_backed_store(self, tmp_path):
        path = str(tmp_path / "node.sqlite")
        schema = parse_schema(SCHEMA_TEXT)
        store = SqliteStore(schema, path)
        store.insert_new("person", [("anna", 24)])
        store.close()
        reopened = SqliteStore(parse_schema(SCHEMA_TEXT), path)
        assert reopened.rows("person") == [("anna", 24)]
        reopened.close()


class TestCrossStoreEquivalence:
    def test_same_query_answers_everywhere(self):
        rows = [(f"p{i}", 15 + i) for i in range(20)]
        likes = [(f"p{i}", f"p{(i * 7) % 20}") for i in range(20)]
        q = parse_query("q(x, y) <- person(x, a), likes(x, y), a >= 20")
        answers = []
        for store in make_stores():
            store.insert_new("person", rows)
            store.insert_new("likes", likes)
            answers.append(sorted(store.evaluate_query(q)))
            store.close()
        assert answers[0] == answers[1] == answers[2]


class TestSqliteBatchInsert:
    """The batched ``INSERT OR IGNORE ... RETURNING`` path of
    :meth:`SqliteStore.insert_new` must be indistinguishable from the
    pre-3.35 row-at-a-time fallback."""

    def fresh_store(self):
        return SqliteStore(parse_schema(SCHEMA_TEXT))

    def test_batch_path_is_active_on_modern_sqlite(self):
        import sqlite3

        if sqlite3.sqlite_version_info >= (3, 35, 0):
            assert SqliteStore.BATCH_RETURNING

    @pytest.mark.parametrize("force_fallback", [False, True])
    def test_in_batch_and_stored_duplicates(self, force_fallback):
        store = self.fresh_store()
        if force_fallback:
            store.BATCH_RETURNING = False
        try:
            store.insert_new("person", [("old", 1)])
            fresh = store.insert_new(
                "person",
                [("old", 1), ("a", 2), ("a", 2), ("b", 3), ("old", 1)],
            )
            assert fresh == [("a", 2), ("b", 3)]
            assert store.count("person") == 3
        finally:
            store.close()

    def test_batch_equals_row_loop_differentially(self):
        import random

        rng = random.Random(99)
        rows = [
            (rng.choice("abcdef"), rng.randrange(6)) for _ in range(400)
        ]
        batched = self.fresh_store()
        looped = self.fresh_store()
        looped.BATCH_RETURNING = False
        try:
            for start in range(0, len(rows), 37):
                chunk = rows[start:start + 37]
                assert batched.insert_new("person", chunk) == looped.insert_new(
                    "person", chunk
                )
            assert batched.snapshot() == looped.snapshot()
            assert batched.count("person") == looped.count("person")
        finally:
            batched.close()
            looped.close()

    def test_chunking_over_parameter_limit(self):
        store = self.fresh_store()
        try:
            rows = [(f"p{i}", i) for i in range(1200)]  # > 900 params
            fresh = store.insert_new("person", rows)
            assert fresh == rows
            assert store.count("person") == 1200
            assert store.insert_new("person", rows) == []
        finally:
            store.close()

    def test_nulls_and_mixed_types_through_batch(self):
        store = SqliteStore(parse_schema("r(a, b)"))
        try:
            null = MarkedNull("N1@X")
            rows = [(1, "x"), (1.0, "x"), (True, "x"), (null, "x")]
            assert store.insert_new("r", rows) == rows
            assert store.insert_new("r", [(null, "x"), (1, "x")]) == []
        finally:
            store.close()

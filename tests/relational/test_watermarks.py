"""Store watermarks: "rows inserted after mark m", on every backend.

An incoming link records its body relations' marks at an activation
and evaluates only the tail the next time (``activation_rows`` in
``repro.core.links``); these tests pin the store half of that contract
and the evaluation over a tail, self-joins included.
"""

import pytest

from repro.core import links
from repro.core.links import IncomingLink
from repro.core.rules import CoordinationRule
from repro.relational.parser import parse_schema
from repro.relational.wrapper import MediatorStore, MemoryStore, SqliteStore

SCHEMA_TEXT = "edge(a: int, b: int)\nnode(a: int)"


@pytest.fixture(params=["memory", "sqlite", "mediator"])
def store(request):
    schema = parse_schema(SCHEMA_TEXT)
    if request.param == "sqlite":
        sqlite = SqliteStore(schema)
        yield sqlite
        sqlite.close()
    elif request.param == "memory":
        yield MemoryStore(schema)
    else:
        yield MediatorStore(schema, retain=True)


class TestStoreWatermarks:
    def test_empty_relation_mark_sees_every_later_insert(self, store):
        mark = store.watermark("node")
        store.insert_new("node", [(1,), (2,)])
        assert store.rows_since("node", mark) == [(1,), (2,)]

    def test_tail_is_what_was_inserted_after_the_mark(self, store):
        store.insert_new("node", [(1,), (2,)])
        mark = store.watermark("node")
        assert store.rows_since("node", mark) == []
        store.insert_new("node", [(2,), (3,)])  # (2,) is a duplicate
        store.insert_new("node", [(4,)])
        assert store.rows_since("node", mark) == [(3,), (4,)]
        # The old mark keeps working as later marks are taken.
        later = store.watermark("node")
        assert later > mark
        store.insert_new("node", [(5,)])
        assert store.rows_since("node", later) == [(5,)]
        assert store.rows_since("node", mark) == [(3,), (4,), (5,)]

    def test_marks_are_per_relation(self, store):
        mark = store.watermark("node")
        store.insert_new("edge", [(1, 2)])
        assert store.rows_since("node", mark) == []

    def test_delete_voids_outstanding_marks(self, store):
        store.insert_new("node", [(1,), (2,), (3,)])
        mark = store.watermark("node")
        other = store.watermark("edge")
        store.delete_rows("node", [(3,)])
        # (4,) would take the deleted row's position (and, in SQLite,
        # its rowid): a position-based tail would miss it.
        store.insert_new("node", [(4,)])
        assert store.rows_since("node", mark) is None
        assert store.rows_since("edge", other) == []
        fresh = store.watermark("node")
        assert fresh > mark
        store.insert_new("node", [(5,)])
        assert store.rows_since("node", fresh) == [(5,)]

    def test_deleting_an_absent_row_keeps_marks(self, store):
        store.insert_new("node", [(1,)])
        mark = store.watermark("node")
        assert store.delete_rows("node", [(9,)]) == 0
        assert store.rows_since("node", mark) == []

    def test_clear_voids_marks(self, store):
        store.insert_new("node", [(1,)])
        mark = store.watermark("node")
        store.clear()
        store.insert_new("node", [(1,)])
        assert store.rows_since("node", mark) is None


def activation_rows(store, link, *, incremental):
    """``links.activation_rows`` with the keyed batch flattened to the
    rows it carries (row keys are pinned in ``test_values``)."""
    rows, activated_at, skipped = links.activation_rows(
        store, link, incremental=incremental
    )
    return list(rows.values()), activated_at, skipped


def link_for(text: str) -> IncomingLink:
    return IncomingLink(CoordinationRule.from_text("r", text))


def settled(link: IncomingLink, activated_at) -> None:
    """What a clean end does with an activation's marks."""
    link.settle(set(), activated_at)


class TestActivationOverTheTail:
    def test_first_activation_is_full_and_later_ones_read_the_tail(self, store):
        link = link_for("A:got(a) <- B:node(a)")
        store.insert_new("node", [(1,), (2,)])
        rows, activated_at, skipped = activation_rows(store, link, incremental=True)
        assert sorted(rows) == [(1,), (2,)] and skipped is None
        settled(link, activated_at)
        store.insert_new("node", [(3,)])
        rows, activated_at, skipped = activation_rows(store, link, incremental=True)
        assert rows == [(3,)]
        assert skipped == 2  # single-atom body: the rows behind the mark
        settled(link, activated_at)
        rows, _, skipped = activation_rows(store, link, incremental=True)
        assert rows == [] and skipped == 3

    def test_not_incremental_ignores_the_marks(self, store):
        link = link_for("A:got(a) <- B:node(a)")
        store.insert_new("node", [(1,)])
        settled(link, activation_rows(store, link, incremental=True)[1])
        rows, _, skipped = activation_rows(store, link, incremental=False)
        assert rows == [(1,)] and skipped is None

    def test_voided_mark_falls_back_to_full_evaluation(self, store):
        link = link_for("A:got(a) <- B:node(a)")
        store.insert_new("node", [(1,), (2,)])
        settled(link, activation_rows(store, link, incremental=True)[1])
        store.delete_rows("node", [(2,)])
        store.insert_new("node", [(3,)])
        rows, _, skipped = activation_rows(store, link, incremental=True)
        assert sorted(rows) == [(1,), (3,)] and skipped is None

    def test_self_join_tail_finds_every_new_path(self, store):
        """Both occurrences of ``edge`` take the tail in turn: a new
        edge extends old paths on either side, and two new edges form
        a path with each other."""
        link = link_for("A:path(a, c) <- B:edge(a, b), B:edge(b, c)")
        store.insert_new("edge", [(1, 2), (2, 3)])
        rows, activated_at, _ = activation_rows(store, link, incremental=True)
        assert rows == [(1, 3)]
        settled(link, activated_at)
        store.insert_new("edge", [(3, 4), (0, 1), (4, 5)])
        rows, _, skipped = activation_rows(store, link, incremental=True)
        full, _, _ = activation_rows(store, link, incremental=False)
        assert sorted(full) == [(0, 2), (1, 3), (2, 4), (3, 5)]
        assert sorted(rows) == [(0, 2), (2, 4), (3, 5)]  # full minus the old path
        assert skipped == 0  # join body: the count behind the mark is not known

    def test_two_relation_body_reads_each_tail_against_the_whole_other(self, store):
        link = link_for("A:out(a, b) <- B:node(a), B:edge(a, b)")
        store.insert_new("node", [(1,)])
        store.insert_new("edge", [(1, 10), (2, 20)])
        rows, activated_at, _ = activation_rows(store, link, incremental=True)
        assert rows == [(1, 10)]
        settled(link, activated_at)
        store.insert_new("node", [(2,), (3,)])  # joins an old edge
        store.insert_new("edge", [(1, 11), (3, 30)])  # old node; new node
        rows, _, _ = activation_rows(store, link, incremental=True)
        assert sorted(rows) == [(1, 11), (2, 20), (3, 30)]

    def test_settle_keeps_the_later_mark_and_forget_resets(self, store):
        link = link_for("A:got(a) <- B:node(a)")
        store.insert_new("node", [(1,)])
        early = activation_rows(store, link, incremental=True)[1]
        store.insert_new("node", [(2,)])
        late = activation_rows(store, link, incremental=True)[1]
        settled(link, late)
        settled(link, early)  # an older computation settling afterwards
        assert activation_rows(store, link, incremental=True)[0] == []
        link.forget_delivered({("x",)})
        assert link.marks == {}
        # Marks taken before the memory shrank vouch for nothing now.
        settled(link, late)
        assert link.marks == {}
        assert sorted(activation_rows(store, link, incremental=True)[0]) == [(1,), (2,)]

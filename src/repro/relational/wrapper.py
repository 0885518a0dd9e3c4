"""The storage Wrapper: coDB's adapter between the node and its LDB.

From the paper's §2: "Wrapper manages connections to LDB and executes
input database manipulation operations.  This is a module which is
adjusted depending on the underlying database.  For instance, when LDB
does not support nested queries, then this is the responsibility of
Wrapper to provide this support. ... The LDB rectangle ... has dashed
border to mean that local database may be absent. ... In this
situation a given node acts as a mediator ... and all required
database operations (as join and project) are executed in Wrapper."

Three wrappers:

* :class:`MemoryStore` — the in-memory engine of this package is the
  LDB; everything runs natively.
* :class:`SqliteStore` — a :mod:`sqlite3` file (or ``:memory:``) is
  the LDB.  SQLite knows nothing of marked nulls and our comparison
  semantics, so the store keeps each value in an *encoded* TEXT column
  (type-tagged) and registers a comparison SQL function implementing
  the certain-answer semantics; with that compensation in place, whole
  compiled join plans are pushed down and run as single SQL joins.
* :class:`MediatorStore` — no LDB.  Data received during a global
  update is held in transient memory so the node can evaluate its
  incoming links (join/project in the Wrapper) and forward results;
  by default the buffer is dropped when the update completes.

All three expose the same narrow interface the node layer needs, and
all three plug into the compiled-plan CQ executor (which only requires
``relation_names`` / ``relation(name)`` with ``lookup`` and, for the
planner's cost model, ``len`` / ``ndv_estimate``, using the faster
``probe`` and the sampled ``selectivity_estimate`` when a backend
offers them).  Each wrapper owns a :class:`~repro.relational.planner.
PlanCache`, so every coordination rule's body — including the
compensation joins the Wrapper runs on behalf of SQLite — is compiled
once and re-executed from the cache until its relations' cardinalities
shift by an order of magnitude.

Executor dispatch rules
-----------------------

Every evaluation entry point runs a compiled :class:`~repro.relational.
planner.JoinPlan` from the wrapper's cache.  *Where* the plan executes
is the wrapper's choice, via :meth:`Wrapper._plan_executor`, between
three executor cases:

1. :class:`MemoryStore` and :class:`MediatorStore` run plans in the
   **columnar** batch-at-a-time executor
   (:meth:`~repro.relational.planner.JoinPlan.execute_columnar`) by
   default; ``executor="rows"`` at construction opts back into the
   row-at-a-time join loop over hash-index probes
   (:meth:`~repro.relational.planner.JoinPlan.execute`, the
   differential baseline — both enumerate identical answers in
   identical order).
2. :class:`SqliteStore` **pushes a plan down** — compiles it to one
   parameterized SQL join via :func:`~repro.relational.planner.
   compile_plan_sql` and executes it inside SQLite — when every
   stored body relation has a table in this store (one node's body
   always references one acquaintance's schema, so in practice every
   rule body a node evaluates qualifies).  A body naming a relation
   this store does not hold falls back to the in-memory row loop over
   per-atom SQL probes — the paper's original compensation path, kept
   as the correctness oracle.
3. Delta plans push down too: the delta occurrence reads a per-arity
   TEMP table the store refills per execution, every other occurrence
   reads its stored table.
4. ``pushdown=False`` at construction disables rule 2 entirely
   (differential tests use this to verify the fallback path).

Every dispatch decision is counted — one stat per case:
``plans_pushdown`` (SQL pushdown), ``plans_columnar`` (batch-at-a-time
in memory) and ``plans_row_loop`` (row-at-a-time in memory, including
every pushdown fallback, which ``pushdown_fallbacks`` counts on its
own) — and :meth:`Wrapper.dispatch_counts` exposes them uniformly; the
node layer folds them into ``NodeStatistics.lifetime_totals()``.

Either way the answers must be identical — the differential harness in
``tests/relational/test_pushdown.py`` holds all executors to the
interpreter's semantics.

Value identity is the same on every backend: the type-strict relation
of :func:`repro.relational.values.same_value`, which matches the
injective type-tagged cell encoding used here.  Cross-type pairs that
Python ``==`` unifies (``3 == 3.0``, ``True == 1``) are *distinct*
values everywhere — they neither join nor dedup against each other, in
memory or under pushdown (``tests/relational/test_pushdown.py::
TestCrossTypeIdentity`` pins this).  Within floats, ``-0.0`` is
normalised to ``0.0`` at encode time so the cells of Python-equal
zeros coincide; ``NaN`` (never equal to itself in Python, equal to its
own cell in SQL) is outside the supported value domain of joins on any
backend.
"""

from __future__ import annotations

import sqlite3
from collections.abc import Iterable, Iterator, Sequence

from repro.errors import UnknownRelationError, WrapperError
from repro.relational.comparisons import compare_values
from repro.relational.conjunctive import ConjunctiveQuery, GlavMapping
from repro.relational.database import Database
from repro.relational.planner import (
    SQL_COMPARE_FUNCTION,
    JoinPlan,
    PlanCache,
    SqlPlan,
    compile_plan_sql,
    delta_table_name,
    evaluate_mapping_bindings_planned,
    evaluate_query_delta_planned,
    evaluate_query_planned,
)
from repro.relational.schema import DatabaseSchema
from repro.relational.storage import Relation
from repro.relational.values import MarkedNull, Row, Value, sort_rows


class Wrapper:
    """Common interface of every storage wrapper.

    Subclasses provide ``_view()`` — an object with ``relation_names``
    and ``relation(name)`` usable by the CQ evaluator — plus the
    mutation primitives.  The shared methods below are the operations
    the node layer (DBM) performs.
    """

    #: Whether data survives past the end of a global update.
    persistent = True

    #: Executor family this store runs compiled plans on; keys the
    #: network-level :class:`~repro.relational.planner.PlanRegistry`
    #: so plans are only shared between same-backend stores.
    plan_backend = "memory"

    def __init__(self, schema: DatabaseSchema) -> None:
        self.schema = schema
        #: Compiled join plans for this store's rule/query bodies, keyed
        #: on (rule key, delta relation, occurrence) and invalidated by
        #: cardinality fingerprint — see :mod:`repro.relational.planner`.
        self.plan_cache = PlanCache()
        #: Executor dispatch counters, one per case (see "Executor
        #: dispatch rules" in the module docstring): plans pushed down
        #: into the backend as SQL, plans run batch-at-a-time in the
        #: columnar executor, plans run in the row-at-a-time join loop
        #: (pushdown fallbacks included).
        self.plans_pushdown = 0
        self.plans_columnar = 0
        self.plans_row_loop = 0

    # -- primitives subclasses implement --------------------------------

    def _view(self):
        raise NotImplementedError

    def _plan_executor(self):
        """Backend dispatch hook (see "Executor dispatch rules" above).

        Returns ``None`` (run plans in the in-memory row loop) or a
        callable ``(plan, delta_rows) -> rows | None`` that executes a
        whole compiled plan, returning ``None`` for plans it cannot
        take (per-plan fallback to the row loop).  Implementations
        count every dispatch decision in :attr:`plans_pushdown` /
        :attr:`plans_columnar` / :attr:`plans_row_loop`.
        """

        def row_loop(plan: JoinPlan, delta_rows: Sequence[Row] | None):
            self.plans_row_loop += 1
            return None

        return row_loop

    def dispatch_counts(self) -> dict[str, int]:
        """One counter per executor dispatch case, uniform across
        wrappers; the node layer surfaces these in
        ``NodeStatistics.lifetime_totals()``."""
        return {
            "plans_pushdown": self.plans_pushdown,
            "plans_columnar": self.plans_columnar,
            "plans_row_loop": self.plans_row_loop,
        }

    def insert_new(self, relation: str, rows: Iterable[Sequence[Value]]) -> list[Row]:
        """Deduplicating insert; return the rows that were actually new."""
        raise NotImplementedError

    def rows(self, relation: str) -> list[Row]:
        raise NotImplementedError

    def count(self, relation: str) -> int:
        raise NotImplementedError

    def delete_rows(self, relation: str, rows: Iterable[Sequence[Value]]) -> int:
        """Delete *rows* (exact matches); returns how many were present.

        No protocol path calls it: what a computation imports stays
        stored.  It is the local repair operation, e.g. removing the
        tuples that break a key constraint so a quarantined node (§1d)
        serves its links again.  It does not advance the node's
        answer-cache epochs: a caller whose cached answers must notice
        calls :meth:`~repro.core.node.CoDBNode.bump_epochs`.
        """
        raise NotImplementedError

    def clear(self) -> None:
        raise NotImplementedError

    def watermark(self, relation: str) -> tuple[int, int]:
        """High-water mark of *relation*: an opaque, totally ordered
        token naming "everything inserted so far".  An incoming link
        records the marks of its body relations when it is activated
        and reads only :meth:`rows_since` them the next time."""
        raise NotImplementedError

    def rows_since(
        self, relation: str, mark: tuple[int, int]
    ) -> list[Row] | None:
        """Rows inserted into *relation* after *mark* was taken, in
        insertion order; ``None`` when a delete in the relation since
        then voided the mark (read the whole relation instead)."""
        raise NotImplementedError

    def close(self) -> None:
        """Release backend resources (connections)."""

    # -- update life-cycle hooks (mediators care) ------------------------

    def on_update_started(self) -> None:
        """Called when the node joins a global update.

        Any number of updates may be active concurrently (the node
        layer runs one session per update id); implementations that
        react to these hooks must refcount, not toggle.
        """

    def on_update_finished(self) -> None:
        """Called when the node closes for a global update."""

    # -- shared operations ------------------------------------------------

    def evaluate_query(
        self, query: ConjunctiveQuery, *, rule_key: object | None = None
    ) -> list[Row]:
        """All distinct answers to *query* over the local data.

        Runs a compiled join plan from this store's :attr:`plan_cache`;
        *rule_key* (e.g. a coordination-rule id) keys the cache when
        the caller has a stable identity for the query, otherwise the
        query's own structure is the key.
        """
        return evaluate_query_planned(
            self._view(),
            query,
            self.plan_cache,
            rule_key=rule_key,
            executor=self._plan_executor(),
        )

    def evaluate_query_delta(
        self,
        query: ConjunctiveQuery,
        changed_relation: str,
        delta_rows: Sequence[Row],
        *,
        rule_key: object | None = None,
    ) -> list[Row]:
        return evaluate_query_delta_planned(
            self._view(),
            query,
            changed_relation,
            delta_rows,
            self.plan_cache,
            rule_key=rule_key,
            executor=self._plan_executor(),
        )

    def evaluate_mapping_bindings(
        self,
        mapping: GlavMapping,
        *,
        changed_relation: str | None = None,
        delta_rows: Sequence[Row] | None = None,
        rule_key: object | None = None,
    ) -> dict[tuple, Row]:
        """Frontier bindings of *mapping*'s body over the local data:
        ``{row key: tuple of frontier values, sorted by variable}``."""
        return evaluate_mapping_bindings_planned(
            self._view(),
            mapping,
            self.plan_cache,
            changed_relation=changed_relation,
            delta_rows=delta_rows,
            rule_key=rule_key,
            executor=self._plan_executor(),
        )

    def total_rows(self) -> int:
        return sum(self.count(name) for name in self.schema.relation_names)

    def snapshot(self) -> dict[str, list[Row]]:
        """``{relation: sorted rows}``, canonical across back ends."""
        return {
            name: sort_rows(self.rows(name))
            for name in self.schema.relation_names
        }

    def load(self, facts: dict[str, list[Sequence[Value]]]) -> int:
        loaded = 0
        for relation, rows in facts.items():
            loaded += len(self.insert_new(relation, rows))
        return loaded

    # -- local integrity (§1's inconsistency handling) --------------------

    def has_key_constraints(self) -> bool:
        return any(relation.key for relation in self.schema)

    def key_violations(self) -> list[tuple[str, Row, list[Row]]]:
        """Key-constraint violations in the local database.

        Returns ``(relation, key_value, conflicting_rows)`` triples —
        groups of two or more distinct rows agreeing on a declared key.
        coDB *tolerates* a locally inconsistent database (inserts are
        never rejected); the update engine consults this to keep the
        inconsistency from propagating.
        """
        violations: list[tuple[str, Row, list[Row]]] = []
        for relation in self.schema:
            positions = relation.key_positions()
            if not positions:
                continue
            groups: dict[Row, list[Row]] = {}
            for row in self.rows(relation.name):
                key_value = tuple(row[i] for i in positions)
                groups.setdefault(key_value, []).append(row)
            for key_value, rows in groups.items():
                if len(rows) > 1:
                    violations.append((relation.name, key_value, rows))
        return violations

    def is_consistent(self) -> bool:
        """Cheap check: trivially true when no relation declares a key."""
        if not self.has_key_constraints():
            return True
        return not self.key_violations()


class MemoryStore(Wrapper):
    """Wrapper over the package's own in-memory engine.

    ``executor`` picks the in-memory executor family: ``"columnar"``
    (the default batch-at-a-time path) or ``"rows"`` (the
    row-at-a-time join loop; the two enumerate identical answers in
    identical order, so this is a pure performance switch kept for
    benchmarks and differential tests).
    """

    def __init__(
        self,
        schema: DatabaseSchema,
        database: Database | None = None,
        *,
        executor: str = "columnar",
    ) -> None:
        super().__init__(schema)
        self.database = database if database is not None else Database(schema)
        if executor not in ("columnar", "rows"):
            raise WrapperError(
                f"unknown executor {executor!r} (want 'columnar' or 'rows')"
            )
        self.executor = executor

    def _view(self) -> Database:
        return self.database

    def _plan_executor(self):
        if self.executor == "rows":
            return super()._plan_executor()
        database = self.database

        def columnar(plan: JoinPlan, delta_rows: Sequence[Row] | None):
            self.plans_columnar += 1
            return plan.execute_columnar(database, delta_rows)

        return columnar

    def insert_new(self, relation: str, rows: Iterable[Sequence[Value]]) -> list[Row]:
        return self.database.insert_new(relation, rows)

    def rows(self, relation: str) -> list[Row]:
        return self.database.relation(relation).rows()

    def count(self, relation: str) -> int:
        return len(self.database.relation(relation))

    def delete_rows(self, relation: str, rows: Iterable[Sequence[Value]]) -> int:
        target = self.database.relation(relation)
        return sum(1 for row in rows if target.delete(row))

    def clear(self) -> None:
        self.database.clear()

    def watermark(self, relation: str) -> tuple[int, int]:
        return self.database.relation(relation).watermark()

    def rows_since(
        self, relation: str, mark: tuple[int, int]
    ) -> list[Row] | None:
        return self.database.relation(relation).rows_since(mark)


class MediatorStore(MemoryStore):
    """Wrapper for a node without an LDB (§2's dashed rectangle).

    The DBS is declared (it must be, "in order to allow a node to
    participate on the network") and a transient in-memory buffer
    holds pass-through data during an update so dependent links can be
    evaluated; the buffer is dropped when the update finishes unless
    ``retain`` is set.

    Concurrent sessions share the buffer: it is cleared when the
    *first* active update begins and when the *last* one finishes (a
    refcount, because clearing on any single session boundary would
    yank pass-through data from under the other live sessions).
    """

    persistent = False

    def __init__(self, schema: DatabaseSchema, *, retain: bool = False) -> None:
        super().__init__(schema)
        self.retain = retain
        self._active_updates = 0

    def on_update_started(self) -> None:
        self._active_updates += 1
        if not self.retain and self._active_updates == 1:
            self.database.clear()

    def on_update_finished(self) -> None:
        self._active_updates = max(0, self._active_updates - 1)
        if not self.retain and self._active_updates == 0:
            self.database.clear()


# ---------------------------------------------------------------------------
# SQLite-backed store
# ---------------------------------------------------------------------------

_TAG_INT = "i"
_TAG_FLOAT = "f"
_TAG_STR = "s"
_TAG_BOOL = "b"
_TAG_NULL = "n"


def encode_sqlite_value(value: Value) -> str:
    """Encode a value into a type-tagged TEXT cell.

    The encoding is injective across types, so SQLite equality (and
    ``INSERT OR IGNORE`` dedup) coincides with coDB value equality.
    """
    if isinstance(value, MarkedNull):
        return f"{_TAG_NULL}:{value.label}"
    if isinstance(value, bool):
        return f"{_TAG_BOOL}:{int(value)}"
    if isinstance(value, int):
        return f"{_TAG_INT}:{value}"
    if isinstance(value, float):
        # +0.0 collapses -0.0 into 0.0: Python treats them as equal, so
        # their cells must coincide for SQL equality to agree.
        return f"{_TAG_FLOAT}:{(value + 0.0)!r}"
    if isinstance(value, str):
        return f"{_TAG_STR}:{value}"
    raise WrapperError(f"cannot encode {value!r} for sqlite storage")


def decode_sqlite_value(cell: str) -> Value:
    # Hot path: one cell per output column per pushed-down answer row.
    # The tag is always one character followed by ":", so slicing beats
    # partition(); tags are ordered by decode frequency.
    tag = cell[:1]
    if tag == _TAG_INT:
        return int(cell[2:])
    if tag == _TAG_STR:
        return cell[2:]
    if tag == _TAG_NULL:
        return MarkedNull(cell[2:])
    if tag == _TAG_FLOAT:
        return float(cell[2:])
    if tag == _TAG_BOOL:
        return cell[2] == "1"
    raise WrapperError(f"cannot decode sqlite cell {cell!r}")


class _SqliteRelation:
    """Adapter giving one SQLite table the evaluator's relation protocol."""

    def __init__(self, store: "SqliteStore", name: str) -> None:
        self._store = store
        self.name = name
        self.schema = store.schema[name]

    def _columns(self) -> list[str]:
        return [f"c{i}" for i in range(self.schema.arity)]

    def __iter__(self) -> Iterator[Row]:
        cursor = self._store._connection.execute(
            f'SELECT * FROM "{self.name}" ORDER BY rowid'
        )
        for cells in cursor:
            yield tuple(decode_sqlite_value(cell) for cell in cells)

    def __len__(self) -> int:
        # Served from the store's maintained counter: the planner's
        # cache-validation fingerprint calls len() per body relation on
        # every evaluation, which must not cost a COUNT(*) scan.
        return self._store._row_counts[self.name]

    def __contains__(self, row: Sequence[Value]) -> bool:
        where = " AND ".join(f"c{i} = ?" for i in range(len(row)))
        cursor = self._store._connection.execute(
            f'SELECT 1 FROM "{self.name}" WHERE {where} LIMIT 1',
            [encode_sqlite_value(v) for v in row],
        )
        return cursor.fetchone() is not None

    def rows(self) -> list[Row]:
        return list(self)

    def lookup(self, bindings: dict[int, Value]) -> Iterator[Row]:
        if not bindings:
            yield from self
            return
        positions = sorted(bindings)
        where = " AND ".join(f"c{i} = ?" for i in positions)
        params = [encode_sqlite_value(bindings[i]) for i in positions]
        cursor = self._store._connection.execute(
            f'SELECT * FROM "{self.name}" WHERE {where} ORDER BY rowid', params
        )
        for cells in cursor:
            yield tuple(decode_sqlite_value(cell) for cell in cells)

    def ndv_estimate(self, position: int) -> int:
        """Distinct values in column *position* — exact, one
        ``COUNT(DISTINCT)`` (served by the column's index); the planner
        asks once per column per compile."""
        (distinct,) = self._store._connection.execute(
            f'SELECT COUNT(DISTINCT c{position}) FROM "{self.name}"'
        ).fetchone()
        return distinct

    def estimated_matches(self, bound_positions: Iterable[int]) -> float:
        # A fully bound declared key answers exactly (≤ 1 row) without
        # issuing any COUNT(DISTINCT) planning queries.
        bound = set(bound_positions)
        key_positions = self.schema.key_positions()
        if key_positions and set(key_positions) <= bound:
            return float(min(1, len(self)))
        estimate = float(len(self))
        for position in bound:
            distinct = self.ndv_estimate(position)
            if distinct:
                estimate /= distinct
        return estimate


class _SqliteView:
    """Database-protocol facade over a :class:`SqliteStore`."""

    def __init__(self, store: "SqliteStore") -> None:
        self._store = store

    @property
    def relation_names(self) -> tuple[str, ...]:
        return self._store.schema.relation_names

    def relation(self, name: str) -> _SqliteRelation:
        if name not in self._store.schema:
            raise UnknownRelationError(name, "sqlite store")
        return _SqliteRelation(self._store, name)


def _sql_compare(op: str, left_cell: str, right_cell: str) -> int:
    """The registered comparison function: decode cells, apply the
    certain-answer semantics of :func:`compare_values`."""
    return int(
        compare_values(
            op, decode_sqlite_value(left_cell), decode_sqlite_value(right_cell)
        )
    )


class SqliteStore(Wrapper):
    """Wrapper whose LDB is a :mod:`sqlite3` database.

    Parameters
    ----------
    schema:
        The node's schema; one table per relation is created (if
        missing) with type-tagged TEXT columns and a uniqueness
        constraint implementing set semantics.
    path:
        SQLite path, default ``":memory:"``.
    pushdown:
        Execute whole compiled join plans as single SQL joins inside
        SQLite (see the module docstring's dispatch rules).  ``False``
        keeps the historical per-atom-probe compensation path.
    """

    plan_backend = "sqlite"

    def __init__(
        self,
        schema: DatabaseSchema,
        path: str = ":memory:",
        *,
        pushdown: bool = True,
    ) -> None:
        super().__init__(schema)
        # check_same_thread=False: over the TCP transport a node's
        # handlers run on its delivery thread while the driver thread
        # built the store; the node-level lock serialises all access.
        self._connection = sqlite3.connect(path, check_same_thread=False)
        self._connection.create_function(
            SQL_COMPARE_FUNCTION, 3, _sql_compare, deterministic=True
        )
        self._create_tables()
        self.pushdown = pushdown
        #: Plans that could not be pushed down and fell back to the
        #: in-memory row loop (also counted in ``plans_row_loop``).
        self.pushdown_fallbacks = 0
        self._delta_tables: set[int] = set()
        # Row counts maintained alongside mutations (this store owns the
        # connection), so cardinality checks are O(1), not COUNT(*).
        self._row_counts: dict[str, int] = {}
        for relation in self.schema:
            (count,) = self._connection.execute(
                f'SELECT COUNT(*) FROM "{relation.name}"'
            ).fetchone()
            self._row_counts[relation.name] = count
        # Bumped per relation by every delete: SQLite hands a deleted
        # top rowid out again, so marks taken before a delete are void.
        self._delete_generations = {name: 0 for name in self._row_counts}

    def _create_tables(self) -> None:
        for relation in self.schema:
            columns = ", ".join(f"c{i} TEXT NOT NULL" for i in range(relation.arity))
            unique = ", ".join(f"c{i}" for i in range(relation.arity))
            self._connection.execute(
                f'CREATE TABLE IF NOT EXISTS "{relation.name}" '
                f"({columns}, UNIQUE ({unique}))"
            )
            for i in range(relation.arity):
                self._connection.execute(
                    f'CREATE INDEX IF NOT EXISTS "idx_{relation.name}_{i}" '
                    f'ON "{relation.name}" (c{i})'
                )
        self._connection.commit()

    def _view(self):
        return _SqliteView(self)

    # -- plan pushdown -------------------------------------------------

    def _plan_executor(self):
        if not self.pushdown:
            return super()._plan_executor()  # row loop, counted
        # One executor per evaluation entry-point call.  All the delta
        # plans of one semi-naive evaluation (one per body occurrence
        # of the changed relation) receive the *same* delta rows, so
        # the TEMP table is filled once per call, not once per plan.
        filled_arities: set[int] = set()

        def executor(
            plan: JoinPlan, delta_rows: Sequence[Row] | None
        ) -> list[tuple] | None:
            sql_plan = compile_plan_sql(plan, self.schema.relation_names)
            if sql_plan is None:
                self.pushdown_fallbacks += 1
                self.plans_row_loop += 1
                return None
            self.plans_pushdown += 1
            arity = sql_plan.delta_arity
            if arity is not None and arity in filled_arities:
                return self.execute_plan(sql_plan, delta_rows, fill_delta=False)
            if arity is not None and delta_rows:
                filled_arities.add(arity)
            return self.execute_plan(sql_plan, delta_rows)

        return executor

    def _fill_delta_table(self, arity: int, delta_rows: Sequence[Row]) -> None:
        name = delta_table_name(arity)
        if arity not in self._delta_tables:
            columns = ", ".join(f"c{i} TEXT NOT NULL" for i in range(arity))
            self._connection.execute(
                f'CREATE TEMP TABLE IF NOT EXISTS "{name}" ({columns})'
            )
            self._delta_tables.add(arity)
        self._connection.execute(f'DELETE FROM "{name}"')
        placeholders = ", ".join("?" for _ in range(arity))
        self._connection.executemany(
            f'INSERT INTO "{name}" VALUES ({placeholders})',
            [[encode_sqlite_value(v) for v in row] for row in delta_rows],
        )

    def execute_plan(
        self,
        sql_plan: SqlPlan,
        delta_rows: Sequence[Row] | None = None,
        *,
        fill_delta: bool = True,
    ) -> list[tuple]:
        """Run one translated plan as a single SQL join, decoding rows.

        *delta_rows* feed the plan's delta occurrence through a TEMP
        table (connection-local); a delta plan with no delta rows
        short-circuits to no answers, exactly like the in-memory
        executor.  ``fill_delta=False`` reuses the table's current
        contents — the per-call executor sets it when several
        occurrence plans of one evaluation share the same delta.
        """
        if sql_plan.delta_arity is not None:
            if not delta_rows:
                return []
            if fill_delta:
                self._fill_delta_table(sql_plan.delta_arity, delta_rows)
        cursor = self._connection.execute(
            sql_plan.sql, [encode_sqlite_value(v) for v in sql_plan.params]
        )
        if sql_plan.empty_output:
            return [() for _ in cursor]
        return [tuple(map(decode_sqlite_value, cells)) for cells in cursor]

    # -- mutation ------------------------------------------------------

    #: SQLite ≥ 3.35 grew ``RETURNING``; with it, one multi-row
    #: ``INSERT OR IGNORE ... RETURNING *`` per chunk learns exactly
    #: which rows were new without a per-row round trip.
    BATCH_RETURNING = sqlite3.sqlite_version_info >= (3, 35, 0)

    #: Bound on bind parameters per statement (the historical
    #: SQLITE_MAX_VARIABLE_NUMBER floor is 999; stay well under it).
    _MAX_PARAMS_PER_INSERT = 900

    def insert_new(self, relation: str, rows: Iterable[Sequence[Value]]) -> list[Row]:
        schema = self.schema[relation]
        validated = schema.validate_rows(rows)
        if not validated:
            return []
        if not self.BATCH_RETURNING or schema.arity == 0:
            return self._insert_new_row_loop(relation, validated)

        arity = schema.arity
        encoded = [
            tuple(encode_sqlite_value(v) for v in row) for row in validated
        ]
        # ``INSERT OR IGNORE`` with a multi-row VALUES list applies the
        # UNIQUE constraint row by row, so duplicates *within* a chunk
        # are ignored like stored duplicates; RETURNING emits exactly
        # the rows that were actually inserted.
        returned: set[tuple[str, ...]] = set()
        row_template = "(" + ", ".join("?" for _ in range(arity)) + ")"
        chunk = max(1, self._MAX_PARAMS_PER_INSERT // arity)
        cursor = self._connection.cursor()
        for start in range(0, len(encoded), chunk):
            batch = encoded[start:start + chunk]
            sql = (
                f'INSERT OR IGNORE INTO "{relation}" VALUES '
                + ", ".join(row_template for _ in batch)
                + " RETURNING *"
            )
            params = [cell for row in batch for cell in row]
            returned.update(tuple(cells) for cells in cursor.execute(sql, params))
        self._connection.commit()
        # Map the returned cell tuples back onto the caller's rows, in
        # input order with in-batch dedup — the same contract as the
        # row-at-a-time path.
        fresh: list[Row] = []
        seen: set[tuple[str, ...]] = set()
        for row, cells in zip(validated, encoded):
            if cells in returned and cells not in seen:
                fresh.append(row)
                seen.add(cells)
        self._row_counts[relation] += len(fresh)
        return fresh

    def _insert_new_row_loop(
        self, relation: str, validated: list[Row]
    ) -> list[Row]:
        """Pre-3.35 fallback: one INSERT per row, rowcount tells newness."""
        fresh: list[Row] = []
        cursor = self._connection.cursor()
        for row in validated:
            encoded = [encode_sqlite_value(v) for v in row]
            placeholders = ", ".join("?" for _ in encoded)
            cursor.execute(
                f'INSERT OR IGNORE INTO "{relation}" VALUES ({placeholders})',
                encoded,
            )
            if cursor.rowcount > 0:
                fresh.append(row)
        self._connection.commit()
        self._row_counts[relation] += len(fresh)
        return fresh

    def rows(self, relation: str) -> list[Row]:
        if relation not in self.schema:
            raise UnknownRelationError(relation, "sqlite store")
        return list(_SqliteRelation(self, relation))

    def count(self, relation: str) -> int:
        if relation not in self.schema:
            raise UnknownRelationError(relation, "sqlite store")
        return len(_SqliteRelation(self, relation))

    def delete_rows(self, relation: str, rows: Iterable[Sequence[Value]]) -> int:
        if relation not in self.schema:
            raise UnknownRelationError(relation, "sqlite store")
        deleted = 0
        cursor = self._connection.cursor()
        for row in rows:
            where = " AND ".join(f"c{i} = ?" for i in range(len(row)))
            cursor.execute(
                f'DELETE FROM "{relation}" WHERE {where}',
                [encode_sqlite_value(v) for v in row],
            )
            deleted += cursor.rowcount
        self._connection.commit()
        self._row_counts[relation] -= deleted
        if deleted:
            self._delete_generations[relation] += 1
        return deleted

    def clear(self) -> None:
        for relation in self.schema:
            self._connection.execute(f'DELETE FROM "{relation.name}"')
            self._row_counts[relation.name] = 0
            self._delete_generations[relation.name] += 1
        self._connection.commit()

    def watermark(self, relation: str) -> tuple[int, int]:
        if relation not in self.schema:
            raise UnknownRelationError(relation, "sqlite store")
        (top,) = self._connection.execute(
            f'SELECT COALESCE(MAX(rowid), 0) FROM "{relation}"'
        ).fetchone()
        return (self._delete_generations[relation], top)

    def rows_since(
        self, relation: str, mark: tuple[int, int]
    ) -> list[Row] | None:
        generation, top = mark
        if generation != self._delete_generations[relation]:
            return None
        cursor = self._connection.execute(
            f'SELECT * FROM "{relation}" WHERE rowid > ? ORDER BY rowid', (top,)
        )
        return [tuple(map(decode_sqlite_value, cells)) for cells in cursor]

    def close(self) -> None:
        self._connection.close()

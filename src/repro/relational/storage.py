"""The tuple store: one relation instance with hash indexes.

This is the storage engine under each coDB node.  Requirements come
straight from the update algorithm in the paper's §3:

* *set semantics with fast membership* — "we first remove from T those
  tuples which are already in R";
* *delta inserts* — :meth:`Relation.insert_new` reports exactly which
  tuples were new, the ``T'`` of the paper;
* *indexed lookups* — CQ evaluation binds some columns and scans the
  rest; per-column hash indexes make bound-column lookups O(1), and
  composite (multi-column) hash indexes serve the compiled join plans
  of :mod:`repro.relational.planner`, which probe a fixed set of
  positions over and over;
* *deterministic iteration* — insertion order is preserved (a ``dict``
  used as an ordered set), so distributed runs are reproducible;
* *watermarks* — :meth:`Relation.watermark` /
  :meth:`Relation.rows_since` name a point in that insertion order and
  return what was inserted after it, so an incoming link can serve
  "only what is new since my last activation" (§3's "already sent",
  kept across requests).  A delete voids every outstanding mark.

Cardinality estimation (:meth:`Relation.estimated_matches`,
:meth:`Relation.ndv_estimate`, :meth:`Relation.selectivity_estimate`)
is **read-only**: it consults indexes that already exist and otherwise
falls back to a sampled, cached count.  Join *planning* therefore never materialises an index
as a side effect — indexes are built only when a lookup actually
probes a column.

The **column-major view** (:meth:`Relation.row_list`,
:meth:`Relation.column_values`, :meth:`Relation.column_keys`) serves
the batch-at-a-time executor (:meth:`repro.relational.planner.
JoinPlan.execute_columnar`): one materialised list per column, plus
the aligned *typed-cell key* array (:func:`~repro.relational.values.
value_key` per cell, the identity the hash indexes bucket by), cached
against the relation's mutation counter so repeated batch executions
reuse them; :meth:`Relation.select_rows` caches a comparison's
surviving rows the same way.  :meth:`Relation.key_index` /
:meth:`Relation.key_multi_index` expose the hash indexes keyed by
those same typed keys, letting a batch probe resolve each *distinct*
key with one dict lookup.
"""

from __future__ import annotations

import random
from collections.abc import Collection, Iterable, Iterator, Sequence
from functools import lru_cache
from itertools import islice
from operator import itemgetter

from repro.errors import SchemaError
from repro.relational.schema import RelationSchema
from repro.relational.values import (
    Row,
    Value,
    row_key,
    row_keys,
    same_value,
    sort_rows,
    value_key,
    value_keys,
)

#: Sample size floor of the index-free estimators: a relation below
#: twice this many rows is read whole, a larger one through a stratified
#: sample of between this many and twice this many rows.
NDV_SAMPLE_LIMIT = 256

#: Entries the per-version column cache may hold: selections and
#: selectivities are keyed by predicate, and a long-lived relation can
#: see unboundedly many distinct ones.  Reaching the limit empties it.
COLUMN_CACHE_LIMIT = 64

#: Below this many rows a composite index is not worth building; the
#: single-column probe plus per-row filtering wins on constant factors.
COMPOSITE_INDEX_THRESHOLD = 32

#: Memory budget: at most this many composite indexes are kept per
#: relation, evicted least-recently-probed first.  Each composite index
#: holds a bucket entry per row, so an unbounded cache of them (one per
#: position set ever probed) can multiply the relation's footprint.
COMPOSITE_INDEX_BUDGET = 8


@lru_cache(maxsize=64)
def _sample_picker(total: int) -> itemgetter:
    """Picks one seeded random position in each of the ``total //
    stride`` consecutive blocks (``stride = total // NDV_SAMPLE_LIMIT``)
    that tile ``range(total)`` — a stratified sample: every row is
    equally likely, every stretch of the insertion order is
    represented, and no period in the data lines up with the picks.
    Depends on *total* alone, so it is drawn once per relation size."""
    blocks = total // (total // NDV_SAMPLE_LIMIT)
    rng = random.Random(0)
    bounds = [k * total // blocks for k in range(blocks + 1)]
    return itemgetter(*(rng.randrange(lo, hi) for lo, hi in zip(bounds, bounds[1:])))


class Relation:
    """One relation instance: an ordered set of rows plus hash indexes.

    Single-column indexes are built lazily, the first time a lookup
    binds a column; composite indexes the first time a plan probes a
    multi-column position set over a large enough relation.  After
    that, all indexes are maintained incrementally on insert/delete.
    """

    def __init__(self, schema: RelationSchema) -> None:
        self.schema = schema
        # All dictionaries here are keyed by the *typed* identity of
        # repro.relational.values (value_key / row_key): Python's own
        # dict identity unifies 3 with 3.0 and True with 1, which must
        # not join (they are distinct cells on the SQLite backend).
        # row key -> row, in insertion order.
        self._rows: dict[tuple, Row] = {}
        # column position -> value key -> ordered set of rows (by row key)
        self._indexes: dict[int, dict[object, dict[tuple, Row]]] = {}
        # (position, ...) -> (value key, ...) -> ordered set of rows.
        # LRU over position sets: dict order is recency (probes re-append),
        # bounded by composite_index_budget — see _multi_index_for.
        self._multi_indexes: dict[tuple[int, ...], dict[tuple, dict[tuple, Row]]] = {}
        self.composite_index_budget = COMPOSITE_INDEX_BUDGET
        # Monotone mutation counter; invalidates everything cached
        # below: the column-major view, selections and estimates.
        self._version = 0
        # "rows" | "sample" | ("values" | "keys" | "ndv", p) | ("select" |
        # "selectivity", kernel key) -> (version, cached result)
        self._column_cache: dict[object, tuple[int, object]] = {}
        # Bumped by every delete: insertion positions shift under a
        # delete, so marks taken before it no longer name a tail.
        self._delete_generation = 0

    # ------------------------------------------------------------------
    # Basic collection protocol
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows.values())

    def __contains__(self, row: Sequence[Value]) -> bool:
        return row_key(tuple(row)) in self._rows

    def rows(self) -> list[Row]:
        """All rows, in insertion order."""
        return list(self._rows.values())

    def sorted_rows(self) -> list[Row]:
        """All rows in a canonical total order (for reports and tests)."""
        return sort_rows(self._rows.values())

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def _index_row(self, key: tuple, row: Row) -> None:
        for position, index in self._indexes.items():
            index.setdefault(value_key(row[position]), {})[key] = row
        for positions, index in self._multi_indexes.items():
            bucket_key = tuple(value_key(row[p]) for p in positions)
            index.setdefault(bucket_key, {})[key] = row

    def _unindex_row(self, key: tuple, row: Row) -> None:
        for position, index in self._indexes.items():
            column_key = value_key(row[position])
            bucket = index.get(column_key)
            if bucket is not None:
                bucket.pop(key, None)
                if not bucket:
                    del index[column_key]
        for positions, index in self._multi_indexes.items():
            bucket_key = tuple(value_key(row[p]) for p in positions)
            bucket = index.get(bucket_key)
            if bucket is not None:
                bucket.pop(key, None)
                if not bucket:
                    del index[bucket_key]

    def insert(self, row: Sequence[Value]) -> bool:
        """Insert one row; return ``True`` iff it was not present."""
        return bool(self.insert_new([row]))

    def insert_new(self, rows: Iterable[Sequence[Value]]) -> list[Row]:
        """Insert many rows; return the ones that were actually new.

        This is the paper's ``T' = T \\ R`` step followed by
        ``R := R ∪ T'``: the returned list is the delta used to
        recompute dependent incoming links.  The batch's own duplicates
        are caught as it is walked, so *n* rows cost O(n), not O(n²).
        """
        validated = self.schema.validate_rows(rows)
        stored = self._rows
        fresh: dict[tuple, Row] = {}
        for key, row in zip(row_keys(validated), validated):
            if key not in stored and key not in fresh:
                fresh[key] = row
        if not fresh:
            return []
        stored.update(fresh)
        if self._indexes or self._multi_indexes:
            for key, row in fresh.items():
                self._index_row(key, row)
        self._version += 1
        return list(fresh.values())

    def delete(self, row: Sequence[Value]) -> bool:
        """Delete one row; return ``True`` iff it was present."""
        key = row_key(tuple(row))
        present = self._rows.pop(key, None)
        if present is None:
            return False
        self._unindex_row(key, present)
        self._version += 1
        self._delete_generation += 1
        return True

    def clear(self) -> None:
        self._rows.clear()
        self._indexes.clear()
        self._multi_indexes.clear()
        self._column_cache.clear()
        self._version += 1
        self._delete_generation += 1

    # ------------------------------------------------------------------
    # Watermarks
    # ------------------------------------------------------------------

    def watermark(self) -> tuple[int, int]:
        """The current high-water mark: an opaque, totally ordered token
        for "everything inserted so far" (see :meth:`rows_since`)."""
        return (self._delete_generation, len(self._rows))

    def rows_since(self, mark: tuple[int, int]) -> list[Row] | None:
        """Rows inserted after *mark* was taken, in insertion order —
        or ``None`` when a delete since then voided the mark (the
        caller falls back to reading the whole relation)."""
        generation, position = mark
        if generation != self._delete_generation:
            return None
        return list(islice(self._rows.values(), position, None))

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------

    def _check_position(self, position: int) -> None:
        if position < 0 or position >= self.schema.arity:
            raise SchemaError(
                f"relation {self.schema.name!r} has no column {position}"
            )

    def _index_for(self, position: int) -> dict[object, dict[tuple, Row]]:
        """The hash index on *position*, building it on first use."""
        self._check_position(position)
        index = self._indexes.get(position)
        if index is None:
            index = {}
            for key, row in self._rows.items():
                index.setdefault(value_key(row[position]), {})[key] = row
            self._indexes[position] = index
        return index

    def _multi_index_for(
        self, positions: tuple[int, ...]
    ) -> dict[tuple, dict[tuple, Row]]:
        """The composite hash index on *positions*, built on first use.

        The cache of composite indexes is an LRU bounded by
        :attr:`composite_index_budget`: every probe refreshes its
        position set's recency (re-insertion at the end of the dict),
        and building one past the budget evicts the least-recently
        probed index.  Eviction only costs a rebuild on the next probe
        of that position set — probe answers never change.  A budget
        of zero (or less) retains nothing: every probe builds a
        throwaway index, trading CPU for a flat memory ceiling.
        """
        budget = self.composite_index_budget
        index = self._multi_indexes.pop(positions, None)
        if index is None:
            for position in positions:
                self._check_position(position)
            index = {}
            for key, row in self._rows.items():
                bucket_key = tuple(value_key(row[p]) for p in positions)
                index.setdefault(bucket_key, {})[key] = row
        if budget <= 0:
            # Build-and-discard — and drop anything cached under an
            # earlier, larger budget, so a zero budget really is a flat
            # memory ceiling with no leftover maintenance cost.
            self._multi_indexes.clear()
            return index
        while len(self._multi_indexes) >= budget:
            self._multi_indexes.pop(next(iter(self._multi_indexes)))
        self._multi_indexes[positions] = index
        return index

    def lookup(self, bindings: dict[int, Value]) -> Iterator[Row]:
        """Rows whose column *position* equals *value* for every binding.

        With no bindings this is a full scan.  With bindings, the most
        selective index probe is used and remaining bindings are
        checked per row.
        """
        if not bindings:
            yield from self._rows.values()
            return
        # Probe the index whose bucket is smallest.
        best_position = None
        best_bucket: dict[tuple, Row] | None = None
        for position, value in bindings.items():
            bucket = self._index_for(position).get(value_key(value))
            if bucket is None:
                return  # some bound value has no matches at all
            if best_bucket is None or len(bucket) < len(best_bucket):
                best_position, best_bucket = position, bucket
        assert best_bucket is not None
        rest = [(p, v) for p, v in bindings.items() if p != best_position]
        for row in best_bucket.values():
            if all(same_value(row[p], v) for p, v in rest):
                yield row

    def probe(
        self, positions: tuple[int, ...], values: tuple[Value, ...]
    ) -> Iterable[Row]:
        """Rows with ``row[p] == v`` for each aligned position/value pair.

        The fast path for compiled join plans: a plan probes the same
        position set once per outer binding, so the probe is served
        from one hash bucket — a single-column index for one position,
        a composite index for several (when the relation is large
        enough for the composite to pay for itself).
        """
        if not positions:
            return self._rows.values()
        if len(positions) == 1:
            bucket = self._index_for(positions[0]).get(value_key(values[0]))
            return bucket.values() if bucket is not None else ()
        if len(self._rows) >= COMPOSITE_INDEX_THRESHOLD or positions in self._multi_indexes:
            bucket = self._multi_index_for(positions).get(
                tuple(value_key(v) for v in values)
            )
            return bucket.values() if bucket is not None else ()
        return self.lookup(dict(zip(positions, values)))

    # ------------------------------------------------------------------
    # Column-major view (the batch executor's currency)
    # ------------------------------------------------------------------

    def _cached(self, cache_key: object, build):
        cached = self._column_cache.get(cache_key)
        if cached is not None and cached[0] == self._version:
            return cached[1]
        column = build()
        if len(self._column_cache) >= COLUMN_CACHE_LIMIT:
            self._column_cache.clear()
        self._column_cache[cache_key] = (self._version, column)
        return column

    def row_list(self) -> list[Row]:
        """All rows in insertion order, cached per version.

        Unlike :meth:`rows` (a fresh list per call), the returned list
        is shared until the next mutation — callers must not modify it.
        """
        return self._cached("rows", lambda: list(self._rows.values()))

    def column_values(self, position: int) -> list[Value]:
        """Column *position* of every row, aligned with :meth:`row_list`.

        Cached per version and shared; callers must not modify it.
        """
        self._check_position(position)
        return self._cached(
            ("values", position),
            lambda: [row[position] for row in self._rows.values()],
        )

    def column_keys(self, position: int) -> list:
        """Typed-cell keys (:func:`value_key`) of column *position*,
        aligned with :meth:`row_list`; cached per version and shared."""
        self._check_position(position)
        return self._cached(
            ("keys", position),
            lambda: [value_key(row[position]) for row in self._rows.values()],
        )

    def select_rows(self, kernel) -> list[Row]:
        """The rows passing comparison *kernel* (a
        :class:`repro.relational.comparisons.Kernel` over column
        positions), filtered column-wise, in insertion order; cached
        per version and shared, so rule bodies that carry the same
        selection compute it once."""

        def select() -> list[Row]:
            rows = self.row_list()
            kept = kernel.columns(self.column_values, len(rows))
            return list(map(rows.__getitem__, kept))

        return self._cached(("select", kernel.key), select)

    def key_index(self, position: int) -> dict[object, dict[tuple, Row]]:
        """The single-column hash index on *position* (built on first
        use), keyed by typed cell keys — the batch executor probes it
        once per *distinct* key in a batch."""
        return self._index_for(position)

    def key_multi_index(
        self, positions: tuple[int, ...]
    ) -> dict[tuple, dict[tuple, Row]]:
        """The composite hash index on *positions* (built on first use),
        keyed by typed key tuples; same LRU discipline as :meth:`probe`."""
        return self._multi_index_for(positions)

    def count(self, bindings: dict[int, Value] | None = None) -> int:
        """Number of rows matching *bindings* (all rows when ``None``)."""
        if not bindings:
            return len(self._rows)
        return sum(1 for _ in self.lookup(bindings))

    def ndv_estimate(self, position: int) -> int:
        """Number of distinct values in *position*, without side effects.

        An already-built index answers exactly.  Otherwise the
        deterministic sample of :meth:`_sample_rows` is counted and
        cached against the relation's mutation counter; a sample that
        is all distinct reads as a key-like column and reports the full
        row count.  No index is ever built here — estimation must not
        mutate storage (join planning probes many candidate atoms it
        never selects).
        """
        self._check_position(position)
        index = self._indexes.get(position)
        if index is not None:
            return len(index)

        def count() -> int:
            keys = value_keys(list(map(itemgetter(position), self._sample_rows())))
            distinct = len(set(keys))
            if len(self._rows) > NDV_SAMPLE_LIMIT and distinct == len(keys):
                return len(self._rows)  # key-like: every sampled value distinct
            return distinct

        return self._cached(("ndv", position), count)

    def _sample_rows(self) -> Collection[Row]:
        """The rows the estimators read: all of a relation under twice
        :data:`NDV_SAMPLE_LIMIT` rows, else one row drawn from each of
        ``len // NDV_SAMPLE_LIMIT``-row blocks of :meth:`row_list`
        (:func:`_sample_picker`), cached per version.  The blocks
        tile the insertion order, so clustered loads (rows grouped by
        one column's value) cannot bias the sample into one bucket; the
        draw inside each block is random, so no periodic layout can
        alias with it (a fixed stride of 5 read ``i % 300`` as 60
        values).  Deterministic (fixed seed) and read-only."""
        total = len(self._rows)
        if total < 2 * NDV_SAMPLE_LIMIT:
            return self._rows.values()

        def sample() -> tuple[Row, ...]:
            return _sample_picker(total)(self.row_list())

        return self._cached("sample", sample)

    def selectivity_estimate(self, kernel) -> float:
        """Share of rows expected to pass comparison *kernel* (as in
        :meth:`select_rows`), measured column-wise on the sample
        :meth:`ndv_estimate` takes and cached per version.  Exactly 1.0
        when the whole sample passes, never 0 (a sample nothing passes
        reads as one row).  Read-only, like every estimator here."""

        def measure() -> float:
            sample = self._sample_rows()
            if not sample:
                return 1.0
            passed = kernel.columns(
                lambda position: list(map(itemgetter(position), sample)),
                len(sample),
            )
            return max(len(passed), 1) / len(sample)

        return self._cached(("selectivity", kernel.key), measure)

    def estimated_matches(self, bound_positions: Iterable[int]) -> float:
        """Cheap cardinality estimate for join ordering.

        A declared key that is fully bound answers **exactly**: the
        probe returns at most one row, no sampling involved (and no
        independence assumption to go wrong on skewed or locally
        inconsistent data).  Otherwise assume independent uniform
        columns: ``|R| / prod(ndv(col))`` over the bound columns, where
        ``ndv`` comes from :meth:`ndv_estimate` — an existing index
        when one was already built, a cached sampled count otherwise.
        Read-only: estimating a probe cost must not build the index
        being costed.
        """
        bound = set(bound_positions)
        key_positions = self.schema.key_positions()
        if key_positions and set(key_positions) <= bound:
            return float(min(1, len(self._rows)))
        estimate = float(len(self._rows))
        for position in bound:
            distinct = self.ndv_estimate(position)
            if distinct > 0:
                estimate /= distinct
        return estimate

    # ------------------------------------------------------------------

    def copy(self) -> "Relation":
        """An independent copy (indexes rebuilt lazily)."""
        clone = Relation(self.schema)
        clone._rows = dict(self._rows)
        return clone

    def __repr__(self) -> str:
        return f"<Relation {self.schema.name} rows={len(self._rows)}>"

"""Compiled join plans for conjunctive-query evaluation.

Every ``query_result`` a node ships during a global update comes from
evaluating a coordination-rule body over its local database, and
semi-naive re-evaluation fires on every delta — CQ evaluation is the
system's hottest path.  The interpreter in
:mod:`repro.relational.evaluation` re-runs greedy join ordering inside
its recursion, once per partial binding per level; this module
compiles each body **once** into a reusable :class:`JoinPlan` and
executes that, keeping the interpreter as a differential-testing
oracle.

A :class:`JoinPlan` is the **single IR** behind three executors — the
storage wrappers pick one per plan (see "Executor dispatch rules" in
:mod:`repro.relational.wrapper`):

* :meth:`JoinPlan.execute` — the row-at-a-time join loop over hash
  probes (the in-memory baseline);
* :meth:`JoinPlan.execute_columnar` — the batch-at-a-time twin: the
  whole intermediate result flows through the steps as a column
  batch, probing each **distinct** typed key once.  It enumerates the
  same answers in the same order as :meth:`~JoinPlan.execute`, so the
  two are exchangeable result-for-result;
* :func:`compile_plan_sql` — the same plan translated to one
  parameterized SQL join, pushed down into a SQLite-backed store.

The join order is decided once, in the shared plan, whichever
executor serves it.

Plan shape
----------

A :class:`JoinPlan` is a fixed sequence of :class:`PlanStep`\\ s, one
per body atom, in an order chosen once from relation statistics.  The
cost model prices a whole left-deep order, not the next atom: C_out,
the sum of the estimated intermediate row counts.  Each step multiplies
the rows before it by the atom's *fan-out* — System R's containment
estimate ``|R| / Π max(ndv_R(col), ndv(var))`` over the columns earlier
variables bind (``ndv_R(col)`` for a constant), capped at one row when
a declared key is fully bound, times the sampled selectivity of the
comparisons the atom alone binds.  Every admissible order of the body
is costed and the cheapest kept (:func:`compile_plan`); a cross product
is admissible only when no atom sharing a variable remains.  So a
selective predicate starts the join from its atom, and a tiny relation
that shares nothing with the selection is probed last rather than
crossed with it first.  Each step precompiles:

* **probe template** — which positions are bound by constants or by
  variables of earlier steps.  At execution these become one hash
  probe (:meth:`Relation.probe`): a single-column bucket for one
  position, a composite-index bucket for several.
* **bind slots** — positions whose (new) variable the step binds.
* **same-row checks** — repeated new variables within the atom
  (``edge(x, x)``), checked row-locally.
* **comparison kernels** — each comparison predicate is compiled once
  (:func:`~repro.relational.comparisons.compile_comparison`) and
  attached to the earliest step after which all its variables are
  bound: as a filter on the step's own candidate rows when that atom
  alone binds them, else on the joined batch; ground comparisons are
  decided before the first step.

The plan also carries the output projection (the query head's terms,
or a mapping's sorted frontier variables), so execution yields answer
tuples directly without materialising full binding dicts per result.

Delta variants (semi-naive mode) are separate plans: the occurrence of
the changed relation ranges over the delta rows and is forced first,
costed as one row, exactly as the interpreter forces ``delta_atom``
first.

Cache key and invalidation
--------------------------

:class:`PlanCache` (one per storage wrapper) maps

    ``(rule key, delta relation | None, occurrence index | None)``

to a compiled plan.  The rule key is the coordination rule's id when
the caller has one (the node layers thread it through), else the
query/mapping object itself (frozen dataclasses, hashable,
structurally equal).  Each plan records a **coarse cardinality
fingerprint** — the order of magnitude (``int(log10(n))``) of every
body relation's row count at compile time.  On every cache hit the
fingerprint is recomputed (a ``len`` per relation); when any relation
has shifted by an order of magnitude the plan is recompiled, so join
orders track data growth without re-planning on every insert.  A plan
whose order is forced (one atom, or a delta and one more) has no
fingerprint and is never recompiled.

Compilation is read-only: the statistics come from
:meth:`Relation.ndv_estimate` and :meth:`Relation.selectivity_estimate`
(on SQLite, one ``COUNT(DISTINCT)`` per column), read at most once per
compile and never building an index.

Networks additionally share one :class:`PlanRegistry` across all their
nodes' caches: the super-peer broadcast installs identical rule bodies
on many nodes, and a body compiled by one store is *adopted* (keyed on
structure + backend kind + cardinality fingerprint) by every sibling
instead of being recompiled N times.

SQL pushdown
------------

When every body relation lives in one SQLite database, interpreting
the plan in Python — one ``probe()`` round-trip per parent binding —
wastes the storage engine: SQLite can run the whole join in C.
:func:`compile_plan_sql` translates a compiled :class:`JoinPlan` into
a single parameterized ``SELECT``:

* the plan's atom order becomes the ``FROM`` order, joined with
  ``CROSS JOIN`` so SQLite keeps *our* join order (one source of truth
  for ordering);
* probe templates, same-row checks and delta const/var checks become
  raw equality predicates over the encoded cells — the type-tagged
  encoding is injective, so cell equality is coDB value equality
  (marked nulls included: ``n:label`` cells compare by label);
* comparison predicates go through a registered SQL function
  (:data:`SQL_COMPARE_FUNCTION`) that decodes both cells and applies
  :func:`repro.relational.comparisons.compare_values` — order
  comparisons and the certain-answer null rules cannot be expressed
  over the encoded TEXT directly;
* the head/frontier projection becomes the ``SELECT`` list (constants
  ride along as parameters); a delta step reads a per-arity temp table
  (:func:`delta_table_name`) the store fills per execution.

The translation is deliberately total on plan features; it returns
``None`` only when a stored body relation is missing from the target
database, and callers fall back to the in-memory executor.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from itertools import repeat

from repro.relational.comparisons import (
    Kernel,
    compile_comparison,
    compile_for_bindings,
    conjoin,
)
from repro.relational.storage import COMPOSITE_INDEX_THRESHOLD
from repro.relational.conjunctive import (
    Atom,
    Comparison,
    ConjunctiveQuery,
    GlavMapping,
    Term,
    Variable,
)
from repro.relational.values import Row, Value, row_key, same_value, value_key

Binding = dict[str, Value]

#: Cache key: (rule key, delta relation, body occurrence index).
PlanKey = tuple[object, "str | None", "int | None"]

#: Name of the SQL function implementing coDB comparison semantics over
#: encoded cells; SQLite-backed stores register it on their connection.
SQL_COMPARE_FUNCTION = "codb_cmp"

#: An executor hook: ``(plan, delta_rows) -> rows or None``.  ``None``
#: means "cannot push this plan down, run it in memory".
PlanExecutor = "Callable[[JoinPlan, Sequence[Row] | None], list[tuple] | None]"


def delta_table_name(arity: int) -> str:
    """The per-arity temp table a pushed-down delta step reads from."""
    return f"_codb_delta_{arity}"


def _relation_or_none(view, name: str):
    """The view's relation called *name*, or ``None`` when absent."""
    if name in view.relation_names:
        return view.relation(name)
    return None


def cardinality_fingerprint(view, relation_names: Sequence[str]) -> tuple[int, ...]:
    """Order-of-magnitude row counts of *relation_names* under *view*.

    ``-2`` marks a relation the view does not know, ``-1`` an empty
    one; otherwise ``int(log10(n))``.  Plans are recompiled when this
    tuple changes — the "cardinalities shifted by an order of
    magnitude" trigger.
    """
    known = view.relation_names
    magnitudes: list[int] = []
    for name in relation_names:
        if name not in known:
            magnitudes.append(-2)
            continue
        count = len(view.relation(name))
        magnitudes.append(-1 if count == 0 else int(math.log10(count)))
    return tuple(magnitudes)


@dataclass(frozen=True)
class PlanStep:
    """One atom of a compiled plan, with its precompiled templates."""

    #: Index of the atom in the original body (stable across plans).
    atom_index: int
    relation: str
    #: Whether this step ranges over the delta rows (semi-naive mode).
    is_delta: bool
    #: Positions probed through the index, ascending.
    probe_positions: tuple[int, ...]
    #: Aligned with ``probe_positions``: ``(True, var_name)`` for a
    #: variable bound by an earlier step, ``(False, constant)`` else.
    probe_sources: tuple[tuple[bool, object], ...]
    #: ``(position, variable)`` pairs this step binds (first occurrences).
    bind_slots: tuple[tuple[int, str], ...]
    #: ``(position, first_position)`` — repeated new variable in-atom.
    same_row_checks: tuple[tuple[int, int], ...]
    #: Delta steps cannot use the index: constants checked per row.
    const_checks: tuple[tuple[int, Value], ...]
    #: Delta steps: earlier-bound variables checked per row.
    var_checks: tuple[tuple[int, str], ...]
    #: Comparison indices checkable once this step's variables bind.
    comparison_indices: tuple[int, ...]
    #: The planner's fan-out estimate: rows this atom yields per
    #: incoming row (the scan's rows for the first step).
    estimated_cost: float
    #: Estimated intermediate rows after this step; their sum over the
    #: plan is the C_out the planner minimised.
    estimated_rows: float
    #: The subset of ``comparison_indices`` whose every variable this
    #: atom alone binds, and their conjunction as one kernel over the
    #: atom's rows (``None`` without any): it filters the step's
    #: candidate rows (the scan, or each probe bucket) before anything
    #: is joined.
    local_comparisons: tuple[int, ...] = ()
    local_kernel: Kernel | None = field(default=None, compare=False, repr=False)
    #: Sampled share of the relation's rows passing the local
    #: comparisons, already multiplied into ``estimated_cost``.
    selectivity: float = 1.0


class JoinPlan:
    """A compiled, reusable execution plan for one CQ body.

    Execution (:meth:`execute`) enumerates satisfying assignments and
    yields the projected output tuple per assignment (duplicates
    included — set semantics happen at the caller, as in the
    interpreter).
    """

    __slots__ = (
        "steps",
        "comparisons",
        "ground_comparisons",
        "output",
        "fingerprint",
        "delta_atom",
        "source_body",
        "_output_ops",
        "_sql_cache",
        "_kernels",
        "_ground_hold",
        "_columnar",
    )

    def __init__(
        self,
        steps: tuple[PlanStep, ...],
        comparisons: tuple[Comparison, ...],
        ground_comparisons: tuple[int, ...],
        output: tuple[Term, ...],
        fingerprint: tuple[int, ...],
        delta_atom: int | None,
        source_body: tuple[Atom, ...] = (),
    ) -> None:
        self.steps = steps
        self.comparisons = comparisons
        self.ground_comparisons = ground_comparisons
        self.output = output
        self.fingerprint = fingerprint
        self.delta_atom = delta_atom
        self.source_body = source_body
        self._output_ops: tuple[tuple[bool, object], ...] = tuple(
            (True, term.name) if isinstance(term, Variable) else (False, term)
            for term in output
        )
        # Lazily compiled SQL translations, keyed on the table-name
        # tuple each was generated against (see compile_plan_sql).  A
        # dict, not a single slot: a plan shared through a PlanRegistry
        # may serve several stores whose table sets differ.
        self._sql_cache: dict[tuple[str, ...], "SqlPlan | None"] = {}
        # The comparisons compiled over variable names, aligned with
        # ``comparisons``: the row loop applies them to its binding
        # dict, the columnar executor to its named columns.
        self._kernels = compile_for_bindings(comparisons)
        self._ground_hold = all(
            self._kernels[ci].row(None) for ci in ground_comparisons
        )
        # Lazily derived per-step metadata for execute_columnar.
        self._columnar: tuple | None = None

    def atom_order(self) -> tuple[int, ...]:
        """Original body indexes in execution order."""
        return tuple(step.atom_index for step in self.steps)

    def estimated_cost(self) -> float:
        """C_out: the estimated intermediate rows summed over the steps
        — the quantity :func:`compile_plan` minimised."""
        return sum(step.estimated_rows for step in self.steps)

    def execute(
        self,
        view,
        delta_rows: Sequence[Row] | None = None,
    ) -> Iterator[tuple]:
        """Yield one projected output tuple per satisfying assignment.

        *delta_rows* replaces the stored relation at the plan's delta
        step (required iff the plan was compiled with a delta atom).
        """
        if not self._ground_hold:
            return
        kernels = self._kernels
        steps = self.steps
        depth_count = len(steps)
        relations: list = []
        probes: list = []
        for step in steps:
            if step.is_delta:
                relations.append(None)
                probes.append(None)
                continue
            relation = _relation_or_none(view, step.relation)
            if relation is None:
                return  # unknown relation: no rows can match
            relations.append(relation)
            # Resolve the probe entry point once per step, not once per
            # parent binding — run() fires per binding on the hot path.
            probes.append(getattr(relation, "probe", None))
        output_ops = self._output_ops
        binding: Binding = {}

        def run(depth: int) -> Iterator[tuple]:
            if depth == depth_count:
                yield tuple(
                    binding[ref] if is_var else ref for is_var, ref in output_ops
                )
                return
            step = steps[depth]
            if step.is_delta:
                rows = delta_rows if delta_rows is not None else ()
            else:
                if step.probe_positions:
                    key = tuple(
                        binding[ref] if is_var else ref
                        for is_var, ref in step.probe_sources
                    )
                    probe = probes[depth]
                    if probe is not None:
                        rows = probe(step.probe_positions, key)
                    else:
                        rows = relations[depth].lookup(
                            dict(zip(step.probe_positions, key))
                        )
                else:
                    rows = relations[depth]
            bind_slots = step.bind_slots
            same_row_checks = step.same_row_checks
            const_checks = step.const_checks
            var_checks = step.var_checks
            checks = [kernels[ci].row for ci in step.comparison_indices]
            for row in rows:
                if const_checks and any(
                    not same_value(row[p], v) for p, v in const_checks
                ):
                    continue
                if var_checks and any(
                    not same_value(row[p], binding[name]) for p, name in var_checks
                ):
                    continue
                if same_row_checks and any(
                    not same_value(row[p], row[first])
                    for p, first in same_row_checks
                ):
                    continue
                for position, name in bind_slots:
                    binding[name] = row[position]
                if all(check(binding) for check in checks):
                    yield from run(depth + 1)
                for position, name in bind_slots:
                    del binding[name]

        yield from run(0)

    # ------------------------------------------------------------------
    # Columnar (batch-at-a-time) execution
    # ------------------------------------------------------------------

    def _columnar_meta(self) -> tuple:
        """Per-step metadata for :meth:`execute_columnar`, derived once.

        For each step: the variables that must survive the step's
        *remap* (needed by its own comparisons or by anything later),
        the variables that must survive its *prune* (needed strictly
        later), and its comparison kernels.  The step's *local*
        comparisons are compiled over row positions: the executor
        applies them to the step's candidate rows *before* the batch
        cross-product, so a selective predicate filters ``m`` rows
        once instead of ``m × n`` expanded tuples.  The others
        (*cross-step*) filter the joined batch's named columns.
        """
        meta = self._columnar
        if meta is None:
            comparisons = self.comparisons
            needed = {ref for is_var, ref in self._output_ops if is_var}
            per_step: list[tuple] = []
            for step in reversed(self.steps):
                keep_vars = frozenset(needed)
                cross_kernels = []
                for ci in step.comparison_indices:
                    if ci not in step.local_comparisons:
                        cross_kernels.append(self._kernels[ci])
                        needed.update(comparisons[ci].variables())
                remap_vars = frozenset(needed)
                for is_var, ref in step.probe_sources:
                    if is_var:
                        needed.add(ref)
                for _position, name in step.var_checks:
                    needed.add(name)
                per_step.append(
                    (
                        remap_vars,
                        keep_vars,
                        tuple(cross_kernels),
                        step.local_kernel,
                    )
                )
            per_step.reverse()
            self._columnar = meta = tuple(per_step)
        return meta

    def execute_columnar(
        self,
        view,
        delta_rows: Sequence[Row] | None = None,
    ) -> list[tuple]:
        """Batch-at-a-time twin of :meth:`execute` over the same plan.

        Instead of recursing row by row, the whole intermediate result
        flows through the steps as a *column batch* — one value list
        per live variable, pruned to the variables later steps still
        need.  A probe step groups the batch by typed probe key
        (:func:`~repro.relational.values.value_key` tuples, the hash
        indexes' own identity) and resolves each **distinct** key with
        a single dict lookup against the relation's
        :meth:`~repro.relational.storage.Relation.key_index` /
        :meth:`~repro.relational.storage.Relation.key_multi_index`,
        then expands matches back against the batch.  Unfiltered scans
        bind the relation's cached
        :meth:`~repro.relational.storage.Relation.column_values` /
        :meth:`~repro.relational.storage.Relation.column_keys` arrays
        directly.  Returns the projected tuples (duplicates included —
        set semantics happen at the caller), in the same parent-major
        order the interpreter enumerates, so the two executors are
        exchangeable result-for-result.
        """
        if not self._ground_hold:
            return []
        meta = self._columnar_meta()
        cols: dict[str, list] = {}
        #: Aligned typed-key arrays for columns we happen to know them
        #: for (scan-bound columns, previously probed ones); ``None``
        #: entries are computed on demand at the next probe.
        key_cols: dict[str, list | None] = {}
        n = 1

        for depth, step in enumerate(self.steps):
            # The step-local kernel (every variable bound by this atom
            # alone) filters candidate rows BEFORE the batch
            # cross-product / per-parent expansion.
            remap_vars, keep_vars, cross_kernels, local = meta[depth]
            local_ok = local.row if local is not None else None
            parent_idx: list[int] | None  # None => every parent is row 0
            relation = None

            if step.is_delta or not step.probe_positions:
                # ---- scan: the delta batch or a whole relation ------
                filtered = step.is_delta
                scan_filter = local_ok
                if step.is_delta:
                    rows_list = (
                        list(delta_rows) if delta_rows is not None else []
                    )
                else:
                    relation = _relation_or_none(view, step.relation)
                    if relation is None:
                        return []
                    if local is not None and hasattr(relation, "select_rows"):
                        # Column-wise, once per relation version.
                        rows_list = relation.select_rows(local)
                        scan_filter = None
                        filtered = True
                    elif hasattr(relation, "row_list"):
                        rows_list = relation.row_list()
                    else:
                        rows_list = list(relation)
                if step.const_checks or step.same_row_checks:
                    const_checks = step.const_checks
                    same_row = step.same_row_checks
                    rows_list = [
                        row
                        for row in rows_list
                        if all(
                            same_value(row[p], v) for p, v in const_checks
                        )
                        and all(
                            same_value(row[p], row[f]) for p, f in same_row
                        )
                    ]
                    filtered = True
                if scan_filter is not None:
                    rows_list = list(filter(scan_filter, rows_list))
                    filtered = True
                m = len(rows_list)
                if m == 0:
                    return []
                if n == 1:
                    matched = rows_list
                    parent_idx = None
                else:
                    matched = rows_list * n
                    parent_idx = []
                    extend_parents = parent_idx.extend
                    for i in range(n):
                        extend_parents(repeat(i, m))
                if step.var_checks:
                    # Unreachable with compiler-ordered plans (the
                    # delta step runs first, before anything binds),
                    # but kept total for hand-built plans.
                    var_cols = [(p, cols[name]) for p, name in step.var_checks]
                    keep = [
                        t
                        for t, row in enumerate(matched)
                        if all(
                            same_value(
                                row[p],
                                c[parent_idx[t] if parent_idx else 0],
                            )
                            for p, c in var_cols
                        )
                    ]
                    if len(keep) != len(matched):
                        matched = [matched[t] for t in keep]
                        if parent_idx is not None:
                            parent_idx = [parent_idx[t] for t in keep]
                        filtered = True
            else:
                # ---- probe: group the batch by typed key ------------
                relation = _relation_or_none(view, step.relation)
                if relation is None:
                    return []
                positions = step.probe_positions
                sources = step.probe_sources
                width = len(sources)
                if (
                    width == 1
                    and sources[0][0]
                    and hasattr(relation, "key_index")
                ):
                    # Fast path: one variable source, indexed relation.
                    # One pass over the batch's typed-key column, one
                    # bucket lookup per distinct key (memoised),
                    # skipping the tuple-template grouping below.
                    ref = sources[0][1]
                    keys = key_cols.get(ref)
                    if keys is None:
                        keys = list(map(value_key, cols[ref]))
                        key_cols[ref] = keys
                    bucket_get = relation.key_index(positions[0]).get
                    match_cache: dict = {}
                    cache_get = match_cache.get
                    per_parent: list = [None] * n
                    for i, typed_key in enumerate(keys):
                        match = cache_get(typed_key, False)
                        if match is False:
                            bucket = bucket_get(typed_key)
                            match = (
                                list(bucket.values()) if bucket else None
                            )
                            if match and local_ok is not None:
                                match = list(filter(local_ok, match)) or None
                            match_cache[typed_key] = match
                        per_parent[i] = match
                else:
                    raw_template: list = [None] * width
                    typed_template: list = [None] * width
                    var_slots = []
                    for j, (is_var, ref) in enumerate(sources):
                        if is_var:
                            keys = key_cols.get(ref)
                            if keys is None:
                                keys = list(map(value_key, cols[ref]))
                                key_cols[ref] = keys
                            var_slots.append((j, cols[ref], keys))
                        else:
                            raw_template[j] = ref
                            typed_template[j] = value_key(ref)
                    #: typed key tuple -> (raw values, parent indices)
                    groups: dict[tuple, tuple[tuple, list[int]]] = {}
                    if not var_slots:
                        groups[tuple(typed_template)] = (
                            tuple(raw_template),
                            list(range(n)),
                        )
                    else:
                        for i in range(n):
                            for j, column, keys in var_slots:
                                raw_template[j] = column[i]
                                typed_template[j] = keys[i]
                            typed_key = tuple(typed_template)
                            entry = groups.get(typed_key)
                            if entry is None:
                                groups[typed_key] = entry = (
                                    tuple(raw_template),
                                    [],
                                )
                            entry[1].append(i)
                    # One index lookup per distinct key.  Stored
                    # relations expose their hash indexes keyed by the
                    # same typed keys; adapters without them (e.g. the
                    # SQLite-backed view) degrade to one probe/lookup
                    # per distinct key.
                    single = len(positions) == 1
                    index_get = None
                    if hasattr(relation, "key_index"):
                        if single:
                            index_get = relation.key_index(
                                positions[0]
                            ).get
                        elif len(relation) >= COMPOSITE_INDEX_THRESHOLD:
                            index_get = relation.key_multi_index(
                                positions
                            ).get
                    probe = getattr(relation, "probe", None)
                    per_parent = [None] * n
                    for typed_key, (raw_values, indices) in groups.items():
                        if index_get is not None:
                            bucket = index_get(
                                typed_key[0] if single else typed_key
                            )
                            match = (
                                list(bucket.values()) if bucket else None
                            )
                        elif probe is not None:
                            match = (
                                list(probe(positions, raw_values)) or None
                            )
                        else:
                            match = (
                                list(
                                    relation.lookup(
                                        dict(zip(positions, raw_values))
                                    )
                                )
                                or None
                            )
                        if match and local_ok is not None:
                            match = list(filter(local_ok, match)) or None
                        if match:
                            for i in indices:
                                per_parent[i] = match
                parent_idx = []
                matched = []
                extend_parents = parent_idx.extend
                extend_matches = matched.extend
                for i in range(n):
                    match = per_parent[i]
                    if match is not None:
                        extend_matches(match)
                        extend_parents(repeat(i, len(match)))
                if step.same_row_checks:
                    same_row = step.same_row_checks
                    keep = [
                        t
                        for t, row in enumerate(matched)
                        if all(
                            same_value(row[p], row[f]) for p, f in same_row
                        )
                    ]
                    if len(keep) != len(matched):
                        matched = [matched[t] for t in keep]
                        parent_idx = [parent_idx[t] for t in keep]
                filtered = True

            new_n = len(matched)
            if new_n == 0:
                return []

            # ---- remap surviving columns through parent_idx ---------
            for name in list(cols):
                if name not in remap_vars:
                    del cols[name]
                    key_cols.pop(name, None)
                    continue
                column = cols[name]
                keys = key_cols.get(name)
                if parent_idx is None:  # single parent: broadcast
                    cols[name] = column * new_n
                    if keys is not None:
                        key_cols[name] = keys * new_n
                else:
                    cols[name] = list(map(column.__getitem__, parent_idx))
                    if keys is not None:
                        key_cols[name] = list(
                            map(keys.__getitem__, parent_idx)
                        )

            # ---- bind this step's new columns -----------------------
            use_view = (
                not filtered
                and relation is not None
                and hasattr(relation, "column_values")
            )
            for position, name in step.bind_slots:
                if use_view:
                    values = relation.column_values(position)
                    keys = relation.column_keys(position)
                    cols[name] = values if n == 1 else values * n
                    key_cols[name] = keys if n == 1 else keys * n
                else:
                    cols[name] = [row[position] for row in matched]
            n = new_n

            # ---- comparisons scheduled at this step -----------------
            for kernel in cross_kernels:
                keep = kernel.columns(cols.__getitem__, n)
                if len(keep) != n:
                    if not keep:
                        return []
                    for name in list(cols):
                        cols[name] = list(
                            map(cols[name].__getitem__, keep)
                        )
                        keys = key_cols.get(name)
                        if keys is not None:
                            key_cols[name] = list(
                                map(keys.__getitem__, keep)
                            )
                    n = len(keep)

            # ---- prune to what later steps still need ---------------
            for name in list(cols):
                if name not in keep_vars:
                    del cols[name]
                    key_cols.pop(name, None)

        # ---- project ----------------------------------------------------
        output_ops = self._output_ops
        if not any(is_var for is_var, _ref in output_ops):
            return [tuple(ref for _is_var, ref in output_ops)] * n
        out_columns = [
            cols[ref] if is_var else repeat(ref, n)
            for is_var, ref in output_ops
        ]
        return list(zip(*out_columns))

    def __repr__(self) -> str:
        order = " -> ".join(
            f"{'Δ' if s.is_delta else ''}{s.relation}[{s.atom_index}]"
            for s in self.steps
        )
        return f"<JoinPlan {order}>"


def _local_kernel(
    atom: Atom, comparisons: Sequence[Comparison], indices: tuple[int, ...]
) -> Kernel | None:
    """The comparisons at *indices* — every variable of each bound by
    *atom* and by no earlier step — as one kernel over the atom's rows."""
    if not indices:
        return None
    positions: dict[str, int] = {}
    for position, term in enumerate(atom.terms):
        if isinstance(term, Variable):
            positions.setdefault(term.name, position)
    return conjoin([compile_comparison(comparisons[ci], positions) for ci in indices])


#: One placed atom of a costed order: (body index, estimated rows per
#: incoming row, estimated rows after the step, local comparison
#: indices, their kernel, their sampled selectivity).
_Placed = tuple[int, float, float, tuple[int, ...], Kernel | None, float]


def _cheapest_order(
    atoms: Sequence[Atom],
    atom_vars: Sequence[frozenset[str]],
    comparisons: Sequence[Comparison],
    comparison_vars: Sequence[frozenset[str]],
    view,
    delta_atom: int | None,
) -> list[_Placed]:
    """The left-deep order of *atoms* with the smallest C_out — the sum
    of its estimated intermediate row counts.

    A step's rows are the rows before it times the atom's *fan-out*,
    System R's containment estimate: ``|R|``, divided by
    ``max(ndv_R(col), ndv(var))`` for each column an earlier variable
    binds and by ``ndv_R(col)`` for each constant, capped at 1 when a
    declared key is fully bound, times the sampled selectivity of the
    comparisons the atom alone binds.  A variable's ``ndv`` is the
    smallest of the columns that bound it so far (1 for the delta
    atom, which is forced first at cardinality 1).  An atom sharing no
    variable with the steps before it is a cross product, taken only
    when no connected atom remains.

    Every admissible order is costed (depth-first; a prefix already as
    dear as the best full order is abandoned; rule bodies are a handful
    of atoms).  Each statistic is read once per compile:
    ``ndv_estimate`` per (relation, column) and only for the columns a
    probe compares, ``selectivity_estimate`` per (relation, kernel) —
    on SQLite each ``ndv_estimate`` is a ``COUNT(DISTINCT)``.
    """
    known = view.relation_names
    relations = [
        view.relation(atom.relation) if atom.relation in known else None
        for atom in atoms
    ]
    # Per atom: ((relation, position), variable name or None for a
    # constant) per column, and the comparisons it could filter alone
    # (non-ground, all of their variables its own) — local wherever
    # none of those variables is bound yet.
    columns = [
        [
            (
                (atom.relation, position),
                term.name if isinstance(term, Variable) else None,
            )
            for position, term in enumerate(atom.terms)
        ]
        for atom in atoms
    ]
    candidates = [
        [
            (ci, used)
            for ci, used in enumerate(comparison_vars)
            if used and used <= names
        ]
        for names in atom_vars
    ]
    #: variable -> (atom, column) for every column holding it
    occurrences: dict[str, list[tuple[int, tuple[str, int]]]] = {}
    for index, atom_columns in enumerate(columns):
        for column, name in atom_columns:
            if name is not None:
                occurrences.setdefault(name, []).append((index, column))
    #: (relation, position) -> ndv; the one-row delta's columns hold 1
    #: (as do an unknown relation's, which yields nothing)
    ndvs: dict[tuple[str, int], int] = {}
    selections: dict[tuple[int, tuple[int, ...]], tuple[Kernel | None, float]] = {}
    selectivities: dict[tuple[str, tuple], float] = {}

    def ndv(index: int, column: tuple[str, int]) -> int:
        if index == delta_atom or relations[index] is None:
            return 1
        value = ndvs.get(column)
        if value is None:
            value = ndvs[column] = max(relations[index].ndv_estimate(column[1]), 1)
        return value

    def selection(index: int, local: tuple[int, ...]) -> tuple[Kernel | None, float]:
        found = selections.get((index, local))
        if found is None:
            kernel = _local_kernel(atoms[index], comparisons, local)
            relation = relations[index]
            selectivity = 1.0
            if index != delta_atom and hasattr(relation, "selectivity_estimate"):
                # A selection shrinks what this atom hands on: weigh it,
                # so the join starts from the selective atom.
                key = (atoms[index].relation, kernel.key)
                selectivity = selectivities.get(key)
                if selectivity is None:
                    selectivity = relation.selectivity_estimate(kernel)
                    selectivities[key] = selectivity
            found = selections[index, local] = (kernel, selectivity)
        return found

    def estimate(index: int, placed: int, bound: frozenset) -> tuple:
        """(fan-out, local comparisons, their kernel, selectivity) of
        atom *index* after the atoms in *placed*, which bind *bound*."""
        local = ()
        kernel, selectivity = None, 1.0
        if candidates[index]:
            local = tuple(
                ci for ci, used in candidates[index] if used.isdisjoint(bound)
            )
            if local:
                kernel, selectivity = selection(index, local)
        relation = relations[index]
        if index == delta_atom or relation is None:
            # The delta is one row; an unknown relation fails at once.
            return (1.0 if index == delta_atom else 0.0), local, kernel, selectivity
        fan_out = float(len(relation))
        probed = []
        for column, name in columns[index]:
            if name is None:
                fan_out /= ndv(index, column)
            elif name in bound:
                # The variable's ndv: the smallest over the columns of
                # the placed atoms holding it.
                held = math.inf
                for other, at in occurrences[name]:
                    if placed >> other & 1:
                        held = min(held, ndv(other, at))
                fan_out /= max(ndv(index, column), held)
            else:
                continue
            probed.append(column[1])
        if relation.schema.key and set(relation.schema.key_positions()).issubset(
            probed
        ):
            fan_out = min(fan_out, 1.0)
        return fan_out * selectivity, local, kernel, selectivity

    best_cost = math.inf
    best: list[_Placed] = []

    def extend(
        remaining: tuple[int, ...],
        order: list[_Placed],
        rows: float,
        cost: float,
        placed: int,
        bound: frozenset,
    ) -> None:
        """Try every admissible next atom of *remaining* after *order*,
        whose atoms are the bits of *placed* and bind *bound*."""
        nonlocal best_cost, best
        if cost >= best_cost:
            return
        if not remaining:
            best_cost, best = cost, order
            return
        if not order and delta_atom is not None:
            choices = [delta_atom]
        else:
            choices = [
                i for i in remaining if not atom_vars[i].isdisjoint(bound)
            ] or remaining
        for index in choices:
            fan_out, local, kernel, selectivity = estimate(index, placed, bound)
            out = rows * fan_out
            extend(
                tuple(i for i in remaining if i != index),
                order + [(index, fan_out, out, local, kernel, selectivity)],
                out,
                cost + out,
                placed | 1 << index,
                bound | atom_vars[index],
            )

    extend(tuple(range(len(atoms))), [], 1.0, 0.0, 0, frozenset())
    return best


def compile_plan(
    body: Sequence[Atom],
    comparisons: Sequence[Comparison],
    output: Sequence[Term],
    *,
    view,
    delta_atom: int | None = None,
    fingerprint: tuple[int, ...] | None = None,
) -> JoinPlan:
    """Compile *body* (and *comparisons*) into a :class:`JoinPlan`.

    The atom order is fixed here: the left-deep order with the
    smallest estimated C_out, costed over every order of the body
    (:func:`_cheapest_order`).  *delta_atom* (a body index) is forced
    first, matching semi-naive evaluation's start-from-the-change
    discipline.  Compilation reads statistics only; it never mutates
    the store.
    """
    atoms = list(body)
    comparisons = tuple(comparisons)
    if delta_atom is not None and not 0 <= delta_atom < len(atoms):
        raise ValueError(f"delta_atom {delta_atom} out of range")
    if fingerprint is None:
        fingerprint = cardinality_fingerprint(
            view, sorted({atom.relation for atom in atoms})
        )
    atom_vars = [atom.variables() for atom in atoms]
    comparison_vars = [comparison.variables() for comparison in comparisons]
    order = _cheapest_order(
        atoms, atom_vars, comparisons, comparison_vars, view, delta_atom
    )

    # ---- compile the per-step templates -----------------------------
    ground = tuple(ci for ci, used in enumerate(comparison_vars) if not used)
    scheduled: set[int] = set(ground)
    bound: set[str] = set()
    steps: list[PlanStep] = []
    for choice, fan_out, rows, local, kernel, selectivity in order:
        atom = atoms[choice]
        is_delta = choice == delta_atom
        probe_positions: list[int] = []
        probe_sources: list[tuple[bool, object]] = []
        bind_slots: list[tuple[int, str]] = []
        same_row_checks: list[tuple[int, int]] = []
        const_checks: list[tuple[int, Value]] = []
        var_checks: list[tuple[int, str]] = []
        first_occurrence: dict[str, int] = {}
        for position, term in enumerate(atom.terms):
            if isinstance(term, Variable):
                name = term.name
                if name in bound:
                    if is_delta:
                        var_checks.append((position, name))
                    else:
                        probe_positions.append(position)
                        probe_sources.append((True, name))
                elif name in first_occurrence:
                    same_row_checks.append((position, first_occurrence[name]))
                else:
                    first_occurrence[name] = position
                    bind_slots.append((position, name))
            elif is_delta:
                const_checks.append((position, term))
            else:
                probe_positions.append(position)
                probe_sources.append((False, term))
        bound |= atom_vars[choice]
        comparison_indices = tuple(
            ci
            for ci, used in enumerate(comparison_vars)
            if ci not in scheduled and used <= bound
        )
        scheduled.update(comparison_indices)
        steps.append(
            PlanStep(
                atom_index=choice,
                relation=atom.relation,
                is_delta=is_delta,
                probe_positions=tuple(probe_positions),
                probe_sources=tuple(probe_sources),
                bind_slots=tuple(bind_slots),
                same_row_checks=tuple(same_row_checks),
                const_checks=tuple(const_checks),
                var_checks=tuple(var_checks),
                comparison_indices=comparison_indices,
                estimated_cost=fan_out,
                estimated_rows=rows,
                local_comparisons=local,
                local_kernel=kernel,
                selectivity=selectivity,
            )
        )
    return JoinPlan(
        steps=tuple(steps),
        comparisons=comparisons,
        ground_comparisons=ground,
        output=tuple(output),
        fingerprint=fingerprint,
        delta_atom=delta_atom,
        source_body=tuple(atoms),
    )


# ---------------------------------------------------------------------------
# SQL pushdown: translate a compiled plan into one parameterized SELECT
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SqlPlan:
    """A :class:`JoinPlan` translated to one parameterized SQL join.

    ``params`` are *unencoded* coDB values in statement order (the
    executing store owns the cell encoding); ``delta_arity`` names the
    temp table (:func:`delta_table_name`) a delta plan reads, ``None``
    for full plans.  ``empty_output`` marks a nullary projection (the
    SELECT list degenerates to ``1``; each fetched row stands for one
    satisfying assignment and decodes to ``()``).
    """

    sql: str
    params: tuple[Value, ...]
    delta_arity: int | None
    empty_output: bool


def compile_plan_sql(
    plan: JoinPlan, table_names: Sequence[str]
) -> SqlPlan | None:
    """Translate *plan* to SQL over the tables in *table_names*.

    Returns ``None`` — "run it in memory" — when a stored body relation
    has no table, or when the plan predates SQL support (no recorded
    source body).  The result is cached on the plan object, so a plan
    served repeatedly from a :class:`PlanCache` is translated once.
    """
    names = tuple(table_names)
    cache = plan._sql_cache
    if names in cache:
        return cache[names]
    sql_plan = _translate_plan(plan, frozenset(names))
    cache[names] = sql_plan
    return sql_plan


def _translate_plan(plan: JoinPlan, available: frozenset[str]) -> SqlPlan | None:
    atoms = plan.source_body
    if not atoms or not plan.steps:
        return None
    var_refs: dict[str, str] = {}
    from_parts: list[str] = []
    conditions: list[str] = []
    select_params: list[Value] = []
    where_params: list[Value] = []
    delta_arity: int | None = None

    for position_in_plan, step in enumerate(plan.steps):
        alias = f"t{position_in_plan}"
        if step.is_delta:
            delta_arity = len(atoms[step.atom_index].terms)
            from_parts.append(f'"{delta_table_name(delta_arity)}" AS {alias}')
        else:
            if step.relation not in available:
                return None
            from_parts.append(f'"{step.relation}" AS {alias}')
        for probe_position, (is_var, ref) in zip(
            step.probe_positions, step.probe_sources
        ):
            if is_var:
                conditions.append(f"{alias}.c{probe_position} = {var_refs[ref]}")
            else:
                conditions.append(f"{alias}.c{probe_position} = ?")
                where_params.append(ref)
        for check_position, constant in step.const_checks:
            conditions.append(f"{alias}.c{check_position} = ?")
            where_params.append(constant)
        for check_position, name in step.var_checks:
            conditions.append(f"{alias}.c{check_position} = {var_refs[name]}")
        for check_position, first_position in step.same_row_checks:
            conditions.append(f"{alias}.c{check_position} = {alias}.c{first_position}")
        for bind_position, name in step.bind_slots:
            var_refs[name] = f"{alias}.c{bind_position}"

    def operand(term: Term) -> str:
        if isinstance(term, Variable):
            return var_refs[term.name]
        where_params.append(term)
        return "?"

    # Every comparison — ground ones included — funnels through the
    # registered comparison function: encoded TEXT cells cannot be
    # order-compared (or null-compared) natively.
    for comparison in plan.comparisons:
        left = operand(comparison.left)
        right = operand(comparison.right)
        conditions.append(
            f"{SQL_COMPARE_FUNCTION}('{comparison.op}', {left}, {right})"
        )

    select_items: list[str] = []
    for is_var, ref in plan._output_ops:
        if is_var:
            select_items.append(var_refs[ref])
        else:
            select_items.append("?")
            select_params.append(ref)
    empty_output = not select_items
    if empty_output:
        select_items = ["1"]

    sql = (
        f"SELECT {', '.join(select_items)} FROM {' CROSS JOIN '.join(from_parts)}"
    )
    if conditions:
        sql += " WHERE " + " AND ".join(conditions)
    return SqlPlan(
        sql=sql,
        params=tuple(select_params) + tuple(where_params),
        delta_arity=delta_arity,
        empty_output=empty_output,
    )


class PlanRegistry:
    """Network-level shared store of compiled plans (ROADMAP item).

    Super-peer broadcast ships the same rule file to every node, so
    sibling nodes routinely hold *structurally identical* rule bodies
    (same atoms, comparisons and projection over same-named local
    relations).  Compiling that body once per node wastes N-1 compiles;
    this registry lets every :class:`PlanCache` wired to it adopt a
    plan a sibling already compiled.

    Keyed on ``(structure, backend kind, cardinality fingerprint,
    delta atom)``: the structure key makes adoption semantically safe
    (a plan only encodes its body/comparisons/output), the backend
    kind separates executor families, and the coarse per-relation
    order-of-magnitude fingerprint keeps adopted join orders within
    the same cost regime the compiler would have chosen.  Lock-guarded:
    over TCP every node's delivery thread plans concurrently.

    Bounded FIFO like :class:`PlanCache` (cardinality drift keeps
    minting new fingerprint keys on a long-lived network; superseded
    regimes must not accumulate forever), just larger — it serves
    every node's cache at once.
    """

    def __init__(self, max_plans: int = 4096) -> None:
        self.max_plans = max_plans
        self._lock = threading.Lock()
        self._plans: dict[tuple, JoinPlan] = {}
        #: Plans compiled and published by some member cache.
        self.publishes = 0
        #: Cache misses served by a sibling's published plan.
        self.adoptions = 0

    def __len__(self) -> int:
        return len(self._plans)

    def adopt(self, key: tuple) -> "JoinPlan | None":
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self.adoptions += 1
            return plan

    def publish(self, key: tuple, plan: JoinPlan) -> None:
        # One lookup of the (deeply hashed) key: first publish wins.
        with self._lock:
            if self._plans.setdefault(key, plan) is not plan:
                return
            self.publishes += 1
            if len(self._plans) > self.max_plans:
                self._plans.pop(next(iter(self._plans)))


class PlanCache:
    """Per-wrapper cache of compiled plans, fingerprint-invalidated.

    Bounded FIFO: when full, the oldest entry is evicted.  ``hits`` /
    ``misses`` / ``replans`` are exposed for tests and benchmarks.
    Optionally wired (:meth:`share_with`) to a network-level
    :class:`PlanRegistry`, in which case a local miss first tries to
    adopt a structurally identical plan compiled by a sibling cache
    (``shared_hits`` counts those).
    """

    def __init__(self, max_plans: int = 512) -> None:
        self.max_plans = max_plans
        self._plans: dict[PlanKey, JoinPlan] = {}
        self.hits = 0
        self.misses = 0
        self.replans = 0
        self.shared_hits = 0
        self.registry: PlanRegistry | None = None
        self.backend_kind = "memory"

    def share_with(self, registry: PlanRegistry, backend_kind: str) -> None:
        """Join *registry*: publish compiled plans, adopt siblings'."""
        self.registry = registry
        self.backend_kind = backend_kind

    def __len__(self) -> int:
        return len(self._plans)

    def clear(self) -> None:
        self._plans.clear()

    def plan(
        self,
        view,
        key: PlanKey,
        body: Sequence[Atom],
        comparisons: Sequence[Comparison],
        output: Sequence[Term],
        *,
        delta_atom: int | None = None,
    ) -> JoinPlan:
        """The cached plan for *key*, recompiled on fingerprint drift.

        A hit additionally requires the cached plan to have been
        compiled from the *same* body/comparisons/output — a caller
        reusing a rule key for a different query must get a fresh
        plan, never another rule's answers.

        A forced join order — one atom, or a delta occurrence and one
        more — has nothing to re-cost when cardinalities drift: such a
        plan is keyed without a fingerprint and never replanned (its
        estimates describe the data it was first compiled on).
        """
        if len(body) - (delta_atom is not None) <= 1:
            fingerprint: tuple[int, ...] = ()
        else:
            relation_names = sorted({atom.relation for atom in body})
            fingerprint = cardinality_fingerprint(view, relation_names)
        cached = self._plans.get(key)
        if cached is not None:
            if (
                cached.fingerprint == fingerprint
                and cached.source_body == tuple(body)
                and cached.comparisons == tuple(comparisons)
                and cached.output == tuple(output)
            ):
                self.hits += 1
                return cached
            self.replans += 1
        else:
            self.misses += 1
        plan = None
        shared_key: tuple | None = None
        if self.registry is not None:
            shared_key = (
                tuple(body),
                tuple(comparisons),
                tuple(output),
                delta_atom,
                self.backend_kind,
                fingerprint,
            )
            plan = self.registry.adopt(shared_key)
            if plan is not None:
                self.shared_hits += 1
        if plan is None:
            plan = compile_plan(
                body,
                comparisons,
                output,
                view=view,
                delta_atom=delta_atom,
                fingerprint=fingerprint,
            )
            if self.registry is not None and shared_key is not None:
                self.registry.publish(shared_key, plan)
        if key not in self._plans and len(self._plans) >= self.max_plans:
            self._plans.pop(next(iter(self._plans)))
        self._plans[key] = plan
        return plan


# ---------------------------------------------------------------------------
# Planned counterparts of the evaluator's three entry points
# ---------------------------------------------------------------------------


def _plan_rows(
    plan: JoinPlan,
    view,
    executor,
    delta_rows: Sequence[Row] | None = None,
):
    """Rows of *plan*: through *executor* (pushdown) when it accepts
    the plan, else the in-memory :meth:`JoinPlan.execute` loop."""
    if executor is not None:
        rows = executor(plan, delta_rows)
        if rows is not None:
            return rows
    return plan.execute(view, delta_rows=delta_rows)


def evaluate_query_planned(
    view,
    query: ConjunctiveQuery,
    cache: PlanCache,
    *,
    rule_key: object | None = None,
    executor=None,
) -> list[Row]:
    """All distinct answers to *query*, via a compiled plan.

    Must agree with :func:`repro.relational.evaluation.evaluate_query`
    up to answer order; the differential tests enforce exactly that.
    *executor* optionally pushes plan execution down to a backend (see
    :data:`PlanExecutor`); answers must be identical either way.
    """
    base = rule_key if rule_key is not None else query
    plan = cache.plan(view, (base, None, None), query.body, query.comparisons, query.head.terms)
    seen: dict[tuple, Row] = {}
    for row in _plan_rows(plan, view, executor):
        seen.setdefault(row_key(row), row)
    return list(seen.values())


def evaluate_query_delta_planned(
    view,
    query: ConjunctiveQuery,
    changed_relation: str,
    delta_rows: Sequence[Row],
    cache: PlanCache,
    *,
    rule_key: object | None = None,
    executor=None,
) -> list[Row]:
    """Semi-naive answers via per-occurrence delta plans.

    One plan per body occurrence of *changed_relation* (that occurrence
    ranges over *delta_rows* and runs first); the union of their
    answers matches the interpreter's
    :func:`~repro.relational.evaluation.evaluate_query_delta`.
    """
    if not delta_rows:
        return []
    base = rule_key if rule_key is not None else query
    seen: dict[tuple, Row] = {}
    for occurrence, atom in enumerate(query.body):
        if atom.relation != changed_relation:
            continue
        plan = cache.plan(
            view,
            (base, changed_relation, occurrence),
            query.body,
            query.comparisons,
            query.head.terms,
            delta_atom=occurrence,
        )
        for row in _plan_rows(plan, view, executor, delta_rows):
            seen.setdefault(row_key(row), row)
    return list(seen.values())


def evaluate_mapping_bindings_planned(
    view,
    mapping: GlavMapping,
    cache: PlanCache,
    *,
    changed_relation: str | None = None,
    delta_rows: Sequence[Row] | None = None,
    rule_key: object | None = None,
    executor=None,
) -> dict[tuple, Row]:
    """Frontier bindings of a GLAV mapping, full or semi-naive, planned.

    The plan projects straight onto the sorted frontier, so a binding
    is a bare tuple of frontier values in that order, and dedup (one
    rule firing per distinct frontier assignment) happens on those.
    Returns ``{row key: frontier row}`` in first-derivation order: the
    keys the dedup computed are the keys every set downstream (sent,
    delivered, fired) holds, so a row is keyed once per hop.
    """
    output = tuple(Variable(name) for name in sorted(mapping.frontier_variables()))
    base = rule_key if rule_key is not None else mapping
    seen: dict[tuple, Row] = {}
    if changed_relation is None:
        plans = [
            (
                cache.plan(
                    view, (base, None, None), mapping.body, mapping.comparisons, output
                ),
                None,
            )
        ]
    else:
        if not delta_rows:
            return seen
        plans = [
            (
                cache.plan(
                    view,
                    (base, changed_relation, occurrence),
                    mapping.body,
                    mapping.comparisons,
                    output,
                    delta_atom=occurrence,
                ),
                delta_rows,
            )
            for occurrence, atom in enumerate(mapping.body)
            if atom.relation == changed_relation
        ]
    for plan, rows in plans:
        for projected in _plan_rows(plan, view, executor, rows):
            seen.setdefault(row_key(projected), projected)
    return seen

"""Conjunctive-query evaluation: joins, head application, deltas.

Three entry points, all used by the coDB protocol layers:

* :func:`evaluate_body` — enumerate satisfying bindings of a body
  (atoms + comparisons) over a database, with greedy join ordering and
  index probes.
* :func:`evaluate_query` / :func:`evaluate_query_delta` — full and
  semi-naive evaluation producing answer rows.  The delta variant is
  the paper's "incoming links, which are dependent on O, are computed
  by substituting R by T'" (§3): one body occurrence of the changed
  relation ranges over the delta only, every other atom over the full
  relation, unioned over all occurrences.
* :func:`apply_head` — turn body bindings into head facts, minting one
  fresh marked null per existential head variable per firing;
  :func:`compile_head` is the same step compiled once per rule for
  positional frontier rows (what the protocol layers ship).

This module is the *interpreter*: join order is re-chosen greedily at
every recursion level.  The hot protocol paths run the compiled plans
of :mod:`repro.relational.planner` instead (via the storage wrappers),
on whichever executor the wrapper dispatches — row-at-a-time,
columnar batch-at-a-time, or SQL pushdown; the interpreter stays as
the semantics reference and differential-testing oracle for all of
them (``tests/relational/test_pushdown.py`` holds the four ways
equal).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from operator import itemgetter

from repro.relational.comparisons import compile_for_bindings
from repro.relational.conjunctive import (
    Atom,
    Comparison,
    ConjunctiveQuery,
    GlavMapping,
    Variable,
)
from repro.relational.database import Database
from repro.relational.nulls import NullFactory
from repro.relational.storage import Relation
from repro.relational.values import Row, Value, row_key, same_value, value_key

Binding = dict[str, Value]


def _atom_lookup_bindings(atom: Atom, binding: Mapping[str, Value]) -> dict[int, Value]:
    """Positional equality constraints for *atom* under *binding*.

    Always returns a dict (possibly empty): constants and *bound*
    variables contribute an equality constraint per position; a
    variable repeated in several still-unbound positions (``edge(x,
    x)`` with ``x`` free) contributes nothing here and is checked row
    by row in :func:`_match_row`.  When the repeated variable *is*
    bound, every one of its positions is constrained — the index-probe
    path then only returns rows already satisfying the repetition.
    """
    positions: dict[int, Value] = {}
    for i, term in enumerate(atom.terms):
        if isinstance(term, Variable):
            if term.name in binding:
                positions[i] = binding[term.name]
        else:
            positions[i] = term
    return positions


def _match_row(atom: Atom, row: Row, binding: Binding) -> Binding | None:
    """Extend *binding* so that *atom* matches *row*, or ``None``.

    Handles repeated variables within the atom (``edge(x, x)``) and
    constants; bound variables must agree with the row.
    """
    extension: Binding = {}
    for term, value in zip(atom.terms, row):
        if isinstance(term, Variable):
            existing = binding.get(term.name, extension.get(term.name, _UNSET))
            if existing is _UNSET:
                extension[term.name] = value
            elif not same_value(existing, value):
                return None
        elif not same_value(term, value):
            return None
    return extension


class _Unset:
    __slots__ = ()


_UNSET = _Unset()


def _choose_next_atom(
    remaining: list[int],
    atoms: Sequence[Atom],
    relations: Mapping[str, Relation],
    bound: set[str],
    *,
    forced_first: int | None,
) -> int:
    """Greedy join ordering: pick the cheapest remaining atom.

    Cost model: number of rows the index probe is expected to return
    (``estimated_matches`` over the bound positions).  The delta atom,
    when present, is forced first — semi-naive evaluation always starts
    from the change.
    """
    if forced_first is not None and forced_first in remaining:
        return forced_first
    best_index = remaining[0]
    best_cost = float("inf")
    for index in remaining:
        atom = atoms[index]
        bound_positions = [
            i
            for i, term in enumerate(atom.terms)
            if not isinstance(term, Variable) or term.name in bound
        ]
        relation = relations.get(atom.relation)
        if relation is None:
            cost = 0.0  # empty/unknown: fails immediately, cheap to try
        else:
            cost = relation.estimated_matches(bound_positions)
        if cost < best_cost:
            best_cost = cost
            best_index = index
    return best_index


def evaluate_body(
    database: Database,
    body: Sequence[Atom],
    comparisons: Sequence[Comparison] = (),
    *,
    delta_atom: int | None = None,
    delta_rows: Sequence[Row] | None = None,
    initial_binding: Mapping[str, Value] | None = None,
) -> Iterator[Binding]:
    """Enumerate bindings satisfying ``body ∧ comparisons`` over *database*.

    Parameters
    ----------
    delta_atom, delta_rows:
        When given, the atom at index *delta_atom* ranges over
        *delta_rows* instead of its stored relation (semi-naive mode).
    initial_binding:
        Pre-bound variables (used by the query answerer to push
        selections down).

    Yields
    ------
    dict
        One binding per satisfying assignment, including every body
        variable.  Duplicate bindings may be yielded (projection and
        set semantics happen at head application).
    """
    comparisons = tuple(comparisons)
    # (variables, predicate over a binding dict) per comparison,
    # compiled once for the whole enumeration.
    checks = [
        (comparison.variables(), kernel.row)
        for comparison, kernel in zip(
            comparisons, compile_for_bindings(comparisons)
        )
    ]
    relations = {name: database.relation(name) for name in database.relation_names}
    atoms = list(body)

    def recurse(remaining: list[int], binding: Binding, checked: set[int]) -> Iterator[Binding]:
        if not remaining:
            yield dict(binding)
            return
        index = _choose_next_atom(
            remaining,
            atoms,
            relations,
            set(binding),
            forced_first=delta_atom,
        )
        atom = atoms[index]
        rest = [i for i in remaining if i != index]

        if index == delta_atom and delta_rows is not None:
            candidate_rows: Iterable[Row] = delta_rows
        else:
            relation = relations.get(atom.relation)
            if relation is None:
                return
            candidate_rows = relation.lookup(_atom_lookup_bindings(atom, binding))

        for row in candidate_rows:
            extension = _match_row(atom, row, binding)
            if extension is None:
                continue
            binding.update(extension)
            ok = True
            newly_checked: list[int] = []
            for ci, (names, holds) in enumerate(checks):
                if ci in checked:
                    continue
                if names <= binding.keys():
                    newly_checked.append(ci)
                    if not holds(binding):
                        ok = False
                        break
            if ok:
                checked.update(newly_checked)
                yield from recurse(rest, binding, checked)
                checked.difference_update(newly_checked)
            for name in extension:
                del binding[name]

    base: Binding = dict(initial_binding or {})
    # Ground comparisons (no variables, or only pre-bound ones) first.
    pre_checked: set[int] = set()
    for ci, (names, holds) in enumerate(checks):
        if names <= base.keys():
            pre_checked.add(ci)
            if not holds(base):
                return
    yield from recurse(list(range(len(atoms))), base, pre_checked)


def project_head_row(head: Atom, binding: Mapping[str, Value]) -> Row:
    """The answer row for *head* under *binding* (all variables bound)."""
    row = []
    for term in head.terms:
        if isinstance(term, Variable):
            row.append(binding[term.name])
        else:
            row.append(term)
    return tuple(row)


def evaluate_query(
    database: Database, query: ConjunctiveQuery
) -> list[Row]:
    """All distinct answers to *query* over *database*, in first-seen order."""
    seen: dict[tuple, Row] = {}
    for binding in evaluate_body(database, query.body, query.comparisons):
        answer = project_head_row(query.head, binding)
        seen.setdefault(row_key(answer), answer)
    return list(seen.values())


def evaluate_query_delta(
    database: Database,
    query: ConjunctiveQuery,
    changed_relation: str,
    delta_rows: Sequence[Row],
) -> list[Row]:
    """Semi-naive answers: only derivations using at least one delta row.

    For each body occurrence of *changed_relation*, evaluate with that
    occurrence restricted to *delta_rows*; union the results.  Sound
    and complete for the *new* derivations of a monotone CQ (it may
    also re-derive old answers when the delta joins with old rows of
    the same relation at another occurrence; the caller's sent-set
    dedup — the paper's "delete from Ri those tuples which have been
    already sent" — absorbs those).
    """
    if not delta_rows:
        return []
    seen: dict[tuple, Row] = {}
    occurrences = [
        i for i, atom in enumerate(query.body) if atom.relation == changed_relation
    ]
    for occurrence in occurrences:
        for binding in evaluate_body(
            database,
            query.body,
            query.comparisons,
            delta_atom=occurrence,
            delta_rows=delta_rows,
        ):
            answer = project_head_row(query.head, binding)
            seen.setdefault(row_key(answer), answer)
    return list(seen.values())


def evaluate_mapping_bindings(
    database: Database,
    mapping: GlavMapping,
    *,
    changed_relation: str | None = None,
    delta_rows: Sequence[Row] | None = None,
) -> list[Binding]:
    """Body bindings of a GLAV mapping, full or semi-naive.

    Only the *frontier* (body∩head) variables matter downstream, so
    bindings are deduplicated on the frontier — one rule firing per
    distinct frontier assignment, which is exactly the granularity at
    which fresh nulls must be minted.
    """
    frontier = sorted(mapping.frontier_variables())
    seen: dict[tuple, dict] = {}
    if changed_relation is None:
        iterators = [
            evaluate_body(database, mapping.body, mapping.comparisons)
        ]
    else:
        if not delta_rows:
            return []
        iterators = [
            evaluate_body(
                database,
                mapping.body,
                mapping.comparisons,
                delta_atom=i,
                delta_rows=delta_rows,
            )
            for i, atom in enumerate(mapping.body)
            if atom.relation == changed_relation
        ]
    for iterator in iterators:
        for binding in iterator:
            key = tuple(value_key(binding[name]) for name in frontier)
            if key not in seen:
                seen[key] = {name: binding[name] for name in frontier}
    return list(seen.values())


def apply_head(
    mapping: GlavMapping,
    bindings: Iterable[Binding],
    null_factory: NullFactory,
) -> list[tuple[str, Row]]:
    """Instantiate the head of *mapping* for every frontier binding.

    For each binding, every existential head variable gets one fresh
    marked null, shared across all head atoms of that firing — "fresh
    new marked null values are used in tuples of T'" (§3).

    Returns ``(relation, row)`` pairs in deterministic order; the
    caller inserts them with dedup.
    """
    existentials = sorted(mapping.existential_head_variables())
    facts: list[tuple[str, Row]] = []
    for binding in bindings:
        full_binding = dict(binding)
        if existentials:
            full_binding.update(null_factory.fresh_for(existentials))
        for atom in mapping.head:
            facts.append((atom.relation, project_head_row(atom, full_binding)))
    return facts


def _picker(picks: Sequence[int]) -> Callable[[tuple], tuple]:
    """``values -> tuple of values[i] for i in picks``; ``itemgetter``
    where it returns a tuple (it hands back a bare value for one pick
    and refuses none)."""
    if len(picks) > 1:
        return itemgetter(*picks)
    return lambda values: tuple(values[i] for i in picks)


def compile_head(
    mapping: GlavMapping, frontier: Sequence[str]
) -> Callable[[Iterable[Row], NullFactory], list[tuple[str, Row]]]:
    """:func:`apply_head` for rows of *frontier* values, compiled once.

    The returned ``fire(rows, null_factory)`` instantiates the head for
    every frontier row — the same facts, in the same order, minting the
    same nulls as :func:`apply_head` over the equivalent binding dicts —
    but each head atom is one positional pick out of ``row + fresh
    nulls + head constants``, with no per-row dictionary.
    """
    existentials = sorted(mapping.existential_head_variables())
    slots = {name: i for i, name in enumerate((*frontier, *existentials))}
    constants: list[Value] = []
    atoms = []
    for atom in mapping.head:
        picks = []
        for term in atom.terms:
            if isinstance(term, Variable):
                picks.append(slots[term.name])
            else:
                picks.append(len(slots) + len(constants))
                constants.append(term)
        atoms.append((atom.relation, _picker(picks)))
    tail = tuple(constants)

    def fire(
        rows: Iterable[Row], null_factory: NullFactory
    ) -> list[tuple[str, Row]]:
        facts: list[tuple[str, Row]] = []
        for row in rows:
            values = row
            if existentials:
                values += tuple(null_factory.fresh() for _ in existentials)
            if tail:
                values += tail
            for relation, project in atoms:
                facts.append((relation, project(values)))
        return facts

    return fire

"""Homomorphism machinery: CQ containment and tuple subsumption.

Two uses inside coDB:

* **Query containment** (:func:`is_contained_in`) — classic canonical-
  database check (Chandra & Merlin): freeze the contained query's
  variables into fresh constants, evaluate the containing query over
  that canonical instance, and test whether the frozen head appears.
  The query answerer uses it to skip redundant rule evaluations, and
  tests use it as an oracle.
* **Tuple subsumption** (:func:`tuple_subsumed`) — a tuple containing
  marked nulls is subsumed by a stored tuple when some mapping of its
  nulls (constants fixed, consistent across positions) turns it into
  the stored tuple.  The optional ``subsumption`` dedup mode of the
  update algorithm uses this to tame null proliferation with
  non-weakly-acyclic rule sets (a per-tuple restricted-chase check; it
  under-approximates full instance-level homomorphism, which is all
  that soundness needs — we may keep a redundant tuple, never drop a
  necessary one).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

from repro.relational.conjunctive import (
    Atom,
    ConjunctiveQuery,
    Variable,
)
from repro.relational.database import Database
from repro.relational.evaluation import evaluate_body, project_head_row
from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.relational.storage import Relation
from repro.relational.values import MarkedNull, Row, Value, same_value


def find_homomorphism(
    source_atoms: Sequence[Atom],
    target_facts: Iterable[tuple[str, Row]],
    *,
    fixed: Mapping[str, Value] | None = None,
) -> dict[str, Value] | None:
    """A variable mapping sending every source atom into the target facts.

    Parameters
    ----------
    source_atoms:
        Atoms whose variables we try to map.
    target_facts:
        Ground ``(relation, row)`` facts to map into.
    fixed:
        Pre-committed variable assignments (e.g. head variables pinned
        to the frozen head during containment checks).

    Returns the homomorphism as a dict, or ``None``.
    """
    by_relation: dict[str, list[Row]] = {}
    for relation, row in target_facts:
        by_relation.setdefault(relation, []).append(row)

    atoms = sorted(source_atoms, key=lambda a: len(by_relation.get(a.relation, ())))
    assignment: dict[str, Value] = dict(fixed or {})

    def extend(index: int) -> bool:
        if index == len(atoms):
            return True
        atom = atoms[index]
        for row in by_relation.get(atom.relation, ()):
            if len(row) != atom.arity:
                continue
            added: list[str] = []
            ok = True
            for term, value in zip(atom.terms, row):
                if isinstance(term, Variable):
                    bound = assignment.get(term.name, _UNSET)
                    if bound is _UNSET:
                        assignment[term.name] = value
                        added.append(term.name)
                    elif not same_value(bound, value):
                        ok = False
                        break
                elif not same_value(term, value):
                    ok = False
                    break
            if ok and extend(index + 1):
                return True
            for name in added:
                del assignment[name]
        return False

    if extend(0):
        return dict(assignment)
    return None


class _Unset:
    __slots__ = ()


_UNSET = _Unset()


def freeze_query(query: ConjunctiveQuery) -> tuple[list[tuple[str, Row]], Row]:
    """The canonical instance of *query* and its frozen head row.

    Every variable ``x`` becomes the fresh constant ``"⟪x⟫"``
    (mathematical angle brackets, which no user constant contains).
    """
    def freeze_term(term) -> Value:
        if isinstance(term, Variable):
            return f"⟪{term.name}⟫"
        return term

    facts = [
        (atom.relation, tuple(freeze_term(t) for t in atom.terms))
        for atom in query.body
    ]
    head = tuple(freeze_term(t) for t in query.head.terms)
    return facts, head


def _canonical_database(facts: Sequence[tuple[str, Row]]) -> Database:
    schema = DatabaseSchema()
    arities: dict[str, int] = {}
    for relation, row in facts:
        arities.setdefault(relation, len(row))
    for relation, arity in arities.items():
        schema.add(
            RelationSchema.of(relation, [f"c{i}" for i in range(arity)])
        )
    database = Database(schema)
    for relation, row in facts:
        database.insert(relation, row)
    return database


def is_contained_in(
    query: ConjunctiveQuery, other: ConjunctiveQuery
) -> bool:
    """Whether ``query ⊆ other`` over every database (no comparisons).

    Comparison predicates make containment harder than the pure CQ
    case; this implementation is exact for comparison-free queries and
    *conservative* otherwise (it ignores the comparisons of *query*
    and requires those of *other* to hold on the canonical instance,
    so a ``True`` answer is always correct, a ``False`` answer may be
    a false negative).
    """
    if query.head.arity != other.head.arity:
        return False
    facts, frozen_head = freeze_query(query)
    database = _canonical_database(facts)
    for binding in evaluate_body(database, other.body, other.comparisons):
        if project_head_row(other.head, binding) == frozen_head:
            return True
    return False


def is_equivalent_to(query: ConjunctiveQuery, other: ConjunctiveQuery) -> bool:
    """Mutual containment (comparison-free exactness caveat applies)."""
    return is_contained_in(query, other) and is_contained_in(other, query)


def tuple_subsumed(candidate: Row, relation: Relation) -> bool:
    """Whether *candidate* is subsumed by a row already in *relation*.

    A stored row ``s`` subsumes ``candidate`` when there is a mapping
    ``h`` of candidate's marked nulls to values (constants fixed,
    consistent: the same null maps to the same value everywhere) with
    ``h(candidate) = s``.  A candidate with no nulls is subsumed only
    by itself.
    """
    null_positions = [
        i for i, value in enumerate(candidate) if isinstance(value, MarkedNull)
    ]
    if not null_positions:
        return tuple(candidate) in relation

    # Probe with the constant positions bound; check nulls per row.
    bindings = {
        i: value
        for i, value in enumerate(candidate)
        if not isinstance(value, MarkedNull)
    }
    for stored in relation.lookup(bindings):
        mapping: dict[MarkedNull, Value] = {}
        ok = True
        for i in null_positions:
            null = candidate[i]
            assert isinstance(null, MarkedNull)
            bound = mapping.get(null, _UNSET)
            if bound is _UNSET:
                mapping[null] = stored[i]
            elif not same_value(bound, stored[i]):
                ok = False
                break
        if ok:
            return True
    return False


def _null_blind_shape(row: Row) -> tuple:
    """Row fingerprint treating every null alike (constants typed)."""
    from repro.relational.values import value_key

    return tuple(
        ("∅",) if isinstance(v, MarkedNull) else (0, value_key(v)) for v in row
    )


def rows_equal_up_to_nulls(
    left: Iterable[Row], right: Iterable[Row]
) -> bool:
    """Whether two row sets are isomorphic up to a renaming of nulls.

    Used when comparing a distributed run against the centralised
    ground truth (and a concurrent multi-update run against its
    sequential twin): both compute the same certain facts, but mint
    different null labels.  We search for a *bijection* between the
    null sets that maps one row set onto the other.

    Scales to large instances: null-free rows are compared as plain
    multisets up front, and the bijection search runs only over the
    null-carrying remainder, candidate-bucketed by null-blind shape,
    with an explicit stack (no recursion-depth ceiling).
    """
    from collections import Counter

    from repro.relational.values import row_keys

    left_rows = list(left)
    right_rows = list(right)
    if len(left_rows) != len(right_rows):
        return False

    def split(rows: list[Row]) -> tuple[list[Row], list[Row]]:
        """(rows carrying a null, null-free rows), each side once."""
        with_nulls: list[Row] = []
        ground: list[Row] = []
        for row in rows:
            if any(isinstance(v, MarkedNull) for v in row):
                with_nulls.append(row)
            else:
                ground.append(row)
        return with_nulls, ground

    left_nulls, left_ground = split(left_rows)
    right_nulls, right_ground = split(right_rows)
    if len(left_nulls) != len(right_nulls):
        return False
    if Counter(row_keys(left_ground)) != Counter(row_keys(right_ground)):
        return False
    if not left_nulls:
        return True

    # Candidates for each left row: right rows of the same null-blind
    # shape (anything else cannot match under any renaming).
    buckets: dict[tuple, list[int]] = {}
    for j, row in enumerate(right_nulls):
        buckets.setdefault(_null_blind_shape(row), []).append(j)
    candidates: list[list[int]] = []
    for row in left_nulls:
        bucket = buckets.get(_null_blind_shape(row))
        if not bucket:
            return False
        candidates.append(bucket)

    mapping: dict[MarkedNull, MarkedNull] = {}
    inverse: dict[MarkedNull, MarkedNull] = {}
    used = [False] * len(right_nulls)

    def row_maps(row: Row, target: Row) -> list[tuple[MarkedNull, MarkedNull]] | None:
        additions: list[tuple[MarkedNull, MarkedNull]] = []
        staged: dict[MarkedNull, MarkedNull] = {}
        staged_inv: dict[MarkedNull, MarkedNull] = {}
        for a, b in zip(row, target):
            if not isinstance(a, MarkedNull):
                continue  # shape pre-check matched the constants already
            assert isinstance(b, MarkedNull)
            current = mapping.get(a, staged.get(a))
            if current is not None:
                if current != b:
                    return None
            else:
                reverse = inverse.get(b, staged_inv.get(b))
                if reverse is not None and reverse != a:
                    return None
                staged[a] = b
                staged_inv[b] = a
                additions.append((a, b))
        return additions

    # Iterative depth-first search: one frame per left row, an explicit
    # stack instead of recursion so row counts beyond the interpreter's
    # recursion limit stay comparable.
    frames: list[tuple[int, int, list[tuple[MarkedNull, MarkedNull]]]] = []
    index = 0
    next_candidate = 0
    while True:
        if index == len(left_nulls):
            return True
        row = left_nulls[index]
        advanced = False
        bucket = candidates[index]
        while next_candidate < len(bucket):
            j = bucket[next_candidate]
            next_candidate += 1
            if used[j]:
                continue
            additions = row_maps(row, right_nulls[j])
            if additions is None:
                continue
            used[j] = True
            for a, b in additions:
                mapping[a] = b
                inverse[b] = a
            frames.append((j, next_candidate, additions))
            index += 1
            next_candidate = 0
            advanced = True
            break
        if advanced:
            continue
        if not frames:
            return False
        j, next_candidate, additions = frames.pop()
        used[j] = False
        for a, b in additions:
            del mapping[a]
            del inverse[b]
        index -= 1

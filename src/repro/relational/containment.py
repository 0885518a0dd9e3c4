"""Null-aware row comparison: tuple subsumption and equality up to
null renaming.

* **Tuple subsumption** (:func:`tuple_subsumed`) — a tuple containing
  marked nulls is subsumed by a stored tuple when some mapping of its
  nulls (constants fixed, consistent across positions) turns it into
  the stored tuple.  The optional ``subsumption`` dedup mode of the
  update algorithm uses this to tame null proliferation with
  non-weakly-acyclic rule sets (a per-tuple restricted-chase check; it
  under-approximates full instance-level homomorphism, which is all
  that soundness needs — we may keep a redundant tuple, never drop a
  necessary one).
* **Equality up to null renaming** (:func:`rows_equal_up_to_nulls`) —
  the oracle that compares a distributed run with the centralised
  chase: both compute the same certain facts under different labels.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.relational.storage import Relation
from repro.relational.values import MarkedNull, Row, Value, same_value


class _Unset:
    __slots__ = ()


_UNSET = _Unset()


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

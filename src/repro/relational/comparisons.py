"""Evaluation of comparison predicates, with marked-null semantics.

Comparisons in rule bodies "specify constraints over the domain of
particular attributes" (§2).  Two distinct relations are at work, on
purpose:

* ``=`` / ``!=`` test **value identity** — the type-strict relation of
  :func:`repro.relational.values.same_value`, the same identity that
  governs joins, storage dedup and the injective cell encoding.
  ``3 = 3.0`` is false: an int and a float are different values.
* ``<`` / ``<=`` / ``>`` / ``>=`` are **numeric/lexicographic domain
  constraints**: ints and floats order together on the number line
  (``x >= 100`` must admit ``100.5`` regardless of the literal's
  type), strings order among themselves, bools among themselves.

The seam between the two shows only at cross-type numeric *ties*:
``3 <= 3.0`` and ``3 >= 3.0`` both hold (numerically) while ``3 =
3.0`` does not (distinct values).  That asymmetry is specified, pinned
by tests, and preferable to either alternative — identity-based order
would silently empty ``price >= 100`` over float columns, and numeric
equality would contradict join/storage identity.

Constants compare per the above; marked nulls need care:

* ``null = null`` holds iff the labels coincide (the same unknown
  value), and ``null = constant`` never holds — a null is *some*
  value, but the system cannot assert which, so under certain-answer
  semantics the comparison is not certainly true.
* Order comparisons (``<``, ``<=``, ``>``, ``>=``) involving any null
  are never certainly true, hence evaluate to ``False``.
* ``!=`` is the negation of certain equality **only** for two
  constants; for nulls we again require certainty: ``null != x`` holds
  only when ``x`` is a *different* null?  No — two distinct nulls may
  still denote the same value, so that is not certain either.  The
  conservative rule: ``!=`` holds iff both sides are constants and
  differ.

This "certain semantics" keeps the update algorithm sound: a tuple is
only materialised when the paper's semantics guarantees it.

:func:`compare_values` is the single definition of all of the above.
Executors do not interpret it per row: :func:`compile_comparison`
turns a comparison into a :class:`Kernel` once per plan, which runs the
bare Python operator wherever the operand types make that operator
coincide with :func:`compare_values` and falls back to it elsewhere.
"""

from __future__ import annotations

import operator
from collections.abc import Callable, Mapping, Sequence
from itertools import compress, repeat
from typing import NamedTuple

from repro.errors import QueryError
from repro.relational.conjunctive import Comparison, Variable
from repro.relational.values import MarkedNull, Value, same_value, value_key


def _comparable(left: Value, right: Value) -> bool:
    """Whether ``<``-style operators are meaningful for these constants.

    Order is a *domain* relation (module docstring): mixed int/float
    pairs order numerically even though they are never identical under
    ``=``.  Bools and strings order only among themselves.
    """
    if isinstance(left, bool) or isinstance(right, bool):
        return isinstance(left, bool) and isinstance(right, bool)
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        return True
    return isinstance(left, str) and isinstance(right, str)


def compare_values(op: str, left: Value, right: Value) -> bool:
    """Apply one comparison operator to two resolved values.

    This is the single implementation of the certain-answer comparison
    semantics: the kernels of :func:`compile_comparison` are pinned to
    it, and the SQLite pushdown path registers this function on the
    connection (see :class:`repro.relational.wrapper.SqliteStore`), so
    every executor shares one definition.
    """
    left_null = isinstance(left, MarkedNull)
    right_null = isinstance(right, MarkedNull)

    if op == "=":
        if left_null or right_null:
            return left_null and right_null and left == right
        return _constants_equal(left, right)
    if op == "!=":
        if left_null or right_null:
            return False
        return not _constants_equal(left, right)

    # Order comparisons: never certain with nulls or mixed types.
    if left_null or right_null or not _comparable(left, right):
        return False
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    raise QueryError(f"unknown comparison operator {op!r}")


def _constants_equal(left: Value, right: Value) -> bool:
    """Equality for constants is coDB value identity: type-strict.

    One identity relation is used everywhere — storage dedup, index
    probes, frontier sets and comparison predicates — and it is
    :func:`repro.relational.values.same_value`: equal iff same concrete
    type and ``==``.  Consequence: ``3 = 3.0`` and ``1 = true`` do
    *not* hold, matching the injective type-tagged cell encoding of the
    SQLite backend, so untyped columns behave identically on every
    backend.
    """
    return same_value(left, right)


_OPERATORS = {
    "=": operator.eq, "!=": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}
#: ``const op var`` is ``var mirrored-op const``.
_MIRROR = {"=": "=", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}
_NUMBERS = frozenset((int, float))


def _plain_types(op: str, kind: type) -> frozenset[type]:
    """The types whose values the bare Python operator relates to a
    value of type *kind* exactly as :func:`compare_values` does: the
    number line for order operators, the same concrete type otherwise;
    nothing for a marked null, nor for float identity (``nan`` is the
    same value as itself, yet not ``==`` to itself)."""
    if op in ("=", "!="):
        return frozenset((kind,)) if kind in (int, str, bool) else frozenset()
    if kind in _NUMBERS:
        return _NUMBERS
    return frozenset((kind,)) if kind in (str, bool) else frozenset()


class Kernel(NamedTuple):
    """One comparison, specialised by :func:`compile_comparison`.

    ``row(r)`` tests one row, reading a variable as ``r[slot]`` (a
    tuple with positional slots, a binding dict with name slots);
    ``columns(column_of, n)`` returns the ascending indices kept from
    the ``n``-long columns ``column_of(slot)``; ``key`` is the
    type-strict identity of (operator, slots, constants) — kernels with
    equal keys select the same rows, so results can be cached under it.
    """

    row: Callable[[object], bool]
    columns: Callable[[Callable[[object], Sequence[Value]], int], list[int]]
    key: tuple


def compile_comparison(comparison: Comparison, slots: Mapping[str, object]) -> Kernel:
    """Specialise *comparison* once, for many rows.

    *slots* says where each variable's value is found; a variable
    without one raises :class:`QueryError` here, not per row.  The
    kernel is specialised on the operator, on which sides are
    constants and on the constant's type class, and agrees with
    :func:`compare_values` on every input.
    """
    op = comparison.op
    sides = []
    for term in (comparison.left, comparison.right):
        if not isinstance(term, Variable):
            sides.append((False, term, value_key(term)))
        elif term.name in slots:
            sides.append((True, slots[term.name], slots[term.name]))
        else:
            raise QueryError(
                f"comparison references unbound variable {term.name!r}"
            )
    if not sides[0][0] and sides[1][0]:
        op = _MIRROR[op]
        sides.reverse()
    (left_var, left, left_key), (right_var, right, right_key) = sides
    key = (op, left_var, left_key, right_var, right_key)
    if not left_var or (isinstance(right, MarkedNull) and op != "="):
        # Ground, or against a null constant (only "=" can hold): fold.
        verdict = not left_var and compare_values(op, left, right)
        return Kernel(
            lambda r: verdict,
            lambda column_of, n: list(range(n)) if verdict else [],
            key,
        )
    plain = _OPERATORS[op]
    if right_var:

        def row(r):
            return compare_values(op, r[left], r[right])

    else:
        family = _plain_types(op, type(right))

        def row(r):
            value = r[left]
            if type(value) in family:
                return plain(value, right)
            return compare_values(op, value, right)

    def columns(column_of, n):
        left_column = column_of(left)
        right_column = column_of(right) if right_var else repeat(right)
        right_kinds = set(map(type, right_column)) if right_var else {type(right)}
        if all(
            right_kinds <= _plain_types(op, kind)
            for kind in set(map(type, left_column))
        ):
            mask = map(plain, left_column, right_column)
        else:
            mask = map(compare_values, repeat(op), left_column, right_column)
        return list(compress(range(n), mask))

    return Kernel(row, columns, key)


def conjoin(kernels: Sequence[Kernel]) -> Kernel | None:
    """Every kernel in *kernels* as one kernel (``None`` for none)."""
    if len(kernels) < 2:
        return kernels[0] if kernels else None

    def row(r):
        return all(kernel.row(r) for kernel in kernels)

    def columns(column_of, n):
        kept = (set(kernel.columns(column_of, n)) for kernel in kernels)
        return sorted(set.intersection(*kept))

    return Kernel(row, columns, tuple(kernel.key for kernel in kernels))


def compile_for_bindings(comparisons: Sequence[Comparison]) -> tuple[Kernel, ...]:
    """Kernels whose rows are binding dicts (slot = variable name)."""
    return tuple(
        compile_comparison(c, {name: name for name in c.variables()})
        for c in comparisons
    )


def evaluate_comparison(
    comparison: Comparison, binding: Mapping[str, Value]
) -> bool:
    """Evaluate one comparison under *binding* — the one-off form of
    :func:`compile_comparison` (slot = variable name)."""
    return compile_comparison(comparison, {name: name for name in binding}).row(
        binding
    )

"""Value model: constants and marked nulls.

A coDB tuple holds either *constants* — plain Python ``int``, ``float``,
``str`` or ``bool`` — or :class:`MarkedNull` values.  Marked nulls are
the "fresh new marked null values" the paper's update algorithm creates
when the head of a coordination rule contains existential variables
(§3): they stand for *some* unknown value, and the same null may appear
in several tuples, recording that the unknown values coincide.

Marked nulls are labelled and compare by label, so the duplicate
elimination in the update algorithm ("we first remove from T those
tuples which are already in R") works with ordinary tuple equality,
exactly as in the paper.  Semantically richer comparisons (does one
tuple *subsume* another up to a renaming of nulls?) live in
:mod:`repro.relational.containment`.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import chain
from typing import Any, Union

#: The Python types admitted as constants in tuples.
CONSTANT_TYPES = (int, float, str, bool)
_CONSTANT_KINDS = frozenset(CONSTANT_TYPES)

#: JSON key marking an encoded null.  Constants are never dicts, so a
#: one-entry dict with this key is unambiguous on the wire.
NULL_KEY = "$null"


class MarkedNull:
    """A labelled (marked) null value.

    Parameters
    ----------
    label:
        Globally unique label, e.g. ``"N12@TN"``.  Two occurrences of
        the same label denote the same unknown value; distinct labels
        denote possibly different values.

    Notes
    -----
    Instances are immutable, hashable, and ordered after all constants
    (see :func:`value_sort_key`), so relations containing nulls sort
    deterministically.
    """

    __slots__ = ("label",)

    def __init__(self, label: str) -> None:
        if not label:
            raise ValueError("a marked null needs a non-empty label")
        object.__setattr__(self, "label", label)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("MarkedNull is immutable")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MarkedNull) and other.label == self.label

    def __ne__(self, other: object) -> bool:
        return not self.__eq__(other)

    def __hash__(self) -> int:
        return hash(("MarkedNull", self.label))

    def __repr__(self) -> str:
        return f"#{self.label}"

    def __lt__(self, other: object) -> bool:
        if isinstance(other, MarkedNull):
            return self.label < other.label
        return NotImplemented


#: A value stored in a tuple.
Value = Union[int, float, str, bool, MarkedNull]

#: A database tuple.
Row = tuple  # tuple[Value, ...]


def is_null(value: object) -> bool:
    """Return ``True`` when *value* is a marked null."""
    return isinstance(value, MarkedNull)


def same_value(left: object, right: object) -> bool:
    """coDB value identity: type-strict equality.

    Python unifies numeric types (``3 == 3.0``, ``True == 1``); the
    type-tagged cell encoding of the SQLite backend is injective across
    types, so those pairs do *not* coincide there.  One identity
    relation must hold on every backend, and the injective one is it:
    two values are the same iff they have the same concrete type and
    compare equal.  (``-0.0`` and ``0.0`` are both floats and equal, so
    they remain one value, matching the encoder's normalisation.)
    """
    if left is right:
        return True
    if type(left) is not type(right):
        return False
    return left == right


#: Tag prefix for :func:`value_key` wrappers.  ``\x00`` cannot appear in
#: a parsed constant, so the wrapped tuples never collide with strings.
_BOOL_TAG = "\x00b"
_FLOAT_TAG = "\x00f"


def value_key(value: Value) -> object:
    """A hashable key realising :func:`same_value` under ``dict``/``set``.

    ``dict`` fixes identity to ``==``/``hash``, which unifies numeric
    types; wrapping the two colliding types (bools collide with ints,
    floats with ints) restores the type-strict identity.  Ints, strings
    and marked nulls key as themselves (no cross-type ``==`` between
    them), so the common cases stay allocation-free.

    These keys are the identity of the storage layer's hash indexes
    *and* of the columnar executor's typed-key arrays
    (:meth:`~repro.relational.storage.Relation.column_keys`), which is
    what lets a column batch probe an index bucket with one dict
    lookup per distinct key.
    """
    kind = type(value)
    if kind is bool:
        return (_BOOL_TAG, value)
    if kind is float:
        return (_FLOAT_TAG, value + 0.0)  # collapse -0.0 into 0.0
    return value


#: The value types that key as themselves (see :func:`value_key`).
_SELF_KEYED = frozenset({int, str, MarkedNull})


def row_key(row: Row) -> tuple:
    """Componentwise :func:`value_key` — row identity for dicts/sets.

    A row without bools and floats *is* its own key (every component
    keys as itself), and is handed back as is: the common case builds
    nothing.  Wrapped components are tuples, which no row contains, so
    a self-keyed row can never collide with a wrapped one.
    """
    if type(row) is tuple and _SELF_KEYED.issuperset(map(type, row)):
        return row
    return tuple(map(value_key, row))


def value_keys(values: list[Value]) -> list:
    """:func:`value_key` of every value of a column, in order.  A column
    without bools and floats is its own list of keys."""
    if _SELF_KEYED.issuperset(map(type, values)):
        return values
    return list(map(value_key, values))


def row_keys(rows: list[Row]) -> list[tuple]:
    """:func:`row_key` of every row of a batch, in order.  A batch of
    plain tuples without bools and floats is its own list of keys, and
    finding that out costs one pass per column, not one per cell."""
    if (
        rows
        and set(map(type, rows)) == {tuple}
        and len(set(map(len, rows))) == 1
        and all(_SELF_KEYED.issuperset(map(type, column)) for column in zip(*rows))
    ):
        return rows
    return list(map(row_key, rows))


def is_constant(value: object) -> bool:
    """Return ``True`` when *value* is an admissible constant."""
    return isinstance(value, CONSTANT_TYPES) and not isinstance(value, MarkedNull)


def check_value(value: object) -> Value:
    """Validate that *value* is storable; return it unchanged.

    Raises
    ------
    TypeError
        If the value is neither a constant of an admitted type nor a
        marked null.
    """
    if is_constant(value) or is_null(value):
        return value  # type: ignore[return-value]
    raise TypeError(
        f"{value!r} of type {type(value).__name__} is not a valid coDB "
        "value (expected int, float, str, bool or MarkedNull)"
    )


def value_sort_key(value: Value) -> tuple:
    """A total order over mixed-type values.

    Python refuses to compare, say, ``3 < "a"``; benchmark reports and
    deterministic iteration need *some* total order.  We order by a
    type rank first (bools, numbers, strings, nulls) and within rank by
    the natural order.  Nulls sort last, by label.
    """
    if isinstance(value, MarkedNull):
        return (3, value.label)
    if isinstance(value, bool):
        return (0, value)
    if isinstance(value, (int, float)):
        return (1, value)
    return (2, str(value))


def row_sort_key(row: Row) -> tuple:
    """Total order over rows, componentwise by :func:`value_sort_key`."""
    return tuple(value_sort_key(v) for v in row)


#: Classes that rank together in :func:`value_sort_key` and order
#: among themselves as Python does.
_NUMBERS = frozenset({int, float})


def sort_rows(rows: Iterable[Row]) -> list[Row]:
    """*rows* in the total order of :func:`row_sort_key`.

    Where every column holds only numbers or only strings — most
    relations — Python's own tuple order *is* that order, and the sort
    runs without building a key per row.
    """
    rows = list(rows)
    if rows and set(map(type, rows)) == {tuple} and len(set(map(len, rows))) == 1:
        for column in zip(*rows):
            kinds = set(map(type, column))
            if not (kinds <= _NUMBERS or kinds == {str}):
                break
        else:
            return sorted(rows)
    return sorted(rows, key=row_sort_key)


def encode_value(value: Value) -> Any:
    """Encode a value for a JSON message payload.

    Constants map to themselves; a marked null maps to
    ``{"$null": label}``, a shape no user constant can collide with
    (dicts are not valid constants).
    """
    if isinstance(value, MarkedNull):
        return {NULL_KEY: value.label}
    return value


def decode_value(payload: Any) -> Value:
    """Inverse of :func:`encode_value`."""
    if isinstance(payload, dict):
        label = payload.get(NULL_KEY)
        if not isinstance(label, str):
            raise ValueError(f"malformed encoded value: {payload!r}")
        return MarkedNull(label)
    return check_value(payload)


def encode_row(row: Row) -> list:
    """Encode a row of values for a JSON message payload."""
    return [encode_value(v) for v in row]


def decode_row(payload: list) -> Row:
    """Inverse of :func:`encode_row`."""
    return tuple(decode_value(v) for v in payload)


def decode_rows(payloads: list[list]) -> list[Row]:
    """:func:`decode_row` of every row of a batch.  A batch of
    constants only — no encoded nulls, nothing invalid — is its own
    decoding, and finding that out costs one type per cell, not one
    function call."""
    if _CONSTANT_KINDS.issuperset(map(type, chain.from_iterable(payloads))):
        return list(map(tuple, payloads))
    return list(map(decode_row, payloads))

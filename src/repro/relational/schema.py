"""Relation and database schemas.

The paper distinguishes the full Local Database (LDB) from the Database
Schema (DBS), "part of LDB which is shared for other nodes" (§2).  We
model that with an ``exported`` flag per relation: coordination-rule
bodies may only reference exported relations of the acquaintance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterable, Iterator, Mapping, Sequence
from functools import cached_property

from repro.errors import ArityError, SchemaError, TypeMismatchError, UnknownRelationError
from repro.relational.values import MarkedNull, Row, Value, check_value

#: Attribute type names accepted by the textual syntax.
ATTRIBUTE_TYPES: dict[str, type | tuple[type, ...]] = {
    "any": (int, float, str, bool),
    "int": int,
    "float": (int, float),
    "str": str,
    "bool": bool,
}

#: The concrete classes a column of each type admits without a closer
#: look (bool is an int to ``isinstance``, so an ``int`` or ``float``
#: column names its classes one by one; marked nulls go anywhere).
#: A value of any other class — a subclass of one of these, or rubbish —
#: is judged by :meth:`AttributeDef.admits`.
_ADMITTED_CLASSES: dict[str, frozenset[type]] = {
    "any": frozenset({int, float, str, bool, MarkedNull}),
    "int": frozenset({int, MarkedNull}),
    "float": frozenset({int, float, MarkedNull}),
    "str": frozenset({str, MarkedNull}),
    "bool": frozenset({bool, MarkedNull}),
}


@dataclass(frozen=True)
class AttributeDef:
    """One attribute of a relation: a name and a (loose) type.

    ``type_name`` is one of :data:`ATTRIBUTE_TYPES`; ``"any"`` disables
    type checking for the column.  Marked nulls are admitted in every
    column regardless of the declared type — a null stands for an
    unknown value *of that type*.
    """

    name: str
    type_name: str = "any"

    def __post_init__(self) -> None:
        if not self.name.isidentifier():
            raise SchemaError(f"invalid attribute name {self.name!r}")
        if self.type_name not in ATTRIBUTE_TYPES:
            raise SchemaError(
                f"unknown attribute type {self.type_name!r} for "
                f"attribute {self.name!r} (expected one of "
                f"{sorted(ATTRIBUTE_TYPES)})"
            )

    def admits(self, value: object) -> bool:
        """Return ``True`` when *value* may be stored in this column."""
        if isinstance(value, MarkedNull):
            return True
        expected = ATTRIBUTE_TYPES[self.type_name]
        if self.type_name != "bool" and isinstance(value, bool):
            # bool is a subclass of int; don't let True sneak into ints.
            return self.type_name == "any"
        return isinstance(value, expected)

    def __str__(self) -> str:
        if self.type_name == "any":
            return self.name
        return f"{self.name}: {self.type_name}"


@dataclass(frozen=True)
class RelationSchema:
    """Schema of one relation: name, ordered attributes, export flag,
    optional key.

    The *key* (attribute names) is a local integrity constraint: two
    rows agreeing on the key but differing elsewhere make the node's
    database locally inconsistent.  coDB tolerates that — the paper's
    semantics "allows for local inconsistency handling" and guarantees
    "local inconsistency does not propagate" (§1); see
    :meth:`repro.relational.wrapper.Wrapper.key_violations` and the
    quarantine logic in the update engine.
    """

    name: str
    attributes: tuple[AttributeDef, ...]
    exported: bool = True
    key: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name.isidentifier():
            raise SchemaError(f"invalid relation name {self.name!r}")
        if not self.attributes:
            raise SchemaError(f"relation {self.name!r} needs at least one attribute")
        names = [a.name for a in self.attributes]
        if len(set(names)) != len(names):
            raise SchemaError(
                f"relation {self.name!r} has duplicate attribute names: {names}"
            )
        for key_attr in self.key:
            if key_attr not in names:
                raise SchemaError(
                    f"relation {self.name!r}: key attribute {key_attr!r} "
                    "is not an attribute"
                )

    @classmethod
    def of(
        cls,
        name: str,
        attributes: Iterable[str | AttributeDef],
        *,
        exported: bool = True,
        key: Iterable[str] = (),
    ) -> "RelationSchema":
        """Build a schema from attribute names or ``name: type`` strings."""
        defs = []
        for attr in attributes:
            if isinstance(attr, AttributeDef):
                defs.append(attr)
            else:
                name_part, _, type_part = attr.partition(":")
                defs.append(
                    AttributeDef(name_part.strip(), type_part.strip() or "any")
                )
        return cls(name, tuple(defs), exported=exported, key=tuple(key))

    def key_positions(self) -> tuple[int, ...]:
        """Column indexes of the key attributes (empty = no key)."""
        return tuple(self.position_of(attr) for attr in self.key)

    @property
    def arity(self) -> int:
        return len(self.attributes)

    @property
    def attribute_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.attributes)

    def position_of(self, attribute: str) -> int:
        """Index of *attribute*, raising :class:`SchemaError` if absent."""
        for i, a in enumerate(self.attributes):
            if a.name == attribute:
                return i
        raise SchemaError(
            f"relation {self.name!r} has no attribute {attribute!r} "
            f"(has {list(self.attribute_names)})"
        )

    def validate_row(self, row: Row) -> Row:
        """Check arity and types of *row*; return the validated tuple."""
        if len(row) != self.arity:
            raise ArityError(self.name, self.arity, len(row))
        for value, attr in zip(row, self.attributes):
            check_value(value)
            if not attr.admits(value):
                raise TypeMismatchError(
                    f"value {value!r} is not a {attr.type_name} "
                    f"(relation {self.name!r}, attribute {attr.name!r})"
                )
        return tuple(row)

    @cached_property
    def _admitted_classes(self) -> tuple[frozenset[type], ...]:
        return tuple(_ADMITTED_CLASSES[a.type_name] for a in self.attributes)

    def validate_rows(self, rows: Iterable[Sequence[Value]]) -> list[Row]:
        """:meth:`validate_row` for a batch: the rows as tuples, or the
        error of the first row that does not fit.

        Whether a value fits depends on its class alone, so a batch is
        checked column by column — the set of classes in the column
        against the classes the attribute admits — instead of value by
        value; only a batch holding something out of the ordinary is
        walked row by row.
        """
        rows = list(rows)
        if not rows:
            return rows
        if set(map(type, rows)) != {tuple}:
            rows = list(map(tuple, rows))
        if set(map(len, rows)) == {self.arity} and all(
            admitted.issuperset(map(type, column))
            for admitted, column in zip(self._admitted_classes, zip(*rows))
        ):
            return rows
        return [self.validate_row(row) for row in rows]

    def __str__(self) -> str:
        parts = []
        for attribute in self.attributes:
            bang = "!" if attribute.name in self.key else ""
            if attribute.type_name == "any":
                parts.append(f"{attribute.name}{bang}")
            else:
                parts.append(f"{attribute.name}{bang}: {attribute.type_name}")
        prefix = "" if self.exported else "local "
        return f"{prefix}{self.name}({', '.join(parts)})"


class DatabaseSchema:
    """An ordered collection of relation schemas — one node's DBS + LDB.

    Iteration order is declaration order, which keeps every downstream
    computation deterministic.
    """

    def __init__(self, relations: Iterable[RelationSchema] = ()) -> None:
        self._relations: dict[str, RelationSchema] = {}
        for relation in relations:
            self.add(relation)

    def add(self, relation: RelationSchema) -> None:
        if relation.name in self._relations:
            raise SchemaError(f"duplicate relation {relation.name!r} in schema")
        self._relations[relation.name] = relation

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def __getitem__(self, name: str) -> RelationSchema:
        try:
            return self._relations[name]
        except KeyError:
            raise UnknownRelationError(name) from None

    def get(self, name: str) -> RelationSchema | None:
        return self._relations.get(name)

    def __iter__(self) -> Iterator[RelationSchema]:
        return iter(self._relations.values())

    def __len__(self) -> int:
        return len(self._relations)

    @property
    def relation_names(self) -> tuple[str, ...]:
        return tuple(self._relations)

    def exported_view(self) -> "DatabaseSchema":
        """The DBS of the paper: only the relations shared with peers."""
        return DatabaseSchema(r for r in self if r.exported)

    def merge_disjoint(self, other: "DatabaseSchema") -> "DatabaseSchema":
        """Union of two schemas with disjoint relation names.

        Used by the centralised baseline, which unions every node's
        schema after prefixing relation names with the node name.
        """
        merged = DatabaseSchema(self)
        for relation in other:
            merged.add(relation)
        return merged

    def rename(self, mapping: Mapping[str, str]) -> "DatabaseSchema":
        """Return a copy with relations renamed via *mapping*.

        Relations absent from *mapping* keep their names.  Used to
        prefix node schemas (``person`` → ``BZ__person``) for the
        centralised baseline.
        """
        renamed = DatabaseSchema()
        for relation in self:
            new_name = mapping.get(relation.name, relation.name)
            renamed.add(
                RelationSchema(new_name, relation.attributes, exported=relation.exported)
            )
        return renamed

    def __str__(self) -> str:
        return "\n".join(str(r) for r in self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DatabaseSchema):
            return NotImplemented
        return self._relations == other._relations

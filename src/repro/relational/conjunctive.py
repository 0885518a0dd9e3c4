"""Conjunctive queries, comparison predicates and GLAV mappings.

The paper's coordination rules are "inclusions of conjunctive queries,
with possibly existential variables in the head", where the body may
also carry "a set of comparison predicates which specify constraints
over the domain of particular attributes" (§2).  This module is that
intermediate representation:

* :class:`Variable` / constants as terms,
* :class:`Atom` — a relation applied to terms,
* :class:`Comparison` — ``x < 5``, ``c = 'Trento'``, ...
* :class:`ConjunctiveQuery` — a query with one head atom (what users
  pose to a node),
* :class:`GlavMapping` — the logical content of a coordination rule:
  head conjunction ⊇ body conjunction, with existential head variables.

The network-level wrapper that binds a mapping to a pair of peers lives
in :mod:`repro.core.rules`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from collections.abc import Iterable, Mapping, Sequence
from typing import Union

from repro.errors import QueryError, UnsafeQueryError
from repro.relational.schema import DatabaseSchema
from repro.relational.values import Value, is_constant


@dataclass(frozen=True)
class Variable:
    """A query variable, identified by name."""

    name: str

    def __post_init__(self) -> None:
        if not self.name or not self.name.isidentifier():
            raise QueryError(f"invalid variable name {self.name!r}")

    def __repr__(self) -> str:
        return f"?{self.name}"


#: A term is a variable or a constant value.
Term = Union[Variable, Value]


def term_variables(term: Term) -> frozenset[str]:
    if isinstance(term, Variable):
        return frozenset((term.name,))
    return frozenset()


def substitute_term(term: Term, binding: Mapping[str, Value]) -> Term:
    """Replace *term* by its bound value, if it is a bound variable."""
    if isinstance(term, Variable) and term.name in binding:
        return binding[term.name]
    return term


@dataclass(frozen=True)
class Atom:
    """A relational atom ``relation(t1, ..., tn)``."""

    relation: str
    terms: tuple[Term, ...]

    @classmethod
    def of(cls, relation: str, *terms: Term | str) -> "Atom":
        """Convenience constructor: bare strings become variables.

        >>> Atom.of("person", "x", 42)
        person(?x, 42)
        """
        converted: list[Term] = []
        for term in terms:
            if isinstance(term, str):
                converted.append(Variable(term))
            else:
                converted.append(term)
        return cls(relation, tuple(converted))

    @property
    def arity(self) -> int:
        return len(self.terms)

    def variables(self) -> frozenset[str]:
        names: set[str] = set()
        for term in self.terms:
            if isinstance(term, Variable):
                names.add(term.name)
        return frozenset(names)

    def is_ground(self) -> bool:
        return not any(isinstance(t, Variable) for t in self.terms)

    def substitute(self, binding: Mapping[str, Value]) -> "Atom":
        return Atom(
            self.relation,
            tuple(substitute_term(t, binding) for t in self.terms),
        )

    def __repr__(self) -> str:
        inner = ", ".join(
            repr(t) if not isinstance(t, str) else f"'{t}'" for t in self.terms
        )
        return f"{self.relation}({inner})"


#: Comparison operators admitted in rule bodies, with their semantics.
COMPARISON_OPS = ("=", "!=", "<", "<=", ">", ">=")


@dataclass(frozen=True)
class Comparison:
    """A comparison predicate ``left op right`` over body terms."""

    op: str
    left: Term
    right: Term

    def __post_init__(self) -> None:
        if self.op not in COMPARISON_OPS:
            raise QueryError(
                f"unknown comparison operator {self.op!r} "
                f"(expected one of {COMPARISON_OPS})"
            )

    def variables(self) -> frozenset[str]:
        return term_variables(self.left) | term_variables(self.right)

    def substitute(self, binding: Mapping[str, Value]) -> "Comparison":
        return Comparison(
            self.op,
            substitute_term(self.left, binding),
            substitute_term(self.right, binding),
        )

    def __repr__(self) -> str:
        return f"{self.left!r} {self.op} {self.right!r}"


def _check_range_restricted(
    body: Sequence[Atom],
    comparisons: Sequence[Comparison],
    where: str,
) -> None:
    body_vars: set[str] = set()
    for atom in body:
        body_vars |= atom.variables()
    for comparison in comparisons:
        for name in sorted(comparison.variables() - body_vars):
            raise UnsafeQueryError(name, f"comparison of {where}")


@dataclass(frozen=True)
class ConjunctiveQuery:
    """A conjunctive query with a single head atom.

    This is what users pose to a node ("each node can be queried in its
    schema for data").  Safety is enforced: every head variable and
    every comparison variable must occur in some body atom.
    """

    head: Atom
    body: tuple[Atom, ...]
    comparisons: tuple[Comparison, ...] = ()

    def __post_init__(self) -> None:
        if not self.body:
            raise QueryError(f"query {self.head.relation!r} has an empty body")
        body_vars: set[str] = set()
        for atom in self.body:
            body_vars |= atom.variables()
        for name in sorted(self.head.variables() - body_vars):
            raise UnsafeQueryError(name, f"head of {self.head.relation!r}")
        _check_range_restricted(self.body, self.comparisons, self.head.relation)

    @property
    def answer_relation(self) -> str:
        return self.head.relation

    @property
    def answer_arity(self) -> int:
        return self.head.arity

    def distinguished_variables(self) -> frozenset[str]:
        return self.head.variables()

    def existential_variables(self) -> frozenset[str]:
        body_vars: set[str] = set()
        for atom in self.body:
            body_vars |= atom.variables()
        return frozenset(body_vars - self.head.variables())

    def body_relations(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(a.relation for a in self.body))

    def validate_against(self, schema: DatabaseSchema, *, exported_only: bool = False) -> None:
        """Check every body relation exists (and is exported if asked)."""
        for atom in self.body:
            relation = schema[atom.relation]
            if atom.arity != relation.arity:
                from repro.errors import ArityError

                raise ArityError(atom.relation, relation.arity, atom.arity)
            if exported_only and not relation.exported:
                raise QueryError(
                    f"relation {atom.relation!r} is not exported and cannot "
                    "be referenced from another peer"
                )

    def __repr__(self) -> str:
        parts = [repr(a) for a in self.body] + [repr(c) for c in self.comparisons]
        return f"{self.head!r} <- {', '.join(parts)}"

    @cached_property
    def fingerprint(self) -> str:
        """The query's structure as text (its ``repr``), built once:
        what the answer cache keys its entries on."""
        return repr(self)


@dataclass(frozen=True)
class GlavMapping:
    """The logical content of a GLAV coordination rule.

    ``body ⊆ head`` between two schemas: for every binding satisfying
    the *body* (over the source/acquaintance schema, under the
    comparisons), the *head* conjunction (over the target/local schema)
    must hold — with fresh marked nulls witnessing the existential head
    variables.

    Attributes
    ----------
    head:
        Head atoms, over the importing node's schema.  May contain
        existential variables (head variables not occurring in the
        body).
    body:
        Body atoms, over the acquaintance's schema.
    comparisons:
        Comparison predicates over body variables and constants.
    """

    head: tuple[Atom, ...]
    body: tuple[Atom, ...]
    comparisons: tuple[Comparison, ...] = ()

    def __post_init__(self) -> None:
        if not self.head:
            raise QueryError("a GLAV mapping needs at least one head atom")
        if not self.body:
            raise QueryError("a GLAV mapping needs at least one body atom")
        _check_range_restricted(self.body, self.comparisons, "GLAV mapping")

    def body_variables(self) -> frozenset[str]:
        names: set[str] = set()
        for atom in self.body:
            names |= atom.variables()
        return frozenset(names)

    def head_variables(self) -> frozenset[str]:
        names: set[str] = set()
        for atom in self.head:
            names |= atom.variables()
        return frozenset(names)

    def frontier_variables(self) -> frozenset[str]:
        """Variables shared between body and head (exported values)."""
        return self.body_variables() & self.head_variables()

    def existential_head_variables(self) -> frozenset[str]:
        """Head variables with no body occurrence — the null makers."""
        return self.head_variables() - self.body_variables()

    def head_relations(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(a.relation for a in self.head))

    def body_relations(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(a.relation for a in self.body))

    def has_existentials(self) -> bool:
        return bool(self.existential_head_variables())

    def validate_against(
        self,
        target_schema: DatabaseSchema,
        source_schema: DatabaseSchema,
    ) -> None:
        """Check head against the target schema, body against the source.

        Body relations must be *exported* by the source — the DBS is
        "part of LDB, which is shared for other nodes" (§2).
        """
        from repro.errors import ArityError

        for atom in self.head:
            relation = target_schema[atom.relation]
            if atom.arity != relation.arity:
                raise ArityError(atom.relation, relation.arity, atom.arity)
        for atom in self.body:
            relation = source_schema[atom.relation]
            if atom.arity != relation.arity:
                raise ArityError(atom.relation, relation.arity, atom.arity)
            if not relation.exported:
                raise QueryError(
                    f"relation {atom.relation!r} is not in the source's DBS "
                    "(not exported) and cannot appear in a rule body"
                )

    def __repr__(self) -> str:
        head = ", ".join(repr(a) for a in self.head)
        parts = [repr(a) for a in self.body] + [repr(c) for c in self.comparisons]
        return f"{head} <- {', '.join(parts)}"


def collect_variables(atoms: Iterable[Atom]) -> frozenset[str]:
    """Union of the variable names of *atoms*."""
    names: set[str] = set()
    for atom in atoms:
        names |= atom.variables()
    return frozenset(names)

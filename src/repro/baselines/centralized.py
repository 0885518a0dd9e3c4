"""Centralised data exchange: the single-site ground truth.

The distributed global update implements, across the network, what the
data-exchange literature computes on one machine: the chase of the
source instance with the tgds (coordination rules), producing a
canonical universal solution [Fagin et al., 2003 — cited by the
paper].  This engine does exactly that, with every node's relations
folded into one database under ``node__relation`` names.

Uses:

* **ground truth** — after a distributed update, every node's database
  must equal the centralised solution's fragment for that node, up to
  a renaming of marked nulls (experiment E12 and the integration
  tests);
* **baseline** — a what-if comparator: what would the same workload
  cost without any distribution?
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterable, Mapping

from repro.core.rules import CoordinationRule
from repro.errors import FixpointGuardError
from repro.relational.conjunctive import Atom, Comparison, GlavMapping
from repro.relational.containment import tuple_subsumed
from repro.relational.database import Database
from repro.relational.evaluation import (
    apply_head,
    evaluate_mapping_bindings,
)
from repro.relational.nulls import NullFactory
from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.relational.values import MarkedNull, Row


def qualified(node: str, relation: str) -> str:
    """The folded name of *relation* at *node*."""
    return f"{node}__{relation}"


def _qualify_mapping(rule: CoordinationRule) -> GlavMapping:
    head = tuple(
        Atom(qualified(rule.target, atom.relation), atom.terms)
        for atom in rule.mapping.head
    )
    body = tuple(
        Atom(qualified(rule.source, atom.relation), atom.terms)
        for atom in rule.mapping.body
    )
    return GlavMapping(head, body, rule.mapping.comparisons)


@dataclass
class ChaseResult:
    """Outcome of one centralised chase run."""

    database: Database
    rounds: int
    rule_firings: int
    tuples_added: int
    nulls_minted: int

    def node_snapshot(self, node: str, schema: DatabaseSchema) -> dict[str, list[Row]]:
        """One node's fragment, in the node's own relation names."""
        return {
            relation.name: self.database.relation(
                qualified(node, relation.name)
            ).sorted_rows()
            for relation in schema
        }


class CentralizedExchange:
    """Single-site chase over the union of all node databases."""

    def __init__(
        self,
        schemas: Mapping[str, DatabaseSchema],
        rules: Iterable[CoordinationRule],
        *,
        subsumption_dedup: bool = False,
        max_rounds: int = 10_000,
    ) -> None:
        self.schemas = dict(schemas)
        self.rules = list(rules)
        self.subsumption_dedup = subsumption_dedup
        self.max_rounds = max_rounds
        self._qualified = {
            rule.rule_id: _qualify_mapping(rule) for rule in self.rules
        }

    def _build_database(
        self, node_data: Mapping[str, Mapping[str, Iterable[Row]]]
    ) -> Database:
        merged = DatabaseSchema()
        for node, schema in self.schemas.items():
            for relation in schema:
                merged.add(
                    RelationSchema(
                        qualified(node, relation.name),
                        relation.attributes,
                        exported=relation.exported,
                    )
                )
        database = Database(merged)
        for node, relations in node_data.items():
            for relation, rows in relations.items():
                database.insert_new(qualified(node, relation), list(rows))
        return database

    def run(
        self, node_data: Mapping[str, Mapping[str, Iterable[Row]]]
    ) -> ChaseResult:
        """Chase *node_data* (``{node: {relation: rows}}``) to fix-point.

        Rule firings are deduplicated per frontier binding — the same
        granularity the distributed engine uses — so existential heads
        mint exactly one null vector per satisfying frontier
        assignment, per rule.
        """
        database = self._build_database(node_data)
        nulls = NullFactory("central")
        fired: dict[str, set[tuple]] = {rule.rule_id: set() for rule in self.rules}
        # rule id -> sizes of its body relations when it last ran.  The
        # chase only ever inserts, so unchanged sizes mean unchanged
        # relations, and the rule has nothing new to fire.
        evaluated_on: dict[str, tuple[int, ...]] = {}
        rounds = 0
        rule_firings = 0
        tuples_added = 0
        while True:
            rounds += 1
            if rounds > self.max_rounds:
                raise FixpointGuardError(self.max_rounds)
            changed = False
            for rule in self.rules:
                mapping = self._qualified[rule.rule_id]
                sizes = tuple(len(database.relation(atom.relation)) for atom in mapping.body)
                if evaluated_on.get(rule.rule_id) == sizes:
                    continue
                evaluated_on[rule.rule_id] = sizes
                frontier = tuple(sorted(mapping.frontier_variables()))
                bindings = evaluate_mapping_bindings(database, mapping)
                new_bindings = []
                for binding in bindings:
                    key = tuple(binding[name] for name in frontier)
                    if key not in fired[rule.rule_id]:
                        fired[rule.rule_id].add(key)
                        new_bindings.append(binding)
                if not new_bindings:
                    continue
                rule_firings += len(new_bindings)
                facts = apply_head(mapping, new_bindings, nulls)
                for relation, row in facts:
                    if self.subsumption_dedup and any(
                        isinstance(value, MarkedNull) for value in row
                    ):
                        if tuple_subsumed(row, database.relation(relation)):
                            continue
                    added = database.insert_new(relation, [row])
                    if added:
                        tuples_added += len(added)
                        changed = True
            if not changed:
                break
        return ChaseResult(
            database=database,
            rounds=rounds,
            rule_firings=rule_firings,
            tuples_added=tuples_added,
            nulls_minted=nulls.minted,
        )

    # ------------------------------------------------------------------

    def run_for_network(self, network) -> ChaseResult:
        """Convenience: chase a live :class:`~repro.core.network.CoDBNetwork`'s
        current data (snapshot is taken; the network is not touched)."""
        node_data = {
            name: node.snapshot() for name, node in network.nodes.items()
        }
        return self.run(node_data)

    @classmethod
    def for_network(cls, network, **kwargs) -> "CentralizedExchange":
        schemas = {
            name: node.wrapper.schema for name, node in network.nodes.items()
        }
        return cls(schemas, list(network.rule_file), **kwargs)

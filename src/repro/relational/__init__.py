"""The relational substrate: coDB's local databases, queries and rules.

coDB treats each peer's local database as a black box behind a Wrapper;
this package *is* that database.  It provides:

* a value model with first-class **marked nulls** (:mod:`values`,
  :mod:`nulls`) — the labelled nulls the update algorithm introduces for
  existential head variables;
* schemas (:mod:`schema`) and an in-memory tuple store with hash
  indexes and duplicate elimination (:mod:`storage`, :mod:`database`);
* conjunctive queries, comparison predicates and GLAV rules
  (:mod:`conjunctive`, :mod:`comparisons`);
* a CQ evaluator with greedy join ordering and semi-naive delta
  evaluation (:mod:`evaluation`), plus compiled, cached join plans for
  the hot protocol paths (:mod:`planner`);
* a textual syntax for schemas, facts, queries and coordination rules
  (:mod:`parser`);
* tuple subsumption and row-set equality up to null renaming
  (:mod:`containment`);
* static rule-set analysis, notably weak acyclicity (:mod:`analysis`);
* the storage **Wrapper** with memory, sqlite and mediator back ends
  (:mod:`wrapper`).
"""

from repro.relational.values import MarkedNull, is_null, value_sort_key
from repro.relational.nulls import NullFactory
from repro.relational.schema import AttributeDef, DatabaseSchema, RelationSchema
from repro.relational.storage import Relation
from repro.relational.database import Database
from repro.relational.conjunctive import (
    Atom,
    Comparison,
    ConjunctiveQuery,
    GlavMapping,
    Variable,
)
from repro.relational.evaluation import (
    apply_head,
    evaluate_body,
    evaluate_mapping_bindings,
    evaluate_query,
    evaluate_query_delta,
)
from repro.relational.planner import (
    JoinPlan,
    PlanCache,
    compile_plan,
    evaluate_mapping_bindings_planned,
    evaluate_query_delta_planned,
    evaluate_query_planned,
)
from repro.relational.parser import (
    parse_facts,
    parse_mapping,
    parse_query,
    parse_schema,
)
from repro.relational.containment import tuple_subsumed
from repro.relational.analysis import (
    RuleGraph,
    is_weakly_acyclic,
    strongly_connected_components,
)
from repro.relational.wrapper import (
    MediatorStore,
    MemoryStore,
    SqliteStore,
    Wrapper,
)

__all__ = [
    "MarkedNull",
    "is_null",
    "value_sort_key",
    "NullFactory",
    "AttributeDef",
    "RelationSchema",
    "DatabaseSchema",
    "Relation",
    "Database",
    "Variable",
    "Atom",
    "Comparison",
    "ConjunctiveQuery",
    "GlavMapping",
    "evaluate_body",
    "evaluate_mapping_bindings",
    "evaluate_query",
    "evaluate_query_delta",
    "apply_head",
    "JoinPlan",
    "PlanCache",
    "compile_plan",
    "evaluate_query_planned",
    "evaluate_query_delta_planned",
    "evaluate_mapping_bindings_planned",
    "parse_schema",
    "parse_facts",
    "parse_query",
    "parse_mapping",
    "tuple_subsumed",
    "RuleGraph",
    "is_weakly_acyclic",
    "strongly_connected_components",
    "Wrapper",
    "MemoryStore",
    "SqliteStore",
    "MediatorStore",
]

"""Coordination rules placed in the network.

A :class:`CoordinationRule` binds a GLAV mapping to a (target, source)
pair of peers: the *target* imports data; the *source* is the
acquaintance that "executes the coordination rule and sends the
results back" (§2).  Rules are wire-encodable because the super-peer
broadcasts whole rule files (§4).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property
from typing import Any

from repro.errors import RuleError
from repro.relational.analysis import NetworkRule
from repro.relational.conjunctive import GlavMapping
from repro.relational.evaluation import compile_head
from repro.relational.nulls import NullFactory
from repro.relational.parser import ParsedMapping, parse_mapping
from repro.relational.values import Row


@dataclass(frozen=True)
class CoordinationRule:
    """One coordination rule: ``rule_id: target ⇐ source : mapping``."""

    rule_id: str
    target: str
    source: str
    mapping: GlavMapping

    def __post_init__(self) -> None:
        if not self.rule_id:
            raise RuleError("a coordination rule needs a rule_id")
        if self.target == self.source:
            raise RuleError(
                f"rule {self.rule_id!r}: target and source are both "
                f"{self.target!r}; coordination rules connect distinct peers"
            )

    # -- construction -----------------------------------------------------

    @classmethod
    def from_text(cls, rule_id: str, text: str) -> "CoordinationRule":
        """Parse ``"TN:resident(n) <- BZ:person(n, c)"`` into a rule."""
        parsed = parse_mapping(text)
        return cls.from_parsed(rule_id, parsed)

    @classmethod
    def from_parsed(cls, rule_id: str, parsed: ParsedMapping) -> "CoordinationRule":
        if parsed.target is None or parsed.source is None:
            raise RuleError(
                f"rule {rule_id!r}: coordination rules need peer prefixes "
                "on both head and body atoms"
            )
        return cls(rule_id, parsed.target, parsed.source, parsed.mapping)

    # -- views --------------------------------------------------------------

    def as_network_rule(self) -> NetworkRule:
        """The analysis-layer view (weak acyclicity, rule graphs)."""
        return NetworkRule(self.rule_id, self.target, self.source, self.mapping)

    # Derived once per rule (``cached_property`` stores straight into
    # ``__dict__``, which works on a frozen dataclass): both are asked
    # for on every message the rule's links carry.

    @cached_property
    def _frontier(self) -> tuple[str, ...]:
        return tuple(sorted(self.mapping.frontier_variables()))

    @cached_property
    def _fire(self):
        return compile_head(self.mapping, self._frontier)

    def frontier(self) -> tuple[str, ...]:
        """Frontier variables in canonical (sorted) order.

        Query-result messages carry rows of frontier values in exactly
        this order; both end points derive it independently from the
        rule, so nothing order-dependent travels on the wire.
        """
        return self._frontier

    def head_facts(
        self, rows: Iterable[Row], null_factory: NullFactory
    ) -> list[tuple[str, Row]]:
        """``(relation, row)`` head facts of firing the rule once per
        frontier row in *rows* (values in :meth:`frontier` order),
        minting fresh nulls for existential head variables."""
        return self._fire(rows, null_factory)

    # -- wire format ----------------------------------------------------------

    def to_text(self) -> str:
        """Render back to the rule-file syntax (modulo whitespace)."""
        def atom_text(atom, peer: str) -> str:
            terms = ", ".join(_term_text(t) for t in atom.terms)
            return f"{peer}:{atom.relation}({terms})"

        head = ", ".join(atom_text(a, self.target) for a in self.mapping.head)
        body_parts = [atom_text(a, self.source) for a in self.mapping.body]
        body_parts += [
            f"{_term_text(c.left)} {c.op} {_term_text(c.right)}"
            for c in self.mapping.comparisons
        ]
        return f"{head} <- {', '.join(body_parts)}"

    def to_payload(self) -> dict[str, Any]:
        return {"rule_id": self.rule_id, "text": self.to_text()}

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "CoordinationRule":
        return cls.from_text(payload["rule_id"], payload["text"])


def _term_text(term: Any) -> str:
    from repro.relational.conjunctive import Variable

    if isinstance(term, Variable):
        return term.name
    if isinstance(term, bool):
        return "true" if term else "false"
    if isinstance(term, str):
        escaped = term.replace("\\", "\\\\").replace("'", "\\'")
        return f"'{escaped}'"
    return repr(term)

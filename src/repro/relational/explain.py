"""Query explanation: expose the planner's join-order decisions.

``explain`` compiles the query through
:func:`repro.relational.planner.compile_plan` — the same compiler the
storage wrappers execute — and renders the chosen atom order, the
per-step probe templates, the two estimates behind the order (rows an
atom yields per incoming row, and intermediate rows after the step),
the plan's estimated cost C_out (the sum of the latter, the quantity
the planner minimised over every order of the body), where each
comparison runs
(*scan filter* or *bucket filter* when the step's atom alone binds it —
applied to the scanned relation or to each probed index bucket before
anything is joined — else *cross-step filter* on the joined batch),
the sampled selectivity of those local filters that the estimate
already includes, and the SQL join a SQLite-backed store would push
down for the same plan: the coDB equivalent of ``EXPLAIN``.
There is one source of truth for join ordering — the row-at-a-time
loop, the columnar batch executor and the SQL pushdown all run this
same plan — and this module only formats it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro._util import format_table
from repro.relational.conjunctive import Atom, ConjunctiveQuery
from repro.relational.database import Database
from repro.relational.planner import SqlPlan, compile_plan, compile_plan_sql


@dataclass
class PlanStep:
    """One atom in the chosen join order."""

    atom: Atom
    #: Column positions bound (by constants or earlier steps) when this
    #: atom is reached — exactly the plan's index-probe template.
    bound_positions: tuple[int, ...]
    #: The planner's estimate of the rows this atom yields per incoming
    #: row (the scan's rows at the first step).
    estimated_matches: float
    #: Estimated intermediate rows after this step.
    estimated_rows: float
    #: Comparisons that become fully bound after this step, each as
    #: ``"<where it runs>: <comparison>"`` (see the module docstring).
    comparisons_checked: tuple[str, ...] = ()
    #: Sampled share of the atom's rows passing its scan/bucket
    #: filters; ``estimated_matches`` is already multiplied by it.
    selectivity: float = 1.0


@dataclass
class QueryPlan:
    """The ordered plan for one query over one database."""

    query: ConjunctiveQuery
    steps: list[PlanStep] = field(default_factory=list)
    #: The SQL join a SQLite-backed store would push down for this plan
    #: (same compiler, same atom order), or ``None`` when the body
    #: references a relation the database does not hold.
    sql: SqlPlan | None = None

    def atom_order(self) -> list[str]:
        return [step.atom.relation for step in self.steps]

    def estimated_cost(self) -> float:
        """C_out: the estimated intermediate rows summed over the steps
        — the quantity the planner minimised."""
        return sum(step.estimated_rows for step in self.steps)

    def format(self) -> str:
        rows = []
        for i, step in enumerate(self.steps):
            rows.append(
                [
                    i,
                    repr(step.atom),
                    ",".join(map(str, step.bound_positions)) or "-",
                    f"{step.estimated_matches:.1f}",
                    f"{step.estimated_rows:.1f}",
                    f"{step.selectivity:.3f}",
                    "; ".join(step.comparisons_checked) or "-",
                ]
            )
        table = format_table(
            [
                "step",
                "atom",
                "bound cols",
                "est. matches",
                "est. rows out",
                "selectivity",
                "comparisons",
            ],
            rows,
            title=f"plan for {self.query!r}",
        )
        lines = [table, f"estimated cost (C_out): {self.estimated_cost():.1f}"]
        if self.sql is None:
            lines.append("pushdown: in-memory only (relation not in store)")
            return "\n".join(lines)
        lines.append(f"pushdown SQL: {self.sql.sql}")
        if self.sql.params:
            lines.append(f"pushdown params: {self.sql.params!r}")
        return "\n".join(lines)


def explain(database: Database, query: ConjunctiveQuery) -> QueryPlan:
    """The join order the planner chooses right now, without executing.

    Delegates to :func:`repro.relational.planner.compile_plan`, so what
    is shown is what the wrappers run.  Ground comparisons (no
    variables) are reported at the first step — the executor hoists
    them before the join even starts.
    """
    compiled = compile_plan(
        query.body, query.comparisons, query.head.terms, view=database
    )
    plan = QueryPlan(
        query=query,
        sql=compile_plan_sql(compiled, database.relation_names),
    )
    for i, step in enumerate(compiled.steps):
        local = "bucket filter" if step.probe_positions else "scan filter"
        places = {ci: local for ci in step.local_comparisons}
        checked = [
            f"{places.get(ci, 'cross-step filter')}: {compiled.comparisons[ci]!r}"
            for ci in step.comparison_indices
        ]
        if i == 0:
            checked = [
                f"ground: {compiled.comparisons[ci]!r}"
                for ci in compiled.ground_comparisons
            ] + checked
        plan.steps.append(
            PlanStep(
                atom=query.body[step.atom_index],
                bound_positions=step.probe_positions,
                estimated_matches=step.estimated_cost,
                estimated_rows=step.estimated_rows,
                comparisons_checked=tuple(checked),
                selectivity=step.selectivity,
            )
        )
    return plan

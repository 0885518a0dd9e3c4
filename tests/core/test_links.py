"""Link tables: perspective, dependency, per-session closure conditions."""

from repro.core.links import CLOSED, INACTIVE, OPEN, LinkSession, LinkTable
from repro.core.rules import CoordinationRule
from repro.relational.values import row_key


def rules(*texts):
    return [CoordinationRule.from_text(f"r{i}", t) for i, t in enumerate(texts)]


class TestPerspective:
    def test_rule_is_outgoing_at_target_incoming_at_source(self):
        rule_set = rules("A:item(x) <- B:item(x)")
        at_a = LinkTable("A", rule_set)
        at_b = LinkTable("B", rule_set)
        assert list(at_a.outgoing) == ["r0"] and not at_a.incoming
        assert list(at_b.incoming) == ["r0"] and not at_b.outgoing
        assert at_a.outgoing["r0"].remote == "B"
        assert at_b.incoming["r0"].remote == "A"

    def test_unrelated_rules_ignored(self):
        table = LinkTable("X", rules("A:item(x) <- B:item(x)"))
        assert not table.outgoing and not table.incoming

    def test_acquaintances_deterministic(self):
        table = LinkTable(
            "B",
            rules(
                "A:item(x) <- B:item(x)",
                "B:item(x) <- C:item(x)",
                "B:item(x) <- D:item(x)",
            ),
        )
        assert table.acquaintances() == ["C", "D", "A"]

    def test_one_acquaintance_per_remote_however_many_rules(self):
        # Two imports from B and one export to it: one pipe, three rules.
        table = LinkTable(
            "A",
            rules(
                "A:item(x) <- B:item(x)",
                "A:tag(x) <- B:tag(x)",
                "B:item(x) <- A:item(x)",
            ),
        )
        assert table.acquaintances() == ["B"]
        assert list(table.outgoing) == ["r0", "r1"]
        assert list(table.incoming) == ["r2"]

    def test_no_rules_no_acquaintances(self):
        assert LinkTable("A", []).acquaintances() == []


class TestDependency:
    def test_incoming_depends_on_outgoing_via_relation(self):
        # At B: incoming r0 (A imports B.item); outgoing r1 (B imports C.item
        # into B.item).  r0's body reads item, r1's head writes item.
        table = LinkTable(
            "B", rules("A:item(x) <- B:item(x)", "B:item(x) <- C:item(x)")
        )
        assert table.incoming["r0"].relevant_outgoing == ("r1",)

    def test_no_dependency_across_different_relations(self):
        table = LinkTable(
            "B", rules("A:x(n) <- B:left(n)", "B:right(n) <- C:x(n)")
        )
        assert table.incoming["r0"].relevant_outgoing == ()

    def test_multi_relation_bodies(self):
        table = LinkTable(
            "B",
            rules(
                "A:out(n) <- B:p(n), B:q(n)",
                "B:p(n) <- C:src(n)",
                "B:q(n) <- D:src(n)",
            ),
        )
        assert set(table.incoming["r0"].relevant_outgoing) == {"r1", "r2"}

    def test_incoming_dependent_on_relations(self):
        table = LinkTable(
            "B", rules("A:out(n) <- B:p(n)", "C:other(n) <- B:q(n)")
        )
        dependents = table.incoming_dependent_on_relations({"p"})
        assert [l.rule_id for l in dependents] == ["r0"]


class TestClosureConditions:
    """Closure is evaluated per update session (LinkSession), never on
    the shared topology."""

    def make(self):
        table = LinkTable(
            "B", rules("A:item(x) <- B:item(x)", "B:item(x) <- C:item(x)")
        )
        return table, LinkSession(table)

    def test_initial_states(self):
        table, session = self.make()
        assert table.incoming["r0"].state == INACTIVE  # diagnostic mirror
        assert session.incoming_state("r0").state == INACTIVE
        assert session.outgoing_state("r1").state == INACTIVE

    def test_all_outgoing_closed_vacuous(self):
        table = LinkTable("B", rules("A:item(x) <- B:item(x)"))
        assert LinkSession(table).all_outgoing_closed()

    def test_incoming_ready_to_close_requires_open_state(self):
        _table, session = self.make()
        session.close_outgoing("r1", "cascade")
        assert session.incoming_ready_to_close() == []  # r0 still inactive
        session.incoming_state("r0").state = OPEN
        assert [
            link.rule_id for link, _ in session.incoming_ready_to_close()
        ] == ["r0"]

    def test_incoming_not_ready_while_dependency_open(self):
        _table, session = self.make()
        session.incoming_state("r0").state = OPEN
        session.outgoing_state("r1").state = OPEN
        assert session.incoming_ready_to_close() == []

    def test_sessions_are_independent(self):
        # Two concurrent updates over ONE shared topology: closing a
        # link in one session must not close it in the other.
        table, first = self.make()
        second = LinkSession(table)
        first.open_all_outgoing()
        second.open_all_outgoing()
        first.close_outgoing("r1", "cascade")
        assert first.outgoing_state("r1").state == CLOSED
        assert second.outgoing_state("r1").state == OPEN
        assert first.all_outgoing_closed()
        assert not second.all_outgoing_closed()

    def test_session_dedup_sets_are_per_session(self):
        table, first = self.make()
        second = LinkSession(table)
        first.incoming_state("r0").seen.add(row_key((1,)))
        assert row_key((1,)) in first.incoming_state("r0").seen
        assert row_key((1,)) not in second.incoming_state("r0").seen

    def test_seen_sets_use_type_strict_identity(self):
        # The sets hold row keys, never raw rows: 1, 1.0 and True are
        # equal and hash alike in Python, their keys do not.
        _table, session = self.make()
        seen = session.incoming_state("r0").seen
        seen.add(row_key((1,)))
        assert row_key((1,)) in seen
        assert row_key((1.0,)) not in seen
        assert row_key((True,)) not in seen

    def test_fired_set_is_lifetime_and_shared(self):
        # The outgoing link's fired-set lives on the shared topology:
        # every session (and the push engine) dedups minting against it.
        table, _session = self.make()
        fired = table.outgoing["r1"].fired
        assert row_key((2,)) not in fired
        fired.add(row_key((2,)))
        assert row_key((2,)) in LinkSession(table).table.outgoing["r1"].fired
        assert row_key((2.0,)) not in fired

    def test_closing_stamps_diagnostic_mirror(self):
        table, session = self.make()
        session.open_all_outgoing()
        session.close_outgoing("r1", "failure")
        assert table.outgoing["r1"].state == CLOSED
        assert table.outgoing["r1"].closed_by == "failure"

    def test_rebind_keeps_state_for_surviving_rules(self):
        table, session = self.make()
        session.open_all_outgoing()
        rewired = LinkTable(
            "B", rules("A:item(x) <- B:item(x)", "B:item(x) <- C:item(x)")
        )
        session.rebind(rewired)
        assert session.outgoing_state("r1").state == OPEN

    def test_incoming_for_target(self):
        table = LinkTable(
            "B", rules("A:item(x) <- B:item(x)", "C:item(x) <- B:item(x)")
        )
        assert [l.rule_id for l in table.incoming_for_target("A")] == ["r0"]
        assert [l.rule_id for l in table.incoming_for_target("C")] == ["r1"]
        session = LinkSession(table)
        assert [
            link.rule_id for link, _ in session.incoming_for_target("A")
        ] == ["r0"]


def keyed(rows):
    """The batch shape the link functions exchange: ``{row key: row}``."""
    return {row_key(row): row for row in rows}


class TestUndelivered:
    """The one send-memory filter shared by update sessions, the push
    engine and network queries."""

    def link(self):
        from repro.core.links import IncomingLink

        return IncomingLink(rules("A:item(x) <- B:item(x)")[0])

    def test_update_skips_everything_pushed_and_teaches_at_once(self):
        from repro.core.links import undelivered

        link, taught = self.link(), set()
        link.pushed.add((1,))
        rows, suppressed = undelivered(link, keyed([(1,), (2,), (3,)]), taught)
        assert rows == [(2,), (3,)] and suppressed == 1
        assert link.pushed == {(1,), (2,), (3,)}
        assert taught == link.unsettled == {(2,), (3,)}
        # Another update sees the in-flight keys as delivered.
        assert undelivered(link, keyed([(2,), (4,)]), set()) == ([(4,)], 1)

    def test_query_skips_only_settled_keys_and_holds_what_it_ships(self):
        from repro.core.links import undelivered

        link, sent = self.link(), set()
        link.pushed.update({(1,), (2,)})
        link.unsettled.add((2,))  # an update still delivering it
        rows, suppressed = undelivered(
            link, keyed([(1,), (2,), (3,)]), sent, settled_only=True
        )
        assert rows == [(2,), (3,)] and suppressed == 1
        assert sent == {(2,), (3,)}
        assert link.pushed == {(1,), (2,)} and link.unsettled == {(2,)}
        # The query's own shipments are not shipped twice, nor counted.
        assert undelivered(link, keyed([(3,)]), sent, settled_only=True) == ([], 0)

    def test_rollback_forgets_and_resets_marks(self):
        table = LinkTable("B", rules("A:item(x) <- B:item(x)"))
        session = LinkSession(table)
        link = table.incoming["r0"]
        link.marks = {"item": (0, 5)}
        state = session.incoming_state("r0")
        state.lifetime_new.update({(1,), (2,)})
        link.pushed.update({(1,), (2,), (9,)})
        link.unsettled.update({(1,), (2,)})
        session.close_incoming("r0", "failure")
        assert link.pushed == {(9,)} and not link.unsettled
        assert link.marks == {} and link.forgets == 1

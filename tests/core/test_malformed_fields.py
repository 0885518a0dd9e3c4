"""A result's ``path_len`` and a registration's lease are read by one
reader (:func:`repro.core.termination.read_count`): a positive ``int``
and a non-negative ``int``, never a ``bool``.  Anything else is a
:class:`~repro.errors.ProtocolError` raised before any state moves —
before the computation is engaged, a row is marked received or fired,
or a registration is stored.
"""

import pytest

from repro.core.node import CoDBNode
from repro.core.rules import CoordinationRule
from repro.errors import ProtocolError
from repro.p2p.ids import IdAuthority
from repro.p2p.messages import Message
from repro.relational.parser import parse_schema

UPDATE, QUERY = "update-0", "query-0"
BAD_PATH_LENS = ["x", None, -5, 0, True, 2.7]
BAD_LEASES = ["abc", -3, True, 2.5, None]


class Clock:
    """Where a transport would stand: no peers, no wire, a clock."""

    def register(self, peer_id, handler, scope=None):
        pass

    def now(self):
        return 0.0

    def notify_progress(self):
        pass


def core():
    """N1 of the chain ``N0 <- N1 <- N2``: it exports to N0 over
    ``r01`` and imports from N2 over ``r12``."""
    node = CoDBNode("N1", parse_schema("item(k: int)"), Clock(), IdAuthority(seed=1))
    node.set_rules([
        CoordinationRule.from_text("r01", "N0:item(k) <- N1:item(k)"),
        CoordinationRule.from_text("r12", "N1:item(k) <- N2:item(k)"),
    ])
    return node


def engaged_in_update():
    node = core()
    node.react([Message(
        "update_request", "N0", "N1",
        {"update_id": UPDATE, "origin": "N0", "path": ["N0"]}, "m-0",
    )])
    return node


def engaged_in_query():
    node = core()
    node.react([Message(
        "query_request", "N0", "N1",
        {"query_id": QUERY, "origin": "N0", "label": ["N0"], "rule_ids": ["r01"]},
        "m-0",
    )])
    return node


def untouched(node, computation_id):
    session = node.updates.session(computation_id)
    return (
        node.rows("item") == []
        and not node.links.outgoing["r12"].fired
        and not session.links.outgoing_state("r12").seen
        and node.termination.deficit(computation_id) == 1
    )


@pytest.mark.parametrize("value", BAD_PATH_LENS)
def test_a_bad_path_len_on_a_result_is_refused(value):
    node = engaged_in_update()
    bad = Message("query_result", "N2", "N1", {
        "update_id": UPDATE, "rule_id": "r12", "rows": [[1]], "path_len": value,
    }, "m-1")
    with pytest.raises(ProtocolError, match="path_len"):
        node.react([bad])
    assert untouched(node, UPDATE)


@pytest.mark.parametrize("value", BAD_PATH_LENS)
def test_a_bad_path_len_on_query_data_is_refused(value):
    node = engaged_in_query()
    bad = Message("query_data", "N2", "N1", {
        "query_id": QUERY, "rule_id": "r12", "rows": [[1]], "path_len": value,
    }, "m-1")
    with pytest.raises(ProtocolError, match="path_len"):
        node.react([bad])
    assert untouched(node, QUERY)


@pytest.mark.parametrize("value", BAD_LEASES)
def test_a_bad_lease_on_a_registration_is_refused(value):
    node = core()
    bad = Message("invalidation", "N0", "N1", {
        "op": "register", "rule_id": "r01", "lease": value,
    }, "m-1")
    with pytest.raises(ProtocolError, match="lease"):
        node.react([bad])
    link = node.links.incoming["r01"]
    assert not link.cache_interest and link.lease_remaining == 0


@pytest.mark.parametrize("value", BAD_LEASES)
def test_a_bad_lease_carried_on_a_completion_is_refused(value):
    node = engaged_in_query()
    bad = Message("query_complete", "N0", "N1", {
        "query_id": QUERY, "register": {"r01": value},
    }, "m-1")
    with pytest.raises(ProtocolError, match="r01"):
        node.react([bad])
    link = node.links.incoming["r01"]
    assert not link.cache_interest and link.lease_remaining == 0
    assert node.updates.session(QUERY) is not None


def test_good_values_pass():
    node = engaged_in_update()
    node.react([Message("query_result", "N2", "N1", {
        "update_id": UPDATE, "rule_id": "r12", "rows": [[1]], "path_len": 2,
    }, "m-1")])
    assert node.rows("item") == [(1,)]
    node.react([Message("invalidation", "N0", "N1", {
        "op": "register", "rule_id": "r01", "lease": 0,
    }, "m-2")])
    assert node.links.incoming["r01"].cache_interest

"""A bounce is not a death.

A message that comes back ``undeliverable`` is sent again, under the
same message id, until the sender's retry budget for that peer is
spent; only then is the peer written off, through the same
``_on_peer_down`` a failure detector's notice takes.  Two bugs of
reading a bounced result or closure as its recipient's death are
pinned here:

* an update whose one closure bounced never completed: the importer's
  link stayed open, and the failure flood only armed it (a closure
  rides the link's last ``query_result``, ``"closed": true``);
* an exporter that wrote an importer off after one bounced shipment
  dropped its cache interest while the importer still believed itself
  registered, so the importer's cached reads stayed stale for good.
"""

import ast
import inspect
import logging
import textwrap

import pytest

from repro import CoDBNetwork
from repro.core.node import CoDBNode
from repro.p2p.faults import FaultInjector, FaultModel
from repro.service.metrics import parse_metrics, render_metrics

QUERY = "q(x) <- item(x)"
#: Stands for a ``query_result`` that closes its link among *kinds*.
CLOSING = "closing query_result"


def closes(message) -> bool:
    return message.kind == "query_result" and bool(message.payload.get("closed"))


class Bounce(FaultModel):
    """Bounce the messages of *kinds* (one kind, or a tuple; ``CLOSING``
    for a result that closes its link) from *sender* to *recipient*:
    the first one only, or every one when *always*."""

    def __init__(self, kinds, sender, recipient, *, always=False):
        super().__init__()
        self.kinds = {kinds} if isinstance(kinds, str) else set(kinds)
        self.pipe = (sender, recipient)
        self.always = always
        self.bounced = 0

    def on_send(self, message, verdict):
        if (
            (message.kind in self.kinds or (CLOSING in self.kinds and closes(message)))
            and (message.sender, message.recipient) == self.pipe
            and (self.always or not self.bounced)
        ):
            self.bounced += 1
            verdict.bounce = True


def chain(length, seed, facts=()):
    """``N0 <- N1 <- ... <- N<length-1>``; the tail holds *facts*."""
    net = CoDBNetwork(seed=seed, with_superpeer=False)
    tail = f"N{length - 1}"
    for index in range(length):
        name = f"N{index}"
        rows = {"item": [(k,) for k in facts]} if name == tail and facts else None
        net.add_node(name, "item(k: int)", facts=rows)
    for index in range(length - 1):
        net.add_rule(f"N{index}:item(k) <- N{index + 1}:item(k)")
    net.start()
    return net


def install(net, model):
    net.transport.install_faults(FaultInjector(model, seed=1))
    return model


@pytest.mark.parametrize("facts", [(), (1, 2)], ids=["empty", "data"])
@pytest.mark.parametrize("seed", [3, 7])
class TestALostClosure:
    """Bug A: the chain ``N0 <- N1 <- N2 <- N3``, updated from N3, with
    the one closing result from N2 to N1 bounced."""

    def test_a_one_shot_loss_is_retried_and_completes(self, seed, facts):
        net = chain(4, seed, facts)
        fault = install(net, Bounce(CLOSING, "N2", "N1"))
        outcome = net.global_update("N3")
        assert fault.bounced == 1
        assert outcome.report.outcome == "complete"
        assert net.node("N0").rows("item") == [(k,) for k in facts]
        assert net.node("N2").stats.lifetime_totals()["messages_resent"] == 1
        assert net.node("N2").stats.lifetime_totals()["peers_written_off"] == 0

    def test_a_permanent_loss_writes_the_peer_off_and_completes_partial(
        self, seed, facts, caplog
    ):
        net = chain(4, seed, facts)
        fault = install(net, Bounce(CLOSING, "N2", "N1", always=True))
        with caplog.at_level(logging.WARNING, logger="repro.core.node"):
            outcome = net.global_update("N3")
        assert fault.bounced == 1 + CoDBNode.RESEND_LIMIT
        assert outcome.report.outcome == "partial"
        assert "N1" in outcome.report.unreachable_peers
        totals = net.node("N2").stats.lifetime_totals()
        assert totals["messages_resent"] == CoDBNode.RESEND_LIMIT
        assert totals["peers_written_off"] == 1
        (record,) = [r for r in caplog.records if r.name == "repro.core.node"]
        assert record.levelno == logging.WARNING
        assert "N2" in record.getMessage() and "N1" in record.getMessage()
        assert "query_result" in record.getMessage()
        # A late ack for the written-off update leaves no state behind.
        net.run()
        assert not any(node.termination._computations for node in net.nodes.values())
        assert_the_rows_arrive(net, fault, facts)

    def test_with_the_notice_lost_too_the_failure_flood_closes_the_link(
        self, seed, facts
    ):
        """N1 never hears that N2 wrote it off: only N2's failure flood
        tells it that its link from N2 will never close."""
        net = chain(4, seed, facts)
        fault = install(net, Bounce((CLOSING, "rejoin"), "N2", "N1", always=True))
        outcome = net.global_update("N3")
        assert outcome.report.outcome == "partial"
        assert net.node("N2").stats.peers_written_off >= 1
        report = net.node("N1").update_report(outcome.update_id)
        assert report.links_closed_by_failure == 1
        assert_the_rows_arrive(net, fault, facts)


def assert_the_rows_arrive(net, fault, facts):
    """The rows rode the closure that was lost for good, so they did
    not arrive; the write-off forgot that they were sent, so the next
    update brings them once the weather clears."""
    if facts:
        assert net.node("N0").rows("item") == []
    fault.kinds = set()
    assert net.global_update("N3").report.outcome == "complete"
    assert net.node("N0").rows("item") == [(k,) for k in facts]


def read(net, **kwargs):
    return sorted(net.query("N0", QUERY, mode="network", **kwargs))


def settled_write(net, node, value):
    net.node(node).insert("item", (value,))
    net.run()


@pytest.mark.parametrize(
    "length, kind",
    [(2, "query_result"), (2, CLOSING), (3, "query_result"), (3, CLOSING)],
)
class TestAStaleCachedReader:
    """Bug B: a cached reader at N0 after an update during which one
    result or closure bounced on the last hop into it (N1 -> N0 on the
    2-chain, N2 -> N1 on the 3-chain)."""

    def test_cached_equals_uncached_after_the_next_settled_write(
        self, length, kind
    ):
        tail = f"N{length - 1}"
        net = chain(length, 3, (1,))
        assert read(net) == [(1,)]
        net.run()  # the registrations settle
        fault = install(net, Bounce(kind, tail, f"N{length - 2}"))
        outcome = net.global_update("N0")
        assert fault.bounced == 1
        assert outcome.report.outcome == "complete"
        for value in range(2, 6):
            settled_write(net, tail, value)
            cached = read(net)
            assert cached == read(net, cache=False)
        assert cached == [(k,) for k in range(1, 6)]


@pytest.mark.parametrize("seed", [3, 7])
def test_a_result_retried_after_its_closure_still_reaches_downstream(seed):
    """The one order a retry can break: the first ``query_result`` from
    N2 to N1 bounces, the closing one behind it arrives, N1 closes
    its own link to N0 by cascade — and the retried result must still
    reach N0 in the same update."""
    net = chain(3, seed, (1, 2))
    fault = install(net, Bounce("query_result", "N2", "N1"))
    outcome = net.global_update("N0")
    assert fault.bounced == 1
    assert outcome.report.outcome == "complete"
    assert net.node("N0").rows("item") == [(1,), (2,)]


def test_a_participant_that_writes_its_parent_off_does_not_strand_it():
    """Every ``query_data`` from N2 to N1 is lost: N2's last word, which
    carries its tree ack, can never arrive.  N2 writes N1 off and tells
    it, so N1 writes N2 off in turn instead of waiting for that ack,
    and the query completes."""
    net = chain(3, 3, (1, 2))
    install(net, Bounce("query_data", "N2", "N1", always=True))
    assert read(net, cache=False) == []
    assert net.node("N2").stats.lifetime_totals()["peers_written_off"] == 1


def test_the_retry_counters_reach_metrics():
    net = chain(2, 3, (1,))
    install(net, Bounce("query_result", "N1", "N0", always=True))
    net.global_update("N0")
    scrape = parse_metrics(render_metrics(net.lifetime_totals()))
    assert scrape.types["codb_node_messages_resent_total"] == "counter"
    assert scrape.value("codb_node_messages_resent_total", node="N1") == CoDBNode.RESEND_LIMIT
    assert scrape.value("codb_node_peers_written_off_total", node="N1") == 1
    assert scrape.value("codb_node_peers_written_off_total", node="N0") == 0


def test_a_lost_write_off_notice_is_made_good_at_first_contact():
    """Every invalidation from N1 to N0 bounces, and so does the notice
    that N1 wrote N0 off: N1 dropped N0's interest, but N0 still thinks
    itself registered.  N0's next contact makes N1 send the handshake
    again, so N0 registers afresh and its cached reads stay fresh."""
    net = chain(2, 3, (1,))
    assert read(net) == [(1,)]
    net.run()
    fault = install(net, Bounce(("invalidation", "rejoin"), "N1", "N0", always=True))
    settled_write(net, "N1", 2)
    assert fault.bounced == 2 + CoDBNode.RESEND_LIMIT
    fault.kinds = set()  # the weather clears
    assert read(net, cache=False) == [(1,), (2,)]  # the first contact
    net.run()
    for value in (3, 4):
        settled_write(net, "N1", value)
        assert read(net) == read(net, cache=False)
    assert read(net) == [(1,), (2,), (3,), (4,)]


def test_bounces_toward_a_departed_peer_flood_the_cache_once():
    """N1 leaves: N0 writes it off and floods its answer cache.  Each
    later update's request to N1 bounces and writes N1 off again — the
    update still drains and ends — but the cache floods no more."""
    net = chain(2, 3, (1,))
    assert read(net) == [(1,)]
    net.run()
    root = net.node("N0")
    epoch = root.cache.epoch("item")
    bounced = []
    bounce = net.transport.bounce

    def recording(message):
        bounced.append(message.kind)
        bounce(message)

    net.transport.bounce = recording
    net.node("N1").detach()
    net.run()
    assert root.cache.epoch("item") == epoch + 1
    for _ in range(3):
        outcome = net.global_update("N0")
        assert outcome.report.outcome == "partial"
        assert outcome.report.unreachable_peers == ["N1"]
    assert bounced == ["update_request", "update_complete"] * 3
    assert root.cache.epoch("item") == epoch + 1
    assert not root.termination._computations


def test_a_write_off_notice_floods_the_cache_once():
    """N2 writes N1 off and tells it.  N1 writes N2 off in turn, which
    floods its answer cache; the resync that follows resets the
    interest toward N2 but does not flood a second time."""
    net = chain(4, 3, (1, 2))
    install(net, Bounce(CLOSING, "N2", "N1", always=True))
    importer = net.node("N1")
    floods = []
    bump_all = importer.cache.bump_all

    def counting():
        floods.append(importer.cache.epoch("item"))
        bump_all()

    importer.cache.bump_all = counting
    net.global_update("N3")
    assert net.node("N2").stats.peers_written_off == 1
    assert len(floods) == 1
    assert not importer.links.outgoing["r1"].registered


def keys_read(function) -> set[str]:
    """The keys *function* reads from a dict named ``payload``."""
    keys = set()
    for node in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(function)))):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "payload"
        ):
            keys.add(node.args[0].value)
        elif (
            isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name)
            and node.value.id == "payload"
        ):
            keys.add(node.slice.value)
    return keys


def test_a_rejoin_carries_exactly_what_its_receiver_reads():
    read_keys = keys_read(CoDBNode._on_rejoin)
    assert read_keys == {"digests", "ack", "written_off"}
    net = chain(2, 3, (1,))
    sent = []
    send_burst = net.transport.send_burst

    def recording(messages):
        sent.extend(m.payload for m in messages if m.kind == "rejoin")
        send_burst(messages)

    net.transport.send_burst = recording
    net.node("N1").rejoin()  # the handshake, and N0's answer
    net.run()
    assert [set(payload) for payload in sent] == [{"digests", "ack"}] * 2
    node = net.node("N0")
    assert set(node._rejoin_payload(ack=False, written_off=True)) == read_keys

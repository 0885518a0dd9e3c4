"""The simulator is deterministic whatever Python's string hashing.

Two interpreters with different ``PYTHONHASHSEED`` run the same global
updates and the same propagating read: they must send the same
messages — same kind, sender, recipient and id, same payload — in the
same order.  Set iteration order is what hash seeds change, so this is
the guard against protocol code whose sends follow one.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

#: Prints the number of messages sent and a digest of their sequence.
#: Besides two global updates and a propagating read on a random graph
#: and a grid, it covers the paths where a node finishes what one input
#: sent: results cut into ``batch_rows`` messages, so a link's closure
#: and a participant's tree ack ride the last of several; a cached
#: read, a write at the tail and the read again (registrations ride the
#: completion flood, then the invalidation cascade); a read around the
#: rule cycles of a complete 3-graph (where a mutual import makes a
#: registration leave on its own); and a one-shot bounce, retried under
#: its own id.  Then the network query's own paths: a read around a
#: 4-ring, where the label cut stops the request; a read posed while an
#: update from the far end of a chain is still in flight, so the memory
#: it may skip is unsettled; a one-shot bounce of a ``query_data``; two
#: roots under an admission cap of one, so a participation is deferred
#: and replayed; and an existential head read twice, so the second read
#: finds its frontier rows fired.
SCRIPT = """
import hashlib
from repro._util import stable_json
from repro.core.network import CoDBNetwork
from repro.core.node import NodeConfig
from repro.p2p.faults import FaultInjector, FaultModel
from repro.workloads.topologies import chain, complete, grid, random_graph, ring

QUERY = "q(k, v) <- item(k, v)"
digest, sent = hashlib.sha256(), 0


class BounceOnce(FaultModel):
    def __init__(self, kind, sender, recipient):
        super().__init__()
        self.target = (kind, sender, recipient)

    def on_send(self, message, verdict):
        if (message.kind, message.sender, message.recipient) == self.target:
            self.target = None
            verdict.bounce = True


def build(blueprint, config=None):
    return record(blueprint.build(
        seed=1, tuples_per_node=8, config=config, with_superpeer=False
    ))


def record(net):
    send_burst = net.transport.send_burst

    def recording(messages, send_burst=send_burst):
        global sent
        for m in messages:
            frame = [m.kind, m.sender, m.recipient, m.message_id, m.payload]
            digest.update(stable_json(frame).encode())
            sent += 1
        send_burst(messages)

    net.transport.send_burst = recording
    return net


for blueprint in (random_graph(7, 0.4, seed=2), grid(3, 3)):
    net = build(blueprint)
    for _ in range(2):
        net.global_update(blueprint.origin)
        net.run()
    net.query(blueprint.origin, QUERY, mode="network")
    net.run()

net = build(chain(4), NodeConfig(batch_rows=2))
net.global_update("N0")
net.run()
net.node("N3").insert("item", (1000, 1))
net.global_update("N0")
net.run()

net = build(chain(3))
net.query("N0", QUERY, mode="network", cache=True)
net.node("N2").insert("item", (1000, 1))
net.run()
net.query("N0", QUERY, mode="network", cache=True)
net.run()

net = build(complete(3))
net.query("N0", QUERY, mode="network", cache=True)
net.run()

net = build(chain(4))
net.transport.install_faults(
    FaultInjector(BounceOnce("query_result", "N2", "N1"), seed=1)
)
net.global_update("N0")
net.run()

net = build(ring(4))
net.query("N0", QUERY, mode="network", cache=False)
net.run()

net = build(chain(4))
net.node("N3").submit_update_id()
for _ in range(4):
    net.transport.step()
net.node("N0").submit_query_id(QUERY, cache=False)
net.run()

net = build(chain(3))
net.transport.install_faults(
    FaultInjector(BounceOnce("query_data", "N2", "N1"), seed=1)
)
net.query("N0", QUERY, mode="network", cache=False)
net.run()

net = build(chain(3), NodeConfig(max_active_sessions=1))
net.node("N0").submit_query_id(QUERY, cache=False)
net.node("N1").submit_query_id(QUERY, cache=False)
net.run()

net = CoDBNetwork(
    seed=1, with_superpeer=False, config=NodeConfig(resend_suppression=False)
)
net.add_node("C", "person(n: str)", facts="person('a'). person('b').")
net.add_node("B", "emp(n: str, d)")
net.add_node("A", "emp(n: str, d)")
net.add_rule("B:emp(n, d) <- C:person(n)")
net.add_rule("A:emp(n, d) <- B:emp(n, d)")
net.start()
record(net)
for _ in range(2):
    net.query("A", "q(n, d) <- emp(n, d)", mode="network", cache=False)
    net.run()
print(sent, digest.hexdigest())
"""


def trace(hash_seed: str) -> str:
    env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return done.stdout


def test_two_hash_seeds_send_the_same_messages():
    first, second = trace("0"), trace("3")
    assert int(first.split()[0]) > 0
    assert first == second


#: What :data:`SCRIPT` prints: the count and digest of the stream it
#: sends.  A change that moves a message on purpose re-pins it and says
#: which messages moved and why.
PINNED = "712 11b52c1bffd41f50891fcb896e090cd63de0ed9c8f4081084496afd4cc3dc6c7"


def test_the_stream_is_pinned():
    assert trace("0").strip() == PINNED

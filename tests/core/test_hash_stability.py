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
SCRIPT = """
import hashlib
from repro._util import stable_json
from repro.workloads.topologies import grid, random_graph

digest, sent = hashlib.sha256(), 0
for blueprint in (random_graph(7, 0.4, seed=2), grid(3, 3)):
    net = blueprint.build(seed=1, tuples_per_node=8, with_superpeer=False)
    send_burst = net.transport.send_burst

    def recording(messages, send_burst=send_burst):
        global sent
        for m in messages:
            frame = [m.kind, m.sender, m.recipient, m.message_id, m.payload]
            digest.update(stable_json(frame).encode())
            sent += 1
        send_burst(messages)

    net.transport.send_burst = recording
    for _ in range(2):
        net.global_update(blueprint.origin)
        net.run()
    net.query(blueprint.origin, "q(k, v) <- item(k, v)", mode="network")
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

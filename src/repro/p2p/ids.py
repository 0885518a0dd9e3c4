"""Identifier authority: peer, message, update and query ids.

JXTA gives every resource an opaque, globally unique id in an
IP-independent name space; coDB additionally "use[s] JXTA to generate
global updates identifiers" (§2).  We reproduce that with a seeded
:class:`IdAuthority` per network so ids are unique *and* runs are
reproducible.  Pipes need no ids: a peer's pipe to an acquaintance is
the endpoint's connection to it, named by the acquaintance's peer id.
Each kind of id has its own counter, so minting one kind never shifts
another kind's sequence.
"""

from __future__ import annotations

from repro._util import IdGenerator


class IdAuthority:
    """Mints the ids used across one network.

    A single authority is owned by the network object (simulated) or
    derived from the peer name (TCP), so two networks never share ids
    but one network's run is deterministic.
    """

    def __init__(self, seed: int = 0, namespace: str = "codb") -> None:
        self._generator = IdGenerator(seed, namespace)

    def peer_id(self) -> str:
        return self._generator.next_id("peer")

    def message_id(self) -> str:
        return self._generator.next_id("msg")

    def update_id(self) -> str:
        """A global-update identifier — "all global update request
        messages carry the same unique identifier generated at the node
        which started the global update" (§2)."""
        return self._generator.next_id("update")

    def query_id(self) -> str:
        return self._generator.next_id("query")

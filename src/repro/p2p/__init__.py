"""A JXTA-like peer-to-peer substrate.

The paper builds coDB on JXTA and uses exactly four of its concepts
(§2): peer definition/naming, pipes, messages enveloping arbitrary
data, and resource advertisement/discovery.  How they map here:

* a **peer** is an :class:`Endpoint` — one peer id registered on a
  transport, dispatching each incoming message to the handler for its
  kind;
* a **pipe** is the endpoint's per-recipient connection: what one
  delivery makes a peer send to one recipient leaves as one burst
  (:meth:`Endpoint.send_burst`).  *Which* peers a node has pipes with is not
  state of this package: §2-3 open a pipe exactly toward the peers a
  node shares coordination rules with and close it when no rule is
  left, so a node's acquaintances are computed from its rules
  (:meth:`repro.core.links.LinkTable.acquaintances`);
* **messages** are :class:`Message` envelopes with byte-accurate size
  accounting (the demo's "volume of the data in each message");
* **discovery** is the topology discovery procedure of
  :mod:`repro.core.topology`, flooded over the acquaintances; peers
  learn of each other from the rules file the super-peer broadcasts.

Modules:

* :mod:`ids` — opaque, reproducible peer/message/update/query ids;
* :mod:`messages` — typed message envelopes and their frame codecs;
* :mod:`transport` — the abstract transport;
* :mod:`inproc` — a deterministic discrete-event simulated network
  with a virtual clock and a configurable latency/bandwidth model;
* :mod:`tcp` — a real TCP/localhost transport (threads + sockets),
  wire-compatible with the simulated one;
* :mod:`endpoint` — per-peer dispatch, bursts and runs.

Everything above this package (the coDB protocol layers) is
transport-agnostic.
"""

from repro.p2p.ids import IdAuthority
from repro.p2p.messages import Message
from repro.p2p.transport import Transport, TransportStats
from repro.p2p.inproc import InProcessNetwork, LatencyModel
from repro.p2p.tcp import TcpNetwork
from repro.p2p.endpoint import Endpoint

__all__ = [
    "IdAuthority",
    "Message",
    "Transport",
    "TransportStats",
    "InProcessNetwork",
    "LatencyModel",
    "TcpNetwork",
    "Endpoint",
]

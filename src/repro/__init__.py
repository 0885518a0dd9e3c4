"""coDB — a reproduction of the VLDB 2004 peer-to-peer database system.

"Queries and Updates in the coDB Peer to Peer Database System",
Franconi, Kuper, Lopatenko, Zaihrayeu (VLDB'04; technical report
DIT-04-088).

A network of databases, possibly with different schemas, are
interconnected by means of GLAV coordination rules — inclusions of
conjunctive queries, with possibly existential variables in the head;
coordination rules may be cyclic.  Each node can be queried in its
schema for data, which the node can fetch from its neighbours
(query-time answering), or the whole network can run a *global update*
that materialises all derivable data so later queries are purely
local.

Quickstart — every request is a session with a handle::

    from repro import CoDBNetwork, as_completed

    net = CoDBNetwork(seed=7)
    net.add_node("BZ", "person(name: str, city: str)",
                 facts="person('anna', 'Trento'). person('bob', 'Bolzano')")
    net.add_node("TN", "resident(name: str)")
    net.add_rule("TN:resident(n) <- BZ:person(n, c), c = 'Trento'")
    net.start()

    # Submit, then await: the handle completes event-driven.
    handle = net.submit_global_update("TN")
    outcome = handle.result()          # raises on timeout; cancel() while queued
    assert net.query("TN", "q(n) <- resident(n)") == [("anna",)]

    # Many requests at once stream back in completion order:
    handles = [net.submit_global_update("TN"),
               net.submit_query("TN", "q(n) <- resident(n)")]
    for done in as_completed(handles):
        print(done.kind, done.request_id, done.result())

Blocking one-liners (``net.global_update(...)``, ``net.query(...)``)
remain as thin wrappers over handles.
:func:`repro.core.requests.wait` partitions a set of handles into done
and pending.  ``NodeConfig.max_active_sessions`` bounds
concurrent sessions per node (excess requests queue FIFO in global
seniority order), so update storms degrade gracefully.

See README.md for the system inventory and ``benchmarks/spine/`` (the
benchmark ``BENCHMARK.json`` declares; ``baseline/BENCH_0.json`` is its
first committed artefact) for the reproduced measurements.
"""

from repro.core.network import CoDBNetwork, UpdateOutcome
from repro.core.node import CoDBNode, NodeConfig
from repro.core.requests import (
    ALL_COMPLETED,
    FIRST_COMPLETED,
    RequestHandle,
    as_completed,
    wait,
)
from repro.core.rulefile import RuleFile
from repro.core.rules import CoordinationRule
from repro.core.statistics import (
    NetworkUpdateReport,
    NodeStatistics,
    UpdateReport,
)
from repro.core.superpeer import SuperPeer
from repro.errors import (
    CoDBError,
    RequestCancelledError,
    RequestTimeoutError,
)
from repro.p2p.inproc import InProcessNetwork, LatencyModel
from repro.p2p.procs import ProcessNetwork
from repro.p2p.tcp import TcpNetwork
from repro.relational.conjunctive import (
    Atom,
    Comparison,
    ConjunctiveQuery,
    GlavMapping,
    Variable,
)
from repro.relational.database import Database
from repro.relational.nulls import NullFactory
from repro.relational.parser import (
    parse_facts,
    parse_mapping,
    parse_query,
    parse_schema,
)
from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.relational.values import MarkedNull
from repro.relational.wrapper import (
    MediatorStore,
    MemoryStore,
    SqliteStore,
    Wrapper,
)
from repro.service import (
    QuotaExceededError,
    ServiceGateway,
    TenantQuotas,
    serve_in_thread,
)

__version__ = "1.0.0"

__all__ = [
    "CoDBNetwork",
    "CoDBNode",
    "NodeConfig",
    "UpdateOutcome",
    "RequestHandle",
    "as_completed",
    "wait",
    "FIRST_COMPLETED",
    "ALL_COMPLETED",
    "RequestTimeoutError",
    "RequestCancelledError",
    "CoordinationRule",
    "RuleFile",
    "SuperPeer",
    "UpdateReport",
    "NodeStatistics",
    "NetworkUpdateReport",
    "CoDBError",
    "InProcessNetwork",
    "LatencyModel",
    "TcpNetwork",
    "ProcessNetwork",
    "Atom",
    "Comparison",
    "ConjunctiveQuery",
    "GlavMapping",
    "Variable",
    "Database",
    "DatabaseSchema",
    "RelationSchema",
    "MarkedNull",
    "NullFactory",
    "parse_schema",
    "parse_facts",
    "parse_query",
    "parse_mapping",
    "Wrapper",
    "MemoryStore",
    "SqliteStore",
    "MediatorStore",
    "ServiceGateway",
    "TenantQuotas",
    "QuotaExceededError",
    "serve_in_thread",
    "__version__",
]

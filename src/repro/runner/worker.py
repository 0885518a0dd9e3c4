"""The worker side of the process-per-node runner.

``worker_main`` is the entry point the driver spawns one process per
node with.  Each worker hosts exactly one :class:`~repro.core.node.
CoDBNode` — its own Python interpreter, its own GIL, its own store —
behind its own :class:`~repro.p2p.tcp.TcpNetwork` listening socket.
Inter-node protocol traffic flows worker-to-worker over TCP exactly as
in the single-process deployment (the positional stable-JSON frames
need no new serialisation); only *control* flows through the driver
pipe, as :mod:`repro.runner.protocol` frames:

* the driver's command loop runs on the worker's main thread: build
  the node (``configure``), wire sibling ports (``connect``), load
  facts, install rules, submit updates/queries, answer snapshot /
  statistics / status probes, and ``shutdown``;
* the node's delivery threads push unsolicited ``request_complete``
  events whenever a session finalizes here — the driver bridges those
  into its proxy :class:`~repro.core.requests.RequestHandle`\\ s.

All pipe writes share one lock (events originate on delivery threads,
replies on the main thread); every frame carries the worker's current
transport totals so the driver's traffic aggregate rides along for
free.
"""

from __future__ import annotations

import os
import signal
import threading
from typing import Any

from repro.core.node import CoDBNode, NodeConfig
from repro.core.rulefile import RuleFile
from repro.errors import CoDBError, ProtocolError
from repro.p2p.faults import injector_from_spec
from repro.p2p.ids import IdAuthority
from repro.p2p.tcp import TcpNetwork
from repro.relational.nulls import NullFactory
from repro.relational.parser import parse_query, parse_schema
from repro.relational.values import decode_row, encode_row
from repro.relational.wrapper import MemoryStore, SqliteStore
from repro.runner import protocol, snapshot


def _build_store(kind: str, schema):
    if kind == "memory":
        return MemoryStore(schema)
    if kind == "sqlite":
        return SqliteStore(schema)
    raise ProtocolError(f"unknown store kind {kind!r}")


class NodeWorker:
    """One worker process: a node, its transport, and the control loop."""

    def __init__(self, conn) -> None:
        self.conn = conn
        self.network: TcpNetwork | None = None
        self.node: CoDBNode | None = None
        self._send_lock = threading.Lock()
        self._running = True
        #: Pipe codec: follow whatever the driver last spoke to us.
        self._pipe_codec = "json"
        #: Durable-snapshot knobs (set by ``configure``).
        self.snapshot_path: str | None = None
        self.checkpoint_interval = 1
        self.incarnation = 0
        self._checkpoint_lock = threading.Lock()
        self._completions_since_checkpoint = 0

    # ------------------------------------------------------------------
    # Pipe plumbing
    # ------------------------------------------------------------------

    def _totals(self) -> dict[str, int]:
        if self.network is None:
            return {
                "messages_sent": 0,
                "bytes_sent": 0,
                "wire_bytes_sent": 0,
                "messages_delivered": 0,
            }
        stats = self.network.stats
        return {
            "messages_sent": stats.messages_sent,
            "bytes_sent": stats.bytes_sent,
            "wire_bytes_sent": stats.wire_bytes_sent,
            "messages_delivered": stats.messages_delivered,
        }

    def _send_frame(self, frame: dict[str, Any]) -> None:
        data = protocol.encode_frame(frame, self._pipe_codec)
        with self._send_lock:
            try:
                self.conn.send_bytes(data)
            except (OSError, ValueError, BrokenPipeError):
                # The driver is gone; nothing left to report to.
                self._running = False

    def _send_event(self, name: str, **details: Any) -> None:
        self._send_frame(protocol.event(name, self._totals(), **details))

    # ------------------------------------------------------------------
    # The control loop
    # ------------------------------------------------------------------

    def run(self) -> None:
        while self._running:
            try:
                data = self.conn.recv_bytes()
            except (EOFError, OSError):
                break  # driver died: exit, the OS reaps our sockets
            self._pipe_codec = (
                "binary" if data[:1] == protocol.FRAME_BINARY else "json"
            )
            frame = protocol.decode_frame(data)
            op = frame["op"]
            cmd_id = int(frame.get("cmd_id", 0))
            try:
                result = self._dispatch(op, frame)
            except Exception as exc:  # noqa: BLE001 - reported to driver
                self._send_frame(
                    protocol.error_reply(cmd_id, self._totals(), exc)
                )
                if not isinstance(exc, CoDBError):
                    # Unknown breakage: the node may be inconsistent.
                    break
                continue
            self._send_frame(
                protocol.reply(cmd_id, self._totals(), **(result or {}))
            )
            if op == "shutdown":
                break
        self._teardown()

    def _teardown(self) -> None:
        self._running = False
        if self.network is not None:
            self.network.stop()
        try:
            self.conn.close()
        except OSError:
            pass

    # ------------------------------------------------------------------
    # Command handlers
    # ------------------------------------------------------------------

    def _dispatch(self, op: str, frame: dict[str, Any]) -> dict[str, Any] | None:
        if op == "configure":
            return self._configure(frame)
        if op == "ping":
            return {}
        if op == "shutdown":
            return {}
        node = self.node
        if node is None:
            raise ProtocolError(f"command {op!r} before configure")
        if op == "connect":
            for peer, port in frame["peers"].items():
                self.network.add_remote_peer(peer, int(port))
            return {}
        if op == "load_facts":
            facts = {
                relation: [decode_row(row) for row in rows]
                for relation, rows in frame["facts"].items()
            }
            loaded = node.load_facts(facts)
            if self.snapshot_path is not None:
                self._write_checkpoint()
            return {"loaded": loaded}
        if op == "set_rules":
            rule_file = RuleFile.from_payload(frame["rules"])
            node.set_rules(rule_file.rules)
            return {}
        if op == "insert":
            inserted = node.insert(frame["relation"], decode_row(frame["row"]))
            if inserted and self.snapshot_path is not None:
                self._write_checkpoint()
            return {"inserted": inserted}
        if op == "submit_update":
            return {
                "request_id": node.submit_update_id(
                    tenant=str(frame.get("tenant", ""))
                )
            }
        if op == "submit_query":
            query = parse_query(frame["query"])
            cache = frame.get("cache")
            return {
                "request_id": node.submit_query_id(
                    query,
                    cache=None if cache is None else bool(cache),
                    tenant=str(frame.get("tenant", "")),
                )
            }
        if op == "cancel":
            request_id = frame["request_id"]
            if frame["kind"] == "update":
                return {"cancelled": node.cancel_update(request_id)}
            return {"cancelled": node.cancel_query(request_id)}
        if op == "session_status":
            return self._session_status(frame)
        if op == "query_local":
            rows = node.query(parse_query(frame["query"]))
            return {"rows": [encode_row(r) for r in rows]}
        if op == "query_answer":
            rows = node.network_query_answer(frame["request_id"])
            return {
                "rows": None if rows is None else [encode_row(r) for r in rows]
            }
        if op == "report":
            report = node.stats.report_for(frame["request_id"])
            return {"report": None if report is None else report.to_payload()}
        if op == "snapshot":
            return {
                "relations": {
                    relation: [encode_row(r) for r in rows]
                    for relation, rows in node.snapshot().items()
                }
            }
        if op == "lifetime_totals":
            # "node_totals": the frame-level "totals" member is the
            # transport counters every reply already carries.
            return {"node_totals": node.stats.lifetime_totals()}
        if op == "transport_stats":
            return {}  # the frame-level totals member carries them
        if op == "peer_down":
            self.network.announce_peer_down(frame["peer"])
            return {}
        if op == "install_faults":
            # The only crash action a worker can host is its own: a
            # ScheduledCrash fires where its victim's deliveries are
            # observed, i.e. on the victim's own transport, and SIGKILL
            # (no teardown, no flush) exercises the supervisor's real
            # restart path.  Rejoin is driven by the supervisor, never
            # in-process, so no rejoin actions are wired here.
            injector = injector_from_spec(
                frame["spec"],
                crash_actions={node.name: self._kill_self},
            )
            self.network.install_faults(injector)
            return {}
        if op == "checkpoint":
            return self._write_checkpoint()
        if op == "rejoin":
            payload = (
                snapshot.read_snapshot(self.snapshot_path)
                if self.snapshot_path is not None
                else None
            )
            restored: dict[str, Any] = {}
            if payload is not None:
                # ``set_rules`` already ran (it rebuilds the link
                # table, which would wipe these memories).
                restored = snapshot.restore_node(node, payload)
            node.rejoin()
            if self.snapshot_path is not None:
                self._write_checkpoint()
            return {"restored": payload is not None, **restored}
        raise ProtocolError(f"unknown control command {op!r}")

    def _kill_self(self) -> None:
        os.kill(os.getpid(), signal.SIGKILL)

    def _write_checkpoint(self) -> dict[str, Any]:
        if self.snapshot_path is None or self.node is None:
            return {"written": False}
        payload = snapshot.snapshot_node(
            self.node, incarnation=self.incarnation
        )
        with self._checkpoint_lock:
            snapshot.write_snapshot(self.snapshot_path, payload)
        return {"written": True, "path": self.snapshot_path}

    def _configure(self, frame: dict[str, Any]) -> dict[str, Any]:
        if self.node is not None:
            raise ProtocolError("worker already configured")
        name = frame["name"]
        schema = parse_schema(frame["schema"])
        # Namespacing the authority by node name keeps ids unique
        # across workers (each process mints its own).  Per-worker
        # counters mean two origins' first updates share counter 0;
        # admission seniority stays a network-wide TOTAL order because
        # ``requests._seniority`` tie-breaks equal counters on the
        # full id string, which every node orders identically.
        self.snapshot_path = frame.get("snapshot_path")
        self.checkpoint_interval = max(
            1, int(frame.get("checkpoint_interval", 1))
        )
        self.incarnation = int(frame.get("incarnation", 0))
        # A restarted incarnation mints ids and nulls in its own
        # namespace (``codb-TN-r1`` / ``N0@TN~r1``): survivors may
        # still hold the previous life's ids and null labels, and the
        # fresh namespace guarantees no collision without persisting
        # any counter in the snapshot.
        namespace = (
            f"codb-{name}-r{self.incarnation}"
            if self.incarnation
            else f"codb-{name}"
        )
        ids = IdAuthority(int(frame.get("seed", 0)), namespace=namespace)
        self.network = TcpNetwork(
            wire_codec=frame.get("wire_codec", "json")
        )
        config = NodeConfig(**frame.get("config", {}))
        store = _build_store(frame.get("store", "memory"), schema)
        self.node = CoDBNode(
            name,
            schema,
            self.network,
            ids,
            store=store,
            config=config,
        )
        if self.incarnation:
            self.node.nulls = NullFactory(f"{name}~r{self.incarnation}")
        self.node.completion_listeners.append(self._on_request_complete)
        return {"port": self.network.port_of(name)}

    def _session_status(self, frame: dict[str, Any]) -> dict[str, Any]:
        # Lock-free reads, matching what the single-process network's
        # completion predicate does from its driver thread: update_done
        # is a set-membership check and report_for a dict read.
        node = self.node
        request_id = frame["request_id"]
        if frame.get("kind", "update") == "update":
            done = node.update_done(request_id)
            participated = (
                done
                or node.stats.report_for(request_id) is not None
                or node.admission.is_deferred(request_id)
            )
            return {"done": done, "participated": participated}
        done = node.queries.is_done(request_id)
        return {"done": done, "participated": done}

    # ------------------------------------------------------------------
    # Event sources (delivery threads)
    # ------------------------------------------------------------------

    def _on_request_complete(self, kind: str, request_id: str) -> None:
        self._send_event("request_complete", kind=kind, request_id=request_id)
        if self.snapshot_path is None:
            return
        # Event-count checkpointing: every ``checkpoint_interval``
        # completed sessions, not wall-clock, so the durable state a
        # seeded test restarts from is deterministic.
        self._completions_since_checkpoint += 1
        if self._completions_since_checkpoint < self.checkpoint_interval:
            return
        self._completions_since_checkpoint = 0
        try:
            self._write_checkpoint()
        except Exception as exc:  # noqa: BLE001 - delivery thread
            self._send_event(
                "fatal", error=f"checkpoint failed: {exc}", thread=""
            )

    def thread_excepthook(self, args) -> None:
        """A delivery (or accept/receive) thread raised: the node may
        be wedged.  Report it to the driver as a ``fatal`` event so
        the failure is visible instead of a silent dead thread."""
        self._send_event(
            "fatal",
            error=f"{getattr(args.exc_type, '__name__', '?')}: "
                  f"{args.exc_value}",
            thread=getattr(args.thread, "name", ""),
        )


def worker_main(conn) -> None:
    """Process entry point: serve the control loop until shutdown."""
    worker = NodeWorker(conn)
    threading.excepthook = worker.thread_excepthook
    worker.run()

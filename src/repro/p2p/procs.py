"""Process-per-node deployment: true multi-core CQ evaluation.

The paper's coDB nodes are independent JXTA peers, each with its own
DBMS.  :class:`ProcessNetwork` makes that literal: a **driver** spawns
one OS **worker process per node** (:mod:`repro.runner.worker`), each
hosting its :class:`~repro.core.node.CoDBNode` — memory or SQLite
store — behind its own :class:`~repro.p2p.tcp.TcpNetwork` listening
socket.  Inter-node protocol traffic flows worker-to-worker over TCP
in the same positional stable-JSON frames as in one process;
concurrent update sessions therefore evaluate their conjunctive
queries on separate cores instead of timeslicing one GIL (the threaded
runner's ~1.15× at 4 origins becomes real parallel speedup).

Driver/worker protocol (see :mod:`repro.runner.protocol`)
---------------------------------------------------------

Each worker is controlled through a ``multiprocessing`` pipe carrying
self-describing control frames — stable JSON by default, or the binary
restricted-pickle codec when the network was built with
``wire_codec="binary"`` (the same codec the p2p wire negotiates; on
the pipe no negotiation is needed since driver and worker run the
same package):

1. **Boot** — the driver sends ``configure`` (name, schema text,
   config, store kind, wire codec); the worker builds its transport +
   node and replies with its listening port.  The boot rounds are
   *pipelined*: every worker receives its ``configure`` the moment its
   process starts, and the driver collects the replies afterwards, so
   N workers initialise concurrently (~one worker's boot latency, not
   the sum).  After all workers bind, the driver fans the port map out
   via ``connect`` (the rendezvous step: peers keep addressing each
   other by peer id only), then ``load_facts`` and ``set_rules`` — the
   same send-all-then-collect discipline per round.
2. **Requests** — ``submit_update`` / ``submit_query`` return the bare
   request id minted by the worker; the driver wraps it in a proxy
   :class:`~repro.core.requests.RequestHandle` whose completion
   predicate reads only driver-side state.
3. **Completion bridging** — whenever a session finalizes at a worker
   (the §3 completion flood arriving there), the worker pushes a
   ``request_complete`` event.  When the *origin's* event arrives the
   update has globally quiesced (Dijkstra–Scholten root completion),
   so the driver probes every other worker once with
   ``session_status`` to learn who participated; the handle completes
   when the origin and every participating worker have reported done —
   the §4 statistics are final at that point, exactly as in the
   single-process network.  A background pump thread multiplexes all
   worker pipes, stamps handle completion in driver-observed order
   (what :func:`repro.core.requests.as_completed` streams), and
   notifies the control transport's progress condition — completion
   stays event-driven end to end, no sleep-polling.
4. **Failure** — a worker crash surfaces as EOF on its pipe: the
   driver marks it dead, fans ``peer_down`` out to the survivors
   (whose transports deliver the notification to their nodes through
   the normal inbox, closing links toward the corpse with
   ``closed_by="failure"``), fails pending calls, and re-evaluates
   every handle — in-flight requests complete instead of hanging.
5. **Shutdown** — ``shutdown`` asks each worker to stop its transport
   and exit; stragglers are terminated, then killed.  Workers are
   daemon processes besides, so no orphan can outlive the driver.

The ``submit``/``await``/``statistics`` surface mirrors
:class:`~repro.core.network.CoDBNetwork`, so differential tests drive
both interchangeably; handles from one :class:`ProcessNetwork` mix in
``as_completed`` / ``wait`` exactly like single-process ones.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import queue
import random
import shutil
import tempfile
import threading
import time
from dataclasses import asdict
from multiprocessing import connection as mpconnection
from collections.abc import Sequence
from typing import Any, Callable

from repro.core.network import UpdateOutcome
from repro.core.node import NodeConfig
from repro.core.requests import RequestHandle
from repro.core.rulefile import RuleFile
from repro.core.rules import CoordinationRule
from repro.core.statistics import UpdateReport, aggregate_reports
from repro.errors import ProtocolError, RequestTimeoutError
from repro.p2p.messages import CODECS
from repro.p2p.transport import Transport, TransportStats
from repro.relational.parser import parse_facts
from repro.relational.schema import DatabaseSchema
from repro.relational.values import Row, decode_row, encode_row
from repro.runner import protocol
from repro.runner.worker import worker_main

#: Default start method: ``forkserver`` where the platform supports it
#: — workers fork from a clean, single-threaded server process, so boot
#: skips a full interpreter + import cycle per worker (persistent-serve
#: deployments feel this most) while staying safe inside a threaded
#: driver (plain ``fork`` would inherit the driver's lock states).
#: Falls back to ``spawn`` (a pristine interpreter per worker)
#: elsewhere; the ``start_method=`` knob overrides either way.
DEFAULT_START_METHOD = (
    "forkserver"
    if "forkserver" in multiprocessing.get_all_start_methods()
    else "spawn"
)


class _ControlTransport(Transport):
    """The driver-side clock + progress condition the proxy handles use.

    Not a message transport: ``stats`` mirrors the *sum* of all worker
    transports' counters (refreshed from the totals every control
    frame carries), ``now()`` is driver wall time, and ``wait_for`` is
    the inherited event-driven progress wait that the pump thread
    notifies.
    """

    def __init__(self) -> None:
        super().__init__()
        self.stats = TransportStats()
        self._epoch = time.monotonic()

    def now(self) -> float:
        return time.monotonic() - self._epoch

    def register(self, peer_id, handler) -> None:  # pragma: no cover
        raise ProtocolError("the control transport hosts no peers")

    def send(self, message) -> None:  # pragma: no cover
        raise ProtocolError("the control transport carries no messages")

    def run_until_idle(self, max_messages=None) -> int:
        return 0


class _WorkerProxy:
    """Driver-side face of one worker process."""

    def __init__(
        self, name: str, spec: dict[str, Any], pipe_codec: str = "json"
    ) -> None:
        self.name = name
        self.spec = spec
        self.pipe_codec = pipe_codec
        self.process: multiprocessing.process.BaseProcess | None = None
        self.conn = None
        self.alive = False
        self.port: int | None = None
        self.send_lock = threading.Lock()
        #: cmd_id -> Queue (sync call) or callable (async callback).
        self.pending: dict[int, Any] = {}

    def send_frame(self, frame: dict[str, Any]) -> None:
        data = protocol.encode_frame(frame, self.pipe_codec)
        with self.send_lock:
            self.conn.send_bytes(data)


class _TrackedRequest:
    """Driver bookkeeping for one in-flight proxy handle."""

    __slots__ = ("request_id", "kind", "origin", "handle", "probed")

    def __init__(
        self, request_id: str, kind: str, origin: str, handle: RequestHandle
    ) -> None:
        self.request_id = request_id
        self.kind = kind
        self.origin = origin
        self.handle = handle
        self.probed = False


class ProcessNetwork:
    """A coDB network with one OS process per node (module docstring).

    Build-then-start, like :class:`~repro.core.network.CoDBNetwork`::

        net = ProcessNetwork(seed=7)
        net.add_node("BZ", "person(name: str, city: str)",
                     facts="person('anna', 'Trento').")
        net.add_node("TN", "resident(name: str)")
        net.add_rule("TN:resident(n) <- BZ:person(n, c), c = 'Trento'")
        net.start()                       # spawns + wires the workers
        outcome = net.global_update("TN")
        net.stop()                        # or use it as a context manager

    ``submit_global_update`` / ``submit_query`` return
    :class:`~repro.core.requests.RequestHandle`\\ s compatible with
    :func:`~repro.core.requests.as_completed` and
    :func:`~repro.core.requests.wait`.  Queries must be given as text
    (they cross a process boundary).
    """

    def __init__(
        self,
        *,
        seed: int = 0,
        config: NodeConfig | None = None,
        store: str = "memory",
        poll_timeout: float = 30.0,
        start_method: str | None = None,
        wire_codec: str = "json",
        restart_limit: int = 0,
        checkpoint_interval: int = 1,
        snapshot_dir: str | None = None,
        restart_backoff: float = 0.05,
    ) -> None:
        if wire_codec not in CODECS:
            raise ProtocolError(f"unknown wire codec {wire_codec!r}")
        self.seed = seed
        self.default_config = config
        self.default_store = store
        #: Codec for worker-to-worker TCP frames *and* the driver pipe.
        self.wire_codec = wire_codec
        self.poll_timeout = poll_timeout
        self.rule_file = RuleFile()
        self.transport = _ControlTransport()
        self._start_method = start_method or DEFAULT_START_METHOD
        self._rule_counter = 0
        self._specs: dict[str, dict[str, Any]] = {}
        self._workers: dict[str, _WorkerProxy] = {}
        self._cmd_ids = itertools.count(1)
        self._lock = threading.Lock()
        self._started = False
        self._stopped = False
        self._stopping = False
        self._running = False
        self._pump_thread: threading.Thread | None = None
        #: request id -> set of worker names whose node finished it.
        self._completion: dict[str, set[str]] = {}
        #: request id -> workers confirmed (by probe) as non-participants.
        self._nonparticipants: dict[str, set[str]] = {}
        self._tracked: dict[str, _TrackedRequest] = {}
        #: Completed request ids (bounded FIFO): late completion events
        #: from slower workers are dropped instead of re-growing the
        #: per-request dicts forever.
        self._finished: dict[str, None] = {}
        self._worker_totals: dict[str, dict[str, int]] = {}
        #: ``fatal`` events pushed by workers (delivery-thread errors).
        self.worker_errors: list[tuple[str, str]] = []
        # -- supervision (crash-and-rejoin) ----------------------------
        #: Supervised restarts allowed per worker; 0 = dead stays dead.
        self.restart_limit = max(0, int(restart_limit))
        #: Checkpoint every N completed sessions at each worker.
        self.checkpoint_interval = max(1, int(checkpoint_interval))
        self.restart_backoff = restart_backoff
        self._restart_backoff_cap = 1.0
        self._restart_rng = random.Random(seed ^ 0x5EED)
        self._snapshot_dir_arg = snapshot_dir
        self._snapshot_dir: str | None = None
        self._snapshot_dir_owned = False
        self._ctx = None
        self._rules_payload: dict[str, Any] | None = None
        self._fault_spec: dict[str, Any] | None = None
        self._restarts: dict[str, int] = {}
        self._restart_threads: list[threading.Thread] = []
        #: update id -> workers that were down at some point while the
        #: update was in flight (kept bounded; read by _update_outcome
        #: so a post-restart assembly still reports the outage window).
        self._outage_peers: dict[str, set[str]] = {}
        #: Completed supervised restarts (diagnostics/benchmarks):
        #: ``{"worker", "attempt", "downtime"}`` per restart.
        self.outages: list[dict[str, Any]] = []

    # ------------------------------------------------------------------
    # Building
    # ------------------------------------------------------------------

    def add_node(
        self,
        name: str,
        schema: DatabaseSchema | str,
        *,
        facts: str | dict | None = None,
        config: NodeConfig | None = None,
        store: str | None = None,
    ) -> None:
        """Declare a node (the worker spawns at :meth:`start`)."""
        if self._started:
            raise ProtocolError("add_node after start() is not supported")
        if name in self._specs:
            raise ProtocolError(f"node {name!r} already exists")
        schema_text = schema if isinstance(schema, str) else str(schema)
        if isinstance(facts, str):
            facts = parse_facts(facts)
        node_config = config if config is not None else self.default_config
        self._specs[name] = {
            "schema": schema_text,
            "facts": {
                relation: [encode_row(tuple(row)) for row in rows]
                for relation, rows in (facts or {}).items()
            },
            "config": {} if node_config is None else asdict(node_config),
            "store": store if store is not None else self.default_store,
        }

    def add_rule(self, rule: str | CoordinationRule) -> CoordinationRule:
        if isinstance(rule, str):
            rule = CoordinationRule.from_text(f"r{self._rule_counter}", rule)
        self._rule_counter += 1
        for peer in (rule.target, rule.source):
            if peer not in self._specs:
                raise ProtocolError(
                    f"rule {rule.rule_id!r} references unknown node {peer!r}"
                )
        self.rule_file.add(rule)
        return rule

    def add_rules(self, rules: Sequence[str | CoordinationRule]) -> None:
        for rule in rules:
            self.add_rule(rule)

    @property
    def node_names(self) -> list[str]:
        return list(self._specs)

    def alive_workers(self) -> list[str]:
        return [name for name, w in self._workers.items() if w.alive]

    def worker_processes(self) -> list[multiprocessing.process.BaseProcess]:
        """The spawned processes (tests assert none survive stop())."""
        return [w.process for w in self._workers.values() if w.process]

    # ------------------------------------------------------------------
    # Start: spawn, exchange ports, load, wire rules
    # ------------------------------------------------------------------

    def start(self) -> None:
        if self._started:
            raise ProtocolError("network already started")
        if not self._specs:
            raise ProtocolError("no nodes declared")
        self._started = True
        ctx = multiprocessing.get_context(self._start_method)
        self._ctx = ctx
        if self.restart_limit > 0 or self._snapshot_dir_arg is not None:
            # Durable snapshots on: each worker checkpoints to its own
            # file here, and a supervised restart restores from it.
            if self._snapshot_dir_arg is None:
                self._snapshot_dir = tempfile.mkdtemp(prefix="codb-snap-")
                self._snapshot_dir_owned = True
            else:
                os.makedirs(self._snapshot_dir_arg, exist_ok=True)
                self._snapshot_dir = self._snapshot_dir_arg
        try:
            # Overlapped boot: each worker gets its ``configure`` the
            # moment its process starts, so all N initialise
            # concurrently; the replies (with the listening ports) are
            # collected afterwards.  The pump starts after wiring;
            # workers emit no events before traffic exists.
            boot_cmds: dict[str, int] = {}
            for name, spec in self._specs.items():
                worker = _WorkerProxy(name, spec, self.wire_codec)
                parent_conn, child_conn = ctx.Pipe(duplex=True)
                worker.conn = parent_conn
                worker.process = ctx.Process(
                    target=worker_main,
                    args=(child_conn,),
                    name=f"codb-worker-{name}",
                    daemon=True,
                )
                worker.process.start()
                child_conn.close()
                worker.alive = True
                self._workers[name] = worker
                boot_cmds[name] = self._send_command(
                    worker, "configure", **self._configure_args(name)
                )
            for worker in self._workers.values():
                reply = self._collect_reply(
                    worker, boot_cmds[worker.name], "configure"
                )
                worker.port = int(reply["port"])
            ports = {
                name: worker.port for name, worker in self._workers.items()
            }
            rules_payload = self.rule_file.to_payload()
            self._rules_payload = rules_payload
            # Same pipelining for the wiring round: every worker runs
            # its connect/load/set_rules sequence concurrently (each
            # pipe preserves command order, so per-worker sequencing
            # holds without waiting between commands).
            wiring: list[tuple[_WorkerProxy, int, str]] = []
            for worker in self._workers.values():
                peers = {n: p for n, p in ports.items() if n != worker.name}
                wiring.append(
                    (worker,
                     self._send_command(worker, "connect", peers=peers),
                     "connect")
                )
                if worker.spec["facts"]:
                    wiring.append(
                        (worker,
                         self._send_command(
                             worker, "load_facts", facts=worker.spec["facts"]
                         ),
                         "load_facts")
                    )
                wiring.append(
                    (worker,
                     self._send_command(
                         worker, "set_rules", rules=rules_payload
                     ),
                     "set_rules")
                )
            for worker, cmd_id, op in wiring:
                self._collect_reply(worker, cmd_id, op)
        except BaseException:
            # Half-booted deployments must not leak processes: kill
            # whatever was spawned before re-raising.
            for worker in self._workers.values():
                process = worker.process
                if process is not None and process.is_alive():
                    process.kill()
                    process.join(timeout=2.0)
                worker.alive = False
            self._stopped = True
            raise
        self._running = True
        self._pump_thread = threading.Thread(
            target=self._pump, name="codb-driver-pump", daemon=True
        )
        self._pump_thread.start()

    def _snapshot_path(self, name: str) -> str | None:
        if self._snapshot_dir is None:
            return None
        return os.path.join(self._snapshot_dir, f"{name}.snapshot.json")

    def _configure_args(
        self, name: str, incarnation: int = 0
    ) -> dict[str, Any]:
        worker = self._workers[name]
        arguments: dict[str, Any] = {
            "name": name,
            "schema": worker.spec["schema"],
            "config": worker.spec["config"],
            "store": worker.spec["store"],
            "seed": self.seed,
            "wire_codec": self.wire_codec,
        }
        path = self._snapshot_path(name)
        if path is not None:
            arguments["snapshot_path"] = path
            arguments["checkpoint_interval"] = self.checkpoint_interval
            arguments["incarnation"] = incarnation
        return arguments

    # ------------------------------------------------------------------
    # Control-channel plumbing
    # ------------------------------------------------------------------

    def _worker(self, name: str) -> _WorkerProxy:
        try:
            worker = self._workers[name] if self._started else None
        except KeyError:
            worker = None
        if worker is None:
            if not self._started:
                raise ProtocolError("network not started")
            raise ProtocolError(f"unknown node {name!r}")
        if not worker.alive:
            raise ProtocolError(f"worker for node {name!r} is down")
        return worker

    def _send_command(
        self, worker: _WorkerProxy, op: str, **arguments: Any
    ) -> int:
        """Send one command without waiting; returns its cmd_id."""
        cmd_id = next(self._cmd_ids)
        worker.send_frame(protocol.command(op, cmd_id, **arguments))
        return cmd_id

    def _direct_call(
        self, worker: _WorkerProxy, op: str, **arguments: Any
    ) -> dict[str, Any]:
        """Boot-time request/reply on the caller's thread (no pump yet)."""
        cmd_id = self._send_command(worker, op, **arguments)
        return self._collect_reply(worker, cmd_id, op)

    def _collect_reply(
        self, worker: _WorkerProxy, cmd_id: int, op: str
    ) -> dict[str, Any]:
        """Boot-time reply wait for a pipelined :meth:`_send_command`."""
        deadline = time.monotonic() + self.poll_timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not worker.conn.poll(remaining):
                raise RequestTimeoutError(
                    f"worker {worker.name!r} did not answer {op!r} "
                    f"within {self.poll_timeout}s"
                )
            try:
                frame = protocol.decode_frame(worker.conn.recv_bytes())
            except (EOFError, OSError) as exc:
                worker.alive = False
                raise ProtocolError(
                    f"worker {worker.name!r} died during {op!r}"
                ) from exc
            if frame.get("cmd_id") == cmd_id and frame["op"] in ("reply", "error"):
                self._note_totals(worker.name, frame.get("totals"))
                if frame["op"] == "error":
                    raise ProtocolError(
                        f"worker {worker.name!r} failed {op!r}: "
                        f"{frame.get('error_kind', '')} {frame.get('error', '')}"
                    )
                return frame
            self._handle_async_frame(worker, frame)

    def _call(
        self,
        worker: _WorkerProxy,
        op: str,
        timeout: float | None = None,
        **arguments: Any,
    ) -> dict[str, Any]:
        """Synchronous command once the pump runs (any non-pump thread)."""
        if threading.current_thread() is self._pump_thread:
            raise ProtocolError(
                "synchronous control calls are not allowed on the pump thread"
            )
        if not worker.alive:
            raise ProtocolError(f"worker for node {worker.name!r} is down")
        cmd_id = next(self._cmd_ids)
        answer: queue.Queue = queue.Queue(maxsize=1)
        with self._lock:
            worker.pending[cmd_id] = answer
        try:
            worker.send_frame(protocol.command(op, cmd_id, **arguments))
        except (OSError, ValueError) as exc:
            with self._lock:
                worker.pending.pop(cmd_id, None)
            raise ProtocolError(f"worker {worker.name!r} unreachable") from exc
        try:
            frame = answer.get(
                timeout=timeout if timeout is not None else self.poll_timeout
            )
        except queue.Empty:
            with self._lock:
                worker.pending.pop(cmd_id, None)
            raise RequestTimeoutError(
                f"worker {worker.name!r} did not answer {op!r} within "
                f"{timeout if timeout is not None else self.poll_timeout}s"
            ) from None
        if frame["op"] == "error":
            raise ProtocolError(
                f"worker {worker.name!r} failed {op!r}: "
                f"{frame.get('error_kind', '')} {frame.get('error', '')}"
            )
        return frame

    def _call_many(
        self,
        workers: list[_WorkerProxy],
        op: str,
        timeout: float | None = None,
        **arguments: Any,
    ) -> dict[str, dict[str, Any]]:
        """Pipelined request/reply fan-out: issue *op* to every worker
        before collecting any reply, so a network-wide probe costs one
        worker round-trip instead of N sequential ones (the workers
        process their commands concurrently while the driver waits).
        A worker that cannot be reached or dies before replying raises
        :class:`ProtocolError` (see :meth:`_fan_out` for the tolerant
        form)."""
        replies, lost = self._fan_out(workers, op, timeout, **arguments)
        if lost:
            raise ProtocolError(
                f"worker {sorted(lost)[0]!r} unreachable or died during {op!r}"
            )
        return replies

    def _fan_out(
        self,
        workers: list[_WorkerProxy],
        op: str,
        timeout: float | None = None,
        **arguments: Any,
    ) -> tuple[dict[str, dict[str, Any]], set[str]]:
        """:meth:`_call_many` that survives worker deaths: returns the
        replies and the names of the workers lost on the way — a send
        that failed or a ``WorkerDied`` answer.  Any other error reply
        still raises :class:`ProtocolError`, a silent worker
        :class:`RequestTimeoutError`."""
        if threading.current_thread() is self._pump_thread:
            raise ProtocolError(
                "synchronous control calls are not allowed on the pump thread"
            )
        pending: list[tuple[_WorkerProxy, int, queue.Queue]] = []
        lost: set[str] = set()
        for worker in workers:
            if not worker.alive:
                continue
            cmd_id = next(self._cmd_ids)
            answer: queue.Queue = queue.Queue(maxsize=1)
            with self._lock:
                worker.pending[cmd_id] = answer
            try:
                worker.send_frame(protocol.command(op, cmd_id, **arguments))
            except (OSError, ValueError):
                with self._lock:
                    worker.pending.pop(cmd_id, None)
                lost.add(worker.name)
                continue
            pending.append((worker, cmd_id, answer))
        wait = timeout if timeout is not None else self.poll_timeout
        deadline = time.monotonic() + wait
        replies: dict[str, dict[str, Any]] = {}
        for worker, cmd_id, answer in pending:
            try:
                frame = answer.get(
                    timeout=max(0.0, deadline - time.monotonic())
                )
            except queue.Empty:
                with self._lock:
                    worker.pending.pop(cmd_id, None)
                raise RequestTimeoutError(
                    f"worker {worker.name!r} did not answer {op!r} "
                    f"within {wait}s"
                ) from None
            if frame["op"] == "error":
                if frame.get("error_kind") == "WorkerDied":
                    lost.add(worker.name)
                    continue
                raise ProtocolError(
                    f"worker {worker.name!r} failed {op!r}: "
                    f"{frame.get('error_kind', '')} {frame.get('error', '')}"
                )
            replies[worker.name] = frame
        return replies, lost

    def _cast(
        self,
        worker: _WorkerProxy,
        op: str,
        callback: Callable[[dict[str, Any]], None] | None = None,
        **arguments: Any,
    ) -> None:
        """Fire-and-forget command; *callback* (if any) runs on the pump
        thread with the reply frame (or an error frame on worker death)."""
        if not worker.alive:
            return
        cmd_id = next(self._cmd_ids)
        with self._lock:
            worker.pending[cmd_id] = callback
        try:
            worker.send_frame(protocol.command(op, cmd_id, **arguments))
        except (OSError, ValueError):
            with self._lock:
                worker.pending.pop(cmd_id, None)

    # ------------------------------------------------------------------
    # The pump: multiplex worker pipes, bridge events into handles
    # ------------------------------------------------------------------

    def _pump(self) -> None:
        while self._running:
            conns = {
                worker.conn: worker
                for worker in self._workers.values()
                if worker.alive
            }
            if not conns:
                time.sleep(0.05)
                continue
            try:
                ready = mpconnection.wait(list(conns), timeout=0.2)
            except OSError:
                continue
            progressed = False
            for conn in ready:
                worker = conns[conn]
                try:
                    frame = protocol.decode_frame(conn.recv_bytes())
                except (EOFError, OSError):
                    self._on_worker_crash(worker)
                    progressed = True
                    continue
                # The pump must survive any single bad frame (version
                # skew, malformed event, raising handle callback): a
                # dead pump would strand every handle and every _call.
                try:
                    self._handle_async_frame(worker, frame)
                except Exception as exc:  # noqa: BLE001 - recorded
                    self.worker_errors.append((worker.name, repr(exc)))
                progressed = True
            if progressed:
                try:
                    self._sync_handles()
                except Exception as exc:  # noqa: BLE001 - recorded
                    self.worker_errors.append(("driver", repr(exc)))

    def _handle_async_frame(
        self, worker: _WorkerProxy, frame: dict[str, Any]
    ) -> None:
        self._note_totals(worker.name, frame.get("totals"))
        op = frame["op"]
        if op in ("reply", "error"):
            with self._lock:
                target = worker.pending.pop(frame.get("cmd_id"), None)
            if isinstance(target, queue.Queue):
                target.put(frame)
            elif callable(target):
                target(frame)
            return
        if op == "event":
            name = frame.get("event")
            if name == "request_complete":
                request_id = frame["request_id"]
                with self._lock:
                    if request_id in self._finished:
                        return  # late flood tail of a completed request
                    self._completion.setdefault(request_id, set()).add(
                        worker.name
                    )
                self._maybe_probe(request_id)
            elif name == "fatal":
                self.worker_errors.append((worker.name, frame.get("error", "")))
            return
        raise ProtocolError(f"unexpected control frame from worker: {frame!r}")

    def _note_totals(self, name: str, totals: dict[str, int] | None) -> None:
        if not totals:
            return
        with self._lock:
            self._worker_totals[name] = totals
            stats = self.transport.stats
            stats.messages_sent = sum(
                t.get("messages_sent", 0) for t in self._worker_totals.values()
            )
            stats.bytes_sent = sum(
                t.get("bytes_sent", 0) for t in self._worker_totals.values()
            )
            stats.wire_bytes_sent = sum(
                t.get("wire_bytes_sent", 0)
                for t in self._worker_totals.values()
            )
            stats.messages_delivered = sum(
                t.get("messages_delivered", 0)
                for t in self._worker_totals.values()
            )

    def _sync_handles(self) -> None:
        for tracked in list(self._tracked.values()):
            tracked.handle.done()  # stamps completion at first true
        self.transport.notify_progress()

    def _on_worker_crash(self, worker: _WorkerProxy) -> None:
        """EOF on a worker pipe: the node's process died."""
        worker.alive = False
        try:
            worker.conn.close()
        except OSError:
            pass
        with self._lock:
            pending = list(worker.pending.items())
            worker.pending.clear()
        error = {
            "op": "error",
            "cmd_id": 0,
            "error": f"worker {worker.name!r} died",
            "error_kind": "WorkerDied",
        }
        for _cmd_id, target in pending:
            if isinstance(target, queue.Queue):
                target.put(error)
            elif callable(target):
                target(error)
        if self._stopping:
            return
        # Remember the outage for every update in flight right now:
        # even if the worker restarts before the handle assembles its
        # outcome, the report must still say this peer was unreachable
        # during the session (the handle settles as ``partial``).
        with self._lock:
            for tracked in self._tracked.values():
                if tracked.kind == "update":
                    self._outage_peers.setdefault(
                        tracked.request_id, set()
                    ).add(worker.name)
            while len(self._outage_peers) > 4096:
                self._outage_peers.pop(next(iter(self._outage_peers)))
        # Failure-detector fan-out: every survivor's transport delivers
        # a peer_down for the corpse through its node's normal inbox.
        for survivor in self._workers.values():
            if survivor.alive:
                self._cast(survivor, "peer_down", peer=worker.name)
        # Requests whose origin died can now resolve via probing; the
        # dead worker itself is excluded from every completion predicate.
        for tracked in list(self._tracked.values()):
            if tracked.kind == "update":
                self._maybe_probe(tracked.request_id)
        self._sync_handles()
        # Supervised restart: bring the corpse back from its snapshot
        # (off the pump thread — the restart does synchronous pipe
        # round-trips).  ``restart_limit=0`` keeps dead-stays-dead.
        if (
            self.restart_limit > 0
            and self._restarts.get(worker.name, 0) < self.restart_limit
        ):
            thread = threading.Thread(
                target=self._supervised_restart,
                args=(worker,),
                name=f"codb-restart-{worker.name}",
                daemon=True,
            )
            self._restart_threads.append(thread)
            thread.start()

    def _supervised_restart(self, worker: _WorkerProxy) -> None:
        """Restart one crashed worker: backoff, respawn, restore, rejoin."""
        name = worker.name
        attempt = self._restarts.get(name, 0) + 1
        self._restarts[name] = attempt
        went_down = time.monotonic()
        backoff = min(
            self._restart_backoff_cap,
            self.restart_backoff * (2 ** (attempt - 1)),
        )
        time.sleep(backoff * (0.5 + self._restart_rng.random() / 2))
        if self._stopping or not self._running:
            return
        try:
            self._respawn(worker, attempt)
        except Exception as exc:  # noqa: BLE001 - recorded, not fatal
            self.worker_errors.append((name, f"restart failed: {exc!r}"))
            worker.alive = False
            process = worker.process
            if process is not None and process.is_alive():
                process.kill()
            return
        self.outages.append(
            {
                "worker": name,
                "attempt": attempt,
                "downtime": time.monotonic() - went_down,
            }
        )
        self._sync_handles()

    def _respawn(self, worker: _WorkerProxy, attempt: int) -> None:
        """The restart sequence proper.  Runs on a restart thread while
        ``worker.alive`` is still False, so the pump ignores this pipe
        and the boot-style direct calls below own it exclusively.

        Order matters: survivors must learn the new port (``connect``
        overwrites and purges the stale one) *before* the ``rejoin``
        handshake makes the restarted node talk to them — otherwise
        their acks would chase a dead socket.  Fault models are NOT
        re-installed: a fresh ScheduledCrash copy would count
        deliveries and kill the victim all over again.
        """
        name = worker.name
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=worker_main,
            args=(child_conn,),
            name=f"codb-worker-{name}-r{attempt}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        worker.conn = parent_conn
        worker.process = process
        reply = self._direct_call(
            worker, "configure", **self._configure_args(name, attempt)
        )
        worker.port = int(reply["port"])
        peers = {
            other.name: other.port
            for other in self._workers.values()
            if other.name != name and other.port is not None
        }
        self._direct_call(worker, "connect", peers=peers)
        self._direct_call(
            worker, "set_rules", rules=self._rules_payload or {"rules": []}
        )
        survivors = [
            other for other in self._workers.values()
            if other.alive and other.name != name
        ]
        if survivors:
            self._call_many(survivors, "connect", peers={name: worker.port})
        self._direct_call(worker, "rejoin")
        worker.alive = True

    # ------------------------------------------------------------------
    # Completion predicates (driver-state only: the pump calls these)
    # ------------------------------------------------------------------

    def _maybe_probe(self, request_id: str) -> None:
        """Once the origin finished (or died), ask every other worker
        whether it participated — resolving the completion predicate's
        unknowns.  Runs at most once per update."""
        with self._lock:
            tracked = self._tracked.get(request_id)
            if tracked is None or tracked.kind != "update" or tracked.probed:
                return
            origin_worker = self._workers.get(tracked.origin)
            origin_settled = (
                origin_worker is None
                or not origin_worker.alive
                or tracked.origin in self._completion.get(request_id, ())
                or tracked.origin in self._outage_peers.get(request_id, ())
            )
            if not origin_settled:
                return
            tracked.probed = True
        for worker in self._workers.values():
            if worker.name == tracked.origin or not worker.alive:
                continue
            self._cast(
                worker,
                "session_status",
                callback=(
                    lambda frame, name=worker.name: self._on_probe_reply(
                        request_id, name, frame
                    )
                ),
                request_id=request_id,
                kind="update",
            )

    def _on_probe_reply(
        self, request_id: str, worker_name: str, frame: dict[str, Any]
    ) -> None:
        if frame["op"] == "error":
            return  # dead workers are excluded by the alive check
        with self._lock:
            if frame.get("done"):
                self._completion.setdefault(request_id, set()).add(worker_name)
            elif not frame.get("participated"):
                self._nonparticipants.setdefault(request_id, set()).add(
                    worker_name
                )
            # else: participating and unfinished — its own
            # request_complete event resolves it.
        self._sync_handles()

    def _update_done(self, request_id: str, origin: str) -> bool:
        completed = self._completion.get(request_id, ())
        nonparticipants = self._nonparticipants.get(request_id, ())
        # A worker that crashed while this update was in flight is
        # excluded from the predicate even after a supervised restart
        # revived it: the new incarnation holds no session state for
        # the update and would otherwise stall the handle forever.
        outage = self._outage_peers.get(request_id, ())
        origin_worker = self._workers.get(origin)
        if (
            origin_worker is not None
            and origin_worker.alive
            and origin not in completed
            and origin not in outage
        ):
            return False
        tracked = self._tracked.get(request_id)
        if tracked is not None and not tracked.probed:
            return False  # participant set not yet resolved
        return all(
            worker.name in completed
            or worker.name in nonparticipants
            or worker.name == origin
            or worker.name in outage
            for worker in self._workers.values()
            if worker.alive
        )

    def _query_done(self, request_id: str, origin: str) -> bool:
        origin_worker = self._workers.get(origin)
        if origin_worker is None or not origin_worker.alive:
            return True  # completes; result() surfaces the failure
        return origin in self._completion.get(request_id, ())

    # ------------------------------------------------------------------
    # Global updates
    # ------------------------------------------------------------------

    def submit_global_update(
        self, origin: str, *, tenant: str = ""
    ) -> RequestHandle:
        """Submit one global update from *origin*; returns its proxy
        handle (same semantics as
        :meth:`repro.core.network.CoDBNetwork.submit_global_update`).
        *tenant* tags the submission in the worker node's statistics."""
        worker = self._worker(origin)
        started_at = self.transport.now()
        messages_before = self.transport.stats.messages_sent
        bytes_before = self.transport.stats.bytes_sent
        update_id = self._call(worker, "submit_update", tenant=tenant)[
            "request_id"
        ]
        handle = RequestHandle(
            request_id=update_id,
            kind="update",
            origin=origin,
            transport=self.transport,
            is_done=lambda: self._update_done(update_id, origin),
            assemble=self._update_outcome,
            try_cancel=lambda: self._cancel(origin, "update", update_id),
            started_at=started_at,
            messages_before=messages_before,
            bytes_before=bytes_before,
            tenant=tenant,
        )
        self._track(handle)
        return handle

    def global_update(self, origin: str) -> UpdateOutcome:
        """Blocking wrapper over :meth:`submit_global_update`."""
        return self.submit_global_update(origin).result(self.poll_timeout)

    def _track(self, handle: RequestHandle) -> None:
        tracked = _TrackedRequest(
            handle.request_id, handle.kind, handle.origin, handle
        )
        with self._lock:
            self._tracked[handle.request_id] = tracked
        handle.add_done_callback(self._on_handle_done)
        if handle.kind == "update":
            # The origin may already have finished (tiny networks
            # complete before the driver even registers the handle).
            self._maybe_probe(handle.request_id)
        handle.done()

    def _on_handle_done(self, handle: RequestHandle) -> None:
        """Release the driver's per-request state once a handle
        completes; remember the id (bounded) so late completion events
        from slower workers are dropped, not re-accumulated."""
        with self._lock:
            self._tracked.pop(handle.request_id, None)
            self._completion.pop(handle.request_id, None)
            self._nonparticipants.pop(handle.request_id, None)
            self._finished[handle.request_id] = None
            while len(self._finished) > 4096:
                self._finished.pop(next(iter(self._finished)))

    def _cancel(self, origin: str, kind: str, request_id: str) -> bool:
        try:
            worker = self._worker(origin)
        except ProtocolError:
            return False
        reply = self._call(worker, "cancel", kind=kind, request_id=request_id)
        return bool(reply.get("cancelled"))

    def _update_outcome(self, handle: RequestHandle) -> UpdateOutcome:
        """Aggregate the per-worker §4 reports into the caller-facing
        outcome (the super-peer aggregation, over the control channel)."""
        update_id = handle.request_id
        replies, lost = self._fan_out(
            list(self._workers.values()), "report", request_id=update_id
        )
        reports: list[UpdateReport] = []
        for frame in replies.values():
            payload = frame.get("report")
            if payload is not None:
                reports.append(UpdateReport.from_payload(payload))
        origin = handle.origin
        # Crashed workers can no longer answer the control channel:
        # every dead participant is, by construction, a peer this
        # update could not have covered in full — merged with the
        # survivors' own local views by aggregate_reports.  That
        # includes a worker lost during this very probe (it may be
        # back already if the supervisor restarted it).
        dead = sorted(
            set(name for name, w in self._workers.items() if not w.alive)
            | lost
            | {p for report in reports for p in report.unreachable_peers}
            | self._outage_peers.get(update_id, set())
        )
        return UpdateOutcome(
            update_id=update_id,
            origin=origin,
            report=aggregate_reports(
                update_id, origin, reports, unreachable_peers=dead
            ),
            wall_time=handle.finished_at - handle.started_at,
            transport_messages=handle.messages_after - handle.messages_before,
            transport_bytes=handle.bytes_after - handle.bytes_before,
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def submit_query(
        self,
        node_name: str,
        query: str,
        *,
        mode: str = "network",
        cache: bool | None = None,
        tenant: str = "",
    ) -> RequestHandle:
        """Submit *query* (text) at *node_name*; returns its handle.

        ``cache`` overrides the worker node's ``NodeConfig.answer_cache``
        for this one query (``None`` inherits the config); *tenant*
        tags the submission in the worker node's statistics."""
        if not isinstance(query, str):
            raise ProtocolError(
                "ProcessNetwork queries must be text (they cross a "
                "process boundary)"
            )
        worker = self._worker(node_name)
        if mode == "local":
            rows = self.query(node_name, query, mode="local")
            handle = RequestHandle(
                request_id=f"local-{next(self._cmd_ids)}",
                kind="query",
                origin=node_name,
                transport=self.transport,
                is_done=lambda: True,
                assemble=lambda _handle: rows,
                started_at=self.transport.now(),
                messages_before=self.transport.stats.messages_sent,
                bytes_before=self.transport.stats.bytes_sent,
                tenant=tenant,
            )
            handle.done()
            return handle
        if mode != "network":
            raise ProtocolError(f"unknown query mode {mode!r}")
        started_at = self.transport.now()
        messages_before = self.transport.stats.messages_sent
        bytes_before = self.transport.stats.bytes_sent
        query_id = self._call(
            worker, "submit_query", query=query, cache=cache, tenant=tenant
        )["request_id"]
        handle = RequestHandle(
            request_id=query_id,
            kind="query",
            origin=node_name,
            transport=self.transport,
            is_done=lambda: self._query_done(query_id, node_name),
            assemble=lambda _handle: self._query_answer(node_name, query_id),
            try_cancel=lambda: self._cancel(node_name, "query", query_id),
            started_at=started_at,
            messages_before=messages_before,
            bytes_before=bytes_before,
            tenant=tenant,
        )
        self._track(handle)
        return handle

    def _query_answer(self, origin: str, query_id: str) -> list[Row]:
        worker = self._worker(origin)  # raises if the origin died
        rows = self._call(worker, "query_answer", request_id=query_id)["rows"]
        if rows is None:
            raise ProtocolError(
                f"query {query_id!r} has no answer at {origin!r}"
            )
        return [decode_row(row) for row in rows]

    def query(
        self,
        node_name: str,
        query: str,
        *,
        mode: str = "local",
        cache: bool | None = None,
    ) -> list[Row]:
        """Answer *query* at *node_name* (blocking wrapper)."""
        if not isinstance(query, str):
            raise ProtocolError(
                "ProcessNetwork queries must be text (they cross a "
                "process boundary)"
            )
        if mode == "local":
            worker = self._worker(node_name)
            rows = self._call(worker, "query_local", query=query)["rows"]
            return [decode_row(row) for row in rows]
        if mode != "network":
            raise ProtocolError(f"unknown query mode {mode!r}")
        handle = self.submit_query(node_name, query, mode="network", cache=cache)
        return handle.result(self.poll_timeout)

    # ------------------------------------------------------------------
    # Statistics & snapshots
    # ------------------------------------------------------------------

    def snapshot(self) -> dict[str, dict[str, list[Row]]]:
        """``{node: {relation: sorted rows}}`` across alive workers."""
        replies = self._call_many(list(self._workers.values()), "snapshot")
        return {
            name: {
                relation: [decode_row(row) for row in rows]
                for relation, rows in frame["relations"].items()
            }
            for name, frame in replies.items()
        }

    def lifetime_totals(self) -> dict[str, dict]:
        """Per-node lifetime aggregates, collected over control pipes
        (pipelined: all workers are probed before any reply is read)."""
        replies = self._call_many(
            list(self._workers.values()), "lifetime_totals"
        )
        return {
            name: frame["node_totals"] for name, frame in replies.items()
        }

    def total_rows(self) -> int:
        return sum(
            sum(len(rows) for rows in relations.values())
            for relations in self.snapshot().values()
        )

    # ------------------------------------------------------------------
    # Failure injection & teardown
    # ------------------------------------------------------------------

    def crash_worker(self, name: str) -> None:
        """Kill a worker process outright (chaos/testing): the pump
        detects the EOF and runs the failure protocol."""
        worker = self._worker(name)
        worker.process.kill()

    def install_faults(self, injector) -> None:
        """Install a fault-model composition on every worker transport.

        *injector* is a :class:`~repro.p2p.faults.FaultInjector` (or a
        ``spec()`` payload).  Each worker rebuilds the injector from
        the spec on its own :class:`~repro.p2p.tcp.TcpNetwork`; the
        per-edge deterministic draw streams make the N copies agree,
        so a verdict consulted at the sender's host matches what a
        single shared injector would have said.  A
        :class:`~repro.p2p.faults.ScheduledCrash` victim SIGKILLs its
        own process, exercising the supervised-restart path for real.
        """
        spec = injector.spec() if hasattr(injector, "spec") else dict(injector)
        self._fault_spec = spec
        self._call_many(
            [w for w in self._workers.values() if w.alive],
            "install_faults",
            spec=spec,
        )

    def drain(self, timeout: float | None = None) -> None:
        """Block until every tracked in-flight request has completed.

        The persistent-serve shutdown path (``repro serve`` handling
        SIGTERM): stop admitting, drain, then :meth:`stop`.  Completion
        stays event-driven — the pump thread's progress notifications
        wake this wait.  Raises
        :class:`~repro.errors.RequestTimeoutError` when *timeout*
        (default: ``poll_timeout``) elapses with requests still in
        flight."""
        self.transport.wait_for(
            lambda: not self._tracked,
            self.poll_timeout if timeout is None else timeout,
            description="process-network drain",
        )

    def stop(self) -> None:
        """Shut every worker down; terminate stragglers; no orphans."""
        if self._stopped or not self._started:
            self._stopped = True
            return
        self._stopped = True
        self._stopping = True
        for thread in self._restart_threads:
            thread.join(timeout=2.0)
        for worker in self._workers.values():
            if not worker.alive:
                continue
            try:
                self._call(worker, "shutdown", timeout=5.0)
            except (ProtocolError, RequestTimeoutError):
                pass
        self._running = False
        if self._pump_thread is not None:
            self._pump_thread.join(timeout=2.0)
        for worker in self._workers.values():
            process = worker.process
            if process is None:
                continue
            process.join(timeout=5.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=2.0)
            if process.is_alive():  # pragma: no cover - hard stragglers
                process.kill()
                process.join(timeout=2.0)
            worker.alive = False
            try:
                worker.conn.close()
            except OSError:
                pass
        if self._snapshot_dir_owned and self._snapshot_dir is not None:
            shutil.rmtree(self._snapshot_dir, ignore_errors=True)
        self.transport.notify_progress()

    def __enter__(self) -> "ProcessNetwork":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

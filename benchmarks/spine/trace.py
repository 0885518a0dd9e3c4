"""Span recording around the layers' public entry points.

The benchmark touches nothing under ``src/``: a traced repetition
temporarily replaces the entry points listed by :func:`targets` with
wrappers that record one span per call — name, start, end, the span
that caused it (per-thread stack) and the request it belongs to — and
puts the originals back afterwards.  Spans stay in memory; the runner
writes them out when the benchmark ends.

A span's *self time* is its duration minus its children's durations,
so per-layer self times add up to the traced operation's wall time
(minus what no wrapper covers, reported as
``bench.trace_coverage_frac``).  End-to-end numbers are always measured
with tracing off.
"""

from __future__ import annotations

import inspect
import threading
import time
from collections import defaultdict
from typing import Any, Callable

# Span record layout (a list, mutated in place when the call returns).
NAME, START, END, PARENT, REQUEST = range(5)


class Tracer:
    """In-memory span store with per-thread parent stacks."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        #: (thread name, that thread's spans in start order); a list,
        #: because thread names and idents are reused once a thread ends.
        self.threads: list[tuple[str, list[list]]] = []
        #: The request the driver is currently timing; ``None`` between
        #: timed operations, when the wrappers record nothing.
        self.request: Any = None
        #: Counts recorded at the same boundaries as the spans.
        self.counters: dict[str, float] = defaultdict(float)
        self._patched: list[tuple[type, str, Any]] = []

    # -- recording -------------------------------------------------------

    def _thread_state(self) -> tuple[list[list], list[int]]:
        local = self._local
        try:
            return local.spans, local.stack
        except AttributeError:
            local.spans, local.stack = [], []
            with self._lock:
                self.threads.append((threading.current_thread().name, local.spans))
            return local.spans, local.stack

    def begin(self, name: str, request: Any = None) -> list:
        spans, stack = self._thread_state()
        record = [
            name,
            0,
            0,
            stack[-1] if stack else -1,
            self.request if request is None else request,
        ]
        stack.append(len(spans))
        spans.append(record)
        record[START] = time.perf_counter_ns()
        return record

    def end(self, record: list) -> None:
        record[END] = time.perf_counter_ns()
        self._local.stack.pop()

    def flat_span(self, name: str, start_ns: int, end_ns: int, request: Any) -> None:
        """A span timed by the caller (asyncio tasks interleave on one
        thread, so they cannot use the thread's parent stack)."""
        spans, _stack = self._thread_state()
        spans.append([name, start_ns, end_ns, -1, request])

    # -- patching --------------------------------------------------------

    def wrap(
        self,
        owner: type,
        attr: str,
        name: str,
        annotate: Callable[["Tracer", tuple, dict, Any], None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper."""
        static = inspect.getattr_static(owner, attr)
        is_classmethod = isinstance(static, classmethod)
        original = static.__func__ if is_classmethod else static
        tracer = self

        def traced(*args, **kwargs):
            if tracer.request is None:  # off the clock: build, warm-up
                return original(*args, **kwargs)
            record = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(record)
            if annotate is not None:
                with tracer._lock:  # delivery threads annotate concurrently
                    annotate(tracer, args, kwargs, result)
            return result

        traced.__name__ = getattr(original, "__name__", attr)
        traced.__wrapped__ = original
        self._patched.append((owner, attr, static))
        setattr(owner, attr, classmethod(traced) if is_classmethod else traced)

    def install(self, targets) -> None:
        for owner, attr, name, annotate in targets:
            self.wrap(owner, attr, name, annotate)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, static = self._patched.pop()
            setattr(owner, attr, static)

    # -- analysis --------------------------------------------------------

    def self_times(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self milliseconds."""
        table: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_ms": 0.0, "self_ms": 0.0}
        )
        with self._lock:
            threads = [spans for _name, spans in self.threads]
        for spans in threads:
            child_ns = [0] * len(spans)
            for record in spans:
                if record[PARENT] >= 0:
                    child_ns[record[PARENT]] += record[END] - record[START]
            for index, record in enumerate(spans):
                duration = record[END] - record[START]
                row = table[record[NAME]]
                row["calls"] += 1
                row["total_ms"] += duration / 1e6
                row["self_ms"] += (duration - child_ns[index]) / 1e6
        return dict(table)

    def dump(self) -> dict[str, Any]:
        """JSON-ready form: spans per thread plus the counters."""
        with self._lock:
            threads = [{"thread": name, "spans": list(spans)} for name, spans in self.threads]
        return {
            "fields": ["name", "start_ns", "end_ns", "parent", "request"],
            "threads": threads,
            "counters": dict(self.counters),
        }


# ----------------------------------------------------------------------
# What gets wrapped.  Span names are ``<layer>.<entry point>``; the
# layer is the module path under ``repro`` (the repo's own layering).
# ----------------------------------------------------------------------


def _note_evaluate(tracer: Tracer, args, kwargs, result) -> None:
    """Rows examined vs rows returned, measured where the join runs."""
    store, body_owner = args[0], args[1]
    delta_rows = kwargs.get("delta_rows")
    changed = kwargs.get("changed_relation")
    if len(args) >= 4:  # evaluate_query_delta(query, relation, rows)
        changed, delta_rows = args[2], args[3]
    scanned = 0
    for atom in body_owner.body:
        if atom.relation == changed and delta_rows is not None:
            scanned += len(delta_rows)
        else:
            scanned += store.count(atom.relation)
    tracer.counters["rows_scanned"] += scanned
    tracer.counters["rows_out"] += len(result)


def _note_insert(tracer: Tracer, args, kwargs, result) -> None:
    rows = args[2] if len(args) > 2 else kwargs["rows"]
    tracer.counters["rows_offered"] += len(rows)
    tracer.counters["rows_new"] += len(result)


def _note_tcp_send(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counters["payload_bytes"] += args[1].payload_bytes()


def targets() -> list[tuple[type, str, str, Any]]:
    """``(owner, attribute, span name, annotate)`` for every wrapped
    entry point.  Imported lazily: the tracer itself must stay
    importable without ``repro`` on the path."""
    from repro.core.answercache import AnswerCache
    from repro.core.network import CoDBNetwork
    from repro.core.node import CoDBNode
    from repro.core.query import QueryEngine
    from repro.core.requests import RequestHandle
    from repro.core.termination import DiffusingComputation
    from repro.core.update import UpdateEngine, UpdateManager
    from repro.p2p.endpoint import Endpoint
    from repro.p2p.inproc import InProcessNetwork
    from repro.p2p.messages import Message
    from repro.p2p.tcp import TcpNetwork
    from repro.relational.planner import PlanCache
    from repro.relational.wrapper import MemoryStore, Wrapper

    return [
        (PlanCache, "plan", "relational.planner.plan", None),
        (Wrapper, "evaluate_query", "relational.wrapper.evaluate", _note_evaluate),
        (Wrapper, "evaluate_query_delta", "relational.wrapper.evaluate", _note_evaluate),
        (Wrapper, "evaluate_mapping_bindings", "relational.wrapper.evaluate", _note_evaluate),
        (MemoryStore, "insert_new", "relational.wrapper.insert", _note_insert),
        (UpdateEngine, "ingest_results", "core.update.ingest", None),
        (UpdateManager, "on_update_request", "core.update.handle", None),
        (UpdateManager, "on_query_result", "core.update.handle", None),
        (UpdateManager, "on_link_closed", "core.update.handle", None),
        (UpdateManager, "on_update_complete", "core.update.handle", None),
        (QueryEngine, "submit", "core.query.submit", None),
        (QueryEngine, "on_query_request", "core.query.handle", None),
        (QueryEngine, "on_query_data", "core.query.on_data", None),
        (QueryEngine, "on_query_complete", "core.query.handle", None),
        (AnswerCache, "get", "core.answercache.get", None),
        (AnswerCache, "put", "core.answercache.put", None),
        (DiffusingComputation, "on_ack", "core.termination.on_ack", None),
        (CoDBNode, "_on_ack", "core.node.on_ack", None),
        (CoDBNode, "_on_invalidation", "core.node.on_invalidation", None),
        (CoDBNode, "bump_epochs", "core.node.bump_epochs", None),
        (CoDBNode, "insert", "core.node.insert", None),
        (CoDBNetwork, "submit_global_update", "core.network.submit", None),
        (CoDBNetwork, "submit_query", "core.network.submit", None),
        (RequestHandle, "result", "core.requests.result", None),
        (Endpoint, "_dispatch", "p2p.endpoint.dispatch", None),
        (Endpoint, "send", "p2p.endpoint.send", None),
        (Message, "to_wire", "p2p.messages.encode", None),
        (Message, "to_binary", "p2p.messages.encode", None),
        (Message, "from_frame", "p2p.messages.decode", None),
        (Message, "size_bytes", "p2p.messages.size_bytes", None),
        (InProcessNetwork, "send", "p2p.inproc.send", None),
        (InProcessNetwork, "step", "p2p.inproc.step", None),
        (TcpNetwork, "send", "p2p.tcp.send", _note_tcp_send),
        (TcpNetwork, "wait_for", "p2p.tcp.wait", None),
    ]


def layer_of(span_name: str) -> str:
    """``relational`` / ``core`` / ``p2p`` / ``service`` / ``bench``."""
    return span_name.split(".", 1)[0]

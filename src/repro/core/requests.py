"""Request handles: queries and updates as first-class sessions.

The paper's DBM "serves, in general, many requests concurrently" (§3).
This module is the public face of that: every request — a global
update or a network query — is submitted, not run, and the caller gets
back a :class:`RequestHandle` that can be awaited (``result``),
streamed (:func:`as_completed`), partitioned (:func:`wait`), observed
(``add_done_callback``) or withdrawn before admission (``cancel``).
The blocking entry points (``CoDBNetwork.global_update``,
``CoDBNetwork.query``) survive as thin wrappers over handles.

Completion is event-driven end to end: update/query engines signal
their node on root completion and session finalization, nodes notify
the per-network progress condition
(:attr:`repro.p2p.transport.Transport.progress`), and every wait in
this module blocks on that condition (TCP) or steps the simulator's
event queue one delivery at a time — there is no ``time.sleep``
polling on any completion path.

Admission control
-----------------

:class:`AdmissionControl` is the per-node admission layer (Youtopia-
style managed update-exchange sessions; CUP-style propagation control
under storms): with
``NodeConfig.max_active_sessions = K`` a node keeps at most K live
sessions (global updates and network queries alike, one registry:
:class:`~repro.core.update.UpdateManager`).  Excess work queues:

* locally submitted requests wait in the node's admission queue as
  *pending initiations* — the handle exists and is cancellable, the
  request simply has not started;
* session-*creating* messages from remote peers (the first
  ``update_request`` / ``query_request`` of an unknown id) are
  deferred un-acked, which keeps the sender's Dijkstra–Scholten
  deficit open — the computation cannot falsely quiesce while a
  participant is still queued.

The queue drains in **global seniority order** (the numeric counter
every id carries), not raw arrival order: all nodes agree on the
order, so under a storm every node works on the same most-senior
updates and the remainder wait their turn — the storm degrades into a
pipeline instead of thrashing.  Admission assumes ids flood a
connected network; under extreme arrival skew a node can hold a
senior request queued behind locally admitted juniors, in which case
the drivers' ``poll_timeout`` turns a (theoretical) stall into an
error rather than a hang.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import (
    ProtocolError,
    RequestCancelledError,
    RequestTimeoutError,
)
from repro.p2p.messages import Message
from repro.p2p.transport import Transport

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.node import CoDBNode

#: ``wait(return_when=...)`` modes, mirroring :mod:`concurrent.futures`.
FIRST_COMPLETED = "FIRST_COMPLETED"
ALL_COMPLETED = "ALL_COMPLETED"

#: Handle lifecycle states.
PENDING = "pending"      # submitted; possibly queued behind admission
DONE = "done"
CANCELLED = "cancelled"

#: Process-wide completion sequence: assigns every handle a strictly
#: increasing index the moment its completion is *observed*, which is
#: what ``as_completed`` sorts by when several handles finish between
#: two wake-ups.  (``itertools.count.__next__`` is atomic in CPython.)
_COMPLETION_SEQUENCE = itertools.count(1)

_UNSET = object()


class RequestHandle:
    """One submitted request: id, kind, origin, and its completion.

    Returned by ``CoDBNetwork.submit_global_update`` /
    ``submit_query`` and by the node-level ``submit_*`` methods.  The
    network-level variants of ``result()`` return an
    :class:`~repro.core.network.UpdateOutcome` (updates) or the answer
    rows (queries); node-level update handles return the node's own
    :class:`~repro.core.statistics.UpdateReport`.

    Attributes
    ----------
    request_id:
        The update/query id.
    kind:
        ``"update"`` or ``"query"``.
    origin:
        The submitting node's name.
    started_at / messages_before / bytes_before:
        Transport clock and traffic counters at submission; the
        matching outcome windows are measured from here.
    finished_at / messages_after / bytes_after:
        The same, captured the moment completion was observed.
    tenant:
        The submitting tenant (service-gateway multi-tenancy); ``""``
        for untagged driver-script submissions.
    """

    def __init__(
        self,
        *,
        request_id: str,
        kind: str,
        origin: str,
        transport: Transport,
        is_done: Callable[[], bool],
        assemble: Callable[["RequestHandle"], Any],
        try_cancel: Callable[[], bool] | None = None,
        started_at: float = 0.0,
        messages_before: int = 0,
        bytes_before: int = 0,
        tenant: str = "",
    ) -> None:
        self.request_id = request_id
        self.kind = kind
        self.origin = origin
        self.tenant = tenant
        self.started_at = started_at
        self.messages_before = messages_before
        self.bytes_before = bytes_before
        self.finished_at = 0.0
        self.messages_after = 0
        self.bytes_after = 0
        #: Global completion-observation index (see _COMPLETION_SEQUENCE).
        self.completion_index = 0
        self._transport = transport
        self._is_done = is_done
        self._assemble = assemble
        self._try_cancel = try_cancel
        self._state = PENDING
        self._result: Any = _UNSET
        self._callbacks: list[Callable[["RequestHandle"], None]] = []
        self._lock = threading.Lock()

    # -- state -------------------------------------------------------------

    def cancelled(self) -> bool:
        return self._state == CANCELLED

    def done(self) -> bool:
        """Whether the request has completed (or was cancelled).

        Checking is also how completion gets *recorded*: the first
        ``done()`` that observes the underlying predicate true stamps
        the completion time, traffic counters and completion index and
        fires the done callbacks.
        """
        if self._state != PENDING:
            return True
        if not self._is_done():
            return False
        self._mark_done()
        return True

    def _mark_done(self) -> None:
        with self._lock:
            if self._state != PENDING:
                return
            self._state = DONE
            self.finished_at = self._transport.now()
            self.messages_after = self._transport.stats.messages_sent
            self.bytes_after = self._transport.stats.bytes_sent
            self.completion_index = next(_COMPLETION_SEQUENCE)
            callbacks = list(self._callbacks)
            self._callbacks.clear()
        for callback in callbacks:
            callback(self)

    # -- completion --------------------------------------------------------

    def result(self, timeout: float | None = None) -> Any:
        """Block until the request completes; return its outcome.

        Drives the network while waiting (steps the simulator; waits on
        the progress condition over TCP).  Raises
        :class:`~repro.errors.RequestTimeoutError` if the request does
        not complete within *timeout* seconds (or, on the simulator,
        if the event queue drains first), and
        :class:`~repro.errors.RequestCancelledError` for a cancelled
        handle.
        """
        if self._state == CANCELLED:
            raise RequestCancelledError(
                f"{self.kind} {self.request_id} was cancelled before admission"
            )
        if not self.done():
            self._transport.wait_for(
                self.done,
                timeout,
                description=f"{self.kind} {self.request_id}",
            )
        if self._state == CANCELLED:
            raise RequestCancelledError(
                f"{self.kind} {self.request_id} was cancelled before admission"
            )
        if self._result is _UNSET:
            self._result = self._assemble(self)
        return self._result

    def cancel(self) -> bool:
        """Withdraw the request if it has not been admitted yet.

        Only a request still waiting in its origin's admission queue
        can be cancelled — once the session is live its propagation is
        distributed and there is nothing local left to retract.
        Returns ``True`` when the request is (now) cancelled.
        """
        with self._lock:
            if self._state == CANCELLED:
                return True
            if self._state == DONE or self._try_cancel is None:
                return False
        # The retraction takes the origin node's lock, which delivery
        # threads hold while completing handles (node lock -> handle
        # lock); invoking it under our own lock would invert that
        # order and deadlock — so withdraw first, then restate.
        if not self._try_cancel():
            with self._lock:
                return self._state == CANCELLED
        with self._lock:
            if self._state != PENDING:
                return self._state == CANCELLED
            self._state = CANCELLED
            self.finished_at = self._transport.now()
            self.completion_index = next(_COMPLETION_SEQUENCE)
            callbacks = list(self._callbacks)
            self._callbacks.clear()
        for callback in callbacks:
            callback(self)
        self._transport.notify_progress()
        return True

    def add_done_callback(
        self, callback: Callable[["RequestHandle"], None]
    ) -> None:
        """Call ``callback(handle)`` when the handle completes (or is
        cancelled); immediately if it already has."""
        with self._lock:
            if self._state == PENDING:
                self._callbacks.append(callback)
                return
        callback(self)

    def asyncio_future(self, loop) -> "Any":
        """Bridge this handle onto an :mod:`asyncio` event loop.

        Returns an ``asyncio.Future`` belonging to *loop* that resolves
        with the handle itself once the request completes or is
        cancelled.  Completion is observed on whatever thread delivers
        it (a transport delivery thread, the process-runner pump, the
        simulator driver) and marshalled onto *loop* with
        ``call_soon_threadsafe`` — the service gateway awaits these
        futures without ever blocking the event loop.  The future never
        carries an exception: callers inspect ``handle.cancelled()`` /
        ``handle.result()`` themselves, off-loop, because assembly may
        block on the network.
        """
        future = loop.create_future()

        def resolve(handle: "RequestHandle") -> None:
            def settle() -> None:
                if not future.done():
                    future.set_result(handle)

            try:
                loop.call_soon_threadsafe(settle)
            except RuntimeError:  # pragma: no cover - loop already closed
                pass

        self.add_done_callback(resolve)
        return future

    def __repr__(self) -> str:
        return (
            f"<RequestHandle {self.kind} {self.request_id} "
            f"origin={self.origin} state={self._state}>"
        )


# ---------------------------------------------------------------------------
# Module-level driving: streaming and partitioned waits
# ---------------------------------------------------------------------------


def _shared_transport(handles: list[RequestHandle]) -> Transport:
    transports = {id(handle._transport): handle._transport for handle in handles}
    if len(transports) != 1:
        raise ProtocolError(
            "all handles must belong to the same network/transport"
        )
    return next(iter(transports.values()))


def as_completed(handles, timeout: float | None = None):
    """Yield *handles* in the order they complete.

    Drives the network while waiting, so completion order is the real
    one: deterministic virtual-time order on the simulator, observed
    wall-clock order over TCP.  Cancelled handles are yielded too (at
    their cancellation point).  Raises
    :class:`~repro.errors.RequestTimeoutError` if *timeout* seconds
    elapse with handles still pending — or, on the simulator, if the
    event queue drains while some handle can never complete.
    """
    pending = list(handles)
    if not pending:
        return
    transport = _shared_transport(pending)
    deadline = None if timeout is None else time.monotonic() + timeout
    while pending:
        ready = [handle for handle in pending if handle.done()]
        if not ready:
            remaining = None
            if deadline is not None:
                remaining = max(0.0, deadline - time.monotonic())
            transport.wait_for(
                lambda: any(handle.done() for handle in pending),
                remaining,
                description=f"as_completed over {len(pending)} request(s)",
            )
            ready = [handle for handle in pending if handle.done()]
        ready.sort(key=lambda handle: handle.completion_index)
        for handle in ready:
            pending.remove(handle)
            yield handle


def wait(
    handles,
    timeout: float | None = None,
    *,
    return_when: str = ALL_COMPLETED,
) -> tuple[list[RequestHandle], list[RequestHandle]]:
    """Drive the network until the waited-for condition; partition.

    Returns ``(done, not_done)`` lists in input order.  With
    ``return_when=FIRST_COMPLETED`` returns as soon as any handle is
    done.  Unlike :func:`as_completed`, a timeout (or the simulator's
    event queue draining) does not raise — the partition simply
    reflects whatever completed, mirroring
    :func:`concurrent.futures.wait`.
    """
    if return_when not in (FIRST_COMPLETED, ALL_COMPLETED):
        raise ProtocolError(f"unknown return_when {return_when!r}")
    handles = list(handles)
    if not handles:
        return [], []
    transport = _shared_transport(handles)

    def satisfied() -> bool:
        done_count = sum(1 for handle in handles if handle.done())
        if return_when == FIRST_COMPLETED:
            return done_count >= 1
        return done_count == len(handles)

    try:
        transport.wait_for(
            satisfied, timeout, description=f"wait over {len(handles)} request(s)"
        )
    except RequestTimeoutError:
        pass
    done = [handle for handle in handles if handle.done()]
    not_done = [handle for handle in handles if not handle.done()]
    return done, not_done


# ---------------------------------------------------------------------------
# Per-node admission control
# ---------------------------------------------------------------------------


def _seniority(request_id: str) -> tuple:
    """Global seniority of an id: (mint counter, kind prefix, full id).

    Every :class:`~repro.p2p.ids.IdAuthority` id ends in a monotone
    per-kind counter (``update-ab12cd-0007``) and starts with its kind
    prefix, so ALL nodes agree on the relative order of any two ids —
    a network-wide consistent admission order is what keeps capped
    nodes working on the same requests instead of deadlocking on each
    other's queues.  The full id is the final tie-break: process-per-
    node deployments mint ids from one authority per worker, so two
    origins' first updates share counter 0 — the (arbitrary but
    globally consistent) id ordering keeps the total order total.
    """
    prefix = request_id.split("-", 1)[0]
    try:
        return (int(request_id.rsplit("-", 1)[-1]), prefix, request_id)
    except ValueError:  # pragma: no cover - foreign id shapes
        return (1 << 30, prefix, request_id)


class _PendingAdmission:
    """One queued request at a node: either a local initiation waiting
    to start, or deferred session-creating messages from remote peers."""

    __slots__ = ("request_id", "kind", "start", "messages", "arrival")

    def __init__(
        self,
        request_id: str,
        kind: str,
        arrival: int,
        start: Callable[[], None] | None = None,
    ) -> None:
        self.request_id = request_id
        self.kind = kind
        self.start = start
        self.arrival = arrival
        #: Deferred remote messages, in arrival order, each paired with
        #: the manager callback that will process it on admission.
        self.messages: list[tuple[Message, Callable[[Message], None]]] = []


class AdmissionControl:
    """The per-node admission layer (see module docstring).

    ``NodeConfig.max_active_sessions`` bounds ``len(live)``; the queue
    holds everything waiting, drained in global seniority order as
    sessions finish.  Runs entirely under the owning node's lock (all
    call sites are node handlers or locked public methods).
    """

    def __init__(self, node: "CoDBNode") -> None:
        self.node = node
        #: Live sessions: request id -> kind.
        self.live: dict[str, str] = {}
        #: The subset of :attr:`live` this node itself initiated.
        self._local_live: set[str] = set()
        self._pending: dict[str, _PendingAdmission] = {}
        self._arrivals = itertools.count()
        self._draining = False

    @property
    def capacity(self) -> int:
        """The cap; ``0`` means unbounded."""
        return self.node.config.max_active_sessions

    def queue_depth(self) -> int:
        return len(self._pending)

    def is_deferred(self, request_id: str) -> bool:
        return request_id in self._pending

    # -- admission ---------------------------------------------------------

    def _local_slot_free(self) -> bool:
        """Whether another *locally initiated* session may go live.

        Local submissions appear instantly while remote floods take
        network hops, so a node that filled every slot with its own
        juniors could lock a globally senior in-flight update out —
        and with every node doing that, the storm deadlocks.  Local
        initiations therefore hold at most ``cap - 1`` slots (one slot
        always answers to remote seniority); with ``cap == 1`` only an
        otherwise-idle node may start locally, which serves the
        single-origin case — multi-origin storms need ``cap >= 2``.
        """
        capacity = self.capacity
        if capacity == 1:
            return not self.live
        return len(self._local_live) < capacity - 1

    def try_enter(
        self, request_id: str, kind: str, *, initiation: bool = False
    ) -> bool:
        """Admit *request_id* now if the cap allows; track it as live."""
        if request_id in self.live:
            return True
        capacity = self.capacity
        if capacity > 0:
            if len(self.live) >= capacity or self._pending:
                return False
            if initiation and not self._local_slot_free():
                return False
        self._go_live(request_id, kind, initiation=initiation)
        return True

    def _go_live(
        self, request_id: str, kind: str, *, initiation: bool
    ) -> None:
        self.live[request_id] = kind
        if initiation:
            self._local_live.add(request_id)
        stats = self.node.stats
        stats.live_sessions_peak = max(stats.live_sessions_peak, len(self.live))

    def initiate(self, request_id: str, kind: str, start: Callable[[], None]) -> None:
        """A local initiation: *start* runs now if the cap allows, else
        once the queue admits it (:meth:`defer_initiation`)."""
        if self.try_enter(request_id, kind, initiation=True):
            start()
        else:
            self.defer_initiation(request_id, kind, start)

    def defer_initiation(
        self, request_id: str, kind: str, start: Callable[[], None]
    ) -> None:
        """Queue a locally submitted request; *start* runs on admission."""
        entry = _PendingAdmission(
            request_id, kind, next(self._arrivals), start=start
        )
        self._pending[request_id] = entry
        self._note_deferred()
        self.drain()

    def defer_message(
        self,
        request_id: str,
        kind: str,
        message: Message,
        replay: Callable[[Message], None],
    ) -> None:
        """Queue a session-creating remote message, un-acked.

        The sender's termination deficit stays open until the message
        is replayed after admission, so the computation cannot quiesce
        around a still-queued participant.
        """
        entry = self._pending.get(request_id)
        if entry is None:
            entry = _PendingAdmission(request_id, kind, next(self._arrivals))
            self._pending[request_id] = entry
            self._note_deferred()
        entry.messages.append((message, replay))
        # A slot may be free (the queue can hold entries blocked only
        # by fairness or the local budget): hand it to the most senior
        # admissible entry right away — possibly this very message.
        self.drain()

    def _note_deferred(self) -> None:
        stats = self.node.stats
        stats.sessions_deferred += 1
        stats.admission_queue_peak = max(
            stats.admission_queue_peak, len(self._pending)
        )

    # -- withdrawal --------------------------------------------------------

    def cancel(self, request_id: str) -> bool:
        """Withdraw a queued *local* initiation; ``False`` once live."""
        entry = self._pending.get(request_id)
        if entry is None or entry.start is None:
            return False
        del self._pending[request_id]
        # A removed head may unblock juniors queued behind it purely
        # for seniority-fairness while a slot was actually free.
        self.drain()
        return True

    def drop(self, request_id: str) -> list[Message]:
        """Remove a queued entry outright (the request completed or
        died elsewhere); returns its deferred messages so the caller
        can ack their senders' deficits."""
        entry = self._pending.pop(request_id, None)
        if entry is None:
            return []
        return [message for message, _replay in entry.messages]

    def on_peer_down(self, dead_peer: str) -> None:
        """Forget deferred messages from a departed peer (their
        deficits die with the sender); drop entries left empty."""
        for request_id, entry in list(self._pending.items()):
            entry.messages = [
                (message, replay)
                for message, replay in entry.messages
                if message.sender != dead_peer
            ]
            if not entry.messages and entry.start is None:
                del self._pending[request_id]

    # -- release & drain ---------------------------------------------------

    def release(self, request_id: str) -> None:
        """A session finished here: free its slot, admit the queue."""
        self.live.pop(request_id, None)
        self._local_live.discard(request_id)
        self.drain()

    def drain(self) -> None:
        """Admit queued requests in seniority order while slots last.

        Local initiations blocked by the local-slot budget are skipped
        (a junior remote may overtake them); they go live once a local
        slot frees.
        """
        if self._draining:
            return  # an activation completed synchronously; outer loop runs
        self._draining = True
        try:
            while self._pending:
                capacity = self.capacity
                if capacity > 0 and len(self.live) >= capacity:
                    break
                admissible = [
                    entry
                    for entry in self._pending.values()
                    if entry.start is None or self._local_slot_free()
                ]
                if not admissible:
                    break
                entry = min(
                    admissible,
                    key=lambda e: (_seniority(e.request_id), e.arrival),
                )
                del self._pending[entry.request_id]
                self._go_live(
                    entry.request_id,
                    entry.kind,
                    initiation=entry.start is not None,
                )
                if entry.start is not None:
                    entry.start()
                for message, replay in entry.messages:
                    replay(message)
        finally:
            self._draining = False

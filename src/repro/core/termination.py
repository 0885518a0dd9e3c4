"""Distributed termination detection: diffusing computations.

The paper propagates queries "using [an] extension of [the] 'diffusing
computation' approach [Lynch, 1996]" (§3) and closes cyclic link
dependencies when "all query results did not bring any new data" —
i.e. when the data flow has quiesced.  The classical algorithm for
detecting exactly that is Dijkstra–Scholten acknowledgement counting,
which this module implements, decoupled from any particular protocol:

* Every *engaging* message (update request, query result, query
  data, ...) is acknowledged by its receiver, explicitly or — for a
  result a participant sends its parent — by the participant's tree
  ack (below).
* The first engaging message that reaches a disengaged node makes the
  sender that node's *parent*; the ack for it is deferred.
* Every other engaging message is acknowledged once its local
  processing has finished.  Delaying an acknowledgement is always
  safe — it only keeps the sender's deficit open a little longer — so
  the node does not send one ``ack`` per message: what one input to
  the node (a delivered burst, a public call) owes leaves, as the input
  closes, as **one counted ack** per (sender, computation),
  ``{"computation_id": ..., "count": n}`` with ``count`` left out when
  it is 1 (:meth:`CoDBNode.send_ack
  <repro.core.node.CoDBNode.send_ack>`, summed in the input's one
  pass, :meth:`CoDBNode._finish <repro.core.node.CoDBNode._finish>`).
  Nothing is ever owed across inputs, so detection is exactly as
  prompt as with one ack per message.
* A node's *deficit* counts its own sent-but-unacked messages.  When
  an engaged node is passive (an input closes) with deficit zero, it
  acknowledges its parent — its *tree ack* — and disengages (it may be
  re-engaged later).  The input's one pass decides it
  (:meth:`disengage_quiet`), never a handler half-way through.
* **The tree ack covers every result sent to the parent.**  A result
  (a query's ``query_data``, an update's ``query_result``) that a
  non-root participant sends its parent is *covered*: it stays out of
  the sender's deficit and the parent never acks it.  Instead the
  child's tree ack carries the cumulative number of covered results it
  has sent that parent in this computation (``"covers": n``), and the
  parent drains the tree edge only once it has processed that many
  covered results from the child.  The parent's tree edge to the child
  stays open while any covered result is in flight, so the parent
  stays engaged, the root cannot complete, and whatever the result
  triggers lands in the parent's own deficit.  The count is
  cumulative, so a retry that lands behind the tree ack, or a later
  re-engagement by the same parent, is simply waited for; and a
  covered result is never acked, so no stale ack can drain a later
  deficit.  Any other result — to a peer that is not the sender's
  parent, in a DAG or a cycle — is in the deficit as before and says
  so (``"ack": true``): its receiver acks it.
* **The last word carries the tree ack.**  When the input that leaves
  a participant quiet sent its parent a covered result, the last one
  goes out ``"fin": true`` and is the tree ack; otherwise a plain
  ``ack`` is.  A tree ack omits the count it already implies: a
  ``fin`` that covers only itself, a plain ack that covers nothing —
  so either is the frame it always was.  A covered result that is
  dropped unread (its computation is over at the receiver) still
  counts as processed, and a ``fin`` still drains the edge it closes.
* The computation's *root* detects termination when it is passive
  with deficit zero: at that point no message is in flight anywhere
  and every node is disengaged — the paper's condition (b) holds
  globally, so remaining cyclic links can be closed.

One :class:`DiffusingComputation` instance lives in each node and
multiplexes any number of concurrent computations by computation id:
every network query AND every concurrent global-update session runs
its own independent Dijkstra–Scholten instance (parent pointer,
deficit counters, engagement flag), so N overlapping updates detect
their N quiescence points independently — a node can be the root of
one computation while an interior participant of several others.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable

from repro.errors import ProtocolError


def read_count(payload: dict, key: str, default: int, *, least: int = 0) -> int:
    """The counter *key* of a received *payload* (an ack's ``count``, a
    tree ack's ``covers``, a result's ``path_len``, a registration's
    lease): an ``int`` (not a ``bool``) of at least *least*, *default*
    when absent.  Anything else is a :class:`ProtocolError`, raised
    before any state moves."""
    value = payload.get(key, default)
    if type(value) is not int or value < least:
        raise ProtocolError(f"{key!r} must be an int >= {least}, not {value!r}")
    return value


def coverage(payload: dict) -> tuple[bool, int | None]:
    """How a received result stands to its sender's tree ack: whether
    it is covered (it has no ``"ack"`` flag), and, when it carries the
    tree ack (``"fin"``), how many results that covers (``"covers"``,
    1 when left out)."""
    covers = read_count(payload, "covers", 1) if payload.get("fin") else None
    return "ack" not in payload, covers


@dataclass
class _ComputationState:
    engaged: bool = False
    is_root: bool = False
    parent: str | None = None
    #: Sent messages not yet acknowledged; covered results are not in it.
    deficit: int = 0
    #: Outstanding (unacked) messages per recipient — the failure
    #: detector drains a dead peer's share without waiting forever.
    deficit_by_peer: dict[str, int] = field(default_factory=dict)
    completed: bool = False
    #: Covered results sent to each peer while it was our parent.
    covered_sent: dict[str, int] = field(default_factory=dict)
    #: Covered results processed from each child.
    covered_got: dict[str, int] = field(default_factory=dict)
    #: Per child, the counts of its tree acks still waiting for their
    #: covered results; each holds one unit of its deficit.
    waiting: dict[str, list[int]] = field(default_factory=dict)


class DiffusingComputation:
    """Dijkstra–Scholten bookkeeping for one node.

    Parameters
    ----------
    send_ack:
        Callback ``(recipient, computation_id)`` — one message of
        *recipient*'s is to be acknowledged.
    on_root_complete:
        Callback ``(computation_id)`` — invoked exactly once, on the
        root node, when global termination is detected.
    """

    def __init__(
        self,
        send_ack: Callable[[str, str], None],
        on_root_complete: Callable[[str], None],
    ) -> None:
        self._send_ack = send_ack
        self._on_root_complete = on_root_complete
        self._computations: dict[str, _ComputationState] = {}
        #: Non-root computations an input left passive with deficit
        #: zero, in order: :meth:`disengage_quiet` settles them.
        self.quiet: dict[str, None] = {}

    def _state(self, computation_id: str) -> _ComputationState:
        return self._computations.setdefault(computation_id, _ComputationState())

    # -- root ---------------------------------------------------------------

    def start_root(self, computation_id: str) -> None:
        """Declare this node the root of a new computation."""
        state = self._state(computation_id)
        if state.engaged:
            raise ProtocolError(
                f"computation {computation_id!r} already running here"
            )
        state.engaged = True
        state.is_root = True

    # -- message hooks --------------------------------------------------------

    def on_engaging_message(
        self, computation_id: str, sender: str, *, covered: bool = False
    ) -> bool:
        """Record receipt of an engaging message; returns ``True`` when
        this message is the tree edge (ack deferred).  A *covered*
        result may engage this node, but its sender is owed no ack for
        it: no parent is adopted.

        Call *before* processing the message; pair each call with one
        :meth:`after_processing`.
        """
        state = self._state(computation_id)
        if not state.engaged:
            state.engaged = True
            if not covered:
                state.parent = sender
                return True
        return False

    def after_processing(
        self,
        computation_id: str,
        sender: str,
        was_tree_edge: bool,
        *,
        covered: bool = False,
        covers: int | None = None,
    ) -> None:
        """Ack a message that is neither the tree edge nor covered;
        count a covered one as processed — with *covers* (a ``fin``)
        it is also its sender's tree ack; check the leave condition."""
        if covered:
            self.on_covered(computation_id, sender, covers)
        elif not was_tree_edge:
            self._send_ack(sender, computation_id)
        self.check_quiescence(computation_id)

    def note_result(self, computation_id: str, recipient: str) -> bool:
        """A result is about to leave for *recipient*: whether it is
        covered by this node's tree ack — *recipient* is the parent of
        this engaged participant.  A covered result is counted toward
        the tree ack and stays out of the deficit; any other is noted
        as sent, and the caller flags it so that it is acked."""
        state = self._state(computation_id)
        if state.engaged and state.parent == recipient:
            sent = state.covered_sent
            sent[recipient] = sent.get(recipient, 0) + 1
            return True
        self.note_sent(computation_id, recipient)
        return False

    def note_sent(
        self, computation_id: str, recipient: str = "", count: int = 1
    ) -> None:
        """Record that *count* engaging messages were just sent to
        *recipient* (tracked per peer for the failure detector)."""
        state = self._state(computation_id)
        state.deficit += count
        if recipient:
            state.deficit_by_peer[recipient] = (
                state.deficit_by_peer.get(recipient, 0) + count
            )

    def on_ack(
        self,
        computation_id: str,
        sender: str = "",
        count: int = 1,
        covers: int = 0,
    ) -> None:
        """*sender* acknowledged *count* of our messages.  With
        *covers*, one of them is its tree ack: that one drains only
        once *covers* covered results from *sender* were processed."""
        state = self._computations.get(computation_id)
        if state is None:
            return  # late: the computation already ended here
        if count and covers > state.covered_got.get(sender, 0):
            state.waiting.setdefault(sender, []).append(covers)
            count -= 1
        self._drain(computation_id, state, sender, count)

    def on_covered(
        self, computation_id: str, sender: str, covers: int | None = None
    ) -> None:
        """A covered result from the child *sender* was processed, or
        dropped unread; with *covers* it carried the child's tree ack
        (``fin``).  Drains every tree ack of the child whose count is
        now reached."""
        state = self._computations.get(computation_id)
        if state is None:
            return
        got = state.covered_got[sender] = state.covered_got.get(sender, 0) + 1
        if covers is None:
            waiting = state.waiting.get(sender)
        else:
            waiting = state.waiting.setdefault(sender, [])
            waiting.append(covers)
        if waiting:
            reached = [count for count in waiting if count <= got]
            if reached:
                waiting[:] = [count for count in waiting if count > got]
                self._drain(computation_id, state, sender, len(reached))

    def _drain(
        self,
        computation_id: str,
        state: _ComputationState,
        sender: str,
        count: int,
    ) -> None:
        if sender:
            # Acks from a peer whose share was already written off (in
            # full or in part) are duplicates of that write-off: drain
            # only what the peer still owes.
            owed = state.deficit_by_peer.get(sender, 0)
            count = min(count, owed)
            if count <= 0:
                return
            state.deficit_by_peer[sender] = owed - count
        state.deficit -= count
        if state.deficit < 0:
            raise ProtocolError(
                f"computation {computation_id!r}: more acks than messages"
            )
        self.check_quiescence(computation_id)

    # -- quiescence -----------------------------------------------------------

    def check_quiescence(self, computation_id: str) -> None:
        """Detect termination at the root when possible; note a passive
        non-root participant with deficit zero as :attr:`quiet`.

        Safe to call at any passive moment (end of every handler), also
        for a computation already forgotten here: a ``fin`` message can
        complete the root, which forgets it, before its own processing
        ends.
        """
        state = self._computations.get(computation_id)
        if state is None or not state.engaged or state.deficit > 0:
            return
        if state.is_root:
            if not state.completed:
                state.completed = True
                state.engaged = False
                self._on_root_complete(computation_id)
            return
        self.quiet[computation_id] = None

    def disengage_quiet(self) -> list[tuple[str, str | None, int]]:
        """The input closes: every participant it left quiet, and still
        quiet, disengages.  Returns the tree acks it owes, in order, as
        ``(computation id, parent, covered results sent the parent)``;
        the parent is ``None`` when none is owed."""
        quiet, self.quiet = self.quiet, {}
        owed = []
        for computation_id in quiet:
            state = self._computations.get(computation_id)
            if state is not None and state.engaged and not state.deficit:
                owed.append(self._leave(computation_id, state))
        return owed

    def _leave(
        self, computation_id: str, state: _ComputationState
    ) -> tuple[str, str | None, int]:
        parent = state.parent
        state.engaged = False
        state.parent = None
        covers = state.covered_sent.get(parent, 0) if parent else 0
        return computation_id, parent, covers

    # -- dynamic networks -------------------------------------------------------

    def on_peer_down(self, peer: str) -> None:
        """Failure-detector notification: *peer* left the network.

        Three effects, across every computation: (1) the dead peer will
        never ack anything, so its outstanding share of our deficit is
        written off, its tree acks no longer wait and the covered
        results counted with it start again from zero; (2) if the dead
        peer was our parent, nobody needs our deferred ack any more —
        adopt no one and disengage when quiescent.
        """
        for computation_id, state in list(self._computations.items()):
            owed = state.deficit_by_peer.pop(peer, 0)
            if owed:
                state.deficit = max(0, state.deficit - owed)
            state.waiting.pop(peer, None)
            state.covered_got.pop(peer, None)
            state.covered_sent.pop(peer, None)
            if state.parent == peer:
                state.parent = None
            if owed or state.engaged:
                self.check_quiescence(computation_id)

    def abandon_all(self) -> list[tuple[str, str | None, int]]:
        """Release every engaged computation (graceful network leave):
        disengage, and return the tree acks owed, as
        :meth:`disengage_quiet` does, so upstream deficits drain."""
        self.quiet = {}
        return [
            self._leave(computation_id, state)
            for computation_id, state in self._computations.items()
            if state.engaged
        ]

    # -- introspection ----------------------------------------------------------

    def is_engaged(self, computation_id: str) -> bool:
        state = self._computations.get(computation_id)
        return bool(state and state.engaged)

    def is_completed(self, computation_id: str) -> bool:
        state = self._computations.get(computation_id)
        return bool(state and state.completed)

    def deficit(self, computation_id: str) -> int:
        state = self._computations.get(computation_id)
        return state.deficit if state else 0

    def forget(self, computation_id: str) -> None:
        """Drop bookkeeping for a finished computation."""
        self._computations.pop(computation_id, None)
        self.quiet.pop(computation_id, None)

"""Distributed termination detection: diffusing computations.

The paper propagates queries "using [an] extension of [the] 'diffusing
computation' approach [Lynch, 1996]" (§3) and closes cyclic link
dependencies when "all query results did not bring any new data" —
i.e. when the data flow has quiesced.  The classical algorithm for
detecting exactly that is Dijkstra–Scholten acknowledgement counting,
which this module implements, decoupled from any particular protocol:

* Every *engaging* message (update request, query result, query
  data, ...) is acknowledged by its receiver, explicitly or — for a
  participant's last word — implicitly (below).
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
  an engaged node is passive (between messages) with deficit zero, it
  acknowledges its parent and disengages (it may be re-engaged later).
* **The last word carries the ack** (:meth:`finish_with`).  A
  non-root participant whose whole deficit, as an input closes, is one
  result that input sent its parent — a query's ``query_data``, an
  update's ``query_result``, most often the one that closes its link —
  marks that message ``"fin": true``, takes it off its deficit and
  disengages: the parent's ack for the result and the child's tree ack
  would only cancel out.  The receiver never acknowledges a ``fin``
  message; once it is processed it counts as the sender's tree ack
  (``after_processing(..., fin=True)``), and it engages a disengaged
  receiver without making the sender its parent.  Dropped unread (its
  computation is over at the receiver), it still drains the tree edge
  it closes.  The rule covers a single message, so no transport can
  split the result from its ack.
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


@dataclass
class _ComputationState:
    engaged: bool = False
    is_root: bool = False
    parent: str | None = None
    deficit: int = 0
    #: Outstanding (unacked) messages per recipient — the failure
    #: detector drains a dead peer's share without waiting forever.
    deficit_by_peer: dict[str, int] = field(default_factory=dict)
    completed: bool = False


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
        self, computation_id: str, sender: str, *, fin: bool = False
    ) -> bool:
        """Record receipt of an engaging message; returns ``True`` when
        this message is the tree edge (ack deferred).  A *fin* message
        may engage this node, but its sender, already disengaged, is
        owed nothing: no parent is adopted.

        Call *before* processing the message; pair each call with one
        :meth:`after_processing`.
        """
        state = self._state(computation_id)
        if not state.engaged:
            state.engaged = True
            state.parent = None if fin else sender
            return True
        return False

    def after_processing(
        self,
        computation_id: str,
        sender: str,
        was_tree_edge: bool,
        *,
        fin: bool = False,
    ) -> None:
        """Ack non-tree messages; check the leave condition.  A *fin*
        message is never acked: it is its sender's tree ack."""
        if fin:
            self.on_ack(computation_id, sender)
        elif not was_tree_edge:
            self._send_ack(sender, computation_id)
        self.check_quiescence(computation_id)

    def finish_with(self, computation_id: str, recipient: str) -> bool:
        """The sender half of an implicit ack: whether the one message
        about to leave for *recipient* may carry this node's tree ack.

        The message is the last result the node's open input sent for
        the computation — a query's ``query_data`` or an update's
        ``query_result`` — found by the input's one pass as it closes
        (:meth:`CoDBNode._finish <repro.core.node.CoDBNode._finish>`).
        It may carry
        the ack when this node is a non-root participant, *recipient*
        is its parent and that message is its whole deficit.  Then the
        message is taken off the deficit and the node disengages; the
        caller marks the message ``fin``.  Call only while the message
        has not left (its ack cannot have come back).
        """
        state = self._computations.get(computation_id)
        if (
            state is None
            or not state.engaged
            or state.is_root
            or state.parent != recipient
            or state.deficit != 1
            or state.deficit_by_peer.get(recipient) != 1
        ):
            return False
        state.deficit = 0
        state.deficit_by_peer[recipient] = 0
        state.engaged = False
        state.parent = None
        return True

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
        self, computation_id: str, sender: str = "", count: int = 1
    ) -> None:
        """*sender* acknowledged *count* of our messages."""
        state = self._computations.get(computation_id)
        if state is None:
            return  # late: the computation already ended here
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
        """Leave the computation / detect termination when possible.

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
        # Interior node: collapse to parent and disengage.
        parent = state.parent
        state.engaged = False
        state.parent = None
        if parent is not None:
            self._send_ack(parent, computation_id)

    # -- dynamic networks -------------------------------------------------------

    def on_peer_down(self, peer: str) -> None:
        """Failure-detector notification: *peer* left the network.

        Two effects, across every computation: (1) the dead peer will
        never ack anything, so its outstanding share of our deficit is
        written off; (2) if the dead peer was our parent, nobody needs
        our deferred ack any more — adopt no one and disengage when
        quiescent.
        """
        for computation_id, state in list(self._computations.items()):
            owed = state.deficit_by_peer.pop(peer, 0)
            if owed:
                state.deficit = max(0, state.deficit - owed)
            if state.parent == peer:
                state.parent = None
            if owed or state.engaged:
                self.check_quiescence(computation_id)

    def abandon_all(self) -> list[str]:
        """Release every engaged computation (graceful network leave).

        Sends the deferred parent acks so upstream deficits drain, and
        disengages; returns the abandoned computation ids.
        """
        abandoned = []
        for computation_id, state in list(self._computations.items()):
            if not state.engaged:
                continue
            parent = state.parent
            state.engaged = False
            state.parent = None
            abandoned.append(computation_id)
            if parent is not None:
                self._send_ack(parent, computation_id)
        return abandoned

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

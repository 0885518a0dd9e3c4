"""Real TCP transport: the protocol over actual sockets.

Proves the coDB protocol stack is not simulator-bound (experiment
E13).  Design:

* Every registered peer gets a listening socket on ``127.0.0.1``
  (ephemeral port) and a *delivery thread* that executes its handler
  one message at a time — the same actor discipline as the simulator.
* ``send_burst`` frames each message (4-byte big-endian length prefix
  + body) and writes the whole burst with one ``sendall`` over a
  cached outbound connection per (sender, recipient) pair, giving
  per-pair FIFO just like a JXTA pipe.  The top bit of the length
  prefix (:data:`FRAME_CONTINUES`) says "more of this burst follows";
  the receive loop reads buffered, collects frames until one comes
  without the bit and queues the burst as **one** inbox item, which
  the delivery thread handles in one scope with one progress
  notification.  The bit costs no bytes, a burst of one is the frame
  it always was, and a receiver that sees a burst cut short (the
  connection dropped) simply delivers what arrived — a burst may be
  split anywhere.  The 31 length bits left are capped at
  :data:`MAX_FRAME_BYTES`: a larger header closes the connection with
  :class:`~repro.errors.FrameRejectedError` (logged in
  ``stats.frames_rejected``) instead of being believed.
  A well-framed message that its handler cannot read (:data:`UNREADABLE`)
  is dropped and counted the same way; the delivery thread goes on
  with the rest of the burst.
  ``TCP_NODELAY`` is set on every socket (accept and connect paths):
  protocol traffic is small writes in quick succession, exactly the
  pattern Nagle's algorithm would stall on a delayed ACK.
* a global in-flight counter is incremented at ``send_burst`` and
  decremented after the recipient's handlers return, so quiescence
  means *handled*, not merely delivered.  ``run_until_idle`` and
  ``wait_for`` block on the transport's progress condition, which
  every delivery loop notifies after handling a burst — drivers are
  woken event-driven, never by sleep-polling.

The port registry doubles as the rendezvous service: peers address
each other by peer id only, never by host/port — "IP independent
naming space" (§2).

Frames are self-describing (:mod:`repro.p2p.messages`): stable JSON
(the positional list ``[kind, message_id, recipient, sender,
payload]``) by default, or the binary restricted-pickle codec once a
connection has negotiated it.  Binary is no saving on this wire: its
frame is larger than the positional JSON one for every protocol kind,
and the §4 statistics serialise stable JSON anyway.  A
``TcpNetwork(wire_codec="binary")`` sender opens every new outbound
connection with a codec *offer* frame; the receiving side answers
with an *ack* naming the codec it accepts — binary only when it was
constructed with ``wire_codec="binary"`` itself, JSON otherwise — and
the sender frames all subsequent messages on that connection
accordingly.  The ack is the only bytes ever written back on these
one-way sockets, and it happens strictly before any protocol message
flows, so per-pair FIFO is unaffected.
JSON remains the default and the fallback whenever negotiation cannot
complete, so mixed-configuration deployments interoperate (a peer that
still sends the old object frame does not: its frames are refused).
Whatever the codec, the §4 statistics count stable-JSON sizes
(:meth:`~repro.p2p.messages.Message.size_bytes`); the actual framed
byte count is tracked separately as ``stats.wire_bytes_sent``.

Multi-process deployments (:mod:`repro.p2p.procs`) run one
``TcpNetwork`` per worker process, hosting that worker's single node.
The driver exchanges listening ports and installs them here as
**remote peers** (:meth:`TcpNetwork.add_remote_peer`): sends to a
remote peer go over the same wire format to the other process's
listening socket, and arrivals *from* a peer this transport does not
host are counted into the in-flight window at enqueue time (their
send-side increment happened in another process).  The protocol
layers cannot tell a remote peer from a local one.
"""

from __future__ import annotations

import json
import random
import socket
import struct
import threading
import time
from collections.abc import Sequence
from contextlib import nullcontext
from queue import Empty, Queue

from repro._util import stable_json
from repro.errors import (
    CoDBError,
    FrameRejectedError,
    ProtocolError,
    TransportStoppedError,
    UnknownPeerError,
)
from repro.p2p.messages import CODECS, FRAME_ACK, FRAME_OFFER, Message
from repro.p2p.transport import (
    DeliveryScope,
    MessageHandler,
    ThreadSafeTransportStats,
    Transport,
)

_LENGTH = struct.Struct(">I")

#: Top bit of the length prefix: another frame of the same burst
#: follows this one.
FRAME_CONTINUES = 0x8000_0000
#: Largest frame body either side accepts.  Far above any message the
#: protocol builds, far below what the 31 length bits could claim.
MAX_FRAME_BYTES = 64 * 1024 * 1024
#: What a handler raises for a well-framed message whose payload it
#: cannot read (a missing key, a wrong type, an unknown computation,
#: a payload nested too deep to serialise).  The delivery loop drops
#: such a message and counts it in ``stats.frames_rejected``.
UNREADABLE = (
    CoDBError, LookupError, TypeError, ValueError, AttributeError, RecursionError
)


def _frame(body: bytes, continues: bool = False) -> bytes:
    if len(body) > MAX_FRAME_BYTES:
        raise FrameRejectedError(
            f"frame of {len(body)} bytes exceeds MAX_FRAME_BYTES"
        )
    return _LENGTH.pack(len(body) | (FRAME_CONTINUES if continues else 0)) + body


def _read_frame(reader) -> tuple[bytes, bool] | None:
    """One ``(body, continues)`` from a buffered reader; ``None`` at end
    of stream.  Raises :class:`FrameRejectedError` on an oversize
    header without reading further."""
    header = reader.read(_LENGTH.size)
    if len(header) < _LENGTH.size:
        return None
    (word,) = _LENGTH.unpack(header)
    length = word & ~FRAME_CONTINUES
    if length > MAX_FRAME_BYTES:
        raise FrameRejectedError(
            f"frame header claims {length} bytes (MAX_FRAME_BYTES is "
            f"{MAX_FRAME_BYTES})"
        )
    body = reader.read(length)
    if len(body) < length:
        return None
    return body, bool(word & FRAME_CONTINUES)


class _PeerServer:
    """Listening socket + delivery worker for one peer."""

    def __init__(
        self,
        network: "TcpNetwork",
        peer_id: str,
        handler: MessageHandler,
        scope: DeliveryScope,
    ) -> None:
        self.network = network
        self.peer_id = peer_id
        self.handler = handler
        self.scope = scope
        #: One item per delivered burst.
        self.inbox: Queue[Sequence[Message] | None] = Queue()
        self.socket = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.socket.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self.socket.bind(("127.0.0.1", 0))
        self.socket.listen(16)
        self.port = self.socket.getsockname()[1]
        self._running = True
        self.accept_thread = threading.Thread(
            target=self._accept_loop, name=f"accept-{peer_id}", daemon=True
        )
        self.delivery_thread = threading.Thread(
            target=self._delivery_loop, name=f"deliver-{peer_id}", daemon=True
        )
        self.accept_thread.start()
        self.delivery_thread.start()

    def _accept_loop(self) -> None:
        while self._running:
            try:
                connection, _ = self.socket.accept()
            except OSError:
                return
            _set_nodelay(connection)
            thread = threading.Thread(
                target=self._receive_loop,
                args=(connection,),
                name=f"recv-{self.peer_id}",
                daemon=True,
            )
            thread.start()

    def _receive_loop(self, connection: socket.socket) -> None:
        burst: list[Message] = []
        with connection, connection.makefile("rb") as reader:
            try:
                while self._running:
                    frame = _read_frame(reader)
                    if frame is None:
                        break
                    body, continues = frame
                    tag = body[:1]
                    if tag == FRAME_OFFER:
                        # Codec negotiation: answer on the same
                        # connection (the only bytes ever sent
                        # backwards here) and keep these frames out of
                        # the protocol statistics.
                        self._answer_offer(connection, body)
                        continue
                    if tag == FRAME_ACK:  # stray ack: not a protocol frame
                        continue
                    burst.append(Message.from_frame(body))
                    if not continues:
                        self._accept(burst)
                        burst = []
            except OSError:
                pass
            except ProtocolError:
                # Oversize header or undecodable body: nothing after it
                # on this stream can be trusted — drop the connection,
                # keep serving the others.
                self.network.stats.record_rejected_frame()
            finally:
                if burst:  # cut short: what arrived whole is still mail
                    self._accept(burst)

    def _accept(self, burst: Sequence[Message]) -> None:
        """Queue a burst that came off the wire.  Messages from a peer
        this transport does not host were counted in flight by ANOTHER
        process's send; enter them into the local window here so
        quiescence still means "every delivered message handled"."""
        self.enqueue(burst, counted=burst[0].sender in self.network._servers)

    def enqueue(self, burst: Sequence[Message], *, counted: bool = False) -> None:
        """Put *burst* in the inbox, entering it into the in-flight
        window unless the sender's ``send_burst`` already *counted* it."""
        if not counted:
            with self.network._inflight_lock:
                self.network._inflight += len(burst)
        self.inbox.put(burst)

    def _answer_offer(self, connection: socket.socket, body: bytes) -> None:
        try:
            offered = json.loads(body[1:].decode("utf-8")).get("codecs", [])
        except (ValueError, AttributeError):
            offered = []
        codec = (
            "binary"
            if "binary" in offered and self.network.wire_codec == "binary"
            else "json"
        )
        ack = FRAME_ACK + stable_json({"codec": codec}).encode("utf-8")
        try:
            connection.sendall(_frame(ack))
        except OSError:  # sender is gone; its retry renegotiates
            pass

    def _delivery_loop(self) -> None:
        network = self.network
        while True:
            try:
                burst = self.inbox.get(timeout=0.2)
            except Empty:
                if not self._running:
                    return
                continue
            if burst is None:
                return
            try:
                with self.scope():
                    for message in burst:
                        network.stats.record_delivery()
                        try:
                            self.handler(message)
                        except UNREADABLE:
                            # One unreadable message costs itself, not
                            # the burst and not this thread.
                            network.stats.record_rejected_frame()
                            continue
                        if network.faults is not None:
                            network.faults.after_delivery(message)
            except UNREADABLE:
                # Raised as the scope closed: a run handed over, or a
                # reply that cannot be framed.
                network.stats.record_rejected_frame()
            finally:
                with network._inflight_lock:
                    network._inflight -= len(burst)
                # Wake drivers blocked in wait_for/run_until_idle: the
                # handled burst may have completed what they await.
                network.notify_progress()

    def stop(self) -> None:
        self._running = False
        self.inbox.put(None)
        # shutdown() before close(): close() alone does not interrupt
        # the accept thread's blocked accept(2), and the kernel keeps
        # the listening socket alive (and accepting!) while that
        # syscall holds it — shutdown revokes the listening state
        # immediately, so post-stop connects are refused.
        try:
            self.socket.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.socket.close()
        except OSError:
            pass


def _set_nodelay(connection: socket.socket) -> None:
    try:
        connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except OSError:  # pragma: no cover - platform quirk
        pass


class TcpNetwork(Transport):
    """TCP/localhost transport; see module docstring.

    ``wire_codec`` selects the frame codec this transport *offers* on
    outbound connections and *accepts* on inbound ones: ``"json"``
    (the default — no handshake) or ``"binary"`` (negotiated per
    connection, falling back to JSON against any peer that does not
    also offer binary).
    """

    def __init__(
        self,
        *,
        wire_codec: str = "json",
        connect_retries: int = 3,
        connect_backoff: float = 0.05,
        connect_backoff_cap: float = 0.5,
    ) -> None:
        super().__init__()
        if wire_codec not in CODECS:
            raise ProtocolError(f"unknown wire codec {wire_codec!r}")
        # The driver thread and every delivery thread send concurrently:
        # the traffic counters need the guarded variant.
        self.stats = ThreadSafeTransportStats()
        self.wire_codec = wire_codec
        self.connect_retries = connect_retries
        self.connect_backoff = connect_backoff
        self.connect_backoff_cap = connect_backoff_cap
        #: Negotiated codec per outbound (sender, recipient) connection.
        self._codecs: dict[tuple[str, str], str] = {}
        self._servers: dict[str, _PeerServer] = {}
        #: Peers hosted by other processes: peer id -> TCP port.
        self._remote_ports: dict[str, int] = {}
        self._connections: dict[tuple[str, str], socket.socket] = {}
        self._connections_lock = threading.Lock()
        self._send_locks: dict[tuple[str, str], threading.Lock] = {}
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self._stopped = False
        self._epoch = time.monotonic()

    # -- Transport API ----------------------------------------------------

    def register(
        self,
        peer_id: str,
        handler: MessageHandler,
        scope: DeliveryScope | None = None,
    ) -> None:
        if self._stopped:
            raise TransportStoppedError("network is stopped")
        if peer_id in self._servers:
            raise UnknownPeerError(f"peer {peer_id!r} already registered")
        self._servers[peer_id] = _PeerServer(
            self, peer_id, handler, scope or nullcontext
        )

    def unregister(self, peer_id: str) -> None:
        server = self._servers.pop(peer_id, None)
        if server is None:
            return
        server.stop()
        # Failure-detector announcement to every survivor (delivered
        # through their normal inbox so handler serialisation holds).
        for survivor in list(self._servers):
            self.announce_unreachable(peer_id, survivor)

    def _notify(self, notice: Message) -> None:
        server = self._servers.get(notice.recipient)
        if server is not None:
            server.enqueue((notice,))

    # -- multi-process wiring ---------------------------------------------

    def add_remote_peer(self, peer_id: str, port: int) -> None:
        """Register a peer hosted by another process at *port*.

        Sends to *peer_id* connect to ``127.0.0.1:port`` with the same
        framing as local delivery; the protocol layers see no
        difference.  The driver of a process-per-node deployment calls
        this on every worker after exchanging listening ports.
        Re-registering with a new port (the peer's process restarted)
        drops any cached connections to the old incarnation.
        """
        if peer_id in self._servers:
            raise UnknownPeerError(
                f"peer {peer_id!r} is hosted by this transport"
            )
        previous = self._remote_ports.get(peer_id)
        self._remote_ports[peer_id] = port
        if previous is not None and previous != port:
            with self._connections_lock:
                stale = [
                    key for key in self._send_locks if key[1] == peer_id
                ]
                for key in stale:
                    self._codecs.pop(key, None)
                    connection = self._connections.pop(key, None)
                    if connection is not None:
                        try:
                            connection.close()
                        except OSError:
                            pass

    def remove_remote_peer(self, peer_id: str) -> None:
        """Forget a remote peer (its process died or left): subsequent
        sends raise :class:`~repro.errors.UnknownPeerError`, which the
        sending endpoint turns into an ``undeliverable`` bounce."""
        self._remote_ports.pop(peer_id, None)
        # Scan under _connections_lock: sender threads insert into
        # _send_locks (setdefault) under the same lock concurrently.
        with self._connections_lock:
            key_matches = [
                key for key in self._send_locks if key[1] == peer_id
            ]
            for key in key_matches:
                self._codecs.pop(key, None)
                connection = self._connections.pop(key, None)
                if connection is not None:
                    try:
                        connection.close()
                    except OSError:
                        pass

    def announce_peer_down(self, peer_id: str) -> None:
        """Deliver a ``peer_down`` notification for a *remote* peer to
        every locally hosted peer, through their normal inboxes (the
        cross-process twin of :meth:`unregister`'s survivor fan-out)."""
        self.remove_remote_peer(peer_id)
        for survivor in list(self._servers):
            self.announce_unreachable(peer_id, survivor)

    def peers(self) -> list[str]:
        return list(self._servers) + list(self._remote_ports)

    def is_registered(self, peer_id: str) -> bool:
        return peer_id in self._servers or peer_id in self._remote_ports

    def port_of(self, peer_id: str) -> int:
        """The rendezvous lookup (peer id -> TCP port)."""
        server = self._servers.get(peer_id)
        if server is not None:
            return server.port
        try:
            return self._remote_ports[peer_id]
        except KeyError:
            raise UnknownPeerError(peer_id) from None

    def send(self, message: Message) -> None:
        self.send_burst((message,))

    def send_burst(self, messages: Sequence[Message]) -> None:
        if self._stopped:
            raise TransportStoppedError("network is stopped")
        recipient = messages[0].recipient
        key = (messages[0].sender, recipient)
        local = recipient in self._servers
        if not local and recipient not in self._remote_ports:
            raise UnknownPeerError(recipient)
        segments = self._admit(messages)
        total = sum(len(burst) for _, burst in segments)
        if local:
            # In-flight accounting is per process: a local recipient's
            # handling decrements here (once per injected copy); a
            # remote recipient's transport counts arrivals instead.
            with self._inflight_lock:
                self._inflight += total
        with self._connections_lock:
            send_lock = self._send_locks.setdefault(key, threading.Lock())
        # The per-pair lock keeps bursts atomic when the main thread and
        # a handler thread send under the same (sender, recipient) pair.
        # An injected extra delay sleeps INSIDE the pair lock: later
        # messages on the same pair cannot overtake the delayed one,
        # mirroring the simulator's pair-horizon FIFO clamp.
        written = 0
        try:
            with send_lock:
                for extra_delay, burst in segments:
                    if extra_delay > 0.0:
                        time.sleep(extra_delay)
                    self._write_burst(key, burst)
                    written += len(burst)
        except OSError as exc:
            # A remote worker died between the port lookup and the
            # write: surface the failure as an unknown peer, which the
            # sending endpoint bounces.
            raise UnknownPeerError(recipient) from exc
        finally:
            if local and written < total:
                with self._inflight_lock:
                    self._inflight -= total - written

    def _write_burst(self, key: tuple[str, str], burst: Sequence[Message]) -> None:
        """One ``sendall`` for the whole burst.  The bodies are framed
        only once the connection (and with it the negotiated codec) is
        known."""
        connection = self._connection_for(*key)
        try:
            train = self._frame_burst(key, burst)
            connection.sendall(train)
        except OSError:
            # One reconnect attempt (the receiver may have restarted).
            # Re-sending the burst is at-least-once: endpoints dedup by
            # message id.
            with self._connections_lock:
                self._connections.pop(key, None)
                self._codecs.pop(key, None)
            connection = self._connection_for(*key)
            train = self._frame_burst(key, burst)
            connection.sendall(train)
        self.stats.record_wire(len(train))

    def _frame_burst(self, key: tuple[str, str], burst: Sequence[Message]) -> bytes:
        """The burst as one frame train in the connection's codec:
        every frame but the last carries :data:`FRAME_CONTINUES`."""
        encode = (
            Message.to_binary
            if self._codecs.get(key) == "binary"
            else Message.to_wire
        )
        last = len(burst) - 1
        return b"".join(
            _frame(encode(message), continues=index < last)
            for index, message in enumerate(burst)
        )

    def _connect_with_retry(self, recipient: str) -> socket.socket:
        """Connect to *recipient*, retrying refused/reset connects with
        capped exponential backoff + jitter — a restarting peer's
        listening socket comes back within the budget, and its *new*
        port is picked up because the rendezvous lookup re-runs on
        every attempt.  Exhausting the budget re-raises the last
        ``OSError`` (the caller maps it to ``UnknownPeerError``)."""
        attempt = 0
        while True:
            try:
                return socket.create_connection(
                    ("127.0.0.1", self.port_of(recipient)), timeout=5.0
                )
            except OSError:
                if attempt >= self.connect_retries:
                    raise
                backoff = min(
                    self.connect_backoff_cap,
                    self.connect_backoff * (2 ** attempt),
                )
                time.sleep(backoff * (0.5 + random.random() / 2))
                attempt += 1

    def _connection_for(self, sender: str, recipient: str) -> socket.socket:
        key = (sender, recipient)
        with self._connections_lock:
            connection = self._connections.get(key)
            if connection is None:
                connection = self._connect_with_retry(recipient)
                _set_nodelay(connection)
                self._codecs[key] = (
                    self._negotiate(connection)
                    if self.wire_codec == "binary"
                    else "json"
                )
                self._connections[key] = connection
            return connection

    def _negotiate(self, connection: socket.socket) -> str:
        """Offer our codecs on a fresh connection; return the ack'd one.

        Any failure — timeout, short read, malformed or unexpected
        answer — falls back to ``"json"``, the codec every version of
        the protocol understands.
        """
        offer = FRAME_OFFER + stable_json({"codecs": list(CODECS)}).encode(
            "utf-8"
        )
        try:
            connection.sendall(_frame(offer))
            # The ack is all that ever comes back on this socket, so
            # a throw-away buffered reader cannot swallow anything.
            with connection.makefile("rb") as reader:
                frame = _read_frame(reader)
            if frame is None or frame[0][:1] != FRAME_ACK:
                return "json"
            codec = json.loads(frame[0][1:].decode("utf-8")).get("codec")
        except (OSError, ValueError, AttributeError, ProtocolError):
            return "json"
        return codec if codec in CODECS else "json"

    def now(self) -> float:
        return time.monotonic() - self._epoch

    def run_until_idle(self, max_messages: int | None = None) -> int:
        """Wait until no message is in flight (sent but not yet handled).

        Event-driven: blocks on the progress condition, which every
        delivery loop notifies after handling a message.  ``inflight ==
        0`` genuinely means idle — a handler's own sends increment the
        counter *before* the handled message is decremented, and the
        driver's sends precede its call here — so one observation
        suffices (no re-check delay, no sleep-polling).
        """
        start_delivered = self.stats.messages_delivered

        def idle_or_quota() -> bool:
            if max_messages is not None:
                if self.stats.messages_delivered - start_delivered >= max_messages:
                    return True
            with self._inflight_lock:
                return self._inflight == 0
        self.wait_for(idle_or_quota, description="transport quiescence")
        return self.stats.messages_delivered - start_delivered

    def stop(self) -> None:
        self._stopped = True
        for server in list(self._servers.values()):
            server.stop()
        self.notify_progress()  # release any waiter blocked on progress
        self._servers.clear()
        self._remote_ports.clear()
        with self._connections_lock:
            for connection in self._connections.values():
                try:
                    connection.close()
                except OSError:
                    pass
            self._connections.clear()
            self._codecs.clear()

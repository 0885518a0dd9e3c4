"""Typed message envelopes and the two frame codecs they travel in.

JXTA messages "can envelope arbitrary data (e.g. code, images,
queries)" (§2).  Ours envelope JSON payloads.  Every message knows its
serialised byte size — the statistics module reports "the volume of
the data in each message" (§4) — and serialisation is stable, so sizes
are identical across runs and transports.

Two codecs share the wire.  Frames are self-describing by their first
byte, so a receiver needs no per-connection decode state:

* **stable JSON** (first byte ``[``) — the default.  A frame is the
  positional list ``[kind, message_id, recipient, sender, payload]``:
  the envelope's field names never travel, and an object frame (first
  byte ``{``) or a list of any other shape is refused.
  ``to_wire``/``from_wire``.
* **binary** (first byte :data:`FRAME_BINARY`) — a length-delimited
  restricted-pickle frame.  It is *larger* than the positional JSON
  frame for every protocol kind (a ``query_result`` of two rows is
  228 B against 212 B, an ``invalidation`` 120 B against 100 B);
  only the codec call itself is faster, and a sender still serialises
  stable JSON to count the §4 volume (the spine's
  ``p2p.probe.binary_over_json_*`` metrics measure both ratios).
  ``to_binary``/``from_binary``.  Decoding uses an
  :class:`pickle.Unpickler` whose ``find_class`` always raises, so a
  frame can only ever reconstruct plain data (dicts, lists, scalars —
  rows cross pre-encoded via ``encode_row``), never import or call
  anything.

A connection speaks binary only after an explicit handshake
(negotiated in :mod:`repro.p2p.tcp`): the sender opens with a
:data:`FRAME_OFFER` frame listing the codecs it can emit, the receiver
answers with a :data:`FRAME_ACK` naming the one it accepts, and JSON
wins whenever either side does not offer binary.  Whatever the wire
codec, ``size_bytes()`` stays the *stable-JSON* size — the §4 volume
statistics are codec-independent and identical across transports.
"""

from __future__ import annotations

import io
import json
import pickle
from dataclasses import dataclass, field
from functools import cached_property
from json.encoder import encode_basestring as _quote
from typing import Any

from repro._util import stable_json
from repro.errors import ProtocolError

#: First byte of a binary (restricted-pickle) frame.  Stable-JSON
#: frames start with ``[`` (0x5B); 0x01-0x03 can never open JSON.
FRAME_BINARY = b"\x01"
#: First byte of a codec-negotiation offer (JSON body: {"codecs": [...]})
FRAME_OFFER = b"\x02"
#: First byte of a codec-negotiation ack (JSON body: {"codec": ...})
FRAME_ACK = b"\x03"

#: Codec names, most preferred first, as they appear in offer frames.
CODECS = ("binary", "json")


class _DataUnpickler(pickle.Unpickler):
    """Unpickler for data-only frames: any attempt to resolve a global
    (class, function — the vector every pickle exploit needs) fails."""

    def find_class(self, module: str, name: str):  # noqa: ARG002
        raise ProtocolError(
            f"binary frame referenced global {module}.{name}; "
            "only plain data is allowed on the wire"
        )


def encode_binary(obj: Any) -> bytes:
    """Encode plain data as a tagged binary frame body."""
    return FRAME_BINARY + pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


def decode_binary(data: bytes) -> Any:
    """Decode a tagged binary frame body back to plain data.

    Raises :class:`~repro.errors.ProtocolError` on anything that is
    not a well-formed data-only frame.
    """
    buffer = io.BytesIO(data)
    buffer.seek(1)  # skip the FRAME_BINARY tag
    try:
        return _DataUnpickler(buffer).load()
    except ProtocolError:
        raise
    except Exception as exc:  # pickle raises a small zoo of types
        raise ProtocolError(f"malformed binary frame: {exc}") from exc

#: Message kinds used by the coDB protocol (documented here so the
#: wire vocabulary is in one place; the p2p layer itself treats kinds
#: as opaque strings).
KINDS = (
    "rules_file",           # super-peer broadcast of coordination rules
    "update_request",       # global update propagation (§2)
    "query_result",         # tuples flowing back along a link (§3);
                            # "closed": the link closed (§3) — the
                            # last result on it, or one of no rows;
                            # "ack": not to the sender's parent, so
                            # acked; "fin": the sender's tree ack rides
                            # on it, "covers" the results it covers
    "update_complete",      # origin's completion flood (condition (b))
    "ack",                  # diffusing-computation acknowledgement;
                            # "count" acks, "covers": a tree ack's count
    "query_request",        # query-time answering request (§3)
    "query_data",           # query-time answering results (never empty);
                            # "ack", "fin", "covers" as on query_result
    "query_complete",       # query-time cleanup flood; may carry the
                            # sender's cache registrations ("register")
    "invalidation",         # CUP-style invalidation; a registration
                            # no query_complete carried (op=register)
    "stats_request",        # super-peer statistics collection (§4)
    "stats_response",
    "topology_request",     # topology discovery procedure (§2 UI)
    "topology_response",
    "peer_down",            # failure-detector announcement
    "undeliverable",        # bounced protocol mail (dynamic networks)
    "rejoin",               # crash-and-rejoin handshake (resync digests)
)


@dataclass(frozen=True)
class Message:
    """One message on the wire.

    Attributes
    ----------
    kind:
        Protocol message type; see :data:`KINDS`.
    sender, recipient:
        Peer ids (or symbolic node names — the transport resolves).
    payload:
        JSON-serialisable dict.  Rows travel pre-encoded via
        :func:`repro.relational.values.encode_row`.
    message_id:
        Unique id assigned by the sender's id authority.
    """

    kind: str
    sender: str
    recipient: str
    payload: dict[str, Any] = field(default_factory=dict)
    message_id: str = ""

    # Serialisation is cached: a message's bytes are asked for many
    # times per hop (the transport counters and the §4 per-rule
    # statistics each call ``size_bytes``, and TCP sends the wire form
    # itself), while messages are treated as immutable
    # once built — recomputing ``stable_json`` every time was a
    # hot-path waste.  ``cached_property`` stores straight into
    # ``__dict__``, which works on a frozen dataclass.

    def _envelope(self) -> tuple[bytes, bytes]:
        """The stable-JSON frame is ``head + stable_json(payload) +
        tail``: the positional list ``[kind, message_id, recipient,
        sender, payload]``, so no field's name travels."""
        head = (
            f"[{_quote(self.kind)},{_quote(self.message_id)},"
            f"{_quote(self.recipient)},{_quote(self.sender)},"
        )
        return head.encode("utf-8"), b"]"

    @cached_property
    def _wire(self) -> bytes:
        head, tail = self._envelope()
        return head + stable_json(self.payload).encode("utf-8") + tail

    @cached_property
    def _payload_size(self) -> int:
        # What the frame has beyond its envelope — for a received frame
        # too, whose bytes are the sender's stable form: no second pass
        # over the rows.
        head, tail = self._envelope()
        return len(self._wire) - len(head) - len(tail)

    def _check_fields(self) -> None:
        """A decoded frame must carry four strings and a dict, and be
        one its receiver can size: the §4 statistics size what arrives.
        A received JSON frame is sized from its own bytes; a binary one
        has its stable-JSON form computed here, once."""
        if not (
            isinstance(self.kind, str)
            and isinstance(self.sender, str)
            and isinstance(self.recipient, str)
            and isinstance(self.payload, dict)
            and isinstance(self.message_id, str)
        ):
            raise ProtocolError("message fields have wrong types")
        try:
            self._payload_size
        except (ValueError, TypeError, RecursionError) as exc:
            # A lone surrogate does not encode (UnicodeEncodeError is a
            # ValueError); a binary payload may hold what JSON cannot.
            raise ProtocolError(f"message cannot be sized: {exc}") from exc

    def size_bytes(self) -> int:
        """Stable serialised size of the full envelope (cached)."""
        return len(self._wire)

    def payload_bytes(self) -> int:
        """Stable serialised size of the payload alone (cached)."""
        return self._payload_size

    def stamp(self, message_id: str) -> None:
        """Give a draft — built without an id — its id as its sender
        finishes it.  Nothing may have sized it: its bytes hold the id."""
        if "_wire" in self.__dict__:
            raise ProtocolError(f"{self.kind} to {self.recipient} was sized as a draft")
        object.__setattr__(self, "message_id", message_id)

    def to_wire(self) -> bytes:
        """Serialise for a byte transport (TCP); cached per message."""
        return self._wire

    @classmethod
    def from_wire(cls, data: bytes) -> "Message":
        """Decode a stable-JSON frame: exactly a list of five fields,
        four strings and a payload dict.  Anything else — an object
        frame, another length, a field of another type — is refused."""
        try:
            decoded = json.loads(data.decode("utf-8"))
        except (ValueError, RecursionError) as exc:
            # ValueError covers bytes that are not UTF-8; RecursionError
            # a body nested deeper than the decoder recurses (a frame
            # of ``[``s).
            raise ProtocolError(f"malformed wire message: {exc}") from exc
        if not isinstance(decoded, list) or len(decoded) != 5:
            raise ProtocolError("a wire message is a list of five fields")
        kind, message_id, recipient, sender, payload = decoded
        message = cls(
            kind=kind,
            sender=sender,
            recipient=recipient,
            payload=payload,
            message_id=message_id,
        )
        # Seed the wire cache with the received bytes: every coDB
        # sender serialises with ``stable_json``, so the bytes ARE the
        # stable form — the receive path never re-serialises just to
        # count sizes.
        message.__dict__["_wire"] = data
        message._check_fields()
        return message

    @cached_property
    def _binary(self) -> bytes:
        return encode_binary(
            (self.kind, self.sender, self.recipient, self.payload,
             self.message_id)
        )

    def to_binary(self) -> bytes:
        """Serialise as a binary frame (cached, like :meth:`to_wire`)."""
        return self._binary

    @classmethod
    def from_binary(cls, data: bytes) -> "Message":
        fields = decode_binary(data)
        try:
            kind, sender, recipient, payload, message_id = fields
        except (TypeError, ValueError) as exc:
            raise ProtocolError(f"malformed binary message: {exc}") from exc
        message = cls(
            kind=kind,
            sender=sender,
            recipient=recipient,
            payload=payload,
            message_id=message_id,
        )
        # Mirror ``from_wire``: the received bytes seed the *binary*
        # cache.  ``size_bytes`` still reports the stable-JSON volume.
        message.__dict__["_binary"] = data
        message._check_fields()
        return message

    @classmethod
    def from_frame(cls, data: bytes) -> "Message":
        """Decode a self-describing frame (JSON or binary) by its tag."""
        if data[:1] == FRAME_BINARY:
            return cls.from_binary(data)
        return cls.from_wire(data)

    def reply(self, kind: str, payload: dict[str, Any], message_id: str = "") -> "Message":
        """A message back to this message's sender."""
        return Message(
            kind=kind,
            sender=self.recipient,
            recipient=self.sender,
            payload=payload,
            message_id=message_id,
        )

"""Message envelopes and their wire format."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro._util import stable_json
from repro.errors import ProtocolError
from repro.p2p.messages import (
    FRAME_BINARY,
    KINDS,
    Message,
    decode_binary,
    encode_binary,
)
from repro.relational.values import MarkedNull, decode_row, encode_row

#: Representative payloads for every protocol message kind — each
#: round-trip test feeds one through the wire format.  Rows carry a
#: marked null and non-ASCII text (the §4 volume statistics count raw
#: UTF-8 bytes, and nulls must survive any hop).
ROWS = [
    encode_row((1, "Trento⟪è⟫")),
    encode_row((MarkedNull("N7@BZ"), "Bolzano/Bozen — Südtirol")),
]
KIND_PAYLOADS = {
    "rules_file": {
        "rules": [
            {
                "rule_id": "r0",
                "target": "TN",
                "source": "BZ",
                "mapping": "TN:resident(n) <- BZ:person(n, c), c = 'Trento'",
            }
        ]
    },
    "update_request": {
        "update_id": "update-ab12cd-0000",
        "origin": "TN",
    },
    "query_result": {
        "update_id": "update-ab12cd-0000",
        "rule_id": "r0",
        "rows": ROWS,
        "path_len": 2,
        "closed": True,
        "fin": True,
    },
    "update_complete": {"update_id": "update-ab12cd-0000"},
    "ack": {"computation_id": "update-ab12cd-0000"},
    "query_request": {
        "query_id": "query-ab12cd-0000",
        "rule_id": "r0",
        "origin": "TN",
    },
    "query_data": {
        "query_id": "query-ab12cd-0000",
        "rule_id": "r0",
        "rows": ROWS,
    },
    "query_complete": {"query_id": "query-ab12cd-0000"},
    "invalidation": {"notices": [{"rule_id": "r0", "relations": ["resident"]}]},
    "stats_request": {"collection_id": "msg-ab12cd-0009"},
    "stats_response": {
        "node": "TN",
        "collection_id": "msg-ab12cd-0009",
        "reports": [],
        "queries_answered": 3,
    },
    "topology_request": {"probe_id": "msg-ab12cd-0010", "path": ["TN"]},
    "topology_response": {"probe_id": "msg-ab12cd-0010", "edges": []},
    "peer_down": {"peer": "BZ"},
    "undeliverable": {
        "kind": "query_result",
        "recipient": "BZ",
        "payload": {"update_id": "update-ab12cd-0000"},
    },
    "rejoin": {
        "digests": {"r1": [3, 123456789]},
        "ack": False,
    },
}


class TestWireFormat:
    def test_round_trip(self):
        message = Message(
            kind="query_result",
            sender="A",
            recipient="B",
            payload={"rows": [[1, "x"]], "update_id": "u1"},
            message_id="msg-1",
        )
        decoded = Message.from_wire(message.to_wire())
        assert decoded == message

    def test_sizes_are_stable(self):
        a = Message("k", "A", "B", {"b": 1, "a": 2})
        b = Message("k", "A", "B", {"a": 2, "b": 1})
        assert a.size_bytes() == b.size_bytes()
        assert a.to_wire() == b.to_wire()  # sorted keys

    def test_payload_bytes_smaller_than_envelope(self):
        message = Message("k", "A", "B", {"x": 1})
        assert message.payload_bytes() < message.size_bytes()

    def test_malformed_wire_rejected(self):
        with pytest.raises(ProtocolError):
            Message.from_wire(b"not json at all")
        with pytest.raises(ProtocolError):
            Message.from_wire(b'["x","m","B","A"]')  # a field short
        with pytest.raises(ProtocolError):
            Message.from_wire(b'["x","m","B","A",{},"y"]')  # one too many
        with pytest.raises(ProtocolError):
            # The old object frame, every field present: refused.
            Message.from_wire(
                b'{"kind":"x","message_id":"m","payload":{},'
                b'"recipient":"B","sender":"A"}'
            )
        with pytest.raises(ProtocolError):
            Message.from_frame(b"[" * 100_000)  # nested past the decoder

    def test_unicode_payload(self):
        message = Message("k", "A", "B", {"s": "Trento⟪è⟫"})
        assert Message.from_wire(message.to_wire()).payload["s"] == "Trento⟪è⟫"

    def test_reply_swaps_endpoints(self):
        message = Message("ask", "A", "B", {})
        reply = message.reply("answer", {"ok": True})
        assert reply.sender == "B"
        assert reply.recipient == "A"
        assert reply.kind == "answer"


class TestEveryKindRoundTrips:
    def test_vocabulary_is_covered(self):
        assert set(KIND_PAYLOADS) == set(KINDS)

    @pytest.mark.parametrize("kind", KINDS)
    def test_round_trip(self, kind):
        message = Message(
            kind=kind,
            sender="TN",
            recipient="BZ",
            payload=KIND_PAYLOADS[kind],
            message_id="msg-ab12cd-0042",
        )
        decoded = Message.from_wire(message.to_wire())
        assert decoded == message
        assert decoded.size_bytes() == message.size_bytes()
        assert decoded.payload_bytes() == message.payload_bytes()

    def test_marked_null_rows_survive_the_wire(self):
        message = Message("query_result", "TN", "BZ", KIND_PAYLOADS["query_result"])
        decoded = Message.from_wire(message.to_wire())
        rows = [decode_row(row) for row in decoded.payload["rows"]]
        assert rows[0] == (1, "Trento⟪è⟫")
        null, city = rows[1]
        assert isinstance(null, MarkedNull)
        assert null == MarkedNull("N7@BZ")
        assert city == "Bolzano/Bozen — Südtirol"


class TestSizeCaching:
    def test_wire_bytes_are_cached(self):
        message = Message("k", "A", "B", {"x": 1})
        assert message.to_wire() is message.to_wire()  # same object

    def test_sizes_consistent_with_wire(self):
        message = Message("query_result", "TN", "BZ", KIND_PAYLOADS["query_result"])
        assert message.size_bytes() == len(message.to_wire())
        assert message.payload_bytes() < message.size_bytes()
        # Repeated statistics touches return the identical number.
        assert message.size_bytes() == message.size_bytes()
        assert message.payload_bytes() == message.payload_bytes()

    def test_from_wire_reuses_received_bytes(self):
        wire = Message("k", "A", "B", {"x": 1}).to_wire()
        decoded = Message.from_wire(wire)
        assert decoded.to_wire() is wire  # no re-serialisation on receive

    def test_cached_message_still_equal_and_frozen(self):
        a = Message("k", "A", "B", {"b": 1, "a": 2})
        b = Message("k", "A", "B", {"a": 2, "b": 1})
        a.size_bytes()  # populate a's cache only
        assert a == b
        with pytest.raises(AttributeError):
            a.kind = "other"


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=12,
)


class TestStableEnvelope:
    """The frame is built as envelope head + payload + envelope tail, so
    the payload's size is known without serialising anything twice.
    Both must agree with serialising the whole positional list at once."""

    @given(
        kind=st.sampled_from(KINDS) | st.text(),
        sender=st.text(),
        recipient=st.text(),
        message_id=st.text(),
        payload=st.dictionaries(st.text(), JSON_VALUES, max_size=5),
    )
    @settings(max_examples=500, deadline=None)
    def test_frame_and_payload_size_match_one_whole_serialisation(
        self, kind, sender, recipient, message_id, payload
    ):
        def whole(body):
            return stable_json(
                [kind, message_id, recipient, sender, body]
            ).encode("utf-8")

        wire = whole(payload)
        payload_size = len(wire) - len(whole({})) + 2
        message = Message(kind, sender, recipient, payload, message_id)
        assert message.to_wire() == wire
        assert message.payload_bytes() == payload_size
        received = Message.from_wire(wire)
        assert received.payload_bytes() == payload_size
        assert received.to_wire() is wire

    @pytest.mark.parametrize(
        "position, wrong",
        [(position, wrong) for position in range(4)
         for wrong in (1, None, True, ["k"], {"k": 1})]
        + [(4, wrong) for wrong in (1, None, True, ["k"], "k")],
    )
    def test_a_frame_with_a_non_string_field_is_refused(self, position, wrong):
        # [kind, message_id, recipient, sender, payload]: four strings
        # and a dict, nothing else in any position.
        fields = ["k", "m", "B", "A", {}]
        fields[position] = wrong
        with pytest.raises(ProtocolError):
            Message.from_wire(stable_json(fields).encode("utf-8"))


class TestIdAuthority:
    def test_kind_prefixes(self):
        from repro.p2p.ids import IdAuthority

        ids = IdAuthority(seed=1)
        assert ids.peer_id().startswith("peer-")
        assert ids.update_id().startswith("update-")
        assert ids.query_id().startswith("query-")

    def test_determinism(self):
        from repro.p2p.ids import IdAuthority

        assert IdAuthority(seed=5).update_id() == IdAuthority(seed=5).update_id()
        assert IdAuthority(seed=5).update_id() != IdAuthority(seed=6).update_id()

    def test_uniqueness_within_kind(self):
        from repro.p2p.ids import IdAuthority

        ids = IdAuthority()
        assert len({ids.message_id() for _ in range(100)}) == 100

    def test_kinds_count_independently(self):
        # Minting (or no longer minting) one kind of id never shifts
        # another kind's sequence: message ids stay put.
        from repro.p2p.ids import IdAuthority

        plain = IdAuthority(seed=1)
        busy = IdAuthority(seed=1)
        busy.peer_id()
        busy.update_id()
        busy.query_id()
        assert [busy.message_id() for _ in range(3)] == [
            plain.message_id() for _ in range(3)
        ]


class TestBinaryCodec:
    """The negotiated binary frame codec (restricted pickle).

    Invariant pinned here: for every message kind, decoding a binary
    frame yields exactly the message that decoding the stable-JSON
    frame yields — the codecs are interchangeable per hop — and the §4
    statistics (``size_bytes``/``payload_bytes``) are codec-independent
    (always the stable-JSON volume).
    """

    @pytest.mark.parametrize("kind", KINDS)
    def test_binary_round_trip_equals_json_round_trip(self, kind):
        message = Message(
            kind=kind,
            sender="TN",
            recipient="BZ",
            payload=KIND_PAYLOADS[kind],
            message_id="msg-ab12cd-0042",
        )
        from_binary = Message.from_frame(message.to_binary())
        from_json = Message.from_frame(message.to_wire())
        assert from_binary == message
        assert from_binary == from_json
        assert from_binary.size_bytes() == message.size_bytes()
        assert from_binary.payload_bytes() == message.payload_bytes()
        # Without the envelope's key names the JSON frame is the
        # smaller one for every kind.
        assert len(message.to_binary()) > len(message.to_wire())

    @pytest.mark.parametrize(
        "kind, json_bytes, binary_bytes",
        [
            ("query_result", 212, 228),
            ("update_complete", 82, 98),
            ("invalidation", 100, 120),
        ],
    )
    def test_the_binary_frame_is_the_larger_one(self, kind, json_bytes, binary_bytes):
        message = Message(kind, "TN", "BZ", KIND_PAYLOADS[kind], "msg-ab12cd-0042")
        assert len(message.to_wire()) == json_bytes
        assert len(message.to_binary()) == binary_bytes

    def test_frames_are_self_describing(self):
        message = Message("k", "A", "B", {"x": 1})
        assert message.to_binary()[:1] == FRAME_BINARY
        assert message.to_wire()[:1] == b"["

    def test_marked_nulls_and_non_ascii_survive_binary(self):
        message = Message(
            "query_result", "TN", "BZ", KIND_PAYLOADS["query_result"]
        )
        decoded = Message.from_frame(message.to_binary())
        rows = [decode_row(row) for row in decoded.payload["rows"]]
        null, city = rows[1]
        assert isinstance(null, MarkedNull)
        assert null == MarkedNull("N7@BZ")
        assert city == "Bolzano/Bozen — Südtirol"

    def test_nested_payload(self):
        payload = {
            "outer": {"inner": [{"rows": [[1, ["s", "é"]], []]}, None]},
            "flags": [True, False, 3, 3.5],
        }
        message = Message("k", "A", "B", payload)
        assert Message.from_frame(message.to_binary()).payload == payload

    def test_binary_bytes_cached(self):
        message = Message("k", "A", "B", {"x": 1})
        assert message.to_binary() is message.to_binary()
        data = message.to_binary()
        decoded = Message.from_binary(data)
        assert decoded.to_binary() is data  # receive seeds the cache

    def test_size_bytes_on_binary_receive_is_the_json_volume(self):
        # A binary-received message never saw its JSON form; the §4
        # stats still report the stable-JSON volume.
        original = Message("k", "A", "B", {"s": "Trento⟪è⟫"})
        decoded = Message.from_binary(original.to_binary())
        assert decoded.size_bytes() == original.size_bytes()

    def test_malformed_binary_rejected(self):
        with pytest.raises(ProtocolError):
            Message.from_binary(FRAME_BINARY + b"not a pickle")
        with pytest.raises(ProtocolError):
            # Right codec, wrong shape (not the 5-tuple).
            Message.from_binary(encode_binary({"kind": "x"}))

    def test_pickled_globals_rejected(self):
        # The restricted unpickler refuses any class/function reference:
        # binary frames are data-only, never code.
        import os
        import pickle

        hostile = FRAME_BINARY + pickle.dumps(os.system)
        with pytest.raises(ProtocolError):
            decode_binary(hostile)

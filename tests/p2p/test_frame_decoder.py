"""The frame decoder fails closed.

``Message.from_frame`` is the trust boundary every byte from a socket
crosses.  Whatever it is given — arbitrary bytes, any JSON value, a
list that is almost a frame, a restricted pickle of any shape — it
returns a message of four strings and a payload dict that its receiver
can size, or it raises :class:`~repro.errors.ProtocolError`.  Nothing
else escapes.
"""

import json
import pickle

import hypothesis.strategies as st
from hypothesis import example, given, settings

from repro._util import stable_json
from repro.errors import ProtocolError
from repro.p2p.messages import FRAME_BINARY, KINDS, Message

#: Text with lone surrogates, which JSON can carry escaped but UTF-8
#: cannot encode.
ANY_TEXT = st.text(st.characters(codec=None, exclude_categories=()), max_size=8)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=16,
)
#: Lists that are frames, or nearly: the right length most of the time,
#: a field of the wrong type often.
NEAR_FRAMES = st.lists(
    st.sampled_from(KINDS) | ANY_TEXT | JSON_VALUES, min_size=3, max_size=7
) | st.tuples(
    st.sampled_from(KINDS) | ANY_TEXT,
    ANY_TEXT,
    ANY_TEXT,
    ANY_TEXT | JSON_VALUES,
    st.dictionaries(ANY_TEXT, JSON_VALUES, max_size=3) | JSON_VALUES,
).map(list)

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)


def decodes_or_refuses(data: bytes) -> None:
    try:
        message = Message.from_frame(data)
    except ProtocolError:
        return
    for text in (message.kind, message.message_id, message.recipient, message.sender):
        assert type(text) is str
    assert type(message.payload) is dict
    assert 0 <= message.payload_bytes() <= message.size_bytes()


@given(st.binary(max_size=300))
@example(b"")
@example(b"[" * 100_000)
@example(b'["k","m","B","A",{}]')
@example(b'{"kind":"k","message_id":"m","payload":{},"recipient":"B","sender":"A"}')
@SETTINGS
def test_arbitrary_bytes(data):
    decodes_or_refuses(data)


@given(JSON_VALUES | NEAR_FRAMES)
@example(["k", "m", "B", "\ud800", {}])
@SETTINGS
def test_stable_json_of_any_value(value):
    try:
        data = stable_json(value).encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate travels escaped
        data = json.dumps(value).encode("ascii")
    decodes_or_refuses(data)


@given(JSON_VALUES | NEAR_FRAMES.map(tuple) | st.binary(max_size=64))
@example(("k", "A", "B", {"s": {1, 2}}, "m"))
@example(("k", "A", "B", {1: 2, "a": 3}, "m"))
@SETTINGS
def test_binary_frames_of_any_value(value):
    decodes_or_refuses(FRAME_BINARY + pickle.dumps(value))


@given(st.binary(max_size=300))
@SETTINGS
def test_arbitrary_binary_bodies(body):
    decodes_or_refuses(FRAME_BINARY + body)

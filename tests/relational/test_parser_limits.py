"""The query parser at adversarial sizes, and its memo.

The gateway accepts a request body of up to 1 MiB, and a query text is
parsed on the thread that received it.  Whatever the text, the parser
must answer quickly — a query or a :class:`~repro.errors.CoDBError` —
and a text over the size cap is refused before it is tokenised.  The
memo in front of :func:`~repro.relational.parser.parse_query` hands a
repeated text the very same query and never remembers a failure.
"""

from __future__ import annotations

import time

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from repro.errors import CoDBError, QueryTooLargeError
from repro.relational import parser
from repro.relational.parser import MAX_QUERY_CHARS, MEMO_TEXT_CHARS, parse_query

#: Seconds any one parse may take.  A 1 MiB text took about 2 s to
#: parse before the size cap; under it the worst case is a few ms.
TIME_BOUND_S = 0.5

PIECES = st.sampled_from([
    "q", "item", "x", "y", "(", ")", ",", "&", ".", ":", "!", "<-", ":-",
    ">=", "<", "=", "!=", " ", "\n", "#", "3", "-2", "1.5", "'a'", '"b', "\\",
    "²", "é",
])

texts = st.one_of(
    st.text(max_size=80),
    st.lists(PIECES, max_size=40).map("".join),
    # Long bodies, from well under the size cap to well over it.
    st.builds(
        lambda body, count: "q(x) <- " + ", ".join([body] * count),
        st.sampled_from(["item(x)", "item(x), x >= 1", "item(x, 'y')"]),
        st.integers(min_value=1, max_value=3000),
    ),
)


def parse_timed(text):
    started = time.perf_counter()
    try:
        return parse_query(text)
    except CoDBError as exc:
        return exc
    finally:
        assert time.perf_counter() - started < TIME_BOUND_S, len(text)


@given(texts)
@example("q(x) <- item(x)" + " " * (1 << 20))
@example("q(x) <- item(x), x >= ²")
@settings(max_examples=300, deadline=None)
def test_any_text_parses_or_raises_a_codb_error_in_bounded_time(text):
    result = parse_timed(text)
    if len(text) > MAX_QUERY_CHARS:
        assert isinstance(result, QueryTooLargeError)


@given(texts)
@settings(max_examples=200, deadline=None)
def test_the_memo_hands_a_repeated_text_the_same_query(text):
    first = parse_timed(text)
    if isinstance(first, CoDBError):
        return
    # An equal text, not the same string object.
    again = parse_query("".join(list(text)))
    if len(text) <= MEMO_TEXT_CHARS:
        assert again is first
    else:
        assert again == first and again is not first


@given(texts)
@settings(max_examples=200, deadline=None)
def test_the_memo_never_keeps_a_failure(text):
    kept = parser._memoised_parse_query.cache_info().currsize
    failure = parse_timed(text)
    if not isinstance(failure, CoDBError):
        return
    assert parser._memoised_parse_query.cache_info().currsize == kept
    with pytest.raises(type(failure)):
        parse_query(text)


def test_the_cap_is_checked_before_tokenising(monkeypatch):
    def refuse(_source):
        raise AssertionError("tokenised a text over the cap")

    monkeypatch.setattr(parser, "tokenize", refuse)
    with pytest.raises(QueryTooLargeError) as caught:
        parse_query("q(x) <- item(x)" + " " * MAX_QUERY_CHARS)
    assert str(MAX_QUERY_CHARS) in str(caught.value)

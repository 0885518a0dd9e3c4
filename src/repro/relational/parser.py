"""Textual syntax for schemas, facts, queries and coordination rules.

The demo's super-peer "can read coordination rules for all peers from a
file and broadcast this file to all peers on the network" (§4), so the
system needs a concrete syntax.  Ours is Datalog-flavoured:

Schema declarations (one per line; ``local`` relations are not exported
— they are in the LDB but not the DBS)::

    person(name: str, age: int)
    local wages(name, amount: float)

Facts::

    person('anna', 24).
    person("bob", 30)

Queries — a head atom, ``<-`` (or ``:-``), then body atoms and
comparisons::

    q(x) <- person(x, a), a >= 18

Coordination rules — like queries, but atoms carry peer prefixes and
the head may have several atoms and existential variables::

    TN:resident(n), TN:age_of(n, a) <- BZ:person(n, a), a >= 0

Comments run from ``#`` or ``%`` to end of line.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterator
from functools import lru_cache

from repro.errors import ParseError, QueryTooLargeError
from repro.relational.conjunctive import (
    Atom,
    Comparison,
    ConjunctiveQuery,
    GlavMapping,
    Term,
    Variable,
)
from repro.relational.schema import (
    AttributeDef,
    DatabaseSchema,
    RelationSchema,
)
from repro.relational.values import Row

# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_PUNCT = {
    "(": "LPAREN",
    ")": "RPAREN",
    ",": "COMMA",
    ".": "DOT",
    ":": "COLON",
    "=": "OP",
    "&": "COMMA",  # '&' between head atoms reads the same as ','
}

_TWO_CHAR_OPS = {"<-": "ARROW", ":-": "ARROW", "<=": "OP", ">=": "OP", "!=": "OP"}
_ONE_CHAR_OPS = {"<": "OP", ">": "OP"}
# A lone '!' (not part of '!=') marks a key attribute in schema DDL.

_KEYWORDS = {"true", "false", "local"}


@dataclass(frozen=True)
class Token:
    kind: str  # NAME, NUMBER, STRING, OP, ARROW, LPAREN, ... , EOF
    text: str
    line: int
    column: int


def tokenize(source: str) -> list[Token]:
    """Split *source* into tokens, raising :class:`ParseError` on junk."""
    tokens: list[Token] = []
    line = 1
    column = 1
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            tokens.append(Token("NEWLINE", "\n", line, column))
            line += 1
            column = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            column += 1
            continue
        if ch in "#%":
            while i < n and source[i] != "\n":
                i += 1
                column += 1
            continue
        two = source[i:i + 2]
        if two in _TWO_CHAR_OPS:
            tokens.append(Token(_TWO_CHAR_OPS[two], two, line, column))
            i += 2
            column += 2
            continue
        if ch in _ONE_CHAR_OPS:
            tokens.append(Token(_ONE_CHAR_OPS[ch], ch, line, column))
            i += 1
            column += 1
            continue
        if ch == "!":
            tokens.append(Token("BANG", ch, line, column))
            i += 1
            column += 1
            continue
        if ch in _PUNCT:
            tokens.append(Token(_PUNCT[ch], ch, line, column))
            i += 1
            column += 1
            continue
        if ch in "'\"":
            quote = ch
            j = i + 1
            chunks: list[str] = []
            while j < n and source[j] != quote:
                if source[j] == "\n":
                    raise ParseError("unterminated string", line, column)
                if source[j] == "\\" and j + 1 < n:
                    chunks.append(source[j + 1])
                    j += 2
                else:
                    chunks.append(source[j])
                    j += 1
            if j >= n:
                raise ParseError("unterminated string", line, column)
            text = "".join(chunks)
            tokens.append(Token("STRING", text, line, column))
            column += j + 1 - i
            i = j + 1
            continue
        if ch.isdecimal() or (ch == "-" and i + 1 < n and source[i + 1].isdecimal()):
            j = i + 1
            seen_dot = False
            while j < n and (source[j].isdecimal() or (source[j] == "." and not seen_dot)):
                if source[j] == ".":
                    # A trailing fact period must not be eaten: "24." at
                    # end of fact.  Only treat '.' as decimal point when
                    # a digit follows.
                    if j + 1 >= n or not source[j + 1].isdecimal():
                        break
                    seen_dot = True
                j += 1
            tokens.append(Token("NUMBER", source[i:j], line, column))
            column += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(Token("NAME", source[i:j], line, column))
            column += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, column)
    tokens.append(Token("EOF", "", line, column))
    return tokens


class _TokenStream:
    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
        self._pos = 0

    def peek(self, skip_newlines: bool = True) -> Token:
        pos = self._pos
        while skip_newlines and self._tokens[pos].kind == "NEWLINE":
            pos += 1
        return self._tokens[pos]

    def next(self, skip_newlines: bool = True) -> Token:
        while skip_newlines and self._tokens[self._pos].kind == "NEWLINE":
            self._pos += 1
        token = self._tokens[self._pos]
        if token.kind != "EOF":
            self._pos += 1
        return token

    def expect(self, kind: str, what: str = "") -> Token:
        token = self.next()
        if token.kind != kind:
            wanted = what or kind
            raise ParseError(
                f"expected {wanted}, got {token.text!r}", token.line, token.column
            )
        return token

    def at_end(self) -> bool:
        return self.peek().kind == "EOF"

    def skip_terminators(self) -> None:
        """Consume newline / '.' fact terminators."""
        while True:
            token = self.peek(skip_newlines=False)
            if token.kind in ("NEWLINE", "DOT"):
                self.next(skip_newlines=False)
            else:
                return


# ---------------------------------------------------------------------------
# Grammar pieces
# ---------------------------------------------------------------------------


def _parse_value(stream: _TokenStream):
    token = stream.next()
    if token.kind == "STRING":
        return token.text
    if token.kind == "NUMBER":
        if "." in token.text:
            return float(token.text)
        return int(token.text)
    if token.kind == "NAME" and token.text in ("true", "false"):
        return token.text == "true"
    raise ParseError(f"expected a constant, got {token.text!r}", token.line, token.column)


def _parse_term(stream: _TokenStream) -> Term:
    token = stream.peek()
    if token.kind == "NAME" and token.text not in ("true", "false"):
        stream.next()
        return Variable(token.text)
    return _parse_value(stream)


@dataclass(frozen=True)
class PrefixedAtom:
    """An atom optionally tagged with a peer prefix (``TN:resident(x)``)."""

    peer: str | None
    atom: Atom


def _parse_atom(stream: _TokenStream) -> PrefixedAtom:
    first = stream.expect("NAME", "a relation name")
    peer: str | None = None
    name = first.text
    if stream.peek().kind == "COLON":
        stream.next()
        peer = name
        name = stream.expect("NAME", "a relation name after peer prefix").text
    stream.expect("LPAREN", "'('")
    terms: list[Term] = []
    if stream.peek().kind != "RPAREN":
        terms.append(_parse_term(stream))
        while stream.peek().kind == "COMMA":
            stream.next()
            terms.append(_parse_term(stream))
    stream.expect("RPAREN", "')'")
    return PrefixedAtom(peer, Atom(name, tuple(terms)))


def _parse_body_item(stream: _TokenStream) -> PrefixedAtom | Comparison:
    """One body conjunct: either an atom or a comparison."""
    token = stream.peek()
    if token.kind == "NAME":
        # Lookahead: NAME '(' → atom; NAME ':' NAME '(' → prefixed atom;
        # otherwise it is the left term of a comparison.
        save = stream._pos
        name_token = stream.next()
        after = stream.peek()
        if after.kind == "LPAREN" or (
            after.kind == "COLON" and name_token.text not in ("true", "false")
        ):
            stream._pos = save
            return _parse_atom(stream)
        stream._pos = save
    left = _parse_term(stream)
    op_token = stream.next()
    if op_token.kind != "OP":
        raise ParseError(
            f"expected a comparison operator, got {op_token.text!r}",
            op_token.line,
            op_token.column,
        )
    right = _parse_term(stream)
    op = "=" if op_token.text == "=" else op_token.text
    return Comparison(op, left, right)


def _parse_conjunction(
    stream: _TokenStream,
) -> tuple[list[PrefixedAtom], list[Comparison]]:
    atoms: list[PrefixedAtom] = []
    comparisons: list[Comparison] = []
    while True:
        item = _parse_body_item(stream)
        if isinstance(item, PrefixedAtom):
            atoms.append(item)
        else:
            comparisons.append(item)
        if stream.peek().kind == "COMMA":
            stream.next()
            continue
        return atoms, comparisons


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------


def parse_schema(source: str) -> DatabaseSchema:
    """Parse schema declarations, one relation per line.

    An attribute followed by ``!`` belongs to the relation's key (the
    local integrity constraint of §1's inconsistency handling).

    >>> schema = parse_schema('''
    ...     person(name!: str, age: int)
    ...     local wages(name, amount)
    ... ''')
    >>> schema["person"].key
    ('name',)
    >>> schema["wages"].exported
    False
    """
    stream = _TokenStream(tokenize(source))
    schema = DatabaseSchema()
    while not stream.at_end():
        exported = True
        token = stream.peek()
        if token.kind == "NAME" and token.text == "local":
            stream.next()
            exported = False
        name = stream.expect("NAME", "a relation name")
        stream.expect("LPAREN", "'('")
        attributes: list[AttributeDef] = []
        key: list[str] = []
        while True:
            attr_name = stream.expect("NAME", "an attribute name")
            if stream.peek().kind == "BANG":
                stream.next()
                key.append(attr_name.text)
            type_name = "any"
            if stream.peek().kind == "COLON":
                stream.next()
                type_name = stream.expect("NAME", "a type name").text
            attributes.append(AttributeDef(attr_name.text, type_name))
            if stream.peek().kind == "COMMA":
                stream.next()
                continue
            break
        stream.expect("RPAREN", "')'")
        schema.add(
            RelationSchema(
                name.text, tuple(attributes), exported=exported, key=tuple(key)
            )
        )
        stream.skip_terminators()
    return schema


def parse_facts(source: str) -> dict[str, list[Row]]:
    """Parse ground facts into ``{relation: rows}``.

    >>> parse_facts("person('anna', 24). person('bob', 30)")
    {'person': [('anna', 24), ('bob', 30)]}
    """
    stream = _TokenStream(tokenize(source))
    facts: dict[str, list[Row]] = {}
    while not stream.at_end():
        name = stream.expect("NAME", "a relation name")
        stream.expect("LPAREN", "'('")
        values = []
        if stream.peek().kind != "RPAREN":
            values.append(_parse_value(stream))
            while stream.peek().kind == "COMMA":
                stream.next()
                values.append(_parse_value(stream))
        stream.expect("RPAREN", "')'")
        facts.setdefault(name.text, []).append(tuple(values))
        stream.skip_terminators()
    return facts


#: Longest query text read (a query, not a bulk load): a longer one is
#: refused before tokenising, not parsed for seconds on a network thread.
MAX_QUERY_CHARS = 16_384
#: Parsed queries kept (LRU), of texts up to MEMO_TEXT_CHARS long.
MEMO_SIZE, MEMO_TEXT_CHARS = 1024, 2048


def parse_query(source: str) -> ConjunctiveQuery:
    """Parse one conjunctive query.

    The same text gives back the same (frozen) query: parses are
    memoised, failures are not.  A text over :data:`MAX_QUERY_CHARS`
    raises :class:`~repro.errors.QueryTooLargeError` unread.

    >>> parse_query("q(x) <- person(x, a), a >= 18")
    q(?x) <- person(?x, ?a), ?a >= 18
    """
    if len(source) <= MEMO_TEXT_CHARS:
        return _memoised_parse_query(source)
    return _parse_query(source)


def _parse_query(source: str) -> ConjunctiveQuery:
    if len(source) > MAX_QUERY_CHARS:
        raise QueryTooLargeError(
            f"query text over the {MAX_QUERY_CHARS}-character cap"
        )
    stream = _TokenStream(tokenize(source))
    head = _parse_atom(stream)
    if head.peer is not None:
        raise ParseError("queries do not take peer prefixes; use parse_mapping")
    stream.expect("ARROW", "'<-'")
    atoms, comparisons = _parse_conjunction(stream)
    stream.skip_terminators()
    if not stream.at_end():
        token = stream.peek()
        raise ParseError(
            f"unexpected trailing input {token.text!r}", token.line, token.column
        )
    for prefixed in atoms:
        if prefixed.peer is not None:
            raise ParseError("queries do not take peer prefixes; use parse_mapping")
    return ConjunctiveQuery(
        head.atom,
        tuple(p.atom for p in atoms),
        tuple(comparisons),
    )


_memoised_parse_query = lru_cache(maxsize=MEMO_SIZE)(_parse_query)


@dataclass(frozen=True)
class ParsedMapping:
    """A coordination rule as written: mapping + peer names.

    ``target`` is the importing peer (owns the head), ``source`` the
    acquaintance that evaluates the body, per §2 of the paper.
    """

    target: str | None
    source: str | None
    mapping: GlavMapping


def parse_mapping(source_text: str) -> ParsedMapping:
    """Parse one coordination rule.

    >>> parsed = parse_mapping("TN:resident(n) <- BZ:person(n, c), c = 'Trento'")
    >>> parsed.target, parsed.source
    ('TN', 'BZ')
    """
    stream = _TokenStream(tokenize(source_text))
    head_atoms, head_comparisons = _parse_conjunction(stream)
    if head_comparisons:
        raise ParseError("comparisons are not allowed in a rule head")
    stream.expect("ARROW", "'<-'")
    body_atoms, comparisons = _parse_conjunction(stream)
    stream.skip_terminators()
    if not stream.at_end():
        token = stream.peek()
        raise ParseError(
            f"unexpected trailing input {token.text!r}", token.line, token.column
        )

    target_peers = {p.peer for p in head_atoms}
    source_peers = {p.peer for p in body_atoms}
    if len(target_peers) != 1:
        raise ParseError(
            f"head atoms must all carry the same peer prefix, got {sorted(str(p) for p in target_peers)}"
        )
    if len(source_peers) != 1:
        raise ParseError(
            f"body atoms must all carry the same peer prefix, got {sorted(str(p) for p in source_peers)}"
        )
    mapping = GlavMapping(
        tuple(p.atom for p in head_atoms),
        tuple(p.atom for p in body_atoms),
        tuple(comparisons),
    )
    return ParsedMapping(target_peers.pop(), source_peers.pop(), mapping)


def parse_mappings(source_text: str) -> list[ParsedMapping]:
    """Parse a rule file: one coordination rule per (logical) line.

    Blank lines and comments are skipped.  A rule may span lines as
    long as continuation lines cannot be mistaken for a new rule; in
    practice the super-peer's rule files keep one rule per line.
    """
    parsed: list[ParsedMapping] = []
    for line_number, line in enumerate(source_text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith(("#", "%")):
            continue
        try:
            parsed.append(parse_mapping(stripped))
        except ParseError as exc:
            raise ParseError(f"rule file line {line_number}: {exc}") from exc
    return parsed

"""Exception hierarchy for the coDB reproduction.

Every error raised by the library derives from :class:`CoDBError`, so a
caller can catch one type.  Sub-hierarchies mirror the package layout:
relational-engine errors, parser errors, network errors and protocol
errors.
"""

from __future__ import annotations


class CoDBError(Exception):
    """Base class of every error raised by this library."""


class SchemaError(CoDBError):
    """A relation or attribute does not match the declared schema."""


class UnknownRelationError(SchemaError):
    """A query or rule references a relation the schema does not define."""

    def __init__(self, relation: str, where: str = "") -> None:
        suffix = f" in {where}" if where else ""
        super().__init__(f"unknown relation {relation!r}{suffix}")
        self.relation = relation


class ArityError(SchemaError):
    """A tuple or atom has the wrong number of terms for its relation."""

    def __init__(self, relation: str, expected: int, got: int) -> None:
        super().__init__(
            f"relation {relation!r} has arity {expected}, got {got} terms"
        )
        self.relation = relation
        self.expected = expected
        self.got = got


class TypeMismatchError(SchemaError):
    """A value's type does not match the declared attribute type."""


class QueryError(CoDBError):
    """A conjunctive query is malformed (e.g. unsafe head variable)."""


class UnsafeQueryError(QueryError):
    """A head or comparison variable does not occur in a body atom."""

    def __init__(self, variable: str, where: str = "query") -> None:
        super().__init__(
            f"variable {variable!r} in {where} does not occur in any "
            "relational body atom (unsafe)"
        )
        self.variable = variable


class ParseError(CoDBError):
    """Raised by the textual syntax parser, with position information."""

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        location = f" at line {line}, column {column}" if line else ""
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class QueryTooLargeError(ParseError):
    """A query text over the parser's size cap, refused unread."""


class RuleError(CoDBError):
    """A coordination rule is malformed or inconsistent with the schemas."""


class NetworkError(CoDBError):
    """Base class for transport-level failures."""


class UnknownPeerError(NetworkError):
    """A message was addressed to a peer id not present on the network."""

    def __init__(self, peer_id: str) -> None:
        super().__init__(f"unknown peer {peer_id!r}")
        self.peer_id = peer_id


class TransportStoppedError(NetworkError):
    """An operation was attempted on a transport that is not running."""


class ProtocolError(CoDBError):
    """A coDB protocol message violated the expected state machine."""


class FrameRejectedError(ProtocolError):
    """A frame's length exceeds ``MAX_FRAME_BYTES`` — claimed by an
    inbound header (the connection is closed: nothing after a bad
    header on a stream can be trusted) or about to be written."""


class SnapshotError(ProtocolError):
    """A node snapshot this build cannot trust: unparsable, a missing or
    unknown format tag or version, or a section that does not decode
    against the node it is restored into.  Raised before the node is
    touched."""


class RequestTimeoutError(ProtocolError):
    """Waiting on a request handle (or a network predicate) timed out.

    Raised by :meth:`repro.core.requests.RequestHandle.result` when the
    request did not complete within ``timeout`` seconds, and on the
    simulated transport when the event queue drains before the awaited
    condition holds (nothing left in flight can ever complete it).
    Subclasses :class:`ProtocolError` so pre-handle-API callers that
    caught the old poll-loop error keep working.
    """


class RequestCancelledError(ProtocolError):
    """The request handle was cancelled before admission; it never ran."""


class UpdateAbortedError(ProtocolError):
    """A global update was aborted (guard tripped or network torn down)."""


class FixpointGuardError(UpdateAbortedError):
    """The fix-point iteration guard tripped.

    With cyclic coordination rules whose heads introduce existential
    variables, the naive chase may diverge (each round mints fresh
    marked nulls that re-fire the cycle).  The engine raises this error
    instead of spinning forever; see
    :func:`repro.relational.analysis.is_weakly_acyclic` for the static
    check and the ``subsumption`` dedup mode for a dynamic remedy.
    """

    def __init__(self, limit: int) -> None:
        super().__init__(
            f"global update exceeded the fix-point guard of {limit} rounds; "
            "the rule set is likely not weakly acyclic "
            "(enable subsumption dedup or raise the guard)"
        )
        self.limit = limit


class WrapperError(CoDBError):
    """The storage wrapper could not execute an operation on the LDB."""


class StatisticsError(CoDBError):
    """Statistics collection or aggregation failed."""

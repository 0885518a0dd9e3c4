"""Durable node snapshots for crash-and-rejoin.

A snapshot captures everything a worker needs to resume *where it
left off* rather than from the original fact file: the store's rows,
the lifetime link memories (the importer-side ``fired`` and
source-side ``pushed`` sets that make re-shipping idempotent), and
the answer-cache epoch vector.  The supervisor
(:class:`repro.p2p.procs.ProcessNetwork`) points each worker at a
snapshot path; the worker rewrites it after every
``checkpoint_interval`` completed sessions, and a restarted
incarnation restores from it before running the
:meth:`~repro.core.node.CoDBNode.rejoin` handshake.

Snapshots are single JSON files written atomically (temp file +
``os.replace``), so a crash mid-checkpoint leaves the previous
snapshot intact.  Link-memory keys are row keys
(:func:`repro.relational.values.row_key` tuples), whose elements may
be scalars, tagged ``(tag, value)`` pairs for bools/floats, or
:class:`~repro.relational.values.MarkedNull` — each gets an explicit
JSON encoding here so the round trip is exact.

The loader fails closed.  A file carries a ``"format"`` tag and a
``"version"``, and :func:`read_snapshot` refuses any other tag or
version — what a snapshot may hold (link memories, never the link
marks) is a contract of the version, so a file from another build is
not guessed at.  :func:`restore_node` decodes and checks every section
against the node before it changes anything: a malformed snapshot
raises :class:`~repro.errors.SnapshotError` and leaves the node as it
was.

What is deliberately NOT persisted: the marked-null counter.  A
restarted worker mints nulls in a fresh incarnation namespace
(``N0@TN~r1`` instead of ``N0@TN``), so labels can never collide with
pre-crash nulls that survivors may still hold.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any

from repro._util import stable_json
from repro.errors import CoDBError, SnapshotError
from repro.relational.values import (
    MarkedNull,
    decode_rows,
    encode_row,
    value_key,
)

#: The tag and version every snapshot file carries.
SNAPSHOT_FORMAT = "codb-snapshot"
SNAPSHOT_VERSION = 1

#: JSON object key marking an encoded :class:`MarkedNull` key element.
_NULL_KEY = "$null"


def encode_key(key: tuple) -> list:
    """Encode one lifetime-memory row key as a JSON-safe list."""
    encoded: list[Any] = []
    for part in key:
        if isinstance(part, MarkedNull):
            encoded.append({_NULL_KEY: part.label})
        elif isinstance(part, tuple):
            # A (tag, value) pair from ``value_key`` (bool/float tags).
            encoded.append([part[0], part[1]])
        else:
            encoded.append(part)
    return encoded


def decode_key(encoded: list) -> tuple:
    """Invert :func:`encode_key`; raise :class:`SnapshotError` for
    anything it cannot have produced."""
    if not isinstance(encoded, list):
        raise SnapshotError(f"malformed snapshot key: {encoded!r}")
    parts: list[Any] = []
    for part in encoded:
        if isinstance(part, dict):
            label = part.get(_NULL_KEY)
            if len(part) != 1 or not isinstance(label, str) or not label:
                raise SnapshotError(f"malformed snapshot key element: {part!r}")
            parts.append(MarkedNull(label))
        elif isinstance(part, list) and len(part) == 2:
            # Only a bool or a float keys as a (tag, value) pair.
            tagged = value_key(part[1])
            if type(tagged) is not tuple or tagged[0] != part[0]:
                raise SnapshotError(f"malformed snapshot key element: {part!r}")
            parts.append((part[0], part[1]))
        elif type(part) in (int, str):
            parts.append(part)
        else:
            raise SnapshotError(f"malformed snapshot key element: {part!r}")
    return tuple(parts)


def snapshot_node(node, *, incarnation: int = 0) -> dict[str, Any]:
    """Capture *node*'s durable state as a JSON-safe payload."""
    with node._lock:
        facts = {
            relation: [encode_row(row) for row in rows]
            for relation, rows in node.snapshot().items()
        }
        fired = {
            rule_id: [encode_key(key) for key in sorted(link.fired, key=repr)]
            for rule_id, link in node.links.outgoing.items()
        }
        pushed = {
            rule_id: [encode_key(key) for key in sorted(link.pushed, key=repr)]
            for rule_id, link in node.links.incoming.items()
        }
        epochs = dict(node.cache.epochs)
    return {
        "name": node.name,
        "incarnation": incarnation,
        "facts": facts,
        "fired": fired,
        "pushed": pushed,
        "epochs": epochs,
    }


def _section(payload: dict[str, Any], name: str) -> dict[str, Any]:
    section = payload.get(name, {})
    if not isinstance(section, dict):
        raise SnapshotError(f"snapshot section {name!r} is not an object")
    return section


def _decode_facts(node, payload: dict[str, Any]) -> dict[str, list]:
    schema = node.wrapper.schema
    facts = {}
    for relation, rows in _section(payload, "facts").items():
        if relation not in schema or not isinstance(rows, list):
            raise SnapshotError(f"snapshot facts for unknown relation {relation!r}")
        if not all(isinstance(row, list) for row in rows):
            raise SnapshotError(f"snapshot facts for {relation!r} are not rows")
        try:
            facts[relation] = schema[relation].validate_rows(decode_rows(rows))
        except (CoDBError, TypeError, ValueError) as exc:
            raise SnapshotError(f"snapshot facts for {relation!r}: {exc}") from exc
    return facts


def _decode_memories(payload: dict[str, Any], name: str) -> dict[str, list]:
    memories = {}
    for rule_id, keys in _section(payload, name).items():
        if not isinstance(keys, list):
            raise SnapshotError(f"snapshot {name} memory of {rule_id!r} is not a list")
        memories[rule_id] = [decode_key(key) for key in keys]
    return memories


def restore_node(node, payload: dict[str, Any]) -> dict[str, int]:
    """Restore a snapshot *payload* into a freshly configured node.

    Must run AFTER ``set_rules`` (which rebuilds the link table) and
    BEFORE the rejoin handshake (whose digests cover the restored
    memories).  Every section is decoded and checked first — facts
    against the node's schema, keys against what :func:`encode_key`
    writes, epochs as integers — and the node is only touched once all
    of them pass.  Memories of rules the node no longer has are
    skipped.  Returns counts for the caller's reply.
    """
    if not isinstance(payload, dict):
        raise SnapshotError("snapshot is not an object")
    facts = _decode_facts(node, payload)
    fired = _decode_memories(payload, "fired")
    pushed = _decode_memories(payload, "pushed")
    epochs = _section(payload, "epochs")
    if not all(type(epoch) is int for epoch in epochs.values()):
        raise SnapshotError("snapshot epochs are not integers")

    restored_fired = 0
    restored_pushed = 0
    with node._lock:
        loaded = node.load_facts(facts) if facts else 0
        for rule_id, keys in fired.items():
            link = node.links.outgoing.get(rule_id)
            if link is not None:
                link.fired.update(keys)
                restored_fired += len(keys)
        for rule_id, keys in pushed.items():
            link = node.links.incoming.get(rule_id)
            if link is not None:
                link.pushed.update(keys)
                restored_pushed += len(keys)
        for relation, epoch in epochs.items():
            current = node.cache.epochs.get(relation, 0)
            node.cache.epochs[relation] = max(current, epoch)
    return {
        "rows_loaded": loaded,
        "fired_restored": restored_fired,
        "pushed_restored": restored_pushed,
    }


def write_snapshot(path: str, payload: dict[str, Any]) -> None:
    """Atomically write *payload*, tagged with the snapshot format and
    version, as stable JSON to *path*."""
    tagged = {"format": SNAPSHOT_FORMAT, "version": SNAPSHOT_VERSION, **payload}
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(
        prefix=".snapshot-", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(stable_json(tagged))
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def read_snapshot(path: str) -> dict[str, Any] | None:
    """Read a snapshot back, without its format tag and version, or
    ``None`` when no snapshot exists yet.  Raises
    :class:`~repro.errors.SnapshotError` for a file this build did not
    write."""
    try:
        with open(path, encoding="utf-8") as handle:
            data = handle.read()
    except FileNotFoundError:
        return None
    try:
        payload = json.loads(data)
    except ValueError as exc:
        raise SnapshotError(f"corrupt snapshot {path!r}: {exc}") from exc
    if not isinstance(payload, dict):
        raise SnapshotError(f"corrupt snapshot {path!r}: not an object")
    tag, version = payload.pop("format", None), payload.pop("version", None)
    if tag != SNAPSHOT_FORMAT:
        raise SnapshotError(f"{path!r} is not a coDB snapshot (format {tag!r})")
    if type(version) is not int or version != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"snapshot {path!r} has version {version!r}; "
            f"this build reads version {SNAPSHOT_VERSION}"
        )
    return payload

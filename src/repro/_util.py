"""Small shared helpers: deterministic ids, stable hashing, formatting.

Everything in the library that needs "randomness" (peer ids, update
ids, workload generation) draws from a seeded :class:`IdGenerator` or a
seeded ``random.Random`` so that whole-network runs are exactly
reproducible.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from collections.abc import Iterable, Iterator, Sequence
from typing import Any


class IdGenerator:
    """Deterministic unique-id source, JXTA-style but reproducible.

    JXTA generates opaque globally-unique ids for peers, pipes and
    messages.  We reproduce the *shape* (an opaque prefixed token) while
    keeping determinism: ids are derived from a seed and a counter with
    a short hash, e.g. ``peer-3f9a2c-0004``.
    """

    def __init__(self, seed: int = 0, namespace: str = "") -> None:
        self._seed = seed
        self._namespace = namespace
        self._counters: dict[str, itertools.count[int]] = {}

    def next_id(self, kind: str) -> str:
        """Return the next id for *kind* (``"peer"``, ``"msg"``, ...)."""
        counter = self._counters.setdefault(kind, itertools.count())
        n = next(counter)
        digest = hashlib.sha1(
            f"{self._namespace}/{self._seed}/{kind}/{n}".encode()
        ).hexdigest()[:6]
        return f"{kind}-{digest}-{n:04d}"


def stable_json(payload: Any) -> str:
    """Serialise *payload* to JSON with a stable key order.

    Used for message payloads and for size accounting (the paper's
    "volume of the data in each message" statistic), so byte counts are
    deterministic across runs and platforms.  Non-ASCII stays raw
    UTF-8 (``ensure_ascii=False``) so sizes reflect actual wire bytes.
    """
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    )


def payload_size(payload: Any) -> int:
    """Byte size of *payload* when serialised with :func:`stable_json`."""
    return len(stable_json(payload).encode("utf-8"))


def stable_hash(payload: Any) -> str:
    """Short stable hash of any JSON-serialisable payload."""
    return hashlib.sha1(stable_json(payload).encode("utf-8")).hexdigest()[:12]


def chunked(items: Sequence[Any], size: int) -> Iterator[Sequence[Any]]:
    """Yield consecutive chunks of *items* with at most *size* elements.

    The update protocol batches result tuples into messages; the batch
    size bounds per-message data volume (experiment E4).
    """
    if size <= 0:
        raise ValueError(f"chunk size must be positive, got {size}")
    for start in range(0, len(items), size):
        yield items[start:start + size]


def dedup_preserving_order(items: Iterable[Any]) -> list[Any]:
    """Drop duplicates from *items*, keeping first occurrences in order."""
    return list(dict.fromkeys(items))


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[Any]],
    *,
    title: str = "",
) -> str:
    """Render an ASCII table, used by benchmark reports and the super-peer.

    >>> print(format_table(["a", "b"], [[1, 22], [333, 4]]))
    a   | b
    ----+---
    1   | 22
    333 | 4
    """
    text_rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in text_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("-+-".join("-" * w for w in widths))
    for row in text_rows:
        lines.append(
            " | ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        )
    return "\n".join(lines)

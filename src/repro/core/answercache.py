"""Epoch-keyed answer cache: the read-side twin of resend suppression.

CUP-style (Roussopoulos & Baker, PAPERS.md) answer caching for a
read-heavy network: every node keeps a size-bounded LRU of query
answers keyed on the query's structure, each entry stamped with the
**epoch vector** of the relations the query's body reads.  An epoch is
a per-relation version counter the node bumps on every mutation —
local insert, ``load_facts``, delta ingest during a global update,
query-time data import, and rule changes (which
bump *every* relation, since the derivable content of all of them may
shift).

A lookup serves its entry only while every stamped epoch still equals
the relation's current counter, so a cached answer can never outlive a
write it depends on — and because the key is per-relation, writes to
*unrelated* relations never evict anything (precision comes from the
coordination-rule dependency info the link table already computes; see
:meth:`repro.core.links.LinkTable.incoming_dependent_on_relations`).
Staleness introduced by a *remote* write arrives as either taught rows
(whose ingest bumps epochs here) or a compact ``invalidation`` message
(see :mod:`repro.core.node`); either way the bump invalidates exactly
the dependent entries.

A miss need not propagate either.  A *network* fill (the root of a
clean §3 query, :mod:`repro.core.query`) also stamps its body's
**relation set** with the epoch vector: at that moment the node holds
everything a diffusing computation over those relations would import
— the data *migrated* here — and interest is registered upstream, so
any later change arrives as an invalidation and bumps an epoch.  While
the stamp stands (:meth:`fresh`), a miss on *any* query over the same
relations is answered by local evaluation, exactly as safely as a hit
on a sibling query: one network round per write, not one per query
template.  Stamps are validated and swept exactly like entries.

The cache itself is deliberately dumb: it knows nothing about links,
messages or fault fallbacks.  The node layer owns those (registration,
fan-out, ``peer_down``/heal flood resets calling :meth:`bump_all`).
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterable, Sequence

from repro.relational.values import Row

#: Default bound on cached entries per node (LRU eviction beyond it).
DEFAULT_CACHE_SIZE = 512


class AnswerCache:
    """Per-node answer cache with per-relation epoch validation.

    Parameters
    ----------
    limit:
        Maximum number of cached entries; least-recently-used entries
        are evicted beyond it.  A node uses :data:`DEFAULT_CACHE_SIZE`.
    enabled:
        When ``False`` the epochs are still maintained (they cost one
        dict increment per mutation) but :meth:`get`/:meth:`put`/
        :meth:`fresh` are no-ops — ``NodeConfig(answer_cache=False)``,
        the uncached oracle of the cached ≡ uncached differentials.
    """

    def __init__(
        self, limit: int = DEFAULT_CACHE_SIZE, *, enabled: bool = True
    ) -> None:
        self.limit = max(1, int(limit))
        self.enabled = enabled
        #: relation name -> version counter (monotonic; absent = 0).
        self.epochs: dict[str, int] = {}
        #: fingerprint -> (epoch vector at fill time, answer rows).
        self._entries: OrderedDict[
            str, tuple[tuple[tuple[str, int], ...], list[Row]]
        ] = OrderedDict()
        #: sorted body relations -> epoch vector at the last clean
        #: network fill over exactly those relations (see :meth:`fresh`).
        self._fresh: dict[tuple[str, ...], tuple[tuple[str, int], ...]] = {}
        self.hits = 0
        self.misses = 0
        #: Entries dropped because an epoch moved under them (counted
        #: at lookup time and on explicit :meth:`invalidate` sweeps).
        self.invalidations = 0
        self.evictions = 0
        self.stores = 0
        #: Misses answered locally under a standing network stamp.
        self.fresh_served = 0
        #: Network fills withheld: the query ended unclean, or an
        #: invalidation for its relations arrived while it ran.
        self.fills_skipped = 0

    # -- epochs ----------------------------------------------------------

    def epoch(self, relation: str) -> int:
        return self.epochs.get(relation, 0)

    def bump(self, relations: Iterable[str]) -> list[str]:
        """Advance the epoch of every relation in *relations*.

        Returns the relations actually bumped (deduplicated) so the
        node layer can fan invalidations out precisely.
        """
        bumped: list[str] = []
        for relation in relations:
            if relation in bumped:
                continue
            self.epochs[relation] = self.epochs.get(relation, 0) + 1
            bumped.append(relation)
        return bumped

    def bump_all(self) -> None:
        """Conservative flood fallback: advance *every* known epoch and
        drop every entry and stamp (``peer_down``, partition heal, rule change —
        moments when precise dependency tracking cannot be trusted)."""
        for relation in self.epochs:
            self.epochs[relation] += 1
        self._fresh.clear()
        if self._entries:
            self.invalidations += len(self._entries)
            self._entries.clear()

    def vector(self, relations: Iterable[str]) -> tuple[tuple[str, int], ...]:
        """The current epoch vector over *relations* (sorted, deduped)."""
        return tuple(
            (name, self.epochs.get(name, 0)) for name in sorted(set(relations))
        )

    def _moved(self, stamped: tuple[tuple[str, int], ...]) -> bool:
        return any(self.epochs.get(name, 0) != epoch for name, epoch in stamped)

    # -- entries ---------------------------------------------------------

    def get(self, fingerprint: str) -> list[Row] | None:
        """The cached answer for *fingerprint*, or ``None``.

        A present entry whose epoch vector no longer matches is removed
        (counted as an invalidation *and* a miss: the caller pays the
        recompute either way).
        """
        if not self.enabled:
            return None
        entry = self._entries.get(fingerprint)
        if entry is None:
            self.misses += 1
            return None
        stamped, rows = entry
        if self._moved(stamped):
            del self._entries[fingerprint]
            self.invalidations += 1
            self.misses += 1
            return None
        self._entries.move_to_end(fingerprint)
        self.hits += 1
        return rows

    def put(
        self,
        fingerprint: str,
        relations: Iterable[str],
        rows: Sequence[Row],
        *,
        network: bool = False,
    ) -> None:
        """Fill *fingerprint* with *rows*, stamped with the current
        epochs of *relations* (the query body's relations).  A
        *network* fill also stamps the relation set (:meth:`fresh`)."""
        if not self.enabled:
            return
        stamped = self.vector(relations)
        self._entries[fingerprint] = (stamped, list(rows))
        if network:
            self._fresh[tuple(name for name, _epoch in stamped)] = stamped
        self._entries.move_to_end(fingerprint)
        self.stores += 1
        while len(self._entries) > self.limit:
            self._entries.popitem(last=False)
            self.evictions += 1

    def fresh(self, relations: Iterable[str]) -> bool:
        """Whether a clean network fill over exactly *relations* still
        stands: no epoch of theirs has moved since.  A moved stamp is
        dropped, like an entry in :meth:`get`."""
        if not self.enabled:
            return False
        key = tuple(sorted(set(relations)))
        stamped = self._fresh.get(key)
        if stamped is None:
            return False
        if self._moved(stamped):
            del self._fresh[key]
            return False
        return True

    def invalidate(self, relations: Iterable[str]) -> int:
        """Bump *relations* and eagerly sweep the entries (and the
        relation-set stamps) they stamp.

        Lazy validation in :meth:`get` would catch these anyway; the
        eager sweep keeps ``len()`` honest and frees the rows.  Returns
        how many entries were dropped.
        """
        bumped = set(self.bump(relations))
        stale = [
            fingerprint
            for fingerprint, (stamped, _rows) in self._entries.items()
            if any(name in bumped for name, _epoch in stamped)
        ]
        for fingerprint in stale:
            del self._entries[fingerprint]
        self.invalidations += len(stale)
        for key in [key for key in self._fresh if bumped.intersection(key)]:
            del self._fresh[key]
        return len(stale)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._entries

    def counters(self) -> dict[str, int]:
        """The §4-style lifetime counters ``lifetime_totals()`` merges."""
        return {
            "cache_hits": self.hits,
            "cache_misses": self.misses,
            "cache_invalidations": self.invalidations,
            "cache_evictions": self.evictions,
            "cache_entries": len(self._entries),
            "cache_fresh_served": self.fresh_served,
            "cache_fills_skipped": self.fills_skipped,
        }

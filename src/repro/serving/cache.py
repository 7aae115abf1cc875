"""Session-level serving cache (paper §III-F1).

The deployed AW-MoE evaluates the gate network **once per user/query
session** because the gate reads only the behaviour sequence and the query —
never the candidate item.  Under production traffic the same users issue
many queries (and re-issue the same query category while paginating), so the
per-session gate vector and the user's half of the feature dump are ideal
cache entries:

* gate vectors are keyed ``(user, query_category)`` — a hit skips the gate
  network entirely (the > 10x resource saving of §III-F);
* user states (:class:`~repro.data.features.UserState`: the history-only
  feature tables plus the behaviour encoding) are keyed ``user`` — a hit
  leaves feature assembly only the per-candidate join, done once per flush.

Both live in bounded LRU stores with hit/miss/eviction accounting so the
metrics sink (:mod:`repro.serving.metrics`) can report cache effectiveness.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable, Optional, Tuple

import numpy as np

from repro.data.features import UserState

__all__ = ["CacheStats", "LRUCache", "SessionCache"]


@dataclass
class CacheStats:
    """Hit/miss/eviction counters for one cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups

    def merge(self, other: "CacheStats") -> "CacheStats":
        """Counters summed with ``other`` (for cross-shard aggregation)."""
        return CacheStats(
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            evictions=self.evictions + other.evictions,
        )

    def reset(self) -> None:
        self.hits = self.misses = self.evictions = 0


class LRUCache:
    """Bounded least-recently-used map with lookup accounting.

    ``get`` refreshes recency; ``put`` evicts the least recently used entry
    once ``capacity`` is exceeded.  ``capacity <= 0`` disables storage (every
    lookup misses), which lets benchmarks run the no-cache baseline through
    identical code paths.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = int(capacity)
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        """Membership test without touching recency or stats."""
        return key in self._entries

    def get(self, key: Hashable) -> Optional[Any]:
        """Value for ``key`` (refreshing recency), or ``None`` on a miss."""
        if key in self._entries:
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return self._entries[key]
        self.stats.misses += 1
        return None

    def put(self, key: Hashable, value: Any) -> None:
        """Insert/refresh ``key``; evicts the LRU entry when over capacity."""
        if self.capacity <= 0:
            return
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = value
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def pop(self, key: Hashable) -> None:
        """Remove ``key`` if present (no stats impact)."""
        self._entries.pop(key, None)

    def keys(self) -> Tuple[Hashable, ...]:
        """Current keys, least recently used first (no stats impact)."""
        return tuple(self._entries.keys())

    def clear(self) -> None:
        self._entries.clear()


class SessionCache:
    """The serving stack's two cooperating LRU stores, each holding up to
    ``capacity`` entries: per-(user, query-category) gate vectors and
    per-user states."""

    def __init__(self, capacity: int) -> None:
        self.gates = LRUCache(capacity)
        self.behaviors = LRUCache(capacity)
        #: Model generation the cached gate vectors belong to.  Bumped by
        #: :meth:`invalidate_all` on every model hot-swap; consumers that
        #: hold a gate across a flush boundary (the micro-batcher) record
        #: the generation at lookup time and discard the vector if it no
        #: longer matches — a gate produced by an old model must never be
        #: applied under a new one.
        self.generation = 0

    # -- gate vectors ---------------------------------------------------
    def get_gate(self, user: int, query_category: int) -> Optional[np.ndarray]:
        return self.gates.get((user, query_category))

    def put_gate(self, user: int, query_category: int, gate: np.ndarray) -> None:
        self.gates.put((user, query_category), gate)

    # -- user states (feature tables + behaviour encoding) ---------------
    def get_behavior(self, user: int) -> Optional[UserState]:
        return self.behaviors.get(user)

    def put_behavior(self, user: int, state: UserState) -> None:
        self.behaviors.put(user, state)

    # -- accounting ------------------------------------------------------
    @property
    def gate_hit_rate(self) -> float:
        """Gate-vector hit rate — the headline §III-F cache metric."""
        return self.gates.stats.hit_rate

    def reset_stats(self) -> None:
        self.gates.stats.reset()
        self.behaviors.stats.reset()

    def invalidate_all(self) -> None:
        """Drop every cached gate vector and bump :attr:`generation`.

        Called on model hot-swap (:meth:`repro.serving.shard.ShardWorker.
        swap`): gate vectors are a function of the model's weights, so
        none may survive a version switch.  User states are pure data
        features (independent of the model) and are kept.
        """
        self.gates.clear()
        self.generation += 1

    def invalidate_user(self, user: int) -> None:
        """Drop every entry derived from ``user``'s behaviour sequence.

        Production systems call this when the user's history changes (a new
        click invalidates the tables, the encoding and all cached gate vectors).
        """
        self.behaviors.pop(user)
        for key in self.gates.keys():
            if key[0] == user:
                self.gates.pop(key)

"""LRU cache for 1-vs-all score vectors.

Caching the ``(num_entities,)`` score vector of a ``(entity, relation,
side)`` query amortises its sweep across requests that repeat the key.
That pays only when keys repeat often: on graph-drawn traffic
(perfbench's exact-serving mix, 24,000 entities) a 4,096-entry cache hit
4-5 % of lookups while holding 786 MB, so
:class:`~repro.serving.predictor.LinkPredictor` uses it only when given
``cache_size > 0``.  The cache is a plain ordered-dict LRU; invalidation
and hit/miss/eviction counting are the caller's job (the predictor
clears it whenever the model's ``scoring_version`` changes and counts
each call's outcomes into its metrics registry).
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.errors import ServingError

#: Cache key: (entity id, relation id, side).
CacheKey = tuple[int, int, str]


class LRUScoreCache:
    """Least-recently-used cache mapping query keys to score vectors.

    Stored vectors are marked read-only so a cached array handed to one
    request cannot be corrupted by another.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ServingError("cache capacity must be >= 1")
        self.capacity = int(capacity)
        self._entries: OrderedDict[CacheKey, np.ndarray] = OrderedDict()

    def get(self, key: CacheKey) -> np.ndarray | None:
        """The cached vector for *key* (refreshing its recency), or None."""
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def put(self, key: CacheKey, scores: np.ndarray) -> None:
        """Insert (or refresh) *key*, evicting the oldest entry when full."""
        frozen = np.array(scores, dtype=np.float64, copy=True)
        frozen.setflags(write=False)
        if key in self._entries:
            self._entries.move_to_end(key)
        elif len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
        self._entries[key] = frozen

    def clear(self) -> None:
        """Drop every entry."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: object) -> bool:
        return key in self._entries

    def __repr__(self) -> str:
        return f"LRUScoreCache(size={len(self)}/{self.capacity})"

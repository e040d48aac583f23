"""Memoization of wrapper ``plan()`` results (FlashInfer's plan/run split).

FlashInfer plans once per generation step into a fixed-size workspace
(§3.3.1, App. D); :class:`PlanCache` replays a plan when a batch shape recurs
across steps.  A hit skips choosing the plan (the wrapper's ``_choose``:
``plan_schedule`` and the prices around it) and ``run`` re-prices it.  The
key holds every ``plan_schedule`` input and the stack flag; of what else the
prices read, only the page size could vary on one executor, and :meth:`bind`
pins it, so a cached plan is *identical* to the one chosen again.

Most shapes never recur (page tables keep growing), so a key's first miss
stores only its fingerprint (``hash(key)``) and its second the plan: one plan
per shape seen twice stays resident, one integer per shape seen once.  A hit
needs the full key equal, so a fingerprint collision can only store a plan
early, never return a wrong one.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable, Optional, Tuple


class PlanCache:
    """LRU memo of :class:`repro.core.SchedulePlan` objects; ``capacity``
    bounds the resident plans and, apart, the fingerprints."""

    def __init__(self, capacity: int = 1024):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self._sighted: "OrderedDict[int, None]" = OrderedDict()
        #: KV-pool geometry of the resident plans, which do not key on it
        #: (lengths are in tokens): a change flushes the cache.
        self._scope: Optional[Tuple] = None

    def __len__(self) -> int:
        return len(self._entries)

    def bind(self, page_size: int, num_pool_pages: int) -> None:
        """Invalidate resident plans when the pool geometry changes."""
        scope = (int(page_size), int(num_pool_pages))
        if self._scope is not None and self._scope != scope:
            self.invalidate()
        self._scope = scope

    def invalidate(self) -> None:
        """Drop every resident plan and fingerprint."""
        self._entries.clear()
        self._sighted.clear()

    def get(self, key: Hashable):
        """Return the cached plan for ``key`` (refreshing its recency), or
        ``None``."""
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def put(self, key: Hashable, plan) -> None:
        """Store ``plan`` if ``key`` was put before, else fingerprint it."""
        table, fingerprint = self._entries, hash(key)
        if fingerprint in self._sighted:
            del self._sighted[fingerprint]
        else:  # a first sighting: record the fingerprint only
            table, key, plan = self._sighted, fingerprint, None
        table[key] = plan
        table.move_to_end(key)
        while len(table) > self.capacity:
            table.popitem(last=False)

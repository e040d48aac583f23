"""Memoization of wrapper ``plan()`` results (FlashInfer's plan/run split).

FlashInfer computes one load-balanced schedule per batch shape on the host
and replays it across all layers of the step (§3.3.1, §3.4): the plan
depends only on sequence lengths and scheduler geometry, both identical
for every layer, so one CPU ``plan_schedule`` serves ``num_layers``
kernel launches.  :class:`PlanCache` makes that replay explicit and — when
the same batch shape recurs across steps — extends it across steps too.

Correctness: a hit skips choosing the plan (the wrapper's ``_choose``:
``plan_schedule`` and the prices around it), so ``run`` re-prices it.  The
key holds every ``plan_schedule`` input and the stack flag; of what else the
prices read, only the page size could vary on one executor, and :meth:`bind`
pins it, so a cached plan is *identical* to the one chosen again.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable, Optional, Tuple


class PlanCache:
    """Bounded LRU memo of :class:`repro.core.SchedulePlan` objects.

    ``capacity`` is the most resident plans; the least-recently-used entry
    is evicted.
    """

    def __init__(self, capacity: int = 1024):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        #: KV-pool geometry the resident plans were computed under; plans
        #: do not key on it (lengths are in tokens, not pages), so a
        #: geometry change conservatively flushes the cache.
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
        """Drop every resident plan."""
        self._entries.clear()

    def get(self, key: Hashable):
        """Return the cached plan for ``key`` (refreshing its recency), or
        ``None``."""
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def put(self, key: Hashable, plan) -> None:
        self._entries[key] = plan
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

"""Memoization of wrapper ``plan()`` results (FlashInfer's plan/run split).

FlashInfer computes one load-balanced schedule per batch shape on the host
and replays it across all layers of the step (§3.3.1, §3.4): the plan
depends only on sequence lengths and scheduler geometry, both identical
for every layer, so one CPU ``plan_schedule`` serves ``num_layers``
kernel launches.  :class:`PlanCache` makes that replay explicit and — when
the same batch shape recurs across steps — extends it across steps too.

Accounting is per *launch*, mirroring plan-once/run-per-layer: a shape
planned for an ``L``-layer model scores one miss (the single CPU plan
actually computed) plus ``L - 1`` hits (the layers that replayed it); a
shape already resident scores ``L`` hits.  With ``replay_factor=1`` (the
standalone API wrappers) the counters degenerate to plain lookup
hit/miss counts.

Correctness: a hit skips only the ``plan_schedule`` recomputation.  The
cache key captures every ``plan_schedule`` input (exact per-group
lengths, tile geometry, head count, split-KV and causal flags, position
offsets), so a cached plan is *identical* — not merely similar — to the
plan that would have been recomputed.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Hashable, Optional, Tuple


class PlanCache:
    """Bounded LRU memo of :class:`repro.core.SchedulePlan` objects.

    Parameters
    ----------
    capacity:
        Maximum resident plans; the least-recently-used entry is evicted.
    replay_factor:
        Launches served per plan lookup (the model's layer count inside
        the serving engine; 1 for standalone wrapper use).
    """

    def __init__(self, capacity: int = 1024, replay_factor: int = 1):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if replay_factor < 1:
            raise ValueError("replay_factor must be >= 1")
        self.capacity = capacity
        self.replay_factor = replay_factor
        self.hits = 0
        self.misses = 0
        self.evictions = 0
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
        """Drop every resident plan (counters are preserved)."""
        self._entries.clear()

    def get(self, key: Hashable):
        """Return the cached plan for ``key``, or ``None`` (and charge the
        miss plus the ``replay_factor - 1`` replayed-layer hits)."""
        entry = self._entries.get(key)
        if entry is not None:
            self.hits += self.replay_factor
            self._entries.move_to_end(key)
            return entry
        self.misses += 1
        self.hits += self.replay_factor - 1
        return None

    def put(self, key: Hashable, plan) -> None:
        self._entries[key] = plan
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def stats(self, since: Tuple[int, int] = (0, 0)) -> Dict[str, float]:
        """Counters as ``plan_cache_*`` floats for a metrics summary.

        ``since`` is a ``(hits, misses)`` snapshot; the returned counts
        are deltas against it, so a per-run summary from a long-lived
        cache reports only that run's traffic.
        """
        hits = self.hits - since[0]
        misses = self.misses - since[1]
        total = hits + misses
        return {
            "plan_cache_hits": float(hits),
            "plan_cache_misses": float(misses),
            "plan_cache_hit_rate": hits / total if total else 0.0,
            "plan_cache_entries": float(len(self._entries)),
        }

"""Load-balanced work scheduling (paper Algorithm 1, §3.3.1).

The scheduler turns per-request sequence lengths into:

1. a **work queue per CTA** — query tiles × KV chunks × KV heads, assigned
   longest-first through a min-cost priority queue so every CTA finishes at
   roughly the same time (Stream-K-inspired, but without atomic aggregation:
   LLM serving needs deterministic outputs, so the aggregation order is
   planned, not raced);
2. an **index mapping between partial and final outputs** — tiles whose KV
   was split into multiple chunks produce partial attention states in the
   workspace and a merge entry records which slots contract (in ascending
   ``kv_start`` order, hence deterministically) into which output rows.

Tiles whose KV fits one chunk bypass the workspace and write straight to the
final output (the *writethrough* optimization, Appendix D.2).

The scheduler runs on CPU once per generation step; the plan is reusable
across layers with the same sequence lengths (§3.3.1).  It is built as the
index arrays the workspace holds (:class:`SchedulePlan`), never as objects.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, fields
from functools import cached_property
from operator import attrgetter
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.sparse.bsr import ceil_div

#: Default cost-model hyperparameters (α, β) of Algorithm 1: the cost of a
#: tile is ``α·l_q + β·l_kv``.  KV traffic dominates attention time, so β
#: is weighted by the relative byte volume of a KV token vs a query row.
DEFAULT_ALPHA = 1.0
DEFAULT_BETA = 2.0

#: Columns of the work-item table (``int64[n, ITEM_FIELDS]``, in
#: :class:`WorkItem` field order): what the planner emits, the workspace holds
#: and the cost simulation reads.
ITEM_FIELDS = 9
COL_MAPPING, COL_GROUP, COL_QTILE, COL_QSTART, COL_QROWS = 0, 1, 2, 3, 4
COL_KVSTART, COL_KVSTOP, COL_KVHEAD, COL_SLOT = 5, 6, 7, 8
#: Columns of the merge table (``int64[m, MERGE_FIELDS]``) and the item
#: columns of the split tile they are copied from.
MERGE_FIELDS = 5
MERGE_MAPPING, MERGE_GROUP, MERGE_QSTART, MERGE_QROWS, MERGE_KVHEAD = range(5)
MERGE_FROM_ITEM = [COL_MAPPING, COL_GROUP, COL_QSTART, COL_QROWS, COL_KVHEAD]


@dataclass(frozen=True)
class WorkItem:
    """One unit of kernel work: a query tile × KV chunk × KV head.

    ``partial_slot == -1`` means writethrough (single-chunk tile writes the
    final output directly).
    """

    mapping_idx: int
    group: int
    q_tile: int  # tile index within the group
    q_start: int  # first query row within the group
    q_rows: int  # valid query rows in this tile
    kv_start: int
    kv_stop: int
    kv_head: int
    partial_slot: int

    @property
    def kv_len(self) -> int:
        return self.kv_stop - self.kv_start


@dataclass(frozen=True)
class MergeEntry:
    """Contract ``slots`` (ascending kv order) into one output tile."""

    mapping_idx: int
    group: int
    q_start: int
    q_rows: int
    kv_head: int
    slots: Tuple[int, ...]


_item_row = attrgetter(*(f.name for f in fields(WorkItem)))
_merge_row = attrgetter("mapping_idx", "group", "q_start", "q_rows", "kv_head")


@dataclass(eq=False)
class SchedulePlan:
    """The plan for one kernel launch of one mapping: the index tables
    ``BatchAttentionWrapper.plan`` copies into the workspace (App. D.1).

    * ``items`` — one ``COL_*`` row per work item, ordered by CTA and, within
      a CTA, by assignment rank (the order the CTA drains them);
    * ``cta_indptr`` — CTA ``c`` owns rows ``cta_indptr[c]:cta_indptr[c+1]``;
    * ``merge_meta`` / ``merge_indptr`` / ``merge_slots`` — CSR: merge ``i``
      (a ``MERGE_*`` row) contracts partial slots
      ``merge_slots[merge_indptr[i]:merge_indptr[i+1]]``, ascending in KV.

    ``cta_queues`` and ``merges`` are object views of the tables, built on
    first use, for inspection and the per-item cost model only.
    """

    items: np.ndarray
    cta_indptr: np.ndarray
    merge_meta: np.ndarray
    merge_indptr: np.ndarray
    merge_slots: np.ndarray
    num_partial_slots: int
    q_tile_size: int
    kv_chunk_size: int

    @classmethod
    def from_queues(
        cls,
        cta_queues: Sequence[Sequence[WorkItem]],
        merges: Sequence[MergeEntry],
        num_partial_slots: int,
        q_tile_size: int,
        kv_chunk_size: int,
    ) -> "SchedulePlan":
        """Serialize object queues into the tables (baselines and tests)."""
        rows = [_item_row(w) for q in cta_queues for w in q]
        return cls(
            items=np.array(rows, dtype=np.int64).reshape(len(rows), ITEM_FIELDS),
            cta_indptr=_indptr([len(q) for q in cta_queues]),
            merge_meta=np.array(
                [_merge_row(m) for m in merges], dtype=np.int64
            ).reshape(len(merges), MERGE_FIELDS),
            merge_indptr=_indptr([len(m.slots) for m in merges]),
            merge_slots=np.array([s for m in merges for s in m.slots], dtype=np.int64),
            num_partial_slots=num_partial_slots,
            q_tile_size=q_tile_size,
            kv_chunk_size=kv_chunk_size,
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, SchedulePlan) and all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name))
            for f in fields(SchedulePlan)
        )

    @cached_property
    def cta_queues(self) -> List[List[WorkItem]]:
        rows, ptr = self.items.tolist(), self.cta_indptr.tolist()
        return [[WorkItem(*r) for r in rows[a:b]] for a, b in zip(ptr, ptr[1:])]

    @cached_property
    def merges(self) -> List[MergeEntry]:
        slots, ptr = self.merge_slots.tolist(), self.merge_indptr.tolist()
        return [
            MergeEntry(*m, tuple(slots[a:b]))
            for m, a, b in zip(self.merge_meta.tolist(), ptr, ptr[1:])
        ]

    @property
    def num_work_items(self) -> int:
        return len(self.items)

    @property
    def cta_of_item(self) -> np.ndarray:
        """Owning CTA of each ``items`` row."""
        ptr = self.cta_indptr
        return np.repeat(np.arange(ptr.size - 1), ptr[1:] - ptr[:-1])

    @property
    def load_balance(self) -> float:
        """Mean/max of per-CTA modelled cost (1.0 = perfect balance)."""
        it = self.items
        num_ctas = self.cta_indptr.size - 1
        cost = DEFAULT_ALPHA * it[:, COL_QROWS] + DEFAULT_BETA * (
            it[:, COL_KVSTOP] - it[:, COL_KVSTART]
        )
        # Integer-valued float sums: exact in any summation order.
        per_cta = np.bincount(self.cta_of_item, weights=cost, minlength=num_ctas)
        mx = float(per_cta.max(initial=0.0))
        return float(per_cta.sum()) / (num_ctas * mx) if mx > 0 else 1.0


def _indptr(counts) -> np.ndarray:
    """CSR row pointer ``[0, c0, c0+c1, ...]`` of per-row ``counts``."""
    indptr = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr


def _assign_ctas(inc_q: np.ndarray, inc_kv: np.ndarray, num_ctas: int) -> np.ndarray:
    """Steps 6-13: the CTA of each item under the min-cost priority queue,
    items given in rank order by their cost terms ``α·l_q`` and ``β·l_kv``.

    While untouched CTAs remain at cost 0.0 the heap pops them in index
    order, so the leading items go to CTAs ``0..`` directly — up to the first
    item whose own cost is not positive (its CTA would be popped again).  Only
    the tail runs through the heap, with the sum associated as
    ``(cost + α·l_q) + β·l_kv`` so ties break as they always have.
    """
    n = inc_q.size
    head = min(n, num_ctas)
    first = inc_q[:head] + inc_kv[:head]
    nonpos = np.flatnonzero(~(first > 0))
    if nonpos.size:
        head = int(nonpos[0]) + 1
    cta = np.empty(n, dtype=np.int64)
    cta[:head] = np.arange(head)
    if head < n:
        heap = list(zip(first[:head].tolist(), range(head)))
        heap += [(0.0, c) for c in range(head, num_ctas)]
        heapq.heapify(heap)
        tail = []
        for a, b in zip(inc_q[head:].tolist(), inc_kv[head:].tolist()):
            cost, c = heap[0]
            heapq.heapreplace(heap, ((cost + a) + b, c))
            tail.append(c)
        cta[head:] = tail
    return cta


def _break_even_chunk(
    tiles: np.ndarray,
    kv_lens: np.ndarray,
    l_kv: int,
    break_even_kv: int,
    granularity: int,
    num_ctas: int,
) -> int:
    """Step 3's release: ``l_kv`` raised by ``granularity`` steps to the
    first step at or past ``break_even_kv``, or to the first whose items —
    ``tiles[g]`` tiles of group ``g``, each cut into its KV chunks — fit
    ``num_ctas``.  All candidate steps are counted in one pass."""
    steps = l_kv + granularity * np.arange(ceil_div(break_even_kv - l_kv, granularity) + 1)
    chunks = np.maximum(-(-kv_lens // steps[:, None]), 1)
    fits = chunks @ tiles <= num_ctas
    fits[-1] = True
    return int(steps[fits.argmax()])


def _build_plan(
    qo_lens: np.ndarray,
    kv_lens: np.ndarray,
    q_tile_size: int,
    num_ctas: int,
    num_kv_heads: int,
    mapping_idx: int,
    l_kv: int,
    assign: Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]],
) -> SchedulePlan:
    """Steps 4-13 over arrays, for KV chunks of at most ``l_kv``.

    Items are enumerated ``group → q_tile → kv_head → chunk``; a split tile
    takes consecutive partial slots in that order, so ``merge_slots`` is an
    ``arange`` cut by ``merge_indptr``.  ``assign(table)`` returns ``(order,
    cta)``: the enumerated rows in rank order and the CTA of each rank.
    """
    # One row per (group, q_tile, kv_head), already in item-table layout.
    per_group = np.where(qo_lens > 0, -(-qo_lens // q_tile_size), 0) * num_kv_heads
    group = np.repeat(np.arange(qo_lens.size), per_group)
    within = np.arange(group.size) - np.repeat(np.cumsum(per_group) - per_group, per_group)
    tiles = np.empty((group.size, ITEM_FIELDS), dtype=np.int64)
    tiles[:, COL_MAPPING] = mapping_idx
    tiles[:, COL_GROUP] = group
    tiles[:, COL_QTILE], tiles[:, COL_KVHEAD] = np.divmod(within, num_kv_heads)
    q_start = tiles[:, COL_QTILE] * q_tile_size
    tiles[:, COL_QSTART] = q_start
    tiles[:, COL_QROWS] = np.minimum(q_tile_size, qo_lens[group] - q_start)
    lkv = kv_lens[group]
    n_chunks = np.maximum(-(-lkv // l_kv), 1)

    # Expand each row into its KV chunks; only split tiles get partial slots.
    row = np.repeat(np.arange(group.size), n_chunks)
    table = tiles[row]
    kv_start = (np.arange(row.size) - np.repeat(np.cumsum(n_chunks) - n_chunks, n_chunks)) * l_kv
    table[:, COL_KVSTART] = kv_start
    table[:, COL_KVSTOP] = np.minimum(kv_start + l_kv, lkv[row])
    split_tile = n_chunks > 1
    split = split_tile[row]
    table[:, COL_SLOT] = np.where(split, np.cumsum(split) - 1, -1)
    merge_indptr = _indptr(n_chunks[split_tile])
    n_slots = int(merge_indptr[-1])

    # Lay the rows out per CTA; queue order within a CTA is rank order.
    order, cta = assign(table)
    return SchedulePlan(
        items=table[order[np.argsort(cta, kind="stable")]],
        cta_indptr=_indptr(np.bincount(cta, minlength=num_ctas)),
        merge_meta=tiles[split_tile][:, MERGE_FROM_ITEM],
        merge_indptr=merge_indptr,
        merge_slots=np.arange(n_slots, dtype=np.int64),
        num_partial_slots=n_slots,
        q_tile_size=q_tile_size,
        kv_chunk_size=l_kv,
    )


def plan_schedule(
    qo_lens: Sequence[int],
    kv_lens: Sequence[int],
    q_tile_size: int,
    num_ctas: int,
    num_kv_heads: int = 1,
    mapping_idx: int = 0,
    alpha: float = DEFAULT_ALPHA,
    beta: float = DEFAULT_BETA,
    min_kv_chunk: int = 64,
    chunk_granularity: int = 64,
    split_kv: bool = True,
    causal: bool = False,
    q_pos_offset: Optional[Sequence[int]] = None,
    kv_pos_offset: Optional[Sequence[int]] = None,
    break_even_kv: int = 0,
) -> SchedulePlan:
    """Algorithm 1: balanced assignment of attention work to CTAs.

    Parameters
    ----------
    qo_lens, kv_lens:
        Per-group query and KV lengths for one mapping.
    q_tile_size:
        The compile-time ``T_q``; block rows ``B_r`` align with it.
    num_ctas:
        Fixed persistent grid size (CUDAGraph requires it constant).
    num_kv_heads:
        KV heads are an extra parallel dimension of the work (Algorithm 1
        omits it "for simplicity"; we schedule it explicitly).
    min_kv_chunk:
        Lower bound on the KV chunk size so chunks stay big enough to be
        bandwidth-efficient.
    chunk_granularity:
        Chunk sizes round up to this granularity (the kernel's KV tile
        size) so no chunk is a sliver smaller than one inner tile.
    split_kv:
        Disable to emulate schedulers without KV splitting (ablations).
    causal / q_pos_offset / kv_pos_offset:
        When causal, each work item's cost weighs only the KV *visible* to
        its query tile (a prefill tile near the top of the triangle does a
        fraction of the last tile's work).  Offsets default to the
        decode/prefill convention (queries are the trailing positions).
    break_even_kv:
        The KV length whose bytes equal what one more split costs: the
        partial state ``(O, LSE)`` of the largest tile, written in fp32 by
        the attention kernel and read back by the contraction (App. D.3).
        Algorithm 1 prices a split as free; a positive value raises its
        ``L_kv`` in ``chunk_granularity`` steps until it reaches this length
        or the items fit one wave (``items ≤ num_ctas``), whichever comes
        first — a split below break-even is kept only where it feeds a CTA
        that would otherwise sit idle.  0 is Algorithm 1 as written.
    """
    qo_lens = np.asarray(qo_lens, dtype=np.int64)
    kv_lens = np.asarray(kv_lens, dtype=np.int64)
    if qo_lens.shape != kv_lens.shape:
        raise ValueError("qo_lens and kv_lens must align")
    if q_tile_size <= 0 or num_ctas <= 0 or num_kv_heads <= 0:
        raise ValueError("q_tile_size, num_ctas and num_kv_heads must be positive")

    # Step 3: maximum KV chunk size L_kv from total tile-KV work over CTAs.
    n_tiles = np.where(qo_lens > 0, -(-qo_lens // q_tile_size), 0)
    total_tile_kv = int((n_tiles * kv_lens).sum()) * num_kv_heads
    if split_kv and total_tile_kv > 0:
        l_kv = max(ceil_div(total_tile_kv, num_ctas), min_kv_chunk)
        l_kv = ceil_div(l_kv, chunk_granularity) * chunk_granularity
        if l_kv < break_even_kv:
            l_kv = _break_even_chunk(
                n_tiles * num_kv_heads, kv_lens, l_kv, break_even_kv,
                chunk_granularity, num_ctas,
            )
    else:
        l_kv = max(int(kv_lens.max(initial=0)), 1)

    def longest_first(table: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        # Step 5 (stable: ties broken by creation order), weighing the KV
        # positions an item actually computes over.
        weights = table[:, COL_KVSTOP] - table[:, COL_KVSTART]
        if causal:
            group = table[:, COL_GROUP]
            q_off = kv_lens - qo_lens if q_pos_offset is None else np.asarray(q_pos_offset)
            kv_off = 0 if kv_pos_offset is None else np.asarray(kv_pos_offset)[group]
            # One past the KV index the tile's last query row sees.
            vis_end = q_off[group] + table[:, COL_QSTART] + table[:, COL_QROWS] - kv_off
            weights = np.clip(vis_end - table[:, COL_KVSTART], 0, weights)
        order = np.argsort(-weights, kind="stable")
        return order, _assign_ctas(
            alpha * table[order, COL_QROWS], beta * weights[order], num_ctas
        )

    return _build_plan(
        qo_lens, kv_lens, q_tile_size, num_ctas, num_kv_heads, mapping_idx, l_kv,
        longest_first,
    )


def plan_signature(
    qo_lens: Sequence[int],
    kv_lens: Sequence[int],
    q_tile_size: int,
    num_ctas: int,
    num_kv_heads: int = 1,
    mapping_idx: int = 0,
    alpha: float = DEFAULT_ALPHA,
    beta: float = DEFAULT_BETA,
    min_kv_chunk: int = 64,
    chunk_granularity: int = 64,
    split_kv: bool = True,
    causal: bool = False,
    q_pos_offset: Optional[Sequence[int]] = None,
    kv_pos_offset: Optional[Sequence[int]] = None,
    break_even_kv: int = 0,
) -> Tuple:
    """Hashable key over every :func:`plan_schedule` input.

    Two calls with equal signatures produce identical
    :class:`SchedulePlan` objects (the scheduler is deterministic), which
    is what lets a plan cache (§3.3.1: the plan is reusable across layers
    with the same sequence lengths) substitute a cached plan without any
    behavioral difference.  Exact per-group lengths are captured — not a
    bucketed shape class — so a hit can never return a merely-similar
    plan.
    """

    def _bytes(arr) -> Optional[bytes]:
        if arr is None:
            return None
        return np.ascontiguousarray(np.asarray(arr, dtype=np.int64)).tobytes()

    return (
        _bytes(qo_lens), _bytes(kv_lens), int(q_tile_size), int(num_ctas),
        int(num_kv_heads), int(mapping_idx), float(alpha), float(beta),
        int(min_kv_chunk), int(chunk_granularity), bool(split_kv), bool(causal),
        _bytes(q_pos_offset), _bytes(kv_pos_offset), int(break_even_kv),
    )


def plan_unbalanced(
    qo_lens: Sequence[int],
    kv_lens: Sequence[int],
    q_tile_size: int,
    num_ctas: int,
    num_kv_heads: int = 1,
    mapping_idx: int = 0,
) -> SchedulePlan:
    """Baseline scheduler: one whole-KV work item per tile, dealt in order.

    No KV splitting, no cost balancing — items go to CTAs round-robin in
    enumeration order, the discipline of a conventional grid launch where
    blocks map to (request, tile, head) coordinates.  Used by ablations and
    the FlashAttention-library baseline.
    """
    qo_lens = np.asarray(qo_lens, dtype=np.int64)
    kv_lens = np.asarray(kv_lens, dtype=np.int64)
    l_kv = max(int(kv_lens.max(initial=0)), 1)  # no tile ever splits

    def round_robin(table: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        rank = np.arange(len(table))
        return rank, rank % num_ctas

    return _build_plan(
        qo_lens, kv_lens, q_tile_size, num_ctas, num_kv_heads, mapping_idx, l_kv,
        round_robin,
    )

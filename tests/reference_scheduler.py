"""The per-object Algorithm 1 planner, kept as the test oracle.

``plan_schedule`` and ``plan_unbalanced`` below are the implementations
``repro.core.scheduler`` shipped before the planner became array-shaped,
moved here verbatim (only the plan class is renamed; a causal tile's weight
has since read its last row's own KV length): one frozen ``WorkItem`` per
item, a Python sort, a heap over every item.
``reference_tables`` is the matching flattening the wrapper used to do.
``tests/test_scheduler_equivalence.py`` requires the array planner to emit
identical tables.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.scheduler import DEFAULT_ALPHA, DEFAULT_BETA, MergeEntry, WorkItem
from repro.sparse.bsr import ceil_div


@dataclass
class ReferencePlan:
    """The pre-array ``SchedulePlan``: object queues are its state."""

    cta_queues: List[List[WorkItem]]
    merges: List[MergeEntry]
    num_partial_slots: int
    q_tile_size: int
    kv_chunk_size: int

    @property
    def num_work_items(self) -> int:
        return sum(len(q) for q in self.cta_queues)

    @property
    def load_balance(self) -> float:
        """Mean/max of per-CTA modelled cost (1.0 = perfect balance)."""
        costs = [
            sum(DEFAULT_ALPHA * w.q_rows + DEFAULT_BETA * w.kv_len for w in q)
            for q in self.cta_queues
        ]
        mx = max(costs) if costs else 0.0
        return (sum(costs) / (len(costs) * mx)) if mx > 0 else 1.0


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
    causal_kv_lens: Optional[Sequence[int]] = None,
) -> ReferencePlan:
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
    causal / causal_kv_lens:
        When causal, each work item's cost weighs only the KV *visible* to
        its query tile (a prefill tile near the top of the triangle does a
        fraction of the last tile's work): ``causal_kv_lens`` gives, per
        query row in group order, how many of its group's KV slots it sees.
        It defaults to the decode/prefill convention (queries are the
        trailing positions).
    """
    qo_lens = np.asarray(qo_lens, dtype=np.int64)
    kv_lens = np.asarray(kv_lens, dtype=np.int64)
    if qo_lens.shape != kv_lens.shape:
        raise ValueError("qo_lens and kv_lens must align")
    if q_tile_size <= 0 or num_ctas <= 0 or num_kv_heads <= 0:
        raise ValueError("q_tile_size, num_ctas and num_kv_heads must be positive")

    # Step 3: maximum KV chunk size L_kv from total tile-KV work over CTAs.
    n_tiles_per_group = np.where(qo_lens > 0, -(-qo_lens // q_tile_size), 0)
    total_tile_kv = int((n_tiles_per_group * kv_lens).sum()) * num_kv_heads
    if split_kv and total_tile_kv > 0:
        l_kv = max(ceil_div(total_tile_kv, num_ctas), min_kv_chunk)
        l_kv = ceil_div(l_kv, chunk_granularity) * chunk_granularity
    else:
        l_kv = max(int(kv_lens.max(initial=0)), 1)

    # Each group's rows, in order: how many KV slots each row sees.
    row_kv: List[List[int]] = []
    for g in range(qo_lens.size):
        lq, lkv = int(qo_lens[g]), int(kv_lens[g])
        if causal_kv_lens is None:  # row i sits at position lkv - lq + i
            row_kv.append([min(max(lkv - lq + i + 1, 0), lkv) for i in range(lq)])
        else:
            first = sum(int(n) for n in qo_lens[:g])
            row_kv.append([int(causal_kv_lens[first + i]) for i in range(lq)])

    def visible_kv(w: WorkItem) -> int:
        """KV positions the item actually computes over (causal-aware)."""
        if not causal:
            return w.kv_len
        vis_end = row_kv[w.group][w.q_start + w.q_rows - 1]  # the tile's last row
        return int(np.clip(vis_end - w.kv_start, 0, w.kv_len))

    # Step 4: enumerate work items, assigning partial slots to split tiles.
    items: List[WorkItem] = []
    merges: List[MergeEntry] = []
    next_slot = 0
    for g in range(qo_lens.size):
        lq, lkv = int(qo_lens[g]), int(kv_lens[g])
        if lq == 0:
            continue
        n_tiles = ceil_div(lq, q_tile_size)
        n_chunks = max(ceil_div(lkv, l_kv), 1)
        for t in range(n_tiles):
            q_start = t * q_tile_size
            q_rows = min(q_tile_size, lq - q_start)
            for h in range(num_kv_heads):
                if n_chunks == 1 or lkv == 0:
                    items.append(
                        WorkItem(mapping_idx, g, t, q_start, q_rows, 0, lkv, h, -1)
                    )
                    continue
                slots = []
                for c in range(n_chunks):
                    k0 = c * l_kv
                    k1 = min(k0 + l_kv, lkv)
                    items.append(
                        WorkItem(
                            mapping_idx, g, t, q_start, q_rows, k0, k1, h, next_slot
                        )
                    )
                    slots.append(next_slot)
                    next_slot += 1
                merges.append(
                    MergeEntry(mapping_idx, g, q_start, q_rows, h, tuple(slots))
                )

    # Step 5: longest-first order (stable: ties broken by creation order).
    weights = [visible_kv(w) for w in items]
    order = sorted(range(len(items)), key=lambda i: (-weights[i], i))

    # Steps 6-13: min-cost priority queue over CTAs.
    queues: List[List[WorkItem]] = [[] for _ in range(num_ctas)]
    heap: List[Tuple[float, int]] = [(0.0, c) for c in range(num_ctas)]
    heapq.heapify(heap)
    for i in order:
        w = items[i]
        current_cost, c = heapq.heappop(heap)
        queues[c].append(w)
        heapq.heappush(heap, (current_cost + alpha * w.q_rows + beta * weights[i], c))

    return ReferencePlan(
        cta_queues=queues,
        merges=merges,
        num_partial_slots=next_slot,
        q_tile_size=q_tile_size,
        kv_chunk_size=l_kv,
    )


def plan_unbalanced(
    qo_lens: Sequence[int],
    kv_lens: Sequence[int],
    q_tile_size: int,
    num_ctas: int,
    num_kv_heads: int = 1,
    mapping_idx: int = 0,
) -> ReferencePlan:
    """Baseline scheduler: one whole-KV work item per tile, dealt in order.

    No KV splitting, no cost balancing — items go to CTAs round-robin in
    enumeration order, the discipline of a conventional grid launch where
    blocks map to (request, tile, head) coordinates.  Used by ablations and
    the FlashAttention-library baseline.
    """
    qo_lens = np.asarray(qo_lens, dtype=np.int64)
    kv_lens = np.asarray(kv_lens, dtype=np.int64)
    items: List[WorkItem] = []
    for g in range(qo_lens.size):
        lq, lkv = int(qo_lens[g]), int(kv_lens[g])
        if lq == 0:
            continue
        for t in range(ceil_div(lq, q_tile_size)):
            q_start = t * q_tile_size
            q_rows = min(q_tile_size, lq - q_start)
            for h in range(num_kv_heads):
                items.append(WorkItem(mapping_idx, g, t, q_start, q_rows, 0, lkv, h, -1))
    queues: List[List[WorkItem]] = [[] for _ in range(num_ctas)]
    for i, w in enumerate(items):
        queues[i % num_ctas].append(w)
    return ReferencePlan(
        cta_queues=queues,
        merges=[],
        num_partial_slots=0,
        q_tile_size=q_tile_size,
        kv_chunk_size=max(int(kv_lens.max(initial=0)), 1),
    )


def reference_tables(plan: ReferencePlan) -> dict:
    """The six workspace tables of a plan, flattened from its object queues
    exactly as the pre-array ``BatchAttentionWrapper._write_plan`` did."""
    items: List[WorkItem] = [w for q in plan.cta_queues for w in q]
    cta_indptr = np.zeros(len(plan.cta_queues) + 1, dtype=np.int64)
    np.cumsum([len(q) for q in plan.cta_queues], out=cta_indptr[1:])
    item_arr = np.asarray(
        [
            (
                w.mapping_idx, w.group, w.q_tile, w.q_start, w.q_rows,
                w.kv_start, w.kv_stop, w.kv_head, w.partial_slot,
            )
            for w in items
        ],
        dtype=np.int64,
    ).reshape(len(items), 9)
    merge_meta = np.asarray(
        [
            (m.mapping_idx, m.group, m.q_start, m.q_rows, m.kv_head)
            for m in plan.merges
        ],
        dtype=np.int64,
    ).reshape(len(plan.merges), 5)
    merge_indptr = np.zeros(len(plan.merges) + 1, dtype=np.int64)
    np.cumsum([len(m.slots) for m in plan.merges], out=merge_indptr[1:])
    merge_slots = np.asarray(
        [s for m in plan.merges for s in m.slots], dtype=np.int64
    )
    counts = np.asarray(
        [
            len(items), len(plan.merges), merge_slots.size,
            plan.num_partial_slots, plan.q_tile_size, plan.kv_chunk_size,
            0, 0,
        ],
        dtype=np.int64,
    )
    return {
        "counts": counts, "work_items": item_arr, "cta_indptr": cta_indptr,
        "merge_meta": merge_meta, "merge_indptr": merge_indptr,
        "merge_slots": merge_slots,
    }

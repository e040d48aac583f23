"""The per-object cost model — the oracle for ``repro.core.simulate``.

Until the compute path was priced from the plan arrays like every other
launch, ``run_mapping`` built one ``TileCost`` per work item
(``work_item_cost`` → ``kv_reuse_factor``) and per merge entry
(``contraction_cost``), and ``BatchAttentionWrapper.run(compute=True)`` drained
them through ``PersistentKernelExecutor.run_persistent``.  The first three
functions below are that code, moved here verbatim.  The contraction launch
is dealt one (query row, query head) pair at a time: ``distribute_merges``
cuts the pairs into contiguous per-CTA blocks and ``block_cost`` prices a
block as one tile.  ``reference_tile_costs`` and ``reference_report`` are
the loops that call them.  ``tests/test_costs_equivalence.py`` pins
``run_mapping``'s return value and ``_simulate_fast``'s report to them.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.core.kernels import PARTIAL_ITEMSIZE, Q_ITEMSIZE, HeadConfig
from repro.core.scheduler import MergeEntry, SchedulePlan, WorkItem
from repro.gpu.cost import TileCost
from repro.gpu.executor import SimReport
from repro.sparse.bsr import ceil_div
from repro.sparse.layout import AttentionMapping
from repro.utils.dtypes import StorageDType


def kv_reuse_factor(item: WorkItem, mapping: AttentionMapping, q_tile_size: int) -> int:
    """Number of query tiles in the item's group that read its KV chunk.

    Causal groups: tiles whose last query position reaches the chunk's
    first KV position.  Non-causal groups: every tile.
    """
    lq = int(mapping.qo_lens[item.group])
    n_tiles = ceil_div(lq, q_tile_size) if lq else 1
    if not mapping.causal:
        return max(n_tiles, 1)
    first_row = (
        int(mapping.kv_pos_offset[item.group]) + item.kv_start
        - int(mapping.q_pos_offset[item.group])
    )
    first_row = min(max(first_row, 0), max(lq - 1, 0))
    return max(n_tiles - first_row // q_tile_size, 1)


def work_item_cost(
    item: WorkItem,
    mapping: AttentionMapping,
    heads: HeadConfig,
    kv_tile: int,
    kv_dtype: StorageDType,
    q_tile_size: int,
    fuse_head_groups: bool,
    uses_tensor_cores: bool,
    sparse_gather: bool,
    compute_penalty: float = 1.0,
) -> TileCost:
    """Roofline footprint of one work item.

    Models causal skipping (KV tiles entirely above the diagonal are never
    loaded or computed), tile padding waste, GQA head-group fusion (KV
    loaded once per KV head rather than once per query head), and the
    transaction efficiency of sparse gathers.
    """
    g_eff = heads.group_size if fuse_head_groups else 1
    d = heads.head_dim
    chunk = item.kv_len
    q_pos0 = int(mapping.q_pos_offset[item.group]) + item.q_start
    kv_pos0 = int(mapping.kv_pos_offset[item.group]) + item.kv_start

    if mapping.causal and chunk > 0:
        counts = np.clip(
            (q_pos0 + np.arange(item.q_rows)) - kv_pos0 + 1, 0, chunk
        )
        useful_cols = int(counts.sum())
        max_count = int(counts.max())
        processed = min(chunk, ceil_div(max_count, kv_tile) * kv_tile) if max_count else 0
    else:
        useful_cols = item.q_rows * chunk
        processed = chunk

    flops = 4.0 * d * useful_cols * g_eff
    padded_rows = q_tile_size * g_eff
    padded_flops = 4.0 * d * padded_rows * processed * compute_penalty

    # A KV chunk is re-read by every later query tile of its group; the
    # re-reads hit L2 (the working set is a few MB), so only 1/reuse of the
    # logical KV traffic goes to HBM.  Decode (one tile per group) has
    # reuse 1.  This is what makes prefill compute-bound in practice.
    reuse = kv_reuse_factor(item, mapping, q_tile_size)
    kv_bytes = processed * d * 2 * kv_dtype.itemsize / reuse
    q_bytes = item.q_rows * g_eff * d * Q_ITEMSIZE
    if item.partial_slot >= 0:
        out_bytes = item.q_rows * g_eff * (d + 1) * PARTIAL_ITEMSIZE
    else:
        out_bytes = item.q_rows * g_eff * d * Q_ITEMSIZE

    if sparse_gather and processed > 0:
        bc = mapping.kv.block_size
        run_bytes = float(min(bc, processed) * d * kv_dtype.itemsize)
        segments = 2 * ceil_div(processed, bc)
    else:
        run_bytes = 0.0
        segments = 0

    return TileCost(
        flops=flops,
        padded_flops=padded_flops,
        bytes_read=float(kv_bytes + q_bytes),
        bytes_written=float(out_bytes),
        contiguous_run_bytes=run_bytes,
        n_gather_segments=segments,
        uses_tensor_cores=uses_tensor_cores,
    )


def contraction_cost(
    entry: MergeEntry, rows: int, head_dim: int, partial_itemsize: int = 4
) -> TileCost:
    """Memory footprint of contracting one merge entry.

    Reads every slot's ``rows × (head_dim + 1)`` partial state, writes one
    final tile.  Contraction is bandwidth-bound (a handful of FLOPs per
    element), so ``flops`` counts the exp/log/FMA work only loosely.
    """
    n = len(entry.slots)
    state_bytes = rows * (head_dim + 1) * partial_itemsize
    return TileCost(
        flops=4.0 * n * rows * head_dim,
        padded_flops=4.0 * n * rows * head_dim,
        bytes_read=float(n * state_bytes),
        bytes_written=float(rows * head_dim * partial_itemsize),
        uses_tensor_cores=False,
    )


def distribute_merges(rows_per_entry: Sequence[int], num_ctas: int) -> List[List[int]]:
    """Deal the contraction's (query row, query head) pairs over the
    persistent CTA grid, one pair at a time.

    Entry ``i`` contributes ``rows_per_entry[i]`` pairs.  The launch's ``P``
    pairs, in entry order, are cut into contiguous blocks of ⌈P/#CTA⌉, one
    per CTA, so a long split tile is contracted by many CTAs instead of one.
    Returns, per CTA, the merge index of each pair it holds.
    """
    pairs = [i for i, rows in enumerate(rows_per_entry) for _ in range(rows)]
    block = -(-len(pairs) // num_ctas) or 1
    return [pairs[c * block:(c + 1) * block] for c in range(num_ctas)]


def block_cost(merges: Sequence[MergeEntry], pairs: Sequence[int], head_dim: int) -> TileCost:
    """One CTA's contraction work: the sum of one-row ``contraction_cost``
    of the entry of each pair it holds, as one tile (one ``tile_latency``)."""
    costs = [contraction_cost(merges[i], 1, head_dim, PARTIAL_ITEMSIZE) for i in pairs]
    return TileCost(
        flops=sum(c.flops for c in costs),
        padded_flops=sum(c.padded_flops for c in costs),
        bytes_read=sum(c.bytes_read for c in costs),
        bytes_written=sum(c.bytes_written for c in costs),
        uses_tensor_cores=False,
    )


def reference_tile_costs(wrapper, plan: SchedulePlan) -> Tuple[List[List[TileCost]], List[TileCost]]:
    """``(per-CTA cost queues, merge costs)`` of ``plan`` under ``wrapper``'s
    planned mapping, one object at a time — what ``run_mapping`` returned."""
    heads = wrapper.heads
    g_eff = heads.group_size if wrapper.fuse_head_groups else 1
    cost_queues = [
        [
            work_item_cost(
                item, wrapper._mapping, heads, wrapper.kv_tile, wrapper.kv_dtype,
                plan.q_tile_size, wrapper.fuse_head_groups,
                wrapper.traits.uses_tensor_cores, wrapper.sparse_gather,
                wrapper.compute_penalty,
            )
            for item in queue
        ]
        for queue in plan.cta_queues
    ]
    merge_costs = [
        contraction_cost(entry, entry.q_rows * g_eff, heads.head_dim, PARTIAL_ITEMSIZE)
        for entry in plan.merges
    ]
    return cost_queues, merge_costs


def reference_report(wrapper, plan: SchedulePlan) -> SimReport:
    """The launch as ``BatchAttentionWrapper.run(compute=True)`` priced it:
    the attention kernel's queues, then the contraction kernel's, each
    through ``run_persistent`` (one injector consultation per launch).  The
    contraction runs the plan's merge entries, then a composable stack's
    cross-format ``⊕`` entries (``wrapper.stack_merges``) when this wrapper
    is the stack's last format."""
    cost_queues, _ = reference_tile_costs(wrapper, plan)
    report = wrapper.executor.run_persistent(cost_queues)
    g_eff = wrapper.heads.group_size if wrapper.fuse_head_groups else 1
    merges = list(plan.merges)
    rows = [m.q_rows * g_eff for m in merges]
    if wrapper.stack_merges is not None:
        for n, pairs in zip(*wrapper.stack_merges):
            merges.append(MergeEntry(0, 0, 0, int(pairs), 0, tuple(range(int(n)))))
            rows.append(int(pairs))
    if merges:
        pair_queues = distribute_merges(rows, wrapper.num_ctas)
        cost_by_cta = [
            [block_cost(merges, pairs, wrapper.heads.head_dim)] if pairs else []
            for pairs in pair_queues
        ]
        report = report.combine(wrapper.executor.run_persistent(cost_by_cta))
    return report

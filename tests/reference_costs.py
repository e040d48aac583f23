"""The per-object cost model — the oracle for ``repro.core.simulate``.

Until the compute path was priced from the plan arrays like every other
launch, ``run_mapping`` built one ``TileCost`` per work item
(``work_item_cost`` → ``kv_reuse_factor``) and per merge entry
(``contraction_cost``), and ``BatchAttentionWrapper.run(compute=True)`` drained
them through ``PersistentKernelExecutor.run_persistent``.  The first three
functions below are that code, moved here verbatim; ``work_item_cost``
has since charged each item its own query tile, and both read each query
row's and KV slot's own position (``positions``).  The contraction launch
is dealt one (query row, query head) pair at a time: ``distribute_merges``
cuts the pairs into contiguous per-CTA blocks and ``block_cost`` prices a
block as one tile.  ``reference_tile_costs`` and ``reference_report`` are
the loops that call them, and ``reference_stack_report`` prices a composable
stack of several formats: every format's attention launch, its tiles writing
fp32 states, then one contraction launch that counts, pair by pair, the
states every format wrote.  ``reference_chain`` times the launches of one
call from explicit start instants, where the library adds each launch's
makespan less the dispatch it hides.  ``tests/test_costs_equivalence.py``
pins ``run_mapping``'s return value and the library's reports to them.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.core.kernels import PARTIAL_ITEMSIZE, Q_ITEMSIZE, HeadConfig
from repro.core.scheduler import MergeEntry, SchedulePlan, WorkItem
from repro.gpu.cost import TileCost
from repro.gpu.executor import SimReport
from repro.sparse.bsr import ceil_div
from repro.sparse.layout import AttentionMapping
from repro.utils.dtypes import StorageDType


def positions(mapping: AttentionMapping, item: WorkItem) -> Tuple[List[int], int]:
    """The absolute positions of the item's group's query rows, and of its
    chunk's first KV slot (its block's position, ``j · block_size`` for the
    ``j``-th when ``block_pos`` is None, plus its offset in it)."""
    rows = range(mapping.qo_indptr[item.group], mapping.qo_indptr[item.group + 1])
    bc, first = mapping.kv.block_size, mapping.kv.indptr[item.group]
    j, offset = divmod(item.kv_start, bc)
    at = j * bc if mapping.block_pos is None else int(mapping.block_pos[first + j])
    return [int(mapping.q_pos[r]) for r in rows], at + offset


def kv_reuse_factor(item: WorkItem, mapping: AttentionMapping, q_tile_size: int) -> int:
    """Number of query tiles in the item's group that read its KV chunk.

    Causal groups: the tiles from the one holding the first row that
    reaches the chunk's first KV position (the last tile if none does).
    Non-causal groups: every tile.
    """
    lq = int(mapping.qo_lens[item.group])
    n_tiles = ceil_div(lq, q_tile_size) if lq else 1
    if not mapping.causal or item.kv_len == 0:  # an empty chunk reads nothing
        return max(n_tiles, 1)
    q_pos, start = positions(mapping, item)
    first_row = next((r for r, p in enumerate(q_pos) if p >= start), max(lq - 1, 0))
    return max(n_tiles - first_row // q_tile_size, 1)


def work_item_cost(
    item: WorkItem,
    mapping: AttentionMapping,
    heads: HeadConfig,
    kv_tile: int,
    kv_dtype: StorageDType,
    q_tile_size: int,
    tile_set: Sequence[int],
    fuse_head_groups: bool,
    sparse_gather: bool,
    compute_penalty: float = 1.0,
    stacked: bool = False,
) -> TileCost:
    """Roofline footprint of one work item.

    Models causal skipping (KV tiles entirely above the diagonal are never
    loaded or computed), padding to the item's own query tile — the smallest
    of the launch's compiled tiles ``tile_set`` (fused rows) that holds its
    fused rows, else the largest; tile 1 runs on CUDA cores — GQA head-group
    fusion (KV loaded once per KV head rather than once per query head), and
    the transaction efficiency of sparse gathers.  A split or ``stacked`` tile
    writes its fp32 state, any other its final fp16 rows.
    """
    g_eff = heads.group_size if fuse_head_groups else 1
    d = heads.head_dim
    chunk = item.kv_len

    if mapping.causal and chunk > 0:
        # Each row sees the chunk's slots up to its own position.
        q_pos, start = positions(mapping, item)
        counts = [min(max(p - start + 1, 0), chunk)
                  for p in q_pos[item.q_start:item.q_start + item.q_rows]]
        useful_cols = sum(counts)
        max_count = max(counts)
        processed = min(chunk, ceil_div(max_count, kv_tile) * kv_tile) if max_count else 0
    else:
        useful_cols = item.q_rows * chunk
        processed = chunk

    flops = 4.0 * d * useful_cols * g_eff
    fits = [t for t in sorted(tile_set) if t >= item.q_rows * g_eff]
    padded_rows = fits[0] if fits else max(tile_set)
    padded_flops = 4.0 * d * padded_rows * processed * compute_penalty

    # A KV chunk is re-read by every later query tile of its group; the
    # re-reads hit L2 (the working set is a few MB), so only 1/reuse of the
    # logical KV traffic goes to HBM.  Decode (one tile per group) has
    # reuse 1.  This is what makes prefill compute-bound in practice.
    reuse = kv_reuse_factor(item, mapping, q_tile_size)
    kv_bytes = processed * d * 2 * kv_dtype.itemsize / reuse
    q_bytes = item.q_rows * g_eff * d * Q_ITEMSIZE
    if item.partial_slot >= 0 or stacked:
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
        uses_tensor_cores=padded_rows > 1,
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


def reference_tile_costs(
    wrapper, plan: SchedulePlan, stacked: bool = False
) -> Tuple[List[List[TileCost]], List[TileCost]]:
    """``(per-CTA cost queues, merge costs)`` of ``plan`` under ``wrapper``'s
    planned mapping, one object at a time — what ``run_mapping`` returned."""
    heads = wrapper.heads
    g_eff = heads.group_size if wrapper.fuse_head_groups else 1
    cost_queues = [
        [
            work_item_cost(
                item, wrapper._mapping, heads, wrapper.kv_tile, wrapper.kv_dtype,
                plan.q_tile_size, list(wrapper._tile_set), wrapper.fuse_head_groups,
                wrapper.sparse_gather, wrapper.compute_penalty, stacked,
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


def _contraction_report(wrapper, merges: List[MergeEntry], rows: List[int]) -> SimReport:
    """The contraction launch of ``merges`` (entry ``i`` over ``rows[i]``
    pairs) on ``wrapper``'s grid, dealt one pair at a time."""
    pair_queues = distribute_merges(rows, wrapper.num_ctas)
    return wrapper.executor.run_persistent(
        [[block_cost(merges, pairs, wrapper.heads.head_dim)] if pairs else [] for pairs in pair_queues]
    )


def reference_chain(spec, launches: Sequence[SimReport]) -> SimReport:
    """The launches of one attention call, each depending on the one before
    it, timed with explicit instants.  A launch begins its dispatch when its
    predecessor begins running on a device with programmatic dependent
    launch (``spec.supports_pdl``), and when its predecessor ends elsewhere.
    It begins running once its dispatch is done and its predecessor has
    ended, and runs until its busiest CTA finishes.  The call ends with its
    last launch; CTA ``i``'s busy time is summed over the launches whose
    grid has a CTA ``i``."""
    dispatch = spec.kernel_dispatch_overhead
    dispatch_at = end = 0.0
    busy = [0.0] * max(len(r.per_cta_time) for r in launches)
    for launch in launches:
        start = max(dispatch_at + dispatch, end)
        end = start + max(launch.per_cta_time, default=0.0)
        dispatch_at = start if spec.supports_pdl else end
        for cta, t in enumerate(launch.per_cta_time):
            busy[cta] += t
    return SimReport(
        makespan=end,
        total_flops=sum(r.total_flops for r in launches),
        total_bytes=sum(r.total_bytes for r in launches),
        num_tiles=sum(r.num_tiles for r in launches),
        num_ctas=max(r.num_ctas for r in launches),
        per_cta_time=busy,
    )


def reference_report(wrapper, plan: SchedulePlan) -> SimReport:
    """The launch as ``BatchAttentionWrapper.run(compute=True)`` priced it:
    the attention kernel's queues, then the contraction kernel's over the
    plan's merge entries, each through ``run_persistent`` (one injector
    consultation per launch), chained by ``reference_chain``.  A plain
    wrapper, not a format of a stack."""
    assert wrapper.stack_merges is None, "price a stack with reference_stack_report"
    cost_queues, _ = reference_tile_costs(wrapper, plan)
    launches = [wrapper.executor.run_persistent(cost_queues)]
    g_eff = wrapper.heads.group_size if wrapper.fuse_head_groups else 1
    merges = list(plan.merges)
    if merges:
        rows = [m.q_rows * g_eff for m in merges]
        launches.append(_contraction_report(wrapper, merges, rows))
    return reference_chain(wrapper.executor.spec, launches)


def reference_stack_report(stack) -> SimReport:
    """A planned ``ComposableAttentionWrapper`` priced one object at a time.

    One format is a plain wrapper.  Several are each format's attention
    launch, every tile writing its fp32 state ``(O, LSE)``, then one
    contraction launch on the last format's grid: each (query row, query
    head) pair, in row order, reads every state any format's work items
    wrote for it and writes its row once.  The launches chain in that order
    (``reference_chain``)."""
    if len(stack.wrappers) == 1:
        w, = stack.wrappers
        return reference_report(w, w._read_plan())
    states = {}
    reports = []
    for w in stack.wrappers:
        plan = w._read_plan()
        cost_queues, _ = reference_tile_costs(w, plan, stacked=True)
        reports.append(w.executor.run_persistent(cost_queues))
        g_eff = w.heads.group_size if w.fuse_head_groups else 1
        for queue in plan.cta_queues:
            for item in queue:
                first = int(w._mapping.q_row_starts[item.group]) + item.q_start
                for row in range(first, first + item.q_rows):
                    for head in range(item.kv_head * g_eff, (item.kv_head + 1) * g_eff):
                        states[row, head] = states.get((row, head), 0) + 1
    merges = [MergeEntry(0, 0, 0, 1, 0, tuple(range(states[p]))) for p in sorted(states)]
    last = stack.wrappers[-1]
    if merges:
        reports.append(_contraction_report(last, merges, [1] * len(merges)))
    return reference_chain(last.executor.spec, reports)

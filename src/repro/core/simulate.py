"""The cost model: every launch is priced from the serialized plan arrays.

A plan's work items and merges are priced with NumPy over the same tables
the workspace holds — one column per :class:`~repro.gpu.cost.TileCost` field
(``item_footprints`` / ``merge_footprints``), then the executor's stream
conversion and the shared-bandwidth drain.  The attention kernel's streams
(``item_cost_arrays``) are one per work item, on the CTA the planner gave it;
the contraction kernel's (``merge_cost_arrays``) are one per CTA, each a
contiguous block of the launch's (query row, query head) pairs, however the
pairs fall into merge entries; a composable stack of several formats runs
one contraction launch for all of them (``stack_merge_entries``).
``BatchAttentionWrapper.plan`` prices the launches of the plan it chooses
here, and ``run`` submits them whether or not it also computes numerics.
The per-object model this
replaced (one ``TileCost`` per work item and per block of pairs, priced
through ``run_persistent``) is the oracle in ``tests/reference_costs.py``;
``tests/test_costs_equivalence.py`` pins this module to it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

import numpy as np

from repro.core.kernels import PARTIAL_ITEMSIZE, Q_ITEMSIZE, HeadConfig
from repro.core.scheduler import (
    COL_GROUP,
    COL_KVHEAD,
    COL_KVSTART,
    COL_KVSTOP,
    COL_QROWS,
    COL_QSTART,
    COL_SLOT,
    MERGE_QROWS,
    SchedulePlan,
    query_tile_rows,
)
from repro.core.tiles import small_fa3_tile
from repro.gpu.cost import FA3_SMALL_TILE_MMA, TRANSACTION_BYTES, KernelCostModel, TileCost
from repro.gpu.executor import PersistentKernelExecutor, SimReport
from repro.sparse.layout import AttentionMapping
from repro.utils.dtypes import StorageDType


@dataclass
class PlanCostArrays:
    """Per-item cost streams plus aggregate accounting."""

    serial: np.ndarray  # seconds of non-memory stream per item
    mem: np.ndarray  # effective memory bytes per item
    flops: np.ndarray  # useful FLOPs per item
    traffic: np.ndarray  # logical bytes (read+written) per item


@dataclass
class ItemFootprints:
    """The hardware-independent footprint of a plan's work items: one column
    per :class:`~repro.gpu.cost.TileCost` field, one entry per item."""

    flops: np.ndarray  # useful FLOPs
    padded: np.ndarray  # executed FLOPs, padded to the item's own query tile, at full MMA rate
    tile: np.ndarray  # that tile, in fused rows; 1 runs on CUDA cores
    bytes_read: np.ndarray  # KV (after L2 reuse) + query bytes
    out_bytes: np.ndarray  # final tile, or the partial state of a split one
    run_bytes: np.ndarray  # contiguous run of a sparse gather, where segments > 0
    segments: np.ndarray  # gather segments; 0 for dense loads and unseen chunks


@functools.lru_cache(maxsize=64)
def _tiles_by_rows(tile_set: Tuple[int, ...], g_eff: int) -> np.ndarray:
    """``[r]``: :func:`item_tiles` of an item of ``r`` query rows, for every
    ``r`` up to the launch's tile (read-only)."""
    fused = np.arange(tile_set[-1] // g_eff + 1) * g_eff
    table = np.asarray(tile_set)[np.minimum(np.searchsorted(tile_set, fused), len(tile_set) - 1)]
    if tile_set[0] == 1:
        table[1:2] = 1  # one query row's fused heads, on the CUDA cores
    table.flags.writeable = False
    return table


def item_tiles(rows: np.ndarray, g_eff: int, tile_set: Sequence[int]) -> np.ndarray:
    """The query tile each item of ``rows`` query rows runs on: of the
    launch's compiled tiles ``tile_set`` (fused rows, ascending, the launch's
    own last, which every item fits), the smallest that covers its ``rows ×
    g_eff`` fused rows (§3.2.2, per work item as in the persistent kernel of
    §3.3) — tile 1, where the set holds it, for every one-row item
    (``core/tiles.item_tile_set``).  A fixed-tile launch passes its one tile."""
    return _tiles_by_rows(tuple(tile_set), g_eff)[rows]


def item_footprints(
    item_arr: np.ndarray,
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
    backend: str = "fa2",
) -> ItemFootprints:
    """Roofline footprint of every work item.

    Models causal skipping (KV tiles entirely above the diagonal are never
    loaded or computed), padding to the item's own query tile
    (:func:`item_tiles`; ``q_tile_size`` is the planner's tile, in query
    rows, which counts a group's tiles; tile 1 computes its ``g_eff``
    fused rows unpadded), stretched where ``backend``'s tile computes below
    the model's MMA efficiency (:func:`_column_flops`), GQA head-group fusion (KV
    loaded once per KV head rather than once per query head), and the
    run length and segment count of sparse gathers.  A tile writes its
    final fp16 rows, or its fp32 state ``(O, LSE)`` when it is split or
    ``stacked`` — a format of a composable stack, whose states the stack's
    one contraction folds.
    """
    # Every product of counts below is an integer far under 2**53, so folding
    # the constants first changes no bit of any column.
    g_eff = heads.group_size if fuse_head_groups else 1
    d, itemsize = heads.head_dim, kv_dtype.itemsize
    group = item_arr[:, COL_GROUP]
    rows = item_arr[:, COL_QROWS].astype(np.float64)

    if mapping.causal:
        # Row r computes clip(causal_kv_lens[r] - start, 0, width) of an
        # item's columns: as a group's rows ascend, the rows that see none
        # lead and those that see all trail, so no row is expanded.
        base, key, prefix = mapping._causal_rows
        start = item_arr[:, COL_KVSTART]
        width = item_arr[:, COL_KVSTOP] - start
        first = mapping.qo_indptr[group]
        a = first + item_arr[:, COL_QSTART]
        b = a + item_arr[:, COL_QROWS]
        col = base[group] + start
        sees = key.searchsorted(col, side="right")  # the first row to see `start`
        i0 = np.minimum(np.maximum(sees, a), b)
        i1 = np.minimum(np.maximum(key.searchsorted(col + width), i0), b)
        useful = prefix[i1] - prefix[i0] - start * (i1 - i0) + width * (b - i1)
        # The last row sees the most; the tiles past what it sees are skipped.
        last = np.minimum(np.maximum(mapping.causal_kv_lens[b - 1] - start, 0), width)
        useful_cols = useful.astype(np.float64)
        processed = np.minimum(width, -(-last // kv_tile) * kv_tile).astype(np.float64)
    else:
        processed = (item_arr[:, COL_KVSTOP] - item_arr[:, COL_KVSTART]).astype(np.float64)
        useful_cols = rows * processed

    flops = useful_cols * (4.0 * d * g_eff)
    tile = item_tiles(item_arr[:, COL_QROWS], g_eff, tile_set)
    padded = _column_flops(tuple(tile_set), g_eff, backend, d, compute_penalty)[
        item_arr[:, COL_QROWS]] * processed

    # A KV chunk is re-read by every later query tile of its group (causal:
    # the tiles whose last query position reaches the chunk's first KV
    # position); the re-reads hit L2 (the working set is a few MB), so only
    # 1/reuse of the logical KV traffic goes to HBM.  Decode (one tile per
    # group) has reuse 1.  This is what makes prefill compute-bound in practice.
    lq = mapping.qo_lens[group].astype(np.float64)
    n_tiles = np.maximum(np.ceil(lq / q_tile_size), 1.0)
    if mapping.causal:
        # The group's first row that sees the item's first KV column.
        first_row = np.minimum((sees - first).astype(np.float64), np.maximum(lq - 1.0, 0.0))
        reuse = np.maximum(n_tiles - np.floor(first_row / q_tile_size), 1.0)
    else:
        reuse = n_tiles
    kv_bytes = processed * (2 * d * itemsize) / reuse
    q_bytes = rows * (g_eff * d * Q_ITEMSIZE)
    state = g_eff * (d + 1) * PARTIAL_ITEMSIZE
    if stacked:
        out_bytes = rows * state
    else:
        out_bytes = rows * np.where(item_arr[:, COL_SLOT] >= 0, state, g_eff * d * Q_ITEMSIZE)

    if sparse_gather:
        bc = mapping.kv.block_size
        run_bytes = np.minimum(bc, np.maximum(processed, 1.0)) * (d * itemsize)
        segments = 2.0 * np.ceil(processed / bc)  # 0 where nothing is processed
    else:
        run_bytes = segments = np.zeros_like(q_bytes)
    return ItemFootprints(flops, padded, tile, kv_bytes + q_bytes, out_bytes, run_bytes, segments)


@functools.lru_cache(maxsize=64)
def _worst_gather_waste(block: int, token_bytes: int) -> float:
    """The largest transaction waste :func:`item_cost_arrays` charges a
    gather whose contiguous runs are 1 to ``block`` tokens long."""
    return max(
        -(-k * token_bytes // TRANSACTION_BYTES) * TRANSACTION_BYTES / (k * token_bytes)
        for k in range(1, block + 1)
    )


@functools.lru_cache(maxsize=64)
def _column_flops(tile_set: Tuple[int, ...], g_eff: int, backend: str, head_dim: int,
                  compute_penalty: float) -> np.ndarray:
    """``[r]``: the tensor-core FLOPs at full rate that one KV column of an
    item of ``r`` query rows costs on its own tile (:func:`item_tiles`) — its
    padded rows (tile 1: the ``g_eff`` fused rows, unpadded) times the
    launch's ``compute_penalty``, over ``FA3_SMALL_TILE_MMA`` on an FA3 tile
    below 128 rows (``core/tiles.small_fa3_tile``), whose MMAs run at that
    share of the model's efficiency (read-only)."""
    tile = _tiles_by_rows(tile_set, g_eff)
    flops = 4.0 * head_dim * np.maximum(tile, g_eff) * compute_penalty
    flops = np.where(small_fa3_tile(tile, backend), flops / FA3_SMALL_TILE_MMA, flops)
    flops.flags.writeable = False
    return flops


@functools.lru_cache(maxsize=64)
def _column_seconds(tile_set: Tuple[int, ...], g_eff: int, backend: str, head_dim: int,
                    compute_penalty: float, tensor: float, cuda: float) -> np.ndarray:
    """``[r]``: the serial seconds of one KV column of an item of ``r`` query
    rows at the roofs ``tensor`` and ``cuda`` (:func:`_column_flops`; read-only)."""
    roof = np.where(_tiles_by_rows(tile_set, g_eff) > 1, tensor, cuda)
    seconds = _column_flops(tile_set, g_eff, backend, head_dim, compute_penalty) / roof
    seconds.flags.writeable = False
    return seconds


def _roofs(cost_model: KernelCostModel, compute_share: float) -> Tuple[float, float]:
    """FLOP/s one CTA's serial stream computes at on the tensor cores and on
    the CUDA cores, where query tile 1 runs (§3.2.3)."""
    spec = cost_model.spec
    return (spec.sm_fp16_flops * cost_model.mma_efficiency * compute_share,
            spec.sm_cuda_core_flops * compute_share)


def unsplit_bounds(
    tile_rows: np.ndarray,
    tile_kv: np.ndarray,
    mapping: AttentionMapping,
    heads: HeadConfig,
    kv_dtype: StorageDType,
    q_tile_size: int,
    tile_set: Sequence[int],
    fuse_head_groups: bool,
    sparse_gather: bool,
    cost_model: KernelCostModel,
    compute_share: float,
    compute_penalty: float = 1.0,
    stacked: bool = False,
    max_chunks: Sequence[float] = (np.inf,),
    backend: str = "fa2",
) -> Tuple[List[float], List[float], float]:
    """``(longest, volume, total)`` of the unsplit plan for one KV head — each group
    cut into query tiles of ``q_tile_size`` rows, tile ``t`` of
    ``tile_rows[t]`` rows over the ``tile_kv[t]`` KV columns it is planned
    over (``scheduler.query_tile_kv``) — from the lengths alone: its longest item,
    each on its own query tile (:func:`item_tiles`) of ``backend``'s kernel, a lower bound on its
    longest serial stream, the sum of its serial streams, and an upper bound
    on the sum of its mem streams, as :func:`item_cost_arrays` prices them.  A tile loads at most all its
    group's KV, with the L2 reuse of its group (every tile's KV starts at
    the group's first), and gathers with no more transaction waste than a
    run of up to one block has, and writes what :func:`item_footprints` says
    a ``stacked`` tile writes.  O(tiles), no item table.

    ``longest`` and ``volume`` have one entry per entry of ``max_chunks``:
    with a finite one, of the plan whose KV chunks are at most that long —
    each tile's first chunk is one of its items, and its ``⌈v / chunk⌉``
    chunks each pay a tile latency and together compute all ``v`` columns
    its tile is planned over, so no CTA's stream is below ``volume / #CTA``
    per KV head.  ``total`` stays the unsplit plan's."""
    g_eff = heads.group_size if fuse_head_groups else 1
    d, itemsize = heads.head_dim, kv_dtype.itemsize
    qo, kv = mapping.qo_lens, mapping.kv.kv_lens
    q_tiles = -(-qo // q_tile_size)
    kv_cols = float(q_tiles @ kv)
    if q_tiles.max(initial=0) > 1:  # later query tiles re-read the KV from L2
        reuse = np.maximum(q_tiles, 1)
        if mapping.causal:  # counted from the first row that sees the first KV column
            base, key, _ = mapping._causal_rows  # the rows that see none lead a group
            unseen = key.searchsorted(base, side="right") - mapping.qo_indptr[:-1]
            reuse = np.maximum(reuse - unseen // q_tile_size, 1)
        kv_cols = float(q_tiles @ (kv / reuse))
    per_column = _column_seconds(tuple(tile_set), g_eff, backend, d, compute_penalty,
                                 *_roofs(cost_model, compute_share))[tile_rows]
    block, gather = mapping.kv.block_size, 2.0 * cost_model.gather_issue_overhead
    # In integers, an infinite chunk one past the longest tile: a float floor
    # division costs several times an integer one.
    top = int(tile_kv.max(initial=0)) + 1
    chunks = [min(max(c, 1), top) for c in max_chunks]
    cut = np.minimum(tile_kv, np.array(chunks)[:, None])  # one row per entry of max_chunks
    streams = cut * per_column
    if sparse_gather:
        streams += gather * ((cut + (block - 1)) // block)
    latency = cost_model.tile_latency
    longest = (streams.max(axis=1, initial=0.0) + latency).tolist()
    # The chunks of a tile cut all it is planned over, whatever their length:
    # Σ v columns in at least ⌈Σ v / chunk⌉ items, one per tile at least,
    # gathering at least ⌈Σ v / block⌉ blocks.
    total_kv = int(tile_kv.sum())
    work = float(tile_kv @ per_column) + sparse_gather * gather * -(-total_kv // block)
    volume = [work + latency * max(tile_kv.size, -(-total_kv // c)) for c in chunks]
    waste = _worst_gather_waste(block, d * itemsize) if sparse_gather else 1.0
    q_bytes = float(qo.sum()) * (g_eff * d * Q_ITEMSIZE)
    out_bytes = float(qo.sum()) * (g_eff * (d + 1) * PARTIAL_ITEMSIZE) if stacked else q_bytes
    kv_bytes = kv_cols * (2 * d * itemsize)
    return longest, volume, ((kv_bytes + q_bytes) * waste + out_bytes) / cost_model.mem_efficiency


def item_cost_arrays(
    item_arr: np.ndarray,
    mapping: AttentionMapping,
    heads: HeadConfig,
    kv_tile: int,
    kv_dtype: StorageDType,
    q_tile_size: int,
    tile_set: Sequence[int],
    fuse_head_groups: bool,
    sparse_gather: bool,
    cost_model: KernelCostModel,
    compute_share: float,
    compute_penalty: float = 1.0,
    stacked: bool = False,
    backend: str = "fa2",
) -> PlanCostArrays:
    """:func:`item_footprints` followed by the executor's stream conversion
    (transaction-quantized gathers, the compute roof, per-tile latencies)."""
    if item_arr.size == 0:
        z = np.zeros(0)
        return PlanCostArrays(z, z, z, z)
    fp = item_footprints(
        item_arr, mapping, heads, kv_tile, kv_dtype, q_tile_size, tile_set,
        fuse_head_groups, sparse_gather, compute_penalty, stacked, backend,
    )
    if sparse_gather:
        waste = np.ceil(fp.run_bytes / TRANSACTION_BYTES) * TRANSACTION_BYTES / fp.run_bytes
        eff_read = np.where(fp.segments > 0, fp.bytes_read * waste, fp.bytes_read)
    else:
        eff_read = fp.bytes_read

    tensor, cuda = _roofs(cost_model, compute_share)
    serial = (
        fp.padded / np.where(fp.tile > 1, tensor, cuda)
        + fp.segments * cost_model.gather_issue_overhead
        + cost_model.tile_latency
    )
    mem = (eff_read + fp.out_bytes) / cost_model.mem_efficiency
    return PlanCostArrays(
        serial=serial,
        mem=mem,
        flops=fp.flops,
        traffic=fp.bytes_read + fp.out_bytes,
    )


def merge_footprints(
    states: np.ndarray, rows: np.ndarray, head_dim: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(flops, bytes_read, bytes_written)`` of contracting ``states``
    partial-state rows (``head_dim + 1`` fp32 values each) into ``rows``
    final rows, written at the output's fp16 as an unsplit tile writes them
    — a merge entry of ``n`` slots over ``r`` rows is ``(n·r, r)``.
    Contraction is bandwidth-bound (a handful of FLOPs per element), so
    ``flops`` counts the exp/log/FMA work only loosely.  Every value is an
    integer, so sums of footprints are exact in any order."""
    return (
        states * (4.0 * head_dim),
        states * float((head_dim + 1) * PARTIAL_ITEMSIZE),
        rows * float(head_dim * Q_ITEMSIZE),
    )


def split_bytes(
    tile_rows: np.ndarray,
    tile_kv: np.ndarray,
    kv_chunk: int,
    head_dim: int,
    row_pairs: int,
    stacked: bool,
    cost_model: KernelCostModel,
) -> Tuple[float, float]:
    """``(contraction, extra)`` effective bytes of a plan whose KV chunks are
    ``kv_chunk`` long, from the lengths alone.  Each of the ``row_pairs``
    (query row, query head) pairs of each of the ``tile_rows[t]`` query rows
    of a split tile — of every tile in a ``stacked`` format, whose every tile
    writes a state — has ``⌈tile_kv[t] / kv_chunk⌉`` fp32 states, the KV
    its tile is planned over cut into chunks (``scheduler.query_tile_kv``).
    ``contraction`` is the contraction
    launch's: each such pair reads its states and writes its row
    (:func:`merge_footprints`), the sum of :func:`merge_cost_arrays`' mem
    streams for that plan.  ``extra`` is what the attention launch moves at
    least beyond the unsplit plan's: the pair's query row is read and a
    state written once per chunk, where the unsplit tile read it once and
    wrote one state or, unstacked, its fp16 row."""
    chunks = np.maximum(-(-tile_kv // kv_chunk), 1)
    rows = tile_rows if stacked else np.where(chunks > 1, tile_rows, 0)
    pairs, states = float(rows.sum()) * row_pairs, float(rows @ chunks) * row_pairs
    _, read, written = merge_footprints(states, pairs, head_dim)
    state = (head_dim + 1) * PARTIAL_ITEMSIZE
    unsplit_out = state if stacked else head_dim * Q_ITEMSIZE
    extra = (states - pairs) * (head_dim * Q_ITEMSIZE) + states * state - pairs * unsplit_out
    return (read + written) / cost_model.mem_efficiency, extra / cost_model.mem_efficiency


def merge_cost_arrays(
    n_slots_per_merge: np.ndarray,
    rows_eff: np.ndarray,
    head_dim: int,
    cost_model: KernelCostModel,
    compute_share: float,
    num_ctas: int,
) -> PlanCostArrays:
    """Contraction-kernel costs, one entry per CTA that holds work.

    The contraction runs like FlashInfer's variable-length merge-states
    kernel: persistent over (query row, query head) pairs, not over merge
    entries.  Entry ``i`` contributes ``rows_eff[i]`` pairs, each folding the
    entry's ``n_slots_per_merge[i]`` states.  The launch's ``P`` pairs, in
    entry order, are cut into contiguous blocks of ``⌈P / num_ctas⌉``; block
    ``c`` runs on CTA ``c`` and pays its pairs' share of
    :func:`merge_footprints` plus one ``tile_latency``, so the launch's flop
    and byte totals are those of its entries.  O(entries + CTAs): the block
    boundaries are located in the entry columns, never expanded per pair.
    """
    # Counts in float64: every value below is an integer far under 2**53, so
    # the arithmetic stays exact.
    n = np.asarray(n_slots_per_merge, dtype=np.float64)
    rows = np.asarray(rows_eff, dtype=np.float64)
    pair_end = rows.cumsum()
    total = int(pair_end[-1]) if pair_end.size else 0
    if total == 0:
        z = np.zeros(0)
        return PlanCostArrays(z, z, z, z)
    block = -(-total // num_ctas)
    bounds = np.arange(0.0, total + block, block)
    bounds[-1] = total  # only the last boundary can overshoot
    # States folded by the pairs before each boundary: the entries ending
    # at or before it, then its share of the entry it falls in (the launch's
    # end falls in the last entry).
    entry = pair_end.searchsorted(bounds, side="right")
    entry[-1] = n.size - 1
    states_before = (n * rows).cumsum()[entry] - (pair_end[entry] - bounds) * n[entry]
    flops, bytes_read, bytes_written = merge_footprints(
        states_before[1:] - states_before[:-1], bounds[1:] - bounds[:-1], head_dim
    )
    traffic = bytes_read + bytes_written
    serial = flops / (cost_model.spec.sm_cuda_core_flops * compute_share) + cost_model.tile_latency
    return PlanCostArrays(serial, traffic / cost_model.mem_efficiency, flops, traffic)


def format_merge_entries(
    mapping: AttentionMapping, q_tile_size: int, tile_kv: np.ndarray, kv_chunk: int,
    row_pairs: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`stack_merge_entries` of one format whose plan cuts each query
    tile's KV ``tile_kv`` (``scheduler.query_tile_kv``) into
    ``kv_chunk``-long chunks, from the lengths alone: each of the
    ``row_pairs`` (query row, query head) pairs of a tile's query row folds
    its ``⌈v / kv_chunk⌉`` states (one at least).  One entry per tile, the
    groups in row order (a format's groups cover disjoint rows), which
    :func:`merge_cost_arrays` prices exactly as the runs of equal counts.
    O(tiles)."""
    n_tiles = -(-mapping.qo_lens // q_tile_size)
    order = np.argsort(np.repeat(mapping.q_row_starts, n_tiles), kind="stable")
    rows = query_tile_rows(mapping.qo_lens, q_tile_size)[order]
    return np.maximum(-(-tile_kv[order] // kv_chunk), 1), rows * row_pairs


def stack_merge_entries(
    formats: Sequence[Tuple[np.ndarray, AttentionMapping]], sched_heads: int, g_eff: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Contraction entries ``(n_slots, rows_eff)`` of a composable stack's one
    contraction launch, from each format's ``(work items, mapping)``.

    Every (query row, query head) pair some format covers folds each state
    any format wrote for it — one per work item over its row and scheduler
    head, so a split tile's slots and an unsplit tile's state alike — and is
    written once.  Pairs are in row order, a scheduler head's ``g_eff`` query
    heads side by side; neighbouring pairs that fold equally many states
    share an entry, which :func:`merge_cost_arrays` prices exactly as one
    entry per pair (its footprints are integers).
    """
    rows = max((int((m.q_row_starts + m.qo_lens).max(initial=0)) for _, m in formats), default=0)
    size = (rows + 1) * sched_heads
    edges = np.zeros(size, dtype=np.int64)  # +1 where an item's rows start, -1 past their end
    for items, m in formats:
        first = m.q_row_starts[items[:, COL_GROUP]] + items[:, COL_QSTART]
        head = items[:, COL_KVHEAD]
        edges += np.bincount(first * sched_heads + head, minlength=size)
        edges -= np.bincount((first + items[:, COL_QROWS]) * sched_heads + head, minlength=size)
    states = edges.reshape(rows + 1, sched_heads).cumsum(axis=0)[:-1].ravel()
    states = states[states > 0]
    # Runs of equal counts, without np.diff's prepend/append copies.
    first_of_run = np.ones(states.size, dtype=bool)
    np.not_equal(states[1:], states[:-1], out=first_of_run[1:])
    starts = np.flatnonzero(first_of_run)
    ends = np.empty_like(starts)
    ends[:-1], ends[-1:] = starts[1:], states.size
    return states[starts], (ends - starts) * g_eff


def plan_tile_costs(
    plan: SchedulePlan,
    mapping: AttentionMapping,
    heads: HeadConfig,
    kv_tile: int,
    kv_dtype: StorageDType,
    tile_set: Sequence[int],
    fuse_head_groups: bool,
    sparse_gather: bool,
    compute_penalty: float = 1.0,
    backend: str = "fa2",
) -> Tuple[List[List[TileCost]], List[TileCost]]:
    """The footprint columns as objects: ``(per-CTA TileCost queues, one
    TileCost per merge)`` — the return value of ``run_mapping``, which only
    the benchmark's probe still reads."""
    fp = item_footprints(
        plan.items, mapping, heads, kv_tile, kv_dtype, plan.q_tile_size, tile_set,
        fuse_head_groups, sparse_gather, compute_penalty, backend=backend,
    )
    columns = (
        fp.flops, fp.padded, fp.bytes_read, fp.out_bytes,
        np.where(fp.segments > 0, fp.run_bytes, 0.0), fp.segments.astype(np.int64), fp.tile > 1,
    )
    costs = [TileCost(*row) for row in zip(*(c.tolist() for c in columns))]
    ptr = plan.cta_indptr.tolist()
    g_eff = heads.group_size if fuse_head_groups else 1
    rows = plan.merge_meta[:, MERGE_QROWS] * g_eff
    merges = merge_footprints(
        (plan.merge_indptr[1:] - plan.merge_indptr[:-1]) * rows, rows, heads.head_dim
    )
    return [costs[a:b] for a, b in zip(ptr, ptr[1:])], [
        TileCost(f, f, r, w, uses_tensor_cores=False)
        for f, r, w in zip(*(c.tolist() for c in merges))
    ]


def simulate_queues(
    launch: Callable[..., SimReport],
    costs: PlanCostArrays,
    cta_of_item: np.ndarray,
    num_ctas: int,
) -> SimReport:
    """Aggregate per-item streams to CTAs and run the shared-bandwidth drain
    through ``launch`` — an executor's ``run_streams``, or its
    ``price_streams`` to price a plan without consulting a fault injector.
    ``bincount`` adds each CTA's items in item order, as ``+=`` would."""
    if costs.serial.size:
        serial = np.bincount(cta_of_item, costs.serial, minlength=num_ctas)
        mem = np.bincount(cta_of_item, costs.mem, minlength=num_ctas)
    else:
        serial, mem = np.zeros(num_ctas), np.zeros(num_ctas)
    return launch(
        serial, mem, float(costs.flops.sum()), float(costs.traffic.sum()),
        int(costs.serial.size),
    )


def simulate_grid(
    executor: PersistentKernelExecutor,
    costs: PlanCostArrays,
) -> SimReport:
    """Grid-launch simulation from cost arrays (baseline path)."""
    slots = executor.spec.num_sms
    serial, mem = costs.serial, costs.mem
    if executor.fault_injector is not None:
        serial, mem = serial.copy(), mem.copy()
        executor._consult_injector(serial, mem)
    makespan, slot_busy = executor._drain_dynamic(
        list(zip(serial.tolist(), mem.tolist())),
        slots,
    )
    return SimReport(
        makespan=makespan + executor.spec.kernel_dispatch_overhead,
        total_flops=float(costs.flops.sum()),
        total_bytes=float(costs.traffic.sum()),
        num_tiles=int(costs.serial.size),
        num_ctas=slots,
        per_cta_time=slot_busy,
    )

"""The cost model: every launch is priced from the serialized plan arrays.

A plan's work items and merges are priced with NumPy over the same tables
the workspace holds — one column per :class:`~repro.gpu.cost.TileCost` field
(``item_footprints`` / ``merge_footprints``), then the executor's stream
conversion and the shared-bandwidth drain.  The attention kernel's streams
(``item_cost_arrays``) are one per work item, on the CTA the planner gave it;
the contraction kernel's (``merge_cost_arrays``) are one per CTA, each a
contiguous block of the launch's (query row, query head) pairs, however the
pairs fall into merge entries.  ``BatchAttentionWrapper.run`` prices a launch
here whether or not it also computes numerics.  The per-object model this
replaced (one ``TileCost`` per work item and per block of pairs, priced
through ``run_persistent``) is the oracle in ``tests/reference_costs.py``;
``tests/test_costs_equivalence.py`` pins this module to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.core.kernels import PARTIAL_ITEMSIZE, Q_ITEMSIZE, HeadConfig
from repro.core.scheduler import (
    COL_GROUP,
    COL_KVSTART,
    COL_KVSTOP,
    COL_QROWS,
    COL_QSTART,
    COL_SLOT,
    MERGE_QROWS,
    SchedulePlan,
)
from repro.gpu.cost import TRANSACTION_BYTES, KernelCostModel, TileCost
from repro.gpu.executor import PersistentKernelExecutor, SimReport
from repro.sparse.layout import AttentionMapping
from repro.utils.dtypes import StorageDType


def _causal_processed(
    lo: np.ndarray, rows: np.ndarray, chunk: np.ndarray, kv_tile: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized causal accounting.

    For each item, query row ``i`` sees ``clip(lo + i, 0, chunk)`` KV
    columns (``lo = q_pos0 - kv_pos0 + 1``).  Returns ``(useful_cols,
    processed_kv)`` where ``processed_kv`` rounds the largest row count up
    to the KV tile (tiles fully above the diagonal are skipped).
    """
    r = rows.astype(np.float64)
    lo = lo.astype(np.float64)
    c = chunk.astype(np.float64)
    a = np.clip(-lo, 0.0, r)  # rows with zero visible columns
    b = np.clip(c - lo, 0.0, r)  # rows below the saturated region
    mid = np.maximum(b - a, 0.0)
    # Sum of (lo + i) for i in [a, b):
    mid_sum = mid * lo + (a + b - 1.0) * mid / 2.0
    useful = mid_sum + (r - b) * c
    max_count = np.clip(lo + r - 1.0, 0.0, c)
    processed = np.minimum(c, np.ceil(max_count / kv_tile) * kv_tile)
    processed[max_count <= 0] = 0.0
    return useful, processed


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
    padded: np.ndarray  # executed FLOPs, tile padding included
    bytes_read: np.ndarray  # KV (after L2 reuse) + query bytes
    out_bytes: np.ndarray  # final tile, or the partial state of a split one
    run_bytes: np.ndarray  # contiguous run of a sparse gather, where segments > 0
    segments: np.ndarray  # gather segments; 0 for dense loads and unseen chunks


def item_footprints(
    item_arr: np.ndarray,
    mapping: AttentionMapping,
    heads: HeadConfig,
    kv_tile: int,
    kv_dtype: StorageDType,
    q_tile_size: int,
    fuse_head_groups: bool,
    sparse_gather: bool,
    compute_penalty: float = 1.0,
) -> ItemFootprints:
    """Roofline footprint of every work item.

    Models causal skipping (KV tiles entirely above the diagonal are never
    loaded or computed), tile padding waste, GQA head-group fusion (KV
    loaded once per KV head rather than once per query head), and the
    run length and segment count of sparse gathers.
    """
    g_eff = heads.group_size if fuse_head_groups else 1
    d = heads.head_dim
    group = item_arr[:, COL_GROUP]
    rows = item_arr[:, COL_QROWS].astype(np.float64)
    chunk = (item_arr[:, COL_KVSTOP] - item_arr[:, COL_KVSTART]).astype(np.float64)
    q_pos0 = mapping.q_pos_offset[group] + item_arr[:, COL_QSTART]
    kv_pos0 = mapping.kv_pos_offset[group] + item_arr[:, COL_KVSTART]

    if mapping.causal:
        lo = (q_pos0 - kv_pos0 + 1).astype(np.float64)
        useful_cols, processed = _causal_processed(lo, rows, chunk, kv_tile)
    else:
        useful_cols = rows * chunk
        processed = chunk

    flops = 4.0 * d * useful_cols * g_eff
    padded = 4.0 * d * (q_tile_size * g_eff) * processed * compute_penalty

    # A KV chunk is re-read by every later query tile of its group (causal:
    # the tiles whose last query position reaches the chunk's first KV
    # position); the re-reads hit L2 (the working set is a few MB), so only
    # 1/reuse of the logical KV traffic goes to HBM.  Decode (one tile per
    # group) has reuse 1.  This is what makes prefill compute-bound in practice.
    lq = mapping.qo_lens[group].astype(np.float64)
    n_tiles = np.maximum(np.ceil(lq / q_tile_size), 1.0)
    if mapping.causal:
        first_row = (
            mapping.kv_pos_offset[group] + item_arr[:, COL_KVSTART]
            - mapping.q_pos_offset[group]
        ).astype(np.float64)
        first_row = np.clip(first_row, 0.0, np.maximum(lq - 1.0, 0.0))
        reuse = np.maximum(n_tiles - np.floor(first_row / q_tile_size), 1.0)
    else:
        reuse = n_tiles
    kv_bytes = processed * d * 2 * kv_dtype.itemsize / reuse
    q_bytes = rows * g_eff * d * Q_ITEMSIZE
    is_partial = item_arr[:, COL_SLOT] >= 0
    out_bytes = np.where(
        is_partial,
        rows * g_eff * (d + 1) * PARTIAL_ITEMSIZE,
        rows * g_eff * d * Q_ITEMSIZE,
    )

    if sparse_gather:
        bc = mapping.kv.block_size
        run_bytes = np.minimum(bc, np.maximum(processed, 1.0)) * d * kv_dtype.itemsize
        segments = np.where(processed > 0, 2.0 * np.ceil(processed / bc), 0.0)
    else:
        run_bytes = segments = np.zeros_like(q_bytes)
    return ItemFootprints(flops, padded, kv_bytes + q_bytes, out_bytes, run_bytes, segments)


def item_cost_arrays(
    item_arr: np.ndarray,
    mapping: AttentionMapping,
    heads: HeadConfig,
    kv_tile: int,
    kv_dtype: StorageDType,
    q_tile_size: int,
    fuse_head_groups: bool,
    uses_tensor_cores: bool,
    sparse_gather: bool,
    cost_model: KernelCostModel,
    compute_share: float,
    compute_penalty: float = 1.0,
) -> PlanCostArrays:
    """:func:`item_footprints` followed by the executor's stream conversion
    (transaction-quantized gathers, the compute roof, per-tile latencies)."""
    if item_arr.size == 0:
        z = np.zeros(0)
        return PlanCostArrays(z, z, z, z)
    fp = item_footprints(
        item_arr, mapping, heads, kv_tile, kv_dtype, q_tile_size,
        fuse_head_groups, sparse_gather, compute_penalty,
    )
    if sparse_gather:
        waste = np.ceil(fp.run_bytes / TRANSACTION_BYTES) * TRANSACTION_BYTES / fp.run_bytes
        eff_read = np.where(fp.segments > 0, fp.bytes_read * waste, fp.bytes_read)
    else:
        eff_read = fp.bytes_read

    spec = cost_model.spec
    roof = (
        spec.sm_fp16_flops * cost_model.mma_efficiency
        if uses_tensor_cores
        else spec.sm_cuda_core_flops
    ) * compute_share
    serial = (
        fp.padded / roof
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
    partial-state rows (``head_dim + 1`` floats each) into ``rows`` final
    rows — a merge entry of ``n`` slots over ``r`` rows is ``(n·r, r)``.
    Contraction is bandwidth-bound (a handful of FLOPs per element), so
    ``flops`` counts the exp/log/FMA work only loosely.  Every value is an
    integer, so sums of footprints are exact in any order."""
    return (
        states * (4.0 * head_dim),
        states * float((head_dim + 1) * PARTIAL_ITEMSIZE),
        rows * float(head_dim * PARTIAL_ITEMSIZE),
    )


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


def plan_tile_costs(
    plan: SchedulePlan,
    mapping: AttentionMapping,
    heads: HeadConfig,
    kv_tile: int,
    kv_dtype: StorageDType,
    fuse_head_groups: bool,
    uses_tensor_cores: bool,
    sparse_gather: bool,
    compute_penalty: float = 1.0,
) -> Tuple[List[List[TileCost]], List[TileCost]]:
    """The footprint columns as objects: ``(per-CTA TileCost queues, one
    TileCost per merge)`` — the return value of ``run_mapping``, which only
    the benchmark's probe still reads."""
    fp = item_footprints(
        plan.items, mapping, heads, kv_tile, kv_dtype, plan.q_tile_size,
        fuse_head_groups, sparse_gather, compute_penalty,
    )
    columns = (
        fp.flops, fp.padded, fp.bytes_read, fp.out_bytes,
        np.where(fp.segments > 0, fp.run_bytes, 0.0), fp.segments.astype(np.int64),
    )
    costs = [
        TileCost(*row, uses_tensor_cores) for row in zip(*(c.tolist() for c in columns))
    ]
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
    executor: PersistentKernelExecutor,
    costs: PlanCostArrays,
    cta_of_item: np.ndarray,
    num_ctas: int,
) -> SimReport:
    """Aggregate per-item streams to CTAs and run the shared-bandwidth drain.
    ``bincount`` adds each CTA's items in item order, as ``+=`` would."""
    if costs.serial.size:
        serial = np.bincount(cta_of_item, costs.serial, minlength=num_ctas)
        mem = np.bincount(cta_of_item, costs.mem, minlength=num_ctas)
    else:
        serial, mem = np.zeros(num_ctas), np.zeros(num_ctas)
    return executor.run_streams(
        serial, mem, float(costs.flops.sum()), float(costs.traffic.sum()),
        int(costs.serial.size),
    )


def simulate_grid(
    executor: PersistentKernelExecutor,
    costs: PlanCostArrays,
    ctas_per_sm: int = 1,
) -> SimReport:
    """Grid-launch simulation from cost arrays (baseline path)."""
    slots = executor.spec.num_sms * max(1, ctas_per_sm)
    serial, mem = costs.serial, costs.mem
    if executor.fault_injector is not None:
        serial, mem = serial.copy(), mem.copy()
        executor._consult_injector(serial, mem)
    makespan, slot_busy = executor._drain_dynamic(
        list(zip(serial.tolist(), mem.tolist())),
        slots,
        max(1, ctas_per_sm),
    )
    return SimReport(
        makespan=makespan + executor.spec.kernel_dispatch_overhead,
        total_flops=float(costs.flops.sum()),
        total_bytes=float(costs.traffic.sum()),
        num_tiles=int(costs.serial.size),
        num_ctas=slots,
        per_cta_time=slot_busy,
    )

"""Vectorized cost-only plan simulation.

``run_mapping`` prices work items one by one in Python next to the numeric
kernels it launches.  Benchmarks and the serving engine, however, run
thousands of cost-only steps (``compute=False``) where only the simulated
GPU report matters — this module computes identical
:class:`~repro.gpu.cost.TileCost` aggregates with NumPy over the *serialized
plan arrays* (the same arrays the workspace holds), typically two orders of
magnitude faster.  ``tests/test_core_simulate.py`` pins the equivalence against
the per-item path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.core.kernels import PARTIAL_ITEMSIZE, Q_ITEMSIZE, HeadConfig
from repro.core.scheduler import COL_GROUP, COL_KVSTART, COL_KVSTOP, COL_QROWS, COL_QSTART, COL_SLOT
from repro.gpu.cost import TRANSACTION_BYTES, KernelCostModel
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
    """Vectorized equivalent of :func:`repro.core.kernels.work_item_cost`
    followed by the executor's stream conversion."""
    if item_arr.size == 0:
        z = np.zeros(0)
        return PlanCostArrays(z, z, z, z)
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

    # KV re-reads across a group's query tiles hit L2; only the first read
    # pays HBM traffic (see kernels.kv_reuse_factor).
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
    bytes_read = kv_bytes + q_bytes

    if sparse_gather:
        bc = mapping.kv.block_size
        run_bytes = np.minimum(bc, np.maximum(processed, 1.0)) * d * kv_dtype.itemsize
        waste = np.ceil(run_bytes / TRANSACTION_BYTES) * TRANSACTION_BYTES / run_bytes
        eff_read = np.where(processed > 0, bytes_read * waste, bytes_read)
        segments = np.where(processed > 0, 2.0 * np.ceil(processed / bc), 0.0)
    else:
        eff_read = bytes_read
        segments = np.zeros_like(bytes_read)

    spec = cost_model.spec
    roof = (
        spec.sm_fp16_flops * cost_model.mma_efficiency
        if uses_tensor_cores
        else spec.sm_cuda_core_flops
    ) * compute_share
    serial = (
        padded / roof
        + segments * cost_model.gather_issue_overhead
        + cost_model.tile_latency
    )
    mem = (eff_read + out_bytes) / cost_model.mem_efficiency
    return PlanCostArrays(
        serial=serial,
        mem=mem,
        flops=flops,
        traffic=bytes_read + out_bytes,
    )


def merge_cost_arrays(
    n_slots_per_merge: np.ndarray,
    rows_eff: np.ndarray,
    head_dim: int,
    cost_model: KernelCostModel,
    compute_share: float,
) -> PlanCostArrays:
    """Vectorized contraction-kernel costs (one entry per merge)."""
    if n_slots_per_merge.size == 0:
        z = np.zeros(0)
        return PlanCostArrays(z, z, z, z)
    n = n_slots_per_merge.astype(np.float64)
    r = rows_eff.astype(np.float64)
    state_bytes = r * (head_dim + 1) * PARTIAL_ITEMSIZE
    flops = 4.0 * n * r * head_dim
    bytes_read = n * state_bytes
    bytes_written = r * head_dim * PARTIAL_ITEMSIZE
    spec = cost_model.spec
    roof = spec.sm_cuda_core_flops * compute_share
    serial = flops / roof + cost_model.tile_latency
    mem = (bytes_read + bytes_written) / cost_model.mem_efficiency
    return PlanCostArrays(serial, mem, flops, bytes_read + bytes_written)


def simulate_queues(
    executor: PersistentKernelExecutor,
    costs: PlanCostArrays,
    cta_of_item: np.ndarray,
    num_ctas: int,
) -> SimReport:
    """Aggregate per-item streams to CTAs and run the shared-bandwidth drain."""
    serial = np.zeros(num_ctas)
    mem = np.zeros(num_ctas)
    if costs.serial.size:
        np.add.at(serial, cta_of_item, costs.serial)
        np.add.at(mem, cta_of_item, costs.mem)
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

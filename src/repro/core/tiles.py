"""Tile-size selection heuristics and occupancy modelling (paper §3.2.2).

FlashInfer compiles the FA2 microkernel at query tile sizes
``(1, 16, 32, 64, 128)`` and KV tile sizes ``(32, 64, 128)`` and picks at
plan time:

1. the minimal query tile size meeting or exceeding the batch's average
   query length (with GQA, query length is fused with the head-group
   dimension first — Appendix A);
2. the KV tile size maximizing SM occupancy under shared-memory and
   register constraints.

Query tile size 1 selects the CUDA-core microkernel (tensor-core ``mma``
needs at least 16 rows, §3.2.3); FA3 tensor-core tiles must be multiples of
64 (Hopper WGMMA), and one below 128 rows computes at
``FA3_SMALL_TILE_MMA`` of the 128-row tile's MMA efficiency.
"""

from __future__ import annotations

import numpy as np

from repro.gpu.cost import FA3_SMALL_TILE_MMA
from repro.gpu.spec import GPUSpec
from repro.utils.dtypes import StorageDType

Q_TILE_CANDIDATES = (1, 16, 32, 64, 128)
KV_TILE_CANDIDATES = (32, 64, 128)
FA3_Q_TILE_CANDIDATES = (1, 64, 128)

#: Per-thread register estimate: the accumulator fragment dominates —
#: roughly (q_tile × head_dim + q_tile × kv_tile) fp32 values spread over
#: a 128-thread CTA, plus a fixed base for pointers and softmax state.
_THREADS_PER_CTA = 128
_BASE_REGS_PER_THREAD = 48


def compiled_q_tiles(backend: str) -> tuple:
    """The query tile sizes compiled for ``backend``."""
    return FA3_Q_TILE_CANDIDATES if backend == "fa3" else Q_TILE_CANDIDATES


def select_q_tile(avg_fused_qo_len: float, backend: str = "fa2") -> int:
    """Minimal compiled query tile size ≥ the average fused query length."""
    candidates = compiled_q_tiles(backend)
    for t in candidates:
        if t >= avg_fused_qo_len:
            return t
    return candidates[-1]


def small_fa3_tile(tile, backend: str):
    """Whether query tile ``tile`` (fused rows; an int or an array) is an FA3
    tensor tile below 128 rows, which computes at ``FA3_SMALL_TILE_MMA`` of
    the model's MMA efficiency."""
    return (backend == "fa3") & (tile > 1) & (tile < FA3_Q_TILE_CANDIDATES[-1])


def item_tile_set(
    backend: str, g_eff: int, launch_rows: int, spec: GPUSpec, mma_efficiency: float
) -> tuple:
    """The query tiles (fused rows, ascending, the launch's ``launch_rows``
    last) a launch runs its work items on (``core/simulate.item_tiles``):
    every compiled tensor tile from the smallest that covers one query row's
    ``g_eff`` fused rows up to the launch's, and first tile 1 — the
    CUDA-core decode kernel, charged a one-row item's ``g_eff`` rows
    unpadded — where the CUDA cores compute those rows faster than the
    smallest tensor tile computes its padded ones.  FlashInfer's decode
    wrapper and sglang's ``decode_use_tensor_cores`` choose by group size
    the same way: on H100 a Llama-3.1-8B group of 4 runs on the CUDA cores,
    on A100 tile 16 wins from a group of 2 (App. A)."""
    if launch_rows <= 1:
        return (1,)
    tensor = [t for t in compiled_q_tiles(backend) if max(g_eff, 2) <= t < launch_rows]
    smallest = (tensor or [launch_rows])[0]
    mma = spec.sm_fp16_flops * mma_efficiency
    if small_fa3_tile(smallest, backend):
        mma *= FA3_SMALL_TILE_MMA
    cuda = g_eff * mma < smallest * spec.sm_cuda_core_flops
    return (1,) * cuda + tuple(tensor) + (launch_rows,)


def smem_bytes(q_tile: int, kv_tile: int, head_dim: int, kv_dtype: StorageDType) -> int:
    """Shared-memory footprint of one CTA's pipeline stage.

    Q tile + double-buffered K and V tiles (the FA2 software pipeline).
    """
    q_bytes = q_tile * head_dim * 2  # queries staged in fp16
    kv_bytes = 2 * (2 * kv_tile * head_dim * kv_dtype.itemsize)
    return q_bytes + kv_bytes


def regs_per_thread(q_tile: int, kv_tile: int, head_dim: int) -> int:
    """Estimated register pressure per thread."""
    frag = (q_tile * head_dim + q_tile * kv_tile) / _THREADS_PER_CTA
    return _BASE_REGS_PER_THREAD + int(np.ceil(frag))


def ctas_per_sm(
    q_tile: int,
    kv_tile: int,
    head_dim: int,
    kv_dtype: StorageDType,
    spec: GPUSpec,
) -> int:
    """CTAs resident per SM under shared-memory and register limits."""
    by_smem = spec.shared_mem_per_sm // max(smem_bytes(q_tile, kv_tile, head_dim, kv_dtype), 1)
    by_regs = spec.registers_per_sm // (
        regs_per_thread(q_tile, kv_tile, head_dim) * _THREADS_PER_CTA
    )
    return max(min(int(by_smem), int(by_regs), 2), 0)


def select_kv_tile(
    q_tile: int,
    head_dim: int,
    kv_dtype: StorageDType,
    spec: GPUSpec,
) -> int:
    """Largest KV tile that keeps at least one CTA per SM resident, preferring
    higher occupancy then larger tiles (fewer softmax epilogues)."""
    best = None
    for kv_tile in KV_TILE_CANDIDATES:
        occ = ctas_per_sm(q_tile, kv_tile, head_dim, kv_dtype, spec)
        if occ < 1:
            continue
        key = (occ, kv_tile)
        if best is None or key > best[0]:
            best = (key, kv_tile)
    if best is None:
        return KV_TILE_CANDIDATES[0]
    return best[1]


"""Plan execution: numeric kernels plus cost accounting.

``run_mapping`` executes a :class:`~repro.core.scheduler.SchedulePlan` for one
:class:`~repro.sparse.AttentionMapping`, one (query tile, KV chunk) at a time
for every head scheduled on it — the KV head is a grid dimension in
FlashInfer (§3.2.3), here the batch axis of one JIT call: the chunk is
gathered from the pool (the scattered-global-to-contiguous-shared move of
§3.2.1) once for all the query tiles that read it, the kernel produces the
heads' partial attention states over the KV tiles the causal mask lets some
row see, and each is written either to the final output (writethrough) or to
its workspace partial slot; the contraction folds the heads of a split tile
the same way.  A pool held at its storage precision (a ``float16``
:class:`~repro.kvcache.PagedKVCache`) is read as it is: the kernel widens
each KV tile to float64 as it loads it (§4, App. F).  fp8 is emulated on the
gathered chunk: a ``float16`` chunk is quantized by one lookup per value in
a table of every fp16 bit pattern's e4m3 value, a wider one by arithmetic;
fp16 over a wider pool is rounded on the chunk too.  The per-item path this
replaced is kept as the oracle in ``tests/reference_kernels.py``.  The
launch is priced elsewhere: :mod:`repro.core.simulate` charges every launch,
computed or cost-only, from the plan arrays.

``reference_attention`` is the O(n²) dense safe-softmax oracle used by the
test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.composition import contract_slots
from repro.core.jit import CompiledKernel
from repro.core.scheduler import (
    COL_GROUP,
    COL_KVHEAD,
    COL_KVSTART,
    COL_KVSTOP,
    COL_QROWS,
    COL_QSTART,
    COL_SLOT,
    MERGE_GROUP,
    MERGE_KVHEAD,
    MERGE_QROWS,
    MERGE_QSTART,
    SchedulePlan,
)
from repro.gpu.cost import TileCost
from repro.sparse.layout import AttentionMapping
from repro.utils.dtypes import StorageDType, round_to_storage

#: Queries/outputs are staged in fp16 (paper §4: "f16 precision for storage").
Q_ITEMSIZE = 2
#: Partial states live in fp32 in the workspace (Appendix D.3: D+1 floats).
PARTIAL_ITEMSIZE = 4


@dataclass(frozen=True)
class HeadConfig:
    """Attention head geometry."""

    num_qo_heads: int
    num_kv_heads: int
    head_dim: int

    def __post_init__(self) -> None:
        if self.num_qo_heads % self.num_kv_heads != 0:
            raise ValueError(
                f"num_qo_heads ({self.num_qo_heads}) must be a multiple of "
                f"num_kv_heads ({self.num_kv_heads})"
            )

    @property
    def group_size(self) -> int:
        """GQA group size g = H_qo / H_kv (§2.1)."""
        return self.num_qo_heads // self.num_kv_heads


def reference_attention(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    causal: bool = False,
    sm_scale: Optional[float] = None,
    q_pos: Optional[np.ndarray] = None,
    kv_pos: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Dense safe-softmax attention oracle.

    ``q``: ``(n_q, H_qo, D)``; ``k``/``v``: ``(n_kv, H_kv, D)`` with
    ``H_qo`` a multiple of ``H_kv`` (GQA).  Positions default to the
    decode/prefill convention (queries are the trailing positions).
    """
    q = np.asarray(q, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    n_q, h_qo, d = q.shape
    n_kv, h_kv, _ = k.shape
    g = h_qo // h_kv
    if sm_scale is None:
        sm_scale = 1.0 / np.sqrt(d)
    if q_pos is None:
        q_pos = np.arange(n_kv - n_q, n_kv)
    if kv_pos is None:
        kv_pos = np.arange(n_kv)
    out = np.zeros_like(q)
    for h in range(h_qo):
        kh = h // g
        s = (q[:, h] @ k[:, kh].T) * sm_scale
        if causal:
            s = np.where(q_pos[:, None] >= kv_pos[None, :], s, -np.inf)
        m = np.max(s, axis=1, keepdims=True)
        m = np.where(np.isneginf(m), 0.0, m)
        p = np.exp(s - m)
        denom = p.sum(axis=1, keepdims=True)
        denom = np.where(denom == 0.0, 1.0, denom)
        out[:, h] = (p / denom) @ v[:, kh]
    return out


def sampled_isfinite(out: np.ndarray, sample_stride: int = 1) -> bool:
    """Cheap output-guard primitive: ``isfinite`` over every
    ``sample_stride``-th output row.

    The detection hook of :class:`repro.faults.OutputGuard` — kept here so
    kernel-level callers (wrappers, backends) share one implementation and
    one cost model: O(rows/stride) with no temporaries beyond the strided
    view.
    """
    sample = out[::sample_stride] if sample_stride > 1 else out
    return bool(np.isfinite(sample).all())


def run_mapping(
    q: np.ndarray,
    k_pool: np.ndarray,
    v_pool: np.ndarray,
    mapping: AttentionMapping,
    plan: SchedulePlan,
    kernel: CompiledKernel,
    heads: HeadConfig,
    params,
    sm_scale: float,
    kv_tile: int,
    out: np.ndarray,
    lse: np.ndarray,
    partial_o: np.ndarray,
    partial_lse: np.ndarray,
    kv_dtype: StorageDType = StorageDType.FP16,
    fuse_head_groups: bool = True,
    sparse_gather: bool = True,
    tile_set: Optional[Sequence[int]] = None,
    compute_penalty: float = 1.0,
) -> Tuple[List[List[TileCost]], List[TileCost]]:
    """Execute one mapping's plan: numerics into ``out``/``lse``.

    ``out`` (``(total_q, H_qo, D)``) and ``lse`` (``(total_q, H_qo)``) are
    written only at rows/heads this mapping covers.  Split tiles go through
    ``partial_o``/``partial_lse`` (``(slots, max_rows, D)`` / ``(slots,
    max_rows)``) and are contracted per the plan's merge entries.

    Returns ``(cta_cost_queues, merge_costs)``, the plan's footprint as
    :class:`~repro.gpu.cost.TileCost` objects, each item on its own query
    tile of ``tile_set`` (default: the plan's).  Nothing in the library reads
    it — the wrapper prices the launch itself — but the benchmark's
    ``core.kernels`` probe does; the return value goes when the probe is
    unpinned (ROADMAP item 1(b)).
    """
    from repro.core.simulate import plan_tile_costs  # it imports this module

    g = heads.group_size
    g_eff = g if fuse_head_groups else 1

    def query_heads(sched: np.ndarray) -> np.ndarray:
        # (heads, g_eff): a fused KV head's GQA group, or the query head itself.
        return sched[:, None] * g_eff + np.arange(g_eff)

    def write_heads(o, s, group, q_start, head_ids) -> None:
        # Unfuse per-head tiles into the packed layout.
        start = int(mapping.q_row_starts[group]) + q_start
        rows = slice(start, start + o.shape[1] // g_eff)
        out[rows, head_ids.ravel()] = regroup_heads(o, g_eff)
        lse[rows, head_ids.ravel()] = regroup_heads(s, g_eff)

    # The attention kernel, once per (query tile, KV chunk) for every head
    # scheduled on it — the split and the writethrough heads of a chunk apart,
    # should a hand-built plan mix them — KV-chunk-major, so that the query
    # tiles of a chunk follow one another.  Which CTA drains an item never enters
    # the numerics: items write disjoint rows or slots, the merge order is planned.
    items = plan.items
    tile_keys = np.column_stack([
        items[:, [COL_GROUP, COL_KVSTART, COL_KVSTOP]], items[:, COL_SLOT] >= 0,
        items[:, [COL_QSTART, COL_QROWS]],
    ])
    chunk = None  # (group, kv_start, kv_stop, heads) held in k_chunk / v_chunk
    for key, rows in _tiles(tile_keys, items[:, COL_KVHEAD]):
        group, kv_start, kv_stop, split, q_start, q_rows = key
        sched, slot = items[rows, COL_KVHEAD], items[rows, COL_SLOT]
        head_ids = query_heads(sched)
        kv_heads = sched if fuse_head_groups else sched // g
        # Query tiles with GQA head-group fusion: (query, head) row-major.
        row0 = int(mapping.q_row_starts[group]) + q_start
        q_tile = regroup_heads(q[row0 : row0 + q_rows][:, head_ids.ravel()], g_eff)
        q_pos = mapping.q_pos[mapping.qo_indptr[group] + q_start :][:q_rows]
        # Gather the KV chunk (scattered global → contiguous "shared" memory),
        # once for all its heads and all the query tiles that read it; only a
        # chunk not yet at kv_dtype (fp8, or a pool wider than fp16) is rounded.
        wanted = (group, kv_start, kv_stop, kv_heads.tolist())
        if chunk != wanted:
            chunk = wanted
            kv_slots = mapping.kv.slot_indices(group, kv_start, kv_stop)[:, None]
            k_chunk = round_to_storage(k_pool[kv_slots, kv_heads], kv_dtype)
            v_chunk = round_to_storage(v_pool[kv_slots, kv_heads], kv_dtype)
            # A slot's position: its block's plus its offset in the block.
            block, offset = np.divmod(np.arange(kv_start, kv_stop), mapping.kv.block_size)
            kv_pos = mapping._block_positions[mapping.kv.indptr[group] + block] + offset

        o, s = kernel.fn(
            q_tile, k_chunk.transpose(1, 0, 2), v_chunk.transpose(1, 0, 2),
            np.repeat(q_pos, g_eff), kv_pos, np.tile(head_ids, (1, q_rows)), kv_heads,
            params, sm_scale, mapping.causal, kv_tile,
        )
        if split:
            partial_o[slot, : q_rows * g_eff] = o
            partial_lse[slot, : q_rows * g_eff] = s
        else:
            write_heads(o, s, group, q_start, head_ids)

    # The contraction kernel: one left-to-right fold per (group, query tile)
    # over the stacked heads, in the planned (ascending KV) slot order.
    meta, indptr = plan.merge_meta, plan.merge_indptr
    merge_keys = np.column_stack(
        [meta[:, [MERGE_GROUP, MERGE_QSTART, MERGE_QROWS]], indptr[1:] - indptr[:-1]]
    )
    for (group, q_start, q_rows, n), rows in _tiles(merge_keys, meta[:, MERGE_KVHEAD]):
        slots = plan.merge_slots[indptr[rows, None] + np.arange(n)]
        o, s = contract_slots(
            slots.T, partial_o[:, : q_rows * g_eff], partial_lse[:, : q_rows * g_eff],
            kernel.variant.use_softmax,
        )
        write_heads(o, s, group, q_start, query_heads(meta[rows, MERGE_KVHEAD]))
    return plan_tile_costs(
        plan, mapping, heads, kv_tile, kv_dtype,
        (plan.q_tile_size * g_eff,) if tile_set is None else tile_set,
        fuse_head_groups, sparse_gather, compute_penalty,
    )


def _tiles(keys: np.ndarray, head: np.ndarray) -> Iterator[Tuple[List[int], np.ndarray]]:
    """Group the rows of a plan table by ``keys`` (``int64[n, k]``): yields
    each distinct key with the indices of its rows, ordered by ``head``."""
    order = np.lexsort((head, *keys.T[::-1]))
    keys = keys[order]
    starts = np.flatnonzero(np.r_[True, (keys[1:] != keys[:-1]).any(axis=1)][: len(order)])
    for a, b in zip(starts, [*starts[1:], len(order)]):
        yield keys[a].tolist(), order[a:b]


def regroup_heads(x: np.ndarray, g_eff: int) -> np.ndarray:
    """``(a, b·g_eff, ...)`` → ``(b, a·g_eff, ...)``: packed ``(query, head)``
    rows to one ``(query, group member)``-row-major tile per scheduled head
    (GQA head-group fusion, App. A) and — it is its own inverse — back."""
    a, b, rest = x.shape[0], x.shape[1] // g_eff, x.shape[2:]
    return np.swapaxes(x.reshape(a, b, g_eff, *rest), 0, 1).reshape(b, a * g_eff, *rest)

"""FlashAttention-library baseline (the §4.2 comparison point).

Models the open-source FlashAttention2/3 kernels as used for LLM serving:

* **fixed tile sizes** — the library ships one prefill tile (128 query
  rows) and a fixed decode tile, "optimal for prefill on A100 but
  inefficient for shorter-query-length decoding" (§3.2.2);
* **grid launches, one block per (request, tile, head)** — no persistent
  work queue and no cross-request load balancing, so skewed batches leave
  SMs idle (§4.2);
* **uniform flash-decoding splits (FA3)** — each request's KV is split into
  the same number of chunks regardless of its length, chosen once per
  batch to fill the device, rather than FlashInfer's per-request balanced
  chunking.

Numerics are exact (the baseline shares the reference FA2 sweep); only the
scheduling/cost discipline differs, which is the variable under test.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.jit import KernelTraits, get_kernel
from repro.core.kernels import HeadConfig, run_mapping
from repro.core.scheduler import MergeEntry, SchedulePlan, WorkItem
from repro.core.variant import VANILLA, AttentionVariant
from repro.gpu.cost import KernelCostModel, TileCost
from repro.gpu.executor import PersistentKernelExecutor, SimReport
from repro.gpu.spec import A100_40G, GPUSpec
from repro.sparse.bsr import ceil_div
from repro.sparse.layout import AttentionMapping
from repro.utils.dtypes import StorageDType

#: The library's compiled tile sizes: (query tile, kv tile).
FA2_PREFILL_TILE = (128, 64)
FA3_PREFILL_TILE = (128, 128)
FA2_DECODE_TILE = (128, 64)  # decode reuses the prefill kernel (suboptimal)
FA3_DECODE_TILE = (64, 128)


class FlashAttentionBaseline:
    """Grid-launched FA2/FA3 with fixed tiles and uniform splits."""

    def __init__(
        self,
        heads: HeadConfig,
        gpu: GPUSpec = A100_40G,
        version: str = "fa2",
        kv_dtype: StorageDType = StorageDType.FP16,
        variant: AttentionVariant = VANILLA,
        cost_model: Optional[KernelCostModel] = None,
    ):
        if version not in ("fa2", "fa3"):
            raise ValueError(f"unknown FlashAttention version {version!r}")
        self.heads = heads
        self.gpu = gpu
        self.version = version
        self.kv_dtype = kv_dtype
        self.variant = variant
        self.executor = PersistentKernelExecutor(gpu, cost_model)
        self.last_report: Optional[SimReport] = None

    def _tiles(self, decode: bool) -> Tuple[int, int]:
        if self.version == "fa2":
            return FA2_DECODE_TILE if decode else FA2_PREFILL_TILE
        return FA3_DECODE_TILE if decode else FA3_PREFILL_TILE

    def _build_items(
        self, mapping: AttentionMapping, decode: bool
    ) -> Tuple[List[WorkItem], int, int, int]:
        """Enumerate grid blocks: (request, q tile, head, [split])."""
        q_tile, kv_tile = self._tiles(decode)
        g = self.heads.group_size
        sched_q_tile = max(q_tile // g, 1)
        kv_lens = mapping.kv.kv_lens
        qo_lens = mapping.qo_lens
        n_req = mapping.num_groups
        heads_dim = self.heads.num_kv_heads

        if decode and self.version == "fa3":
            # Flash-decoding: one split count for the whole batch, chosen to
            # fill the device; every request gets the same number of chunks.
            base_blocks = n_req * heads_dim
            num_splits = max(1, min(128, ceil_div(self.gpu.num_sms, max(base_blocks, 1))))
        else:
            num_splits = 1

        items: List[WorkItem] = []
        slot = 0
        for r in range(n_req):
            lq, lkv = int(qo_lens[r]), int(kv_lens[r])
            if lq == 0:
                continue
            for t in range(ceil_div(lq, sched_q_tile)):
                q_start = t * sched_q_tile
                q_rows = min(sched_q_tile, lq - q_start)
                for h in range(heads_dim):
                    if num_splits == 1 or lkv == 0:
                        items.append(WorkItem(0, r, t, q_start, q_rows, 0, lkv, h, -1))
                    else:
                        chunk = ceil_div(lkv, num_splits)
                        for c in range(num_splits):
                            k0 = c * chunk
                            k1 = min(k0 + chunk, lkv)
                            if k0 >= k1:
                                continue
                            items.append(
                                WorkItem(0, r, t, q_start, q_rows, k0, k1, h, slot)
                            )
                            slot += 1
        return items, sched_q_tile, kv_tile, num_splits

    @staticmethod
    def _merge_entries(items: List[WorkItem]) -> List[MergeEntry]:
        """Split-K reduction entries: one per tile, slots in ascending KV."""
        merges: dict = {}
        for w in items:
            if w.partial_slot >= 0:
                merges.setdefault((w.group, w.q_tile, w.kv_head), []).append(w)
        return [
            MergeEntry(
                0, key[0], ws[0].q_start, ws[0].q_rows, key[2],
                tuple(w.partial_slot for w in sorted(ws, key=lambda x: x.kv_start)),
            )
            for key, ws in merges.items()
        ]

    def run(
        self,
        mapping: AttentionMapping,
        q: Optional[np.ndarray] = None,
        k_pool: Optional[np.ndarray] = None,
        v_pool: Optional[np.ndarray] = None,
        decode: bool = False,
        compute: bool = False,
        sparse_gather: bool = False,
    ) -> Tuple[Optional[np.ndarray], SimReport]:
        """Launch the FA kernel grid over a batch mapping.

        ``sparse_gather=False`` models the library's contiguous
        (ragged-dense) KV path; FA3 dense additionally uses TMA (no gather
        cost by construction here).
        """
        items, sched_q_tile, kv_tile, num_splits = self._build_items(mapping, decode)
        from repro.core.simulate import item_cost_arrays, simulate_grid

        n_partials = sum(1 for w in items if w.partial_slot >= 0)
        # One grid: every block is a "queue" entry of a single launch.
        plan = SchedulePlan.from_queues(
            [items], self._merge_entries(items) if compute else [],
            n_partials, sched_q_tile, kv_tile,
        )
        costs = item_cost_arrays(
            plan.items, mapping, self.heads, kv_tile, self.kv_dtype, sched_q_tile,
            fuse_head_groups=True,
            uses_tensor_cores=sched_q_tile * self.heads.group_size >= 16,
            sparse_gather=sparse_gather,
            cost_model=self.executor.cost_model,
            compute_share=1.0,
        )
        report = simulate_grid(self.executor, costs)
        if num_splits > 1:
            # Split-K reduction pass: read all partial states, write finals.
            d = self.heads.head_dim
            g = self.heads.group_size
            rows = sched_q_tile * g
            red = TileCost(
                flops=4.0 * rows * d,
                padded_flops=4.0 * rows * d,
                bytes_read=float(rows * (d + 1) * 4),
                bytes_written=float(rows * d * 4) / max(num_splits, 1),
                uses_tensor_cores=False,
            )
            report = report.combine(self.executor.run_grid([red] * n_partials))

        out = None
        if compute:
            if q is None or k_pool is None or v_pool is None:
                raise ValueError("compute=True requires q, k_pool, v_pool")
            out = np.zeros((q.shape[0], self.heads.num_qo_heads, self.heads.head_dim))
            lse = np.full((q.shape[0], self.heads.num_qo_heads), -np.inf)
            traits = KernelTraits(
                head_dim=self.heads.head_dim, q_tile=max(sched_q_tile, 1),
                kv_tile=kv_tile, is_sparse=sparse_gather, kv_dtype=self.kv_dtype,
                backend="fa2",
            )
            kernel = get_kernel(self.variant, traits)
            n_slots = max(n_partials, 1)
            rows_eff = sched_q_tile * self.heads.group_size
            partial_o = np.zeros((n_slots, rows_eff, self.heads.head_dim), dtype=np.float32)
            partial_lse = np.full((n_slots, rows_eff), -np.inf, dtype=np.float32)
            run_mapping(
                q, k_pool, v_pool, mapping, plan, kernel, self.heads,
                self.variant.bind_params({}), 1.0 / np.sqrt(self.heads.head_dim),
                kv_tile, out, lse, partial_o, partial_lse,
                kv_dtype=self.kv_dtype, fuse_head_groups=True,
                sparse_gather=sparse_gather,
            )
        self.last_report = report
        return out, report

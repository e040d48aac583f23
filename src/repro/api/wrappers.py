"""FlashInfer-compatible public API surface.

The open-source FlashInfer library exposes task-specific wrappers
(``BatchDecodeWithPagedKVCacheWrapper``,
``BatchPrefillWithPagedKVCacheWrapper``,
``BatchPrefillWithRaggedKVCacheWrapper`` — the APIs cited in Appendix B)
plus single-request helpers and the state-merge operators.  This module
provides the same names and call shapes over this reproduction's engine,
so downstream code written against the real library's Python API ports
directly.

All wrappers share the plan/run discipline of paper §3.4 (Listing 1):
construct once with a workspace buffer, ``plan`` per generation step on
the CPU, ``run`` any number of times per plan.  The one plan/run surface
is :class:`repro.core.wrapper.BatchAttentionWrapper`; each class here is a
*lowering* onto it: a ``plan`` that turns the library's page-table triple
or ragged indptrs into an :class:`AttentionMapping`, plus task defaults.

Every wrapper accepts an optional :class:`repro.obs.StepTracer`; when
attached, each ``run`` records a :class:`repro.obs.KernelRecord` so
standalone wrapper calls are profiled with the same schema as engine
steps.
"""

from __future__ import annotations

import functools
from typing import Optional, Tuple

import numpy as np

from repro.core.kernels import HeadConfig
from repro.core.state import merge_states as _merge_states_raw
from repro.core.variant import VANILLA, AttentionVariant
from repro.core.wrapper import BatchAttentionWrapper
from repro.gpu.executor import SimReport
from repro.gpu.spec import A100_40G, GPUSpec
from repro.gpu.workspace import WorkspaceBuffer
from repro.obs.events import KernelRecord
from repro.obs.tracer import StepTracer
from repro.sparse.layout import AttentionMapping, BlockSparseKV
from repro.utils.dtypes import StorageDType


class _WrapperBase:
    """What the public wrappers share: the inner :class:`BatchAttentionWrapper`
    (its planned mapping is the one record of planned state and of the pool
    bound), the page-table lowering, ``run`` and ``last_report``.  A subclass
    overrides the paged-prefill constructor only where its task fixes an argument."""

    #: Set by subclasses; labels the kernel records.
    _phase = "prefill"
    #: Paged KV gathers rows through the page table; ragged KV is contiguous.
    _sparse_gather = True

    def __init__(
        self,
        workspace: WorkspaceBuffer,
        num_qo_heads: int,
        num_kv_heads: int,
        head_dim: int,
        page_size: int,
        gpu: GPUSpec = A100_40G,
        variant: AttentionVariant = VANILLA,
        kv_dtype: StorageDType = StorageDType.FP16,
        avg_qo_len: float = 512.0,
        max_batch_size: Optional[int] = None,
        max_total_qo: Optional[int] = None,
        tracer: Optional[StepTracer] = None,
        plan_cache=None,
    ):
        self.tracer = tracer
        self.page_size = page_size
        self.heads = HeadConfig(num_qo_heads, num_kv_heads, head_dim)
        self._inner = BatchAttentionWrapper(
            variant, self.heads, workspace, gpu, avg_qo_len=avg_qo_len, kv_dtype=kv_dtype,
            sparse_gather=self._sparse_gather, max_batch_size=max_batch_size,
            max_total_qo=max_total_qo, plan_cache=plan_cache,
        )

    def _plan(self, qo_indptr, kv_indptr, kv_indices, last_page_len, causal, params, sm_scale):
        """Lower the page-table triple ``(kv_indptr, kv_indices, last_page_len)`` to an
        :class:`AttentionMapping` and plan it; the pool bound is the largest page index."""
        kv_indices = np.asarray(kv_indices, dtype=np.int64)
        n_pages = np.diff(kv_indptr)
        kv_lens = np.where(n_pages > 0, (n_pages - 1) * self.page_size + last_page_len, 0)
        pool_num_pages = int(kv_indices.max()) + 1 if kv_indices.size else 0
        kv = BlockSparseKV(self.page_size, pool_num_pages, kv_indptr, kv_indices, kv_lens)
        self._inner.plan(
            AttentionMapping(qo_indptr, kv, causal=causal), params=params, sm_scale=sm_scale
        )

    def run(self, q: np.ndarray, k_pool: np.ndarray, v_pool: np.ndarray, return_lse: bool = False):
        """Attention under the current plan: ``q`` is packed ``(total_qo, H_qo,
        D)`` (one row per request for decode); ``k_pool``/``v_pool`` are the
        page pools — for the ragged wrapper, the packed ``(total_kv, H_kv, D)``
        tensors."""
        name = type(self).__name__
        mapping = self._inner._mapping
        if mapping is None:
            raise RuntimeError(
                f"{name}.run() called before plan(); call {name}.plan(...) with the "
                f"current page table/indptrs first (§3.4 plan/run discipline)"
            )
        have = int(np.shape(k_pool)[0]) // self.page_size
        if have < mapping.kv.pool_blocks:
            raise ValueError(
                f"{name}: K/V pool holds {have} pages of {self.page_size} slots but the "
                f"planned page table references page {mapping.kv.pool_blocks - 1}; "
                f"pass the pool the page table was built from"
            )
        out, lse, report = self._inner.run(q, k_pool, v_pool)
        if self.tracer is not None:
            self.tracer.record_kernel(KernelRecord.from_report(name, self._phase, report))
        return (out, lse) if return_lse else out

    @property
    def last_report(self) -> Optional[SimReport]:
        return self._inner.last_report


class BatchDecodeWithPagedKVCacheWrapper(_WrapperBase):
    """Batch decode attention over a paged KV cache.

    Mirrors ``flashinfer.decode.BatchDecodeWithPagedKVCacheWrapper``:
    ``plan`` takes the page-table triple ``(kv_indptr, kv_indices,
    last_page_len)``; ``run`` takes the query tensor and the K/V page pools.
    """

    _phase = "decode"

    def __init__(
        self,
        workspace: WorkspaceBuffer,
        num_qo_heads: int,
        num_kv_heads: int,
        head_dim: int,
        page_size: int,
        gpu: GPUSpec = A100_40G,
        variant: AttentionVariant = VANILLA,
        kv_dtype: StorageDType = StorageDType.FP16,
        max_batch_size: Optional[int] = None,
        tracer: Optional[StepTracer] = None,
        plan_cache=None,
    ):
        # One query row per request: the row bound is the batch bound.
        super().__init__(
            workspace, num_qo_heads, num_kv_heads, head_dim, page_size, gpu, variant, kv_dtype,
            avg_qo_len=1.0, max_batch_size=max_batch_size, max_total_qo=max_batch_size,
            tracer=tracer, plan_cache=plan_cache,
        )

    def plan(
        self,
        kv_indptr: np.ndarray,
        kv_indices: np.ndarray,
        last_page_len: np.ndarray,
        *,
        params: Optional[dict] = None,
        sm_scale: Optional[float] = None,
    ) -> None:
        """Stage the decode schedule for the current page table."""
        qo_indptr = np.arange(np.asarray(kv_indptr).size)  # one query row each
        self._plan(qo_indptr, kv_indptr, kv_indices, last_page_len, True, params, sm_scale)


class BatchPrefillWithPagedKVCacheWrapper(_WrapperBase):
    """Batch (incremental) prefill attention over a paged KV cache.

    Mirrors ``flashinfer.prefill.BatchPrefillWithPagedKVCacheWrapper``:
    queries are packed per ``qo_indptr``; KV comes from the page pool.
    """

    def plan(
        self,
        qo_indptr: np.ndarray,
        kv_indptr: np.ndarray,
        kv_indices: np.ndarray,
        last_page_len: np.ndarray,
        *,
        causal: bool = True,
        params: Optional[dict] = None,
        sm_scale: Optional[float] = None,
    ) -> None:
        self._plan(qo_indptr, kv_indptr, kv_indices, last_page_len, causal, params, sm_scale)


class BatchPrefillWithRaggedKVCacheWrapper(_WrapperBase):
    """Batch prefill over *contiguous* (ragged) K/V tensors.

    Mirrors ``flashinfer.prefill.BatchPrefillWithRaggedKVCacheWrapper`` —
    the dense path of Appendix B: K/V are packed ``(total_kv, H, D)``
    tensors sharing ``kv_indptr`` with no page indirection, so loads are
    contiguous (TMA-eligible on Hopper).
    """

    _sparse_gather = False

    def __init__(
        self,
        workspace: WorkspaceBuffer,
        num_qo_heads: int,
        num_kv_heads: int,
        head_dim: int,
        gpu: GPUSpec = A100_40G,
        variant: AttentionVariant = VANILLA,
        kv_dtype: StorageDType = StorageDType.FP16,
        avg_qo_len: float = 512.0,
        max_batch_size: Optional[int] = None,
        max_total_qo: Optional[int] = None,
        tracer: Optional[StepTracer] = None,
        plan_cache=None,
    ):
        # Contiguous rows = a degenerate block-sparse layout with B_c = 1.
        super().__init__(
            workspace, num_qo_heads, num_kv_heads, head_dim, 1, gpu, variant, kv_dtype,
            avg_qo_len, max_batch_size, max_total_qo, tracer, plan_cache,
        )

    def plan(
        self,
        qo_indptr: np.ndarray,
        kv_indptr: np.ndarray,
        causal: bool = True,
        params: Optional[dict] = None,
        sm_scale: Optional[float] = None,
    ) -> None:
        """Ragged layout: request ``i`` owns KV rows
        ``[kv_indptr[i], kv_indptr[i+1])`` of the packed K/V tensors."""
        self._inner.plan(
            AttentionMapping(qo_indptr, BlockSparseKV.ragged(kv_indptr), causal=causal),
            params=params, sm_scale=sm_scale,
        )


# -- single-request helpers (flashinfer.single_* equivalents) -----------------


@functools.lru_cache(maxsize=None)
def _single_prefill_wrapper(
    variant: AttentionVariant, gpu: GPUSpec,
    num_qo_heads: int, num_kv_heads: int, head_dim: int, qo_cap: int,
) -> BatchPrefillWithRaggedKVCacheWrapper:
    """One geometry's single-request wrapper, memoised with its own 64 MB workspace:
    sections are sized by head geometry and ``qo_cap``, never by KV length."""
    return BatchPrefillWithRaggedKVCacheWrapper(
        WorkspaceBuffer(64 * 1024 * 1024), num_qo_heads, num_kv_heads, head_dim, gpu=gpu,
        variant=variant, avg_qo_len=float(qo_cap), max_batch_size=1, max_total_qo=qo_cap,
    )


def clear_workspace_cache() -> None:
    """Drop the cached single-request wrappers and workspaces (tests, memory)."""
    _single_prefill_wrapper.cache_clear()


def single_prefill_with_kv_cache(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    causal: bool = True,
    sm_scale: Optional[float] = None,
    variant: AttentionVariant = VANILLA,
    gpu: GPUSpec = A100_40G,
    params: Optional[dict] = None,
    tracer: Optional[StepTracer] = None,
) -> np.ndarray:
    """One-shot prefill attention for a single request (no paging)."""
    n_q, n_kv = q.shape[0], k.shape[0]
    # Round the query bound up to a power of two so all calls in the same
    # band share one wrapper (and its fixed-offset workspace sections).
    qo_cap = 1 << max(10, int(max(n_q, 1) - 1).bit_length())
    w = _single_prefill_wrapper(variant, gpu, q.shape[1], k.shape[1], q.shape[2], qo_cap)
    w.tracer = tracer
    w.plan(np.array([0, n_q]), np.array([0, n_kv]), causal=causal,
           params=params, sm_scale=sm_scale)
    try:
        return w.run(q, k, v)
    finally:
        w.tracer = None


def single_decode_with_kv_cache(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    sm_scale: Optional[float] = None,
    variant: AttentionVariant = VANILLA,
    gpu: GPUSpec = A100_40G,
    params: Optional[dict] = None,
    tracer: Optional[StepTracer] = None,
) -> np.ndarray:
    """One-shot decode attention: ``q`` is ``(H_qo, D)``, K/V ``(n, H_kv, D)``."""
    out = single_prefill_with_kv_cache(
        q[None], k, v, causal=True, sm_scale=sm_scale, variant=variant,
        gpu=gpu, params=params, tracer=tracer,
    )
    return out[0]


# -- state-merge operators (flashinfer.merge_state / merge_states) ------------


def merge_state(
    v_a: np.ndarray, s_a: np.ndarray, v_b: np.ndarray, s_b: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Merge two attention states ``(V, S)`` with ``⊕`` (paper §2.2)."""
    return _merge_states_raw(v_a, s_a, v_b, s_b)


def merge_states(v: np.ndarray, s: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Merge ``num_states`` stacked attention states: ``v`` is
    ``(num_states, ..., D)``, ``s`` is ``(num_states, ...)``."""
    v = np.asarray(v)
    s = np.asarray(s)
    if v.shape[0] != s.shape[0] or v.shape[0] == 0:
        raise ValueError("v and s must stack the same non-zero number of states")
    out_v, out_s = v[0], s[0]
    for i in range(1, v.shape[0]):
        out_v, out_s = _merge_states_raw(out_v, out_s, v[i], s[i])
    return out_v, out_s

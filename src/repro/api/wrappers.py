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
the CPU, ``run`` any number of times per plan.  The two paged wrappers
share one plan path (:func:`_paged_kv_mapping`): the KV-pool page count is
inferred from the page-table indices at ``plan`` time and validated
against the K/V pools passed to ``run``.

Every wrapper accepts an optional :class:`repro.obs.StepTracer`; when
attached, each ``run`` records a :class:`repro.obs.KernelRecord` so
standalone wrapper calls are profiled with the same schema as engine
steps.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

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


def _paged_kv_mapping(
    page_size: int,
    qo_indptr: np.ndarray,
    kv_indptr: np.ndarray,
    kv_indices: np.ndarray,
    last_page_len: np.ndarray,
    causal: bool,
) -> AttentionMapping:
    """Shared plan path of the paged wrappers: lower the FlashInfer page-table
    triple ``(kv_indptr, kv_indices, last_page_len)`` to an
    :class:`AttentionMapping`.

    The pool bound is inferred from the largest referenced page index (the
    K/V pools handed to ``run()`` are validated against it).
    """
    kv_indptr = np.asarray(kv_indptr, dtype=np.int64)
    kv_indices = np.asarray(kv_indices, dtype=np.int64)
    last_page_len = np.asarray(last_page_len, dtype=np.int64)
    pages_per_seq = np.diff(kv_indptr)
    kv_lens = np.where(
        pages_per_seq > 0,
        (pages_per_seq - 1) * page_size + last_page_len,
        0,
    )
    pool_num_pages = int(kv_indices.max()) + 1 if kv_indices.size else 1
    kv = BlockSparseKV(page_size, pool_num_pages, kv_indptr, kv_indices, kv_lens)
    return AttentionMapping(
        np.asarray(qo_indptr, dtype=np.int64), kv, causal=causal
    )


class _WrapperBase:
    """Shared plan/run state machine for the public wrappers."""

    #: Set by subclasses; used for error messages and kernel records.
    _phase = "batch"

    def __init__(self, tracer: Optional[StepTracer] = None):
        self.tracer = tracer
        self._planned = False
        self._min_pool_pages: Optional[int] = None

    def _require_plan(self) -> None:
        if not self._planned:
            raise RuntimeError(
                f"{type(self).__name__}.run() called before plan(); call "
                f"{type(self).__name__}.plan(...) with the current page "
                f"table/indptrs first (§3.4 plan/run discipline)"
            )

    def _check_pool(self, pool: Optional[np.ndarray], page_size: int) -> None:
        if pool is None or self._min_pool_pages is None:
            return
        have = int(np.shape(pool)[0]) // page_size
        if have < self._min_pool_pages:
            raise ValueError(
                f"{type(self).__name__}: K/V pool holds {have} pages of "
                f"{page_size} slots but the planned page table references "
                f"page {self._min_pool_pages - 1}; pass the pool the page "
                f"table was built from"
            )

    def _record(self, report: Optional[SimReport]) -> None:
        if self.tracer is not None and report is not None:
            self.tracer.record_kernel(
                KernelRecord.from_report(type(self).__name__, self._phase, report)
            )


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
        super().__init__(tracer)
        self.page_size = page_size
        self.heads = HeadConfig(num_qo_heads, num_kv_heads, head_dim)
        self._inner = BatchAttentionWrapper(
            variant, self.heads, workspace, gpu,
            avg_qo_len=1.0, kv_dtype=kv_dtype,
            max_batch_size=max_batch_size,
            max_total_qo=max_batch_size,
        )
        self._inner.plan_cache = plan_cache

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
        kv_indices = np.asarray(kv_indices, dtype=np.int64)
        batch = np.asarray(kv_indptr).size - 1
        mapping = _paged_kv_mapping(
            self.page_size, np.arange(batch + 1, dtype=np.int64),
            kv_indptr, kv_indices, last_page_len, causal=True,
        )
        self._min_pool_pages = int(kv_indices.max()) + 1 if kv_indices.size else 0
        self._inner.plan(mapping, params=params, sm_scale=sm_scale)
        self._planned = True

    def run(
        self,
        q: np.ndarray,
        k_pool: np.ndarray,
        v_pool: np.ndarray,
        return_lse: bool = False,
    ):
        """Compute decode attention: ``q`` is ``(batch, H_qo, D)``."""
        self._require_plan()
        self._check_pool(k_pool, self.page_size)
        out, lse, report = self._inner.run(q, k_pool, v_pool)
        self._record(report)
        return (out, lse) if return_lse else out

    @property
    def last_report(self) -> Optional[SimReport]:
        return self._inner.last_report


class BatchPrefillWithPagedKVCacheWrapper(_WrapperBase):
    """Batch (incremental) prefill attention over a paged KV cache.

    Mirrors ``flashinfer.prefill.BatchPrefillWithPagedKVCacheWrapper``:
    queries are packed per ``qo_indptr``; KV comes from the page pool.
    """

    _phase = "prefill"

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
        super().__init__(tracer)
        self.page_size = page_size
        self.heads = HeadConfig(num_qo_heads, num_kv_heads, head_dim)
        self._inner = BatchAttentionWrapper(
            variant, self.heads, workspace, gpu,
            avg_qo_len=avg_qo_len, kv_dtype=kv_dtype,
            max_batch_size=max_batch_size, max_total_qo=max_total_qo,
        )
        self._inner.plan_cache = plan_cache

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
        kv_indices = np.asarray(kv_indices, dtype=np.int64)
        mapping = _paged_kv_mapping(
            self.page_size, qo_indptr, kv_indptr, kv_indices, last_page_len,
            causal=causal,
        )
        self._min_pool_pages = int(kv_indices.max()) + 1 if kv_indices.size else 0
        self._inner.plan(mapping, params=params, sm_scale=sm_scale)
        self._planned = True

    def run(self, q, k_pool, v_pool, return_lse: bool = False):
        self._require_plan()
        self._check_pool(k_pool, self.page_size)
        out, lse, report = self._inner.run(q, k_pool, v_pool)
        self._record(report)
        return (out, lse) if return_lse else out

    @property
    def last_report(self) -> Optional[SimReport]:
        return self._inner.last_report


class BatchPrefillWithRaggedKVCacheWrapper(_WrapperBase):
    """Batch prefill over *contiguous* (ragged) K/V tensors.

    Mirrors ``flashinfer.prefill.BatchPrefillWithRaggedKVCacheWrapper`` —
    the dense path of Appendix B: K/V are packed ``(total_kv, H, D)``
    tensors sharing ``kv_indptr`` with no page indirection, so loads are
    contiguous (TMA-eligible on Hopper).
    """

    _phase = "prefill"

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
        super().__init__(tracer)
        self.heads = HeadConfig(num_qo_heads, num_kv_heads, head_dim)
        self._inner = BatchAttentionWrapper(
            variant, self.heads, workspace, gpu,
            avg_qo_len=avg_qo_len, kv_dtype=kv_dtype, sparse_gather=False,
            max_batch_size=max_batch_size, max_total_qo=max_total_qo,
        )
        self._inner.plan_cache = plan_cache

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
        kv_indptr = np.asarray(kv_indptr, dtype=np.int64)
        kv_lens = np.diff(kv_indptr)
        total_kv = int(kv_indptr[-1])
        # Contiguous rows = a degenerate block-sparse layout with B_c = 1
        # and identity gather.
        indices = np.arange(total_kv, dtype=np.int64)
        kv = BlockSparseKV(1, max(total_kv, 1), kv_indptr, indices, kv_lens)
        mapping = AttentionMapping(
            np.asarray(qo_indptr, dtype=np.int64), kv, causal=causal
        )
        self._min_pool_pages = total_kv
        self._inner.plan(mapping, params=params, sm_scale=sm_scale)
        self._planned = True

    def run(self, q, k, v, return_lse: bool = False):
        self._require_plan()
        self._check_pool(k, 1)
        out, lse, report = self._inner.run(q, k, v)
        self._record(report)
        return (out, lse) if return_lse else out

    @property
    def last_report(self) -> Optional[SimReport]:
        return self._inner.last_report


# -- single-request helpers (flashinfer.single_* equivalents) -----------------

#: Module-level workspace reuse for the single-request helpers, keyed by
#: power-of-two size class.  The old behaviour allocated a fresh ≥64 MB
#: buffer on *every* call; steady-state single-request traffic now touches
#: one cached buffer per size class.
_WORKSPACE_CACHE: Dict[int, WorkspaceBuffer] = {}
#: Cached single-prefill wrappers keyed by (variant, gpu, geometry, bounds);
#: wrapper workspace sections are append-only, so reusing the wrapper (not
#: just the buffer) is what makes repeat calls allocation-free.
_SINGLE_WRAPPER_CACHE: Dict[tuple, BatchPrefillWithRaggedKVCacheWrapper] = {}


def _workspace_size_class(nbytes: int) -> int:
    return 1 << max(26, int(nbytes - 1).bit_length())  # ≥ 64 MB


def _cached_workspace(nbytes: int) -> WorkspaceBuffer:
    size_class = _workspace_size_class(nbytes)
    ws = _WORKSPACE_CACHE.get(size_class)
    if ws is None:
        ws = WorkspaceBuffer(size_class)
        _WORKSPACE_CACHE[size_class] = ws
    return ws


def clear_workspace_cache() -> None:
    """Drop the cached single-request workspaces/wrappers (tests, memory)."""
    _WORKSPACE_CACHE.clear()
    _SINGLE_WRAPPER_CACHE.clear()


def _single_prefill_wrapper(
    n_q: int, n_kv: int, num_qo_heads: int, num_kv_heads: int, head_dim: int,
    variant: AttentionVariant, gpu: GPUSpec,
) -> BatchPrefillWithRaggedKVCacheWrapper:
    ws = _cached_workspace(max(64 * 1024 * 1024, n_kv * 1024))
    # Round the query bound up to a power of two so all calls in the same
    # band share one wrapper (and its fixed-offset workspace sections).
    qo_cap = 1 << max(10, int(max(n_q, 1) - 1).bit_length())
    key = (
        variant, gpu, num_qo_heads, num_kv_heads, head_dim,
        ws.buffer_id, qo_cap,
    )
    w = _SINGLE_WRAPPER_CACHE.get(key)
    if w is None:
        try:
            w = BatchPrefillWithRaggedKVCacheWrapper(
                ws, num_qo_heads, num_kv_heads, head_dim, gpu=gpu,
                variant=variant, avg_qo_len=float(qo_cap),
                max_batch_size=1, max_total_qo=qo_cap,
            )
        except MemoryError:
            # Cached buffer exhausted by other geometries: fall back to a
            # dedicated (uncached) workspace for this wrapper.
            w = BatchPrefillWithRaggedKVCacheWrapper(
                WorkspaceBuffer(_workspace_size_class(max(64 * 1024 * 1024, n_kv * 1024))),
                num_qo_heads, num_kv_heads, head_dim, gpu=gpu,
                variant=variant, avg_qo_len=float(qo_cap),
                max_batch_size=1, max_total_qo=qo_cap,
            )
        _SINGLE_WRAPPER_CACHE[key] = w
    return w


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
    w = _single_prefill_wrapper(
        n_q, n_kv, q.shape[1], k.shape[1], q.shape[2], variant, gpu
    )
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

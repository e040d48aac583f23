"""FlashInfer reproduction: a customizable attention engine for LLM serving.

Pure-Python/NumPy reimplementation of *FlashInfer: Efficient and
Customizable Attention Engine for LLM Inference Serving* (MLSys 2025) with
a simulated-GPU cost model in place of CUDA hardware.  See DESIGN.md for the
substitution statement and the per-experiment index.

Public API highlights
---------------------
- :class:`repro.core.BatchAttentionWrapper` / ``ComposableAttentionWrapper``
  — the plan/run interface of paper §3.4.
- :class:`repro.core.AttentionVariant` — JIT-compiled attention variants
  (§3.2.3), with a library of ready variants in :mod:`repro.variants`.
- :mod:`repro.sparse` — BSR / composable formats unifying KV-cache storage.
- :mod:`repro.kvcache` — paged KV cache and radix-tree prefix cache.
- :mod:`repro.gpu` — the simulated GPU (A100/H100 cost model, CUDAGraph).
- :mod:`repro.serving` — continuous-batching engine for end-to-end
  experiments.
"""

__version__ = "0.2.0"

from repro.core import (
    AttentionVariant,
    BatchAttentionWrapper,
    ComposableAttentionWrapper,
    HeadConfig,
    KernelTraits,
    ParamDecl,
    VANILLA,
    get_kernel,
    merge_states,
    plan_schedule,
    reference_attention,
)
from repro.gpu import A100_40G, H100_80G, CudaGraph, GPUSpec, WorkspaceBuffer
from repro.sparse import (
    AttentionMapping,
    BSRMatrix,
    BlockSparseKV,
    ComposableFormat,
    decompose_shared_prefix,
)
from repro.kvcache import PagedKVCache, RadixTree

__all__ = [
    "__version__",
    "AttentionVariant",
    "BatchAttentionWrapper",
    "ComposableAttentionWrapper",
    "HeadConfig",
    "KernelTraits",
    "ParamDecl",
    "VANILLA",
    "get_kernel",
    "merge_states",
    "plan_schedule",
    "reference_attention",
    "A100_40G",
    "H100_80G",
    "CudaGraph",
    "GPUSpec",
    "WorkspaceBuffer",
    "AttentionMapping",
    "BSRMatrix",
    "BlockSparseKV",
    "ComposableFormat",
    "decompose_shared_prefix",
    "PagedKVCache",
    "RadixTree",
]

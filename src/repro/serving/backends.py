"""Attention backends for the serving engine (the §4.1/§4.4 comparisons).

The end-to-end experiments hold the serving stack constant and swap the
attention backend:

* :class:`FlashInferBackend` — this library: load-balanced persistent
  kernels, split-KV, CUDAGraph capture, optional composable formats.
* :class:`TritonBackend` — the SGLang Triton v3.0 backend analog: correct
  kernels at lower achieved efficiency (Triton underperforms hand-tuned
  CUDA/CUTLASS on these shapes — paper Appendix C), fixed tile sizes, grid
  launches without balanced KV splitting, and more per-layer kernel
  launches.
* :class:`TRTLLMBackend` — the TensorRT-LLM analog: attention on par with
  FlashInfer (XQA-class kernels) plus *better non-attention kernels and
  communication* — the paper attributes TRT-LLM's ShareGPT edge to "other
  kernels (e.g. allreduce) and system design", so those factors live here
  as efficiency constants.

A backend reports per-layer attention time for a batch mapping, plus the
framework efficiencies the engine folds into the rest of the step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.baselines.flash_attention import FlashAttentionBaseline
from repro.core.kernels import HeadConfig
from repro.core.variant import VANILLA
from repro.core.wrapper import ComposableAttentionWrapper
from repro.gpu.cost import KernelCostModel
from repro.gpu.executor import PersistentKernelExecutor, SimReport
from repro.gpu.spec import GPUSpec
from repro.gpu.workspace import WorkspaceBuffer
from repro.sparse.composable import ComposableFormat
from repro.sparse.layout import AttentionMapping
from repro.utils.dtypes import StorageDType


@dataclass
class BackendCharacteristics:
    """Per-backend constants applied by the engine."""

    gemm_efficiency: float
    allreduce_efficiency: float
    #: Host-side launches per layer when CUDAGraph is unavailable/off.
    launches_per_layer: int
    uses_cudagraph: bool


class AttentionBackend:
    """Interface: per-layer attention time plus stack characteristics."""

    name: str = "base"
    characteristics: BackendCharacteristics
    supports_composable: bool = False
    #: When set (by a tracing engine), :meth:`attention_time` implementations
    #: stash the per-kernel :class:`SimReport` of each simulated launch for
    #: :meth:`pop_kernel_reports`.  Off by default — the untraced step loop
    #: pays nothing.
    collect_kernel_reports: bool = False

    def set_fault_injector(self, injector) -> None:
        """Attach (or detach, with ``None``) a duck-typed
        :class:`repro.faults.FaultPlan` to the backend's simulated-kernel
        executor, so launches can fail or straggle."""

    def set_plan_cache(self, cache) -> None:
        """Attach (or detach, with ``None``) a plan cache for the backend's
        wrappers to consult in ``plan()``; a backend without wrappers
        ignores it."""

    def attention_time(self, formats: "ComposableFormat | AttentionMapping") -> float:
        """Simulated seconds for one layer's attention under this backend."""
        raise NotImplementedError

    def _record_kernel(self, name: str, report: SimReport) -> None:
        if not self.collect_kernel_reports or report is None:
            return
        self.__dict__.setdefault("_pending_kernel_reports", []).append((name, report))

    def pop_kernel_reports(self) -> List[Tuple[str, SimReport]]:
        """Drain the kernel reports recorded since the last pop.

        One entry per simulated kernel launch of the latest
        :meth:`attention_time` call(s), as ``(kernel name, SimReport)``.
        Empty unless :attr:`collect_kernel_reports` is set.
        """
        pending = self.__dict__.get("_pending_kernel_reports")
        if not pending:
            return []
        self.__dict__["_pending_kernel_reports"] = []
        return pending

    def step_overhead(self, num_layers: int, gpu: GPUSpec) -> float:
        """Per-step host overhead: one launch for a captured graph, or
        ``launches_per_layer × layers`` otherwise."""
        ch = self.characteristics
        if ch.uses_cudagraph:
            return gpu.kernel_launch_overhead
        return ch.launches_per_layer * num_layers * gpu.kernel_launch_overhead


#: Workspace the serving wrappers plan into (bytes).
WORKSPACE_BYTES = 512 * 1024 * 1024
#: Planning caps of the serving wrappers: the largest batch and total query
#: length their buffers are sized for.
MAX_BATCH_SIZE = 1024
MAX_TOTAL_QO = 65536


class FlashInferBackend(AttentionBackend):
    """SGLang/MLC + FlashInfer: the system under test."""

    name = "flashinfer"
    supports_composable = True

    def __init__(self, heads: HeadConfig, gpu: GPUSpec):
        self.heads = heads
        self.gpu = gpu
        #: The one simulated device every wrapper of this backend launches on: it carries
        #: the per-run state (fault injector, plan cache), so a wrapper built later sees it.
        self._executor = PersistentKernelExecutor(gpu)
        self.characteristics = BackendCharacteristics(
            gemm_efficiency=0.85,
            allreduce_efficiency=1.0,
            launches_per_layer=4,
            uses_cudagraph=True,
        )
        self._workspace = WorkspaceBuffer(WORKSPACE_BYTES)
        #: One wrapper stack per (variant, KV storage, format count): one
        #: CUDAGraph each (§3.4).
        self._stacks: Dict[tuple, ComposableAttentionWrapper] = {}
        #: ``(formats, stack)`` :meth:`cheaper` left planned for the next
        #: :meth:`attention_time`.
        self._chosen: tuple = (None, None)

    def set_fault_injector(self, injector) -> None:
        self._executor.fault_injector = injector

    def set_plan_cache(self, cache) -> None:
        self._executor.plan_cache = cache

    def stack(self, variant, kv_dtype: StorageDType, formats) -> ComposableAttentionWrapper:
        """The stack of ``(variant, kv_dtype, len(formats))``, planned for
        ``formats``: one plan a step, run in every layer of the variant."""
        if isinstance(formats, AttentionMapping):
            formats = ComposableFormat.single(formats)
        key = (variant, kv_dtype, len(formats))
        cw = self._stacks.get(key)
        if cw is None:
            # Every format compiles the largest query tile; each work item
            # runs on its own (``core/simulate.item_tiles``), so decode rows
            # and prompt chunks share one launch.
            cw = self._stacks[key] = ComposableAttentionWrapper(
                variant, self.heads, self._workspace, self.gpu, avg_qo_len=float(MAX_TOTAL_QO),
                executor=self._executor, max_batch_size=MAX_BATCH_SIZE, max_total_qo=MAX_TOTAL_QO,
                kv_dtype=kv_dtype,
            )
        cw.plan(formats)
        return cw

    def cheaper(self, cascade: ComposableFormat, mapping: AttentionMapping):
        """``cascade``, or the dense ``mapping`` it was cut from where that
        prices lower as :meth:`attention_time` runs it (a tie keeps the
        cascade), left planned for the next :meth:`attention_time`; the
        loser launches nothing.  The dense plan is planned only when its
        floor does not exceed the cascade's price: one dispatch, plus the KV
        bytes of its one-row groups (each reads all it holds) at peak
        bandwidth, which no drain beats."""
        heads, gpu, fp16 = self.heads, self.gpu, StorageDType.FP16
        self._chosen = (cascade, self.stack(VANILLA, fp16, cascade))
        price = self._chosen[1].price()
        column = 2 * heads.num_kv_heads * heads.head_dim * fp16.itemsize  # K and V
        rows_kv = float(mapping.kv.kv_lens[mapping.qo_lens == 1].sum())
        if gpu.kernel_dispatch_overhead + rows_kv * column / gpu.peak_bandwidth_bytes <= price:
            dense = self.stack(VANILLA, fp16, mapping)
            if dense.price() < price:
                self._chosen = (mapping, dense)
        return self._chosen[0]

    def attention_time(self, formats) -> float:
        chosen, self._chosen = self._chosen, (None, None)
        cw = chosen[1] if chosen[0] is formats else self.stack(VANILLA, StorageDType.FP16, formats)
        _, report = cw.run(None, compute=False)
        if self.collect_kernel_reports:
            # Per-format visibility: one record per stacked wrapper, as it ran
            # in the stack, rather than only the ⊕-combined report.
            for sub, rep in zip(cw.wrappers, cw.format_reports):
                self._record_kernel(sub.name, rep)
        return report.makespan


class TritonBackend(AttentionBackend):
    """SGLang + Triton v3.0 analog."""

    name = "triton"

    #: Achieved fractions of the hand-tuned CUDA kernels' efficiency; Triton
    #: lacks warp specialization/TMA on these shapes (Appendix C).
    TRITON_MMA_EFFICIENCY = 0.40
    TRITON_MEM_EFFICIENCY = 0.45
    TRITON_TILE_LATENCY = 1.5e-6

    def __init__(self, heads: HeadConfig, gpu: GPUSpec):
        self.heads = heads
        self.gpu = gpu
        self.characteristics = BackendCharacteristics(
            gemm_efficiency=0.85,  # same stack, same GEMMs
            allreduce_efficiency=1.0,
            launches_per_layer=6,
            uses_cudagraph=True,
        )
        cost = KernelCostModel(
            gpu,
            tile_latency=self.TRITON_TILE_LATENCY,
            mma_efficiency=self.TRITON_MMA_EFFICIENCY,
            mem_efficiency=self.TRITON_MEM_EFFICIENCY,
        )
        self._fa = FlashAttentionBaseline(heads, gpu, version="fa2", cost_model=cost)

    def set_fault_injector(self, injector) -> None:
        self._fa.executor.fault_injector = injector

    def attention_time(self, formats) -> float:
        mapping = self._flatten(formats)
        decode = bool((mapping.qo_lens == 1).all())  # the library's decode kernel
        _, report = self._fa.run(mapping, decode=decode, sparse_gather=True)
        self._record_kernel("triton_fa2_decode" if decode else "triton_fa2_prefill", report)
        return report.makespan

    @staticmethod
    def _flatten(formats) -> AttentionMapping:
        if isinstance(formats, AttentionMapping):
            return formats
        if len(formats) == 1:
            return formats.mappings[0]
        raise ValueError("Triton backend does not support composable formats")


class TRTLLMBackend(AttentionBackend):
    """TensorRT-LLM analog: FlashInfer-class attention + a better stack."""

    name = "trtllm"

    def __init__(self, heads: HeadConfig, gpu: GPUSpec):
        self.heads = heads
        self.gpu = gpu
        self.characteristics = BackendCharacteristics(
            gemm_efficiency=0.93,  # tuned GEMM/fusion pipeline
            allreduce_efficiency=1.5,  # custom all-reduce kernels
            launches_per_layer=2,
            uses_cudagraph=True,
        )
        self._inner = FlashInferBackend(heads, gpu)

    def set_fault_injector(self, injector) -> None:
        self._inner.set_fault_injector(injector)

    def set_plan_cache(self, cache) -> None:
        self._inner.set_plan_cache(cache)

    def attention_time(self, formats) -> float:
        mapping = TritonBackend._flatten(formats)
        self._inner.collect_kernel_reports = self.collect_kernel_reports
        makespan = self._inner.attention_time(mapping)
        for name, report in self._inner.pop_kernel_reports():
            self._record_kernel(f"trtllm_{name}", report)
        return makespan

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
from repro.core.wrapper import BatchAttentionWrapper, ComposableAttentionWrapper
from repro.gpu.cost import KernelCostModel
from repro.gpu.executor import PersistentKernelExecutor, SimReport
from repro.gpu.spec import GPUSpec
from repro.gpu.workspace import WorkspaceBuffer
from repro.sparse.composable import ComposableFormat
from repro.sparse.layout import AttentionMapping


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

    def attention_time(
        self, formats: "ComposableFormat | AttentionMapping", decode: bool
    ) -> float:
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


class FlashInferBackend(AttentionBackend):
    """SGLang/MLC + FlashInfer: the system under test."""

    name = "flashinfer"
    supports_composable = True

    def __init__(
        self,
        heads: HeadConfig,
        gpu: GPUSpec,
        workspace_bytes: int = 512 * 1024 * 1024,
        composable: bool = False,
        max_batch_size: int = 1024,
        max_total_qo: int = 65536,
    ):
        self.heads = heads
        self.gpu = gpu
        self.composable = composable
        #: The one simulated device every wrapper of this backend launches on: it carries
        #: the per-run state (fault injector, plan cache), so a wrapper built later sees it.
        self._executor = PersistentKernelExecutor(gpu)
        self._wrapper_kwargs = dict(
            executor=self._executor, max_batch_size=max_batch_size, max_total_qo=max_total_qo
        )
        self.characteristics = BackendCharacteristics(
            gemm_efficiency=0.85,
            allreduce_efficiency=1.0,
            launches_per_layer=4,
            uses_cudagraph=True,
        )
        self._workspace = WorkspaceBuffer(workspace_bytes)
        self._wrappers: Dict[str, BatchAttentionWrapper] = {}
        self._composable_wrappers: Dict[str, ComposableAttentionWrapper] = {}

    def set_fault_injector(self, injector) -> None:
        self._executor.fault_injector = injector

    def set_plan_cache(self, cache) -> None:
        self._executor.plan_cache = cache

    def _single_wrapper(self, decode: bool) -> BatchAttentionWrapper:
        key = "decode" if decode else "prefill"
        if key not in self._wrappers:
            self._wrappers[key] = BatchAttentionWrapper(
                VANILLA,
                self.heads,
                self._workspace,
                self.gpu,
                avg_qo_len=1.0 if decode else 512.0,
                name=f"fi_{key}",
                **self._wrapper_kwargs,
            )
        return self._wrappers[key]

    def attention_time(self, formats, decode: bool) -> float:
        if isinstance(formats, AttentionMapping):
            w = self._single_wrapper(decode)
            w.plan(formats)
            _, _, report = w.run(None, compute=False)
            self._record_kernel(w.name, report)
            return report.makespan
        # Composable stack: a fresh wrapper set per distinct format count is
        # cached under the phase key (separate CUDAGraphs per config, §3.4).
        key = ("decode" if decode else "prefill") + f"_{len(formats)}"
        cw = self._composable_wrappers.get(key)
        if cw is None:
            cw = ComposableAttentionWrapper(
                VANILLA, self.heads, self._workspace, self.gpu, **self._wrapper_kwargs
            )
            self._composable_wrappers[key] = cw
        cw.plan(formats)
        _, report = cw.run(None, compute=False)
        if self.collect_kernel_reports:
            # Per-format visibility: one record per stacked wrapper rather
            # than only the ⊕-combined report.
            for sub in cw.wrappers:
                self._record_kernel(sub.name, sub.last_report)
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

    def attention_time(self, formats, decode: bool) -> float:
        mapping = self._flatten(formats)
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

    def __init__(self, heads: HeadConfig, gpu: GPUSpec, workspace_bytes: int = 512 * 1024 * 1024):
        self.heads = heads
        self.gpu = gpu
        self.characteristics = BackendCharacteristics(
            gemm_efficiency=0.93,  # tuned GEMM/fusion pipeline
            allreduce_efficiency=1.5,  # custom all-reduce kernels
            launches_per_layer=2,
            uses_cudagraph=True,
        )
        self._inner = FlashInferBackend(heads, gpu, workspace_bytes)

    def set_fault_injector(self, injector) -> None:
        self._inner.set_fault_injector(injector)

    def set_plan_cache(self, cache) -> None:
        self._inner.set_plan_cache(cache)

    def attention_time(self, formats, decode: bool) -> float:
        mapping = TritonBackend._flatten(formats)
        self._inner.collect_kernel_reports = self.collect_kernel_reports
        makespan = self._inner.attention_time(mapping, decode)
        for name, report in self._inner.pop_kernel_reports():
            self._record_kernel(f"trtllm_{name}", report)
        return makespan

"""Simulated GPU: hardware specs, roofline cost model, executor, CUDAGraph.

The paper's performance results come from CUDA kernels on A100/H100.  This
package substitutes a deliberately simple, documented performance model:

* :class:`GPUSpec` — published hardware parameters (SM count, HBM bandwidth,
  fp16 tensor-core peak, shared memory / register files per SM).
* :mod:`~repro.gpu.cost` — a roofline model: each work tile's time is
  ``max(flops / per_CTA_compute, bytes / per_CTA_bandwidth)`` plus fixed
  latencies, with explicit byte/flop counts supplied by the kernels.
* :class:`~repro.gpu.executor.PersistentKernelExecutor` — runs per-CTA work
  queues and reports the makespan, from which achieved-bandwidth and
  FLOPs-utilization figures are derived (the quantities of paper Figure 8).
* :class:`~repro.gpu.workspace.WorkspaceBuffer` and
  :class:`~repro.gpu.cudagraph.CudaGraph` — reproduce the CUDAGraph
  *constraints* (fixed grid sizes and workspace addresses, Appendix D.1).

Every load-balance / tile-size / fusion / composable-format claim in the
paper is a statement about work distribution and memory traffic, which this
model captures; absolute times are simulator units.
"""

from repro.gpu.spec import GPUSpec, A100_40G, H100_80G
from repro.gpu.cost import TileCost, KernelCostModel
from repro.gpu.executor import KernelFault, PersistentKernelExecutor, SimReport
from repro.gpu.workspace import WorkspaceBuffer, WorkspaceSection
from repro.gpu.cudagraph import CudaGraph, GraphCaptureError

__all__ = [
    "GPUSpec",
    "A100_40G",
    "H100_80G",
    "TileCost",
    "KernelCostModel",
    "KernelFault",
    "PersistentKernelExecutor",
    "SimReport",
    "WorkspaceBuffer",
    "WorkspaceSection",
    "CudaGraph",
    "GraphCaptureError",
]

"""GPU hardware parameter sets.

Numbers are the published datasheet values for the two GPUs used in the
paper's evaluation (§4: "NVIDIA A100 40GB SXM and H100 80GB SXM").
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class GPUSpec:
    """Hardware parameters consumed by the cost model.

    Attributes
    ----------
    name:
        Human-readable device name.
    num_sms:
        Streaming multiprocessors; one persistent CTA runs per SM slot.
    peak_bandwidth_bytes:
        HBM bandwidth in bytes/s.
    peak_fp16_flops:
        Dense fp16 tensor-core throughput in FLOP/s.
    peak_cuda_core_flops:
        fp32 CUDA-core throughput in FLOP/s — the compute roof for the
        query-tile-size-1 decode microkernel, which cannot use tensor cores
        (paper §3.2.3: "tensor core instruction m (minimum rows) is 16").
    shared_mem_per_sm:
        Shared memory per SM in bytes (occupancy constraint, §3.2.2).
    registers_per_sm:
        32-bit registers per SM (occupancy constraint).
    kernel_launch_overhead:
        Fixed host-side cost per kernel launch, in seconds.  CUDAGraph
        replay amortizes this to one launch per graph; serving backends
        account for it per step (launch count × this).
    kernel_dispatch_overhead:
        Device-side cost to begin/retire a kernel (grid setup, final
        sync), paid even inside a captured graph.
    supports_tma:
        Hopper's Tensor Memory Accelerator: usable only for contiguous
        (dense) KV loads; sparse gathers fall back to async copies (§3.2.1).
    supports_pdl:
        Programmatic dependent launch (compute capability 9.0, FlashInfer's
        ``enable_pdl``): a kernel that depends on the one before it begins
        its dispatch while that one still runs, so within one attention
        call a dependent launch hides up to one ``kernel_dispatch_overhead``
        behind its predecessor (``PersistentKernelExecutor.follow``).
    """

    name: str
    num_sms: int
    peak_bandwidth_bytes: float
    peak_fp16_flops: float
    peak_cuda_core_flops: float
    shared_mem_per_sm: int
    registers_per_sm: int
    kernel_launch_overhead: float = 5e-6
    kernel_dispatch_overhead: float = 1.5e-6
    supports_tma: bool = False
    supports_pdl: bool = False

    @property
    def sm_fp16_flops(self) -> float:
        return self.peak_fp16_flops / self.num_sms

    @property
    def sm_cuda_core_flops(self) -> float:
        return self.peak_cuda_core_flops / self.num_sms


A100_40G = GPUSpec(
    name="A100-40GB-SXM",
    num_sms=108,
    peak_bandwidth_bytes=1.555e12,
    peak_fp16_flops=312e12,
    peak_cuda_core_flops=19.5e12,
    shared_mem_per_sm=164 * 1024,
    registers_per_sm=65536,
    supports_tma=False,
    supports_pdl=False,
)

H100_80G = GPUSpec(
    name="H100-80GB-SXM",
    num_sms=132,
    peak_bandwidth_bytes=3.352e12,
    peak_fp16_flops=989e12,
    peak_cuda_core_flops=66.9e12,
    shared_mem_per_sm=228 * 1024,
    registers_per_sm=65536,
    supports_tma=True,
    supports_pdl=True,
)

"""Roofline cost model for attention work tiles.

Each work tile (a ``T_q × L_kv`` slab of the attention matrix for one KV
head) is assigned a time of::

    max(compute_flops / CTA_compute_roof,  effective_bytes / CTA_bandwidth)
      + tile_latency

where the compute roof is tensor-core or CUDA-core throughput depending on
the microkernel (query tile size 1 uses CUDA cores, §3.2.3), bandwidth is
the SM's fair share of HBM, and *effective* bytes account for memory
transaction quantization: a gather of short non-contiguous runs wastes part
of every 128-byte transaction and pays a per-segment address-generation
cost (§3.2.1 and Appendix B).

The kernels report logical byte/flop counts; this module owns all
hardware-dependent conversion to time, so the model is auditable in one
place.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpu.spec import GPUSpec

#: Memory transaction granularity (bytes): LDGSTS is issued at 128B width.
TRANSACTION_BYTES = 128

#: MMA efficiency of an FA3 (Hopper) tensor tile below 128 query rows, as a
#: share of the 128-row tile's.  A 64-row CTA has one consumer warpgroup, so
#: it loses the inter-warpgroup ping-pong — one warpgroup's softmax under the
#: other's GEMMs — that FlashAttention-3 (Shah et al. 2024, arXiv 2407.08608,
#: §3.1) credits with about a tenth of its head-dim-128 forward throughput.
#: FA2 tiles keep equal efficiency.
FA3_SMALL_TILE_MMA = 0.9


@dataclass
class TileCost:
    """Resource footprint of one work tile, reported by a kernel.

    Attributes
    ----------
    flops:
        Useful floating-point operations (excludes tile padding).
    padded_flops:
        FLOPs actually executed, including rows wasted to tile padding
        (``T_q`` larger than the remaining query rows).
    bytes_read / bytes_written:
        Logical global-memory traffic.
    contiguous_run_bytes:
        Length in bytes of each contiguous run within the reads (the head
        dimension times itemsize for KV gathers).  0 means fully contiguous.
    n_gather_segments:
        Number of non-contiguous segments gathered (for per-segment
        address-generation overhead); 0 for dense loads.
    uses_tensor_cores:
        Selects the compute roof.
    """

    flops: float = 0.0
    padded_flops: float = 0.0
    bytes_read: float = 0.0
    bytes_written: float = 0.0
    contiguous_run_bytes: float = 0.0
    n_gather_segments: int = 0
    uses_tensor_cores: bool = True

    def __post_init__(self) -> None:
        if self.padded_flops < self.flops:
            self.padded_flops = self.flops

    def merge(self, other: "TileCost") -> "TileCost":
        """Sum two footprints (used when fusing work items)."""
        return TileCost(
            flops=self.flops + other.flops,
            padded_flops=self.padded_flops + other.padded_flops,
            bytes_read=self.bytes_read + other.bytes_read,
            bytes_written=self.bytes_written + other.bytes_written,
            contiguous_run_bytes=max(self.contiguous_run_bytes, other.contiguous_run_bytes),
            n_gather_segments=self.n_gather_segments + other.n_gather_segments,
            uses_tensor_cores=self.uses_tensor_cores or other.uses_tensor_cores,
        )


@dataclass
class KernelCostModel:
    """Converts :class:`TileCost` footprints to seconds on a :class:`GPUSpec`.

    Parameters
    ----------
    spec:
        Target GPU.
    tile_latency:
        Fixed pipeline fill / softmax-epilogue cost per tile (seconds).
    gather_issue_overhead:
        Extra seconds per non-contiguous gather segment (address
        computation through the BSR ``indices`` array, §3.2.1).
    mma_efficiency:
        Fraction of the tensor-core roof achievable by the attention main
        loop (softmax work, bank conflicts); applied to all kernels equally.
    mem_efficiency:
        Fraction of the device bandwidth the kernel's access pattern
        achieves (1.0 for hand-tuned CUDA with asynchronous copies; lower
        for compilers that miss swizzling/pipelining — Appendix C).
    """

    spec: GPUSpec
    tile_latency: float = 6.0e-7
    gather_issue_overhead: float = 1.0e-9
    mma_efficiency: float = 0.75
    mem_efficiency: float = 1.0

    def effective_bytes_read(self, cost: TileCost) -> float:
        """Transaction-quantized read traffic."""
        if cost.n_gather_segments <= 0 or cost.contiguous_run_bytes <= 0:
            return cost.bytes_read
        run = cost.contiguous_run_bytes
        waste = (-(-run // TRANSACTION_BYTES) * TRANSACTION_BYTES) / run
        return cost.bytes_read * waste

"""Unfused kernel pipelines for the StreamingLLM case study (paper §4.3).

StreamingLLM stores keys *unrotated* and applies RoPE at cache positions at
every step (positions shift as the window rolls), so an unfused pipeline
must, per step:

1. run a standalone RoPE kernel that reads the live K cache and the new
   queries, and writes rotated copies back to global memory;
2. run the attention kernel, which re-reads the rotated K plus V.

The fused FlashInfer kernel reads K/V once and rotates in registers — the
source of the paper's 1.6–3.7× kernel-bandwidth gap.  The *original*
StreamingLLM implementation additionally re-materializes (concatenates)
the sink+window cache tensors every step and launches several small helper
kernels ("sub-optimal and have unnecessary overheads"), modelled as extra
full-cache copy traffic plus extra launch overheads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.kernels import HeadConfig
from repro.gpu.cost import TileCost
from repro.gpu.executor import PersistentKernelExecutor, SimReport
from repro.gpu.spec import A100_40G, GPUSpec
from repro.variants.rope import apply_rope

_Q_ITEMSIZE = 2


def rope_kernel_report(
    n_tokens: int,
    num_heads: int,
    head_dim: int,
    gpu: GPUSpec = A100_40G,
) -> SimReport:
    """Cost of a standalone RoPE kernel over ``n_tokens`` per-head rows.

    Pure bandwidth: read every row, write every rotated row.  Work is
    spread evenly over the SMs (elementwise kernels balance trivially).
    """
    exe = PersistentKernelExecutor(gpu)
    total = n_tokens * num_heads
    per_sm = ceil_div_f(total, gpu.num_sms)
    bytes_per_row = head_dim * _Q_ITEMSIZE
    tile = TileCost(
        flops=6.0 * per_sm * head_dim,
        padded_flops=6.0 * per_sm * head_dim,
        bytes_read=float(per_sm * bytes_per_row),
        bytes_written=float(per_sm * bytes_per_row),
        uses_tensor_cores=False,
    )
    return exe.run_persistent([[tile] for _ in range(gpu.num_sms)])


def ceil_div_f(a: float, b: float) -> float:
    return float(np.ceil(a / b))


@dataclass
class StreamingStepCost:
    """Per-decode-step cost breakdown for a StreamingLLM pipeline."""

    rope: Optional[SimReport]
    attention: SimReport
    extra: Optional[SimReport] = None

    @property
    def total(self) -> SimReport:
        rep = self.attention
        if self.rope is not None:
            rep = self.rope.combine(rep)
        if self.extra is not None:
            rep = rep.combine(self.extra)
        return rep


def unfused_streaming_step(
    attention_report: SimReport,
    cache_len: int,
    batch_size: int,
    heads: HeadConfig,
    gpu: GPUSpec = A100_40G,
    original_impl: bool = False,
) -> StreamingStepCost:
    """Wrap an attention report with the unfused per-step RoPE cost.

    The RoPE kernel rotates the whole live K cache (cache positions shift
    every step) plus the new queries.  ``original_impl`` adds the original
    repository's cache re-materialization: a full read+write of both K and
    V caches and a handful of extra small-kernel launches.
    """
    n_rows = batch_size * (cache_len + 1)  # K cache + new queries (per head)
    rope = rope_kernel_report(n_rows, heads.num_kv_heads, heads.head_dim, gpu)
    extra = None
    if original_impl:
        exe = PersistentKernelExecutor(gpu)
        cache_bytes = (
            batch_size * cache_len * heads.num_kv_heads * heads.head_dim * _Q_ITEMSIZE
        )
        per_sm = TileCost(
            flops=0.0,
            padded_flops=0.0,
            bytes_read=2.0 * cache_bytes / gpu.num_sms,
            bytes_written=2.0 * cache_bytes / gpu.num_sms,
            uses_tensor_cores=False,
        )
        extra = exe.run_persistent([[per_sm] for _ in range(gpu.num_sms)])
        # The original implementation issues several small tensor-surgery
        # kernels (slice/cat/index) per layer; charge their launch overheads.
        extra = SimReport(
            makespan=extra.makespan + 6 * gpu.kernel_launch_overhead,
            total_flops=extra.total_flops,
            total_bytes=extra.total_bytes,
            num_tiles=extra.num_tiles,
            num_ctas=extra.num_ctas,
            per_cta_time=[],
        )
    return StreamingStepCost(rope=rope, attention=attention_report, extra=extra)


def unfused_rope_attention(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    q_pos: np.ndarray,
    kv_pos: np.ndarray,
    causal: bool = True,
    rope_theta: float = 10000.0,
) -> np.ndarray:
    """Numeric oracle for the unfused pipeline: rotate, then attend.

    Must agree with the fused kernel bit-for-bit up to fp accumulation —
    tested in ``tests/test_variants.py``.
    """
    from repro.core.kernels import reference_attention

    n_q, h_q, d = q.shape
    n_kv, h_kv, _ = k.shape
    q_rot = np.stack([apply_rope(q[:, h], q_pos, rope_theta) for h in range(h_q)], axis=1)
    k_rot = np.stack([apply_rope(k[:, h], kv_pos, rope_theta) for h in range(h_kv)], axis=1)
    return reference_attention(
        q_rot, k_rot, v, causal=causal, q_pos=q_pos, kv_pos=kv_pos
    )

"""Baselines the paper compares against.

* :class:`FlashAttentionBaseline` — the open-source FA2/FA3 library:
  fixed tile sizes, grid launches, uniform flash-decoding splits (§4.2).
* :mod:`repro.baselines.pipelines` — unfused RoPE→attention pipelines and
  the original StreamingLLM implementation's overheads (§4.3).

Serving-level baselines ("Triton" and "TensorRT-LLM" backend analogs) live
in :mod:`repro.serving.backends`.
"""

from repro.baselines.flash_attention import (
    FA2_DECODE_TILE,
    FA2_PREFILL_TILE,
    FA3_DECODE_TILE,
    FA3_PREFILL_TILE,
    FlashAttentionBaseline,
)
from repro.baselines.pipelines import (
    StreamingStepCost,
    rope_kernel_report,
    unfused_rope_attention,
    unfused_streaming_step,
)

__all__ = [
    "FA2_DECODE_TILE",
    "FA2_PREFILL_TILE",
    "FA3_DECODE_TILE",
    "FA3_PREFILL_TILE",
    "FlashAttentionBaseline",
    "StreamingStepCost",
    "rope_kernel_report",
    "unfused_rope_attention",
    "unfused_streaming_step",
]

"""Rotary position embeddings (RoPE) and fused-RoPE attention variants.

StreamingLLM-style inference needs RoPE applied at *cache* positions every
step, which an unfused pipeline implements as a separate kernel writing
rotated Q/K back to memory.  FlashInfer fuses the rotation into the
attention kernel via the query/key transform functors — the paper's §4.3
case study ("merely 20 additional lines of code"), worth 1.6–3.7× kernel
bandwidth.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

import numpy as np

from repro.core.variant import AttentionVariant, ParamDecl

DEFAULT_ROPE_THETA = 10000.0


@lru_cache(maxsize=64)
def _angle_table(pos: bytes, half: int, theta: float) -> Tuple[np.ndarray, np.ndarray]:
    """Read-only ``(cos, sin)`` of ``pos · theta^(-2i/d)``, ``(n, half)`` each,
    for the float64 position vector whose bytes are ``pos``.  The heads of a
    tile rotate by the same positions, so all but the first reuse the table;
    a kernel passes at most a tile of positions at a time, which bounds an
    entry at ``2 × 128 × 64`` float64 and the cache at 8 MB."""
    freqs = theta ** (-np.arange(half, dtype=np.float64) * 2.0 / (2 * half))
    ang = np.frombuffer(pos, dtype=np.float64)[:, None] * freqs[None, :]
    cos, sin = np.cos(ang), np.sin(ang)
    cos.flags.writeable = sin.flags.writeable = False
    return cos, sin


def apply_rope(x: np.ndarray, pos: np.ndarray, theta: float = DEFAULT_ROPE_THETA) -> np.ndarray:
    """Rotate ``x`` (``(n, d)``, d even) by its positions (``(n,)``).

    Uses the interleaved-pair convention: dimensions ``(2i, 2i+1)`` form a
    plane rotated by ``pos · theta^(-2i/d)``.
    """
    x = np.asarray(x, dtype=np.float64)
    n, d = x.shape
    if d % 2 != 0:
        raise ValueError(f"head_dim must be even for RoPE, got {d}")
    half = d // 2
    cos, sin = _angle_table(np.ascontiguousarray(pos, dtype=np.float64).tobytes(), half, theta)
    xr = x.reshape(n, half, 2)
    out = np.empty_like(xr)
    out[..., 0] = xr[..., 0] * cos - xr[..., 1] * sin
    out[..., 1] = xr[..., 0] * sin + xr[..., 1] * cos
    return out.reshape(n, d)


#: Fused-RoPE vanilla attention: Q and K rotated in-kernel at their absolute
#: positions.  ``rope`` is a closure parameter (the variant-class closure of
#: Figure 5); ``rope_theta`` is tunable per model.
FUSED_ROPE = AttentionVariant(
    name="fused_rope",
    params=(
        ParamDecl("rope", default=apply_rope),
        ParamDecl("rope_theta", default=DEFAULT_ROPE_THETA),
    ),
    query_transform="params.rope(q, q_pos, params.rope_theta)",
    key_transform="params.rope(k, kv_pos, params.rope_theta)",
)


def make_fused_rope(theta: float = DEFAULT_ROPE_THETA) -> AttentionVariant:
    """A fused-RoPE variant pinned to a specific ``theta``."""
    return AttentionVariant(
        name="fused_rope",
        params=(
            ParamDecl("rope", default=apply_rope),
            ParamDecl("rope_theta", default=theta),
        ),
        query_transform="params.rope(q, q_pos, params.rope_theta)",
        key_transform="params.rope(k, kv_pos, params.rope_theta)",
    )

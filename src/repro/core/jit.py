"""JIT compilation and caching of specialized attention kernels.

``get_kernel(variant, traits)`` renders the kernel template for the variant's
functors, compiles it (``compile`` + ``exec`` — the Python analog of nvcc via
PyTorch's JIT extension mechanism in Figure 5) and memoizes the result.  A
kernel is compiled once per ``(variant, traits)`` pair and reused for the
lifetime of the process, mirroring FlashInfer's "kernels are JIT-compiled at
init time and cached for reuse" (§3.4).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.core.template import render_kernel_source
from repro.core.variant import AttentionVariant
from repro.utils.dtypes import StorageDType


@dataclass(frozen=True)
class KernelTraits:
    """Compile-time kernel configuration (the ``KernelTraits`` of Figure 5).

    Tile sizes resolve at compile time (§3.2.3); the block row size ``B_r``
    of the BSR matrix is aligned with the query tile size ``T_q``.
    """

    head_dim: int
    q_tile: int = 64
    kv_tile: int = 64
    is_sparse: bool = True
    kv_dtype: StorageDType = StorageDType.FP16
    backend: str = "fa2"  # "fa2" (Turing..Ada) or "fa3" (Hopper)

    def __post_init__(self) -> None:
        if self.head_dim <= 0 or self.q_tile <= 0 or self.kv_tile <= 0:
            raise ValueError("head_dim and tile sizes must be positive")
        if self.backend not in ("fa2", "fa3"):
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.backend == "fa3" and self.q_tile != 1 and self.q_tile % 64 != 0:
            raise ValueError(
                "FA3 row tiles must be multiples of 64 (Hopper WGMMA, §3.2.3)"
            )


#: A compiled tile kernel: (q, k, v, q_pos, kv_pos, q_head, kv_head, params,
#: sm_scale, causal, kv_tile) -> (o, lse), with a leading head axis on
#: q/k/v/q_head/kv_head and on both results (see ``core/template.py``).
KernelFn = Callable[..., Tuple[np.ndarray, np.ndarray]]


@dataclass
class CompiledKernel:
    """A JIT-compiled, cached kernel plus its provenance."""

    fn: KernelFn
    source: str
    variant: AttentionVariant
    traits: KernelTraits
    output_transform: Optional[Callable[..., np.ndarray]]

    def __call__(self, *args, **kwargs):
        return self.fn(*args, **kwargs)


_CACHE: Dict[Tuple, CompiledKernel] = {}
_CACHE_LOCK = threading.Lock()
_COMPILE_COUNT = 0


def get_kernel(variant: AttentionVariant, traits: KernelTraits) -> CompiledKernel:
    """Fetch (compiling on miss) the specialized kernel for a variant."""
    key = (variant.cache_key(), traits)
    with _CACHE_LOCK:
        hit = _CACHE.get(key)
        if hit is not None:
            return hit
    kernel = _compile(variant, traits)
    with _CACHE_LOCK:
        _CACHE.setdefault(key, kernel)
        return _CACHE[key]


def _compile(variant: AttentionVariant, traits: KernelTraits) -> CompiledKernel:
    global _COMPILE_COUNT
    kernel_name = f"attention_kernel_{variant.name}"
    source = render_kernel_source(
        kernel_name=kernel_name,
        variant_name=variant.name,
        query_transform=variant.query_transform,
        key_transform=variant.key_transform,
        value_transform=variant.value_transform,
        logits_transform=variant.logits_transform,
        logits_mask=variant.logits_mask,
        use_softmax=variant.use_softmax,
    )
    namespace = {"np": np}
    code = compile(source, f"<jit:{variant.name}>", "exec")
    exec(code, namespace)
    _COMPILE_COUNT += 1

    out_fn = None
    if variant.output_transform is not None:
        out_src = (
            "def _output_transform(o, q_pos, head, params):\n"
            f"    return ({variant.output_transform})\n"
        )
        out_ns = {"np": np}
        exec(compile(out_src, f"<jit:{variant.name}.output>", "exec"), out_ns)
        out_fn = out_ns["_output_transform"]

    return CompiledKernel(
        fn=namespace[kernel_name],
        source=source,
        variant=variant,
        traits=traits,
        output_transform=out_fn,
    )


def clear_cache() -> None:
    """Drop all compiled kernels (test isolation)."""
    with _CACHE_LOCK:
        _CACHE.clear()


def cache_info() -> Dict[str, int]:
    """Cache statistics: resident kernels and total compilations."""
    with _CACHE_LOCK:
        return {"cached": len(_CACHE), "compiled": _COMPILE_COUNT}

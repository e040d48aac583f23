"""FlashInfer's core: attention states, JIT kernels, scheduler, wrappers."""

from repro.core.state import AttentionState, merge_states, merge_states_sum
from repro.core.variant import VANILLA, AttentionVariant, ParamDecl, compose_variants
from repro.core.jit import CompiledKernel, KernelTraits, cache_info, clear_cache, get_kernel
from repro.core.scheduler import (
    MergeEntry,
    SchedulePlan,
    WorkItem,
    plan_schedule,
    plan_signature,
    plan_unbalanced,
)
from repro.core.composition import contract_entry
from repro.core.tiles import select_kv_tile, select_q_tile
from repro.core.kernels import HeadConfig, reference_attention, run_mapping
from repro.core.wrapper import BatchAttentionWrapper, ComposableAttentionWrapper

__all__ = [
    "AttentionState",
    "merge_states",
    "merge_states_sum",
    "VANILLA",
    "AttentionVariant",
    "ParamDecl",
    "compose_variants",
    "CompiledKernel",
    "KernelTraits",
    "cache_info",
    "clear_cache",
    "get_kernel",
    "MergeEntry",
    "SchedulePlan",
    "WorkItem",
    "plan_schedule",
    "plan_signature",
    "plan_unbalanced",
    "contract_entry",
    "select_kv_tile",
    "select_q_tile",
    "HeadConfig",
    "reference_attention",
    "run_mapping",
    "BatchAttentionWrapper",
    "ComposableAttentionWrapper",
]

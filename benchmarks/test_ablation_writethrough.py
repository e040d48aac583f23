"""Ablation: split-KV writethrough (paper Appendix D.2).

Single-chunk tiles write final outputs directly; without the optimization
every tile routes a partial state through the workspace and the contraction
kernel.  Measures the workspace-traffic and contraction savings on a mixed
batch (a few long KVs that split, many short ones that should not).
"""

import numpy as np
import pytest

from conftest import emit_table, make_paged_mapping
from repro import A100_40G, BatchAttentionWrapper, WorkspaceBuffer
from repro.core import HeadConfig, VANILLA
from repro.core.scheduler import COL_QROWS, COL_SLOT
from repro.core.simulate import merge_cost_arrays

HEADS = HeadConfig(32, 8, 128)


def run_experiment():
    kv_lens = [8192, 6000] + [512] * 30
    mapping, _ = make_paged_mapping(kv_lens, [1] * len(kv_lens))
    w = BatchAttentionWrapper(
        VANILLA, HEADS, WorkspaceBuffer(1 << 29), A100_40G, avg_qo_len=1
    )
    plan = w.plan(mapping)
    _, _, with_wt = w.run(None, compute=False)

    # Emulate "no writethrough": every work item routes through a partial
    # slot and gets a (possibly single-slot) merge entry.
    direct = plan.items[plan.items[:, COL_SLOT] < 0]
    n_direct = len(direct)
    rows = direct[:, COL_QROWS] * HEADS.group_size
    extra_partial_bytes = float((rows * (HEADS.head_dim + 1) * 4).sum())
    cm = w.executor.cost_model
    extra = merge_cost_arrays(np.ones(n_direct), rows, HEADS.head_dim, cm, 1.0)
    # One CTA's roofline time per single-slot merge (KernelCostModel.tile_time).
    compute = extra.flops / cm.spec.sm_cuda_core_flops
    memory = extra.traffic / cm.spec.sm_bandwidth
    merge_time = sum((np.maximum(compute, memory) + cm.tile_latency).tolist()) / w.num_ctas
    without_wt_makespan = with_wt.makespan + merge_time
    without_partial_slots = plan.num_partial_slots + n_direct

    return [
        ("with_writethrough", with_wt.makespan * 1e6, plan.num_partial_slots,
         0.0),
        ("without_writethrough", without_wt_makespan * 1e6,
         without_partial_slots, extra_partial_bytes / 1e6),
    ]


def test_ablation_writethrough(once, benchmark):
    rows = once(run_experiment)
    emit_table(
        "ablation_writethrough",
        ["config", "makespan_us", "partial_slots", "extra_workspace_MB"],
        rows,
        benchmark,
    )
    with_wt, without_wt = rows
    # Writethrough keeps the workspace small (Appendix D.3's 2·#CTA bound
    # depends on it) and skips contraction work for short requests.
    assert with_wt[2] < 0.4 * without_wt[2]
    assert with_wt[1] < without_wt[1]
    assert without_wt[3] > 0

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
from repro.core.scheduler import COL_QROWS, COL_SLOT, MERGE_QROWS
from repro.core.simulate import merge_cost_arrays, simulate_queues

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
    # slot and gets a (possibly single-slot) merge entry, so the contraction
    # launch also folds the rows of every direct tile.
    direct = plan.items[plan.items[:, COL_SLOT] < 0]
    n_direct = len(direct)
    rows = direct[:, COL_QROWS] * HEADS.group_size
    extra_partial_bytes = float((rows * (HEADS.head_dim + 1) * 4).sum())
    merge_slots = np.diff(plan.merge_indptr)
    merge_rows = plan.merge_meta[:, MERGE_QROWS] * HEADS.group_size

    def contraction_makespan(n_slots, rows_eff):
        costs = merge_cost_arrays(
            n_slots, rows_eff, HEADS.head_dim, w.executor.cost_model,
            min(1.0, A100_40G.num_sms / w.num_ctas), w.num_ctas,
        )
        return simulate_queues(
            w.executor, costs, np.arange(costs.serial.size), w.num_ctas
        ).makespan

    without_wt_makespan = (
        with_wt.makespan
        - contraction_makespan(merge_slots, merge_rows)
        + contraction_makespan(
            np.concatenate([merge_slots, np.ones(n_direct)]),
            np.concatenate([merge_rows, rows]),
        )
    )
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

"""Pins the vectorized cost simulation to the per-object reference model
(``tests/reference_costs.py``) on named cases; the swept strategy and the
``TileCost`` fields are in ``tests/test_costs_equivalence.py``."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import make_paged_mapping, runs, sweep
from reference_costs import reference_report
from repro import AttentionMapping, BatchAttentionWrapper, WorkspaceBuffer
from repro.core import HeadConfig, VANILLA, simulate
from repro.core.scheduler import COL_KVSTART, COL_KVSTOP, COL_QROWS, plan_schedule
from repro.gpu import H100_80G
from repro.sparse import BlockSparseKV
from repro.utils.dtypes import StorageDType


def both_paths(heads, kv_lens, qo_lens, **kwargs):
    """Price one plan with the per-object reference (slow) and from the plan
    arrays (fast, what ``run`` reports with or without numerics)."""
    page_size = kwargs.pop("page_size", 16)
    causal = kwargs.pop("causal", True)
    positions = {k: kwargs.pop(k) for k in ("q_pos", "block_pos") if k in kwargs}
    mapping, _ = make_paged_mapping(kv_lens, qo_lens, page_size, causal, **positions)
    ws = WorkspaceBuffer(1 << 28)
    w = BatchAttentionWrapper(
        VANILLA, heads, ws, avg_qo_len=float(np.mean(qo_lens)), **kwargs
    )
    slow = reference_report(w, w.plan(mapping))
    _, _, fast = w.run(None, compute=False)
    return slow, fast


def assert_reports_equal(slow, fast):
    assert fast.makespan == pytest.approx(slow.makespan, rel=1e-12)
    assert fast.total_flops == pytest.approx(slow.total_flops, rel=1e-12)
    assert fast.total_bytes == pytest.approx(slow.total_bytes, rel=1e-12)
    assert fast.num_tiles == slow.num_tiles


class TestEquivalence:
    @pytest.mark.parametrize("heads, kv_lens, qo_lens, kwargs", [
        (HeadConfig(8, 2, 32), [100, 900, 33], [1, 1, 1], {}),
        (HeadConfig(4, 4, 16), [130, 64], [130, 64], {}),
        # Mid-prompt chunks: queries sit inside the KV, not at its end, and
        # one group's KV starts past position 0 (a cascade suffix).
        (HeadConfig(4, 2, 16), [700, 200, 300], [130, 48, 64], dict(
            q_pos=runs([100, 512 + 72, 0], [130, 48, 64]),
            block_pos=runs([0, 512, 0], [44, 13, 19], 16))),
        (HeadConfig(4, 2, 16), [64, 80], [8, 8], dict(causal=False)),
        (HeadConfig(4, 2, 16), [5000, 64], [1, 1], {}),
        (HeadConfig(8, 2, 16), [200, 50], [1, 1], dict(fuse_head_groups=False)),
        (HeadConfig(4, 2, 16), [128], [1], dict(kv_dtype=StorageDType.FP8_E4M3)),
        (HeadConfig(4, 2, 16), [256], [16], dict(sparse_gather=False)),
        (HeadConfig(4, 2, 16), [77], [1], dict(page_size=1)),
        (HeadConfig(4, 2, 16), [300, 900], [32, 64], dict(gpu=H100_80G)),
    ], ids=["decode_batch", "prefill_causal", "causal_chunked_prefill_with_offsets", "non_causal",
            "split_kv_with_merges", "no_fusion", "fp8", "dense_gather", "vector_sparse", "fa3"])
    def test_named_case(self, heads, kv_lens, qo_lens, kwargs):
        assert_reports_equal(*both_paths(heads, kv_lens, qo_lens, **kwargs))

    @given(
        st.lists(
            st.tuples(st.integers(1, 64), st.integers(1, 2000)),
            min_size=1,
            max_size=6,
        ),
        st.booleans(),
    )
    @sweep(6, 25)
    def test_random_batches(self, lens, causal):
        qo = [min(a, b) for a, b in lens]  # causal needs qo ≤ kv
        kv = [b for _, b in lens]
        slow, fast = both_paths(HeadConfig(4, 2, 16), kv, qo, causal=causal)
        assert_reports_equal(slow, fast)


def test_each_item_runs_on_its_own_tile_and_tile_1_on_cuda_cores():
    """Each work item runs on the smallest compiled tile covering its fused
    rows, up to the launch's; tile 1 is the CUDA-core microkernel (§3.2.3).
    An MHA launch compiled at 128 rows runs its decode rows on tile 1 and a
    40-row prompt on 64 rows."""
    from repro.core import simulate

    assert simulate.item_tiles(np.array([1, 2, 16, 17, 128]), 1, (1, 16, 32, 64, 128)).tolist() == [
        1, 16, 16, 32, 128]
    assert simulate.item_tiles(np.array([1, 4, 5, 32]), 4, (1, 16, 32, 64, 128)).tolist() == [
        16, 16, 32, 128]
    heads = HeadConfig(4, 4, 16)
    mapping, _ = make_paged_mapping([300, 90, 40], [1, 1, 40])
    w = BatchAttentionWrapper(VANILLA, heads, WorkspaceBuffer(1 << 24), avg_qo_len=512.0)
    plan = w.plan(mapping)
    queues, _ = simulate.plan_tile_costs(
        plan, mapping, heads, w.kv_tile, w.kv_dtype, w._tile_set, True, w.sparse_gather,
    )
    costs = [c for queue in queues for c in queue]  # in item order
    rows = plan.items[:, COL_QROWS].tolist()
    chunks = (plan.items[:, COL_KVSTOP] - plan.items[:, COL_KVSTART]).tolist()
    assert sorted(set(rows)) == [1, 40]
    for r, chunk, cost in zip(rows, chunks, costs):  # every row sees its whole chunk
        assert cost.uses_tensor_cores == (r > 1)
        assert cost.padded_flops == 4 * 16 * (1 if r == 1 else 64) * chunk


class TestUnsplitBounds:
    """``simulate.unsplit_bounds`` floors ``_choose``'s candidates from the
    lengths alone: its serial bound never exceeds the longest stream the
    unsplit plan is priced with, its byte bound never falls below their sum.
    Capped at a plan's KV chunk, the serial bound never exceeds that plan's
    longest stream (the floor of Algorithm 1's plan and of the release)."""

    @given(
        st.lists(
            # (qo_len, kv_len, KV position of the group's first slot, how far
            # the queries sit before the end of the KV, positions between rows)
            st.tuples(st.integers(0, 300), st.integers(0, 3000), st.integers(0, 512),
                      st.integers(0, 3000), st.sampled_from([1, 1, 2, 7])),
            min_size=1, max_size=12,
        ),
        st.sampled_from([HeadConfig(32, 8, 128), HeadConfig(4, 2, 16), HeadConfig(8, 8, 64)]),
        st.sampled_from([StorageDType.FP16, StorageDType.FP8_E4M3]),
        st.sampled_from([1, 16, 64]), st.booleans(), st.booleans(), st.booleans(),
        st.booleans(), st.sampled_from([64, 192, 320]),
    )
    @sweep(30, 120)
    def test_bounds_hold(self, groups, heads, kv_dtype, page, causal, sparse, fuse, stacked,
                         chunk):
        qo, kv = [g[0] for g in groups], [g[1] for g in groups]
        mapping, _ = make_paged_mapping(
            kv, qo, page, causal,
            q_pos=np.concatenate([g[2] + max(g[1] - g[0] - g[3], 0) + g[4] * np.arange(g[0])
                                  for g in groups]),
            block_pos=runs([g[2] for g in groups], [-(-n // page) for n in kv], page))
        w = BatchAttentionWrapper(
            VANILLA, heads, WorkspaceBuffer(1 << 20), H100_80G, avg_qo_len=float(max(qo)) or 1.0,
            kv_dtype=kv_dtype, sparse_gather=sparse, fuse_head_groups=fuse,
        )
        if stacked:  # a format of a composable stack: every tile writes its fp32 state
            w.stack_merges = (np.zeros(0, np.int64), np.zeros(0, np.int64))
        tiles = plan_schedule(  # the unsplit plan of one KV head
            mapping.qo_lens, mapping.kv.kv_lens, w._sched_q_tile, w.num_ctas, split_kv=False
        ).items
        costs = w._item_costs(tiles, mapping, w._sched_q_tile)
        (longest,), total = simulate.unsplit_bounds(
            -(-mapping.qo_lens // w._sched_q_tile), mapping, heads, kv_dtype, w._sched_q_tile,
            w._tile_set, fuse, sparse, w.executor.cost_model,
            w._compute_share, w.compute_penalty, stacked,
        )
        assert longest <= costs.serial.max(initial=0.0) * (1 + 1e-12) or not tiles.size
        assert total >= costs.mem.sum() * (1 - 1e-12)

        plan = plan_schedule(
            mapping.qo_lens, mapping.kv.kv_lens, w._sched_q_tile, w.num_ctas,
            min_kv_chunk=chunk, chunk_granularity=w.kv_tile,
        )
        costs = w._item_costs(plan.items, mapping, w._sched_q_tile)
        (longest,), _ = simulate.unsplit_bounds(
            -(-mapping.qo_lens // w._sched_q_tile), mapping, heads, kv_dtype, w._sched_q_tile,
            w._tile_set, fuse, sparse, w.executor.cost_model,
            w._compute_share, w.compute_penalty, stacked, (plan.kv_chunk_size,),
        )
        assert longest <= costs.serial.max(initial=0.0) * (1 + 1e-12) or not plan.items.size


def test_causal_flops_follow_every_rows_position():
    """A causal row at position p sees p + 1 KV columns, wherever the
    group's other rows sit: consecutive rows (the control) and rows far
    apart over the same 256 KV tokens."""
    heads = HeadConfig(4, 2, 16)
    for q_pos in ([199, 200], [10, 200]):
        mapping = AttentionMapping([0, 2], BlockSparseKV.ragged([0, 256]), True, q_pos=q_pos)
        w = BatchAttentionWrapper(VANILLA, heads, WorkspaceBuffer(1 << 26), avg_qo_len=2.0)
        w.plan(mapping)
        _, _, report = w.run(None, compute=False)
        columns = sum(p + 1 for p in q_pos)
        assert report.total_flops == columns * 4 * heads.head_dim * heads.num_qo_heads

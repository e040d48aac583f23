"""Pins the vectorized cost simulation to the per-object reference model
(``tests/reference_costs.py``) on named cases; the swept strategy and the
``TileCost`` fields are in ``tests/test_costs_equivalence.py``."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import make_paged_mapping, sweep
from reference_costs import reference_report
from repro import BatchAttentionWrapper, WorkspaceBuffer
from repro.core import HeadConfig, VANILLA
from repro.core.scheduler import COL_KVSTART, COL_KVSTOP, COL_QROWS
from repro.utils.dtypes import StorageDType


def both_paths(heads, kv_lens, qo_lens, **kwargs):
    """Price one plan with the per-object reference (slow) and from the plan
    arrays (fast, what ``run`` reports with or without numerics)."""
    page_size = kwargs.pop("page_size", 16)
    causal = kwargs.pop("causal", True)
    offsets = {k: kwargs.pop(k) for k in ("q_pos_offset", "kv_pos_offset") if k in kwargs}
    mapping, _ = make_paged_mapping(kv_lens, qo_lens, page_size, causal, **offsets)
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
    def test_decode_batch(self):
        slow, fast = both_paths(HeadConfig(8, 2, 32), [100, 900, 33], [1, 1, 1])
        assert_reports_equal(slow, fast)

    def test_prefill_causal(self):
        slow, fast = both_paths(HeadConfig(4, 4, 16), [130, 64], [130, 64])
        assert_reports_equal(slow, fast)

    def test_causal_chunked_prefill_with_offsets(self):
        """Mid-prompt chunks: queries sit inside the KV, not at its end, and
        one group's KV starts past position 0 (a cascade suffix)."""
        slow, fast = both_paths(
            HeadConfig(4, 2, 16), [700, 200, 300], [130, 48, 64],
            q_pos_offset=[100, 512 + 72, 0], kv_pos_offset=[0, 512, 0],
        )
        assert_reports_equal(slow, fast)

    def test_non_causal(self):
        slow, fast = both_paths(HeadConfig(4, 2, 16), [64, 80], [8, 8], causal=False)
        assert_reports_equal(slow, fast)

    def test_split_kv_with_merges(self):
        slow, fast = both_paths(HeadConfig(4, 2, 16), [5000, 64], [1, 1])
        assert_reports_equal(slow, fast)

    def test_no_fusion(self):
        slow, fast = both_paths(
            HeadConfig(8, 2, 16), [200, 50], [1, 1], fuse_head_groups=False
        )
        assert_reports_equal(slow, fast)

    def test_fp8(self):
        slow, fast = both_paths(
            HeadConfig(4, 2, 16), [128], [1], kv_dtype=StorageDType.FP8_E4M3
        )
        assert_reports_equal(slow, fast)

    def test_dense_gather(self):
        slow, fast = both_paths(HeadConfig(4, 2, 16), [256], [16], sparse_gather=False)
        assert_reports_equal(slow, fast)

    def test_vector_sparse(self):
        slow, fast = both_paths(HeadConfig(4, 2, 16), [77], [1], page_size=1)
        assert_reports_equal(slow, fast)

    def test_fa3(self):
        from repro.gpu import H100_80G

        slow, fast = both_paths(HeadConfig(4, 2, 16), [300, 900], [32, 64], gpu=H100_80G)
        assert_reports_equal(slow, fast)

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
            # the queries sit before the end of the KV)
            st.tuples(st.integers(0, 300), st.integers(0, 3000), st.integers(0, 512),
                      st.integers(0, 3000)),
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
        from repro.core import simulate
        from repro.core.scheduler import plan_schedule
        from repro.gpu import H100_80G

        qo, kv = [g[0] for g in groups], [g[1] for g in groups]
        mapping, _ = make_paged_mapping(
            kv, qo, page, causal, kv_pos_offset=np.array([g[2] for g in groups]),
            q_pos_offset=np.array([g[2] + max(g[1] - g[0] - g[3], 0) for g in groups]))
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

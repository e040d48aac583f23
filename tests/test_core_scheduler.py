"""Tests for the load-balanced scheduler (paper Algorithm 1)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import sweep
from repro.core import SchedulePlan, plan_schedule, plan_unbalanced
from repro.core.scheduler import WorkItem


def coverage_map(plan: SchedulePlan):
    """Collect per (group, q_tile, kv_head) the sorted kv ranges."""
    cover = {}
    for queue in plan.cta_queues:
        for w in queue:
            cover.setdefault((w.group, w.q_tile, w.kv_head), []).append(
                (w.kv_start, w.kv_stop)
            )
    for key in cover:
        cover[key].sort()
    return cover


class TestCoverage:
    @given(
        st.lists(st.tuples(st.integers(0, 60), st.integers(0, 4000)), min_size=1, max_size=12),
        st.sampled_from([1, 4, 16, 64]),
        st.integers(1, 4),
    )
    @sweep(30, 120)
    def test_kv_exactly_partitioned(self, lens, q_tile, heads):
        qo = [max(l[0], 1) for l in lens]
        kv = [l[1] for l in lens]
        plan = plan_schedule(qo, kv, q_tile, num_ctas=13, num_kv_heads=heads)
        cover = coverage_map(plan)
        for g, (lq, lkv) in enumerate(zip(qo, kv)):
            n_tiles = -(-lq // q_tile)
            for t in range(n_tiles):
                for h in range(heads):
                    ranges = cover[(g, t, h)]
                    assert ranges[0][0] == 0
                    assert ranges[-1][1] == lkv
                    for (a0, a1), (b0, b1) in zip(ranges, ranges[1:]):
                        assert a1 == b0  # contiguous, no overlap

    def test_query_rows_partitioned(self):
        plan = plan_schedule([70], [100], 32, num_ctas=4)
        rows = sorted(
            (w.q_start, w.q_start + w.q_rows)
            for q in plan.cta_queues
            for w in q
        )
        assert rows == [(0, 32), (32, 64), (64, 70)]

    def test_zero_length_groups_skipped(self):
        plan = plan_schedule([0, 1], [100, 100], 16, num_ctas=2)
        groups = {w.group for q in plan.cta_queues for w in q}
        assert groups == {1}

    def test_empty_kv_single_item(self):
        plan = plan_schedule([4], [0], 16, num_ctas=2)
        items = [w for q in plan.cta_queues for w in q]
        assert len(items) == 1
        assert items[0].kv_len == 0
        assert items[0].partial_slot == -1


class TestSplitAndMerge:
    def test_long_kv_split_into_chunks(self):
        plan = plan_schedule([1] * 2, [10000, 100], 16, num_ctas=8, min_kv_chunk=64)
        assert plan.num_partial_slots > 0
        assert plan.merges
        for m in plan.merges:
            assert len(m.slots) >= 2

    def test_merge_slots_ascending_kv_order(self):
        plan = plan_schedule([1], [5000], 16, num_ctas=8, min_kv_chunk=64)
        items = {w.partial_slot: w for q in plan.cta_queues for w in q if w.partial_slot >= 0}
        for m in plan.merges:
            starts = [items[s].kv_start for s in m.slots]
            assert starts == sorted(starts)

    def test_writethrough_single_chunk(self):
        # Short KVs must not produce partial slots (Appendix D.2).
        plan = plan_schedule([1] * 8, [64] * 8, 16, num_ctas=4)
        assert plan.num_partial_slots == 0
        assert not plan.merges

    @given(
        st.lists(st.integers(1, 8000), min_size=1, max_size=20),
        st.integers(1, 8),
    )
    @sweep(25, 100)
    def test_partial_slots_bounded_by_2x_ctas(self, kv, heads):
        """The Appendix D.3 workspace bound: ≤ 2 · #CTA partial outputs."""
        num_ctas = 16
        plan = plan_schedule([1] * len(kv), kv, 16, num_ctas, num_kv_heads=heads)
        assert plan.num_partial_slots <= 2 * num_ctas

    def test_chunk_granularity_respected(self):
        plan = plan_schedule([1], [10000], 16, num_ctas=64, chunk_granularity=128)
        assert plan.kv_chunk_size % 128 == 0

    def test_split_disabled(self):
        plan = plan_schedule([1], [100000], 16, num_ctas=8, split_kv=False)
        assert plan.num_partial_slots == 0


class TestBalance:
    def test_deterministic(self):
        kv = [17, 900, 33, 4012, 5, 777]
        a = plan_schedule([1] * 6, kv, 16, num_ctas=5)
        b = plan_schedule([1] * 6, kv, 16, num_ctas=5)
        assert a.cta_queues == b.cta_queues
        assert a.merges == b.merges

    def test_balanced_beats_unbalanced_on_skew(self):
        qo = [1] * 16
        kv = [8000] + [100] * 15
        bal = plan_schedule(qo, kv, 16, num_ctas=16)
        unbal = plan_unbalanced(qo, kv, 16, num_ctas=16)
        assert bal.load_balance > unbal.load_balance

    def test_near_perfect_balance_uniform(self):
        plan = plan_schedule([1] * 64, [1024] * 64, 16, num_ctas=16)
        assert plan.load_balance > 0.9

    def test_lpt_order(self):
        # Longest chunks must be assigned first: the first item of some CTA
        # queue is the longest chunk overall.
        plan = plan_schedule([1] * 3, [10, 500, 90], 16, num_ctas=3, split_kv=False)
        firsts = [q[0].kv_len for q in plan.cta_queues if q]
        assert max(firsts) == 500


class TestValidation:
    def test_mismatched_lengths(self):
        with pytest.raises(ValueError, match="align"):
            plan_schedule([1, 2], [3], 16, 4)

    def test_positive_args(self):
        with pytest.raises(ValueError):
            plan_schedule([1], [1], 0, 4)
        with pytest.raises(ValueError):
            plan_schedule([1], [1], 16, 0)


class TestWorkItem:
    def test_kv_len(self):
        w = WorkItem(0, 0, 0, 0, 4, 10, 74, 0, -1)
        assert w.kv_len == 64


class TestUnbalanced:
    def test_round_robin_order(self):
        plan = plan_unbalanced([1] * 6, [10] * 6, 16, num_ctas=3)
        assert [len(q) for q in plan.cta_queues] == [2, 2, 2]
        assert plan.cta_queues[0][0].group == 0
        assert plan.cta_queues[1][0].group == 1

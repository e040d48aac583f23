"""The array-shaped Algorithm 1 must emit exactly the per-object planner's plan.

``tests/reference_scheduler.py`` holds the planner as it was before it became
structure-of-arrays, plus the flattening the wrapper used to do.  Every table
the workspace receives, the scalar plan fields, ``load_balance`` and the
object views must be identical — not close: the plan decides the simulated
clock bit-for-bit.  Hypothesis runs derandomized, so tier-1 sees a fixed
sample of 30 examples per test, and ``-m sweep`` one of 120.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference_scheduler as ref
from conftest import runs, sweep
from repro import AttentionMapping
from repro.core import SchedulePlan, plan_schedule, plan_unbalanced
from repro.sparse import BlockSparseKV

FIXED = sweep(30, 120)

TABLES = ("work_items", "cta_indptr", "merge_meta", "merge_indptr", "merge_slots")


def assert_same_plan(new: SchedulePlan, old: ref.ReferencePlan) -> None:
    expect = ref.reference_tables(old)
    got = dict(zip(TABLES, (new.items, new.cta_indptr, new.merge_meta,
                            new.merge_indptr, new.merge_slots)))
    for name in TABLES:
        assert got[name].dtype == np.int64, name
        assert got[name].shape == expect[name].shape, name
        assert np.array_equal(got[name], expect[name]), name
    assert new.num_partial_slots == old.num_partial_slots
    assert new.q_tile_size == old.q_tile_size
    assert new.kv_chunk_size == old.kv_chunk_size
    assert new.num_work_items == old.num_work_items
    assert new.load_balance == old.load_balance
    assert new.cta_queues == old.cta_queues
    assert new.merges == old.merges


def both(qo, kv, q_tile, num_ctas, **kw):
    new = plan_schedule(qo, kv, q_tile, num_ctas, **kw)
    assert_same_plan(new, ref.plan_schedule(qo, kv, q_tile, num_ctas, **kw))
    return new


Q_TILES = st.sampled_from([1, 4, 16, 64, 128])
NUM_CTAS = st.sampled_from([1, 3, 16, 132, 264])
HEADS = st.integers(1, 8)


class TestPlanSchedule:
    @given(st.lists(st.integers(0, 8000), min_size=0, max_size=48),
           Q_TILES, NUM_CTAS, HEADS, st.booleans())
    @FIXED
    def test_decode_batches(self, kv, q_tile, num_ctas, heads, causal):
        both([1] * len(kv), kv, q_tile, num_ctas, num_kv_heads=heads, causal=causal)

    @given(
        # (qo_len, kv_len, first row's position, first KV position, largest
        # step between rows, seed of the steps); qo_len 0 = idle group
        st.lists(
            st.tuples(st.integers(0, 700), st.integers(0, 5000), st.integers(0, 5000),
                      st.integers(0, 300), st.sampled_from([1, 1, 3, 40]), st.integers(0, 99)),
            min_size=1, max_size=12,
        ),
        Q_TILES, NUM_CTAS, HEADS,
    )
    @FIXED
    def test_causal_chunked_prefill_with_positions(self, groups, q_tile, num_ctas, heads):
        """Rows anywhere in or past the KV, consecutive or ascending with
        gaps, over KV that starts past position 0 (a cascade suffix)."""
        qo, kv, _, kv_first, _, _ = (list(col) for col in zip(*groups))
        q_pos = [first + np.cumsum(np.random.default_rng(seed).integers(1, step + 1, lq)) - 1
                 for lq, _, first, _, step, seed in groups]
        # Each row sees the KV slots up to its own position, counted by hand.
        seen = [min(max(int(p) - kv_first[g] + 1, 0), kv[g])
                for g in range(len(qo)) for p in q_pos[g]]
        mapping = AttentionMapping(np.cumsum([0] + qo), BlockSparseKV.ragged(np.cumsum([0] + kv)),
                                   True, np.concatenate(q_pos), runs(kv_first, kv))
        assert mapping.causal_kv_lens.tolist() == seen
        both(qo, kv, q_tile, num_ctas, num_kv_heads=heads, causal=True, causal_kv_lens=seen)

    @given(st.lists(st.tuples(st.integers(0, 300), st.integers(0, 3000)),
                    min_size=1, max_size=10),
           Q_TILES, NUM_CTAS, HEADS, st.booleans())
    @FIXED
    def test_default_offsets(self, groups, q_tile, num_ctas, heads, causal):
        """Trailing-position convention; qo > kv makes early tiles see nothing."""
        qo, kv = (list(col) for col in zip(*groups))
        both(qo, kv, q_tile, num_ctas, num_kv_heads=heads, causal=causal)

    @given(
        st.lists(st.tuples(st.integers(0, 200), st.integers(0, 4000)),
                 min_size=1, max_size=10),
        Q_TILES, NUM_CTAS, HEADS,
        st.sampled_from([0.0, 0.3, 1.0, 7.5]), st.sampled_from([0.0, 0.1, 2.0, 3.0]),
        st.integers(1, 700), st.integers(1, 300), st.booleans(), st.booleans(),
        st.integers(0, 3),
    )
    @FIXED
    def test_hyperparameters(self, groups, q_tile, num_ctas, heads, alpha, beta,
                             min_kv_chunk, granularity, split_kv, causal, mapping_idx):
        qo, kv = (list(col) for col in zip(*groups))
        both(qo, kv, q_tile, num_ctas, num_kv_heads=heads, alpha=alpha, beta=beta,
             min_kv_chunk=min_kv_chunk, chunk_granularity=granularity,
             split_kv=split_kv, causal=causal, mapping_idx=mapping_idx)

    def test_fewer_items_than_ctas(self):
        plan = both([1] * 3, [900, 40, 300], 16, 132, num_kv_heads=2)
        assert plan.num_work_items < 132

    def test_more_items_than_ctas(self):
        plan = both([256] * 6, [1024, 700, 256, 2000, 999, 256], 16, 8,
                    num_kv_heads=4, causal=True)
        assert plan.num_work_items > 8

    def test_zero_cost_items_reuse_the_cheapest_cta(self):
        """With α = 0 an empty-KV item costs nothing, so the heap hands the
        same CTA out again — the head of the queue is not one item per CTA."""
        plan = both([1] * 5, [0, 0, 64, 0, 0], 16, 4, alpha=0.0)
        assert [len(q) for q in plan.cta_queues] == [1, 4, 0, 0]

    def test_empty_batch_and_idle_groups(self):
        both([], [], 16, 4)
        plan = both([0, 0], [100, 0], 16, 4, causal=True)
        assert plan.num_work_items == 0 and plan.load_balance == 1.0

    def test_empty_kv(self):
        both([4, 1], [0, 0], 16, 4, num_kv_heads=3, causal=True)


class TestBreakEvenRelease:
    """``break_even_kv`` raises Algorithm 1's ``L_kv``; everything else about
    the plan is still Algorithm 1, at the raised chunk."""

    def test_zero_is_algorithm_1(self):
        qo, kv = [64, 100, 128, 150, 170, 192], [64, 100, 128, 150, 170, 192]
        new = plan_schedule(qo, kv, 32, 264, num_kv_heads=8, causal=True, break_even_kv=0)
        assert_same_plan(new, ref.plan_schedule(qo, kv, 32, 264, num_kv_heads=8, causal=True))

    @given(
        st.lists(st.tuples(st.integers(0, 400), st.integers(0, 3000)),
                 min_size=1, max_size=12),
        Q_TILES, st.sampled_from([3, 16, 64, 132, 264]), HEADS,
        st.sampled_from([16, 32, 64, 128]), st.integers(1, 1200), st.booleans(),
    )
    @FIXED
    def test_release_rule(self, groups, q_tile, num_ctas, heads, granularity,
                          break_even, causal):
        qo, kv = (list(col) for col in zip(*groups))
        kw = dict(num_kv_heads=heads, chunk_granularity=granularity, causal=causal)
        alg1 = ref.plan_schedule(qo, kv, q_tile, num_ctas, **kw)
        new = plan_schedule(qo, kv, q_tile, num_ctas, break_even_kv=break_even, **kw)
        chunk = new.kv_chunk_size
        # Algorithm 1 at the raised chunk, table for table.
        assert_same_plan(new, ref.plan_schedule(qo, kv, q_tile, num_ctas,
                                                min_kv_chunk=chunk, **kw))
        if not any(q and k for q, k in groups):  # nothing to split: Algorithm 1's l_kv
            assert chunk == alg1.kv_chunk_size
            return
        assert chunk >= alg1.kv_chunk_size
        assert chunk % granularity == 0
        if chunk < break_even:
            assert new.num_work_items <= num_ctas
        if chunk > alg1.kv_chunk_size:
            shorter = ref.plan_schedule(qo, kv, q_tile, num_ctas,
                                        min_kv_chunk=chunk - granularity, **kw)
            assert chunk - granularity < break_even
            assert shorter.num_work_items > num_ctas

    def test_the_rule_moves_a_short_prefill(self):
        """The property above is not vacuous: a short prefill on a full grid
        is released at one wave, below break-even."""
        qo = kv = [64, 100, 128, 150, 170, 192]
        plan = plan_schedule(qo, kv, 32, 264, num_kv_heads=8, causal=True, break_even_kv=258)
        assert ref.plan_schedule(qo, kv, 32, 264, num_kv_heads=8, causal=True).num_partial_slots
        assert (plan.kv_chunk_size, plan.num_partial_slots, plan.num_work_items) == (192, 0, 216)


class TestPlanUnbalanced:
    @given(st.lists(st.tuples(st.integers(0, 300), st.integers(0, 3000)),
                    min_size=0, max_size=12),
           Q_TILES, NUM_CTAS, HEADS)
    @FIXED
    def test_round_robin(self, groups, q_tile, num_ctas, heads):
        qo, kv = ([g[0] for g in groups], [g[1] for g in groups])
        assert_same_plan(
            plan_unbalanced(qo, kv, q_tile, num_ctas, num_kv_heads=heads),
            ref.plan_unbalanced(qo, kv, q_tile, num_ctas, num_kv_heads=heads),
        )


class TestFromQueues:
    @pytest.mark.parametrize("kw", [dict(), dict(split_kv=False), dict(causal=True)])
    def test_round_trips_the_views(self, kw):
        plan = plan_schedule([1, 40, 0, 1], [5000, 700, 10, 64], 16, 6,
                             num_kv_heads=2, **kw)
        again = SchedulePlan.from_queues(
            plan.cta_queues, plan.merges, plan.num_partial_slots,
            plan.q_tile_size, plan.kv_chunk_size,
        )
        assert again == plan
        assert again.items.dtype == np.int64 and again.items.shape == plan.items.shape

    def test_plans_differing_in_one_cell_are_unequal(self):
        a = plan_schedule([1, 1], [500, 90], 16, 4)
        b = plan_schedule([1, 1], [500, 91], 16, 4)
        assert a != b

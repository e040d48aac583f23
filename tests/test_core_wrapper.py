"""End-to-end wrapper tests: plan/run vs the dense reference oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_scheduler
from conftest import fp16, make_paged_mapping, make_shared_prefix_mapping
from repro import BatchAttentionWrapper, ComposableAttentionWrapper, WorkspaceBuffer
from repro.core import HeadConfig, VANILLA, reference_attention
from repro.core.wrapper import break_even_kv_len
from repro.gpu import H100_80G
from repro.sparse import decompose_shared_prefix
from repro.utils.dtypes import StorageDType
from test_scheduler_equivalence import assert_same_plan


def run_and_check(heads, kv_lens, qo_lens, rng, page_size=16, causal=True,
                  atol=1e-6, **wrapper_kwargs):
    """Build a batch, run the wrapper, compare every request to the oracle."""
    mapping, slots = make_paged_mapping(kv_lens, qo_lens, page_size, causal)
    total_q = int(mapping.total_qo)
    q = rng.standard_normal((total_q, heads.num_qo_heads, heads.head_dim))
    k_pool = rng.standard_normal((slots, heads.num_kv_heads, heads.head_dim))
    v_pool = rng.standard_normal((slots, heads.num_kv_heads, heads.head_dim))
    ws = WorkspaceBuffer(256 * 1024 * 1024)
    w = BatchAttentionWrapper(
        VANILLA, heads, ws, avg_qo_len=float(np.mean(qo_lens)), **wrapper_kwargs
    )
    w.plan(mapping)
    out, lse, report = w.run(q, k_pool, v_pool)
    kv_dtype = wrapper_kwargs.get("kv_dtype", StorageDType.FP16)
    from repro.utils.dtypes import round_to_storage

    for r in range(mapping.num_groups):
        sl = mapping.kv.slot_indices(r)
        kr = round_to_storage(k_pool[sl], kv_dtype).astype(np.float64)
        vr = round_to_storage(v_pool[sl], kv_dtype).astype(np.float64)
        s0, s1 = mapping.qo_indptr[r], mapping.qo_indptr[r + 1]
        ref = reference_attention(q[s0:s1], kr, vr, causal=causal)
        np.testing.assert_allclose(out[s0:s1], ref, atol=atol)
    return out, lse, report, w


class TestCorrectness:
    def test_single_request_prefill(self, rng):
        run_and_check(HeadConfig(4, 2, 16), [40], [40], rng)

    def test_batch_decode(self, rng):
        run_and_check(HeadConfig(4, 2, 16), [33, 128, 7, 255], [1, 1, 1, 1], rng)

    def test_split_kv_long_decode(self, rng):
        # Long KV forces split + merge through fp32 partial states.
        run_and_check(HeadConfig(4, 2, 16), [3000, 50], [1, 1], rng, atol=1e-5)

    def test_incremental_prefill(self, rng):
        # Query shorter than KV (chunked prefill / speculative verify).
        run_and_check(HeadConfig(4, 2, 16), [100, 64], [10, 5], rng)

    def test_non_causal(self, rng):
        run_and_check(HeadConfig(4, 2, 16), [48, 32], [48, 32], rng, causal=False)

    def test_mha(self, rng):
        run_and_check(HeadConfig(4, 4, 16), [60], [60], rng)

    def test_gqa_group_8(self, rng):
        run_and_check(HeadConfig(8, 1, 16), [90, 30], [1, 1], rng)

    def test_fusion_disabled_same_result(self, rng):
        heads = HeadConfig(4, 2, 16)
        a = run_and_check(heads, [70, 30], [1, 1], rng, fuse_head_groups=True)[0]
        rng2 = np.random.default_rng(0)
        b = run_and_check(heads, [70, 30], [1, 1], rng2, fuse_head_groups=False)[0]
        np.testing.assert_allclose(a, b, atol=1e-6)

    def test_vector_sparse_page_size_1(self, rng):
        run_and_check(HeadConfig(4, 2, 16), [37, 12], [1, 1], rng, page_size=1)

    def test_large_pages(self, rng):
        run_and_check(HeadConfig(4, 2, 16), [100, 260], [1, 1], rng, page_size=64)

    def test_fp8_kv_cache(self, rng):
        # Appendix F: fp8 KV, fp16 Q/O — checked against the fp8-rounded oracle.
        run_and_check(
            HeadConfig(4, 2, 16), [64, 120], [1, 1], rng,
            kv_dtype=StorageDType.FP8_E4M3, atol=1e-5,
        )

    def test_fa3_backend(self, rng):
        run_and_check(HeadConfig(4, 2, 16), [64, 300], [64, 300], rng, gpu=H100_80G,
                      atol=1e-5)

    def test_explicit_tiles(self, rng):
        run_and_check(HeadConfig(4, 2, 16), [100], [100], rng, q_tile=16, kv_tile=32)

    def test_lse_returned(self, rng):
        heads = HeadConfig(2, 2, 8)
        mapping, slots = make_paged_mapping([20], [20], 4)
        q = rng.standard_normal((20, 2, 8))
        kp = rng.standard_normal((slots, 2, 8))
        vp = rng.standard_normal((slots, 2, 8))
        ws = WorkspaceBuffer(64 * 1024 * 1024)
        w = BatchAttentionWrapper(VANILLA, heads, ws, avg_qo_len=20)
        w.plan(mapping)
        _, lse, _ = w.run(q, kp, vp)
        kr = fp16(kp[:20])
        s = np.einsum("qhd,khd->qhk", q, kr[:, [0, 1]]) / np.sqrt(8)
        s = np.where(np.tril(np.ones((20, 20), dtype=bool))[:, None, :], s, -np.inf)
        ref_lse = np.log(np.exp(s).sum(axis=2))
        np.testing.assert_allclose(lse, ref_lse, atol=1e-6)


class TestOutputTransform:
    def test_applied_once_to_final_output(self, rng):
        from repro.core import AttentionVariant

        variant = AttentionVariant(name="tripled", output_transform="o * 3.0")
        heads = HeadConfig(2, 2, 8)
        mapping, slots = make_paged_mapping([2000], [1], 16)
        q = rng.standard_normal((1, 2, 8))
        kp = rng.standard_normal((slots, 2, 8))
        vp = rng.standard_normal((slots, 2, 8))
        ws = WorkspaceBuffer(64 * 1024 * 1024)
        w = BatchAttentionWrapper(variant, heads, ws, avg_qo_len=1)
        w.plan(mapping)
        out, _, _ = w.run(q, kp, vp)
        ref = reference_attention(q, fp16(kp[mapping.kv.slot_indices(0)]),
                                  fp16(vp[mapping.kv.slot_indices(0)]), causal=True)
        np.testing.assert_allclose(out, 3.0 * ref, atol=1e-4)


class TestLifecycle:
    def test_run_before_plan(self):
        w = BatchAttentionWrapper(
            VANILLA, HeadConfig(2, 2, 8), WorkspaceBuffer(1 << 20)
        )
        with pytest.raises(RuntimeError, match="plan"):
            w.run(np.zeros((1, 2, 8)), np.zeros((1, 2, 8)), np.zeros((1, 2, 8)))

    def test_cost_only_requires_no_tensors(self, rng):
        mapping, _ = make_paged_mapping([64], [1], 16)
        w = BatchAttentionWrapper(
            VANILLA, HeadConfig(2, 2, 8), WorkspaceBuffer(1 << 24), avg_qo_len=1
        )
        w.plan(mapping)
        out, lse, report = w.run(None, compute=False)
        assert report.makespan > 0

    def test_compute_without_tensors_raises(self):
        mapping, _ = make_paged_mapping([64], [1], 16)
        w = BatchAttentionWrapper(
            VANILLA, HeadConfig(2, 2, 8), WorkspaceBuffer(1 << 24), avg_qo_len=1
        )
        w.plan(mapping)
        with pytest.raises(ValueError, match="compute"):
            w.run(None, compute=True)

    def test_growth_beyond_first_plan_bounds_raises(self):
        heads = HeadConfig(2, 2, 8)
        w = BatchAttentionWrapper(VANILLA, heads, WorkspaceBuffer(1 << 26), avg_qo_len=1)
        m1, _ = make_paged_mapping([64] * 2, [1] * 2, 16)
        w.plan(m1)
        # The workspace is sized with 2·#CTA slack (Appendix D.3), so growth
        # only trips once the batch exceeds that upper bound.
        m2, _ = make_paged_mapping([64] * 1200, [1] * 1200, 16)
        with pytest.raises(ValueError, match="bound|sized"):
            w.plan(m2)

    def test_explicit_bounds_allow_growth(self):
        heads = HeadConfig(2, 2, 8)
        w = BatchAttentionWrapper(
            VANILLA, heads, WorkspaceBuffer(1 << 26), avg_qo_len=1,
            max_batch_size=256, max_total_qo=256,
        )
        m1, _ = make_paged_mapping([64] * 2, [1] * 2, 16)
        w.plan(m1)
        m2, _ = make_paged_mapping([64] * 200, [1] * 200, 16)
        w.plan(m2)  # must not raise

    def test_plan_count_tracks(self):
        heads = HeadConfig(2, 2, 8)
        w = BatchAttentionWrapper(VANILLA, heads, WorkspaceBuffer(1 << 24), avg_qo_len=1)
        m, _ = make_paged_mapping([64], [1], 16)
        w.plan(m)
        w.plan(m)
        assert w.plan_count == 2

    @pytest.mark.parametrize(
        "kv_lens, qo_lens",
        [([5000, 64, 300], [1, 1, 1]), ([700, 90], [130, 64]), ([64], [1])],
        ids=["split-decode", "prefill-tiles", "single-item"],
    )
    def test_plan_round_trips_through_workspace(self, kv_lens, qo_lens):
        """What the kernel reads back is the plan ``plan()`` returned, table
        for table — including after a larger plan occupied the sections."""
        heads = HeadConfig(4, 2, 16)
        w = BatchAttentionWrapper(
            VANILLA, heads, WorkspaceBuffer(1 << 26), avg_qo_len=1,
            max_batch_size=64, max_total_qo=4096,
        )
        big, _ = make_paged_mapping([9000] * 8, [1] * 8, 16)
        w.plan(big)
        mapping, _ = make_paged_mapping(kv_lens, qo_lens, 16)
        plan = w.plan(mapping)
        seen = w._read_plan()
        assert seen == plan
        assert seen.cta_queues == plan.cta_queues and seen.merges == plan.merges
        assert seen.items is not plan.items  # a copy out of the buffer


class TestNoPerItemPythonOnTheComputePath:
    """A structural guard, not a stopwatch: the Python-level calls ``run``
    makes outside the JIT kernel function do not depend on how many work items
    the plan has.  A decode batch planned with 8 KV heads has 4x the items of
    the same batch with 2, and the same (query tile, KV chunk) launches."""

    KV_LENS = [33, 128, 7, 255, 64, 90]

    def _calls(self, num_kv_heads, rng):
        """``(calls by code object, work items)`` of one ``run(compute=True)``."""
        import sys
        from collections import Counter

        heads = HeadConfig(2 * num_kv_heads, num_kv_heads, 16)
        mapping, slots = make_paged_mapping(self.KV_LENS, [1] * len(self.KV_LENS))
        w = BatchAttentionWrapper(
            VANILLA, heads, WorkspaceBuffer(1 << 26), avg_qo_len=1.0, split_kv=False
        )
        plan = w.plan(mapping)
        q = rng.standard_normal((len(self.KV_LENS), heads.num_qo_heads, 16))
        pool = rng.standard_normal((slots, num_kv_heads, 16))
        calls, kernel, in_kernel = Counter(), w.kernel.fn.__code__, 0

        def profile(frame, event, arg):
            nonlocal in_kernel
            if event == "call":
                if in_kernel or frame.f_code is kernel:
                    in_kernel += 1
                else:
                    calls[frame.f_code] += 1
            elif event == "return" and in_kernel:
                in_kernel -= 1

        sys.setprofile(profile)
        try:
            w.run(q, pool, pool)
        finally:
            sys.setprofile(None)
        return calls, plan.num_work_items

    def test_call_count_is_the_same_for_four_times_the_work_items(self, rng):
        from repro.gpu.cost import TileCost

        few, n_few = self._calls(2, rng)
        many, n_many = self._calls(8, rng)
        assert n_many == 4 * n_few == 8 * len(self.KV_LENS)
        # What is still built per item is the value run_mapping returns for
        # the benchmark's probe (ROADMAP item 1(b)): one TileCost each.
        returned = {TileCost.__init__.__code__, TileCost.__post_init__.__code__}
        for code in returned:
            assert (few.pop(code), many.pop(code)) == (n_few, n_many)
        assert few == many and sum(few.values()) > 50


class TestComposableWrapper:
    def test_matches_single_format(self, rng):
        heads = HeadConfig(4, 2, 16)
        mapping, slots, clusters = make_shared_prefix_mapping(2, 3, 64, 48)
        comp = decompose_shared_prefix(mapping, clusters)
        total_q = mapping.total_qo
        q = rng.standard_normal((total_q, 4, 16))
        kp = rng.standard_normal((slots, 2, 16))
        vp = rng.standard_normal((slots, 2, 16))

        cw = ComposableAttentionWrapper(VANILLA, heads, WorkspaceBuffer(1 << 27))
        cw.plan(comp)
        out_c, _ = cw.run(q, kp, vp)

        sw = BatchAttentionWrapper(VANILLA, heads, WorkspaceBuffer(1 << 27), avg_qo_len=1)
        sw.plan(mapping)
        out_s, _, _ = sw.run(q, kp, vp)
        np.testing.assert_allclose(out_c, out_s, atol=1e-5)

    def test_prefix_format_reduces_traffic(self, rng):
        heads = HeadConfig(4, 2, 16)
        mapping, slots, clusters = make_shared_prefix_mapping(4, 8, 256, 32)
        comp = decompose_shared_prefix(mapping, clusters)
        cw = ComposableAttentionWrapper(VANILLA, heads, WorkspaceBuffer(1 << 27))
        cw.plan(comp)
        _, rep_c = cw.run(None, compute=False)
        sw = BatchAttentionWrapper(VANILLA, heads, WorkspaceBuffer(1 << 27), avg_qo_len=1)
        sw.plan(mapping)
        _, _, rep_s = sw.run(None, compute=False)
        assert rep_c.total_bytes < rep_s.total_bytes

    def test_format_count_pinned(self, rng):
        heads = HeadConfig(4, 2, 16)
        mapping, _, clusters = make_shared_prefix_mapping(2, 3, 64, 48)
        comp = decompose_shared_prefix(mapping, clusters)
        cw = ComposableAttentionWrapper(VANILLA, heads, WorkspaceBuffer(1 << 27))
        cw.plan(comp)
        with pytest.raises(ValueError, match="formats"):
            cw.plan(mapping)  # 1 format after 2

    def test_run_before_plan(self):
        cw = ComposableAttentionWrapper(
            VANILLA, HeadConfig(2, 2, 8), WorkspaceBuffer(1 << 20)
        )
        with pytest.raises(RuntimeError):
            cw.run(None, compute=False)


class TestComposableExtras:
    def test_output_transform_applied_once_across_formats(self, rng):
        """The output transform must run on the ⊕-merged result, not per
        format (it is not linear in general)."""
        from repro.core import AttentionVariant

        variant = AttentionVariant(name="squared_out", output_transform="o * o")
        heads = HeadConfig(4, 2, 16)
        mapping, slots, clusters = make_shared_prefix_mapping(2, 3, 64, 48)
        comp = decompose_shared_prefix(mapping, clusters)
        q = rng.standard_normal((mapping.total_qo, 4, 16))
        kp = rng.standard_normal((slots, 2, 16))
        vp = rng.standard_normal((slots, 2, 16))

        cw = ComposableAttentionWrapper(variant, heads, WorkspaceBuffer(1 << 27))
        cw.plan(comp)
        out_c, _ = cw.run(q, kp, vp)

        sw = BatchAttentionWrapper(variant, heads, WorkspaceBuffer(1 << 27), avg_qo_len=1)
        sw.plan(mapping)
        out_s, _, _ = sw.run(q, kp, vp)
        np.testing.assert_allclose(out_c, out_s, atol=1e-5)

    def test_cudagraph_capture_of_composable_stack(self, rng):
        """A composable stack captures as one graph (one launch per format)
        and replays with fresh plan data."""
        from repro import CudaGraph

        heads = HeadConfig(4, 2, 16)
        mapping, slots, clusters = make_shared_prefix_mapping(2, 3, 64, 48)
        comp = decompose_shared_prefix(mapping, clusters)
        cw = ComposableAttentionWrapper(
            VANILLA, heads, WorkspaceBuffer(1 << 27),
            max_batch_size=16, max_total_qo=64,
        )
        cw.plan(comp)
        g = CudaGraph()
        with g.capture():
            cw.run(None, compute=False)
        assert g.num_launches == 2  # prefix + suffix kernels
        first = cw.last_report.makespan

        # Grow the suffixes; replan; replay picks up the new plan.
        mapping2, _, clusters2 = make_shared_prefix_mapping(2, 3, 64, 112)
        comp2 = decompose_shared_prefix(mapping2, clusters2)
        cw.plan(comp2)
        g.replay()
        # The per-wrapper reports reflect the longer suffix KV.
        assert cw.wrappers[1].last_report.makespan > 0



class TestBreakEvenSplit:
    """``plan`` raises Algorithm 1's ``L_kv`` toward the KV length one more
    split costs (its fp32 partial state, written and read back), unless the
    shorter split feeds a CTA that would otherwise sit idle.  Llama-3.1-8B
    heads on H100, as in the benchmark's ``kernel_batch``."""

    HEADS = HeadConfig(32, 8, 128)

    def _wrapper(self, avg_qo_len, kv_dtype=StorageDType.FP16):
        return BatchAttentionWrapper(
            VANILLA, self.HEADS, WorkspaceBuffer(1 << 26), H100_80G,
            avg_qo_len=avg_qo_len, kv_dtype=kv_dtype,
        )

    @staticmethod
    def _algorithm_1(w, mapping):
        return reference_scheduler.plan_schedule(
            mapping.qo_lens, mapping.kv.kv_lens, w._sched_q_tile, w.num_ctas,
            num_kv_heads=w._sched_heads, chunk_granularity=w.kv_tile,
            causal=mapping.causal,
        )

    def test_break_even_lengths(self):
        assert break_even_kv_len(128, 128, StorageDType.FP16) == 258
        assert break_even_kv_len(128, 128, StorageDType.FP8_E4M3) == 516
        assert break_even_kv_len(4, 128, StorageDType.FP16) == 9
        assert break_even_kv_len(0, 128, StorageDType.FP16) == 0

    @given(st.lists(st.integers(1, 8000), min_size=1, max_size=48),
           st.sampled_from([StorageDType.FP16, StorageDType.FP8_E4M3]))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_decode_plans_are_algorithm_1(self, kv_lens, kv_dtype):
        """4 fused rows break even at a handful of tokens, under the 64-token
        floor: a decode batch plans exactly as Algorithm 1 does."""
        w = self._wrapper(1.0, kv_dtype)
        mapping, _ = make_paged_mapping(kv_lens, [1] * len(kv_lens))
        assert_same_plan(w.plan(mapping), self._algorithm_1(w, mapping))

    def test_short_prefill_is_one_launch(self, rng):
        lens = [64, 100, 128, 150, 170, 192]
        _, _, report, w = run_and_check(self.HEADS, lens, lens, rng, gpu=H100_80G)
        plan = w._read_plan()
        assert w._sched_q_tile * self.HEADS.group_size == 128
        assert self._algorithm_1(w, w._mapping).num_partial_slots > 0
        assert plan.num_partial_slots == 0 and plan.num_work_items <= w.num_ctas
        # One launch: no contraction report was combined into it.
        assert report.num_tiles == plan.num_work_items
        assert len(report.per_cta_time) == w.num_ctas

    def test_long_prefill_chunk_keeps_algorithm_1(self):
        w = self._wrapper(1024.0)
        mapping, _ = make_paged_mapping([4096], [1024])
        plan = w.plan(mapping)
        assert_same_plan(plan, self._algorithm_1(w, mapping))
        assert plan.num_partial_slots > 0

    def test_cascade_prefix_still_fills_the_grid(self):
        """One group of 12 decode queries (48 fused rows) over a 1 008-token
        shared prefix is 8 tiles, one per KV head: its split below
        break-even is what keeps the grid busy."""
        mapping, _, clusters = make_shared_prefix_mapping(1, 12, 1008, 16)
        comp = decompose_shared_prefix(mapping, clusters)
        cw = ComposableAttentionWrapper(VANILLA, self.HEADS, WorkspaceBuffer(1 << 27), H100_80G)
        cw.plan(comp)
        w, prefix = cw.wrappers[0], comp.mappings[0]
        assert (prefix.num_groups, int(prefix.qo_lens[0]), int(prefix.kv.kv_lens[0])) == (1, 12, 1008)
        plan = w._read_plan()
        assert_same_plan(plan, self._algorithm_1(w, prefix))
        assert plan.kv_chunk_size < break_even_kv_len(48, 128, StorageDType.FP16) == 97
        assert plan.num_partial_slots == -(-1008 // plan.kv_chunk_size) * self.HEADS.num_kv_heads

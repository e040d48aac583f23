"""End-to-end wrapper tests: plan/run vs the dense reference oracle."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference_scheduler
from conftest import fp16, make_paged_mapping, make_shared_prefix_mapping, sweep
from repro import BatchAttentionWrapper, ComposableAttentionWrapper, WorkspaceBuffer
from repro.core import HeadConfig, VANILLA, plan_schedule, reference_attention, simulate
from repro.core.scheduler import break_even_step, plan_signature
from repro.core.wrapper import _PRICE_SLACK, break_even_kv_len
from repro.gpu import A100_40G, H100_80G
from repro.sparse import ComposableFormat, decompose_shared_prefix
from repro.utils.dtypes import StorageDType
from test_costs_equivalence import _launches
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


def stack_price(w, plan, mapping):
    """``plan``'s makespan as ``w.run`` reports it; for a format of a stack,
    with the stack's one contraction over the states ``plan`` writes alone
    (no other format covers a row).  Leaves ``plan`` staged in ``w``."""
    w._write_plan(plan)
    if w.stack_merges is not None:
        w.stack_merges = simulate.stack_merge_entries(
            [(plan.items, mapping)], w._sched_heads, w.heads.group_size
        )
    return w._simulate_fast().makespan


def candidates(w, mapping):
    """``(plan, floor, price)`` of each plan ``w._choose`` weighs, in its
    order of preference: the unsplit plan when its items fit one wave;
    Algorithm 1 with the break-even release, unless it splits nothing where
    the unsplit plan is weighed; and, when that release stopped below ``L*``
    with a split, the plan at the first KV-tile step at or past ``L*``,
    unless it splits nothing.  Each is built with ``plan_schedule`` and
    priced by :func:`stack_price`.  Its floor is ``w._floor`` of its longest
    stream under its KV chunk (``simulate.unsplit_bounds``), of its
    contraction's bytes where it runs one and of the bytes its attention
    launch moves beyond the unsplit plan's (``simulate.split_bytes``: the
    first asserted equal to what that launch moves, the second, where the
    unsplit plan is weighed, with that plan's attention bytes at most what
    a split plan's attention launch moves)."""
    args, kwargs = w._schedule_inputs(mapping)
    stacked = w.stack_merges is not None
    q_tiles = -(-mapping.qo_lens // w._sched_q_tile)
    plans = []
    if 0 < int(q_tiles.sum()) * w._sched_heads <= w.num_ctas:
        plans.append(plan_schedule(*args, **dict(kwargs, split_kv=False)))
    release = plan_schedule(*args, **kwargs)
    if release.num_partial_slots or not plans:
        plans.append(release)
    l_star = kwargs["break_even_kv"]
    if release.num_partial_slots and release.kv_chunk_size < l_star:
        step = break_even_step(release.kv_chunk_size, l_star, w.kv_tile)
        full = plan_schedule(*args, **dict(kwargs, min_kv_chunk=step))
        if full.num_partial_slots:
            plans.append(full)
    found, unsplit_mem = [], 0.0
    for plan in plans:
        price = stack_price(w, plan, mapping)
        assert w._priced(plan, mapping)[0] == price
        attention_mem = w._item_costs(plan.items, mapping, plan.q_tile_size).mem.sum()
        contraction, extra = simulate.split_bytes(
            mapping.qo_lens, mapping.kv.kv_lens, plan.kv_chunk_size, w.heads.head_dim,
            w.heads.num_qo_heads, stacked, w.executor.cost_model,
        )
        if stacked or plan.num_partial_slots:
            merges = w.stack_merges if stacked else w._merges(plan)
            mcosts = simulate.merge_cost_arrays(
                *merges, w.heads.head_dim, w.executor.cost_model, w._compute_share, w.num_ctas
            )
            assert contraction == pytest.approx(mcosts.mem.sum(), rel=1e-12)
        else:
            contraction = None
        assert attention_mem >= (unsplit_mem + extra) * (1 - 1e-12)
        longest = simulate.unsplit_bounds(
            q_tiles, mapping, w.heads, w.kv_dtype, w._sched_q_tile, w._tile_set,
            w.fuse_head_groups, w.sparse_gather, w.executor.cost_model,
            w._compute_share, w.compute_penalty, stacked, (plan.kv_chunk_size,),
        )[0][0]
        found.append((plan, w._floor(longest, contraction, unsplit_mem + extra), price))
        if plan is plans[0] and not plan.num_partial_slots:  # the unsplit plan
            unsplit_mem = attention_mem
    return found


def check_choice(w, mapping, chosen):
    """Assert that ``chosen`` is the cheapest of :func:`candidates`, the
    earliest of equally cheap ones, and that each candidate's floor is at
    most its price, so no screen drops a candidate that could win; return
    the candidates."""
    found = candidates(w, mapping)
    plans, prices = [plan for plan, _, _ in found], [price for *_, price in found]
    assert chosen in plans
    assert all(floor <= price + _PRICE_SLACK for _, floor, price in found)
    assert plans.index(chosen) == prices.index(min(prices))
    return found


@st.composite
def decode_and_prefill_batches(draw):
    """``(qo_lens, kv_lens)``: decode batches within one wave and past it,
    uniform to ragged, or up to six short prefills."""
    n = draw(st.integers(1, 40))
    base = draw(st.integers(1, 1500))
    spread = draw(st.sampled_from([0, 16, 128, 2000]))
    kv = [base + draw(st.integers(0, spread)) for _ in range(n)]
    if draw(st.booleans()):
        return [1] * n, kv
    kv = kv[:6]
    return [min(k, draw(st.integers(1, 300))) for k in kv], kv


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

    @pytest.mark.parametrize(
        "q_shape, pool_shape",
        [
            ((5, 8, 16), (80, 2, 16)),
            ((5, 4, 16), (80, 4, 16)),
            ((5, 2, 16), (80, 2, 16)),
            ((5, 4, 16), (80, 1, 16)),
            ((5, 4, 8), (80, 2, 8)),
            ((4, 4, 16), (80, 2, 16)),
        ],
        ids=["q_heads_over", "kv_heads_over", "q_heads_under", "short_pool", "head_dim",
             "short_q"],
    )
    def test_mis_shaped_tensors_raise(self, q_shape, pool_shape):
        """``q`` must hold the planned rows of ``(num_qo_heads, head_dim)``
        and each pool slots of ``(num_kv_heads, head_dim)``; anything else
        is refused before a kernel reads it."""
        mapping, slots = make_paged_mapping([40, 24], [3, 2], 16)
        assert (mapping.total_qo, slots) == (5, 80)
        w = BatchAttentionWrapper(
            VANILLA, HeadConfig(4, 2, 16), WorkspaceBuffer(1 << 24), avg_qo_len=2
        )
        w.plan(mapping)
        with pytest.raises(ValueError, match="has shape"):
            w.run(np.zeros(q_shape), np.zeros(pool_shape), np.zeros(pool_shape))

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

    def test_an_empty_stack_is_refused(self):
        with pytest.raises(ValueError, match="at least one"):
            ComposableFormat([])

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

    def test_uniform_decode_is_one_launch(self):
        """12 decodes of 258 tokens are 96 tiles, one wave, that saturate HBM
        unsplit: Algorithm 1's split only adds a contraction launch."""
        w = self._wrapper(1.0)
        mapping, _ = make_paged_mapping([258] * 12, [1] * 12)
        plan = w.plan(mapping)
        assert (plan.num_work_items, plan.num_partial_slots) == (96, 0)
        _, _, report = w.run(None, compute=False)
        assert report.num_tiles == 96 and len(report.per_cta_time) == w.num_ctas
        assert self._algorithm_1(w, mapping).num_partial_slots > 0
        args, kwargs = w._schedule_inputs(mapping)
        w._write_plan(plan_schedule(*args, **kwargs))
        assert report.makespan < w._simulate_fast().makespan

    def test_zipf_tail_keeps_algorithm_1(self):
        """A 2 002-token tail would leave its CTA draining long after the
        others: the decode batch plans exactly as Algorithm 1 does."""
        w = self._wrapper(1.0)
        kv_lens = [2002, 412, 270, 201, 160, 133, 114, 100, 89, 80, 73, 67]
        mapping, _ = make_paged_mapping(kv_lens, [1] * len(kv_lens))
        plan = w.plan(mapping)
        assert_same_plan(plan, self._algorithm_1(w, mapping))
        assert plan.num_partial_slots > 0

    def test_split_decode_reports_its_cta_balance(self):
        """The call's report carries each CTA's busy time over the attention
        and contraction launches, so its balance is the call's, not 1.0."""
        w = self._wrapper(1.0)
        kv_lens = [2002, 412, 270, 201, 160, 133, 114, 100, 89, 80, 73, 67]
        mapping, _ = make_paged_mapping(kv_lens, [1] * len(kv_lens))
        w.plan(mapping)
        (_, _, report), (attention, contraction) = _launches(
            w.executor, lambda: w.run(None, compute=False)
        )
        busy = np.add(attention.per_cta_time, contraction.per_cta_time)
        np.testing.assert_array_equal(report.per_cta_time, busy)
        assert report.balance == pytest.approx(busy.mean() / busy.max())
        assert 0.0 < report.balance < 1.0

    def test_every_launch_consults_the_fault_injector_once(self):
        from repro.faults import FaultPlan

        w = self._wrapper(1.0)
        w.executor.fault_injector = FaultPlan(schedules={})
        mapping, _ = make_paged_mapping([2002, 412, 270, 67], [1] * 4)
        w.plan(mapping)
        w.run(None, compute=False)
        assert w.executor.fault_injector.consultations("kernel") == 2

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

    def test_long_prefill_chunk_runs_unsplit_below_algorithm_1s_price(self):
        """A 1 024-token chunk over 4 096 KV is 32 query tiles × 8 KV heads:
        256 items, one wave of 264 CTAs.  Algorithm 1 cuts each tile's KV in
        two (4 032-token chunks, past ``L*``): 512 items and a contraction,
        priced above the unsplit plan, which wins."""
        w = self._wrapper(1024.0)
        mapping, _ = make_paged_mapping([4096], [1024])
        plan = w.plan(mapping)
        args, kwargs = w._schedule_inputs(mapping)
        algorithm_1 = plan_schedule(*args, **kwargs)
        assert (algorithm_1.num_work_items, algorithm_1.kv_chunk_size) == (512, 4032)
        assert (plan.num_work_items, plan.num_partial_slots) == (256, 0)
        check_choice(w, mapping, plan)
        assert stack_price(w, plan, mapping) < stack_price(w, algorithm_1, mapping)

    @pytest.mark.parametrize("prompt, unsplit_us, split_us", [(76, 3.69, 4.81), (237, 7.99, 14.64)])
    def test_a_lone_short_prompt_runs_unsplit(self, prompt, unsplit_us, split_us):
        """A lone short prompt fits one wave unsplit.  Algorithm 1 cuts its
        KV into 64-token chunks (``L*`` is 258 at 128 fused rows, so the
        release stops where the items fit), whose fp32 states the
        contraction reads back: the unsplit plan prices below it.  Most of
        the ``chat_decode`` plans that leave Algorithm 1's split are such
        prompts."""
        w = self._wrapper(float(prompt))
        mapping, _ = make_paged_mapping([prompt], [prompt])
        plan = w.plan(mapping)
        args, kwargs = w._schedule_inputs(mapping)
        algorithm_1 = plan_schedule(*args, **kwargs)
        assert kwargs["break_even_kv"] == 258
        assert algorithm_1.kv_chunk_size == 64 and algorithm_1.num_partial_slots > 0
        assert plan.num_partial_slots == 0 and plan.kv_chunk_size == prompt
        _, _, report = w.run(None, compute=False)
        assert report.makespan * 1e6 == pytest.approx(unsplit_us, abs=5e-3)
        assert stack_price(w, algorithm_1, mapping) * 1e6 == pytest.approx(split_us, abs=5e-3)

    @pytest.mark.parametrize("gpu", [A100_40G, H100_80G], ids=["A100", "H100"])
    @given(decode_and_prefill_batches(),
           st.sampled_from([StorageDType.FP16, StorageDType.FP8_E4M3]), st.booleans())
    @sweep(20, 80)
    def test_never_slower_than_algorithm_1(self, gpu, batch, kv_dtype, stacked):
        """The chosen plan is the cheapest of ``_choose``'s candidates —
        the unsplit plan, Algorithm 1's and the priced release, plain or in
        a stack — and every floor is at most its candidate's price
        (:func:`check_choice`); ``run`` reports the price it won with.  On
        A100 the contraction pays its whole dispatch, on H100 it may hide
        it."""
        qo, kv = batch
        w = BatchAttentionWrapper(
            VANILLA, self.HEADS, WorkspaceBuffer(1 << 27), gpu,
            avg_qo_len=float(np.mean(qo)), kv_dtype=kv_dtype,
            max_batch_size=64, max_total_qo=2048,
        )
        if stacked:  # a format of a composable stack: the stack contracts its states
            w.stack_merges = (np.zeros(0, np.int64), np.zeros(0, np.int64))
        mapping, _ = make_paged_mapping(kv, qo)
        chosen = w.plan(mapping)
        _, _, report = w.run(None, compute=False)
        prices = [price for *_, price in check_choice(w, mapping, chosen)]
        assert report.makespan == min(prices) or stacked  # a stack's run contracts no states here
        args, kwargs = w._schedule_inputs(mapping)
        algorithm_1 = plan_schedule(*args, **kwargs)
        assert stack_price(w, chosen, mapping) <= stack_price(w, algorithm_1, mapping)

    def test_cascade_prefix_splits_at_break_even(self):
        """One group of 12 decode queries (48 fused rows) over a 1 008-token
        shared prefix is 8 tiles, one per KV head.  Algorithm 1 cuts them
        into 64-token chunks, which fit one wave, below the 97-token
        break-even; but in a stack every tile writes an fp32 state the
        contraction reads back, and the 128-token plan's 8 states per
        (row, head) pair price below the 64-token plan's 16."""
        mapping, _, clusters = make_shared_prefix_mapping(1, 12, 1008, 16)
        comp = decompose_shared_prefix(mapping, clusters)
        cw = ComposableAttentionWrapper(VANILLA, self.HEADS, WorkspaceBuffer(1 << 27), H100_80G)
        cw.plan(comp)
        w, prefix = cw.wrappers[0], comp.mappings[0]
        assert (prefix.num_groups, int(prefix.qo_lens[0]), int(prefix.kv.kv_lens[0])) == (1, 12, 1008)
        plan = w._read_plan()
        *_, (release, _, _), (full, _, _) = candidates(w, prefix)
        assert_same_plan(release, self._algorithm_1(w, prefix))
        assert release.kv_chunk_size == 64 < break_even_kv_len(48, 128, StorageDType.FP16) == 97
        assert_same_plan(plan, full)
        assert plan.kv_chunk_size == 128
        assert plan.num_partial_slots == 8 * self.HEADS.num_kv_heads
        assert stack_price(w, plan, prefix) < stack_price(w, release, prefix)

    def test_plan_cache_keeps_stacked_and_plain_plans_apart(self):
        """A plain wrapper and a format of a stack with equal scheduler
        inputs share one executor's plan cache: each gets its own plan,
        whichever plans first.  Twelve 100-token decode suffixes behind a
        shared prefix plan unsplit alone; in the stack, whose every tile
        writes a state the one contraction reads, the 64-token split of
        Algorithm 1 prices lower."""
        from repro.gpu.executor import PersistentKernelExecutor
        from repro.serving import PlanCache

        mapping, _, clusters = make_shared_prefix_mapping(1, 12, 256, 100)
        comp = decompose_shared_prefix(mapping, clusters)
        suffix = comp.mappings[-1]
        for stack_first in (True, False):
            executor = PersistentKernelExecutor(H100_80G)
            executor.plan_cache = PlanCache()
            cw = ComposableAttentionWrapper(
                VANILLA, self.HEADS, WorkspaceBuffer(1 << 27), H100_80G, executor=executor
            )
            plain = BatchAttentionWrapper(
                VANILLA, self.HEADS, WorkspaceBuffer(1 << 27), H100_80G, avg_qo_len=1.0,
                executor=executor,
            )
            steps = [lambda: cw.plan(comp), lambda: plain.plan(suffix)]
            for step in steps if stack_first else steps[::-1]:
                step()
            stacked = cw.wrappers[-1]
            signatures = [
                plan_signature(*args, **kwargs)
                for args, kwargs in (w._schedule_inputs(suffix) for w in (stacked, plain))
            ]
            assert signatures[0] == signatures[1]
            assert len(executor.plan_cache) == 3  # the stack's two formats and the plain plan
            args, kwargs = plain._schedule_inputs(suffix)
            assert_same_plan(stacked._read_plan(), plan_schedule(*args, **kwargs))
            assert stacked._read_plan().kv_chunk_size == 64
            assert (plain._read_plan().num_work_items, plain._read_plan().num_partial_slots) == (96, 0)

    @pytest.mark.parametrize("gpu", [A100_40G, H100_80G], ids=["A100", "H100"])
    @given(
        clusters=st.integers(1, 2), members=st.integers(2, 12),
        prefix_pages=st.integers(2, 64), suffix=st.integers(1, 80),
        queries=st.sampled_from([1, 1, 4, 16]),
        kv_dtype=st.sampled_from([StorageDType.FP16, StorageDType.FP8_E4M3]),
    )
    @sweep(8, 30)
    def test_a_stack_never_chooses_the_dearer_release(
        self, gpu, clusters, members, prefix_pages, suffix, queries, kv_dtype
    ):
        """Over decode and prefill prefix + suffix stacks, each format's plan
        is the cheapest of its candidates — the unsplit plan, Algorithm 1's
        and the release step — each floored no higher than its price
        (:func:`check_choice`), and the stack's output stays within 1e-6 of
        the dense oracle."""
        from repro.utils.dtypes import round_to_storage

        heads = HeadConfig(8, 2, 32)
        mapping, slots, cl = make_shared_prefix_mapping(
            clusters, members, 16 * prefix_pages, suffix, qo_per_stream=min(queries, suffix)
        )
        rng = np.random.default_rng(prefix_pages)
        q = rng.standard_normal((mapping.total_qo, 8, 32))
        k_pool, v_pool = rng.standard_normal((2, slots, 2, 32))
        cw = ComposableAttentionWrapper(
            VANILLA, heads, WorkspaceBuffer(1 << 27), gpu, kv_dtype=kv_dtype
        )
        cw.plan(decompose_shared_prefix(mapping, cl))
        out, _ = cw.run(q, k_pool, v_pool)
        for r in range(mapping.num_groups):
            sl = mapping.kv.slot_indices(r)
            k, v = (round_to_storage(p[sl], kv_dtype).astype(np.float64) for p in (k_pool, v_pool))
            s0, s1 = mapping.qo_indptr[r], mapping.qo_indptr[r + 1]
            np.testing.assert_allclose(out[s0:s1], reference_attention(q[s0:s1], k, v, causal=True),
                                       atol=1e-6)
        for w in cw.wrappers:
            chosen, fmt = w._read_plan(), w._mapping
            check_choice(w, fmt, chosen)


@st.composite
def mixed_steps(draw):
    """``(qo_lens, kv_lens)`` of a mixed serving step: decode rows, then one
    or two prompt chunks at the end of their KV."""
    n = draw(st.integers(1, 40))
    kv = [draw(st.integers(1, 3000)) for _ in range(n)]
    chunks = [draw(st.integers(2, 512)) for _ in range(draw(st.integers(1, 2)))]
    return [1] * n + chunks, kv + [c + draw(st.integers(0, 2000)) for c in chunks]


class TestPerItemTiles:
    """Each work item runs on the smallest compiled query tile that covers
    its fused rows (``simulate.item_tiles``), up to the launch's — the tile
    set a wrapper built with ``q_tile=`` has one entry."""

    @staticmethod
    def _wrapper(heads, gpu, **kwargs):
        kwargs.setdefault("avg_qo_len", 65536.0)  # the largest tile, as a serving backend
        return BatchAttentionWrapper(VANILLA, heads, WorkspaceBuffer(1 << 26), gpu, **kwargs)

    @pytest.mark.parametrize("gpu", [A100_40G, H100_80G], ids=["A100", "H100"])
    @pytest.mark.parametrize("group", [1, 4, 8])
    @given(mixed_steps(), st.booleans())
    @sweep(10, 40)
    def test_own_tiles_never_price_above_the_uniform_tile(self, gpu, group, step, decode_only):
        """A plan prices at most what the same plan costs on the launch's
        tile, exactly that on a wrapper whose tile is forced, and the choice
        among candidates still holds (:func:`check_choice`).  On H100 a
        decode-only batch prices bit for bit as on a wrapper compiled for
        one query row (tile 64 or 1, KV tile 64 at 2 CTAs per SM either
        way)."""
        qo, kv = step
        if decode_only:
            qo, kv = [1] * len(qo), kv
        heads = HeadConfig(8 * group, 8, 64)
        mapping, _ = make_paged_mapping(kv, qo)
        w = self._wrapper(heads, gpu)
        plan = w.plan(mapping)
        price = w.run(None, compute=False)[2].makespan
        check_choice(w, mapping, plan)  # stages each candidate in turn
        forced = self._wrapper(heads, gpu, q_tile=w.q_tile)
        assert forced._tile_set == w._tile_set[-1:]
        forced.plan(mapping)
        uniform = stack_price(forced, plan, mapping)
        assert price <= uniform
        launch_tile = w._tile_set
        try:
            w._tile_set = launch_tile[-1:]
            assert stack_price(w, plan, mapping) == uniform
        finally:
            w._tile_set = launch_tile
        if decode_only and gpu is H100_80G:
            one_row = self._wrapper(heads, gpu, avg_qo_len=1.0)
            one_row.plan(mapping)
            assert one_row.run(None, compute=False)[2].makespan == price

    def test_the_tile_set_is_the_compiled_tiles_up_to_the_launch(self):
        """Tiles below the GQA group never run an item: one query row fuses
        ``g`` rows.  Tile 1 stays in a launch without fusion."""
        heads = HeadConfig(32, 8, 128)
        assert self._wrapper(heads, H100_80G)._tile_set == (64, 128)
        assert self._wrapper(heads, A100_40G)._tile_set == (16, 32, 64, 128)
        assert self._wrapper(heads, A100_40G, avg_qo_len=1.0)._tile_set == (16,)
        assert self._wrapper(heads, A100_40G, q_tile=64)._tile_set == (64,)
        assert self._wrapper(heads, H100_80G, fuse_head_groups=False)._tile_set == (1, 64, 128)
        # Six fused rows per query: the launch's tile is 21 rows of 6.
        assert self._wrapper(HeadConfig(48, 8, 128), A100_40G)._tile_set == (16, 32, 64, 126)

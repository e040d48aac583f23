"""Tests for the FlashInfer-compatible API façade."""

import numpy as np
import pytest

from conftest import fp16
from repro.api import (
    BatchDecodeWithPagedKVCacheWrapper,
    BatchPrefillWithPagedKVCacheWrapper,
    BatchPrefillWithRaggedKVCacheWrapper,
    merge_state,
    merge_states,
    single_decode_with_kv_cache,
    single_prefill_with_kv_cache,
)
from repro.core import reference_attention
from repro.gpu import WorkspaceBuffer
from repro.kvcache import PagedKVCache


def build_cache(kv_lens, rng, page_size=16, heads=2, dim=32):
    cache = PagedKVCache(256, page_size, heads, dim)
    seqs = []
    for n in kv_lens:
        sid = cache.new_seq()
        cache.append(sid, rng.standard_normal((n, heads, dim)),
                     rng.standard_normal((n, heads, dim)))
        seqs.append(sid)
    layout = cache.layout(seqs)
    last_page_len = np.asarray(
        [n - (len(cache.seq_pages(s)) - 1) * page_size for n, s in zip(kv_lens, seqs)]
    )
    return cache, seqs, layout, last_page_len


class TestBatchDecode:
    def test_matches_reference(self, rng):
        kv_lens = [40, 111, 7]
        cache, seqs, layout, last = build_cache(kv_lens, rng)
        ws = WorkspaceBuffer(1 << 27)
        w = BatchDecodeWithPagedKVCacheWrapper(ws, 4, 2, 32, page_size=16)
        w.plan(layout.indptr, layout.indices, last)
        q = rng.standard_normal((3, 4, 32))
        out = w.run(q, cache.k_pool, cache.v_pool)
        for r, sid in enumerate(seqs):
            k, v = cache.gather(sid)
            ref = reference_attention(q[r : r + 1], fp16(k), fp16(v), causal=True)
            np.testing.assert_allclose(out[r : r + 1], ref, atol=1e-6)

    def test_return_lse(self, rng):
        cache, seqs, layout, last = build_cache([24], rng)
        w = BatchDecodeWithPagedKVCacheWrapper(WorkspaceBuffer(1 << 26), 4, 2, 32, 16)
        w.plan(layout.indptr, layout.indices, last)
        q = rng.standard_normal((1, 4, 32))
        out, lse = w.run(q, cache.k_pool, cache.v_pool, return_lse=True)
        assert lse.shape == (1, 4)
        assert np.all(np.isfinite(lse))

    def test_replan_with_grown_kv(self, rng):
        cache, seqs, layout, last = build_cache([24, 30], rng)
        w = BatchDecodeWithPagedKVCacheWrapper(
            WorkspaceBuffer(1 << 26), 4, 2, 32, 16, max_batch_size=8
        )
        w.plan(layout.indptr, layout.indices, last)
        cache.append(seqs[0], rng.standard_normal((1, 2, 32)),
                     rng.standard_normal((1, 2, 32)))
        layout2 = cache.layout(seqs)
        last2 = np.asarray(
            [cache.seq_len(s) - (len(cache.seq_pages(s)) - 1) * 16 for s in seqs]
        )
        w.plan(layout2.indptr, layout2.indices, last2)
        q = rng.standard_normal((2, 4, 32))
        out = w.run(q, cache.k_pool, cache.v_pool)
        k, v = cache.gather(seqs[0])
        ref = reference_attention(q[0:1], fp16(k), fp16(v), causal=True)
        np.testing.assert_allclose(out[0:1], ref, atol=1e-6)


class TestBatchPrefill:
    def test_paged_incremental_prefill(self, rng):
        # 5 new query tokens against a 50-token history.
        cache, seqs, layout, last = build_cache([50], rng)
        w = BatchPrefillWithPagedKVCacheWrapper(
            WorkspaceBuffer(1 << 27), 4, 2, 32, page_size=16, avg_qo_len=5
        )
        w.plan(np.array([0, 5]), layout.indptr, layout.indices, last)
        q = rng.standard_normal((5, 4, 32))
        out = w.run(q, cache.k_pool, cache.v_pool)
        k, v = cache.gather(seqs[0])
        ref = reference_attention(q, fp16(k), fp16(v), causal=True)
        np.testing.assert_allclose(out, ref, atol=1e-6)

    def test_ragged_full_prefill(self, rng):
        lens = [33, 57]
        total = sum(lens)
        q = rng.standard_normal((total, 4, 32))
        k = rng.standard_normal((total, 2, 32))
        v = rng.standard_normal((total, 2, 32))
        indptr = np.array([0, 33, 90])
        w = BatchPrefillWithRaggedKVCacheWrapper(
            WorkspaceBuffer(1 << 27), 4, 2, 32, avg_qo_len=45
        )
        w.plan(indptr, indptr, causal=True)
        out = w.run(q, k, v)
        for s0, s1 in zip(indptr, indptr[1:]):
            ref = reference_attention(q[s0:s1], fp16(k[s0:s1]), fp16(v[s0:s1]),
                                      causal=True)
            np.testing.assert_allclose(out[s0:s1], ref, atol=1e-6)

    def test_ragged_is_dense_path(self):
        w = BatchPrefillWithRaggedKVCacheWrapper(WorkspaceBuffer(1 << 26), 4, 2, 32)
        assert w._inner.sparse_gather is False


class TestSingleRequest:
    def test_single_prefill(self, rng):
        q = rng.standard_normal((20, 4, 32))
        k = rng.standard_normal((20, 2, 32))
        v = rng.standard_normal((20, 2, 32))
        out = single_prefill_with_kv_cache(q, k, v, causal=True)
        ref = reference_attention(q, fp16(k), fp16(v), causal=True)
        np.testing.assert_allclose(out, ref, atol=1e-6)

    def test_single_decode(self, rng):
        q = rng.standard_normal((4, 32))
        k = rng.standard_normal((77, 2, 32))
        v = rng.standard_normal((77, 2, 32))
        out = single_decode_with_kv_cache(q, k, v)
        ref = reference_attention(q[None], fp16(k), fp16(v), causal=True)
        np.testing.assert_allclose(out, ref[0], atol=1e-6)

    def test_single_prefill_with_variant(self, rng):
        from repro.variants import make_sliding_window

        q = rng.standard_normal((16, 2, 16))
        k = rng.standard_normal((16, 2, 16))
        v = rng.standard_normal((16, 2, 16))
        out = single_prefill_with_kv_cache(q, k, v, variant=make_sliding_window(1))
        np.testing.assert_allclose(out, fp16(v), atol=1e-6)


class TestSmScaleNotSticky:
    """``sm_scale=None`` means ``1/sqrt(head_dim)`` on every plan, also on a
    wrapper whose previous plan used a custom scale."""

    def test_single_prefill_custom_then_default(self, rng):
        q = rng.standard_normal((20, 4, 32))
        k = rng.standard_normal((20, 2, 32))
        v = rng.standard_normal((20, 2, 32))
        single_prefill_with_kv_cache(q, k, v, sm_scale=0.01)
        out = single_prefill_with_kv_cache(q, k, v)  # same memoised wrapper
        ref = reference_attention(q, fp16(k), fp16(v), causal=True)
        np.testing.assert_allclose(out, ref, atol=1e-6)

    def test_reused_decode_wrapper_custom_then_default(self, rng):
        cache, seqs, layout, last = build_cache([40, 111], rng)
        w = BatchDecodeWithPagedKVCacheWrapper(WorkspaceBuffer(1 << 26), 4, 2, 32, 16)
        q = rng.standard_normal((2, 4, 32))
        w.plan(layout.indptr, layout.indices, last, sm_scale=0.01)
        scaled = w.run(q, cache.k_pool, cache.v_pool)
        w.plan(layout.indptr, layout.indices, last)
        out = w.run(q, cache.k_pool, cache.v_pool)
        for r, sid in enumerate(seqs):
            k, v = cache.gather(sid)
            ref = reference_attention(q[r : r + 1], fp16(k), fp16(v), causal=True)
            np.testing.assert_allclose(out[r : r + 1], ref, atol=1e-6)
        assert np.abs(scaled - out).max() > 1e-3  # the custom scale did apply


class TestMergeOps:
    def test_merge_state_pair(self, rng):
        d = 8
        q = rng.standard_normal(d)
        k = rng.standard_normal((12, d))
        v = rng.standard_normal((12, d))

        def state(sl):
            s = k[sl] @ q
            lse = np.log(np.exp(s).sum())
            return np.exp(s - lse) @ v[sl], lse

        va, sa = state(slice(0, 5))
        vb, sb = state(slice(5, 12))
        vm, sm = merge_state(va, np.asarray(sa), vb, np.asarray(sb))
        v_ref, s_ref = state(slice(0, 12))
        np.testing.assert_allclose(vm, v_ref)
        assert sm == pytest.approx(s_ref)

    def test_merge_states_stack(self, rng):
        vs = rng.standard_normal((4, 3, 8))
        ss = rng.uniform(-2, 2, (4, 3))
        vm, sm = merge_states(vs, ss)
        # Fold by hand.
        ve, se = vs[0], ss[0]
        for i in range(1, 4):
            ve, se = merge_state(ve, se, vs[i], ss[i])
        np.testing.assert_allclose(vm, ve)
        np.testing.assert_allclose(sm, se)

    def test_merge_states_empty_rejected(self):
        with pytest.raises(ValueError):
            merge_states(np.zeros((0, 2, 4)), np.zeros((0, 2)))


class TestAPIWithVariants:
    def test_decode_wrapper_with_sliding_window(self, rng):
        from repro.variants import make_sliding_window

        cache, seqs, layout, last = build_cache([60], rng)
        w = BatchDecodeWithPagedKVCacheWrapper(
            WorkspaceBuffer(1 << 26), 4, 2, 32, 16,
            variant=make_sliding_window(16),
        )
        w.plan(layout.indptr, layout.indices, last)
        q = rng.standard_normal((1, 4, 32))
        out = w.run(q, cache.k_pool, cache.v_pool)
        k, v = cache.gather(seqs[0])
        kd, vd = fp16(k), fp16(v)
        pos = np.arange(60)
        sm = 1 / np.sqrt(32)
        ref = np.zeros((1, 4, 32))
        for h in range(4):
            s = (q[0, h] @ kd[:, h // 2].T) * sm
            s = np.where((59 - pos) < 16, s, -np.inf)
            p = np.exp(s - s.max())
            ref[0, h] = (p / p.sum()) @ vd[:, h // 2]
        np.testing.assert_allclose(out, ref, atol=1e-6)

    def test_prefill_wrapper_simulated_report(self, rng):
        cache, seqs, layout, last = build_cache([128], rng)
        w = BatchPrefillWithPagedKVCacheWrapper(
            WorkspaceBuffer(1 << 27), 4, 2, 32, 16, avg_qo_len=128
        )
        w.plan(np.array([0, 128]), layout.indptr, layout.indices, last)
        w.run(rng.standard_normal((128, 4, 32)), cache.k_pool, cache.v_pool)
        assert w.last_report is not None
        assert w.last_report.makespan > 0


class TestPlanRunDiscipline:
    """run() before plan() must fail loudly, naming the wrapper (§3.4)."""

    def test_decode_run_before_plan(self, rng):
        w = BatchDecodeWithPagedKVCacheWrapper(WorkspaceBuffer(1 << 26), 4, 2, 32, 16)
        q = rng.standard_normal((1, 4, 32))
        pool = rng.standard_normal((16, 2, 32))
        with pytest.raises(RuntimeError, match=r"BatchDecodeWithPagedKVCacheWrapper\.run\(\) called before plan\(\)"):
            w.run(q, pool, pool)

    def test_paged_prefill_run_before_plan(self, rng):
        w = BatchPrefillWithPagedKVCacheWrapper(WorkspaceBuffer(1 << 26), 4, 2, 32, 16)
        q = rng.standard_normal((4, 4, 32))
        pool = rng.standard_normal((16, 2, 32))
        with pytest.raises(RuntimeError, match="BatchPrefillWithPagedKVCacheWrapper"):
            w.run(q, pool, pool)

    def test_ragged_prefill_run_before_plan(self, rng):
        w = BatchPrefillWithRaggedKVCacheWrapper(WorkspaceBuffer(1 << 26), 4, 2, 32)
        q = rng.standard_normal((4, 4, 32))
        kv = rng.standard_normal((4, 2, 32))
        with pytest.raises(RuntimeError, match="BatchPrefillWithRaggedKVCacheWrapper"):
            w.run(q, kv, kv)


class TestPoolInference:
    """pool_num_pages is inferred at plan() and validated at run()."""

    def test_explicit_pool_num_pages_removed(self, rng):
        cache, seqs, layout, last = build_cache([40], rng)
        w = BatchDecodeWithPagedKVCacheWrapper(WorkspaceBuffer(1 << 26), 4, 2, 32, 16)
        # The old 4th positional slot must not silently rebind.
        with pytest.raises(TypeError, match="positional"):
            w.plan(layout.indptr, layout.indices, last, cache.num_pages)
        # The inferred path computes the same answer the old one did.
        w.plan(layout.indptr, layout.indices, last)
        q = rng.standard_normal((1, 4, 32))
        out = w.run(q, cache.k_pool, cache.v_pool)
        k, v = cache.gather(seqs[0])
        ref = reference_attention(q[0:1], fp16(k), fp16(v), causal=True)
        np.testing.assert_allclose(out[0:1], ref, atol=1e-6)

    def test_prefill_explicit_pool_num_pages_removed(self, rng):
        cache, seqs, layout, last = build_cache([50], rng)
        w = BatchPrefillWithPagedKVCacheWrapper(
            WorkspaceBuffer(1 << 27), 4, 2, 32, 16, avg_qo_len=5
        )
        with pytest.raises(TypeError, match="pool_num_pages"):
            w.plan(np.array([0, 5]), layout.indptr, layout.indices, last,
                   pool_num_pages=cache.num_pages)

    def test_inferred_plan_emits_no_warning(self, rng):
        import warnings

        cache, seqs, layout, last = build_cache([40], rng)
        w = BatchDecodeWithPagedKVCacheWrapper(WorkspaceBuffer(1 << 26), 4, 2, 32, 16)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            w.plan(layout.indptr, layout.indices, last)

    def test_run_rejects_too_small_pool(self, rng):
        cache, seqs, layout, last = build_cache([40, 111, 7], rng)
        w = BatchDecodeWithPagedKVCacheWrapper(WorkspaceBuffer(1 << 27), 4, 2, 32, 16)
        w.plan(layout.indptr, layout.indices, last)
        q = rng.standard_normal((3, 4, 32))
        with pytest.raises(ValueError, match="pool holds"):
            w.run(q, cache.k_pool[:16], cache.v_pool[:16])


class TestWrapperParity:
    """Decode/prefill wrappers agree with a direct BatchAttentionWrapper
    planned on the same mapping."""

    def test_decode_parity(self, rng):
        from repro.core import VANILLA, HeadConfig
        from repro.sparse.layout import AttentionMapping
        from repro.core.wrapper import BatchAttentionWrapper
        from repro.gpu import A100_40G

        kv_lens = [40, 111, 7]
        cache, seqs, layout, last = build_cache(kv_lens, rng)
        q = rng.standard_normal((3, 4, 32))

        w = BatchDecodeWithPagedKVCacheWrapper(WorkspaceBuffer(1 << 27), 4, 2, 32, 16)
        w.plan(layout.indptr, layout.indices, last)
        out = w.run(q, cache.k_pool, cache.v_pool)

        direct = BatchAttentionWrapper(
            VANILLA, HeadConfig(4, 2, 32), WorkspaceBuffer(1 << 27), A100_40G,
            avg_qo_len=1.0,
        )
        mapping = AttentionMapping(np.arange(4), cache.layout(seqs), causal=True)
        direct.plan(mapping)
        ref, _, _ = direct.run(q, cache.k_pool, cache.v_pool)
        np.testing.assert_allclose(out, ref, atol=0)

    def test_prefill_parity(self, rng):
        from repro.core import VANILLA, HeadConfig
        from repro.sparse.layout import AttentionMapping
        from repro.core.wrapper import BatchAttentionWrapper
        from repro.gpu import A100_40G

        cache, seqs, layout, last = build_cache([50, 80], rng)
        qo_indptr = np.array([0, 5, 12])
        q = rng.standard_normal((12, 4, 32))

        w = BatchPrefillWithPagedKVCacheWrapper(
            WorkspaceBuffer(1 << 27), 4, 2, 32, 16, avg_qo_len=6
        )
        w.plan(qo_indptr, layout.indptr, layout.indices, last)
        out = w.run(q, cache.k_pool, cache.v_pool)

        direct = BatchAttentionWrapper(
            VANILLA, HeadConfig(4, 2, 32), WorkspaceBuffer(1 << 27), A100_40G,
            avg_qo_len=6.0,
        )
        mapping = AttentionMapping(qo_indptr, cache.layout(seqs), causal=True)
        direct.plan(mapping)
        ref, _, _ = direct.run(q, cache.k_pool, cache.v_pool)
        np.testing.assert_allclose(out, ref, atol=0)


class TestWorkspaceCache:
    """single_prefill_with_kv_cache reuses one memoised wrapper (and its
    workspace) per geometry instead of allocating a fresh ≥64 MB buffer
    every call."""

    def setup_method(self):
        from repro.api import clear_workspace_cache

        clear_workspace_cache()

    teardown_method = setup_method

    @pytest.fixture
    def built(self, monkeypatch):
        """Counts of wrappers constructed and workspaces allocated by the
        single-request helpers."""
        import repro.api.wrappers as wmod

        counts = {"wrappers": 0, "workspaces": 0}

        class CountingWrapper(wmod.BatchPrefillWithRaggedKVCacheWrapper):
            def __init__(self, *args, **kwargs):
                counts["wrappers"] += 1
                super().__init__(*args, **kwargs)

        class CountingWorkspace(wmod.WorkspaceBuffer):
            def __init__(self, nbytes):
                counts["workspaces"] += 1
                super().__init__(nbytes)

        monkeypatch.setattr(wmod, "BatchPrefillWithRaggedKVCacheWrapper", CountingWrapper)
        monkeypatch.setattr(wmod, "WorkspaceBuffer", CountingWorkspace)
        return counts

    def test_repeat_calls_share_one_workspace(self, rng, built):
        q = rng.standard_normal((20, 4, 32))
        k = rng.standard_normal((20, 2, 32))
        v = rng.standard_normal((20, 2, 32))
        single_prefill_with_kv_cache(q, k, v)
        assert built == {"wrappers": 1, "workspaces": 1}

        q2 = rng.standard_normal((31, 4, 32))
        k2 = rng.standard_normal((64, 2, 32))
        v2 = rng.standard_normal((64, 2, 32))
        out = single_prefill_with_kv_cache(q2, k2, v2)
        # Same geometry → nothing new is constructed or allocated.
        assert built == {"wrappers": 1, "workspaces": 1}
        ref = reference_attention(q2, fp16(k2), fp16(v2), causal=True)
        np.testing.assert_allclose(out, ref, atol=1e-6)

    def test_distinct_geometries_get_distinct_wrappers(self, rng, built):
        from repro.api import clear_workspace_cache

        def call(heads_qo, dim):
            single_prefill_with_kv_cache(
                rng.standard_normal((8, heads_qo, dim)),
                rng.standard_normal((8, 2, dim)), rng.standard_normal((8, 2, dim)))

        call(4, 32)
        call(2, 16)
        assert built["wrappers"] == 2
        # clear_workspace_cache() forgets both: each geometry is rebuilt.
        clear_workspace_cache()
        call(4, 32)
        call(2, 16)
        assert built["wrappers"] == 4

    def test_single_decode_uses_cache(self, rng, built):
        q = rng.standard_normal((4, 32))
        k = rng.standard_normal((77, 2, 32))
        v = rng.standard_normal((77, 2, 32))
        out1 = single_decode_with_kv_cache(q, k, v)
        out2 = single_decode_with_kv_cache(q, k, v)
        assert built == {"wrappers": 1, "workspaces": 1}
        np.testing.assert_allclose(out1, out2, atol=0)

    def test_tracer_records_standalone_kernel(self, rng):
        from repro.obs import StepTracer

        tracer = StepTracer()
        q = rng.standard_normal((16, 4, 32))
        kv = rng.standard_normal((16, 2, 32))
        single_prefill_with_kv_cache(q, kv, kv, tracer=tracer)
        assert tracer.num_kernels == 1
        rec = tracer.kernels[0]
        assert rec.phase == "prefill"
        assert rec.makespan > 0
        # Tracer is detached afterwards: a second untraced call records nothing.
        single_prefill_with_kv_cache(q, kv, kv)
        assert tracer.num_kernels == 1

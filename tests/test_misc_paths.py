"""Coverage for less-travelled paths: no-split wrappers, unbalanced plans,
batched streaming caches, engine feature interplay."""

import numpy as np

from conftest import fp16, make_paged_mapping
from repro import BatchAttentionWrapper, WorkspaceBuffer
from repro.core import HeadConfig, VANILLA, reference_attention

HEADS = HeadConfig(4, 2, 16)


class TestNoSplitWrapper:
    def test_numerics_without_kv_splitting(self, rng):
        """split_kv=False (the scheduler ablation's configuration) must
        still be exact — whole-KV work items, no partial states."""
        mapping, slots = make_paged_mapping([3000, 70], [1, 1])
        q = rng.standard_normal((2, 4, 16))
        kp = rng.standard_normal((slots, 2, 16))
        vp = rng.standard_normal((slots, 2, 16))
        w = BatchAttentionWrapper(
            VANILLA, HEADS, WorkspaceBuffer(1 << 27), avg_qo_len=1, split_kv=False
        )
        plan = w.plan(mapping)
        assert plan.num_partial_slots == 0
        out, _, _ = w.run(q, kp, vp)
        for r in range(2):
            sl = mapping.kv.slot_indices(r)
            ref = reference_attention(q[r : r + 1], fp16(kp[sl]), fp16(vp[sl]),
                                      causal=True)
            np.testing.assert_allclose(out[r : r + 1], ref, atol=1e-6)


class TestUnbalancedPlanExecution:
    def test_round_robin_plan_is_numerically_exact(self, rng):
        """The naive-scheduler baseline path (plan injected directly)."""
        from repro.core import plan_unbalanced

        mapping, slots = make_paged_mapping([500, 120], [1, 1])
        q = rng.standard_normal((2, 4, 16))
        kp = rng.standard_normal((slots, 2, 16))
        vp = rng.standard_normal((slots, 2, 16))
        w = BatchAttentionWrapper(VANILLA, HEADS, WorkspaceBuffer(1 << 27), avg_qo_len=1)
        plan = plan_unbalanced(
            mapping.qo_lens, mapping.kv.kv_lens, w._sched_q_tile, w.num_ctas,
            num_kv_heads=HEADS.num_kv_heads,
        )
        w._ensure_sections(mapping.num_groups, mapping.total_qo)
        w._write_plan(plan)
        w._mapping = mapping
        w._params = VANILLA.bind_params({})
        out, _, _ = w.run(q, kp, vp)
        for r in range(2):
            sl = mapping.kv.slot_indices(r)
            ref = reference_attention(q[r : r + 1], fp16(kp[sl]), fp16(vp[sl]),
                                      causal=True)
            np.testing.assert_allclose(out[r : r + 1], ref, atol=1e-6)


class TestStreamingBatch:
    def test_multi_sequence_mapping_through_wrapper(self, rng):
        """A batched StreamingKVCache mapping attends each sequence's own
        rolling window."""
        from repro.kvcache import StreamingKVCache

        c = StreamingKVCache(3, num_sinks=2, window=6, num_kv_heads=2, head_dim=16)
        hist = {}
        for s in range(3):
            n = 5 + 4 * s  # different stream lengths; seq 2 overflows
            for i in range(n):
                k = rng.standard_normal((1, 2, 16))
                v = rng.standard_normal((1, 2, 16))
                c.append(s, k, v)
        m = c.mapping([0, 1, 2], [1, 1, 1])
        q = rng.standard_normal((3, 4, 16))
        w = BatchAttentionWrapper(VANILLA, HEADS, WorkspaceBuffer(1 << 26), avg_qo_len=1)
        w.plan(m)
        out, _, _ = w.run(q, c.k_pool, c.v_pool)
        for s in range(3):
            slots = m.kv.slot_indices(s)
            ref = reference_attention(
                q[s : s + 1], fp16(c.k_pool[slots]), fp16(c.v_pool[slots]), causal=True
            )
            np.testing.assert_allclose(out[s : s + 1], ref, atol=1e-6)


class TestRaggedGQA:
    def test_ragged_wrapper_with_group_size_4(self, rng):
        from repro.api import BatchPrefillWithRaggedKVCacheWrapper
        from repro.gpu import WorkspaceBuffer as WS

        lens = [40, 24]
        total = sum(lens)
        q = rng.standard_normal((total, 8, 16))
        k = rng.standard_normal((total, 2, 16))
        v = rng.standard_normal((total, 2, 16))
        indptr = np.array([0, 40, 64])
        w = BatchPrefillWithRaggedKVCacheWrapper(WS(1 << 27), 8, 2, 16, avg_qo_len=32)
        w.plan(indptr, indptr, causal=True)
        out = w.run(q, k, v)
        for s0, s1 in zip(indptr, indptr[1:]):
            ref = reference_attention(q[s0:s1], fp16(k[s0:s1]), fp16(v[s0:s1]),
                                      causal=True)
            np.testing.assert_allclose(out[s0:s1], ref, atol=1e-6)


class TestEngineFeatureInterplay:
    def test_chunked_prefix_caching_and_parallel_generation(self):
        """Every engine feature on at once: chunked prefill + prefix cache +
        composable parallel generation + tight-ish pool."""
        from repro.core import HeadConfig as HC
        from repro.gpu import H100_80G
        from repro.serving import (EngineConfig, FlashInferBackend,
                                   LLAMA_3_1_8B, Request, ServingEngine)

        model = LLAMA_3_1_8B
        heads = HC(model.num_qo_heads, model.num_kv_heads, model.head_dim)
        cfg = EngineConfig(
            num_pool_pages=1 << 12, chunked_prefill=True, prefill_chunk_size=256,
            prefix_cache=True, composable=True, max_running=64,
        )
        be = FlashInferBackend(heads, H100_80G)
        reqs = [
            Request(i * 0.05, 512, 6, n=2, prefix_group=1, prefix_len=448)
            for i in range(4)
        ]
        m = ServingEngine(model, be, H100_80G, cfg).run(reqs)
        assert len(m.traces) == 8
        assert m.total_output_tokens == 48

"""Tests for the plan cache: accounting, invalidation, determinism."""

import pytest

from conftest import SMALL_HEADS, make_paged_mapping
from repro.core import VANILLA, BatchAttentionWrapper, HeadConfig
from repro.gpu import H100_80G, PersistentKernelExecutor, WorkspaceBuffer
from repro.serving import (
    EngineConfig,
    FlashInferBackend,
    LLAMA_3_1_8B,
    PlanCache,
    Request,
    ServingEngine,
)
from repro.utils.dtypes import StorageDType

MODEL = LLAMA_3_1_8B
HEADS = HeadConfig(MODEL.num_qo_heads, MODEL.num_kv_heads, MODEL.head_dim)


def make_engine(plan_cache=True, **cfg_kwargs):
    cfg = EngineConfig(num_pool_pages=1 << 12, plan_cache=plan_cache, **cfg_kwargs)
    return ServingEngine(MODEL, FlashInferBackend(HEADS, H100_80G), H100_80G, cfg)


def decode_heavy_requests(n=4, prompt=64, output=32):
    return [Request(i * 0.001, prompt, output) for i in range(n)]


class TestAccounting:
    def test_miss_then_hit(self):
        pc = PlanCache(capacity=4)
        assert pc.get("a") is None
        pc.put("a", "plan-a")
        assert pc.get("a") == "plan-a"
        assert (pc.hits, pc.misses) == (1, 1)

    def test_replay_factor_charges_per_launch(self):
        # One planned shape on an 8-layer model = 1 CPU plan + 7 replays;
        # a resident shape = 8 replayed launches (§3.3.1 plan/run split).
        pc = PlanCache(capacity=4, replay_factor=8)
        pc.get("a")
        pc.put("a", "plan-a")
        assert (pc.hits, pc.misses) == (7, 1)
        pc.get("a")
        assert (pc.hits, pc.misses) == (15, 1)

    def test_lru_eviction_and_recency_refresh(self):
        pc = PlanCache(capacity=2)
        pc.put("a", 1)
        pc.put("b", 2)
        pc.get("a")  # refresh: "b" is now least recently used
        pc.put("c", 3)
        assert pc.evictions == 1
        assert pc.get("b") is None
        assert pc.get("a") == 1 and pc.get("c") == 3

    def test_stats_delta_semantics(self):
        pc = PlanCache(capacity=4, replay_factor=2)
        pc.get("a")
        pc.put("a", 1)
        before = (pc.hits, pc.misses)
        pc.get("a")
        s = pc.stats(since=before)
        assert s["plan_cache_hits"] == 2.0
        assert s["plan_cache_misses"] == 0.0
        assert s["plan_cache_hit_rate"] == 1.0
        assert s["plan_cache_entries"] == 1.0

    def test_invalid_args_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            PlanCache(capacity=0)
        with pytest.raises(ValueError, match="replay_factor"):
            PlanCache(replay_factor=0)


class TestInvalidation:
    def test_bind_same_geometry_keeps_entries(self):
        pc = PlanCache()
        pc.bind(16, 1024)
        pc.put("a", 1)
        pc.bind(16, 1024)
        assert len(pc) == 1

    def test_bind_pool_size_change_flushes(self):
        pc = PlanCache()
        pc.bind(16, 1024)
        pc.put("a", 1)
        pc.bind(16, 2048)
        assert len(pc) == 0

    def test_bind_page_size_change_flushes(self):
        pc = PlanCache()
        pc.bind(16, 1024)
        pc.put("a", 1)
        pc.bind(32, 1024)
        assert len(pc) == 0

    def test_invalidate_preserves_counters(self):
        pc = PlanCache()
        pc.get("a")
        pc.put("a", 1)
        pc.get("a")
        pc.invalidate()
        assert len(pc) == 0
        assert (pc.hits, pc.misses) == (1, 1)


class TestWrapperDeterminism:
    def _wrapper(self, cache=None):
        w = BatchAttentionWrapper(
            VANILLA, SMALL_HEADS, WorkspaceBuffer(1 << 26), H100_80G, avg_qo_len=1.0
        )
        w.plan_cache = cache
        return w

    def test_cached_plan_identical_to_uncached(self):
        mapping, _ = make_paged_mapping([128, 300, 77], [1, 1, 1], 16)
        pc = PlanCache()
        cached = self._wrapper(pc)
        cached.plan(mapping)  # miss: computes and stores
        hit_plan = cached.plan(mapping)  # hit: replayed from the cache
        assert (pc.hits, pc.misses) == (1, 1)
        fresh_plan = self._wrapper().plan(mapping)
        assert hit_plan == fresh_plan

    def test_kv_storage_precision_does_not_collide(self):
        """A backend's wrappers share one cache through their executor.  At
        128 fused rows an fp8 split breaks even at twice the KV tokens of an
        fp16 one (516 vs 258), so the same lengths plan two chunk sizes."""
        executor = PersistentKernelExecutor(H100_80G)
        executor.plan_cache = pc = PlanCache()
        fp16, fp8 = (
            BatchAttentionWrapper(VANILLA, HEADS, WorkspaceBuffer(1 << 27), H100_80G,
                                  avg_qo_len=32.0, kv_dtype=dtype, executor=executor)
            for dtype in (StorageDType.FP16, StorageDType.FP8_E4M3)
        )
        # Everything else of the plan key is equal: only the break-even differs.
        assert (fp16._sched_q_tile, fp16.num_ctas, fp16.kv_tile) == (
            fp8._sched_q_tile, fp8.num_ctas, fp8.kv_tile) == (32, 264, 64)
        mapping, _ = make_paged_mapping([100] * 30 + [1000] * 4, [32] * 34, 16)
        chunks = (fp16.plan(mapping).kv_chunk_size, fp8.plan(mapping).kv_chunk_size)
        assert (pc.hits, pc.misses) == (0, 2)
        assert chunks == (320, 576)

    def test_distinct_shapes_do_not_collide(self):
        m1, _ = make_paged_mapping([128, 300], [1, 1], 16)
        m2, _ = make_paged_mapping([128, 301], [1, 1], 16)
        pc = PlanCache()
        w = self._wrapper(pc)
        p1 = w.plan(m1)
        p2 = w.plan(m2)
        assert pc.misses == 2 and pc.hits == 0
        assert p1 != p2


class TestEngineIntegration:
    def test_decode_heavy_hit_rate(self):
        # Decode steps repeat the same batch shape for every layer and most
        # steps; with a 32-layer model the per-launch hit rate must clear
        # 50% by a wide margin.
        m = make_engine().run(decode_heavy_requests())
        s = m.summary()
        assert s["plan_cache_hit_rate"] >= 0.5
        assert s["plan_cache_hits"] > 0
        assert s["plan_cache_misses"] > 0

    def test_cache_off_omits_keys(self):
        s = make_engine(plan_cache=False).run(decode_heavy_requests()).summary()
        assert not any(k.startswith("plan_cache") for k in s)

    def test_cache_never_changes_results(self):
        reqs = decode_heavy_requests()
        with_cache = make_engine(plan_cache=True).run(reqs).summary()
        without = make_engine(plan_cache=False).run(reqs).summary()
        stripped = {
            k: v for k, v in with_cache.items() if not k.startswith("plan_cache")
        }
        assert stripped == without

    def test_stats_are_per_run_deltas(self):
        eng = make_engine()
        reqs = decode_heavy_requests()
        eng.run(reqs)
        second = eng.run(reqs)  # every shape is already resident
        assert second.plan_cache_stats["plan_cache_misses"] == 0.0
        assert second.plan_cache_stats["plan_cache_hit_rate"] == 1.0

    def test_chunked_prefill_with_cache(self):
        m = make_engine(chunked_prefill=True, prefill_chunk_size=128).run(
            decode_heavy_requests(prompt=400)
        )
        assert len(m.traces) == 4
        assert m.summary()["plan_cache_hit_rate"] >= 0.5

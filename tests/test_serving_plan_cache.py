"""Tests for the plan cache: lookup, invalidation, determinism."""

import pytest

from conftest import (
    SMALL_HEADS,
    CountingPlanCache,
    make_paged_mapping,
    make_shared_prefix_mapping,
)
from repro import AttentionMapping
from repro.core import VANILLA, BatchAttentionWrapper, ComposableAttentionWrapper, HeadConfig
from repro.core.scheduler import plan_signature
from repro.gpu import H100_80G, PersistentKernelExecutor, WorkspaceBuffer
from repro.sparse import BlockSparseKV, decompose_shared_prefix
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


def recurring_requests():
    """Six 256-token prompts of 4 output tokens, 1 s apart: each request
    runs alone, so its 4 step shapes recur in every later one."""
    return [Request(float(i), 256, 4) for i in range(6)]


def store(pc, key, plan):
    """Put ``key`` twice: its second sighting stores the plan."""
    pc.put(key, plan)
    pc.put(key, plan)


class TestLookup:
    def test_miss_then_hit(self):
        pc = PlanCache(capacity=4)
        assert pc.get("a") is None
        pc.put("a", "plan-a")  # a first sighting keeps only the fingerprint
        assert pc.get("a") is None and len(pc) == 0
        pc.put("a", "plan-a")
        assert pc.get("a") == "plan-a" and len(pc) == 1

    def test_lru_eviction_and_recency_refresh(self):
        pc = PlanCache(capacity=2)
        store(pc, "a", 1)
        store(pc, "b", 2)
        pc.get("a")  # refresh: "b" is now least recently used
        store(pc, "c", 3)
        assert len(pc) == 2
        assert pc.get("b") is None
        assert pc.get("a") == 1 and pc.get("c") == 3

    def test_fingerprints_share_the_capacity(self):
        pc = PlanCache(capacity=2)
        for key in "abc":
            pc.put(key, key)  # "a"'s fingerprint is evicted
        pc.put("a", "a")
        pc.put("c", "c")
        assert len(pc) == 1 and pc.get("a") is None and pc.get("c") == "c"

    def test_fingerprint_collision_stores_early_never_wrong(self):
        pc = PlanCache()
        assert hash(-1) == hash(-2)
        pc.put(-1, "plan-1")
        pc.put(-2, "plan-2")  # stored on a first sighting
        assert pc.get(-1) is None and pc.get(-2) == "plan-2"

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            PlanCache(capacity=0)


class TestInvalidation:
    def test_bind_same_geometry_keeps_entries(self):
        pc = PlanCache()
        pc.bind(16, 1024)
        store(pc, "a", 1)
        pc.put("b", 2)
        pc.bind(16, 1024)
        pc.put("b", 2)  # its fingerprint survived
        assert len(pc) == 2

    def test_bind_pool_size_change_flushes(self):
        pc = PlanCache()
        pc.bind(16, 1024)
        store(pc, "a", 1)
        pc.put("b", 2)
        pc.bind(16, 2048)
        pc.put("b", 2)  # its fingerprint went too
        assert len(pc) == 0

    def test_bind_page_size_change_flushes(self):
        pc = PlanCache()
        pc.bind(16, 1024)
        store(pc, "a", 1)
        pc.put("b", 2)
        pc.bind(32, 1024)
        pc.put("b", 2)  # its fingerprint went too
        assert len(pc) == 0

    def test_invalidate_drops_every_plan(self):
        pc = PlanCache()
        store(pc, "a", 1)
        store(pc, "b", 2)
        pc.put("c", 3)
        pc.invalidate()
        pc.put("c", 3)  # and every fingerprint
        assert len(pc) == 0
        assert pc.get("a") is None and pc.get("b") is None and pc.get("c") is None


class TestWrapperDeterminism:
    def _wrapper(self, cache=None):
        w = BatchAttentionWrapper(
            VANILLA, SMALL_HEADS, WorkspaceBuffer(1 << 26), H100_80G, avg_qo_len=1.0
        )
        w.plan_cache = cache
        return w

    def test_cached_plan_identical_to_uncached(self):
        mapping, _ = make_paged_mapping([128, 300, 77], [1, 1, 1], 16)
        pc = CountingPlanCache()
        cached = self._wrapper(pc)
        cached.plan(mapping)  # miss: computes, keeps the fingerprint
        cached.plan(mapping)  # miss: computes and stores
        hit_plan = cached.plan(mapping)  # hit: replayed from the cache
        assert (pc.hits, pc.misses) == (1, 2)
        fresh_plan = self._wrapper().plan(mapping)
        assert hit_plan == fresh_plan

    def test_kv_storage_precision_does_not_collide(self):
        """A backend's wrappers share one cache through their executor.  At
        128 fused rows an fp8 split breaks even at twice the KV tokens of an
        fp16 one (516 vs 258), so the same lengths plan two chunk sizes."""
        executor = PersistentKernelExecutor(H100_80G)
        executor.plan_cache = pc = CountingPlanCache()
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

    def test_stack_format_and_dense_wrapper_do_not_collide(self):
        """Whether the plan is a format of a stack is part of the key.
        Twelve 100-token suffixes of a cascade stack are one launch for a
        dense wrapper, but the stack contracts anyway (one contraction launch
        folds every format's states), and there Algorithm 1's 64-token split
        prices lower."""
        pc = CountingPlanCache()
        mapping, _, clusters = make_shared_prefix_mapping(1, 12, 256, 100)
        stack = decompose_shared_prefix(mapping, clusters)
        suffix = stack.mappings[-1]
        dense = BatchAttentionWrapper(VANILLA, HEADS, WorkspaceBuffer(1 << 27), H100_80G,
                                      avg_qo_len=1.0, plan_cache=pc)
        cw = ComposableAttentionWrapper(VANILLA, HEADS, WorkspaceBuffer(1 << 27), H100_80G,
                                        plan_cache=pc)
        unsplit = dense.plan(suffix)
        cw.plan(stack)
        last = cw.wrappers[-1]
        assert (last._sched_q_tile, last.num_ctas, last.kv_tile) == (
            dense._sched_q_tile, dense.num_ctas, dense.kv_tile)
        assert last._mapping is suffix
        split = last._read_plan()
        assert pc.misses == 3 and pc.hits == 0  # dense, prefix, suffix
        assert unsplit.num_partial_slots == 0 < split.num_partial_slots

    def test_distinct_shapes_do_not_collide(self):
        m1, _ = make_paged_mapping([128, 300], [1, 1], 16)
        m2, _ = make_paged_mapping([128, 301], [1, 1], 16)
        pc = CountingPlanCache()
        w = self._wrapper(pc)
        p1 = w.plan(m1)
        p2 = w.plan(m2)
        assert pc.misses == 2 and pc.hits == 0
        assert p1 != p2

    def test_row_positions_do_not_collide(self):
        """Equal lengths, causal rows at 10, 11 and at 10, 200 (a first-row
        view of positions reads both as 10): the key covers every row, so
        the cache never hands one mapping the other's plan."""
        near, far = (AttentionMapping([0, 2, 4], BlockSparseKV.ragged([0, 256, 512]), True,
                                      [*rows, 100, 101]) for rows in ([10, 11], [10, 200]))
        w = self._wrapper()
        args, kwargs = zip(*(w._schedule_inputs(m) for m in (near, far)))
        assert plan_signature(*args[0], **kwargs[0]) != plan_signature(*args[1], **kwargs[1])
        fresh = {id(m): w.plan(m) for m in (near, far)}
        assert fresh[id(near)] != fresh[id(far)]
        w.plan_cache = pc = CountingPlanCache()
        for m in (near, near, near, far, far, far, near):
            assert w.plan(m) == fresh[id(m)]
        assert (pc.hits, pc.misses) == (3, 4)


class TestEngineIntegration:
    def _run(self, engine, reqs):
        """Run ``engine`` with a counting cache in place of its own."""
        pc = CountingPlanCache()
        engine.plan_cache = pc
        engine.backend.set_plan_cache(pc)
        return engine.run(reqs), pc

    def test_every_miss_stores_one_plan(self):
        # Every step looks its shape up; each miss plans it once and stores
        # its fingerprint on the first sighting, its plan on the second.
        m, pc = self._run(make_engine(), recurring_requests())
        assert len(m.traces) == 6
        assert pc.lookups > 0 and pc.misses == 2 * len(pc) + len(pc._sighted)

    def test_cache_never_changes_results(self):
        reqs = recurring_requests()
        with_cache, pc = self._run(make_engine(plan_cache=True), reqs)
        without = make_engine(plan_cache=False).run(reqs).summary()
        assert pc.hits > 0
        assert with_cache.summary() == without
        assert len(pc) == 4  # exactly the shapes seen at least twice

    def test_second_run_finds_every_shape_resident(self):
        eng = make_engine()
        reqs = decode_heavy_requests()
        _, pc = self._run(eng, reqs)
        lookups = pc.lookups
        # The same engine, bound to the same pool: a second run sights every
        # shape again and stores it, and a third replays.
        eng.run(reqs)
        pc.lookups = pc.misses = 0
        eng.run(reqs)
        assert pc.misses == 0 and pc.hits == lookups

    def test_chunked_prefill_with_cache(self):
        m, pc = self._run(
            make_engine(chunked_prefill=True, prefill_chunk_size=128),
            decode_heavy_requests(prompt=400),
        )
        assert len(m.traces) == 4
        assert pc.lookups > 0 and pc.misses == 2 * len(pc) + len(pc._sighted)

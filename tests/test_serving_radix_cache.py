"""Tests for the automatic radix prefix cache in the engine pipeline.

The load-bearing property (ISSUE acceptance): serving a shared-prefix
workload with ``EngineConfig.prefix_cache`` on skips the cached prompt
prefix at prefill — measurably less prefill work — while staying
byte-identical to a cold-cache run, across eviction pressure, crash
recovery, and the cluster's cache-aware router.
"""

import json
import sys
import types
from pathlib import Path

from repro.core import HeadConfig
from repro.faults import ResilienceConfig
from repro.gpu import H100_80G
from repro.kvcache import PagedKVCache, RadixTree
from repro.serving import (
    CheckpointConfig,
    CheckpointStore,
    CrashHarness,
    EngineConfig,
    FlashInferBackend,
    LLAMA_3_1_8B,
    Request,
    ServingEngine,
    shared_prefix_workload,
)
from repro.serving.batching import BatchFormer, RunState
from repro.serving.metrics import ServingMetrics

MODEL = LLAMA_3_1_8B
HEADS = HeadConfig(MODEL.num_qo_heads, MODEL.num_kv_heads, MODEL.head_dim)


def engine(prefix_cache=True, pool_pages=1 << 14, chunked=False,
           composable=False, **kwargs):
    cfg = EngineConfig(
        num_pool_pages=pool_pages, prefix_cache=prefix_cache,
        chunked_prefill=chunked, prefill_chunk_size=2048,
        composable=composable,
    )
    return ServingEngine(
        MODEL, FlashInferBackend(HEADS, H100_80G), H100_80G, cfg, **kwargs
    )


def shared_requests(n=6, prefix=4096, suffix=64, out=4, gap=0.4, group=7):
    return [
        Request(i * gap, prefix + suffix, out, prefix_group=group,
                prefix_len=prefix)
        for i in range(n)
    ]


def tokens_by_stream(metrics):
    return {
        (t.req_id, t.gen_index): t.tokens
        for t in metrics.traces if t.tokens is not None
    }


# -- RadixTree under pool pressure --------------------------------------------


def setup_cache(num_pages=16, page_size=4):
    cache = PagedKVCache(num_pages, page_size, 1, 4)
    return cache, RadixTree(cache)


def cached_seq(cache, tree, tokens):
    """Insert ``tokens`` and drop the sequence, leaving only the tree's hold."""
    sid = cache.new_seq()
    cache.extend(sid, len(tokens))
    tree.insert(tokens, cache.seq_pages(sid))
    cache.free_seq(sid)


class TestEvictUntil:
    def test_evicts_lru_leaves_until_target(self):
        cache, tree = setup_cache()
        cached_seq(cache, tree, [1, 2, 3, 4])
        cached_seq(cache, tree, [5, 6, 7, 8])
        tree.match_prefix([1, 2, 3, 4])  # touch → [5..8] is now LRU
        free_before = cache.num_free_pages
        assert tree.evict_until(free_before + 1) == 1
        # The LRU leaf went first; the touched one survives.
        assert tree.match_prefix([5, 6, 7, 8])[0] == 0
        assert tree.match_prefix([1, 2, 3, 4])[0] == 4

    def test_pinned_pages_do_not_free(self):
        """Pages still referenced by an in-flight sequence leave the tree
        on eviction but stay allocated — and count as freed 0."""
        cache, tree = setup_cache()
        sid = cache.new_seq()
        cache.extend(sid, 4)
        tree.insert([1, 2, 3, 4], cache.seq_pages(sid))  # sid still live
        assert tree.evictable_pages() == 0
        freed = tree.evict_until(cache.num_free_pages + 1)
        assert freed == 0
        assert tree.num_cached_pages == 0  # dropped from the tree anyway
        assert cache.num_used_pages == 1  # but pinned by the live sequence

    def test_evictable_counts_only_tree_held_pages(self):
        cache, tree = setup_cache()
        cached_seq(cache, tree, [1, 2, 3, 4])  # tree is the last holder
        sid = cache.new_seq()
        cache.extend(sid, 4)
        tree.insert([9, 9, 9, 9], cache.seq_pages(sid))  # pinned by sid
        assert tree.evictable_pages() == 1

    def test_insert_after_evict_reuses_pool(self):
        """Eviction must actually return capacity: fill the pool with
        cached prefixes, evict, and cache a fresh sequence in the hole."""
        cache, tree = setup_cache(num_pages=4)
        cached_seq(cache, tree, [1, 2, 3, 4, 5, 6, 7, 8])
        cached_seq(cache, tree, [10, 11, 12, 13, 14, 15, 16, 17])
        assert cache.num_free_pages == 0
        assert tree.evict_until(2) == 2
        cached_seq(cache, tree, [90, 91, 92, 93, 94, 95, 96, 97])
        assert tree.match_prefix([90, 91, 92, 93, 94, 95, 96, 97])[0] == 8

    def test_stops_on_empty_tree(self):
        cache, tree = setup_cache()
        assert tree.evict_until(cache.num_free_pages + 5) == 0


class TestSnapshotRoundtrip:
    def test_export_import_preserves_matches_and_lru(self):
        cache, tree = setup_cache()
        cached_seq(cache, tree, [1, 2, 3, 4, 5, 6, 7, 8])
        cached_seq(cache, tree, [1, 2, 3, 4, 50, 60, 70, 80])  # branches
        tree.match_prefix([1, 2, 3, 4, 5, 6, 7, 8])  # LRU touch
        state = tree.export_state()
        rebuilt = RadixTree.from_state(cache, state)
        assert rebuilt.num_cached_pages == tree.num_cached_pages
        assert rebuilt.match_prefix([1, 2, 3, 4, 5, 6, 7, 8])[0] == 8
        assert rebuilt.match_prefix([1, 2, 3, 4, 50, 60, 70, 80])[0] == 8
        # No re-retain: refcounts unchanged, so evicting everything from
        # the rebuilt tree returns the pool to fully free.
        rebuilt.evict_until(cache.num_pages)
        assert cache.num_free_pages == cache.num_pages


# -- the engine path ----------------------------------------------------------


class TestEngineRadixCache:
    def test_hits_recorded_and_prefill_skipped(self):
        m = engine().run(shared_requests())
        assert len(m.traces) == 6
        assert m.radix_hit_prompts == 5  # all but the first request
        # Each follower skips the page-aligned 4096-token prefix.
        assert m.radix_hit_tokens == 5 * 4096
        stats = m.prefix_stats
        assert stats is not None
        assert stats["radix_hit_tokens"] == 5 * 4096
        assert stats["prefill_flops_saved"] > 0

    def test_no_group_annotation_needed(self):
        """The tree discovers sharing from token ids alone: requests with
        the same rid-independent prefix hit without ``prefix_group`` —
        here every prompt is unique, so there are no hits, but identical
        prompts (same rid) in a fork do share."""
        reqs = [Request(i * 0.4, 2048, 4) for i in range(4)]
        m = engine().run(reqs)
        assert m.radix_hit_tokens == 0  # distinct prompts: nothing shared
        assert len(m.traces) == 4

    def test_token_exact_vs_cold_cache(self):
        reqs = shared_requests(n=8)
        cold = engine(prefix_cache=False, resilience=ResilienceConfig()).run(reqs)
        warm = engine(resilience=ResilienceConfig()).run(reqs)
        expected = tokens_by_stream(cold)
        got = tokens_by_stream(warm)
        assert got.keys() == expected.keys()
        assert all(got[k] == expected[k] for k in expected)
        assert warm.radix_hit_tokens > 0

    def test_token_exact_with_chunked_prefill_and_cascade(self):
        # Tight arrivals + long decodes: streams sharing the prefix run
        # concurrently, so decode steps can peel it as a cascade level.
        reqs = shared_requests(n=8, out=48, gap=0.02)
        cold = engine(prefix_cache=False, resilience=ResilienceConfig()).run(reqs)
        warm = engine(
            chunked=True, composable=True, resilience=ResilienceConfig()
        ).run(reqs)
        assert tokens_by_stream(warm) == tokens_by_stream(cold)
        assert warm.radix_hit_tokens > 0
        assert warm.cascade_steps > 0
        assert warm.cascade_bytes_saved > 0

    def test_warm_run_is_faster(self):
        reqs = shared_requests(n=8)
        cold = engine(prefix_cache=False).run(reqs)
        warm = engine().run(reqs)
        assert warm.total_time < cold.total_time

    def test_eviction_under_pool_pressure_token_exact(self):
        """A pool too small to keep every prefix cached forces LRU
        eviction mid-run; the run completes and stays token-exact."""
        reqs = shared_requests(n=4, prefix=8192, suffix=64, group=1) + [
            Request(1.6 + i * 0.4, 8192 + 64, 4, prefix_group=2 + i,
                    prefix_len=8192)
            for i in range(4)
        ]
        reqs.sort(key=lambda r: r.arrival)
        # ~516 pages/prompt; 1<<11 pages holds ~3 prompts + cache.
        cold = engine(
            prefix_cache=False, pool_pages=1 << 11,
            resilience=ResilienceConfig(),
        ).run(reqs)
        warm = engine(
            pool_pages=1 << 11, resilience=ResilienceConfig()
        ).run(reqs)
        assert tokens_by_stream(warm) == tokens_by_stream(cold)
        assert warm.radix_hit_tokens > 0

    def test_off_by_default(self):
        assert EngineConfig().prefix_cache is False
        m = engine(prefix_cache=False).run(shared_requests(n=2))
        assert m.radix_hit_tokens == 0
        assert m.prefix_stats is None


class TestCrashRecovery:
    def test_radix_state_survives_kill_restore(self):
        """Scripted engine deaths recover the radix tree from the snapshot:
        the resumed run keeps hitting the cache and stays token-exact."""
        reqs = shared_requests(n=8, prefix=2048, suffix=64, gap=0.2)
        baseline = engine(resilience=ResilienceConfig()).run(reqs)
        expected = tokens_by_stream(baseline)
        assert baseline.radix_hit_tokens > 0

        store = CheckpointStore()

        def factory():
            return engine(
                checkpoint=CheckpointConfig(every_steps=4),
                checkpoint_store=store,
                resilience=ResilienceConfig(),
            )

        script = [(3, "boundary"), (7, "mid-step")]
        report = CrashHarness(
            factory, reqs, store, crash_script=script, expected_tokens=expected
        ).run()
        assert report.crashes == len(script)
        assert report.recoveries == len(script)
        assert report.token_divergence == 0
        assert report.compared == len(expected)
        # The recovered lives kept serving from the cache.
        assert report.metrics.radix_hit_tokens > 0


class TestPrefixPathDoesNoPerTokenPython:
    """A structural guard, not a stopwatch: the Python-level calls made by
    matching and then inserting a prompt do not depend on its length."""

    @staticmethod
    def _calls(prefix):
        cfg = EngineConfig(prefix_cache=True)
        cache = PagedKVCache(1 << 13, cfg.page_size, 8, 128, materialize=False)
        reqs = [Request(0.0, prefix + 64, 4, prefix_group=1, prefix_len=prefix)] * 2
        state = RunState(requests=reqs, cache=cache, metrics=ServingMetrics(),
                         radix=RadixTree(cache))
        eng = types.SimpleNamespace(config=cfg, _step_prefix_hits=0, _step_radix_hit_tokens=0)
        former = BatchFormer(eng, state, admission=None)
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            calls += event == "call"

        for idx in (0, 1):  # cold (a miss, then a leaf), then measured warm
            calls = 0
            sys.setprofile(count)
            try:
                sid, todo = former._start_prefill_seq(cache, idx)
            finally:
                sys.setprofile(None)
            cache.extend(sid, todo)
            sys.setprofile(count)
            try:
                former._radix_insert(idx, sid)
            finally:
                sys.setprofile(None)
        assert todo == 64 and state.metrics.radix_hit_tokens == prefix
        return calls

    def test_call_count_is_small_and_constant_in_prompt_length(self):
        short = self._calls(4096)
        assert short <= 60  # one call per token was > 8 000
        assert self._calls(32768) == short


class TestGoldenRun:
    """``golden_prefix_cache_run.json`` holds the hits, cascade steps and
    every simulated instant of a shared-prefix run, plain and resumed from
    a mid-run snapshot, as exact floats.  The hit counts were written by the
    commit before prompts became arrays and first-page keys; the simulated
    instants and cascade steps were rewritten, hits unchanged, when the
    contraction kernel became row-parallel, every split launch got shorter
    and a cascade step's cross-format ⊕ stopped costing a launch of its
    own; and again, hits and cascade steps unchanged, when Algorithm 1
    stopped splitting KV below break-even (four late TTFTs −18 µs)."""

    CFG = EngineConfig(max_running=64, chunked_prefill=True, prefix_cache=True,
                       composable=True)

    @staticmethod
    def _fields(m):
        return {
            "radix_hit_tokens": m.radix_hit_tokens,
            "radix_hit_prompts": m.radix_hit_prompts,
            "cascade_steps": m.cascade_steps,
            "total_time": m.total_time,
            "first_token_time": [t.first_token_time for t in m.traces],
        }

    def test_plain_and_resumed_runs_equal_the_golden(self):
        golden = json.loads(
            (Path(__file__).parent / "golden_prefix_cache_run.json").read_text())
        reqs = shared_prefix_workload(24, 60.0, seed=0, num_groups=3)
        plain = ServingEngine.from_config(self.CFG).run(reqs)
        assert self._fields(plain) == golden["run"]

        resil = ResilienceConfig()
        base = ServingEngine.from_config(self.CFG, resilience=resil).run(reqs)
        store = CheckpointStore()
        report = CrashHarness(
            lambda: ServingEngine.from_config(
                self.CFG, checkpoint=CheckpointConfig(every_steps=4),
                checkpoint_store=store, resilience=resil),
            reqs, store, crash_script=[(30, "mid-step")],
            expected_tokens=tokens_by_stream(base),
        ).run()
        assert (report.crashes, report.recoveries) == (1, 1)
        assert report.token_divergence == 0 and report.compared == 24
        assert self._fields(report.metrics) == golden["resumed"]


# -- the cluster path ---------------------------------------------------------


class TestCacheAwareRouting:
    def _route(self, requests, dp=2, router="cache-aware"):
        from repro.cluster import ClusterConfig, ClusterEngine

        cluster = ClusterEngine.from_config(
            ClusterConfig(dp=dp, router=router,
                          engine=EngineConfig(prefix_cache=True)),
            model=MODEL, gpu=H100_80G,
        )
        return cluster, cluster.route(requests)

    def test_groups_land_on_their_cached_replica(self):
        """With balanced load, every request of a group follows the first
        one — the replica whose radix tree has the group's prefix."""
        reqs = shared_workload = shared_prefix_workload(
            24, rate=40.0, num_groups=3, prefix_len=2048
        )
        _, (per_replica, assignments) = self._route(shared_workload)
        by_group = {}
        for r, choice in zip(sorted(reqs, key=lambda x: x.arrival), assignments):
            by_group.setdefault(r.prefix_group, set()).add(choice)
        # A group may spill to a second replica under load imbalance, but
        # must not scatter across every replica on every request.
        assert all(len(chosen) <= 2 for chosen in by_group.values())

    def test_cluster_prefix_cache_token_exact(self):
        from repro.cluster import ClusterConfig, ClusterEngine, expected_tokens

        reqs = shared_prefix_workload(16, rate=40.0, num_groups=2,
                                      prefix_len=2048)
        cold = ClusterEngine.from_config(
            ClusterConfig(dp=2, router="cache-aware",
                          engine=EngineConfig()),
            model=MODEL, gpu=H100_80G,
        )
        oracle = expected_tokens(cold.run_reference(reqs))
        warm = ClusterEngine.from_config(
            ClusterConfig(dp=2, router="cache-aware",
                          engine=EngineConfig(prefix_cache=True,
                                              composable=True,
                                              chunked_prefill=True)),
            model=MODEL, gpu=H100_80G,
        )
        cm = warm.run(reqs)
        divergent, compared = cm.token_divergence(oracle)
        assert divergent == 0
        assert compared == 16
        s = cm.summary()
        assert s["cluster_radix_hit_tokens"] > 0

    def test_cache_aware_beats_round_robin_on_hits(self):
        """Cache-aware routing keeps each group on one replica, so the
        cluster serves more tokens from cache than group-oblivious
        round-robin scatter."""
        from repro.cluster import ClusterConfig, ClusterEngine

        reqs = shared_prefix_workload(24, rate=40.0, num_groups=4,
                                      prefix_len=2048)

        def hits(router):
            cm = ClusterEngine.from_config(
                ClusterConfig(dp=4, router=router,
                              engine=EngineConfig(prefix_cache=True)),
                model=MODEL, gpu=H100_80G,
            ).run(reqs)
            return sum(m.radix_hit_tokens for m in cm.replicas)

        assert hits("cache-aware") > hits("round-robin")


class TestStepEvents:
    def test_trace_carries_radix_and_cascade_counters(self):
        from repro.obs import StepTracer

        tracer = StepTracer()
        m = engine(chunked=True, composable=True, tracer=tracer).run(
            shared_requests(n=6, out=48, gap=0.02)
        )
        counters = tracer.counters()
        assert counters["radix_hit_tokens"] == float(m.radix_hit_tokens)
        assert counters["cascade_steps"] > 0
        assert any(e.radix_hit_tokens for e in tracer.events)
        assert any(e.cascade_levels for e in tracer.events)
        # Conditional export: cold steps don't carry the keys.
        cold_dicts = [
            e.to_dict() for e in tracer.events if not e.radix_hit_tokens
        ]
        assert all("radix_hit_tokens" not in d for d in cold_dicts)

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

import pytest

from conftest import cached_pages
from repro.core import VANILLA, HeadConfig
from repro.faults import ResilienceConfig
from repro.gpu import H100_80G
from repro.kvcache import PagedKVCache, RadixTree
from repro.obs import StepTracer
from repro.serving import (
    CheckpointConfig,
    CheckpointStore,
    EngineConfig,
    FlashInferBackend,
    LLAMA_3_1_8B,
    Request,
    ServingEngine,
    expected_tokens,
    run_lives,
    shared_prefix_workload,
)
from repro.serving.batching import BatchFormer, RunState
from repro.serving.engine import PAGE_SIZE
from repro.serving.metrics import ServingMetrics
from repro.sparse import detect_shared_prefixes
from repro.utils import StorageDType

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
        assert cached_pages(tree) == 0  # dropped from the tree anyway
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
        assert cached_pages(rebuilt) == cached_pages(tree)
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
        warm = engine(resilience=ResilienceConfig()).run(reqs)
        oracle = expected_tokens(reqs)
        assert warm.token_divergence(oracle) == (0, len(oracle))
        assert warm.radix_hit_tokens > 0

    def test_token_exact_with_chunked_prefill_and_cascade(self):
        # Tight arrivals + long decodes: streams sharing the prefix run
        # concurrently, so decode steps can peel it as a cascade level.
        reqs = shared_requests(n=8, out=48, gap=0.02)
        warm = engine(
            chunked=True, composable=True, resilience=ResilienceConfig()
        ).run(reqs)
        oracle = expected_tokens(reqs)
        assert warm.token_divergence(oracle) == (0, len(oracle))
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
        warm = engine(
            pool_pages=1 << 11, resilience=ResilienceConfig()
        ).run(reqs)
        oracle = expected_tokens(reqs)
        assert warm.token_divergence(oracle) == (0, len(oracle))
        assert warm.radix_hit_tokens > 0

    def test_off_by_default(self):
        assert EngineConfig().prefix_cache is False
        m = engine(prefix_cache=False).run(shared_requests(n=2))
        assert m.radix_hit_tokens == 0 and m.radix_hit_prompts == 0


class TestCrashRecovery:
    def test_radix_state_survives_kill_restore(self):
        """Scripted engine deaths recover the radix tree from the snapshot:
        the resumed run keeps hitting the cache and stays token-exact."""
        reqs = shared_requests(n=8, prefix=2048, suffix=64, gap=0.2)
        store = CheckpointStore()

        def factory():
            return engine(
                checkpoint=CheckpointConfig(every_steps=4),
                checkpoint_store=store,
                resilience=ResilienceConfig(),
            )

        script = [(3, "boundary"), (7, "mid-step")]
        metrics, phases = run_lives(factory, reqs, store, script=script)
        assert len(phases) == len(script)
        oracle = expected_tokens(reqs)
        assert metrics.token_divergence(oracle) == (0, len(oracle))
        # The recovered lives kept serving from the cache.
        assert metrics.radix_hit_tokens > 0


class TestPrefixPathDoesNoPerTokenPython:
    """A structural guard, not a stopwatch: the Python-level calls made by
    matching and then inserting a prompt do not depend on its length."""

    @staticmethod
    def _calls(prefix):
        cfg = EngineConfig(prefix_cache=True)
        cache = PagedKVCache(1 << 13, PAGE_SIZE, 8, 128, materialize=False)
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
    own; again, hits and cascade steps unchanged, when Algorithm 1
    stopped splitting KV below break-even (four late TTFTs −18 µs); and
    again, hits unchanged, when a cascade step became one contraction
    launch for all its formats (run 0.741 → 0.733 s, 105 → 106 cascade
    steps); and again, hits unchanged, when a dependent launch began its
    dispatch while the one before it ran on H100 (run 0.733 → 0.732 s,
    106 → 108 cascade steps); and again, hits and cascade steps unchanged,
    when a format of a stack split its KV below break-even only where the
    split priced lower (14 plain TTFTs −36…−47 µs, 2 resumed ones
    −11 µs); and again, hits and cascade steps unchanged, when plain plans
    were chosen by price too (every TTFT −72.3 µs, plain and resumed); and
    again, hits and cascade steps unchanged, when every work item ran on its
    own query tile and a stack's tiles stopped depending on the first plan
    under its format count (run 0.7314 → 0.7309 s, four TTFTs −380…−528 µs;
    resumed 0.7306 → 0.7309 s); and again, hits unchanged, when a cascade
    became a priced candidate (108 → 105 cascade steps, three mixed steps
    run dense; ten TTFTs −0.55…−3.8 ms, eleven +0.86…+6.8 ms as later
    arrivals land in other steps; run 0.7309 → 0.7317 s); and again, hits
    unchanged, when each causal query tile was planned over the KV its last
    row sees (105 → 104 cascade steps; 21 TTFTs −0.24…−0.65 ms, one
    +4.5 ms, and requests 13 and 14 trade places, 242.6 → 490.5 and
    491.0 → 247.2 ms;
    run 0.7317 → 0.7312 s); and again, hits and cascade steps unchanged,
    when each plan was priced at 64-row tiles too, one-row items ran on the
    CUDA cores and the contraction wrote fp16 rows (20 TTFTs −0.53…−4.7
    ms, four +0.47…+2.9 ms, and requests 13 and 14 trade places back,
    −245.3 and +243.7 ms; run 0.731239 → 0.731226 s).  The resumed run
    equals the plain one: the wrappers it rebuilds after the restore price
    as the originals."""

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
        store = CheckpointStore()
        metrics, phases = run_lives(
            lambda: ServingEngine.from_config(
                self.CFG, checkpoint=CheckpointConfig(every_steps=4),
                checkpoint_store=store, resilience=resil),
            reqs, store, script=[(30, "mid-step")],
        )
        assert phases == ["mid-step"]
        assert metrics.token_divergence(expected_tokens(reqs)) == (0, 24)
        assert self._fields(metrics) == golden["resumed"] == golden["run"]


class TestTheCascadeIsAPricedCandidate:
    """A cascade step runs the cheaper of its cascade stack and its dense
    plan, ties to the cascade, and counts what it saves once per member."""

    @staticmethod
    def _run(tracer=None):
        config = EngineConfig(chunked_prefill=True, composable=True, prefix_cache=True)
        return ServingEngine.from_config(config, tracer=tracer).run(shared_prefix_workload(12, 40.0))

    def test_each_step_runs_the_cheaper_of_its_cascade_and_dense_plans(self, monkeypatch):
        """Both priced in full, without the dense plan's floor; the run
        reaches both branches, and the loser records no kernel."""
        chosen, ran = [], []
        cheaper, attention_time = FlashInferBackend.cheaper, FlashInferBackend.attention_time

        def spy_cheaper(self, cascade, mapping):
            prices = [self.stack(VANILLA, StorageDType.FP16, f).price() for f in (cascade, mapping)]
            winner = cheaper(self, cascade, mapping)
            chosen.append((len(ran), prices, winner is cascade))
            return winner

        def spy_time(self, formats):
            ran.append(attention_time(self, formats))
            return ran[-1]

        monkeypatch.setattr(FlashInferBackend, "cheaper", spy_cheaper)
        monkeypatch.setattr(FlashInferBackend, "attention_time", spy_time)
        tracer = StepTracer(capture_kernels=True)
        metrics = self._run(tracer)
        for step, (cascade, dense), kept in chosen:
            assert ran[step] == min(cascade, dense)
            assert kept == (cascade <= dense)
        assert 0 < metrics.cascade_steps == sum(kept for *_, kept in chosen) < len(chosen)
        steps = [e for e in tracer.events if e.kind != "idle"]
        assert all(len(e.kernels) == max(e.cascade_levels, 1) for e in steps)

    def test_a_prefix_read_is_saved_once_per_member_request(self, monkeypatch):
        """A member whose prefill chunk sits in the prefix group saves one
        read of the prefix, not one per chunk row."""
        steps = []
        note = BatchFormer._note_cascade

        def spy(self, formats, mapping):
            before = self.state.metrics.cascade_bytes_saved
            note(self, formats, mapping)
            steps.append((self.state.metrics.cascade_bytes_saved - before, mapping))

        monkeypatch.setattr(BatchFormer, "_note_cascade", spy)
        self._run()
        per_token = MODEL.num_kv_heads * MODEL.head_dim * 2 * 2 * MODEL.num_layers
        chunked = 0
        for saved, mapping in steps:
            clusters = detect_shared_prefixes(mapping.kv)
            assert saved == per_token * sum((len(cl.requests) - 1) * cl.prefix_len for cl in clusters)
            chunked += any(mapping.qo_lens[list(cl.requests)].max() > 1 for cl in clusters)
        assert chunked


# -- the cluster path ---------------------------------------------------------


class TestCacheAwareRouting:
    def _route(self, requests, dp=2, router="cache-aware"):
        from repro.cluster import ClusterConfig, ClusterEngine

        cluster = ClusterEngine(
            MODEL, H100_80G,
            ClusterConfig(dp=dp, router=router, engine=EngineConfig(prefix_cache=True)),
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

    @pytest.fixture(scope="class")
    def routed_runs(self):
        """Four prefix groups on four replicas, under each router."""
        from repro.cluster import ClusterConfig, ClusterEngine

        reqs = shared_prefix_workload(24, rate=40.0, num_groups=4, prefix_len=2048)
        return reqs, {router: ClusterEngine(
            MODEL, H100_80G,
            ClusterConfig(dp=4, router=router, engine=EngineConfig(prefix_cache=True)),
        ).run(reqs) for router in ("cache-aware", "round-robin")}

    def test_cluster_prefix_cache_token_exact(self, routed_runs):
        reqs, runs = routed_runs
        for cm in runs.values():
            assert cm.token_divergence(expected_tokens(reqs)) == (0, 24)
            assert cm.summary()["cluster_radix_hit_tokens"] > 0

    def test_cache_aware_beats_round_robin_on_hits(self, routed_runs):
        """Cache-aware routing keeps each group on one replica, so the
        cluster serves more tokens from cache than group-oblivious
        round-robin scatter."""
        hits = {k: sum(m.radix_hit_tokens for m in cm.replicas) for k, cm in routed_runs[1].items()}
        assert hits["cache-aware"] > hits["round-robin"]


class TestStepEvents:
    def test_trace_carries_radix_and_cascade_counters(self):
        tracer = StepTracer()
        m = engine(chunked=True, composable=True, tracer=tracer).run(
            shared_requests(n=6, out=48, gap=0.02)
        )
        assert sum(e.radix_hit_tokens for e in tracer.events) == m.radix_hit_tokens > 0
        assert sum(bool(e.cascade_levels) for e in tracer.events) == m.cascade_steps > 0
        # Conditional export: cold steps don't carry the keys.
        cold_dicts = [
            e.to_dict() for e in tracer.events if not e.radix_hit_tokens
        ]
        assert all("radix_hit_tokens" not in d for d in cold_dicts)

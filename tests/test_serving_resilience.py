"""Tests for the serving engine's fault-injection and resilience layer.

The load-bearing property (ISSUE acceptance): a seeded chaos run completes
with *token-exact* final outputs for every non-shed request, and shedding /
degradation are deterministic functions of the seed.
"""

import pytest

from repro.core import HeadConfig
from repro.faults import FaultPlan, ResilienceConfig
from repro.gpu import H100_80G
from repro.kvcache import OutOfPagesError
from repro.serving import (
    EngineConfig,
    FlashInferBackend,
    LLAMA_3_1_8B,
    Request,
    ServingEngine,
)

MODEL = LLAMA_3_1_8B
HEADS = HeadConfig(MODEL.num_qo_heads, MODEL.num_kv_heads, MODEL.head_dim)


def engine(cfg=None, fault_plan=None, resilience=None, tracer=None):
    return ServingEngine(
        MODEL, FlashInferBackend(HEADS, H100_80G), H100_80G,
        cfg or EngineConfig(max_running=64),
        tracer=tracer, fault_plan=fault_plan, resilience=resilience,
    )


def small_workload(n=10):
    return [
        Request(i * 0.004, 64 + 37 * (i % 5), 16 + 5 * (i % 4))
        for i in range(n)
    ]


def tokens_by_stream(metrics):
    return {(t.req_id, t.gen_index): t.tokens for t in metrics.traces}


def stressful_plan(seed):
    """Rates pushed well past the chaos preset so short test workloads
    still see every site fire."""
    return FaultPlan(
        seed=seed,
        kernel_fault_rate=0.15,
        straggler_rate=0.05,
        corruption_rate=0.05,
        alloc_fault_rate=0.05,
    )


class TestTokenExactness:
    @pytest.mark.parametrize("seed", [7, 23])
    def test_chaos_run_is_token_exact(self, seed):
        reqs = small_workload()
        baseline = engine(resilience=ResilienceConfig()).run(reqs)
        chaotic = engine(
            fault_plan=stressful_plan(seed), resilience=ResilienceConfig()
        ).run(reqs)

        stats = chaotic.fault_stats
        assert stats["faults_injected"] > 0
        expected = tokens_by_stream(baseline)
        compared = 0
        for key, toks in tokens_by_stream(chaotic).items():
            if key in expected:
                assert toks == expected[key], f"stream {key} diverged"
                compared += 1
        assert compared > 0

    def test_chaos_run_token_exact_with_chunked_prefill(self):
        cfg = EngineConfig(
            max_running=64, chunked_prefill=True, prefill_chunk_size=64
        )
        reqs = small_workload()
        baseline = engine(cfg).run(reqs)  # plain run for counts
        chaotic = engine(
            EngineConfig(max_running=64, chunked_prefill=True,
                         prefill_chunk_size=64),
            fault_plan=stressful_plan(11),
            resilience=ResilienceConfig(),
        ).run(reqs)
        done = {(t.req_id, t.gen_index) for t in chaotic.traces}
        shed = {(t.req_id, t.gen_index) for t in chaotic.shed_traces}
        # Every stream is accounted for exactly once.
        assert len(done) + len(shed) == len(reqs)
        assert len(baseline.traces) == len(reqs)
        # Completed streams produced their full token budget.
        for t in chaotic.traces:
            assert len(t.tokens) == reqs[t.req_id].output_len

    def test_chaos_is_deterministic(self):
        reqs = small_workload()
        a = engine(fault_plan=stressful_plan(5)).run(reqs)
        b = engine(fault_plan=stressful_plan(5)).run(reqs)
        assert a.summary() == b.summary()
        assert tokens_by_stream(a) == tokens_by_stream(b)

    def test_detection_off_is_a_load_bearing_negative_control(self):
        """With checksums disabled, injected corruption reaches decoded
        tokens — proving the detection layer does the work."""
        reqs = small_workload()
        baseline = engine(resilience=ResilienceConfig()).run(reqs)
        plan = FaultPlan(seed=3, corruption_rate=0.2)
        tainted = engine(
            fault_plan=plan,
            resilience=ResilienceConfig(checksums=False),
        ).run(reqs)
        assert plan.injected["corrupt"] > 0
        expected = tokens_by_stream(baseline)
        divergent = sum(
            toks != expected[key]
            for key, toks in tokens_by_stream(tainted).items()
            if key in expected
        )
        assert divergent > 0


class TestAccounting:
    def test_pool_fully_reclaimed_after_chaos(self):
        cfg = EngineConfig(max_running=64, num_pool_pages=512)
        e = engine(cfg, fault_plan=stressful_plan(7),
                   resilience=ResilienceConfig())
        e.run(small_workload())
        assert e._cache.num_free_pages == cfg.num_pool_pages
        assert e._cache.find_corrupted() == []

    def test_every_injected_fault_has_a_matching_event(self):
        from repro.obs import StepTracer

        tracer = StepTracer()
        plan = stressful_plan(7)
        engine(fault_plan=plan, resilience=ResilienceConfig(),
               tracer=tracer).run(small_workload())
        assert plan.total_injected > 0
        by_action = {}
        for ev in tracer.fault_events:
            by_action.setdefault(ev.action, []).append(ev)
        # Injections are all traced, and each triggered a reaction.
        assert len(by_action["injected"]) == plan.total_injected
        reactions = sum(
            len(by_action.get(a, ()))
            for a in ("retry", "detected", "shed", "degraded")
        )
        assert reactions > 0

    def test_fault_stats_only_on_resilience_runs(self):
        reqs = small_workload(4)
        plain = engine().run(reqs)
        assert plain.fault_stats is None
        resil = engine(resilience=ResilienceConfig()).run(reqs)
        assert resil.fault_stats is not None
        assert resil.fault_stats["faults_injected"] == 0

    def test_no_fault_resilience_matches_plain_core_metrics(self):
        reqs = small_workload()
        plain = engine().run(reqs).summary()
        resil = engine(resilience=ResilienceConfig()).run(reqs).summary()
        for key in ("median_ttft", "p99_ttft", "median_itl",
                    "throughput_tok_s", "num_requests", "preemptions"):
            assert resil[key] == plain[key], key


class TestDeadlines:
    def deadline_run(self):
        # Four streams carry a deadline they cannot meet (their 60-token
        # decode takes ~100 ms of simulated time); four are unconstrained.
        reqs = [
            Request(i * 0.001, 320, 60,
                    deadline=0.03 if i % 2 == 0 else None)
            for i in range(8)
        ]
        return engine(resilience=ResilienceConfig()).run(reqs), reqs

    def test_deadline_shedding_is_deterministic_and_recorded(self):
        a, reqs = self.deadline_run()
        b, _ = self.deadline_run()
        shed_a = {(t.req_id, t.gen_index) for t in a.shed_traces}
        assert shed_a == {(i, 0) for i in range(8) if i % 2 == 0}
        assert shed_a == {(t.req_id, t.gen_index) for t in b.shed_traces}
        assert all(t.outcome_reason == "deadline" for t in a.shed_traces)
        assert all(t.outcome == "shed" for t in a.shed_traces)
        # Per-request shed records appear in the summary.
        summary = a.summary()
        for req_id, gen in shed_a:
            assert f"shed_req_{req_id}_{gen}" in summary
        assert summary["sheds"] == len(shed_a)
        # Unconstrained streams all completed.
        assert {(t.req_id, t.gen_index) for t in a.traces} == {
            (i, 0) for i in range(8) if i % 2 == 1
        }


class TestOverload:
    def test_overload_sheds_instead_of_raising(self):
        # The pool cannot hold even one prompt (cf. the preemption test
        # that expects OutOfPagesError on this shape).
        cfg = EngineConfig(max_running=64, num_pool_pages=30)
        m = engine(cfg, resilience=ResilienceConfig()).run([Request(0.0, 640, 10)])
        assert len(m.traces) == 0
        assert m.sheds == 1
        assert m.shed_traces[0].outcome_reason == "overload"

    def test_overload_raise_preserved_when_shedding_disabled(self):
        cfg = EngineConfig(max_running=64, num_pool_pages=30)
        resil = ResilienceConfig(shed_on_overload=False)
        with pytest.raises(OutOfPagesError, match="num_pool_pages"):
            engine(cfg, resilience=resil).run([Request(0.0, 640, 10)])


class TestDegradation:
    def test_consecutive_kernel_faults_degrade_then_anneal(self):
        # Three scheduled back-to-back kernel faults trip degradation
        # (degrade_after=3); the run is long enough to anneal back.
        plan = FaultPlan(seed=0, schedules={"kernel": [5, 6, 7]})
        resil = ResilienceConfig(degrade_after=3, anneal_after=4)
        m = engine(fault_plan=plan, resilience=resil).run(small_workload())
        stats = m.fault_stats
        assert stats["kernel_faults"] == 3
        assert stats["degrade_events"] == 1
        assert stats["degraded_steps"] >= 1
        assert stats["anneal_events"] == 1
        # Degradation changed the backend, not the tokens.
        baseline = engine(resilience=ResilienceConfig()).run(small_workload())
        assert tokens_by_stream(m) == tokens_by_stream(baseline)

    def test_degraded_steps_marked_in_trace(self):
        from repro.obs import StepTracer

        tracer = StepTracer()
        plan = FaultPlan(seed=0, schedules={"kernel": [5, 6, 7]})
        resil = ResilienceConfig(degrade_after=3, anneal_after=4)
        engine(fault_plan=plan, resilience=resil,
               tracer=tracer).run(small_workload())
        degraded = [e for e in tracer.events if e.degraded]
        assert degraded
        assert all("degraded" in e.to_dict() for e in degraded)
        clean = [e for e in tracer.events if not e.degraded]
        assert all("degraded" not in e.to_dict() for e in clean)


class TestWatchdog:
    def test_watchdog_flags_over_budget_steps(self):
        resil = ResilienceConfig(step_budget=1e-9)
        m = engine(resilience=resil).run(small_workload(4))
        assert m.fault_stats["watchdog_flags"] > 0

    def test_no_flags_with_roomy_budget(self):
        resil = ResilienceConfig(step_budget=10.0)
        m = engine(resilience=resil).run(small_workload(4))
        assert m.fault_stats["watchdog_flags"] == 0


class TestRadixCorruption:
    def test_corrupt_page_held_only_by_the_radix_tree_is_evicted(self, monkeypatch):
        """A cached prefix page goes bad while no stream holds it: the
        scrub must make the tree forget it, or the next matching prompt
        shares the page and the run dies on its checksum."""
        from repro.faults.recover import KVScrubber
        from repro.obs import StepTracer

        cfg = EngineConfig(prefix_cache=True, chunked_prefill=True, num_pool_pages=512)
        reqs = [
            Request(t, prompt_len=256, output_len=4, prefix_group=1, prefix_len=192)
            for t in (0.0, 0.5, 1.0)
        ]
        baseline = engine(cfg, resilience=ResilienceConfig()).run(reqs)
        caches = []

        def corrupt_once_idle(self, t):
            st = self.state
            if not caches and not st.streams and not st.prefilling:
                page = st.cache.used_pages()[0]  # first page of the prefix
                assert st.cache.page_refcount(page) == 1
                st.cache.corrupt_page(page)
                caches.append(st.cache)

        monkeypatch.setattr(KVScrubber, "inject", corrupt_once_idle)
        tracer = StepTracer()
        metrics = engine(cfg, resilience=ResilienceConfig(), tracer=tracer).run(reqs)

        assert len(metrics.traces) == 3
        assert tokens_by_stream(metrics) == tokens_by_stream(baseline)
        assert caches[0].find_corrupted() == []
        assert metrics.fault_stats["checksum_failures"] == 1
        evicted = [e for e in tracer.fault_events if e.action == "evicted"]
        assert [e.site for e in evicted] == ["corrupt"]
        # The second request re-inserted the prefix; the third one hits it.
        assert metrics.prefix_stats["radix_hit_prompts"] == 1
        assert metrics.prefix_stats["radix_hit_tokens"] == 192

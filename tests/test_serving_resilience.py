"""Tests for the serving engine's fault-injection and resilience layer.

The load-bearing property (ISSUE acceptance): a seeded chaos run completes
with *token-exact* final outputs for every non-shed request, and shedding /
degradation are deterministic functions of the seed.
"""

import pytest

from repro.faults import FaultPlan, ResilienceConfig
from repro.serving import EngineConfig, Request, ServingEngine, expected_tokens


def engine(cfg=None, fault_plan=None, resilience=None, tracer=None):
    return ServingEngine.from_config(
        cfg or EngineConfig(max_running=64),
        tracer=tracer, fault_plan=fault_plan, resilience=resilience,
    )


def small_workload(n=10):
    return [
        Request(i * 0.004, 64 + 37 * (i % 5), 16 + 5 * (i % 4))
        for i in range(n)
    ]




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
        chaotic = engine(
            fault_plan=stressful_plan(seed), resilience=ResilienceConfig()
        ).run(reqs)

        stats = chaotic.fault_stats
        assert stats["faults_injected"] > 0
        divergent, compared = chaotic.token_divergence(expected_tokens(reqs))
        assert divergent == 0
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

    def test_planning_never_consults_the_fault_plan(self, monkeypatch):
        """``plan`` prices an unsplit launch it may never make: it draws from
        no fault site, so every kernel consultation is a launch ``run``
        priced, and a chaos run with one-launch plans in it stays
        token-exact."""
        from repro.core import BatchAttentionWrapper, plan_schedule
        from repro.faults import FAULT_SITES
        from repro.gpu import PersistentKernelExecutor

        fault_plan = stressful_plan(7)
        launches, one_launch = [], []
        plan, run_streams = BatchAttentionWrapper.plan, PersistentKernelExecutor.run_streams

        def checked_plan(self, mapping, *args, **kwargs):
            drawn = [fault_plan.consultations(site) for site in FAULT_SITES]
            chosen = plan(self, mapping, *args, **kwargs)
            assert [fault_plan.consultations(site) for site in FAULT_SITES] == drawn
            args, kwargs = self._schedule_inputs(self._mapping)
            algorithm_1 = plan_schedule(*args, **kwargs)
            one_launch.append(chosen.num_partial_slots == 0 < algorithm_1.num_partial_slots)
            return chosen

        def counted_run_streams(self, *args, **kwargs):
            launches.append(self.fault_injector is fault_plan)
            return run_streams(self, *args, **kwargs)

        monkeypatch.setattr(BatchAttentionWrapper, "plan", checked_plan)
        monkeypatch.setattr(PersistentKernelExecutor, "run_streams", counted_run_streams)
        # Near-equal lengths: decode batches whose unsplit tiles fill one wave.
        reqs = [Request(i * 0.0005, 240 + 8 * (i % 3), 24) for i in range(16)]
        chaotic = engine(fault_plan=fault_plan, resilience=ResilienceConfig()).run(reqs)
        assert fault_plan.consultations("kernel") == sum(launches)
        assert fault_plan.injected["kernel"] > 0 and sum(one_launch) > 0
        assert chaotic.token_divergence(expected_tokens(reqs))[0] == 0

    def test_chaos_is_deterministic(self):
        reqs = small_workload()
        a = engine(fault_plan=stressful_plan(5)).run(reqs)
        b = engine(fault_plan=stressful_plan(5)).run(reqs)
        assert a.summary() == b.summary()
        assert [t.tokens for t in a.traces] == [t.tokens for t in b.traces]

    def test_detection_off_is_a_load_bearing_negative_control(self):
        """With checksums disabled, injected corruption reaches decoded
        tokens — proving the detection layer does the work."""
        reqs = small_workload()
        plan = FaultPlan(seed=3, corruption_rate=0.2)
        tainted = engine(
            fault_plan=plan,
            resilience=ResilienceConfig(checksums=False),
        ).run(reqs)
        assert plan.injected["corrupt"] > 0
        divergent, _ = tainted.token_divergence(expected_tokens(reqs))
        assert divergent > 0


class TestAccounting:
    def test_pool_fully_reclaimed_after_chaos(self):
        cfg = EngineConfig(max_running=64, num_pool_pages=512)
        e = engine(cfg, fault_plan=stressful_plan(7),
                   resilience=ResilienceConfig())
        e.run(small_workload())
        assert e.cache.num_free_pages == cfg.num_pool_pages
        assert e.cache.find_corrupted() == []

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
        plain = engine().run(reqs)
        resil = engine(resilience=ResilienceConfig()).run(reqs)
        for key in ("median_ttft", "p99_ttft", "median_itl", "throughput_tok_s"):
            assert resil.summary()[key] == plain.summary()[key], key
        assert len(resil.traces) == len(plain.traces)
        assert resil.preemptions == plain.preemptions


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
        assert a.summary()["sheds"] == len(shed_a)
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


class TestDegradation:
    def test_consecutive_kernel_faults_degrade_then_anneal(self):
        # Three scheduled back-to-back kernel faults trip degradation
        # (DEGRADE_AFTER = 3); the run is long enough to anneal back.
        from repro.obs import StepTracer

        tracer = StepTracer()
        plan = FaultPlan(seed=0, schedules={"kernel": [5, 6, 7]})
        resil = ResilienceConfig(anneal_after=4)
        reqs = small_workload()
        m = engine(fault_plan=plan, resilience=resil, tracer=tracer).run(reqs)
        stats = m.fault_stats
        assert stats["kernel_faults"] == 3
        assert stats["degraded_steps"] >= 1
        degrade = [e.action for e in tracer.fault_events if e.site == "degrade"]
        assert degrade == ["degraded", "annealed"]
        # Degradation changed the backend, not the tokens.
        oracle = expected_tokens(reqs)
        assert m.token_divergence(oracle) == (0, len(oracle))

    def test_degraded_steps_marked_in_trace(self):
        from repro.obs import StepTracer

        tracer = StepTracer()
        plan = FaultPlan(seed=0, schedules={"kernel": [5, 6, 7]})
        resil = ResilienceConfig(anneal_after=4)
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
        assert metrics.token_divergence(expected_tokens(reqs)) == (0, 3)
        assert caches[0].find_corrupted() == []
        assert metrics.fault_stats["checksum_failures"] == 1
        evicted = [e for e in tracer.fault_events if e.action == "evicted"]
        assert [e.site for e in evicted] == ["corrupt"]
        # The second request re-inserted the prefix; the third one hits it.
        assert metrics.radix_hit_prompts == 1
        assert metrics.radix_hit_tokens == 192


@pytest.mark.parametrize("field, value", [
    ("max_retries", -1), ("deadline", 0.0), ("step_budget", 0.0), ("anneal_after", 0),
])
def test_resilience_config_refuses_out_of_range_values(field, value):
    with pytest.raises(ValueError, match=field):
        ResilienceConfig(**{field: value})

"""Overload layer: front door, circuit breakers, brownout ladder, SLOs.

Unit coverage for each overload piece plus the acceptance scenario from
the issue: a 3x sustained-overload burst at dp=2 must keep every accepted
stream token-exact against the workload's token oracle, open *and* close a
breaker via a half-open probe, engage the brownout ladder and fully
anneal back, and beat the unprotected run's SLO attainment on the same
trace — while ``overload=None`` runs stay bit-identical to the
pre-overload engine.
"""

import dataclasses

import pytest

from repro.cluster import ClusterConfig, ClusterEngine, expected_tokens
from repro.cluster.router import (
    BreakerConfig,
    CircuitBreaker,
    IllegalBreakerTransition,
)
from repro.faults import FaultPlan
from repro.gpu import H100_80G
from repro.serving import (
    BROWNOUT_LADDER,
    BrownoutController,
    EngineConfig,
    FrontDoor,
    LLAMA_3_1_8B,
    OverloadConfig,
    TokenBucket,
    bursty_workload,
    sharegpt_workload,
)
from repro.serving.overload import slo_attainment

MODEL = LLAMA_3_1_8B


class TestTokenBucket:
    def test_burst_then_sustained_rate(self):
        b = TokenBucket(rate=2.0, capacity=3.0)
        # The full bucket absorbs a burst of capacity...
        assert [b.allow(0.0) for _ in range(4)] == [True, True, True, False]
        # ...then refills at rate: one token every 0.5 s.
        assert not b.allow(0.25)
        assert b.allow(0.5)
        assert not b.allow(0.6)

    def test_refill_caps_at_capacity(self):
        b = TokenBucket(rate=100.0, capacity=2.0)
        assert b.allow(0.0)
        assert [b.allow(1e9) for _ in range(3)] == [True, True, False]

    def test_time_never_runs_backwards(self):
        b = TokenBucket(rate=1.0, capacity=1.0)
        assert b.allow(5.0)
        b.allow(1.0)  # stale timestamp must not mint tokens
        assert not b.allow(5.5)
        assert b.allow(6.0)

    def test_validates(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, capacity=1.0)


class TestFrontDoor:
    def workload(self, n=24, rate=400.0):
        # The door runs on rid-stamped workloads (ClusterEngine.run stamps
        # before routing); stamp here the same way.
        from repro.cluster import assign_rids

        return assign_rids(bursty_workload(n, rate, seed=3, tenants=4))

    def door(self, **kw):
        base = dict(tenants=4, admit_rate=40.0, burst_capacity=2.0, seed=1)
        base.update(kw)
        return FrontDoor(OverloadConfig(**base))

    def test_admission_is_deterministic(self):
        reqs = self.workload()
        a1, r1 = self.door().admit(reqs)
        a2, r2 = self.door().admit(reqs)
        assert [(q.rid, q.arrival) for q in a1] == [(q.rid, q.arrival) for q in a2]
        assert r1.summary() == r2.summary()

    def test_conservation_and_arrival_order(self):
        reqs = self.workload()
        admitted, rep = self.door().admit(reqs)
        assert rep.offered == len(reqs)
        assert rep.admitted + rep.dropped == rep.offered
        assert len(admitted) == rep.admitted
        arrivals = [q.arrival for q in admitted]
        assert arrivals == sorted(arrivals)

    def test_retries_keep_rid_and_record_origin(self):
        reqs = self.workload()
        admitted, rep = self.door().admit(reqs)
        assert rep.retries > 0
        assert sorted(q.rid for q in admitted) == sorted(
            r.rid for r in reqs if r.rid in {q.rid for q in admitted}
        )
        by_rid = {r.rid: r for r in reqs}
        for rid, first_arrival in rep.origin.items():
            assert by_rid[rid].arrival == first_arrival
            (re_admitted,) = [q for q in admitted if q.rid == rid]
            assert re_admitted.arrival > first_arrival

    def test_retry_budget_bounds_the_storm(self):
        reqs = self.workload()
        _, rep = self.door(retry_budget=0.25, max_client_retries=10).admit(reqs)
        assert rep.retries <= -(-len(reqs) * 25 // 100)  # ceil(0.25 * n)
        _, unbounded = self.door(retry_budget=10.0, max_client_retries=10).admit(reqs)
        assert unbounded.retries > rep.retries

    def test_untagged_requests_hash_by_rid(self):
        door = self.door()
        req = dataclasses.replace(self.workload()[0], tenant=None)
        assert door.tenant_of(req) == req.rid % 4


class TestBrownoutController:
    def controller(self, **kw):
        base = dict(engage_after=2, anneal_after=3)
        base.update(kw)
        return BrownoutController(OverloadConfig(**base))

    def test_ladder_engages_rung_by_rung_with_dwell(self):
        bo = self.controller()
        assert bo.observe(2.0, t=0.0) == 0  # first hot sample: dwell
        assert bo.observe(2.0, t=0.1) == 1
        assert (bo.level, bo.rung_name) == (1, "shrink-prefill-chunk")
        assert bo.chunk_budget(512) == 128 and not bo.cascade_disabled
        for step, want in ((2, "disable-cascade"), (3, "clamp-new-tokens"),
                           (4, "shed-low-priority")):
            bo.observe(2.0, t=step)
            assert bo.observe(2.0, t=step + 0.1) == 1
            assert bo.rung_name == want
        assert bo.cascade_disabled and bo.token_clamp == 32 and bo.shed_active
        # Fully engaged: further hot samples cannot climb past the ladder.
        assert bo.observe(2.0, t=9.0) == 0 and bo.observe(2.0, t=9.1) == 0
        assert bo.level == bo.peak_level == len(BROWNOUT_LADDER)

    def test_anneals_back_and_band_holds(self):
        bo = self.controller()
        for t in range(4):
            bo.observe(1.0, t=float(t))
        assert bo.level == 2
        # The hysteresis band between exit and enter holds the rung...
        for t in range(10):
            assert bo.observe(0.75, t=10.0 + t) == 0
        assert bo.level == 2
        # ...and the band resets the cool dwell: 2 cool + band + 2 cool != 3.
        bo.observe(0.1, t=20.0)
        bo.observe(0.1, t=20.1)
        bo.observe(0.75, t=20.2)
        bo.observe(0.1, t=20.3)
        bo.observe(0.1, t=20.4)
        assert bo.level == 2
        assert bo.observe(0.1, t=20.5) == -1
        assert bo.observe(0.1, t=20.6) == 0
        for t in range(6):
            bo.observe(0.1, t=21.0 + t)
        assert (bo.level, bo.rung_name) == (0, "off")
        assert bo.anneal_events == 2 and bo.peak_level == 2
        assert [lv for _, _, lv in bo.transitions] == [1, 2, 1, 0]

    def test_config_carries_the_knobs(self):
        bo = self.controller(brownout_clamp=16, engage_after=5, anneal_after=7)
        assert [bo.observe(2.0, t=float(t)) for t in range(5)] == [0, 0, 0, 0, 1]
        assert bo.chunk_budget(512) == 128
        for t in range(10):
            bo.observe(2.0, t=5.0 + t)
        assert bo.level == 3 and bo.token_clamp == 16
        assert [bo.observe(0.1, t=20.0 + t) for t in range(7)] == [0] * 6 + [-1]

    def test_validates(self):
        with pytest.raises(ValueError):
            self.controller(engage_after=0)


class TestCircuitBreaker:
    def breaker(self, **kw):
        base = dict(fail_threshold=2, cooldown=1.0, probe_successes=2)
        base.update(kw)
        return CircuitBreaker(0, BreakerConfig(**base))

    def test_full_lifecycle_closed_open_half_open_closed(self):
        b = self.breaker()
        assert b.allow(0.0)
        b.record_failure(0.1, "timeout")
        assert b.state == "closed"  # one strike under the threshold
        b.record_failure(0.2, "timeout")
        assert b.state == "open"
        assert not b.allow(0.5)  # cooldown still running
        assert b.allow(1.3)  # cooldown elapsed -> half-open probe
        assert b.state == "half-open"
        b.record_success(1.4)
        assert b.state == "half-open"  # needs probe_successes=2
        b.record_success(1.5)
        assert b.state == "closed"
        assert (b.open_count, b.half_open_count, b.close_count) == (1, 1, 1)

    def test_failed_probe_reopens_and_rearms_cooldown(self):
        b = self.breaker()
        b.record_failure(0.0, "timeout")
        b.record_failure(0.1, "timeout")
        assert b.allow(1.2) and b.state == "half-open"
        b.record_failure(1.3, "pressure")
        assert b.state == "open"
        assert not b.allow(2.0)  # cooldown restarted at 1.3
        assert b.allow(2.4)
        assert b.open_count == 2 and b.half_open_count == 2

    def test_success_decays_strikes(self):
        b = self.breaker(fail_threshold=2)
        b.record_failure(0.0, "timeout")
        b.record_success(0.1)  # leaky decay: strike forgiven
        b.record_failure(0.2, "timeout")
        assert b.state == "closed"
        b.record_failure(0.3, "timeout")
        assert b.state == "open"

    def test_transitions_are_validated_and_timestamped(self):
        b = self.breaker()
        with pytest.raises(IllegalBreakerTransition):
            b.to("closed", t=0.0)  # closed -> closed is not an edge
        with pytest.raises(IllegalBreakerTransition):
            b.to("half-open", t=0.0)  # must pass through open
        b.record_failure(0.0, "timeout")
        b.record_failure(0.5, "timeout")
        assert [(tr.frm, tr.to, tr.t) for tr in b.transitions] == [
            ("closed", "open", 0.5)
        ]


class TestBurstyWorkload:
    def test_deterministic_and_tenant_tagged(self):
        a = bursty_workload(32, 50.0, seed=5, tenants=3)
        b = bursty_workload(32, 50.0, seed=5, tenants=3)
        assert a == b
        assert {r.tenant for r in a} <= {0, 1, 2}
        assert all(r.arrival >= 0 for r in a)
        assert [r.arrival for r in a] == sorted(r.arrival for r in a)

    def test_premium_tenants_carry_priority(self):
        reqs = bursty_workload(64, 50.0, seed=2, tenants=4, premium_tenants=2)
        for r in reqs:
            assert r.priority == (1 if r.tenant < 2 else 0)

    def test_burst_multiplier_compresses_the_span(self):
        calm = bursty_workload(64, 30.0, seed=1, burst=1.0)
        bursty = bursty_workload(64, 30.0, seed=1, burst=4.0)
        assert bursty[-1].arrival < calm[-1].arrival

    @pytest.mark.parametrize("kw", [
        dict(rate=float("nan")), dict(rate=float("inf")),
        dict(burst=float("nan")), dict(burst=float("inf")), dict(burst=0.5),
    ], ids=["rate-nan", "rate-inf", "burst-nan", "burst-inf", "burst-below-1"])
    def test_refuses_a_non_finite_rate_or_burst(self, kw):
        # NaN used to yield NaN arrivals and inf to thin every candidate
        # forever; both are refused before a single draw.
        with pytest.raises(ValueError, match="rate|burst"):
            bursty_workload(4, **{"rate": 60.0, **kw})


class TestClusterOverloadScenario:
    """The acceptance scenario: 3x sustained burst at dp=2."""

    @pytest.fixture(scope="class")
    def scenario(self):
        requests = bursty_workload(96, 40.0, seed=0, tenants=4, burst=3.0,
                                   burst_len=0.25, burst_every=0.6)
        engine_cfg = EngineConfig(max_running=16, chunked_prefill=True,
                                  composable=True, prefill_chunk_size=256)
        overload = OverloadConfig(
            tenants=4, admit_rate=24.0, burst_capacity=8.0,
            max_client_retries=5, retry_budget=2.0, retry_base=0.08,
            seed=0, slo_ttft=0.4, engage_after=25, anneal_after=60,
            brownout_clamp=32,
            breaker=BreakerConfig(fail_threshold=3, cooldown=0.25,
                                  probe_successes=2, pressure_threshold=0.5),
        )
        cluster = ClusterEngine(
            MODEL, H100_80G,
            ClusterConfig(dp=2, engine=engine_cfg, overload=overload),
            fault_plan=FaultPlan(seed=0, timeout_rate=0.08),
        )
        cm = cluster.run(requests)
        baseline = ClusterEngine(
            MODEL, H100_80G, ClusterConfig(dp=2, engine=engine_cfg),
        ).run(requests)
        return requests, cm, baseline, overload

    def test_accepted_streams_are_token_exact(self, scenario):
        requests, cm, _, _ = scenario
        divergent, compared = cm.token_divergence(expected_tokens(requests))
        assert divergent == 0
        assert compared > 0
        # At least one compared stream was brownout-clamped (the prefix
        # branch of the check really ran).
        clamped = [t for m in cm.replicas for t in m.traces
                   if t.outcome_reason == "brownout-clamp"]
        assert clamped

    def test_door_sheds_and_queue_depth_stays_bounded(self, scenario):
        _, cm, baseline, _ = scenario
        s = cm.summary()
        assert s["overload_rejected"] > 0
        assert s["overload_retries"] > 0
        assert s["overload_admitted"] + s["overload_dropped"] == s["overload_offered"]

        def queued_peak(metrics):
            """Most requests at once that arrived and await a first token."""
            spans = [(t.arrival, t.first_token_time) for t in metrics.traces]
            return max(sum(a <= x <= f for a, f in spans) for x, _ in spans)

        # The door keeps each replica's queue under its max_running of 16;
        # the unprotected run parks the burst there (27 and 29 deep).
        max_running = 16
        assert all(0 < queued_peak(m) < max_running for m in cm.replicas)
        assert all(queued_peak(m) > max_running for m in baseline.replicas)

    def test_a_breaker_opens_and_later_closes(self, scenario):
        _, cm, _, _ = scenario
        s = cm.summary()
        assert s["breaker_open_total"] > 0
        assert s["breaker_half_open_total"] > 0
        assert s["breaker_close_total"] > 0
        # The close really came through a half-open probe: the transition
        # log shows open -> half-open -> closed in time order.
        seq = [(tr.t, tr.frm, tr.to) for tr in cm.overload.breaker_transitions]
        assert any(frm == "half-open" and to == "closed" for _, frm, to in seq)

    def test_brownout_engages_and_fully_anneals(self, scenario):
        _, cm, _, _ = scenario
        s = cm.summary()
        assert s["brownout_engaged"] > 0
        assert s["brownout_annealed"] > 0
        assert s["brownout_peak_level"] >= 3  # the clamp rung really ran
        assert s["brownout_final_level"] == 0

    def test_slo_attainment_beats_the_unprotected_baseline(self, scenario):
        requests, cm, baseline, overload = scenario
        offered = sum(r.n for r in requests)
        _, base_frac = slo_attainment(baseline, offered, overload.slo_ttft)
        assert cm.summary()["slo_attainment"] > base_frac

    def test_hedging_issued_hedges(self, scenario):
        _, cm, _, _ = scenario
        assert cm.summary()["hedged_prefills"] > 0

    def test_the_unprotected_run_reports_no_overload_keys(self, scenario):
        s = scenario[2].summary()
        assert not [k for k in s if k.startswith(("overload_", "breaker_",
                                                  "brownout_", "hedge"))]
        assert "slo_attainment" not in s


class TestClampedStreamDivergence:
    """``ClusterMetrics.token_divergence`` holds a brownout-clamped stream
    to the exact prefix of its oracle tokens, every other stream to all of it."""

    @staticmethod
    def divergence(tokens, reason):
        from repro.cluster.engine import ClusterMetrics
        from repro.serving import Request, RequestTrace, ServingMetrics

        trace = RequestTrace(0.0, 0.1, req_id=0, tokens=tokens, outcome_reason=reason)
        cm = ClusterMetrics(
            tp=1, dp=1, router="round-robin", topology=None,
            replicas=[ServingMetrics(traces=[trace])],
            replica_requests=[[Request(0.0, 8, 4, rid=7)]], assignments=[0],
        )
        return cm.token_divergence({(7, 0): [5, 6, 7, 8]})

    def test_clamped_exact_prefix_is_not_divergent(self):
        assert self.divergence([5, 6], "brownout-clamp") == (0, 1)

    def test_clamped_stream_with_a_wrong_token_is_divergent(self):
        assert self.divergence([5, 9], "brownout-clamp") == (1, 1)

    def test_unclamped_short_stream_is_divergent(self):
        assert self.divergence([5, 6], "") == (1, 1)


def test_an_open_door_admits_every_stream_token_exactly():
    # Rid-keyed tokens are arrival-independent.
    requests = sharegpt_workload(8, rate=120.0, seed=6)
    cfg = ClusterConfig(
        dp=2, engine=EngineConfig(max_running=64),
        overload=OverloadConfig(admit_rate=1000.0, burst_capacity=64.0),
    )
    cm = ClusterEngine(MODEL, H100_80G, cfg).run(requests)
    divergent, compared = cm.token_divergence(expected_tokens(requests))
    assert divergent == 0 and compared > 0


@pytest.mark.parametrize("field, value, message", [
    ("tenants", 0, "tenants"),
    ("admit_rate", 0.0, "admit_rate"),
    ("retry_factor", 0.5, "retry_factor"),
    ("retry_jitter", -0.1, "retry_jitter"),
    ("retry_budget", -1, "retry_budget"),
    ("seed", -1, "seed"),
    ("slo_ttft", 0.0, "slo_ttft"),
    ("engage_after", 0, "engage_after"),
    ("brownout_clamp", 0, "brownout_clamp"),
])
def test_overload_config_refuses_out_of_range_values(field, value, message):
    with pytest.raises(ValueError, match=message):
        OverloadConfig(**{field: value})


@pytest.mark.parametrize("field, value", [
    ("fail_threshold", 0), ("cooldown", 0.0), ("probe_successes", 0),
    ("pressure_threshold", 0.0),
])
def test_breaker_config_refuses_out_of_range_values(field, value):
    with pytest.raises(ValueError, match=field):
        BreakerConfig(**{field: value})

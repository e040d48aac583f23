"""Data-parallel routing: policies, load model, cluster token-exactness."""

import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterEngine,
    expected_tokens,
)
from repro.cluster.router import (
    LeastLoadedPolicy,
    LoadTracker,
    PowerOfTwoPolicy,
    ROUTING_POLICIES,
    RoundRobinPolicy,
    RoutingPolicy,
    SessionAffinityPolicy,
    get_routing_policy,
)
from repro.gpu import H100_80G
from repro.serving import EngineConfig, LLAMA_3_1_8B, Request, sharegpt_workload

MODEL = LLAMA_3_1_8B


def _req(arrival=0.0, **kw):
    kw.setdefault("prompt_len", 64)
    kw.setdefault("output_len", 8)
    return Request(arrival, **kw)


def test_load_tracker_assigns_and_drains():
    lt = LoadTracker(2, service_rate=100.0)
    lt.assign(0, 500.0)
    assert lt.loads() == [500.0, 0.0]
    lt.observe(2.0)  # drains 200 tokens from each replica
    assert lt.loads() == [300.0, 0.0]
    lt.observe(100.0)  # never goes negative
    assert lt.loads() == [0.0, 0.0]
    # Time cannot run backwards.
    lt.assign(1, 100.0)
    lt.observe(50.0)
    assert lt.loads()[1] == pytest.approx(100.0)
    with pytest.raises(ValueError):
        LoadTracker(0, 1.0)
    with pytest.raises(ValueError):
        LoadTracker(1, 0.0)


def test_round_robin_cycles():
    p = RoundRobinPolicy()
    p.reset(3)
    assert [p.choose(_req(), 0.0, [0, 0, 0]) for _ in range(6)] == [0, 1, 2, 0, 1, 2]


def test_least_loaded_picks_minimum_with_deterministic_ties():
    p = LeastLoadedPolicy()
    p.reset(3)
    assert p.choose(_req(), 0.0, [5.0, 1.0, 3.0]) == 1
    assert p.choose(_req(), 0.0, [2.0, 2.0, 2.0]) == 0


def test_power_of_two_is_seed_deterministic():
    choices = []
    for _ in range(2):
        p = PowerOfTwoPolicy()
        p.reset(4)
        choices.append([p.choose(_req(), 0.0, [3.0, 1.0, 2.0, 0.5]) for _ in range(16)])
    assert choices[0] == choices[1]
    p = PowerOfTwoPolicy()
    p.reset(1)
    assert p.choose(_req(), 0.0, [1.0]) == 0


def test_session_affinity_groups_land_together():
    p = SessionAffinityPolicy()
    p.reset(4)
    same = {
        p.choose(_req(prefix_group=7, prefix_len=16), 0.0, [0] * 4)
        for _ in range(5)
    }
    assert len(same) == 1
    # Ungrouped requests spread by rid, deterministically.
    a = p.choose(_req(rid=1), 0.0, [0] * 4)
    b = p.choose(_req(rid=1), 0.0, [0] * 4)
    assert a == b


def test_session_affinity_rebinds_off_unhealthy_replicas():
    # Regression: the hashed home replica being down must not keep
    # receiving the session's requests — rebind deterministically, to the
    # same fallback for every request of the session, and snap back home
    # once the replica rejoins.
    p = SessionAffinityPolicy()
    p.reset(4)
    req = _req(prefix_group=7, prefix_len=16)
    home = p.choose(req, 0.0, [0.0] * 4)
    healthy = [True] * 4
    healthy[home] = False
    rebound = {p.route(req, 0.0, [0.0] * 4, healthy) for _ in range(5)}
    assert len(rebound) == 1
    fallback = rebound.pop()
    assert fallback != home and healthy[fallback]
    # Healthy home: route is just choose.
    assert p.route(req, 0.0, [0.0] * 4, [True] * 4) == home
    # Another session whose home is also down keeps its own fallback
    # stream (the probe is salted by session key, not shared state).
    other = next(
        g for g in range(8, 64)
        if p.choose(_req(prefix_group=g, prefix_len=16), 0.0, [0.0] * 4) == home
    )
    other_req = _req(prefix_group=other, prefix_len=16)
    assert p.route(other_req, 0.0, [0.0] * 4, healthy) == p.route(
        other_req, 0.0, [0.0] * 4, healthy
    )
    # Nothing healthy: route returns the raw choice — the cluster engine
    # is responsible for holding the request at the front door.
    assert p.route(req, 0.0, [0.0] * 4, [False] * 4) == home


def test_base_rebind_picks_least_loaded_healthy():
    p = RoundRobinPolicy()
    p.reset(3)
    # First round-robin choice is replica 0; it is down, and replica 2 is
    # the least-loaded healthy one.
    assert p.route(_req(), 0.0, [1.0, 5.0, 2.0], [False, True, True]) == 2
    # Ties break to the lowest index.
    assert p.route(_req(), 0.0, [9.0, 3.0, 3.0], [False, True, True]) == 1


def test_load_tracker_pressure_backpressures_loads():
    lt = LoadTracker(2, service_rate=100.0)
    lt.assign(0, 50.0)
    # No pressure: loads() is exactly the outstanding work (bit-identical
    # to the pre-failover tracker).
    assert lt.loads() == [50.0, 0.0]
    lt.set_pressure(1, 2.0)  # 2 s of synthetic backlog = 200 tokens
    assert lt.loads() == [50.0, 200.0]
    lt.set_pressure(1, 0.0)
    assert lt.loads() == [50.0, 0.0]
    lt.set_pressure(0, -5.0)  # clamped
    assert lt.loads() == [50.0, 0.0]


def test_policy_table():
    assert tuple(ROUTING_POLICIES) == ("cache-aware", "disagg", "least-loaded",
                                       "power-of-two", "round-robin", "session-affinity")
    assert isinstance(get_routing_policy("round-robin"), RoundRobinPolicy)
    with pytest.raises(ValueError, match="unknown routing policy.*round-robin"):
        get_routing_policy("nope")


def test_custom_policy_routes_the_cluster(monkeypatch):
    class AlwaysZero(RoutingPolicy):
        name = "test-always-zero"

        def choose(self, req, t, loads):
            return 0

    monkeypatch.setitem(ROUTING_POLICIES, AlwaysZero.name, AlwaysZero)
    cm = ClusterEngine(
        MODEL, H100_80G,
        ClusterConfig(dp=2, router="test-always-zero",
                      engine=EngineConfig(max_running=64)),
    ).run(sharegpt_workload(6, rate=50.0, seed=2))
    assert len(cm.replica_requests[0]) == 6
    assert len(cm.replica_requests[1]) == 0


def test_routing_splits_workload_and_keeps_arrival_order():
    cluster = ClusterEngine(
        MODEL, H100_80G, ClusterConfig(dp=3, router="round-robin")
    )
    per_replica, assignments = cluster.route(
        sharegpt_workload(9, rate=100.0, seed=4)
    )
    assert assignments == [0, 1, 2] * 3
    for reqs in per_replica:
        assert len(reqs) == 3
        arrivals = [r.arrival for r in reqs]
        assert arrivals == sorted(arrivals)
    # rids cover the whole workload exactly once.
    rids = sorted(r.rid for reqs in per_replica for r in reqs)
    assert rids == list(range(9))


@pytest.mark.parametrize("router", ["round-robin", "least-loaded",
                                    "power-of-two", "session-affinity"])
def test_dp_cluster_token_exact_under_every_router(router):
    requests = sharegpt_workload(8, rate=120.0, seed=9)
    cluster = ClusterEngine(
        MODEL, H100_80G,
        ClusterConfig(dp=2, router=router, engine=EngineConfig(max_running=64)),
    )
    reference = cluster.run_reference(requests)
    cm = cluster.run(requests)
    divergent, compared = cm.token_divergence(expected_tokens(reference))
    assert (divergent, compared) == (0, 8)


def test_dp2_least_loaded_beats_dp1_throughput():
    # The CI acceptance gate: at an overloaded arrival rate, splitting the
    # workload across two replicas must strictly raise simulated
    # throughput over one replica.
    requests = sharegpt_workload(24, rate=200.0, seed=0)
    results = {}
    for dp in (1, 2):
        results[dp] = ClusterEngine(
            MODEL, H100_80G,
            ClusterConfig(dp=dp, router="least-loaded",
                          engine=EngineConfig(max_running=256)),
        ).run(requests)
    assert (
        results[2].throughput_tokens_per_s()
        > results[1].throughput_tokens_per_s()
    )
    assert results[2].total_time < results[1].total_time


def test_cluster_summary_shape():
    cm = ClusterEngine(
        MODEL, H100_80G,
        ClusterConfig(tp=2, dp=2, engine=EngineConfig(max_running=64)),
    ).run(sharegpt_workload(6, rate=60.0, seed=1))
    s = cm.summary()
    assert sum(s[f"replica{i}_requests"] for i in range(2)) == 6.0
    for i in range(2):
        assert 0.0 <= s[f"replica{i}_utilization"] <= 1.0
    assert s["link_bytes"] > 0.0
    merged = cm.merged
    assert len(merged.traces) == 6
    assert merged.total_time == pytest.approx(cm.total_time)


def test_route_with_every_breaker_open_still_places_work(monkeypatch):
    # A breaker steers work, never drops it: with every breaker open the
    # routing pass falls back to the unmasked policy and places every
    # request the front door admitted, each exactly once.
    from repro.cluster.router import CircuitBreaker
    from repro.serving.overload import OverloadConfig

    requests = sharegpt_workload(12, rate=120.0, seed=5)
    cfg = ClusterConfig(
        dp=3, router="least-loaded", engine=EngineConfig(max_running=64),
        overload=OverloadConfig(admit_rate=1000.0, burst_capacity=64.0),
    )
    closed, _ = ClusterEngine(MODEL, H100_80G, cfg).route(requests)
    monkeypatch.setattr(CircuitBreaker, "allow", lambda self, t: False)
    cluster = ClusterEngine(MODEL, H100_80G, cfg)
    per_replica, assignments = cluster.route(requests)
    placed = sorted(r.rid for reqs in per_replica for r in reqs)
    assert placed == sorted(r.rid for reqs in closed for r in reqs)
    assert len(placed) == len(set(placed)) == len(assignments) == 12
    for reqs in per_replica:
        assert [r.arrival for r in reqs] == sorted(r.arrival for r in reqs)

"""The cluster run is a DAG evaluated in dependency order (``route →
prefill pool → wire → decode pool``), and a replica is one life loop.

The first two tests pin the model that makes sequential evaluation exact:
TTFT is decided inside the prefill stage and the decode pool cannot reach
back into it.  The third pins that replicas of one stage are independent
of each other.  The last two pin ``run_lives`` as the single life loop
under both ``CrashHarness`` and ``ClusterEngine._run_replica``, livelock
guard included.
"""

import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterEngine,
    FailoverConfig,
    ReplicaFailure,
    assign_rids,
    parse_roles,
)
from repro.faults import ResilienceConfig
from repro.serving import (
    CheckpointConfig,
    CheckpointStore,
    CrashHarness,
    EngineConfig,
    ServingEngine,
    mixed_disagg_workload,
    sharegpt_workload,
)

ENGINE = EngineConfig(max_running=64, chunked_prefill=True, num_pool_pages=4096)
LOAD = mixed_disagg_workload(24, 60.0, seed=0)


def _disagg(roles):
    dp = sum(len(pool) for pool in parse_roles(roles))
    return ClusterEngine.from_config(ClusterConfig(dp=dp, roles=roles, engine=ENGINE))


def _streams(cm):
    """Per replica: every finished stream as plain comparable data."""
    return [
        sorted(
            (requests[tr.req_id].rid, tr.gen_index, tr.arrival,
             tr.first_token_time, tuple(tr.token_times), tuple(tr.tokens))
            for tr in metrics.traces
        )
        for requests, metrics in zip(cm.replica_requests, cm.replicas)
    ]


def test_ttft_is_decided_inside_the_prefill_stage():
    cluster = _disagg("prefill=2,decode=2")
    cm = cluster.run(LOAD)
    prefill_ids, decode_ids = cluster.roles
    handoffs = {}
    for i in prefill_ids:
        assert cm.replicas[i].traces == []
        handoffs.update(cluster._engine_sinks[i].handoffs)
    seen = 0
    for i in decode_ids:
        for tr in cm.replicas[i].traces:
            rid = cm.replica_requests[i][tr.req_id].rid
            assert tr.first_token_time == handoffs[(rid, tr.gen_index)].t_ready
            seen += 1
    assert seen == len(handoffs) == len(LOAD)


def test_prefill_stage_cannot_see_the_decode_pool():
    ttfts = []
    for roles in ("prefill=2,decode=1", "prefill=2,decode=2"):
        cm = _disagg(roles).run(LOAD)
        ttfts.append(sorted(tr.ttft for m in cm.replicas for tr in m.traces))
    assert len(ttfts[0]) == len(LOAD)
    assert ttfts[0] == ttfts[1]


@pytest.mark.parametrize("shape", ["colocated", "disagg-crash", "disagg-failover"])
def test_replica_order_within_a_stage_is_immaterial(shape, monkeypatch):
    def build():
        if shape == "colocated":
            return ClusterEngine.from_config(
                ClusterConfig(dp=3, router="least-loaded", engine=ENGINE)
            )
        return ClusterEngine.from_config(
            ClusterConfig(
                dp=4, roles="prefill=2,decode=2", engine=ENGINE,
                failover=FailoverConfig() if shape == "disagg-failover" else None,
            ),
            replica_failures={0: ReplicaFailure(6, "crash")},
        )

    forward = build().run(LOAD)
    stages = ClusterEngine._stages
    visited = []

    def backwards(self):
        order = [list(reversed(stage)) for stage in stages(self)]
        visited.extend(order)
        return order

    monkeypatch.setattr(ClusterEngine, "_stages", backwards)
    backward = build().run(LOAD)
    assert visited and all(len(stage) > 1 for stage in visited)
    assert _streams(backward) == _streams(forward)
    assert [m.total_time for m in backward.replicas] == [
        m.total_time for m in forward.replicas
    ]
    if shape == "disagg-crash":
        assert forward.crash_reports[0].crashes == 1
    if shape == "disagg-failover":
        assert forward.failover.summary()["failover_migrations"] == 1.0
        assert backward.failover.summary() == forward.failover.summary()


# -- the one life loop -----------------------------------------------------------

KILLS = ((3, "boundary"), (7, "mid-step"))
ENGINE_CFG = EngineConfig(max_running=64)


def _dp1(script):
    return ClusterEngine.from_config(
        ClusterConfig(dp=1, engine=ENGINE_CFG),
        replica_failures={
            0: [ReplicaFailure(step, "crash", phase) for step, phase in script]
        },
    )


def test_harness_and_cluster_replica_share_one_life_loop():
    requests = sharegpt_workload(4, rate=120.0, seed=6)
    store = CheckpointStore()
    harness = CrashHarness(
        lambda: ServingEngine.from_config(
            ENGINE_CFG, resilience=ResilienceConfig(),
            # The cadence a scripted cluster replica defaults to.
            checkpoint=CheckpointConfig(every_steps=4), checkpoint_store=store,
        ),
        assign_rids(requests), store, crash_script=KILLS,
    ).run()
    cm = _dp1(KILLS).run(requests)
    cluster = cm.crash_reports[0]
    assert cluster.crash_phases == harness.crash_phases == ["boundary", "mid-step"]
    assert (cluster.crashes, cluster.recoveries) == (harness.crashes, harness.recoveries)
    assert [t.tokens for t in cluster.metrics.traces] == [
        t.tokens for t in harness.metrics.traces
    ]
    assert cm.total_time == harness.metrics.total_time
    assert (cluster.token_divergence, cluster.compared) == (
        harness.token_divergence, harness.compared,
    )


def test_cluster_replica_inherits_the_livelock_guard():
    # 26 scripted kills against the life loop's max_crashes of 25.
    script = [(k, phase) for k in range(1, 14) for phase in ("boundary", "mid-step")]
    with pytest.raises(RuntimeError, match="kill/restore livelock"):
        _dp1(script).run(sharegpt_workload(4, rate=120.0, seed=6))

"""The cluster run is a DAG evaluated in dependency order (``route →
prefill pool → wire → decode pool``), and a replica is one life loop.

The first two tests pin the model that makes sequential evaluation exact:
TTFT is decided inside the prefill stage and the decode pool cannot reach
back into it.  The third pins that replicas of one stage are independent
of each other.  The last two pin ``run_lives`` as the single life loop
of a single engine and of ``ClusterEngine._run_replica``, livelock guard
included.
"""

import pytest

from conftest import crash_phases, restores
from repro.cluster import (
    ClusterConfig,
    ClusterEngine,
    FailoverConfig,
    ReplicaFailure,
    assign_rids,
    parse_roles,
)
from repro.faults import ResilienceConfig
from repro.gpu import H100_80G
from repro.serving import (
    LLAMA_3_1_8B,
    CheckpointConfig,
    CheckpointStore,
    EngineConfig,
    ServingEngine,
    mixed_disagg_workload,
    run_lives,
    sharegpt_workload,
)

ENGINE = EngineConfig(max_running=64, chunked_prefill=True, num_pool_pages=4096)
LOAD = mixed_disagg_workload(24, 60.0, seed=0)


def _disagg(roles):
    dp = sum(len(pool) for pool in parse_roles(roles))
    return ClusterEngine(LLAMA_3_1_8B, H100_80G, ClusterConfig(dp=dp, roles=roles, engine=ENGINE))


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


@pytest.fixture(scope="module")
def two_by_two():
    """``(cluster, metrics)`` of LOAD at prefill=2,decode=2, read by two tests."""
    cluster = _disagg("prefill=2,decode=2")
    return cluster, cluster.run(LOAD)


def test_ttft_is_decided_inside_the_prefill_stage(two_by_two):
    cluster, cm = two_by_two
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


def test_prefill_stage_cannot_see_the_decode_pool(two_by_two):
    ttfts = [
        sorted(tr.ttft for m in cm.replicas for tr in m.traces)
        for cm in (_disagg("prefill=2,decode=1").run(LOAD), two_by_two[1])
    ]
    assert len(ttfts[0]) == len(LOAD)
    assert ttfts[0] == ttfts[1]


@pytest.mark.parametrize("shape", ["colocated", "disagg-crash", "disagg-failover"])
def test_replica_order_within_a_stage_is_immaterial(shape, monkeypatch):
    def build():
        if shape == "colocated":
            return ClusterEngine(
                LLAMA_3_1_8B, H100_80G, ClusterConfig(dp=3, router="least-loaded", engine=ENGINE)
            )
        return ClusterEngine(
            LLAMA_3_1_8B, H100_80G,
            ClusterConfig(
                dp=4, roles="prefill=2,decode=2", engine=ENGINE,
                failover=FailoverConfig() if shape == "disagg-failover" else None,
            ),
            replica_failures={0: ReplicaFailure(6, "crash")}, trace=True,
        )

    engine = build()
    forward = engine.run(LOAD)
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
        # Recovered in place, from its own snapshot.
        assert forward.failover is None
        assert restores(engine.tracers[0].fault_events) == 1
    if shape == "disagg-failover":
        assert len(forward.failover.migrations) == 1
        assert backward.failover.summary() == forward.failover.summary()


# -- the one life loop -----------------------------------------------------------

KILLS = ((3, "boundary"), (7, "mid-step"))
ENGINE_CFG = EngineConfig(max_running=64)


def _dp1(script):
    return ClusterEngine(
        LLAMA_3_1_8B, H100_80G, ClusterConfig(dp=1, engine=ENGINE_CFG),
        replica_failures={
            0: [ReplicaFailure(step, "crash", phase) for step, phase in script]
        },
        trace=True,
    )


def test_engine_and_cluster_replica_share_one_life_loop():
    requests = sharegpt_workload(4, rate=120.0, seed=6)
    store = CheckpointStore()
    harness, phases = run_lives(
        lambda: ServingEngine.from_config(
            ENGINE_CFG, resilience=ResilienceConfig(),
            # The cadence a scripted cluster replica defaults to.
            checkpoint=CheckpointConfig(every_steps=4), checkpoint_store=store,
        ),
        assign_rids(requests), store, script=KILLS,
    )
    engine = _dp1(KILLS)
    cm = engine.run(requests)
    cluster = cm.replicas[0]
    assert crash_phases(engine.tracers[0].fault_events) == phases == ["boundary", "mid-step"]
    assert [t.tokens for t in cluster.traces] == [t.tokens for t in harness.traces]
    assert cm.total_time == harness.total_time
    # The journal replay checked the same tokens, with the same outcome.
    replay = ("recover_token_divergence", "recover_replayed_tokens")
    assert [cluster.fault_stats[k] for k in replay] == [harness.fault_stats[k] for k in replay]


def test_cluster_replica_inherits_the_livelock_guard():
    # 26 scripted kills against the life loop's MAX_CRASHES of 25.
    script = [(k, phase) for k in range(1, 14) for phase in ("boundary", "mid-step")]
    with pytest.raises(RuntimeError, match="kill/restore livelock"):
        _dp1(script).run(sharegpt_workload(4, rate=120.0, seed=6))

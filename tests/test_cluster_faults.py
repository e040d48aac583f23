"""Cluster fault injection: link degradation, replica crash recovery,
and the checkpoint world-shape guard."""

import pytest

from conftest import crash_phases, restores
from repro.cluster import (
    ClusterConfig,
    ClusterEngine,
    ReplicaFailure,
    expected_tokens,
)
from repro.core import HeadConfig
from repro.gpu import H100_80G
from repro.serving import (
    CheckpointConfig,
    CheckpointStore,
    EngineConfig,
    FlashInferBackend,
    LLAMA_3_1_8B,
    RecoveryManager,
    ServingEngine,
    WorldMismatchError,
    sharegpt_workload,
)

MODEL = LLAMA_3_1_8B


def _engine(store=None, tensor_parallel=1, every=2):
    heads = HeadConfig(
        MODEL.num_qo_heads // tensor_parallel,
        max(MODEL.num_kv_heads // tensor_parallel, 1),
        MODEL.head_dim,
    )
    return ServingEngine(
        MODEL, FlashInferBackend(heads, H100_80G), H100_80G,
        EngineConfig(max_running=64, tensor_parallel=tensor_parallel),
        checkpoint=CheckpointConfig(every_steps=every),
        checkpoint_store=store,
    )


def _degraded(cfg, *windows):
    """A cluster whose topology derates the link over each
    ``(t_start, t_end, factor)`` window."""
    engine = ClusterEngine(MODEL, H100_80G, cfg)
    for t0, t1, factor in windows:
        engine.topology.degrade(t0, t1, factor)
    return engine


LINK_CFG = ClusterConfig(tp=2, engine=EngineConfig(max_running=64))


@pytest.fixture(scope="module")
def link_runs():
    """``(requests, healthy, degraded)``: one tp=2 trace, served on a healthy
    interconnect and on one derated to 10% for the entire run window."""
    requests = sharegpt_workload(6, rate=60.0, seed=3)
    healthy = ClusterEngine(MODEL, H100_80G, LINK_CFG).run(requests)
    degraded = _degraded(LINK_CFG, (0.0, 1e6, 0.1)).run(requests)
    return requests, healthy, degraded


def test_link_degradation_slows_the_cluster(link_runs):
    _, healthy, degraded = link_runs
    assert degraded.total_time > healthy.total_time
    assert degraded.summary()["link_degradations"] == 1.0


def test_link_degradation_window_only_slows_covered_steps(link_runs):
    requests, healthy, degraded = link_runs
    # A window entirely after the run changes nothing.
    after = _degraded(
        LINK_CFG, (healthy.total_time + 1.0, healthy.total_time + 2.0, 0.1)
    ).run(requests)
    assert after.total_time == pytest.approx(healthy.total_time)
    # Degradation moves time only: tokens stay identical.
    healthy_tokens = [t.tokens for m in healthy.replicas for t in m.traces]
    degraded_tokens = [t.tokens for m in degraded.replicas for t in m.traces]
    assert healthy_tokens == degraded_tokens


def test_replica_crash_recovers_token_exact():
    requests = sharegpt_workload(8, rate=120.0, seed=6)
    cluster = ClusterEngine(
        MODEL, H100_80G,
        ClusterConfig(dp=2, router="round-robin",
                      engine=EngineConfig(max_running=64),
                      checkpoint_every=3),
        replica_failures={0: [ReplicaFailure(3, "crash", "boundary"),
                              ReplicaFailure(7, "crash", "mid-step")]},
        trace=True,
    )
    cm = cluster.run(requests)
    events = [tracer.fault_events for tracer in cluster.tracers]
    assert crash_phases(events[0]) == ["boundary", "mid-step"]
    assert restores(events[0]) == 2
    assert crash_phases(events[1]) == [] and restores(events[1]) == 0
    divergent, compared = cm.token_divergence(expected_tokens(requests))
    assert (divergent, compared) == (0, 8)


@pytest.fixture(scope="module")
def snapshot_store():
    """The checkpoint store of one finished tp=1 engine run; the tests
    below only read it."""
    store = CheckpointStore()
    _engine(store).run(sharegpt_workload(4, rate=50.0, seed=1))
    return store


def test_snapshots_carry_the_world_shape(snapshot_store):
    store = snapshot_store
    sid = store.latest_snapshot_id()
    assert sid is not None
    snap = store.load_snapshot(sid)
    assert snap["world"] == {"tp": 1, "dp": 1, "replica": 0}


def test_recovery_refuses_a_mismatched_cluster_shape(snapshot_store):
    store = snapshot_store
    with pytest.raises(WorldMismatchError, match="tp"):
        RecoveryManager(store, expected_world={"tp": 2}).recover()
    with pytest.raises(WorldMismatchError, match="dp"):
        RecoveryManager(store, expected_world={"tp": 1, "dp": 4}).recover()
    # The matching shape recovers fine.
    recovered = RecoveryManager(
        store, expected_world={"tp": 1, "dp": 1}
    ).recover()
    assert recovered.snapshot["world"]["tp"] == 1


def test_resume_refuses_a_mismatched_engine_shape(snapshot_store):
    store = snapshot_store
    recovered = RecoveryManager(store).recover()
    # Rebuilding the engine at tp=2 must refuse the tp=1 snapshot even
    # when the recovery manager was not told what shape to expect.
    with pytest.raises(WorldMismatchError, match="tp"):
        _engine(store, tensor_parallel=2).resume(recovered)

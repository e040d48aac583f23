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


def test_link_degradation_slows_the_cluster():
    requests = sharegpt_workload(6, rate=60.0, seed=3)
    cfg = ClusterConfig(tp=2, engine=EngineConfig(max_running=64))
    healthy = ClusterEngine(MODEL, H100_80G, cfg).run(requests)
    # Derate the interconnect to 10% for the entire run window.
    degraded = _degraded(cfg, (0.0, 1e6, 0.1)).run(requests)
    assert degraded.total_time > healthy.total_time
    assert degraded.summary()["link_degradations"] == 1.0


def test_link_degradation_window_only_slows_covered_steps():
    requests = sharegpt_workload(6, rate=60.0, seed=3)
    cfg = ClusterConfig(tp=2, engine=EngineConfig(max_running=64))
    healthy = ClusterEngine(MODEL, H100_80G, cfg).run(requests)
    # A window entirely after the run changes nothing.
    after = _degraded(
        cfg, (healthy.total_time + 1.0, healthy.total_time + 2.0, 0.1)
    ).run(requests)
    assert after.total_time == pytest.approx(healthy.total_time)
    # Degradation moves time only: tokens stay identical.
    degraded = _degraded(cfg, (0.0, 1e6, 0.1)).run(requests)
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
    reference = cluster.run_reference(requests)
    cm = cluster.run(requests)
    events = [tracer.fault_events for tracer in cluster.tracers]
    assert crash_phases(events[0]) == ["boundary", "mid-step"]
    assert restores(events[0]) == 2
    assert crash_phases(events[1]) == [] and restores(events[1]) == 0
    divergent, compared = cm.token_divergence(expected_tokens(reference))
    assert (divergent, compared) == (0, 8)


def test_snapshots_carry_the_world_shape():
    store = CheckpointStore()
    _engine(store).run(sharegpt_workload(4, rate=50.0, seed=1))
    sid = store.latest_snapshot_id()
    assert sid is not None
    snap = store.load_snapshot(sid)
    assert snap["world"] == {"tp": 1, "dp": 1, "replica": 0}


def test_recovery_refuses_a_mismatched_cluster_shape():
    store = CheckpointStore()
    requests = sharegpt_workload(4, rate=50.0, seed=1)
    _engine(store).run(requests)
    with pytest.raises(WorldMismatchError, match="tp"):
        RecoveryManager(store, expected_world={"tp": 2}).recover()
    with pytest.raises(WorldMismatchError, match="dp"):
        RecoveryManager(store, expected_world={"tp": 1, "dp": 4}).recover()
    # The matching shape recovers fine.
    recovered = RecoveryManager(
        store, expected_world={"tp": 1, "dp": 1}
    ).recover()
    assert recovered.snapshot["world"]["tp"] == 1


def test_resume_refuses_a_mismatched_engine_shape():
    store = CheckpointStore()
    requests = sharegpt_workload(4, rate=50.0, seed=1)
    _engine(store).run(requests)
    recovered = RecoveryManager(store).recover()
    # Rebuilding the engine at tp=2 must refuse the tp=1 snapshot even
    # when the recovery manager was not told what shape to expect.
    with pytest.raises(WorldMismatchError, match="tp"):
        _engine(store, tensor_parallel=2).resume(recovered)

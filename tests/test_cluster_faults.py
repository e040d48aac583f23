"""Cluster fault injection: replica crash recovery and the checkpoint
world-shape guard."""

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

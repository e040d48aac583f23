"""Tensor parallelism: sharding plans, interconnect pricing, token-exactness."""

import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterEngine,
    TPInterconnect,
    Topology,
    expected_tokens,
    plan_tp_sharding,
)
from repro.gpu import H100_80G
from repro.serving import EngineConfig, LLAMA_3_1_8B, VICUNA_13B, sharegpt_workload

MODEL = LLAMA_3_1_8B


def test_plan_tp_sharding_shapes():
    plan = plan_tp_sharding(MODEL, 2)
    assert plan.shard_heads.num_qo_heads == 16
    assert plan.shard_heads.num_kv_heads == 4
    assert plan.shard_heads.head_dim == MODEL.head_dim
    assert plan.kv_replication == 1
    plan4 = plan_tp_sharding(MODEL, 4)
    assert plan4.shard_heads.num_qo_heads == 8
    assert plan4.shard_heads.num_kv_heads == 2
    # Per-shard KV heads shrink with tp — the capacity win TP buys.
    assert plan4.shard_heads.num_kv_heads * 2 == plan.shard_heads.num_kv_heads


def test_plan_tp_sharding_gqa_over_sharding_replicates_kv():
    # tp beyond the model's 8 KV heads: each shard keeps one replicated
    # KV head (the GQA over-sharding case).
    plan = plan_tp_sharding(MODEL, 16)
    assert plan.shard_heads.num_qo_heads == 2
    assert plan.shard_heads.num_kv_heads == 1
    assert plan.kv_replication == 2


def test_plan_tp_sharding_at_the_kv_head_count_replicates_nothing():
    # tp equal to the 8 KV heads: one KV head per shard, none copied.
    plan = plan_tp_sharding(MODEL, 8)
    assert (plan.shard_heads.num_qo_heads, plan.shard_heads.num_kv_heads) == (4, 1)
    assert plan.kv_replication == 1


def test_plan_tp_sharding_one_query_head_per_shard():
    # tp equal to the 32 QO heads: every KV head is held by 4 shards.
    plan = plan_tp_sharding(MODEL, 32)
    assert (plan.shard_heads.num_qo_heads, plan.shard_heads.num_kv_heads) == (1, 1)
    assert plan.kv_replication == 4
    with pytest.raises(ValueError, match="must divide"):
        plan_tp_sharding(MODEL, 64)


def test_plan_tp_sharding_of_an_mha_model():
    # Vicuna-13B has 40 QO and 40 KV heads: tp splits both alike.
    plan = plan_tp_sharding(VICUNA_13B, 4)
    assert (plan.shard_heads.num_qo_heads, plan.shard_heads.num_kv_heads) == (10, 10)
    assert plan.kv_replication == 1
    with pytest.raises(ValueError, match="num_qo_heads=40"):
        plan_tp_sharding(VICUNA_13B, 3)


def test_plan_tp_sharding_validation():
    with pytest.raises(ValueError, match="must divide"):
        plan_tp_sharding(MODEL, 3)
    with pytest.raises(ValueError, match=">= 1"):
        plan_tp_sharding(MODEL, 0)


def test_interconnect_pricing_and_charging():
    topo = Topology.preset("nvlink", world=4)
    ic = TPInterconnect(topo, MODEL, 4)
    per_layer = ic.allreduce_per_layer(num_tokens=64)
    assert per_layer == pytest.approx(
        2.0 * topo.all_reduce_time(
            64.0 * MODEL.hidden_size * MODEL.dtype_bytes, 4
        )
    )
    ic.charge_step(num_tokens=64)
    # One step charges both all-reduces of every layer.
    assert topo.busy_seconds["all_reduce"] == pytest.approx(
        MODEL.num_layers * per_layer
    )
    assert topo.link_stats()["link_all_reduce_bytes"] > 0.0
    with pytest.raises(ValueError, match="exceeds topology world"):
        TPInterconnect(Topology.preset("nvlink", world=2), MODEL, 4)


def test_interconnect_trivial_group_is_free():
    topo = Topology.preset("nvlink", world=2)
    ic = TPInterconnect(topo, MODEL, 1)
    assert ic.allreduce_per_layer(64) == 0.0
    ic.charge_step(64)
    assert topo.total_traffic_bytes == 0.0


@pytest.fixture(scope="module")
def tp_runs():
    """``(requests, single-GPU reference, {tp: metrics})`` of one trace at tp = 1, 2, 4."""
    requests = sharegpt_workload(8, rate=80.0, seed=5)
    clusters = {
        tp: ClusterEngine(MODEL, H100_80G,
                          ClusterConfig(tp=tp, engine=EngineConfig(max_running=64)))
        for tp in (1, 2, 4)
    }
    reference = clusters[2].run_reference(requests)
    return requests, reference, {tp: c.run(requests) for tp, c in clusters.items()}


@pytest.mark.parametrize("tp", [2, 4])
def test_tp_token_exact_vs_single_gpu(tp, tp_runs):
    requests, reference, runs = tp_runs
    cm = runs[tp]
    divergent, compared = cm.token_divergence(expected_tokens(requests))
    assert compared == 8
    assert divergent == 0
    # Sharding the GEMMs makes the run strictly faster despite paying for
    # the all-reduces on the wire.
    assert cm.total_time < reference.total_time
    assert cm.topology.total_traffic_bytes > 0.0
    assert "link_all_reduce_bytes" in cm.summary()


def test_tp_speedup_is_monotone_but_sublinear(tp_runs):
    makespans = {tp: cm.total_time for tp, cm in tp_runs[2].items()}
    assert makespans[2] < makespans[1]
    assert makespans[4] < makespans[2]
    # All-reduce cost keeps the scaling sublinear.
    assert makespans[1] / makespans[4] < 4.0


def test_cluster_engine_rejects_bad_shapes():
    with pytest.raises(ValueError, match="must divide"):
        ClusterEngine(MODEL, H100_80G, ClusterConfig(tp=3))
    with pytest.raises(ValueError, match=">= 1"):
        ClusterEngine(MODEL, H100_80G, ClusterConfig(dp=0))
    with pytest.raises(ValueError, match="unknown topology"):
        ClusterEngine(MODEL, H100_80G, ClusterConfig(topology="token-ring"))
    with pytest.raises(ValueError, match="unknown routing policy"):
        ClusterEngine(MODEL, H100_80G, ClusterConfig(router="dartboard"))

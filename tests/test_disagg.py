"""Disaggregated prefill/decode serving: role pools, live KV handoff over
priced links, token-exact decode resumption, and composition with the
prefix cache, failover and checkpointing."""

import numpy as np
import pytest

from conftest import crash_phases
from repro.cluster import (
    ClusterConfig,
    ClusterEngine,
    DisaggPolicy,
    FailoverConfig,
    MigrationChecksumError,
    MigrationError,
    ReplicaFailure,
    expected_tokens,
    parse_roles,
)
from repro.faults import FaultPlan
from repro.gpu import H100_80G
from repro.serving import (
    MIXED_LONG_PROMPT_THRESHOLD,
    EngineConfig,
    LLAMA_3_1_8B,
    RequestTrace,
    ServingMetrics,
    mixed_disagg_workload,
    shared_prefix_workload,
)

MODEL = LLAMA_3_1_8B


def _cluster(roles="prefill=1,decode=1", dp=2, engine=None, **kwargs):
    return ClusterEngine(
        MODEL, H100_80G,
        ClusterConfig(dp=dp, roles=roles,
                      engine=engine or EngineConfig(max_running=64),
                      **{k: kwargs.pop(k) for k in list(kwargs)
                         if k in ("failover", "topology", "checkpoint_every")}),
        **kwargs,
    )


def _workload(n=10, rate=120.0, seed=3):
    return mixed_disagg_workload(n, rate, seed=seed)


# -- role parsing --------------------------------------------------------------


def test_parse_roles_spellings_agree():
    want = ((0,), (1, 2))
    assert parse_roles("prefill=1,decode=2", 3) == want
    assert parse_roles({"prefill": 1, "decode": 2}, 3) == want
    assert parse_roles({"prefill": [0], "decode": [1, 2]}, 3) == want
    # Explicit ids don't have to be contiguous.
    assert parse_roles({"prefill": [1], "decode": [0, 2]}, 3) == ((1,), (0, 2))


@pytest.mark.parametrize("roles, dp, match", [
    ("prefill=2,decode=2", 3, "dp=3"),
    ("prefill=0,decode=3", 3, "at least one"),
    ({"prefill": [0, 1], "decode": [1, 2]}, 3, "overlap"),
    ({"prefill": [0], "decode": [2]}, 3, "cover every replica"),
    ({"prefill": [], "decode": [0, 1]}, 2, "at least one"),
    ("prefill=1;decode=1", 2, "bad roles spec"),
    ({"prefill": 1, "dekode": 1}, 2, "exactly the"),
])
def test_parse_roles_rejects_bad_specs(roles, dp, match):
    with pytest.raises(ValueError, match=match):
        parse_roles(roles, dp)


# -- routing policy ------------------------------------------------------------


def test_disagg_policy_routes_prefill_and_pairs_decode():
    p = DisaggPolicy()
    p.reset(4)
    p.bind_roles((0, 1), (2, 3))
    loads = [5.0, 1.0, 7.0, 2.0]
    # Prompt placement: least-loaded within the prefill pool only.
    assert p.route(None, 0.0, loads) == 1
    assert p.choose(None, 0.0, loads) == 1
    # KV pairing: least-loaded within the decode pool only.
    assert p.pair(None, 0.0, loads) == 3


def test_disagg_policy_respects_health_mask():
    p = DisaggPolicy()
    p.reset(4)
    p.bind_roles((0, 1), (2, 3))
    loads = [5.0, 1.0, 7.0, 2.0]
    healthy = [True, False, True, False]
    assert p.route(None, 0.0, loads, healthy) == 0
    assert p.pair(None, 0.0, loads, healthy) == 2
    # Whole pool unhealthy: fall back to the pool, never the other role.
    assert p.route(None, 0.0, loads, [False, False, True, True]) == 1
    assert p.pair(None, 0.0, loads, [True, True, False, False]) == 3


def test_disagg_policy_requires_bound_roles():
    p = DisaggPolicy()
    p.reset(2)
    with pytest.raises(ValueError, match="bind_roles"):
        p.route(None, 0.0, [0.0, 0.0])
    with pytest.raises(ValueError, match="bind_roles"):
        p.pair(None, 0.0, [0.0, 0.0])


def test_cluster_validates_router_role_combinations():
    engine = EngineConfig(max_running=64)
    # roles + default router auto-upgrades to the disagg policy.
    cluster = _cluster()
    assert cluster.router.name == "disagg"
    assert cluster.roles == ((0,), (1,))
    # roles + an incompatible explicit router refuses.
    with pytest.raises(ValueError, match="disagg"):
        ClusterEngine(
            MODEL, H100_80G,
            ClusterConfig(dp=2, roles="prefill=1,decode=1",
                          router="least-loaded", engine=engine),
        )
    # The disagg router without roles refuses too.
    with pytest.raises(ValueError, match="roles"):
        ClusterEngine(
            MODEL, H100_80G,
            ClusterConfig(dp=2, router="disagg", engine=engine),
        )


# -- end-to-end token exactness ------------------------------------------------


def test_disagg_is_token_exact_with_nonzero_handoff_traffic():
    requests = _workload()
    cluster = _cluster()
    reference = cluster.run_reference(requests)
    cm = cluster.run(requests)
    divergent, compared = cm.token_divergence(expected_tokens(reference))
    assert (divergent, compared) == (0, len(requests))
    s = cm.summary()
    # Every request's KV crossed the wire as priced handoff traffic.
    assert s["handoff_requests"] == float(len(requests))
    assert s["handoff_pages"] > 0
    assert s["handoff_chunks"] >= s["handoff_requests"]
    assert s["handoff_bytes"] > 0
    assert s["handoff_retries"] == 0
    assert s["link_handoff_bytes"] == pytest.approx(s["handoff_bytes"])
    assert s["handoff_transfer_s"] > 0
    # The decode pool served every stream; the prefill pool decoded none.
    assert s["replica0_requests"] == 0.0
    assert s["replica1_requests"] == float(len(requests))
    # Percentile roll-ups ride along on cluster summaries (satellite 2).
    for key in ("cluster_p50_ttft", "cluster_p95_ttft", "cluster_p99_ttft",
                "cluster_p50_itl", "cluster_p95_itl", "cluster_p99_itl"):
        assert np.isfinite(s[key])


def test_disagg_scales_to_wider_pools():
    requests = _workload(n=14, seed=9)
    cluster = _cluster(roles="prefill=2,decode=2", dp=4)
    reference = cluster.run_reference(requests)
    cm = cluster.run(requests)
    divergent, compared = cm.token_divergence(expected_tokens(reference))
    assert (divergent, compared) == (0, len(requests))
    s = cm.summary()
    # Both decode replicas took streams (least-loaded pairing spreads).
    assert s["replica2_requests"] > 0
    assert s["replica3_requests"] > 0
    assert s["replica0_requests"] == s["replica1_requests"] == 0.0


def test_disagg_chunked_prefill_stays_token_exact():
    requests = _workload(n=8, seed=5)
    engine = EngineConfig(max_running=64, chunked_prefill=True,
                          composable=True, prefill_chunk_size=256)
    cluster = _cluster(engine=engine)
    reference = cluster.run_reference(requests)
    cm = cluster.run(requests)
    divergent, compared = cm.token_divergence(expected_tokens(reference))
    assert (divergent, compared) == (0, len(requests))


def test_disagg_without_roles_is_inert():
    requests = _workload(n=6, seed=2)
    cluster = ClusterEngine(
        MODEL, H100_80G,
        ClusterConfig(dp=2, router="least-loaded",
                      engine=EngineConfig(max_running=64)),
    )
    cm = cluster.run(requests)
    s = cm.summary()
    # No role pools → no handoff keys, no disagg counters, plain router.
    assert cluster.roles is None
    assert not any(k.startswith(("handoff_", "disagg_")) for k in s)
    assert "link_handoff_bytes" not in s


# -- link faults and tamper ----------------------------------------------------


def test_handoff_retries_link_faults_and_stays_exact():
    requests = _workload(n=8, seed=4)
    cluster = _cluster(
        fault_plan=FaultPlan(schedules={"link": [0, 1]}),
    )
    reference = cluster.run_reference(requests)
    cm = cluster.run(requests)
    divergent, compared = cm.token_divergence(expected_tokens(reference))
    assert (divergent, compared) == (0, len(requests))
    s = cm.summary()
    # The first chunk's two faulted attempts retried with backoff; the
    # wasted attempts still show up as link traffic beyond the payload.
    assert s["handoff_retries"] == 2.0
    assert s["link_handoff_bytes"] > s["handoff_bytes"]


def test_handoff_exhausted_retries_raise():
    requests = _workload(n=4, seed=4)
    cluster = _cluster(
        failover=FailoverConfig(max_retries=2),
        fault_plan=FaultPlan(schedules={"link": range(64)}),
    )
    with pytest.raises(MigrationError, match="handoff .*all 3 transfer"):
        cluster.run(requests)


def test_handoff_refuses_checksum_tamper():
    requests = _workload(n=4, seed=4)
    cluster = _cluster()
    cluster._corrupt_handoffs = [0]
    with pytest.raises(MigrationChecksumError, match="refusing to import"):
        cluster.run(requests)


# -- composition: prefix cache, failover, checkpoints --------------------------


def test_prefix_cache_hits_skip_already_shipped_pages():
    requests = shared_prefix_workload(12, 150.0, seed=6)
    engine = EngineConfig(max_running=64, chunked_prefill=True,
                          composable=True, prefix_cache=True)
    cluster = _cluster(engine=engine)
    reference = cluster.run_reference(requests)
    cm = cluster.run(requests)
    divergent, compared = cm.token_divergence(expected_tokens(reference))
    assert divergent == 0 and compared == len(requests)
    s = cm.summary()
    # Later handoffs of an already-shipped prefix group ship only the
    # suffix pages: the radix tree on the decode side holds the rest.
    assert s["handoff_pages_skipped"] > 0
    assert s["handoff_requests"] == float(len(requests))


def test_prefill_replica_failover_keeps_handoffs_token_exact():
    requests = _workload(n=10, seed=7)
    cluster = _cluster(
        roles="prefill=2,decode=1", dp=3,
        failover=FailoverConfig(),
        replica_failures={0: ReplicaFailure(3, "crash")},
    )
    reference = cluster.run_reference(requests)
    cm = cluster.run(requests)
    divergent, compared = cm.token_divergence(expected_tokens(reference))
    assert (divergent, compared) == (0, len(requests))
    s = cm.summary()
    assert s["handoff_requests"] == float(len(requests))
    # The takeover stayed inside the prefill pool: replica 1 (not the
    # decode replica) carried the dead replica's work.
    assert cm.failover is not None
    for m in cm.failover.migrations:
        assert m.target == 1


def test_prefill_replica_crash_harness_dedups_refired_handoffs():
    requests = _workload(n=8, seed=8)
    cluster = _cluster(
        checkpoint_every=3,
        replica_failures={0: ReplicaFailure(3, "crash", "boundary")}, trace=True,
    )
    reference = cluster.run_reference(requests)
    cm = cluster.run(requests)
    divergent, compared = cm.token_divergence(expected_tokens(reference))
    assert (divergent, compared) == (0, len(requests))
    s = cm.summary()
    # Re-executed spawns after the restore dedup by (rid, gen): every
    # request still ships exactly once.
    assert s["handoff_requests"] == float(len(requests))
    assert crash_phases(cluster.tracers[0].fault_events) == ["boundary"]


def test_world_carries_role_only_when_set():
    from repro.core import HeadConfig
    from repro.serving import FlashInferBackend, ServingEngine

    heads = HeadConfig(MODEL.num_qo_heads, MODEL.num_kv_heads, MODEL.head_dim)
    engine = ServingEngine(
        MODEL, FlashInferBackend(heads, H100_80G), H100_80G,
        EngineConfig(max_running=8),
    )
    # Plain engines keep the exact pre-disagg world shape.
    assert engine.world == {"tp": 1, "dp": 1, "replica": 0}
    engine.role = "prefill"
    assert engine.world == {"tp": 1, "dp": 1, "replica": 0, "role": "prefill"}


# -- percentile metrics (satellite 2) ------------------------------------------


def test_serving_metrics_percentiles_are_numpy_percentiles():
    m = ServingMetrics(total_time=1.0)
    for i in range(20):
        m.add(RequestTrace(
            arrival=0.0, first_token_time=0.01 * (i + 1),
            token_times=[0.01 * (i + 1) + 0.002 * (j + 1) for j in range(5)],
            req_id=i,
        ))
    ttfts = np.asarray([t.ttft for t in m.traces])
    itls = np.concatenate([t.itls for t in m.traces])
    for q in (50, 95, 99):
        assert m.ttft_percentile(q) == pytest.approx(np.percentile(ttfts, q))
        assert m.itl_percentile(q) == pytest.approx(np.percentile(itls, q))
    s = m.summary()
    assert s["median_ttft"] == pytest.approx(m.ttft_percentile(50))
    assert s["median_itl"] == pytest.approx(m.itl_percentile(50))
    assert s["p99_ttft"] == pytest.approx(m.ttft_percentile(99))


def test_workload_classes_recoverable_from_prompt_len():
    requests = _workload(n=64, seed=1)
    short = [r for r in requests if r.prompt_len < MIXED_LONG_PROMPT_THRESHOLD]
    long_ = [r for r in requests if r.prompt_len >= MIXED_LONG_PROMPT_THRESHOLD]
    assert short and long_
    assert max(r.prompt_len for r in short) <= 128
    assert min(r.prompt_len for r in long_) >= 2048
    with pytest.raises(ValueError, match="straddle"):
        mixed_disagg_workload(4, 10.0, chatty_prompt_hi=600)


# -- CLI smoke (the disagg-smoke CI contract) ----------------------------------


def test_cli_serve_disagg_prints_greppable_counters(capsys):
    from repro.__main__ import main

    rc = main([
        "serve", "--disagg", "prefill=1,decode=1",
        "--requests", "8", "--rate", "80", "--seed", "3",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "token_divergence=0 " in out
    assert "handoff_pages=" in out and "handoff_pages=0" not in out
    assert "link_handoff_bytes=" in out
    assert "p95_itl=" in out and "p95_ttft=" in out

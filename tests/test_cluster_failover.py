"""Cluster failover: health state machine, heartbeat detection, live KV
migration over priced links, and token-exact takeover."""

import numpy as np
import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterEngine,
    FailoverConfig,
    FailureDetector,
    HealthSchedule,
    IllegalTransitionError,
    KVMigrator,
    MigrationChecksumError,
    MigrationError,
    ReplicaFailure,
    ReplicaHealth,
    expected_tokens,
)
from repro.cluster.topology import Topology
from repro.faults import FaultPlan
from repro.gpu import H100_80G
from repro.kvcache import PagedKVCache
from repro.serving import EngineConfig, LLAMA_3_1_8B, sharegpt_workload

MODEL = LLAMA_3_1_8B


def _cluster(dp=2, failover=None, **kwargs):
    return ClusterEngine(
        MODEL, H100_80G,
        ClusterConfig(dp=dp, router="least-loaded",
                      engine=EngineConfig(max_running=64),
                      failover=failover),
        **kwargs,
    )


# -- health state machine ------------------------------------------------------


def test_health_state_machine_legal_path():
    h = ReplicaHealth(0)
    for state, t in [("suspected", 1.0), ("dead", 2.0),
                     ("recovering", 3.0), ("rejoined", 4.0)]:
        h.to(state, t)
    assert h.state == "rejoined"
    assert [tr.to for tr in h.transitions] == [
        "suspected", "dead", "recovering", "rejoined",
    ]
    assert [tr.t for tr in h.transitions] == [1.0, 2.0, 3.0, 4.0]


def test_health_state_machine_rejects_illegal_edges():
    h = ReplicaHealth(0)
    with pytest.raises(IllegalTransitionError, match="healthy -> dead"):
        h.to("dead", 1.0)
    h.to("suspected", 1.0)
    h.to("dead", 2.0)
    # Dead must pass through recovery before serving again.
    with pytest.raises(IllegalTransitionError, match="dead -> healthy"):
        h.to("healthy", 3.0)
    with pytest.raises(IllegalTransitionError, match="unknown health state"):
        h.to("zombie", 3.0)


def test_detector_backdates_timeouts_deterministically():
    cfg = FailoverConfig(heartbeat_interval=0.01, suspect_after=2, dead_after=4)
    det = FailureDetector(2, cfg)
    det.heartbeat(0, 0.05)
    det.heartbeat(1, 0.05)
    # Poll far past both deadlines: the transitions are stamped at the
    # exact deadlines, not the polling time.
    fired = det.advance(10.0, replicas=[0])
    assert [(tr.to, tr.t) for tr in fired] == [
        ("suspected", pytest.approx(0.07)), ("dead", pytest.approx(0.09)),
    ]
    assert det.state(0) == "dead"
    # Replica 1 was not in the monitored subset: still healthy.
    assert det.state(1) == "healthy"
    assert det.healthy_mask() == [False, True]


def test_detector_heartbeat_flaps_suspected_back_to_healthy():
    cfg = FailoverConfig(heartbeat_interval=0.01, suspect_after=2, dead_after=4)
    det = FailureDetector(1, cfg)
    det.heartbeat(0, 0.01)
    det.advance(0.035, replicas=[0])  # past suspect, before dead
    assert det.state(0) == "suspected"
    det.heartbeat(0, 0.036)  # late heartbeat arrives
    assert det.state(0) == "healthy"
    trs = det.transitions()
    assert [tr.to for tr in trs] == ["suspected", "healthy"]


def test_failover_config_validation():
    with pytest.raises(ValueError, match="suspect_after"):
        FailoverConfig(suspect_after=4, dead_after=2)
    with pytest.raises(ValueError, match="heartbeat_interval"):
        FailoverConfig(heartbeat_interval=0.0)
    with pytest.raises(ValueError, match="step"):
        ReplicaFailure(-1)
    with pytest.raises(ValueError, match="mode"):
        ReplicaFailure(3, "explode")


def test_health_schedule_windows_and_recovery():
    sched = HealthSchedule(2).add_window(0, 1.0, 2.0).add_window(1, 1.5, 3.0)
    assert sched.mask(0.5) == [True, True]
    assert sched.mask(1.6) == [False, False]
    assert sched.mask(2.5) == [True, False]
    # First replica healthy at/after an all-down instant is replica 0 at 2.0.
    assert sched.next_recovery(1.6) == (2.0, 0)
    with pytest.raises(ValueError, match="empty unhealthy window"):
        sched.add_window(0, 5.0, 5.0)


# -- live KV migration ---------------------------------------------------------


def _snapshot_with_live_pages(num_seqs=3, tokens=40):
    """A minimal snapshot dict over a real cache with live pages."""
    cache = PagedKVCache(64, 16, 2, 8, materialize=True, checksums=True)
    rng = np.random.default_rng(0)
    for _ in range(num_seqs):
        sid = cache.new_seq()
        kv = rng.standard_normal((tokens, 2, 8)).astype(np.float32)
        cache.append(sid, kv, kv)
    return {"t": 0.25, "cache": cache.export_state()}, cache


def test_migration_ships_live_pages_chunked_and_priced():
    snap, cache = _snapshot_with_live_pages()
    live = cache.used_pages()
    topo = Topology.preset("nvlink", world=2)
    mig = KVMigrator(topo, FailoverConfig(chunk_pages=2))
    received, report = mig.migrate(snap, t=0.25, source=0, target=1)
    assert report.pages == len(live) > 0
    # 1 control chunk + ceil(pages / chunk_pages) page chunks.
    assert report.chunks == 1 + -(-len(live) // 2)
    assert report.retries == 0
    assert report.t_end > report.t_start == 0.25
    # Page payload priced at the modeled fp16 KV bytes.
    assert report.wire_bytes > len(live) * cache.page_kv_bytes
    stats = topo.link_stats()
    assert stats["link_migration_bytes"] == pytest.approx(report.wire_bytes)
    # The received snapshot rebuilds to an uncorrupted, identical cache.
    rebuilt = PagedKVCache.from_state(received["cache"])
    assert rebuilt.find_corrupted() == []
    assert rebuilt.used_pages() == live
    assert received["cache"]["refcount"] == snap["cache"]["refcount"]
    assert received["cache"]["corrupt"] == snap["cache"]["corrupt"]
    assert received["cache"]["recycled"] == snap["cache"]["recycled"]


def test_migration_retries_link_faults_with_backoff():
    snap, cache = _snapshot_with_live_pages()
    topo = Topology.preset("nvlink", world=2)
    cfg = FailoverConfig(chunk_pages=64, backoff_base=0.002, backoff_factor=2.0)
    # Fault the first two transfer attempts (the control chunk twice).
    plan = FaultPlan(schedules={"link": [0, 1]})
    mig = KVMigrator(topo, cfg, fault_plan=plan)
    received, report = mig.migrate(snap, t=0.0, source=0, target=1)
    assert report.retries == 2
    # Wasted attempts are still charged: control chunk went 3x on the wire.
    clean_topo = Topology.preset("nvlink", world=2)
    _, clean = KVMigrator(clean_topo, cfg).migrate(snap, t=0.0, source=0, target=1)
    assert (
        topo.link_stats()["link_migration_busy_s"]
        > clean_topo.link_stats()["link_migration_busy_s"]
    )
    # ...and the backoffs show up in wall time: base*2^0 + base*2^1.
    assert report.seconds >= clean.seconds + 0.002 + 0.004
    # But the accounted wire_bytes (useful payload) is identical.
    assert report.wire_bytes == pytest.approx(clean.wire_bytes)


def test_migration_exhausted_retries_raise():
    snap, _ = _snapshot_with_live_pages()
    cfg = FailoverConfig(max_retries=2)
    plan = FaultPlan(schedules={"link": range(16)})  # every attempt faults
    mig = KVMigrator(Topology.preset("nvlink", world=2), cfg, fault_plan=plan)
    with pytest.raises(MigrationError, match="all 3 transfer attempts"):
        mig.migrate(snap, t=0.0, source=0, target=1)


def test_migration_refuses_checksum_tampered_chunk():
    snap, _ = _snapshot_with_live_pages()
    mig = KVMigrator(Topology.preset("nvlink", world=2), FailoverConfig(chunk_pages=2))
    with pytest.raises(MigrationChecksumError, match="refusing to import"):
        mig.migrate(snap, t=0.0, source=0, target=1, corrupt_chunks=[0])
    # MigrationChecksumError is both a verification error and a migration
    # error, and is NOT retried (one attempt, refused outright).
    from repro.serving.checkpoint import SnapshotVerificationError

    assert issubclass(MigrationChecksumError, SnapshotVerificationError)


def test_migration_partially_filled_last_page_roundtrips():
    # 40 tokens at page_size=16 → 3 pages with the tail page only half
    # full: chunk export ships whole pages, priced at full page_kv_bytes,
    # and the partial fill survives the round trip exactly.
    cache = PagedKVCache(64, 16, 2, 8, materialize=True, checksums=True)
    rng = np.random.default_rng(1)
    sid = cache.new_seq()
    kv = rng.standard_normal((40, 2, 8)).astype(np.float32)
    cache.append(sid, kv, kv)
    assert cache.seq_len(sid) == 40  # not page-aligned: 40 % 16 == 8
    live = cache.used_pages()
    assert len(live) == 3
    topo = Topology.preset("nvlink", world=2)
    mig = KVMigrator(topo, FailoverConfig(chunk_pages=2))
    received, report = mig.migrate(
        {"t": 0.0, "cache": cache.export_state()}, t=0.0, source=0, target=1
    )
    assert report.pages == 3
    assert report.chunks == 1 + 2  # control + ceil(3 / chunk_pages)
    # Whole-page wire pricing: the half-filled tail page still costs a
    # full page of modeled KV bytes (page granularity is the transfer
    # unit, exactly like the allocator's).
    assert report.wire_bytes >= 3 * cache.page_kv_bytes
    rebuilt = PagedKVCache.from_state(received["cache"])
    assert rebuilt.used_pages() == live
    assert rebuilt.seq_len(sid) == 40
    assert rebuilt.find_corrupted() == []


def test_migration_zero_live_page_sequence_ships_control_only():
    # A registered sequence with no tokens yet owns no pages: the
    # migration is a single control chunk, zero page traffic — and the
    # empty sequence is still alive and growable on the target.
    cache = PagedKVCache(64, 16, 2, 8, materialize=True, checksums=True)
    sid = cache.new_seq()
    assert cache.used_pages() == []
    topo = Topology.preset("nvlink", world=2)
    mig = KVMigrator(topo, FailoverConfig(chunk_pages=2))
    received, report = mig.migrate(
        {"t": 0.0, "cache": cache.export_state()}, t=0.0, source=0, target=1
    )
    assert report.pages == 0
    assert report.chunks == 1
    assert report.retries == 0
    assert report.wire_bytes == pytest.approx(
        topo.link_stats()["link_migration_bytes"]
    )
    rebuilt = PagedKVCache.from_state(received["cache"])
    assert rebuilt.used_pages() == []
    assert rebuilt.seq_len(sid) == 0
    rng = np.random.default_rng(2)
    kv = rng.standard_normal((4, 2, 8)).astype(np.float32)
    rebuilt.append(sid, kv, kv)
    assert rebuilt.seq_len(sid) == 4
    assert len(rebuilt.used_pages()) == 1
    assert issubclass(MigrationChecksumError, MigrationError)


# -- end-to-end failover -------------------------------------------------------


def _run_failover(mode, step=6, dp=2, **kwargs):
    requests = sharegpt_workload(16, rate=120.0, seed=7)
    cluster = _cluster(
        dp=dp, failover=FailoverConfig(),
        replica_failures={0: ReplicaFailure(step, mode)},
        **kwargs,
    )
    reference = cluster.run_reference(requests)
    cm = cluster.run(requests)
    divergent, compared = cm.token_divergence(expected_tokens(reference))
    return cm, (divergent, compared)


def test_crash_failover_migrates_and_stays_token_exact():
    cm, divergence = _run_failover("crash")
    assert divergence == (0, 16)
    s = cm.summary()
    assert s["failover_crashes"] == 1.0
    assert s["failover_migrations"] == 1.0
    assert s["migration_pages"] > 0
    assert s["migration_bytes"] > 0
    assert s["link_migration_bytes"] > 0
    assert s["failover_fallbacks"] == 0.0
    # Detection paid the heartbeat timeout; recovery includes migration.
    assert s["failover_detect_s"] > 0
    assert s["failover_recovery_s"] >= s["failover_detect_s"]
    # healthy → suspected → dead → recovering → rejoined.
    assert [tr.to for tr in cm.failover.transitions] == [
        "suspected", "dead", "recovering", "rejoined",
    ]
    assert cm.crash_reports is None  # failover path, not the in-place harness


def test_drain_skips_detection_and_hands_off_immediately():
    cm, divergence = _run_failover("drain")
    assert divergence == (0, 16)
    s = cm.summary()
    assert s["failover_drains"] == 1.0
    assert s["failover_crashes"] == 0.0
    assert s["failover_detect_s"] == 0.0  # planned: no timeout to pay
    assert s["migration_pages"] > 0
    assert [tr.to for tr in cm.failover.transitions] == [
        "draining", "dead", "recovering", "rejoined",
    ]


def test_failover_dp1_falls_back_in_place():
    cm, divergence = _run_failover("crash", dp=1)
    assert divergence == (0, 16)
    s = cm.summary()
    assert s["failover_fallbacks"] == 1.0
    assert s["failover_migrations"] == 0.0


def test_failover_migration_faults_exhausted_falls_back_in_place():
    cm, divergence = _run_failover(
        "crash", fault_plan=FaultPlan(schedules={"link": range(64)}),
    )
    assert divergence == (0, 16)
    s = cm.summary()
    assert s["failover_fallbacks"] == 1.0
    assert s["failover_migrations"] == 0.0


def test_failover_enabled_without_failure_is_inert():
    requests = sharegpt_workload(12, rate=120.0, seed=3)
    plain = _cluster().run(requests)
    enabled = _cluster(failover=FailoverConfig()).run(requests)
    plain_tokens = [t.tokens for m in plain.replicas for t in m.traces]
    enabled_tokens = [t.tokens for m in enabled.replicas for t in m.traces]
    assert plain_tokens == enabled_tokens
    ps, es = plain.summary(), enabled.summary()
    # Core timing/throughput keys are bit-identical; the failover run only
    # adds its (all-zero) counters.
    for key in ps:
        assert es[key] == ps[key], key
    assert es["failover_crashes"] == 0.0
    assert "failover_crashes" not in ps


def test_drain_without_failover_is_rejected():
    cluster = _cluster(replica_failures={0: ReplicaFailure(3, "drain")})
    with pytest.raises(ValueError, match="drain requires"):
        cluster.run(sharegpt_workload(4, rate=60.0, seed=1))


def test_seeded_replica_site_draws_deterministically():
    requests = sharegpt_workload(12, rate=120.0, seed=5)

    def failures(seed):
        cluster = _cluster(
            failover=FailoverConfig(),
            fault_plan=FaultPlan(seed=seed, replica_fail_rate=0.9),
        )
        return cluster._resolve_failures()

    a, b = failures(11), failures(11)
    assert a == b  # same seed, same draws
    assert a  # rate 0.9 across 2 replicas: at least one fires
    cluster = _cluster(
        failover=FailoverConfig(),
        fault_plan=FaultPlan(seed=11, replica_fail_rate=0.9),
    )
    reference = cluster.run_reference(requests)
    cm = cluster.run(requests)
    assert cm.token_divergence(expected_tokens(reference)) == (0, 12)
    assert cm.summary()["failover_crashes"] >= 1.0


# -- routing under unhealthy replicas ------------------------------------------


def test_all_replicas_unhealthy_holds_arrivals_never_drops():
    requests = sharegpt_workload(10, rate=200.0, seed=4)
    # Both replicas down over a window covering the middle arrivals;
    # replica 1 rejoins first.
    sched = (
        HealthSchedule(2)
        .add_window(0, 0.0, 0.30)
        .add_window(1, 0.01, 0.20)
    )
    cluster = _cluster(failover=FailoverConfig(), health_schedule=sched)
    reference = cluster.run_reference(requests)
    cm = cluster.run(requests)
    # Nothing dropped: every stream completes, token-exactly.
    assert cm.token_divergence(expected_tokens(reference)) == (0, 10)
    s = cm.summary()
    assert s["cluster_requests"] == 10.0
    assert s["cluster_sheds"] == 0.0
    assert s["cluster_held_requests"] > 0
    # Held arrivals were clamped to the first rejoin inside the window.
    held_arrivals = [
        r.arrival for lst in cm.replica_requests for r in lst
    ]
    assert all(a >= 0.0 for a in held_arrivals)
    for lst in cm.replica_requests:
        assert [r.arrival for r in lst] == sorted(r.arrival for r in lst)


def test_unhealthy_window_steers_routing_and_backpressure():
    requests = sharegpt_workload(12, rate=300.0, seed=2)
    sched = HealthSchedule(2).add_window(0, 0.0, 10.0)  # replica 0 down all run
    cluster = _cluster(health_schedule=sched)
    per_replica, assignments = cluster.route(requests)
    assert all(a == 1 for a in assignments)
    assert len(per_replica[0]) == 0


def test_health_schedule_without_failover_still_routes_token_exact():
    requests = sharegpt_workload(10, rate=120.0, seed=8)
    sched = HealthSchedule(2).add_window(0, 0.0, 0.05)
    cluster = _cluster(health_schedule=sched)
    reference = cluster.run_reference(requests)
    cm = cluster.run(requests)
    assert cm.token_divergence(expected_tokens(reference)) == (0, 10)

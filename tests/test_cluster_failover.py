"""Cluster failover: the failed replica's heartbeat-timeout timeline, live
KV migration over priced links, and token-exact takeover."""

import dataclasses

import numpy as np
import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterEngine,
    FailoverConfig,
    KVMigrator,
    MigrationChecksumError,
    MigrationError,
    ReplicaFailure,
    expected_tokens,
)
from repro.cluster.failover import DEAD_AFTER, HEARTBEAT_INTERVAL, SUSPECT_AFTER
from repro.cluster.topology import Topology
from repro.faults import FaultPlan
from repro.gpu import H100_80G
from repro.kvcache import PagedKVCache
from repro.serving import EngineConfig, LLAMA_3_1_8B, sharegpt_workload

MODEL = LLAMA_3_1_8B


def _cluster(dp=2, failover=None, router="least-loaded", **kwargs):
    return ClusterEngine(
        MODEL, H100_80G,
        ClusterConfig(dp=dp, router=router,
                      engine=EngineConfig(max_running=64),
                      failover=failover),
        **kwargs,
    )


def test_failover_config_validation():
    with pytest.raises(ValueError, match="chunk_pages"):
        FailoverConfig(chunk_pages=0)
    with pytest.raises(ValueError, match="max_retries"):
        FailoverConfig(max_retries=-1)
    with pytest.raises(ValueError, match="step"):
        ReplicaFailure(-1)
    with pytest.raises(ValueError, match="mode"):
        ReplicaFailure(3, "explode")
    with pytest.raises(ValueError, match="phase"):
        ReplicaFailure(3, "crash", "halfway")


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
    cfg = FailoverConfig(chunk_pages=64)
    # Fault the first two transfer attempts (the control chunk twice).
    plan = FaultPlan(schedules={"link": [0, 1]})
    mig = KVMigrator(topo, cfg, fault_plan=plan)
    received, report = mig.migrate(snap, t=0.0, source=0, target=1)
    assert report.retries == 2
    # Wasted attempts are still charged: control chunk went 3x on the wire.
    clean_topo = Topology.preset("nvlink", world=2)
    _, clean = KVMigrator(clean_topo, cfg).migrate(snap, t=0.0, source=0, target=1)
    assert (
        topo.busy_seconds["migration"] > clean_topo.busy_seconds["migration"]
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


def _run_failover(mode, dp=2, phase="boundary", step=6, **kwargs):
    requests = sharegpt_workload(16, rate=120.0, seed=7)
    cluster = _cluster(
        dp=dp, failover=FailoverConfig(), trace=True,
        replica_failures={0: ReplicaFailure(step, mode, phase)},
        **kwargs,
    )
    cm = cluster.run(requests)
    divergent, compared = cm.token_divergence(expected_tokens(requests))
    return cm, (divergent, compared), cluster.tracers[0]


def _assert_timeline(cm, tracer, mode):
    """Replica 0's stamps are the heartbeat timeout in closed form: a
    crash is suspected and declared dead SUSPECT_AFTER / DEAD_AFTER
    intervals after its last heartbeat — the end of its last finalized
    step, read off its own tracer, or t=0 before its first — and a drain
    is draining -> dead at the failure.  The detection latency is
    t_dead - t_fail."""
    (crash,) = [f for f in tracer.fault_events if f.site == "crash"]
    t_fail = crash.t
    t_beat = max(
        (e.t_end for e in tracer.events if e.kind != "idle" and e.t_end <= t_fail),
        default=0.0,
    )
    if mode == "crash":
        detect = [
            ("healthy", "suspected", t_beat + SUSPECT_AFTER * HEARTBEAT_INTERVAL),
            ("suspected", "dead", t_beat + DEAD_AFTER * HEARTBEAT_INTERVAL),
        ]
    else:
        detect = [("healthy", "draining", t_fail), ("draining", "dead", t_fail)]
    trs = cm.failover.transitions
    t_dead = detect[-1][2]
    assert [(tr.frm, tr.to, tr.t) for tr in trs] == detect + [
        ("dead", "recovering", t_dead), ("recovering", "rejoined", trs[-1].t),
    ]
    assert trs[-1].t > t_dead
    assert cm.summary()["failover_detect_s"] == t_dead - t_fail
    assert [(f.action, f.t) for f in tracer.fault_events
            if f.site == "failover"] == [(to, t) for _, to, t in detect]


def test_crash_failover_migrates_and_stays_token_exact():
    cm, divergence, tracer = _run_failover("crash")
    assert divergence == (0, 16)
    s = cm.summary()
    assert cm.failover.crashes == 1
    assert len(cm.failover.migrations) == 1
    assert s["migration_pages"] > 0
    assert s["migration_bytes"] > 0
    assert s["link_migration_bytes"] > 0
    assert s["failover_fallbacks"] == 0.0
    # Detection paid the heartbeat timeout; recovery includes migration.
    assert s["failover_detect_s"] > 0
    assert s["failover_recovery_s"] >= s["failover_detect_s"]
    _assert_timeline(cm, tracer, "crash")


def test_mid_step_crash_times_out_from_the_last_finalized_step():
    # The step the crash interrupts was priced but never finalized, so it
    # sent no heartbeat: the timeout runs from the step before it.
    cm, divergence, tracer = _run_failover("crash", phase="mid-step")
    assert divergence == (0, 16)
    _assert_timeline(cm, tracer, "crash")
    assert cm.summary()["failover_detect_s"] < DEAD_AFTER * HEARTBEAT_INTERVAL


@pytest.mark.parametrize("mode", ["crash", "drain"])
@pytest.mark.parametrize("phase", ["boundary", "mid-step"])
@pytest.mark.parametrize("step", [0, 3])
def test_failover_timeline_is_closed_form_at_every_failure_point(step, phase, mode):
    # dp=3 gives the takeover two healthy hosts to pick from; a failure in
    # step 0 has no finalized step behind it and times out from t=0.
    cm, divergence, tracer = _run_failover(mode, dp=3, phase=phase, step=step)
    assert divergence == (0, 16)
    _assert_timeline(cm, tracer, mode)


@pytest.mark.xfail(strict=True, reason=(
    "CHANGES.md FOUND (cluster/engine.py:_run_replica, ROADMAP item 3(a)): a heartbeat "
    "fires only after a finalised step, so a crash after an idle gap, or inside a step "
    "longer than DEAD_AFTER heartbeat intervals, is stamped dead before it happened"))
@pytest.mark.parametrize("router, n, step", [("round-robin", 3, 210), ("least-loaded", 16, 0)],
                         ids=["idle-gap", "long-step"])
def test_a_crash_is_declared_dead_after_it_happens(router, n, step):
    """dp=2: replica 0 idles 5 s before the third request, or runs request
    0's 4 096-token prompt as one ~80 ms prefill step, and crashes mid-step."""
    requests = sharegpt_workload(n, rate=120.0, seed=7)
    if n == 3:
        requests[2] = dataclasses.replace(requests[2], arrival=requests[2].arrival + 5.0)
    else:
        requests[0] = dataclasses.replace(requests[0], prompt_len=4096)
    cluster = _cluster(failover=FailoverConfig(), router=router, trace=True,
                       replica_failures={0: ReplicaFailure(step, "crash", "mid-step")})
    cm = cluster.run(requests)
    (crash,) = [f for f in cluster.tracers[0].fault_events if f.site == "crash"]
    (t_dead,) = [tr.t for tr in cm.failover.transitions if tr.to == "dead"]
    assert crash.t <= t_dead
    assert cm.summary()["failover_detect_s"] >= 0


def test_drain_skips_detection_and_hands_off_immediately():
    cm, divergence, tracer = _run_failover("drain")
    assert divergence == (0, 16)
    s = cm.summary()
    assert cm.failover.crashes == 0
    assert s["failover_detect_s"] == 0.0  # planned: no timeout to pay
    assert s["migration_pages"] > 0
    _assert_timeline(cm, tracer, "drain")


@pytest.mark.parametrize(
    "kwargs", [dict(dp=1), dict(fault_plan=FaultPlan(schedules={"link": range(64)}))],
    ids=["dp1", "migration-faults-exhausted"])
def test_failover_falls_back_in_place(kwargs):
    cm, divergence, _ = _run_failover("crash", **kwargs)
    assert divergence == (0, 16)
    assert cm.summary()["failover_fallbacks"] == 1.0
    assert cm.failover.migrations == []


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
    assert es["failover_fallbacks"] == 0.0 and enabled.failover.crashes == 0
    assert "failover_fallbacks" not in ps


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
    cm = cluster.run(requests)
    assert cm.token_divergence(expected_tokens(requests)) == (0, 12)
    assert cm.failover.crashes >= 1

"""The one chunk-transfer protocol (``KVMigrator.transfer``) and the one
replica life loop (``ClusterEngine._run_replica``)."""

import numpy as np
import pytest

import repro.cluster.failover as failover
from conftest import crash_phases, restores
from repro.cluster import (
    ClusterConfig,
    ClusterEngine,
    FailoverConfig,
    KVMigrator,
    MigrationChecksumError,
    ReplicaFailure,
    Topology,
    p2p_send,
)
from repro.faults import FaultPlan
from repro.gpu import H100_80G
from repro.kvcache import PagedKVCache
from repro.serving import EngineConfig, LLAMA_3_1_8B, sharegpt_workload


def _page_ids():
    cache = PagedKVCache(64, 16, 2, 8, materialize=True, checksums=True)
    rng = np.random.default_rng(0)
    for _ in range(3):
        sid = cache.new_seq()
        kv = rng.standard_normal((40, 2, 8)).astype(np.float32)
        cache.append(sid, kv, kv)
    return cache.export_pages(cache.used_pages()), float(cache.page_kv_bytes)


def _ship(kind, monkeypatch, **tamper):
    """Ship the same pages as ``kind``; returns what each ``p2p_send``
    attempt was charged, the report, and the topology."""
    pages, page_bytes = _page_ids()
    sends = []

    def recording(array, topology, **kw):
        received, cost = p2p_send(array, topology, **kw)
        sends.append((kw["kind"], kw["t"], kw["wire_bytes"], cost))
        return received, cost

    monkeypatch.setattr(failover, "p2p_send", recording)
    topo = Topology.preset("nvlink", world=2)
    mig = KVMigrator(
        topo, FailoverConfig(chunk_pages=4),
        fault_plan=FaultPlan(schedules={"link": (0, 1)}),
    )
    control, got, report = mig.transfer(
        {"what": "descriptor", "n": 3}, pages, page_bytes, 0.5, kind, 0, 1,
        **tamper,
    )
    assert control == {"what": "descriptor", "n": 3}
    assert got == pages
    return sends, report, topo


def test_migration_and_handoff_are_charged_identically(monkeypatch):
    m_sends, m_report, m_topo = _ship("migration", monkeypatch)
    h_sends, h_report, h_topo = _ship("handoff", monkeypatch)
    assert {k for k, *_ in m_sends} == {"migration"}
    assert {k for k, *_ in h_sends} == {"handoff"}
    # Same attempts at the same times for the same bytes and seconds: the
    # two scheduled link faults hit the control chunk's first two sends.
    assert [s[1:] for s in m_sends] == [s[1:] for s in h_sends]
    assert len(m_sends) == m_report.chunks + 2
    assert m_sends[0][2] == m_sends[1][2] == m_sends[2][2]
    for field in ("pages", "wire_bytes", "chunks", "retries", "seconds", "t_end"):
        assert getattr(m_report, field) == getattr(h_report, field), field
    assert m_report.retries == 2 and m_report.pages == 9 and m_report.chunks == 4
    assert m_topo.traffic_bytes == {"migration": h_topo.traffic_bytes["handoff"]}
    assert m_topo.busy_seconds == {"migration": h_topo.busy_seconds["handoff"]}


@pytest.mark.parametrize("kind", ["migration", "handoff"])
@pytest.mark.parametrize(
    "tamper", [{"corrupt_control": True}, {"corrupt_chunks": [1]}]
)
def test_tampered_chunk_is_refused_for_both_kinds(kind, tamper, monkeypatch):
    with pytest.raises(MigrationChecksumError, match="refusing to import"):
        _ship(kind, monkeypatch, **tamper)


def test_life_loop_recovers_in_place():
    requests = sharegpt_workload(4, rate=120.0, seed=6)
    cluster = ClusterEngine(
        LLAMA_3_1_8B, H100_80G,
        # No cadence configured: a scripted replica snapshots every 4
        # steps, an unscripted one not at all.
        ClusterConfig(dp=2, engine=EngineConfig(max_running=64)),
        trace=True,
    )
    per_replica, _ = cluster.route(requests)
    failures = {0: [ReplicaFailure(3, "crash", "boundary"),
                    ReplicaFailure(7, "crash", "mid-step")]}
    metrics = cluster._run_replica(
        0, per_replica, failures, None, [0.0, 0.0], frozenset(failures),
    )
    events = cluster.tracers[0].fault_events
    assert crash_phases(events) == ["boundary", "mid-step"]
    assert restores(events) == 2
    stats = metrics.fault_stats
    assert stats["recover_token_divergence"] == 0 and stats["recover_replayed_tokens"] > 0
    assert stats["ckpt_snapshots"] > 0
    # The same replica without a script runs one life and snapshots nothing.
    plain = cluster._run_replica(0, per_replica, {}, None, [0.0, 0.0], frozenset())
    assert "ckpt_snapshots" not in plain.fault_stats
    assert [t.tokens for t in plain.traces] == [t.tokens for t in metrics.traces]

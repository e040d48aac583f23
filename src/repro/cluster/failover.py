"""Cluster failover: failure timing, draining, and live KV migration.

The cluster-level robustness layer on top of the checkpoint/journal
durability stack (:mod:`repro.serving.checkpoint`).  Three pieces
compose into replica failover:

* **Detection** — each executed engine step emits a heartbeat, and a
  crashed replica stops emitting them.  Replicas run in causal
  evaluation order, so the crash is already known when it is timed:
  :meth:`FailoverController.observe_failure` stamps the heartbeat
  timeout in closed form — *suspected* :data:`SUSPECT_AFTER` and *dead*
  :data:`DEAD_AFTER` heartbeat intervals after the replica's last
  heartbeat — while a planned drain goes *draining* → *dead* at the
  failure time.  The takeover adds *recovering* → *rejoined*, so every
  failed replica's timeline is one of::

      healthy ──► suspected ──► dead ──► recovering ──► rejoined   (crash)
      healthy ──► draining ───► dead ──► recovering ──► rejoined   (drain)

  each edge a timestamped :class:`~repro.cluster.router.Transition` for
  the trace.  Routing never reads these states; only the overload
  layer's circuit breakers mask replicas.

* **Live KV migration** — :class:`KVMigrator` ships a dead (or drained)
  replica's latest checkpoint snapshot to a healthy host over the
  cluster :class:`~repro.cluster.topology.Topology` with the chunked,
  checksummed, retried wire protocol of :meth:`KVMigrator.transfer`
  (traffic kind ``"migration"`` — it shows up in ``link_migration_*``
  stats).  Link-fault retries exhausted raise :class:`MigrationError`;
  a checksum mismatch is *refused outright*
  (:class:`MigrationChecksumError`) — a corrupt page table must never
  be imported.

* **Takeover** — the cluster engine rebuilds the dead replica's state
  from the migrated snapshot on the target host
  (:meth:`PagedKVCache.from_state` + the original journal's
  :class:`~repro.serving.checkpoint.ReplayGuard`) and resumes it at
  ``max(snapshot_t, t_dead + migration_time)``.  Token ids are a pure
  function of ``(rid, gen, pos)``, so the delayed, relocated resume is
  token-exact by construction — the acceptance check the CI smoke job
  greps for.

:class:`FailoverController` runs the three for scripted failures and drains.

The same :meth:`KVMigrator.transfer` carries the disaggregated
prefill→decode handoff (:mod:`repro.cluster.disagg`).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.collectives import p2p_send
from repro.cluster.router import Transition
from repro.cluster.topology import Topology
from repro.serving.checkpoint import SnapshotVerificationError

__all__ = [
    "DEFAULT_UNHEALTHY_PRESSURE",
    "FailoverConfig",
    "FailoverController",
    "FailoverReport",
    "KVMigrator",
    "MigrationChecksumError",
    "MigrationError",
    "MigrationReport",
    "ReplicaFailure",
]

#: Synthetic backlog (seconds of work) the routing pass charges a replica
#: whose circuit breaker is open, in the
#: :class:`~repro.cluster.router.LoadTracker`, so load-sensitive policies
#: steer around it as well as the breaker mask does.
DEFAULT_UNHEALTHY_PRESSURE = 60.0


class MigrationError(RuntimeError):
    """KV migration failed permanently (link-fault retries exhausted)."""


class MigrationChecksumError(SnapshotVerificationError, MigrationError):
    """A migrated chunk's payload no longer matches its checksum.

    Refused outright rather than retried: unlike a link fault (the
    sender still holds the good bytes), a checksum mismatch means the
    received page table cannot be trusted, and importing it would
    corrupt the takeover replica's KV state — the same refusal contract
    as :class:`~repro.serving.checkpoint.SnapshotVerificationError`.
    """


@dataclass(frozen=True)
class ReplicaFailure:
    """One scripted replica failure for the cluster engine.

    ``mode="crash"`` kills the replica's engine at ``step`` (heartbeats
    stop; it times out).  ``mode="drain"`` stops the
    replica at ``step`` for planned scale-in: no detection delay, the
    replica drains and hands its KV off immediately.
    """

    step: int
    mode: str = "crash"
    phase: str = "boundary"

    def __post_init__(self):
        if self.step < 0:
            raise ValueError(f"failure step must be >= 0, got {self.step}")
        if self.mode not in ("crash", "drain"):
            raise ValueError(
                f"failure mode must be 'crash' or 'drain', got {self.mode!r}"
            )
        if self.phase not in ("boundary", "mid-step"):
            raise ValueError(
                f"failure phase must be 'boundary' or 'mid-step', got {self.phase!r}"
            )


@dataclass
class FailoverConfig:
    """Migration knobs for cluster failover.  Only a field a program sets
    or a test needs stays a field (``tests/test_knobs.py``); the rest are
    constants."""

    #: Live KV pages per migration chunk.
    chunk_pages: int = 64
    #: Bounded retry budget per chunk under injected link faults.
    max_retries: int = 4

    def __post_init__(self):
        if self.chunk_pages < 1:
            raise ValueError("chunk_pages must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")


#: Nominal gap between replica heartbeats (each executed engine step emits
#: one; steps are a few ms, so 5 ms spans ~1-2 steps).
HEARTBEAT_INTERVAL = 0.005
#: Missed intervals before a replica is *suspected*.
SUSPECT_AFTER = 2
#: Missed intervals before a replica is declared *dead* (migration starts).
DEAD_AFTER = 4


# -- live KV migration ---------------------------------------------------------


@dataclass
class MigrationReport:
    """Accounting for one chunked transfer (a snapshot migration or a
    prefill→decode handoff)."""

    source: int
    target: int
    #: Live KV pages shipped (the unit the smoke test asserts nonzero).
    pages: int
    #: Bytes charged to the topology (modeled KV payload + control JSON).
    wire_bytes: float
    chunks: int
    retries: int
    #: Total simulated transfer time including backoffs and wasted
    #: (faulted) transfer attempts.
    seconds: float
    t_start: float
    t_end: float


#: Exponential backoff after a failed chunk transfer:
#: ``BACKOFF_BASE * BACKOFF_FACTOR ** attempt`` seconds.
BACKOFF_BASE = 0.002
BACKOFF_FACTOR = 2.0


class KVMigrator:
    """Ship KV pages over the topology, chunked and checksummed.

    :meth:`transfer` is the wire protocol; snapshot migration
    (:meth:`migrate`) and the disaggregated prefill→decode handoff
    (:meth:`repro.cluster.disagg.DisaggCoordinator.ship`) are its callers.
    """

    def __init__(
        self,
        topology: Optional[Topology],
        config: Optional[FailoverConfig] = None,
        fault_plan=None,
    ):
        self.topology = topology
        self.config = config or FailoverConfig()
        #: Optional :class:`repro.faults.FaultPlan`; its ``link`` site is
        #: consulted once per transfer attempt.
        self.fault_plan = fault_plan

    def transfer(
        self,
        control: dict,
        pages: Sequence[int],
        page_kv_bytes: float,
        t: float,
        kind: str,
        source: int,
        target: int,
        corrupt_control: bool = False,
        corrupt_chunks: Sequence[int] = (),
    ) -> Tuple[dict, List[int], MigrationReport]:
        """Send a *control chunk* (the ``control`` dict) and then *page
        chunks* of up to ``config.chunk_pages`` of the
        :meth:`PagedKVCache.export_pages` ids ``pages`` from ``source`` to
        ``target`` starting at time ``t``; returns ``(received_control,
        received_pages, report)``.

        Each chunk is priced on the topology as :func:`p2p_send` traffic
        of class ``kind`` (``"migration"`` or ``"handoff"``, so each flow
        gets its own ``link_<kind>_*`` accounting) — page chunks at the
        modeled KV bytes of their pages (fp16 K+V), the control chunk at
        its JSON size — and carries a sha256 over its canonical JSON.  An
        injected link fault aborts the attempt mid-flight — still real
        link traffic — and is retried after ``BACKOFF_BASE *
        BACKOFF_FACTOR ** attempt`` seconds, up to ``max_retries`` times
        (then :class:`MigrationError`); a chunk whose received bytes fail
        their sha256 is refused outright (:class:`MigrationChecksumError`).
        ``corrupt_control`` / ``corrupt_chunks`` are test hooks tampering
        the control chunk or the named page-chunk indices in flight.
        """
        cfg = self.config
        plan = self.fault_plan
        corrupt = frozenset(int(i) for i in corrupt_chunks)
        # (what, body, priced bytes or None for the JSON size, tampered)
        chunks = [("control chunk", control, None, corrupt_control)]
        for ci, lo in enumerate(range(0, len(pages), cfg.chunk_pages)):
            part = list(pages[lo:lo + cfg.chunk_pages])
            chunks.append((
                f"page chunk {ci} ({len(part)} pages)", part,
                float(len(part)) * page_kv_bytes, ci in corrupt,
            ))
        now = float(t)
        wire = 0.0
        retries = 0
        received = []
        for what, body, nbytes, tampered in chunks:
            payload = json.dumps(body, sort_keys=True)
            raw = payload.encode("utf-8")
            checksum = hashlib.sha256(raw).hexdigest()
            if nbytes is None:
                nbytes = float(len(payload))
            arr = np.frombuffer(raw, dtype=np.uint8)
            elapsed = 0.0
            for attempt in range(cfg.max_retries + 1):
                faulted = (
                    plan is not None and plan.armed("link") and plan.fire("link")
                )
                got, cost = p2p_send(
                    arr, self.topology, t=now + elapsed,
                    kind=kind, wire_bytes=nbytes,
                )
                elapsed += cost
                if not faulted:
                    break
                retries += 1
                if attempt >= cfg.max_retries:
                    raise MigrationError(
                        f"{kind} {source}->{target} {what}: link faulted on "
                        f"all {cfg.max_retries + 1} transfer attempts"
                    )
                elapsed += BACKOFF_BASE * BACKOFF_FACTOR ** attempt
            data = got.tobytes().decode("utf-8")
            if tampered:
                data = "\x00" + data[1:]
            if hashlib.sha256(data.encode("utf-8")).hexdigest() != checksum:
                raise MigrationChecksumError(
                    f"{kind} {source}->{target} {what}: received payload "
                    f"fails its sha256; refusing to import an unverifiable "
                    f"page table"
                )
            received.append(json.loads(data))
            now += elapsed
            wire += nbytes
        got_pages = [p for part in received[1:] for p in part]
        report = MigrationReport(
            source=source, target=target, pages=len(got_pages),
            wire_bytes=wire, chunks=len(chunks), retries=retries,
            seconds=now - float(t), t_start=float(t), t_end=now,
        )
        return received[0], got_pages, report

    def migrate(
        self,
        snapshot: dict,
        t: float,
        source: int,
        target: int,
        corrupt_chunks: Sequence[int] = (),
    ) -> Tuple[dict, MigrationReport]:
        """Ship ``snapshot`` from ``source`` to ``target`` at time ``t``:
        the snapshot itself is the control chunk (its page table names
        live pages only), the live page ids are the page chunks.  Returns
        ``(received_snapshot, report)``.
        """
        from repro.kvcache.paged import PagedKVCache

        cache = PagedKVCache.from_state(snapshot["cache"])
        received, _, report = self.transfer(
            snapshot, cache.export_pages(cache.used_pages()),
            cache.page_kv_bytes, t, "migration", source, target,
            corrupt_chunks=corrupt_chunks,
        )
        return received, report


# -- failover orchestration ----------------------------------------------------


@dataclass
class FailoverReport:
    """Cluster-level failover accounting (``ClusterMetrics.failover``)."""

    #: Every failed replica's timeline edges, time-ordered (ties →
    #: replica id) once :meth:`FailoverController.finish` has run.
    transitions: List[Transition] = field(default_factory=list)
    migrations: List[MigrationReport] = field(default_factory=list)
    crashes: int = 0
    #: Failovers that fell back to in-place recovery (no healthy target,
    #: or migration retries exhausted).
    fallbacks: int = 0
    #: Sum over failures of (declared dead − failed) — detection latency.
    detect_seconds: float = 0.0
    #: Sum over failures of (resumed − failed) — end-to-end recovery time.
    recovery_seconds: float = 0.0
    #: In-flight units of work (streams + partial prefills + preempted)
    #: carried through migration.
    inflight_migrated: int = 0

    def summary(self) -> Dict[str, float]:
        return {
            "failover_fallbacks": float(self.fallbacks),
            "failover_transitions": float(len(self.transitions)),
            "failover_detect_s": float(self.detect_seconds),
            "failover_recovery_s": float(self.recovery_seconds),
            "failover_inflight_migrated": float(self.inflight_migrated),
            "migration_pages": float(sum(m.pages for m in self.migrations)),
            "migration_bytes": float(sum(m.wire_bytes for m in self.migrations)),
            "migration_chunks": float(sum(m.chunks for m in self.migrations)),
            "migration_retries": float(sum(m.retries for m in self.migrations)),
        }


#: Dead → rejoined delay when no migration happens (in-place restart).
REJOIN_DELAY = 0.05


class FailoverController:
    """Drives detection → migration → takeover for one cluster run.

    Owned by :class:`~repro.cluster.engine.ClusterEngine`; stateless
    toward replica engines (the cluster hands it a failed replica's last
    heartbeat), it stamps each failed replica's timeline, runs the
    :class:`KVMigrator`, emits fault events to the per-replica tracers,
    and accumulates the :class:`FailoverReport` surfaced in
    ``ClusterMetrics``.
    """

    def __init__(
        self,
        config: FailoverConfig,
        topology: Optional[Topology],
        num_replicas: int,
        fault_plan=None,
        tracers: Optional[Sequence] = None,
    ):
        self.config = config
        self.num_replicas = num_replicas
        self.migrator = KVMigrator(topology, config, fault_plan=fault_plan)
        self.tracers = tracers
        self.report = FailoverReport()

    def _emit(self, replica: int, site: str, action: str, t: float, detail: str) -> None:
        if self.tracers is None:
            return
        from repro.obs.events import FaultEvent

        tracer = self.tracers[replica]
        if tracer is not None:
            tracer.on_fault(FaultEvent(
                site=site, action=action, t=t, step_index=-1, req_id=-1,
                detail=detail,
            ))

    def _stamp(self, replica: int, t: float, frm: str, to: str, detail: str) -> float:
        self.report.transitions.append(Transition(float(t), replica, frm, to, detail))
        return float(t)

    def observe_failure(
        self, replica: int, last_heartbeat: float, t_fail: float, mode: str
    ) -> float:
        """Stamp a failed replica's detection edges and return ``t_dead``
        (when migration may begin).

        A crash pays the full heartbeat timeout, counted from its last
        heartbeat; a drain is planned, so the replica goes draining →
        dead at ``t_fail``.
        """
        if mode == "drain":
            edges = [
                (t_fail, "healthy", "draining", "planned drain: handing off KV"),
                (t_fail, "draining", "dead", "drained"),
            ]
        else:
            self.report.crashes += 1
            edges = [
                (last_heartbeat + n * HEARTBEAT_INTERVAL, frm, to,
                 f"{n} heartbeat intervals missed")
                for n, frm, to in ((SUSPECT_AFTER, "healthy", "suspected"),
                                   (DEAD_AFTER, "suspected", "dead"))
            ]
        for t, frm, to, detail in edges:
            t_dead = self._stamp(replica, t, frm, to, detail)
            self._emit(
                replica, "failover", to, t_dead,
                f"replica {replica}: {frm} -> {to} ({detail})",
            )
        self.report.detect_seconds += t_dead - t_fail
        return t_dead

    def pick_target(
        self, source: int, assigned_tokens: Sequence[float], exclude: Sequence[int] = ()
    ) -> Optional[int]:
        """Least-loaded healthy host for the migrated state (ties → lowest
        id); ``None`` when no other replica can take it (dp=1, or every
        peer is itself failing)."""
        banned = set(exclude) | {source}
        candidates = [r for r in range(self.num_replicas) if r not in banned]
        if not candidates:
            return None
        return min(candidates, key=lambda r: (assigned_tokens[r], r))

    def migrate(
        self, snapshot: dict, t_dead: float, source: int, target: int
    ) -> Tuple[dict, MigrationReport]:
        received, mreport = self.migrator.migrate(
            snapshot, t_dead, source=source, target=target
        )
        self.report.migrations.append(mreport)
        self._emit(
            target, "migration", "received", mreport.t_end,
            f"{mreport.pages} KV pages from replica {source} in "
            f"{mreport.chunks} chunks ({mreport.wire_bytes:.0f}B wire, "
            f"{mreport.retries} retries)",
        )
        return received, mreport

    def note_fallback(self, replica: int, t: float, why: str) -> None:
        self.report.fallbacks += 1
        self._emit(
            replica, "migration", "fallback", t,
            f"replica {replica} recovering in place: {why}",
        )

    def note_recovery(
        self, replica: int, host: int, t_fail: float, t_dead: float,
        resume_at: float, inflight: int,
    ) -> None:
        """Stamp the recovering → rejoined tail of a failover."""
        where = "in place" if host == replica else f"on replica {host}"
        self._stamp(replica, t_dead, "dead", "recovering", f"takeover {where}")
        t_rejoin = self._stamp(
            replica, max(resume_at, t_dead + REJOIN_DELAY),
            "recovering", "rejoined", "serving resumed",
        )
        self.report.recovery_seconds += resume_at - t_fail
        self.report.inflight_migrated += inflight
        self._emit(
            host, "failover", "rejoined", t_rejoin,
            f"replica {replica} resumed {where} at t={resume_at:.4f} "
            f"({inflight} in-flight streams carried over)",
        )

    def finish(self) -> FailoverReport:
        self.report.transitions.sort(key=lambda tr: (tr.t, tr.replica))
        return self.report


def inflight_units(snapshot: dict) -> int:
    """In-flight work units captured in a snapshot's run state: live
    decode streams, partial prefills, and preempted streams."""
    rs = snapshot.get("run_state") or {}
    return (
        len(rs.get("streams") or ())
        + len(rs.get("prefilling") or ())
        + len(rs.get("preempted") or ())
    )


def clamp_arrival(req, t: float):
    """Delay a request's arrival to ``t`` (a timeout re-dispatch, a
    hedge, or a handoff that lands at ``t``): same rid, so its tokens
    are unchanged — only its timing."""
    return dataclasses.replace(req, arrival=max(req.arrival, t))

"""Cluster failover: health detection, draining, and live KV migration.

The cluster-level robustness layer on top of the PR-4 durability stack.
Three pieces compose into replica failover:

* **Health detection** — :class:`FailureDetector` runs a heartbeat
  timeout per replica on the simulated clock.  Replica engines call a
  per-step heartbeat hook; a replica that misses
  :data:`SUSPECT_AFTER` consecutive heartbeat intervals is *suspected*
  (the router stops sending it new work) and after :data:`DEAD_AFTER`
  intervals it is declared *dead*.  Every replica walks the state
  machine::

      healthy ──► suspected ──► dead ──► recovering ──► rejoined
         │             │          ▲
         └─► draining ─┴──────────┘        (planned scale-in path)

  with illegal transitions rejected (:class:`IllegalTransitionError`)
  and every transition timestamped for the trace.

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
from repro.cluster.lifecycle import IllegalTransitionError, Lifecycle, Transition
from repro.cluster.topology import Topology
from repro.serving.checkpoint import SnapshotVerificationError

__all__ = [
    "DEFAULT_UNHEALTHY_PRESSURE",
    "FailoverConfig",
    "FailoverController",
    "FailoverReport",
    "FailureDetector",
    "HEALTH_STATES",
    "HealthTransition",
    "IllegalTransitionError",
    "KVMigrator",
    "MigrationChecksumError",
    "MigrationError",
    "MigrationReport",
    "ReplicaFailure",
    "ReplicaHealth",
]

#: Health states in lifecycle order.
HEALTH_STATES: Tuple[str, ...] = (
    "healthy", "suspected", "dead", "draining", "recovering", "rejoined",
)

#: One timestamped health-state edge for a replica.
HealthTransition = Transition

#: Synthetic backlog (seconds of work) the routing pass charges an
#: unhealthy replica in the :class:`~repro.cluster.router.LoadTracker`,
#: so load-sensitive policies steer around it even before the hard
#: health mask applies.
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
    stop; the detector times it out).  ``mode="drain"`` stops the
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


class ReplicaHealth(Lifecycle):
    """One replica's health state machine with a transition log."""

    #: Anything else raises :class:`IllegalTransitionError` (e.g. dead →
    #: healthy without passing through recovery).
    edges = {
        "healthy": frozenset({"suspected", "draining"}),
        "suspected": frozenset({"healthy", "dead", "draining"}),
        "draining": frozenset({"dead"}),
        "dead": frozenset({"recovering"}),
        "recovering": frozenset({"rejoined"}),
        "rejoined": frozenset({"suspected", "draining"}),
    }
    initial = "healthy"
    noun = "health"

    def __init__(self, replica: int):
        super().__init__(replica)
        self.last_heartbeat = 0.0

    def heartbeat(self, t: float) -> Optional[HealthTransition]:
        """Record a heartbeat; a suspected replica flaps back to healthy."""
        self.last_heartbeat = max(self.last_heartbeat, float(t))
        if self.state == "suspected":
            return self.to("healthy", t, "heartbeat resumed")
        return None


#: Nominal gap between replica heartbeats (each executed engine step emits
#: one; steps are a few ms, so 5 ms spans ~1-2 steps).
HEARTBEAT_INTERVAL = 0.005
#: Missed intervals before a replica is *suspected* (routing stops).
SUSPECT_AFTER = 2
#: Missed intervals before a replica is declared *dead* (migration starts).
DEAD_AFTER = 4


class FailureDetector:
    """Heartbeat-timeout failure detection on the simulated clock.

    Deterministic: a replica whose last heartbeat was at ``t_hb`` is
    suspected at exactly ``t_hb + SUSPECT_AFTER * HEARTBEAT_INTERVAL``
    and declared dead at ``t_hb + DEAD_AFTER * HEARTBEAT_INTERVAL`` —
    :meth:`advance` back-dates the transitions to those deadlines no
    matter when it is called, so detection timestamps do not depend on
    polling cadence.
    """

    def __init__(self, num_replicas: int):
        if num_replicas < 1:
            raise ValueError("num_replicas must be >= 1")
        self.replicas = [ReplicaHealth(i) for i in range(num_replicas)]

    def heartbeat(self, replica: int, t: float) -> None:
        self.replicas[replica].heartbeat(t)

    def advance(
        self, t: float, replicas: Optional[Sequence[int]] = None
    ) -> List[HealthTransition]:
        """Advance the detector clock to ``t``; returns new transitions.

        ``replicas`` restricts the sweep to the monitored subset (the
        cluster engine monitors only replicas with a failure in flight;
        an idle replica with no heartbeats yet must not time out).
        """
        fired: List[HealthTransition] = []
        idx = range(len(self.replicas)) if replicas is None else replicas
        for i in idx:
            h = self.replicas[i]
            t_suspect = h.last_heartbeat + SUSPECT_AFTER * HEARTBEAT_INTERVAL
            t_dead = h.last_heartbeat + DEAD_AFTER * HEARTBEAT_INTERVAL
            if h.state in ("healthy", "rejoined") and t > t_suspect:
                fired.append(h.to(
                    "suspected", t_suspect,
                    f"{SUSPECT_AFTER} heartbeat intervals missed",
                ))
            if h.state == "suspected" and t > t_dead:
                fired.append(h.to(
                    "dead", t_dead,
                    f"{DEAD_AFTER} heartbeat intervals missed",
                ))
        return fired

    def state(self, replica: int) -> str:
        return self.replicas[replica].state

    def transitions(self) -> List[HealthTransition]:
        """All transitions across replicas, time-ordered (ties → replica id)."""
        out = [tr for h in self.replicas for tr in h.transitions]
        out.sort(key=lambda tr: (tr.t, tr.replica))
        return out


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

    transitions: List[HealthTransition] = field(default_factory=list)
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
    toward replica engines (they only feed heartbeats), it timestamps
    the health state machine, runs the :class:`KVMigrator`, emits fault
    events to the per-replica tracers, and accumulates the
    :class:`FailoverReport` surfaced in ``ClusterMetrics``.
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
        self.detector = FailureDetector(num_replicas)
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

    def observe_failure(
        self, replica: int, heartbeats: Sequence[float], t_fail: float, mode: str
    ) -> float:
        """Feed a failed replica's heartbeat trail to the detector and
        return ``t_dead`` (when migration may begin).

        Crashes pay the full heartbeat-timeout detection delay; drains
        are planned, so the replica goes draining → dead at ``t_fail``.
        """
        h = self.detector.replicas[replica]
        if mode == "drain":
            h.to("draining", t_fail, "planned drain: handing off KV")
            h.to("dead", t_fail, "drained")
        else:
            for t in heartbeats:
                self.detector.heartbeat(replica, t)
            horizon = t_fail + (DEAD_AFTER + 1) * HEARTBEAT_INTERVAL
            self.detector.advance(horizon, replicas=[replica])
            if h.state != "dead":  # pragma: no cover - detector invariant
                raise RuntimeError(
                    f"replica {replica} not declared dead by {horizon}"
                )
            self.report.crashes += 1
        t_dead = h.transitions[-1].t
        self.report.detect_seconds += t_dead - t_fail
        for tr in h.transitions:
            if tr.to in ("suspected", "dead", "draining"):
                self._emit(
                    replica, "failover", tr.to, tr.t,
                    f"replica {replica}: {tr.frm} -> {tr.to} ({tr.detail})",
                )
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
        """Record the recovering → rejoined tail of a failover."""
        h = self.detector.replicas[replica]
        where = "in place" if host == replica else f"on replica {host}"
        h.to("recovering", t_dead, f"takeover {where}")
        t_rejoin = max(resume_at, t_dead + REJOIN_DELAY)
        h.to("rejoined", t_rejoin, "serving resumed")
        self.report.recovery_seconds += resume_at - t_fail
        self.report.inflight_migrated += inflight
        self._emit(
            host, "failover", "rejoined", t_rejoin,
            f"replica {replica} resumed {where} at t={resume_at:.4f} "
            f"({inflight} in-flight streams carried over)",
        )

    def finish(self) -> FailoverReport:
        self.report.transitions = self.detector.transitions()
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
    """Hold a request at the front door until ``t`` (all replicas
    unhealthy): same rid, so its tokens are unchanged — only its timing."""
    return dataclasses.replace(req, arrival=max(req.arrival, t))

"""Crash-safe serving: engine snapshots, write-ahead journal, recovery.

Long-lived serving engines die — OOM kills, node failures, deploys — and
the in-step resilience layer (:mod:`repro.faults`) cannot help once the
process itself is gone: every queue, KV page and RNG stream lives in
memory.  This module adds the durability layer:

* :class:`Checkpointer` — periodic engine snapshots.  A snapshot captures
  the full :class:`~repro.serving.batching.RunState` (queues, live
  streams, partial prefills, the preempted deque), the
  :class:`~repro.kvcache.PagedKVCache` page tables *with* their
  checksum-mismatch set, the fault plan's per-site RNG streams, the
  degrade state machine, accumulated :class:`ServingMetrics` and the
  engine's step/event counters — everything :meth:`ServingEngine.resume`
  needs to continue the exact trajectory.
* :class:`Journal` — a write-ahead log of admissions, emitted tokens,
  finishes and sheds between snapshots.  On recovery the journaled tokens
  of the lost window become a :class:`ReplayGuard`: re-execution from the
  snapshot must re-emit each of them byte-identically (exactly-once
  verification), surfaced as ``recover_replayed_tokens`` /
  ``recover_token_divergence``.
* :class:`RecoveryManager` — loads the latest snapshot (integrity-checked
  by content hash), rebuilds the KV cache and verifies its pages through
  the existing checksum machinery.  Pages that were corrupt at snapshot
  time survive the round-trip (version ≠ stamp) and are healed by the
  engine's own scrub/recompute path on the next step — unless that path
  is unavailable, in which case recovery *refuses* to resume.
* :func:`run_lives` — the one kill/restore loop around an engine
  factory: run until an :class:`~repro.faults.EngineCrash` fires,
  recover, resume, repeat; it returns the metrics and each crash's phase.
  The cluster engine passes its failover branch in as the ``on_crash``
  hook.

Why replay is token-exact: all engine randomness lives in the fault
plan's site streams (captured and rewound by the snapshot — except the
``crash`` stream, which is kept live so the crash being recovered from
does not re-fire), and tokens are a pure function of (request,
generation, position).  Restoring a snapshot verbatim therefore re-drives
the identical trajectory; the journal's role is to *prove* it.

Stores: :class:`CheckpointStore` keeps snapshots and the journal in
memory (in-process kill/restore loops, tests); :class:`DirectoryStore`
persists them to disk with atomic writes (``serve --journal DIR`` /
``--recover`` cold starts).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.faults.inject import EngineCrash
from repro.kvcache.paged import PagedKVCache
from repro.serving.metrics import ServingMetrics
from repro.serving.workload import Request

#: Bump when the snapshot schema changes; recovery refuses other versions.
SNAPSHOT_VERSION = 4

#: The engine's step counters (attribute ``_<name>``) a snapshot carries.
STEP_COUNTERS = ("steps_done", "event_index", "step_prefix_hits", "step_radix_hit_tokens")


class CheckpointError(RuntimeError):
    """Base class for checkpoint/recovery failures."""


class NoSnapshotError(CheckpointError):
    """Recovery was requested but the store holds no snapshot."""


class SnapshotIntegrityError(CheckpointError):
    """A stored snapshot's content hash no longer matches its payload."""


class SnapshotVerificationError(CheckpointError):
    """A snapshot's KV pages fail checksum verification and the recompute
    path cannot rebuild them; resuming would decode from corrupt state."""


class WorldMismatchError(CheckpointError):
    """A snapshot's cluster shape (``tp``/``dp``/``replica``) differs from
    the engine trying to resume it.  Resuming anyway would reinterpret the
    per-shard KV page tables under the wrong head partitioning — silently
    corrupt attention — so recovery refuses instead."""


def snapshot_world(snapshot: dict) -> Dict[str, object]:
    """The cluster shape ``snapshot`` was taken under, every axis present
    (a colocated engine stamps no ``role``)."""
    return {"role": None, **snapshot["world"]}


def check_world(
    snapshot_id: str, snap_world: Dict[str, object], expected: Dict[str, object]
) -> None:
    """Refuse a snapshot whose cluster shape differs from ``expected`` on
    any axis ``expected`` names (a subset of ``tp``/``dp``/``replica``/
    ``role``); raises :class:`WorldMismatchError`."""

    def norm(key, value):
        # "role" (disaggregated pools) is a string or None; the shape
        # axes are ints.
        if key == "role":
            return None if value is None else str(value)
        return int(value)

    pairs = {k: (norm(k, snap_world[k]), norm(k, v)) for k, v in expected.items()}
    mismatched = {k: ab for k, ab in pairs.items() if ab[0] != ab[1]}
    if mismatched:
        detail = ", ".join(
            f"{k}: snapshot has {a}, recovering cluster has {b}"
            for k, (a, b) in sorted(mismatched.items())
        )
        raise WorldMismatchError(
            f"snapshot {snapshot_id} was taken in a different cluster shape "
            f"({detail}); its per-shard KV page tables do not fit "
            f"this partitioning — recover with the matching "
            f"--tp/--dp or start the run fresh"
        )


@dataclass
class CheckpointConfig:
    """Checkpointing policy for :class:`~repro.serving.ServingEngine`.

    ``every_steps <= 0`` disables the subsystem entirely — the engine then
    takes the exact pre-checkpoint code paths (no journal writes, no
    snapshot copies, a single ``is None`` guard per hook).  A checkpointed
    run always journals.  Only a field a program sets or a test needs
    stays a field (``tests/test_knobs.py``).
    """

    #: Snapshot cadence in executed engine steps (a genesis snapshot is
    #: always taken before step 0 so recovery never lacks a base).
    every_steps: int = 0


# -- stores --------------------------------------------------------------------


def _sha(payload: str) -> str:
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class CheckpointStore:
    """In-memory snapshot + journal store (kill/restore loops in one
    process, tests).  Snapshots are opaque JSON strings guarded by a
    content hash; :meth:`load_snapshot` re-verifies it so silent bit-rot
    surfaces as :class:`SnapshotIntegrityError` instead of a wrong
    trajectory."""

    def __init__(self) -> None:
        self._snapshots: Dict[str, Tuple[str, str]] = {}  # id -> (sha, payload)
        self._order: List[str] = []
        self._journal: List[str] = []  # JSON lines

    # - snapshots -

    def put_snapshot(self, payload: str) -> str:
        sid = f"snap-{len(self._order):06d}"
        self._snapshots[sid] = (_sha(payload), payload)
        self._order.append(sid)
        return sid

    def latest_snapshot_id(self) -> Optional[str]:
        return self._order[-1] if self._order else None

    def load_snapshot(self, snapshot_id: str) -> dict:
        if snapshot_id not in self._snapshots:
            raise NoSnapshotError(f"no snapshot {snapshot_id!r} in store")
        sha, payload = self._snapshots[snapshot_id]
        if _sha(payload) != sha:
            raise SnapshotIntegrityError(
                f"snapshot {snapshot_id} content hash mismatch "
                f"(stored {sha[:12]}…, payload hashes differently)"
            )
        return json.loads(payload)

    def corrupt_snapshot(self, snapshot_id: str) -> None:
        """Chaos hook: bit-rot a stored snapshot so loads fail integrity."""
        sha, payload = self._snapshots[snapshot_id]
        self._snapshots[snapshot_id] = (sha, payload + " ")

    # - journal -

    def append_journal(self, record: dict) -> None:
        self._journal.append(json.dumps(record, sort_keys=True))

    def journal_records(self) -> List[dict]:
        return [json.loads(line) for line in self._journal]


class DirectoryStore(CheckpointStore):
    """Disk-backed store: ``snap-NNNNNN.json`` files plus ``journal.jsonl``.

    Snapshot writes are atomic (temp file + ``os.replace``) so a crash
    mid-write can never leave a half snapshot as the latest one.  Opening
    an existing directory loads its snapshots and journal — the cold-start
    (``serve --recover``) path.
    """

    def __init__(self, root) -> None:
        super().__init__()
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._journal_path = self.root / "journal.jsonl"
        for f in sorted(self.root.glob("snap-*.json")):
            doc = json.loads(f.read_text())
            self._snapshots[doc["id"]] = (doc["sha256"], doc["payload"])
            self._order.append(doc["id"])
        if self._journal_path.exists():
            self._journal = [
                line for line in self._journal_path.read_text().splitlines() if line
            ]

    def put_snapshot(self, payload: str) -> str:
        sid = super().put_snapshot(payload)
        doc = json.dumps(
            {"id": sid, "sha256": self._snapshots[sid][0], "payload": payload}
        )
        path = self.root / f"{sid}.json"
        tmp = self.root / f".{sid}.tmp"
        tmp.write_text(doc)
        os.replace(tmp, path)
        return sid

    def append_journal(self, record: dict) -> None:
        super().append_journal(record)
        with open(self._journal_path, "a") as fh:
            fh.write(self._journal[-1] + "\n")


# -- snapshot assembly ---------------------------------------------------------


def build_snapshot(engine, state, admission, t: float) -> dict:
    """Everything :meth:`ServingEngine.resume` needs, as plain JSON data."""
    plan = engine.fault_plan
    return {
        "version": SNAPSHOT_VERSION,
        "t": t,
        "world": dict(engine.world),
        **{key: getattr(engine, f"_{key}") for key in STEP_COUNTERS},
        "requests": [dataclasses.asdict(r) for r in state.requests],
        **state.export_state(),
        "cache": state.cache.export_state(),
        "fault_plan": plan.export_state() if plan is not None else None,
        "degrade": (
            engine._degrade.export_state() if engine._degrade is not None else None
        ),
        "fault_counters": dict(engine._fault_counters),
        "prefill_retries": {
            str(k): v for k, v in admission.prefill_retries.items()
        },
    }


class Journal:
    """Write-ahead log of the engine's externally visible transitions."""

    def __init__(self, engine, store: CheckpointStore):
        self.engine = engine
        self.store = store

    def _write(self, record: dict) -> None:
        self.store.append_journal(record)
        self.engine._count("ckpt_journal_records")

    def admit(self, req: int, t: float) -> None:
        self._write({"type": "admit", "req": req, "t": t})

    def token(self, req: int, gen: int, pos: int, token: int, t: float) -> None:
        self._write(
            {"type": "token", "req": req, "gen": gen, "pos": pos,
             "token": token, "t": t}
        )

    def finish(self, req: int, gen: int, t: float) -> None:
        self._write({"type": "finish", "req": req, "gen": gen, "t": t})

    def shed(self, req: int, gen: int, reason: str, t: float) -> None:
        self._write(
            {"type": "shed", "req": req, "gen": gen, "reason": reason, "t": t}
        )

    def snapshot_marker(self, snapshot_id: str, step: int, t: float) -> None:
        self._write(
            {"type": "snapshot", "snapshot": snapshot_id, "step": step, "t": t}
        )

    def recover(self, snapshot_id: str, t: float) -> None:
        self._write({"type": "recover", "snapshot": snapshot_id, "t": t})

    def complete(self, t: float) -> None:
        self._write({"type": "complete", "t": t})


class Checkpointer:
    """Takes periodic snapshots of a running engine into a store."""

    def __init__(self, engine, config: CheckpointConfig, store: CheckpointStore):
        self.engine = engine
        self.config = config
        self.store = store
        self.state = None
        self.admission = None
        self._last_step = engine._steps_done

    def on_step_end(self, t: float) -> None:
        """Cadence check, called once per executed engine step."""
        if self.engine._steps_done - self._last_step >= self.config.every_steps:
            self.snapshot(t, reason="periodic")

    def snapshot(self, t: float, reason: str) -> str:
        eng = self.engine
        payload = json.dumps(
            build_snapshot(eng, self.state, self.admission, t), sort_keys=True
        )
        sid = self.store.put_snapshot(payload)
        self._last_step = eng._steps_done
        eng._count("ckpt_snapshots")
        eng._fault_event(
            "ckpt", "committed", t,
            detail=f"{sid} ({reason}, step {eng._steps_done}, {len(payload)}B)",
        )
        if eng._journal is not None:
            eng._journal.snapshot_marker(sid, eng._steps_done, t)
        return sid


# -- recovery ------------------------------------------------------------------


class ReplayGuard:
    """Exactly-once verification of the journal's lost window.

    Holds the ``{(req, gen, pos): token}`` map journaled after the
    snapshot being recovered from.  As the resumed engine re-emits tokens
    it checks them off; a mismatch counts ``recover_token_divergence``
    (and traces a ``diverged`` event), a match ``recover_replayed_tokens``.
    When the window is exhausted the guard detaches itself from the
    engine, restoring the zero-overhead hot path.
    """

    def __init__(self, expected: Dict[Tuple[int, int, int], int]):
        self.expected = dict(expected)
        self.window_size = len(self.expected)
        self.engine = None  # attached by ServingEngine.resume

    def check(self, req: int, gen: int, pos: int, token: int, t: float) -> None:
        want = self.expected.pop((req, gen, pos), None)
        eng = self.engine
        if want is not None:
            if token == want:
                eng._count("recover_replayed_tokens")
            else:
                eng._count("recover_token_divergence")
                eng._fault_event(
                    "recover", "diverged", t, req_id=req,
                    detail=f"gen {gen} pos {pos}: journal says {want}, replay emitted {token}",
                )
        if not self.expected:
            eng._fault_event(
                "recover", "replayed", t,
                detail=f"journal window of {self.window_size} tokens re-verified",
            )
            eng._replay = None  # window done: back to the plain hot path


@dataclass
class RecoveredState:
    """What :class:`RecoveryManager.recover` hands to ``engine.resume``."""

    snapshot_id: str
    snapshot: dict
    requests: List[Request]
    cache: PagedKVCache
    replay: Optional[ReplayGuard]
    #: Pages that were corrupt at snapshot time; the engine's scrubber
    #: recomputes their owners on the first resumed step.
    corrupt_pages: List[int] = field(default_factory=list)


class RecoveryManager:
    """Load the latest snapshot, verify it, and prepare the resume.

    ``requests`` may re-supply the original workload; when omitted the
    request list serialized into the snapshot is used (snapshots are
    self-contained).  ``allow_recompute=False`` turns KV corruption found
    in the snapshot into a hard :class:`SnapshotVerificationError` even
    when the engine's recompute path could heal it.

    ``expected_world`` declares the cluster shape doing the recovering
    (any subset of ``{"tp", "dp", "replica"}``); a snapshot taken under a
    different shape raises :class:`WorldMismatchError` before any state is
    rebuilt.
    """

    def __init__(
        self,
        store: CheckpointStore,
        requests: Optional[Sequence[Request]] = None,
        allow_recompute: bool = True,
        expected_world: Optional[Dict[str, int]] = None,
    ):
        self.store = store
        self.requests = requests
        self.allow_recompute = allow_recompute
        self.expected_world = expected_world

    def latest_snapshot(self) -> Tuple[str, dict]:
        sid = self.store.latest_snapshot_id()
        if sid is None:
            raise NoSnapshotError(
                "checkpoint store holds no snapshot; nothing to recover from"
            )
        return sid, self.store.load_snapshot(sid)

    def recover(self) -> RecoveredState:
        sid, snap = self.latest_snapshot()
        if snap.get("version") != SNAPSHOT_VERSION:
            raise CheckpointError(
                f"snapshot {sid} has schema version {snap.get('version')}, "
                f"this build reads version {SNAPSHOT_VERSION}"
            )
        if self.expected_world is not None:
            check_world(sid, snapshot_world(snap), self.expected_world)
        if self.requests is not None:
            requests = sorted(self.requests, key=lambda r: r.arrival)
            if len(requests) != len(snap["requests"]):
                raise CheckpointError(
                    f"snapshot {sid} was taken serving {len(snap['requests'])} "
                    f"requests but {len(requests)} were supplied for recovery"
                )
        else:
            requests = [Request(**r) for r in snap["requests"]]

        # KV verification through the existing checksum machinery: rebuild
        # the page tables, then ask which live pages fail their checksum.
        cache = PagedKVCache.from_state(snap["cache"])
        corrupt = cache.find_corrupted()
        if corrupt and not (self.allow_recompute and cache.checksums):
            why = (
                "recovery ran with allow_recompute=False"
                if not self.allow_recompute
                else "the snapshot was taken with KV checksums disabled, so "
                     "the scrub/recompute path will not run"
            )
            raise SnapshotVerificationError(
                f"snapshot {sid} holds {len(corrupt)} corrupted KV pages "
                f"{corrupt} and they cannot be rebuilt ({why}); refusing to "
                f"resume from corrupt state"
            )

        # Journal replay: the token records after this snapshot's marker
        # are the lost window the resumed engine must re-emit verbatim.
        expected: Dict[Tuple[int, int, int], int] = {}
        collecting = False
        for rec in self.store.journal_records():
            if rec["type"] == "snapshot":
                collecting = rec["snapshot"] == sid
                if collecting:
                    expected = {}
            elif collecting and rec["type"] == "token":
                expected[(rec["req"], rec["gen"], rec["pos"])] = rec["token"]
        replay = ReplayGuard(expected) if expected else None
        return RecoveredState(
            snapshot_id=sid, snapshot=snap, requests=requests,
            cache=cache, replay=replay, corrupt_pages=corrupt,
        )


# -- kill/restore harness ------------------------------------------------------


#: Crashes one :func:`run_lives` loop survives before it calls the run a
#: kill/restore livelock.
MAX_CRASHES = 25


def run_lives(
    make_engine: Callable[[], object],
    requests: Sequence[Request],
    store: CheckpointStore,
    script: Sequence[Tuple[int, str]] = (),
    on_crash: Optional[Callable] = None,
) -> Tuple[ServingMetrics, List[str]]:
    """The one engine life loop: run → crash → recover → resume, to completion.

    ``make_engine`` builds one fresh engine per process "life", wired to
    the shared ``store`` (and, for seeded-random crashes, sharing one
    :class:`~repro.faults.FaultPlan` object across lives so the ``crash``
    RNG stream stays advanced past already-fired crashes).  The first life
    runs ``requests``; each :class:`~repro.faults.EngineCrash` ends a life
    and the next resumes from the store's latest snapshot
    (:class:`RecoveryManager`, journal replay included).

    ``script`` is a set of ``(step_index, phase)`` kills injected through
    the engine's scripted crash hook; fired entries are consumed so
    recovery cannot re-trip them.  ``on_crash(crash, recovered) ->
    (recovered, at_time)`` may relocate or delay the resume (the cluster
    failover path); without it the next life resumes in place at the
    snapshot's time.  More than :data:`MAX_CRASHES` crashes is a
    kill/restore livelock and raises.  Returns ``(metrics, crash_phases)``.
    """
    remaining = set(script)
    crash_phases: List[str] = []
    recovered = at_time = None
    while True:
        engine = make_engine()
        if remaining:
            engine._crash_script = set(remaining)
        try:
            if recovered is None:
                return engine.run(requests), crash_phases
            return engine.resume(recovered, at_time=at_time), crash_phases
        except EngineCrash as crash:
            crash_phases.append(crash.phase)
            remaining.discard((crash.step_index, crash.phase))
            if len(crash_phases) > MAX_CRASHES:
                raise RuntimeError(
                    f"kill/restore livelock: {len(crash_phases)} crashes "
                    f"exceeded MAX_CRASHES={MAX_CRASHES}"
                ) from crash
            recovered = RecoveryManager(store, requests=requests).recover()
            if on_crash is not None:
                recovered, at_time = on_crash(crash, recovered)


__all__ = [
    "SNAPSHOT_VERSION",
    "CheckpointConfig",
    "CheckpointError",
    "CheckpointStore",
    "Checkpointer",
    "DirectoryStore",
    "Journal",
    "NoSnapshotError",
    "RecoveredState",
    "RecoveryManager",
    "ReplayGuard",
    "SnapshotIntegrityError",
    "SnapshotVerificationError",
    "WorldMismatchError",
    "build_snapshot",
    "check_world",
    "run_lives",
    "snapshot_world",
]

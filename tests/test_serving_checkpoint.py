"""Tests for crash-safe serving: checkpoints, write-ahead journal, recovery.

The load-bearing property (ISSUE acceptance): a seeded workload interrupted
by injected engine deaths — including mid-step — and recovered from the
latest snapshot plus journal replay emits exactly the workload's
closed-form tokens (``expected_tokens``), and recovery *refuses* to resume
from a snapshot whose KV pages cannot be verified or rebuilt.
"""

import copy
import dataclasses
import json
from collections import defaultdict

import pytest

from repro.core import HeadConfig
from repro.faults import EngineCrash, FaultPlan, ResilienceConfig
from repro.gpu import H100_80G
from repro.serving import (
    CheckpointConfig,
    CheckpointStore,
    DirectoryStore,
    EngineConfig,
    FlashInferBackend,
    LLAMA_3_1_8B,
    NoSnapshotError,
    RecoveryManager,
    Request,
    ServingEngine,
    SnapshotIntegrityError,
    SnapshotVerificationError,
    expected_tokens,
    run_lives,
)
from repro.kvcache import PagedKVCache
from repro.serving.batching import RunState
from repro.serving.checkpoint import SNAPSHOT_VERSION, CheckpointError, Checkpointer

MODEL = LLAMA_3_1_8B
HEADS = HeadConfig(MODEL.num_qo_heads, MODEL.num_kv_heads, MODEL.head_dim)

#: Alternating boundary and mid-step kills (>= 1 mid-step, per acceptance).
SCRIPT = ((3, "boundary"), (7, "mid-step"), (11, "boundary"))


def engine(**kw):
    cfg = kw.pop("config", EngineConfig(max_running=64))
    return ServingEngine(
        MODEL, FlashInferBackend(HEADS, H100_80G), H100_80G, cfg, **kw
    )


def workload(n=8):
    return [
        Request(i * 0.004, 48 + 29 * (i % 4), 12 + 5 * (i % 3))
        for i in range(n)
    ]


def stressful_plan(seed, crash_rate=0.0):
    return FaultPlan(
        seed=seed,
        kernel_fault_rate=0.15,
        straggler_rate=0.05,
        corruption_rate=0.05,
        alloc_fault_rate=0.05,
        crash_rate=crash_rate,
    )


def crash_mid_run(store, reqs, script=((9, "boundary"),), fault_plan=None):
    """Run an engine until a scripted death; the store keeps its snapshots
    and journal, exactly like a killed process would leave on disk."""
    eng = engine(
        checkpoint=CheckpointConfig(every_steps=4),
        checkpoint_store=store,
        fault_plan=fault_plan,
    )
    eng._crash_script = set(script)
    with pytest.raises(EngineCrash):
        eng.run(reqs)


class TestKillRestore:
    def test_scripted_kills_recover_token_exact(self):
        reqs = workload()
        oracle = expected_tokens(reqs)
        store = CheckpointStore()

        def factory():
            return engine(
                checkpoint=CheckpointConfig(every_steps=4),
                checkpoint_store=store,
                resilience=ResilienceConfig(),
            )

        metrics, phases = run_lives(factory, reqs, store, script=SCRIPT)
        assert len(phases) == len(SCRIPT)
        assert "mid-step" in phases
        assert metrics.token_divergence(oracle) == (0, len(oracle))
        s = metrics.summary()
        assert s["ckpt_snapshots"] > 0
        assert s["recover_replayed_tokens"] > 0
        assert s["recover_token_divergence"] == 0
        assert s["recover_resumed"] > 0

    def test_kill_restore_composes_with_chaos(self):
        """Deaths on top of kernel faults, KV corruption, alloc failures
        and stragglers — every surviving stream still matches the
        workload's token oracle byte for byte."""
        reqs = workload(10)
        store = CheckpointStore()
        # One plan shared across lives keeps the crash stream advanced
        # past already-fired deaths; every other stream is rewound to the
        # snapshot by resume().
        shared = stressful_plan(7, crash_rate=0.02)

        def factory():
            return engine(
                checkpoint=CheckpointConfig(every_steps=4),
                checkpoint_store=store,
                fault_plan=shared,
            )

        metrics, phases = run_lives(factory, reqs, store, script=SCRIPT)
        assert len(phases) >= len(SCRIPT)
        divergent, compared = metrics.token_divergence(expected_tokens(reqs))
        assert divergent == 0
        assert compared > 0
        assert metrics.summary()["faults_injected"] > 0

    def test_crash_before_first_periodic_snapshot_uses_genesis(self):
        """A death at step 1 lands before any periodic snapshot; recovery
        falls back to the genesis snapshot taken before step 0."""
        reqs = workload()
        store = CheckpointStore()

        def factory():
            return engine(
                checkpoint=CheckpointConfig(every_steps=50),
                checkpoint_store=store,
            )

        metrics, phases = run_lives(factory, reqs, store, script=((1, "boundary"),))
        assert len(phases) == 1
        assert metrics.token_divergence(expected_tokens(reqs))[0] == 0

    def test_seeded_crash_without_checkpoint_kills_the_run(self):
        """The crash fault site is real death: with no checkpoint layer the
        run aborts instead of degrading into some partial recovery."""
        eng = engine(fault_plan=FaultPlan(seed=0, crash_rate=0.5))
        with pytest.raises(EngineCrash) as exc:
            eng.run(workload(4))
        assert exc.value.phase in ("boundary", "mid-step")

    def test_kill_restore_is_deterministic(self):
        reqs = workload()

        def campaign():
            store = CheckpointStore()

            def factory():
                return engine(
                    checkpoint=CheckpointConfig(every_steps=4),
                    checkpoint_store=store,
                )

            return run_lives(factory, reqs, store, script=SCRIPT)

        (a, a_phases), (b, b_phases) = campaign(), campaign()
        assert a_phases == b_phases
        assert [t.tokens for t in a.traces] == [t.tokens for t in b.traces]
        assert a.summary() == b.summary()


class TestColdStart:
    def test_directory_store_cold_start_recovers_token_exact(self, tmp_path):
        """Kill the 'process' (engine + store objects dropped), reopen the
        journal directory fresh, recover and resume — the snapshot is
        self-contained, no request list need be re-supplied."""
        reqs = workload()
        crash_mid_run(DirectoryStore(tmp_path), reqs, ((9, "mid-step"),))
        assert (tmp_path / "journal.jsonl").exists()
        assert sorted(tmp_path.glob("snap-*.json"))

        store = DirectoryStore(tmp_path)  # a new process opening the dir
        recovered = RecoveryManager(store).recover()
        assert [r.arrival for r in recovered.requests] == [
            r.arrival for r in reqs
        ]
        eng = engine(
            checkpoint=CheckpointConfig(every_steps=4), checkpoint_store=store
        )
        metrics = eng.resume(recovered)
        oracle = expected_tokens(reqs)
        assert metrics.token_divergence(oracle) == (0, len(oracle))
        stats = metrics.fault_stats
        assert stats["recover_token_divergence"] == 0
        assert stats["recover_replayed_tokens"] > 0

    def test_resume_traces_into_the_engines_own_tracer(self):
        from repro.obs import StepTracer

        reqs = workload()
        store = CheckpointStore()
        crash_mid_run(store, reqs)
        recovered = RecoveryManager(store, requests=reqs).recover()
        tracer = StepTracer()
        eng = engine(
            checkpoint=CheckpointConfig(every_steps=4), checkpoint_store=store,
            tracer=tracer,
        )
        metrics = eng.resume(recovered)
        assert tracer.num_steps > 0
        assert tracer.events[0].index == recovered.snapshot["event_index"]
        assert ("recover", "restored") in {(e.site, e.action) for e in tracer.fault_events}
        assert sum(len(t.tokens) for t in metrics.traces) == sum(
            r.output_len * r.n for r in reqs
        )

    def test_life_loop_gives_up_past_max_crashes(self):
        from repro.serving.checkpoint import MAX_CRASHES

        reqs = workload()
        store = CheckpointStore()
        kills = [(k, phase) for k in range(1, 14) for phase in ("boundary", "mid-step")]
        assert len(kills) == MAX_CRASHES + 1

        def factory():
            return engine(
                checkpoint=CheckpointConfig(every_steps=4), checkpoint_store=store
            )

        with pytest.raises(RuntimeError, match=f"exceeded MAX_CRASHES={MAX_CRASHES}"):
            run_lives(factory, reqs, store, script=kills)

    def test_recover_with_no_snapshot_refuses(self):
        with pytest.raises(NoSnapshotError):
            RecoveryManager(CheckpointStore()).recover()

    def test_bit_rotted_snapshot_fails_integrity(self):
        reqs = workload()
        store = CheckpointStore()
        crash_mid_run(store, reqs)
        store.corrupt_snapshot(store.latest_snapshot_id())
        with pytest.raises(SnapshotIntegrityError):
            RecoveryManager(store).recover()

    def test_recover_refuses_an_older_snapshot_schema(self):
        """A snapshot written by an earlier build is refused by its version
        — so no reader of a version-4 field needs a default for one that
        "was added later", or keeps one that was deleted."""
        store = CheckpointStore()
        crash_mid_run(store, workload())
        snap = store.load_snapshot(store.latest_snapshot_id())
        assert snap["version"] == SNAPSHOT_VERSION == 4
        snap["version"] = 3
        store.put_snapshot(json.dumps(snap, sort_keys=True))
        with pytest.raises(CheckpointError, match="version 3.*version 4"):
            RecoveryManager(store).recover()

    def test_recover_rejects_wrong_request_count(self):
        reqs = workload()
        store = CheckpointStore()
        crash_mid_run(store, reqs)
        with pytest.raises(Exception, match="requests"):
            RecoveryManager(store, requests=reqs[:-1]).recover()


class TestVerificationRefusal:
    def _crashed_snapshot(self, reqs):
        store = CheckpointStore()
        crash_mid_run(store, reqs)
        return store.load_snapshot(store.latest_snapshot_id())

    def _with_corrupt_page(self, snap):
        """Mark one live KV page corrupt (its checksum no longer matches),
        exactly what an undetected in-flight corruption looks like."""
        snap = json.loads(json.dumps(snap))
        live = sorted(int(p) for p in snap["cache"]["refcount"])
        assert live, "crash left no live pages; pick an earlier crash step"
        snap["cache"]["corrupt"].append(live[0])
        return snap, live[0]

    def test_refuses_when_checksums_were_disabled(self):
        snap, _ = self._with_corrupt_page(self._crashed_snapshot(workload()))
        snap["cache"]["checksums"] = False
        store = CheckpointStore()
        store.put_snapshot(json.dumps(snap, sort_keys=True))
        with pytest.raises(SnapshotVerificationError, match="refusing"):
            RecoveryManager(store).recover()

    def test_refuses_when_recompute_disallowed(self):
        snap, page = self._with_corrupt_page(self._crashed_snapshot(workload()))
        store = CheckpointStore()
        store.put_snapshot(json.dumps(snap, sort_keys=True))
        with pytest.raises(SnapshotVerificationError, match=str(page)):
            RecoveryManager(store, allow_recompute=False).recover()

    def test_recompute_path_heals_corrupt_snapshot_pages(self):
        """With checksums on, recovery accepts the corrupt snapshot and the
        engine's own scrub/recompute path rebuilds the page — the resumed
        run still matches the workload's token oracle."""
        reqs = workload()
        snap, page = self._with_corrupt_page(self._crashed_snapshot(reqs))
        store = CheckpointStore()
        store.put_snapshot(json.dumps(snap, sort_keys=True))
        recovered = RecoveryManager(store).recover()
        assert recovered.corrupt_pages == [page]
        eng = engine(
            checkpoint=CheckpointConfig(every_steps=4), checkpoint_store=store
        )
        metrics = eng.resume(recovered)
        oracle = expected_tokens(reqs)
        assert metrics.token_divergence(oracle) == (0, len(oracle))


class TestDisabledIsFree:
    def test_disabled_checkpoint_is_bit_identical_to_plain_run(self):
        """``every_steps=0`` (the default) must be indistinguishable from
        an engine that never heard of checkpointing."""
        reqs = workload()
        plain = engine().run(reqs)
        off = engine(checkpoint=CheckpointConfig(every_steps=0)).run(reqs)
        assert off.summary() == plain.summary()

        eng = engine(checkpoint=CheckpointConfig(every_steps=0))
        assert eng.checkpoint is None
        assert eng.resilience is None  # not even the implied default
        eng.run(reqs)
        assert eng._ckpt is None and eng._journal is None

    def test_disabled_checkpoint_identical_under_resilience(self):
        reqs = workload()
        a = engine(resilience=ResilienceConfig()).run(reqs)
        b = engine(
            resilience=ResilienceConfig(),
            checkpoint=CheckpointConfig(every_steps=0),
        ).run(reqs)
        assert a.summary() == b.summary()
        assert [t.tokens for t in a.traces] == [t.tokens for t in b.traces]

    def test_checkpointing_on_does_not_perturb_the_trajectory(self):
        """Snapshots observe the engine; they never advance its clock or
        reorder its work."""
        reqs = workload()
        a = engine(resilience=ResilienceConfig()).run(reqs)
        b = engine(checkpoint=CheckpointConfig(every_steps=2)).run(reqs)
        assert [t.tokens for t in a.traces] == [t.tokens for t in b.traces]
        sa, sb = a.summary(), b.summary()
        for key in ("median_itl", "median_ttft", "p99_ttft", "throughput_tok_s"):
            assert sa[key] == sb[key]
        assert sb["ckpt_snapshots"] > 0


class TestJournal:
    def test_journal_is_a_complete_audit(self):
        reqs = workload()
        store = CheckpointStore()
        metrics = engine(
            checkpoint=CheckpointConfig(every_steps=4), checkpoint_store=store
        ).run(reqs)
        recs = store.journal_records()
        by_type = {}
        for r in recs:
            by_type.setdefault(r["type"], []).append(r)
        assert len(by_type["admit"]) == len(reqs)
        assert len(by_type["finish"]) == len(reqs)
        assert len(by_type["token"]) == sum(r.output_len for r in reqs)
        assert len(by_type["snapshot"]) == int(
            metrics.summary()["ckpt_snapshots"]
        )
        assert len(by_type["complete"]) == 1
        assert metrics.summary()["ckpt_journal_records"] == len(recs)

    def test_tampered_journal_surfaces_as_divergence(self):
        """The replay guard is a real check: corrupt one journaled token
        and the resumed run reports exactly one divergence."""
        reqs = workload()
        store = CheckpointStore()
        crash_mid_run(store, reqs)
        sid = store.latest_snapshot_id()
        recs = store.journal_records()
        marker = max(
            i for i, r in enumerate(recs)
            if r["type"] == "snapshot" and r["snapshot"] == sid
        )
        idx = next(
            i for i in range(marker + 1, len(recs))
            if recs[i]["type"] == "token"
        )
        recs[idx]["token"] += 1
        store._journal[idx] = json.dumps(recs[idx], sort_keys=True)

        recovered = RecoveryManager(store).recover()
        window = recovered.replay.window_size
        assert window > 0
        eng = engine(
            checkpoint=CheckpointConfig(every_steps=4), checkpoint_store=store
        )
        stats = eng.resume(recovered).fault_stats
        assert stats["recover_token_divergence"] == 1
        assert stats["recover_replayed_tokens"] == window - 1


class TestRecoveryMetrics:
    def test_recover_resumed_is_separate_from_preemptions(self):
        """Dashboards must not conflate capacity eviction with restart
        recovery: the two counters move independently."""
        reqs = workload()
        clean = engine(resilience=ResilienceConfig()).run(reqs)
        assert clean.summary()["recover_resumed"] == 0

        store = CheckpointStore()

        def factory():
            return engine(
                checkpoint=CheckpointConfig(every_steps=4),
                checkpoint_store=store,
            )

        metrics, _ = run_lives(factory, reqs, store, script=((7, "boundary"),))
        s = metrics.summary()
        assert s["recover_resumed"] > 0
        assert s["recover_resumed"] == metrics.recover_resumed
        # Recovery resumed streams without charging a single preemption.
        assert metrics.preemptions == clean.preemptions


def key_sets(node, path: str, out: dict) -> dict:
    """Every dict's keys in ``node`` by path (``[]`` for a list's elements)."""
    if isinstance(node, dict):
        out[path] |= node.keys()
        for key, value in node.items():
            key_sets(value, f"{path}.{key}".lstrip("."), out)
    elif isinstance(node, list):
        for value in node:
            key_sets(value, f"{path}[]", out)
    return out


TRACE = {"arrival", "first_token_time", "token_times", "req_id", "gen_index",
         "outcome", "outcome_reason", "tokens"}
STREAM = {"req_idx", "seq_id", "remaining", "trace", "resume_len", "gen_index",
          "retries", "deadline"}

#: The snapshot schema of version 4, section by section.  The run-state
#: records are the state dataclasses' fields, so a new field changes this
#: set; bump :data:`SNAPSHOT_VERSION` (recovery refuses other versions)
#: together with the pin.
SCHEMA_V4 = {
    "": {"version", "t", "world", "steps_done", "event_index", "step_prefix_hits",
         "step_radix_hit_tokens", "requests", "run_state", "cache", "metrics",
         "fault_plan", "degrade", "fault_counters", "prefill_retries"},
    "world": {"tp", "dp", "replica"},
    "requests[]": {"arrival", "prompt_len", "output_len", "n", "prefix_group",
                   "prefix_len", "deadline", "priority", "tenant", "rid"},
    "run_state": {"waiting", "prefill_queue", "streams", "prefilling", "preempted",
                  "radix"},
    "run_state.streams[]": STREAM,
    "run_state.streams[].trace": TRACE,
    "run_state.preempted[]": STREAM,
    "run_state.preempted[].trace": TRACE,
    "run_state.prefilling[]": {"req_idx", "seq_id", "filled"},
    "run_state.radix": {"clock", "root"},
    "cache": {"num_pages", "page_size", "num_kv_heads", "head_dim", "materialized",
              "checksums", "fresh", "recycled", "refcount", "seqs", "next_seq_id",
              "corrupt"},
    "metrics": {"traces", "shed_traces", "total_time", "total_output_tokens",
                "preemptions", "recover_resumed", "radix_hit_tokens",
                "radix_hit_prompts", "cascade_steps", "cascade_bytes_saved"},
    "metrics.traces[]": TRACE,
    "metrics.shed_traces[]": TRACE,
    "degrade": {"degraded", "fault_strikes", "clean_streak"},
}


class TestSnapshotSchema:
    @pytest.fixture(scope="class")
    def snapshots(self):
        """Every snapshot of a short run whose state fills every section —
        live streams, a partial prefill, preempted streams, a shed trace
        and the radix tree — each with a copy of the live state taken."""
        live = []
        snapshot = Checkpointer.snapshot

        def recording(ckpt, t, reason):
            s = ckpt.state
            live.append(copy.deepcopy((s.streams, s.prefilling, s.preempted, s.metrics)))
            return snapshot(ckpt, t, reason)

        reqs = [
            Request(i * 0.001, 320, 24, prefix_group=0 if i < 2 else None,
                    prefix_len=160 if i < 2 else 0, deadline=0.15 if i == 5 else None)
            for i in range(6)
        ]
        store = CheckpointStore()
        cfg = EngineConfig(max_running=64, num_pool_pages=64, chunked_prefill=True,
                           prefill_chunk_size=256, prefix_cache=True)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Checkpointer, "snapshot", recording)
            engine(config=cfg, checkpoint=CheckpointConfig(every_steps=1),
                   checkpoint_store=store).run(reqs)
        return [(store.load_snapshot(sid), state) for sid, state in zip(store._order, live)]

    def test_a_json_round_trip_restores_the_live_state(self, snapshots):
        def records(items):
            return [dataclasses.asdict(x) for x in items]

        full = 0
        for snap, (streams, prefilling, preempted, metrics) in snapshots:
            requests = [Request(**r) for r in snap["requests"]]
            state = RunState.from_state(snap, requests, PagedKVCache.from_state(snap["cache"]))
            assert records(state.streams) == records(streams)
            assert records(state.prefilling) == records(prefilling)
            assert records(state.preempted) == records(preempted)
            assert state.metrics == metrics
            full += bool(streams and prefilling and preempted)
        assert full > 0

    def test_the_key_set_is_pinned_to_the_version(self, snapshots):
        keys = defaultdict(set)
        for snap, _ in snapshots:
            key_sets(snap, "", keys)
        assert SNAPSHOT_VERSION == 4
        assert {path: keys[path] for path in SCHEMA_V4} == SCHEMA_V4

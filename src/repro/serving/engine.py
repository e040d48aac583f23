"""Continuous-batching LLM serving engine (the §4.1/§4.3/§4.4 harness).

A minimal Orca/SGLang-style engine over the simulated GPU, decomposed into
a pipeline of small layers that communicate through an explicit
:class:`~repro.serving.batching.StepPlan` IR — mirroring the paper's own
separation of *planning* from *execution* (§3.4)::

    AdmissionController → FCFSPolicy → BatchFormer → [PlanCache]
        → StepExecutor → Postprocessor

* :class:`~repro.serving.admission.AdmissionController` — queueing,
  capacity fits, deadlines, shedding, transient-alloc requeue.
* :class:`~repro.serving.policy.FCFSPolicy` — the admitted prefill
  queue's order (arrival order, the classic engine token-for-token).
* :class:`~repro.serving.batching.BatchFormer` — turns admitted work into
  one :class:`~repro.serving.batching.StepPlan` per step (prefill chunks,
  decode set, resume set, page-table deltas).
* :class:`~repro.serving.plan_cache.PlanCache` — one CPU ``plan()`` per
  step stands for every layer's launch (the plan/run split, §3.3.1);
  the memo across *steps* rarely hits (measured 0.02–0.08 — a step's
  page tables almost always differ from the last one's).
* :class:`~repro.serving.executor.StepExecutor` — prices the plan through
  the backend; owns kernel fault-retry and degrade hooks.
* :class:`~repro.serving.executor.Postprocessor` — token recording,
  finish/fork, metrics and trace emission.

Per-step time is ``layers × (attention(backend) + GEMMs(roofline) +
allreduce(TP)) + LM head + framework overhead`` with only the attention
term differing across backends — isolating exactly the variable the
paper's end-to-end experiments vary.

Resilience (``fault_plan``/``resilience``): with a
:class:`repro.faults.FaultPlan` attached the engine injects transient
kernel faults, CTA stragglers, KV-page corruption and page-allocation
hiccups, and recovers via bounded retry-with-recompute, deadlines with
youngest-first load shedding, and graceful degradation to the dense
baseline backend (see :class:`repro.faults.recover.KVScrubber` and the
executor).  With neither argument set every fault-path guard is a single
``is None`` check and the step loop is unchanged.

Numerics: handed a :class:`repro.models.TinyTransformer` instead of a
:class:`~repro.serving.model.ModelConfig`, the engine emits the model's
tokens, its stacks run with ``compute=True`` in every layer over a
materialized KV cache.

Durability (``checkpoint``/``checkpoint_store``): with a
:class:`~repro.serving.checkpoint.CheckpointConfig` attached the engine
takes periodic snapshots and write-ahead-journals every admission, token
and finish; after a crash (the fault plan's ``crash`` site, or a scripted
kill) :meth:`ServingEngine.resume` continues token-exactly from a
:class:`~repro.serving.checkpoint.RecoveredState`.  Disabled (the
default) it adds nothing to the hot path — the same single ``is None``
discipline as the fault layer.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.cluster.tp import plan_tp_sharding
from repro.faults.inject import EngineCrash
from repro.faults.plan import FaultPlan
from repro.faults.recover import DegradeController, KVScrubber, ResilienceConfig
from repro.gpu.spec import GPUSpec
from repro.kvcache.paged import OutOfPagesError, PagedKVCache
from repro.kvcache.radix import RadixTree
from repro.obs.events import FaultEvent
from repro.obs.tracer import StepTracer
from repro.serving.admission import AdmissionController
from repro.serving.backends import AttentionBackend, FlashInferBackend
from repro.serving.batching import BatchFormer, RunState
from repro.serving.checkpoint import (
    CheckpointConfig,
    Checkpointer,
    CheckpointStore,
    Journal,
    RecoveredState,
    STEP_COUNTERS,
    check_world,
    snapshot_world,
)
from repro.serving.executor import Postprocessor, StepExecutor
from repro.serving.metrics import ServingMetrics
from repro.serving.model import ModelConfig
from repro.serving.plan_cache import PlanCache
from repro.serving.policy import FCFSPolicy
from repro.serving.workload import Request
from repro.utils.dtypes import StorageDType


#: Tokens per KV page of the engine's pool.
PAGE_SIZE = 16


@dataclass
class EngineConfig:
    """Engine policy knobs.  Only a field a program sets or a test needs
    stays a field (``tests/test_knobs.py``); the rest are constants."""

    max_running: int = 128  # concurrent decode streams
    max_prefill_tokens: int = 8192  # token budget per prefill batch
    tensor_parallel: int = 1
    num_pool_pages: int = 1 << 16
    composable: bool = False  # composable formats for fork groups (§4.4)
    #: Sarathi-serve-style chunked prefill: prompts are prefilled in
    #: ``prefill_chunk_size``-token chunks piggybacked onto decode steps,
    #: bounding the ITL spikes long prompts otherwise cause (§5.4).
    chunked_prefill: bool = False
    prefill_chunk_size: int = 512
    #: Automatic longest-prefix caching over prompt *token ids* via the
    #: :class:`repro.kvcache.radix.RadixTree` (§5.4, RadixAttention): on
    #: admission the longest cached page-aligned prefix is looked up and
    #: skipped; on prefill completion the prompt's whole pages are
    #: inserted, with LRU eviction under pool pressure.  Needs no
    #: ``prefix_group`` annotation to find sharing (a declared group only
    #: shapes the prompt's token ids), and combines with ``composable`` to
    #: serve shared prefixes through the multi-level cascade (§3.1.2).
    prefix_cache: bool = False
    #: Memoize wrapper ``plan()`` results across layers and steps (the
    #: plan/run split, §3.3.1/§3.4).  Never changes simulated results —
    #: a hit returns a plan identical to the one it replaces.
    plan_cache: bool = True

    def __post_init__(self) -> None:
        for name in ("max_running", "max_prefill_tokens", "tensor_parallel",
                     "num_pool_pages", "prefill_chunk_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")


class ServingEngine:
    """Simulated continuous-batching server."""

    def __init__(
        self,
        model: ModelConfig,
        backend: AttentionBackend,
        gpu: GPUSpec,
        config: Optional[EngineConfig] = None,
        tracer: Optional[StepTracer] = None,
        fault_plan: Optional[FaultPlan] = None,
        resilience: Optional[ResilienceConfig] = None,
        checkpoint: Optional[CheckpointConfig] = None,
        checkpoint_store: Optional[CheckpointStore] = None,
        interconnect=None,
    ):
        #: The model whose weights compute every token (a ``TinyTransformer``,
        #: its ``config`` pricing the steps), or ``None``: cost-only, where a
        #: token is :func:`~repro.serving.batching.token_id`'s hash.
        self.numerics = model if hasattr(model, "weights") else None
        self.model = model if self.numerics is None else model.config
        self.backend = backend
        self.gpu = gpu
        self.config = config or EngineConfig()
        #: Optional :class:`repro.cluster.tp.TPInterconnect`: prices the
        #: per-layer tensor-parallel all-reduces on a cluster
        #: :class:`~repro.cluster.topology.Topology` instead of the flat
        #: NVLink-bus constants, and charges the traffic to the topology's
        #: utilization counters.  ``None`` (the default) keeps the
        #: pre-cluster cost model bit for bit.
        self.interconnect = interconnect
        #: Data-parallel identity, set by the cluster engine; together
        #: with ``config.tensor_parallel`` this is the engine's ``world``
        #: stamped into checkpoints (single-GPU: tp=1, dp=1, replica=0).
        self.dp_world = 1
        self.dp_rank = 0
        #: Optional :class:`repro.obs.StepTracer`; when ``None`` the step
        #: loop allocates no event objects (a single ``is None`` check).
        self.tracer = tracer
        #: Fault-injection schedule; attaching one implies a default
        #: :class:`ResilienceConfig` unless ``resilience`` is also given.
        self.fault_plan = fault_plan
        #: Checkpoint cadence; attaching one (with ``every_steps > 0``)
        #: also implies a default :class:`ResilienceConfig` — crash
        #: recovery is a resilience feature (journaled tokens come from
        #: its token recording, KV healing from the checksum scrub path).
        if checkpoint is not None and checkpoint.every_steps <= 0:
            checkpoint = None
        self.checkpoint = checkpoint
        self.checkpoint_store = checkpoint_store
        if resilience is None and (fault_plan is not None or checkpoint is not None):
            resilience = ResilienceConfig()
        self.resilience = resilience
        if self.numerics is not None and (
            self.config.tensor_parallel > 1 or not isinstance(backend, FlashInferBackend)
            or resilience is not None or interconnect is not None
        ):
            raise ValueError("a model that computes tokens runs on one GPU of a FlashInferBackend, "
                             "with no fault plan, resilience, checkpointing or cluster")
        #: Optional per-step liveness callback ``heartbeat(t)``, installed
        #: by the cluster failover layer; fired after each executed step.
        #: ``None`` (the default) keeps the step loop untouched.
        self.heartbeat = None
        #: Optional :class:`repro.serving.overload.BrownoutController`,
        #: installed by the cluster engine on overload runs.  When set, the
        #: step loop feeds it one admission-saturation sample per step and
        #: the batch former / executor consult its active rungs (chunk
        #: shrink, cascade disable, token clamp, priority shed).  ``None``
        #: (the default) keeps every consumer a single ``is None`` check.
        self.brownout = None
        #: Disaggregated-serving hooks, installed by the cluster engine's
        #: disagg mode (:mod:`repro.cluster.disagg`).  ``role`` names this
        #: replica's pool (``"prefill"`` / ``"decode"``) and rides into the
        #: checkpoint ``world``; ``handoff_sink`` intercepts decode-stream
        #: spawns on prefill replicas; ``_handoff_imports`` maps request
        #: index → the shipped :class:`~repro.cluster.disagg.KVHandoff`
        #: list a decode replica absorbs instead of prefilling.  All
        #: ``None`` by default — plain runs are untouched.
        self.role: Optional[str] = None
        self.handoff_sink = None
        self._handoff_imports: Optional[dict] = None
        self._tracer: Optional[StepTracer] = None
        self._event_index = 0
        self._steps_done = 0
        self._step_prefix_hits = 0
        self._step_radix_hit_tokens = 0
        self._step_cascade_levels = 0
        # Crash-recovery state, all ``None``/``False`` on the plain path.
        self._ckpt: Optional[Checkpointer] = None
        self._journal: Optional[Journal] = None
        self._replay = None
        #: Scripted kills ``{(step_index, phase)}`` installed by
        #: :func:`~repro.serving.checkpoint.run_lives`; fired entries are
        #: consumed so recovery cannot re-trip them.
        self._crash_script: Optional[set] = None
        self._crash_armed = False
        # Run-scoped resilience state.  ``_degrade is None`` ⇔ plain run:
        # it is the single sentinel every fault-path guard checks.
        self._degrade: Optional[DegradeController] = None
        self._fallback_backend: Optional[AttentionBackend] = None
        self._fault_counters: Dict[str, int] = {}
        self._taint = False
        self._deadlines_active = False
        #: The KV cache of the run in progress (or the last one).
        self.cache: Optional[PagedKVCache] = None
        self.heads = plan_tp_sharding(self.model, self.config.tensor_parallel).shard_heads
        if backend.heads != self.heads:
            raise ValueError(
                f"backend heads {backend.heads} != engine shard heads {self.heads}; "
                f"construct the backend with the per-shard head config"
            )
        #: The admitted prefill queue's order.
        self._policy = FCFSPolicy()
        #: Plan memo shared with the backend's wrappers: one lookup per
        #: step stands for every layer's launch (§3.3.1).
        self.plan_cache: Optional[PlanCache] = PlanCache() if self.config.plan_cache else None
        if self.plan_cache is not None:
            backend.set_plan_cache(self.plan_cache)

    @classmethod
    def from_config(
        cls,
        config: Optional[EngineConfig] = None,
        *,
        model: Optional[ModelConfig] = None,
        gpu: Optional[GPUSpec] = None,
        backend_factory=None,
        **kwargs,
    ) -> "ServingEngine":
        """The one construction path shared by the CLI, benchmarks and tests.

        ``model`` is a :class:`ModelConfig`, or a ``TinyTransformer`` whose
        tokens the engine computes.  Builds the per-shard head config from
        ``config.tensor_parallel`` and a matching backend
        (``backend_factory(heads, gpu)``, default
        :class:`~repro.serving.backends.FlashInferBackend`).  Remaining
        keyword arguments (``tracer``, ``fault_plan``, ``checkpoint``,
        ``interconnect``, ...) pass through to the constructor.
        """
        from repro.gpu.spec import H100_80G
        from repro.serving.model import LLAMA_3_1_8B

        cfg = config if config is not None else EngineConfig()
        model = model if model is not None else LLAMA_3_1_8B
        gpu = gpu if gpu is not None else H100_80G
        factory = backend_factory if backend_factory is not None else FlashInferBackend
        heads = plan_tp_sharding(getattr(model, "config", model), cfg.tensor_parallel).shard_heads
        return cls(model, factory(heads, gpu), gpu, cfg, **kwargs)

    # -- shared hooks (used by every pipeline layer) ----------------------------

    @property
    def world(self) -> Dict[str, object]:
        """Cluster shape this engine runs in (stamped into snapshots).

        Under disaggregated serving the replica's pool rides along as a
        ``role`` key; colocated worlds omit it.
        """
        world: Dict[str, object] = {
            "tp": self.config.tensor_parallel,
            "dp": self.dp_world,
            "replica": self.dp_rank,
        }
        if self.role is not None:
            world["role"] = self.role
        return world

    def _count(self, key: str, n: int = 1) -> None:
        self._fault_counters[key] = self._fault_counters.get(key, 0) + n

    def _fault_event(
        self, site: str, action: str, t: float, req_id: int = -1, detail: str = ""
    ) -> None:
        if self._tracer is not None:
            self._tracer.on_fault(
                FaultEvent(
                    site=site, action=action, t=t,
                    step_index=self._event_index, req_id=req_id, detail=detail,
                )
            )

    def _emit_token(self, idx: int, gen: int, pos: int, tok: int, t: float) -> None:
        """One recorded token leaves the engine: write-ahead-journal it and
        check it against the replay window of the crash being recovered."""
        if self._journal is not None:
            self._journal.token(idx, gen, pos, tok, t)
        if self._replay is not None:
            self._replay.check(idx, gen, pos, tok, t)

    def _note_shed(self, idx: int, gen: int, reason: str, t: float) -> None:
        """Account one shed generation: counter, fault event, journal."""
        self._count("sheds")
        self._fault_event(reason, "shed", t, req_id=idx, detail=f"gen {gen}")
        if self._journal is not None:
            self._journal.shed(idx, gen, reason, t)

    def _deadline_for(self, req: Request) -> Optional[float]:
        rel = req.deadline if req.deadline is not None else self.resilience.deadline
        return None if rel is None else req.arrival + rel

    def _step_is_degraded(self) -> bool:
        return self._degrade is not None and self._degrade.degraded

    def _chunk_budget(self) -> int:
        """Prefill chunk budget for this step: the configured size, shrunk
        by the brownout ladder's first rung while it is engaged."""
        budget = self.config.prefill_chunk_size
        if self.brownout is not None:
            budget = self.brownout.chunk_budget(budget)
        return budget

    def _brownout_step(self, state, admission, t: float) -> None:
        """Feed the brownout controller one saturation sample and apply its
        shed rung; called once per step, only when a controller is set."""
        bo = self.brownout
        sat = (len(state.streams) + len(state.prefill_queue)) / self.config.max_running
        delta = bo.observe(sat, t)
        if delta:
            self._fault_event(
                "brownout", "engaged" if delta > 0 else "annealed", t,
                detail=f"level {bo.level} ({bo.rung_name}), sat {sat:.2f}",
            )
        if bo.shed_active:
            requests = state.requests
            for idx in [
                i for i in state.prefill_queue
                if requests[i].priority < bo.config.shed_priority_below
            ]:
                state.prefill_queue.remove(idx)
                admission.shed_request(requests[idx], idx, t, "brownout")

    def _fault_stats(self, plan: Optional[FaultPlan], metrics: ServingMetrics) -> Dict[str, float]:
        c = self._fault_counters
        stats = {
            "faults_injected": float(plan.total_injected) if plan is not None else 0.0,
            "kernel_faults": float(c.get("kernel_faults", 0)),
            "alloc_faults": float(c.get("alloc_faults", 0)),
            "retries": float(c.get("retries", 0)),
            "sheds": float(metrics.sheds),
            "degraded_steps": float(c.get("degraded_steps", 0)),
            "checksum_failures": float(c.get("checksum_failures", 0)),
            "watchdog_flags": float(c.get("watchdog_flags", 0)),
        }
        if self._ckpt is not None:
            stats["ckpt_snapshots"] = float(c.get("ckpt_snapshots", 0))
            stats["ckpt_journal_records"] = float(c.get("ckpt_journal_records", 0))
            stats["recover_replayed_tokens"] = float(
                c.get("recover_replayed_tokens", 0)
            )
            stats["recover_token_divergence"] = float(
                c.get("recover_token_divergence", 0)
            )
        return stats

    # -- crash injection / run set-up -------------------------------------------

    def _maybe_crash(self, t: float, phase: str) -> None:
        """Consult the crash sources for this (step, phase); called only
        when a source is armed.  ``phase`` is ``"boundary"`` (top of the
        step loop) or ``"mid-step"`` (after execute, before finalize)."""
        script = self._crash_script
        if script is not None and (self._steps_done, phase) in script:
            script.discard((self._steps_done, phase))
            self._fault_event(
                "crash", "injected", t,
                detail=f"scripted kill, step {self._steps_done} {phase}",
            )
            raise EngineCrash(t, self._steps_done, phase)
        plan = self.fault_plan
        if plan is not None and plan.armed("crash") and plan.fire("crash"):
            self._fault_event(
                "crash", "injected", t,
                detail=f"seeded kill, step {self._steps_done} {phase}",
            )
            raise EngineCrash(t, self._steps_done, phase)

    def _start(
        self, state: RunState, t: float, snap: Optional[dict] = None,
        tracer: Optional[StepTracer] = None, replay=None,
    ) -> AdmissionController:
        """The per-run set-up :meth:`run` and :meth:`resume` share.  A fresh
        run (``snap`` is ``None``) starts its counters, degrade controller
        and fault plan from zero and takes the genesis snapshot; a resumed
        run restores them from the snapshot ``snap``.  A request wider than
        ``max_running`` is refused: its streams could never all be admitted."""
        for i, r in enumerate(state.requests):  # named as its tokens are keyed
            if r.n > self.config.max_running:
                raise ValueError(f"request {i if r.rid is None else r.rid}: n={r.n} > "
                                 f"max_running={self.config.max_running}")
        resil = self.resilience
        plan = self.fault_plan
        self._tracer = tracer if tracer is not None else self.tracer
        self.backend.collect_kernel_reports = (
            self._tracer is not None and self._tracer.capture_kernels
        )
        for key in STEP_COUNTERS:
            setattr(self, f"_{key}", int(snap[key]) if snap is not None else 0)
        self._step_cascade_levels = 0
        self._degrade = None
        if resil is not None:
            self._degrade = DegradeController(resil.anneal_after)
            if snap is not None and snap["degrade"] is not None:
                self._degrade.import_state(snap["degrade"])
            self._fault_counters = {} if snap is None else {
                k: int(v) for k, v in snap["fault_counters"].items()
            }
            self._taint = plan is not None and not resil.checksums
            self._deadlines_active = resil.deadline is not None or any(
                r.deadline is not None for r in state.requests
            )
            if plan is not None and snap is None:
                plan.reset()
            elif plan is not None and snap["fault_plan"] is not None:
                plan.import_state(snap["fault_plan"], skip=("crash",))
            self.backend.set_fault_injector(plan)
            state.cache.fault_injector = plan
        # A fault plan always comes with a resilience config (``__init__``).
        self._crash_armed = self._crash_script is not None or (
            plan is not None and plan.armed("crash")
        )
        self.cache = state.cache
        admission = AdmissionController(self, state)
        if snap is not None:
            admission.prefill_retries = {
                int(k): int(v) for k, v in snap["prefill_retries"].items()
            }
        self._replay = replay
        if replay is not None:
            replay.engine = self
        self._journal = self._ckpt = None
        if self.checkpoint is not None:
            if self.checkpoint_store is None:
                self.checkpoint_store = CheckpointStore()
            self._ckpt = Checkpointer(self, self.checkpoint, self.checkpoint_store)
            self._ckpt.state, self._ckpt.admission = state, admission
            self._journal = Journal(self, self.checkpoint_store)
            if snap is None:
                # Step-0 snapshot: recovery always has a base, even for a
                # crash before the first periodic snapshot lands.
                self._ckpt.snapshot(t, reason="genesis")
        return admission

    # -- main loop --------------------------------------------------------------

    def run(
        self, requests: Sequence[Request], tracer: Optional[StepTracer] = None
    ) -> ServingMetrics:
        """Serve ``requests`` to completion; returns latency metrics.

        ``tracer`` (or the one passed at construction) receives one
        :class:`repro.obs.StepEvent` per step; with no tracer the loop runs
        exactly as before — no event objects are allocated.
        """
        cfg = self.config
        requests = sorted(requests, key=lambda r: r.arrival)
        # With numerics one pool carries every layer's KV on its head axis.
        layers = 1 if self.numerics is None else self.model.num_layers
        cache = PagedKVCache(
            cfg.num_pool_pages, PAGE_SIZE, layers * self.heads.num_kv_heads,
            self.heads.head_dim, materialize=self.numerics is not None,
            checksums=self.resilience is not None and self.resilience.checksums,
            dtype=StorageDType.FP16 if self.numerics is None else self.numerics.kv_dtype,
        )
        state = RunState(
            requests=requests, cache=cache, metrics=ServingMetrics(),
            waiting=deque(range(len(requests))),
            radix=RadixTree(cache) if cfg.prefix_cache else None,
        )
        admission = self._start(state, 0.0, tracer=tracer)
        return self._serve(state, admission, t=0.0)

    def resume(
        self,
        recovered: RecoveredState,
        at_time: Optional[float] = None,
    ) -> ServingMetrics:
        """Continue a crashed run from a recovered snapshot, token-exactly.

        The snapshot is restored verbatim — queues, live streams, page
        tables (including pages that were corrupt at snapshot time, which
        the scrub/recompute path heals on the next step exactly as an
        uninterrupted run would have), metrics, the degrade state machine
        and every fault-RNG stream *except* ``crash``, which stays live so
        the crash being recovered from does not re-fire.  The journal's
        lost window rides along as a replay guard verifying every
        re-emitted token against what was journaled before the crash.

        ``at_time`` resumes no earlier than the given simulated time (the
        cluster failover path: detection delay plus KV migration happened
        between the snapshot and the takeover).  Later timing changes
        batching, never tokens — token ids are a pure function of
        ``(request, generation, position)``.
        """
        if self.resilience is None:
            raise ValueError(
                "resume() requires a resilience config; crash recovery is a "
                "resilience feature (construct the engine with checkpoint= "
                "or resilience=)"
            )
        snap = recovered.snapshot
        # Refuse a snapshot from a different cluster shape: its per-shard
        # KV page tables don't fit this head partitioning.
        check_world(
            recovered.snapshot_id, snapshot_world(snap),
            {"role": None, **self.world},
        )
        # Snapshot order is arrival-sorted.
        state = RunState.from_state(snap, recovered.requests, recovered.cache)
        state.metrics.recover_resumed += len(state.streams) + len(state.preempted)
        t = float(snap["t"])
        if at_time is not None:
            t = max(t, float(at_time))
        admission = self._start(state, t, snap=snap, replay=recovered.replay)
        self._fault_event(
            "recover", "restored", t,
            detail=(
                f"snapshot {recovered.snapshot_id}, step {self._steps_done}, "
                f"{len(recovered.corrupt_pages)} pages to recompute"
            ),
        )
        if self._journal is not None:
            self._journal.recover(recovered.snapshot_id, t)
        return self._serve(state, admission, t)

    def _serve(self, state, admission, t: float) -> ServingMetrics:
        """The step loop plus end-of-run accounting, shared by
        :meth:`run` (fresh state) and :meth:`resume` (restored state)."""
        cfg = self.config
        resil = self.resilience
        plan = self.fault_plan
        requests = state.requests
        cache = state.cache
        if self.plan_cache is not None:
            self.plan_cache.bind(cache.page_size, cfg.num_pool_pages)
        former = BatchFormer(self, state, admission)
        executor = StepExecutor(self, state)
        post = Postprocessor(self, state, executor)
        scrubber = KVScrubber(self, state, admission) if self._degrade is not None else None
        metrics = state.metrics

        while state.has_work():
            if self._crash_armed:
                self._maybe_crash(t, "boundary")
            admission.admit(t)
            if self._handoff_imports:
                admission.absorb_handoffs(t)
            self._policy.order(state.prefill_queue, requests, t)
            if self.brownout is not None:
                self._brownout_step(state, admission, t)
            if self._degrade is not None:
                if self._deadlines_active:
                    admission.shed_expired(t)
                if resil.checksums:
                    scrubber.scrub(t)
            t_before = t
            step = None
            if state.preempted and admission.fits_resume(state.preempted[0]):
                # Preempted streams resume first (their KV is recomputed).
                step = former.form_resume(t)
            elif cfg.chunked_prefill and (
                state.prefill_queue or state.prefilling or state.streams
            ):
                step = former.form_mixed(t)
            elif (
                not cfg.chunked_prefill
                and state.prefill_queue
                and admission.fits(requests[state.prefill_queue[0]].prompt_len)
            ):
                step = former.form_prefill(t)
            elif not cfg.chunked_prefill and state.streams:
                step = former.form_decode(t)
            elif state.preempted or state.prefill_queue:
                if self._degrade is not None:
                    admission.shed_overload(t)
                    continue
                # Capacity-blocked with nothing running to free pages.
                raise OutOfPagesError(
                    "KV pool cannot hold the next prompt even with no other "
                    "work running; increase EngineConfig.num_pool_pages "
                    f"({cache._stats_brief()})"
                )
            elif state.waiting:
                t_next = max(t, requests[state.waiting[0]].arrival)
                if self._tracer is not None and t_next > t:
                    post._emit_idle(t, t_next)
                t = t_next
                continue
            else:
                break
            if step is not None:
                # A None step means everything alloc-faulted away; the
                # end-of-step resilience hooks below still run.
                t0, t, attn = executor.execute(step, t)
                if self._crash_armed:
                    # Mid-step death: the priced-but-unapplied step is
                    # lost, exactly like a process dying between kernels.
                    self._maybe_crash(t, "mid-step")
                post.finalize(step, t0, t, attn)
                self._steps_done += 1
                if self.heartbeat is not None:
                    self.heartbeat(t)
            if self._degrade is not None:
                if resil.step_budget is not None and (t - t_before) > resil.step_budget:
                    self._count("watchdog_flags")
                    self._fault_event(
                        "watchdog", "flagged", t,
                        detail=f"step took {t - t_before:.6f}s > {resil.step_budget:.6f}s",
                    )
                scrubber.inject(t)
            if self._ckpt is not None and step is not None:
                self._ckpt.on_step_end(t)
        metrics.total_time = t
        if self._journal is not None:
            self._journal.complete(t)
        if self._degrade is not None:
            metrics.fault_stats = self._fault_stats(plan, metrics)
            if plan is not None:
                self.backend.set_fault_injector(None)
        return metrics

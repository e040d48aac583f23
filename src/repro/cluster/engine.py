"""The data-parallel cluster engine: N replicas on one simulated clock.

:class:`ClusterEngine` runs ``dp`` tensor-parallel replicas — each a full
:class:`~repro.serving.engine.ServingEngine` over ``tp`` simulated GPU
shards — behind a pluggable :class:`~repro.cluster.router.RoutingPolicy`.
The shared clock is the workload's absolute arrival timeline: every
replica prices its steps on the same simulated time axis, so per-replica
completion times, cluster makespan (the max) and cluster throughput are
directly comparable across tp/dp/router/topology configurations.

Token-exactness across the cluster is by construction, and verified:
requests get a cluster-global id (:func:`assign_rids`) before routing,
token ids are a pure function of ``(rid, generation, position)``, so a
replica serving any subset of the workload emits exactly the tokens the
single-GPU run would (:meth:`ClusterMetrics.token_divergence` checks
every stream against a reference run's tokens).

Fault injection composes with the existing layers: ``link_faults``
install bandwidth-derating windows on the shared topology (steps priced
inside a window slow down), and ``replica_failures`` script replica
deaths (or drains); :meth:`ClusterEngine._run_replica` recovers them in
place or through the :mod:`repro.cluster.failover` pipeline.  Either way
the cluster completes with ``token_divergence=0``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.disagg import (
    DisaggCoordinator,
    DisaggReport,
    HandoffSink,
    parse_roles,
)
from repro.cluster.failover import (
    FailoverConfig,
    FailoverController,
    MigrationError,
    ReplicaFailure,
    clamp_arrival,
    inflight_units,
    DEFAULT_UNHEALTHY_PRESSURE,
)
from repro.cluster.router import (
    BreakerConfig,
    CircuitBreaker,
    LoadTracker,
    get_routing_policy,
)
from repro.cluster.topology import Topology
from repro.cluster.tp import TPInterconnect, plan_tp_sharding
from repro.kvcache.paged import PagedKVCache
from repro.serving.checkpoint import (
    CheckpointConfig,
    CheckpointStore,
    CrashReport,
    run_lives,
)

__all__ = [
    "ClusterConfig",
    "ClusterEngine",
    "ClusterMetrics",
    "assign_rids",
    "expected_tokens",
]


def assign_rids(requests) -> list:
    """Arrival-sort the workload and stamp cluster-global request ids.

    The rid equals the request's index in the arrival-sorted list — the
    same index a single-GPU engine would use as its replica-local token
    key, which is what makes the single-GPU run the token oracle for any
    cluster shape.
    """
    ordered = sorted(requests, key=lambda r: r.arrival)
    return [dataclasses.replace(r, rid=i) for i, r in enumerate(ordered)]


def expected_tokens(reference) -> Dict[Tuple[int, int], list]:
    """Token oracle from a reference run over :func:`assign_rids` output:
    ``{(rid, gen_index): tokens}`` (reference ``req_id`` == rid because
    the reference serves the full sorted list)."""
    return {
        (t.req_id, t.gen_index): t.tokens
        for t in reference.traces
        if t.tokens is not None and t.req_id >= 0
    }


@dataclass
class ClusterConfig:
    """Cluster shape and policy knobs."""

    #: Tensor-parallel shards per replica (must divide the model's QO heads).
    tp: int = 1
    #: Data-parallel replicas behind the router.
    dp: int = 1
    #: Interconnect preset (:data:`repro.cluster.topology.TOPOLOGY_PRESETS`).
    topology: str = "nvlink"
    #: Routing policy name (:func:`repro.cluster.router.get_routing_policy`).
    router: str = "round-robin"
    #: Seed for router randomness (power-of-two probing).
    router_seed: int = 0
    #: Per-replica engine template; ``tensor_parallel`` is overridden by
    #: :attr:`tp`.  ``None`` uses :class:`EngineConfig` defaults.
    engine: Optional[object] = None
    #: Record deterministic token ids on every replica (turns on the
    #: resilience layer's token recording; required for divergence checks).
    record_tokens: bool = True
    #: Snapshot cadence for replicas (0 = off unless a replica has a crash
    #: script, which forces a default cadence of 4).
    checkpoint_every: int = 0
    #: Failover policy (:class:`repro.cluster.failover.FailoverConfig`).
    #: ``None`` (the default) disables the subsystem entirely — scripted
    #: replica crashes then recover in place via the PR-4 harness and the
    #: run is bit-identical to the pre-failover engine.
    failover: Optional[FailoverConfig] = None
    #: Overload front-door policy
    #: (:class:`repro.serving.overload.OverloadConfig`).  ``None`` (the
    #: default) disables the whole overload layer — no admission gate, no
    #: client retries, no breakers, no hedging, no brownout — and the run
    #: is bit-identical to the pre-overload engine.
    overload: Optional[object] = None
    #: Disaggregated prefill/decode role partition of the dp replicas:
    #: ``"prefill=N,decode=M"``, a ``{"prefill": N, "decode": M}`` dict of
    #: pool sizes, or explicit replica-id lists (see
    #: :func:`repro.cluster.disagg.parse_roles`).  ``None`` (the default)
    #: keeps every replica colocated — byte-identical to pre-disagg runs.
    roles: Optional[object] = None


@dataclass
class ClusterMetrics:
    """Per-replica metrics plus cluster-level aggregation."""

    tp: int
    dp: int
    router: str
    topology: Topology
    replicas: List[object]  # ServingMetrics per replica
    #: Each replica's (arrival-sorted) request list; maps a trace's
    #: replica-local ``req_id`` back to the cluster-global ``rid``.
    replica_requests: List[list]
    #: Routed replica per request, in cluster arrival order.
    assignments: List[int]
    #: Per-replica :class:`~repro.serving.checkpoint.CrashReport` for
    #: replicas that ran under a crash script (``None`` entries otherwise).
    crash_reports: Optional[List[object]] = None
    #: :class:`~repro.cluster.failover.FailoverReport` when the run had
    #: failover configured; ``None`` otherwise (summaries unchanged).
    failover: Optional[object] = None
    #: Arrivals held at the front door because every replica was
    #: unhealthy (queued until the first rejoin, never dropped).
    held_requests: int = 0
    #: :class:`~repro.serving.overload.OverloadReport` when the run had
    #: the overload layer configured; ``None`` otherwise (summaries
    #: unchanged).
    overload: Optional[object] = None
    #: :class:`~repro.cluster.disagg.DisaggReport` when the run used
    #: disaggregated role pools; ``None`` otherwise (summaries unchanged).
    disagg: Optional[object] = None

    @property
    def merged(self):
        """Cluster-wide :class:`~repro.serving.metrics.ServingMetrics`."""
        from repro.serving.metrics import ServingMetrics

        return ServingMetrics.merge(self.replicas)

    @property
    def total_time(self) -> float:
        """Cluster makespan: the slowest replica's completion time."""
        return max((m.total_time for m in self.replicas), default=0.0)

    def throughput_tokens_per_s(self) -> float:
        total = sum(m.total_output_tokens for m in self.replicas)
        makespan = self.total_time
        return total / makespan if makespan > 0 else 0.0

    def token_divergence(
        self, expected: Dict[Tuple[int, int], list]
    ) -> Tuple[int, int]:
        """Compare every completed stream against the token oracle.

        Returns ``(divergent, compared)``; divergent must be 0 for any
        healthy cluster, whatever the tp/dp/router/topology — and after
        replica crash recovery.  A stream clamped by brownout rung 3
        (``outcome_reason == "brownout-clamp"``, which only an installed
        brownout controller sets) must equal the exact *prefix* of its
        reference tokens: the clamp shortens a stream, it never changes a
        token.
        """
        divergent = compared = 0
        for requests, metrics in zip(self.replica_requests, self.replicas):
            for tr in metrics.traces:
                if tr.tokens is None or tr.req_id < 0:
                    continue
                rid = requests[tr.req_id].rid
                if rid is None:
                    continue
                want = expected.get((rid, tr.gen_index))
                if want is None:
                    continue
                compared += 1
                if tr.outcome_reason == "brownout-clamp":
                    want = want[: len(tr.tokens)]
                if tr.tokens != want:
                    divergent += 1
        return divergent, compared

    def summary(self) -> Dict[str, float]:
        """``cluster_*`` counters, per-replica lines, per-link utilization."""
        makespan = self.total_time
        out: Dict[str, float] = {
            "cluster_tp": float(self.tp),
            "cluster_dp": float(self.dp),
            "cluster_world": float(self.tp * self.dp),
            "cluster_total_time": makespan,
            "cluster_throughput_tok_s": self.throughput_tokens_per_s(),
            "cluster_output_tokens": float(
                sum(m.total_output_tokens for m in self.replicas)
            ),
            "cluster_requests": float(sum(len(m.traces) for m in self.replicas)),
            "cluster_preemptions": float(sum(m.preemptions for m in self.replicas)),
            "cluster_sheds": float(sum(m.sheds for m in self.replicas)),
            "cluster_recover_resumed": float(
                sum(m.recover_resumed for m in self.replicas)
            ),
        }
        # Cluster-wide latency percentiles over the merged traces — the
        # observable disagg (and any routing policy) actually moves.
        merged = self.merged
        for q in (50, 95, 99):
            out[f"cluster_p{q}_ttft"] = merged.ttft_percentile(q)
            out[f"cluster_p{q}_itl"] = merged.itl_percentile(q)
        for i, m in enumerate(self.replicas):
            out[f"replica{i}_requests"] = float(len(m.traces))
            out[f"replica{i}_output_tokens"] = float(m.total_output_tokens)
            out[f"replica{i}_total_time"] = m.total_time
            out[f"replica{i}_throughput_tok_s"] = m.throughput_tokens_per_s()
            # Replica utilization: busy fraction of the cluster makespan.
            out[f"replica{i}_utilization"] = (
                m.total_time / makespan if makespan > 0 else 0.0
            )
        radix_tokens = sum(m.radix_hit_tokens for m in self.replicas)
        cascade_steps = sum(m.cascade_steps for m in self.replicas)
        if radix_tokens or cascade_steps:
            # Prefix-cache counters only when something hit, so cold-cache
            # summaries stay byte-identical.
            out["cluster_radix_hit_tokens"] = float(radix_tokens)
            out["cluster_radix_hit_prompts"] = float(
                sum(m.radix_hit_prompts for m in self.replicas)
            )
            out["cluster_cascade_steps"] = float(cascade_steps)
            out["cluster_cascade_bytes_saved"] = float(
                sum(m.cascade_bytes_saved for m in self.replicas)
            )
        if self.crash_reports is not None:
            out["cluster_crashes"] = float(
                sum(r.crashes for r in self.crash_reports if r is not None)
            )
            out["cluster_recoveries"] = float(
                sum(r.recoveries for r in self.crash_reports if r is not None)
            )
        if self.held_requests:
            out["cluster_held_requests"] = float(self.held_requests)
        if self.failover is not None:
            # Failover/migration counters, only on failover-enabled runs.
            out.update(self.failover.summary())
            for i, m in enumerate(self.replicas):
                out[f"replica{i}_admission_pressure"] = float(m.admission_pressure)
        if self.overload is not None:
            # Front-door/breaker/brownout/SLO counters, only on overload runs.
            out.update(self.overload.summary())
        if self.disagg is not None:
            # Role-pool and KV-handoff counters, only on disagg runs; the
            # matching wire accounting is link_stats' link_handoff_*.
            out.update(self.disagg.summary())
        out.update(self.topology.link_stats(makespan=makespan))
        return out


class ClusterEngine:
    """Route a workload across ``dp`` tensor-parallel serving replicas.

    ``backend_factory(heads, gpu)`` builds each replica's attention
    backend from the per-shard head config (default FlashInfer).
    ``trace=True`` attaches one :class:`~repro.obs.StepTracer` per
    replica (:meth:`trace_processes` feeds
    :func:`repro.obs.write_cluster_trace`).  ``link_faults`` is a
    sequence of ``(t_start, t_end, factor)`` bandwidth deratings on the
    shared topology.

    ``replica_failures`` maps replica index → a
    :class:`~repro.cluster.failover.ReplicaFailure` (or a sequence of
    them) scripting a crash or drain at an engine step; seeded-random
    replica deaths come from ``fault_plan``'s ``replica`` site (one draw
    per replica per run); how a failed replica recovers is
    :meth:`_run_replica`'s business (without
    :attr:`ClusterConfig.failover` a drain raises — a drain *is* a
    migration).  ``fault_plan``'s ``link`` site injects transfer faults
    into migrations and handoffs.  ``health_schedule`` feeds known
    unhealthy windows into the routing pass (skip, backpressure, and
    hold-at-the-door when everything is down).

    With :attr:`ClusterConfig.roles` set the cluster runs *disaggregated*:
    prefill-pool replicas run prompts only and hand the finished KV off to
    paired decode-pool replicas over priced ``kind="handoff"`` links (see
    :mod:`repro.cluster.disagg`), token-exact vs the colocated reference.

    **Evaluation order.**  A run is a DAG — ``route → prefill pool → wire
    → decode pool`` (colocated: ``route → replicas``) — and :meth:`run`
    evaluates it in that order, one replica at a time (:meth:`_stages`).
    That is exact, not an approximation of an interleaved event loop,
    because nothing flows against the arrows:

    * :meth:`route` is a pre-pass over the fluid
      :class:`~repro.cluster.router.LoadTracker`, the health schedule and
      the breakers; it reads no engine state, so every request list is
      fixed before any engine runs.
    * A replica reads its own request list (a decode replica: its
      imports) and writes its own metrics, sink and tracer.  Replicas of
      one stage share only the topology's additive traffic counters and
      static degradation windows, so without seeded cluster faults their
      order cannot change a trace (``tests/test_cluster_stages.py``).
    * :meth:`~repro.cluster.failover.KVMigrator.transfer` prices each
      migration and handoff at its own start time on links that keep no
      occupancy: concurrent transfers never slow each other, so pricing
      them after the sending stage has finished loses nothing.
    * A handoff carries the prefill-side first-token time and becomes a
      decode-side arrival at its wire ``t_end``: TTFT is decided inside
      the prefill stage and the decode pool cannot reach back into it.
    * The cluster fault sites (``replica``, ``link``, ``timeout``) draw
      from per-site RNG streams in evaluation order — route, then each
      stage's replicas by id, the handoffs shipped between stages — so
      that order is part of the model.

    Link occupancy shared by concurrent transfers, takeover compute
    contending with the target's own steps, and routing on live engine
    state *would* need interleaving; none is modelled (see ROADMAP).
    """

    def __init__(
        self,
        model,
        gpu,
        config: Optional[ClusterConfig] = None,
        backend_factory=None,
        trace: bool = False,
        link_faults: Sequence[Tuple[float, float, float]] = (),
        replica_failures: Optional[Dict[int, object]] = None,
        fault_plan=None,
        health_schedule=None,
    ):
        self.model = model
        self.gpu = gpu
        self.config = config or ClusterConfig()
        cfg = self.config
        if cfg.tp < 1 or cfg.dp < 1:
            raise ValueError("tp and dp must be >= 1")
        #: Validated head sharding (raises on non-divisible tp up front).
        self.sharding = plan_tp_sharding(model, cfg.tp)
        self.topology = Topology.preset(cfg.topology, world=cfg.tp * cfg.dp)
        for t0, t1, factor in link_faults:
            self.topology.degrade(t0, t1, factor)
        #: Resolved routing policy (raises on an unknown name).
        self.router = get_routing_policy(cfg.router)
        if backend_factory is None:
            from repro.serving.backends import FlashInferBackend

            backend_factory = FlashInferBackend
        self.backend_factory = backend_factory
        #: Disaggregated role partition ``(prefill_ids, decode_ids)``, or
        #: ``None`` for the colocated cluster.
        self.roles: Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]] = None
        if cfg.roles is not None:
            self.roles = parse_roles(cfg.roles, cfg.dp)
            if cfg.router == "round-robin":
                # The colocated default router is meaningless under role
                # pools; upgrade to the pairing policy.
                self.router = get_routing_policy("disagg")
            elif cfg.router != "disagg":
                raise ValueError(
                    f"ClusterConfig(roles=...) requires the 'disagg' router "
                    f"(or leaving the default), got {cfg.router!r}"
                )
            self.router.bind_roles(*self.roles)
        elif cfg.router == "disagg":
            raise ValueError(
                "the 'disagg' router needs ClusterConfig(roles=...) to "
                "define its prefill/decode pools"
            )
        #: rid → paired decode replica (populated by route() in disagg mode).
        self._decode_assignments: Dict[int, int] = {}
        # Disagg side tables _make_engine reads, so every life of a replica
        # (first run, in-place restore, failover takeover) gets its role
        # wiring; empty dicts on colocated runs.  Sinks and imports are
        # per-run state, rebuilt by run().
        self._engine_roles: Dict[int, str] = {}
        if self.roles is not None:
            self._engine_roles = {
                i: role
                for role, ids in zip(("prefill", "decode"), self.roles)
                for i in ids
            }
        self._engine_sinks: Dict[int, object] = {}
        self._engine_imports: Dict[int, dict] = {}
        self._disagg_report = None
        #: Test hook: handoff indices (in ship order) to tamper in flight.
        self._corrupt_handoffs: Sequence[int] = ()
        #: Normalized ``{replica: [ReplicaFailure, ...]}``.
        self.replica_failures: Dict[int, List[ReplicaFailure]] = {}
        for r, fs in (replica_failures or {}).items():
            if isinstance(fs, ReplicaFailure):
                fs = [fs]
            self.replica_failures[int(r)] = [f for f in fs]
        #: Cluster-level :class:`~repro.faults.FaultPlan` (``replica`` and
        #: ``link`` sites); independent of any per-engine chaos plan.
        self.fault_plan = fault_plan
        #: Optional :class:`~repro.cluster.failover.HealthSchedule` the
        #: routing pass consults.
        self.health_schedule = health_schedule
        self._held_requests = 0
        # Overload-layer state, populated by route()/run() when
        # ``config.overload`` is set; None/empty otherwise.
        self._overload_report = None
        self._breakers: Optional[List[CircuitBreaker]] = None
        self._brownouts: Dict[int, object] = {}
        self.tracers = None
        if trace:
            from repro.obs.tracer import StepTracer

            self.tracers = [StepTracer() for _ in range(cfg.dp)]

    # -- construction helpers --------------------------------------------------

    @classmethod
    def from_config(cls, config: Optional["ClusterConfig"] = None, *,
                    model=None, gpu=None, **kwargs) -> "ClusterEngine":
        """Build a cluster engine with the stock model/GPU defaults.

        The cluster-shape counterpart of
        :meth:`repro.serving.engine.ServingEngine.from_config` — one call
        site for the CLI, benchmarks and tests, with the same defaults
        (LLAMA_3_1_8B on an H100)."""
        from repro.gpu.spec import H100_80G
        from repro.serving.model import LLAMA_3_1_8B

        model = model if model is not None else LLAMA_3_1_8B
        gpu = gpu if gpu is not None else H100_80G
        return cls(model, gpu, config, **kwargs)

    def _engine_config(self):
        from repro.serving.engine import EngineConfig

        template = self.config.engine if self.config.engine is not None else EngineConfig()
        return dataclasses.replace(template, tensor_parallel=self.config.tp)

    def _nominal_service_rate(self) -> float:
        """Deterministic decode-rate estimate (tokens/s per replica) for
        the router's fluid load model: the non-attention roofline at a
        nominal batch of 16 (what a front-end can estimate offline —
        deliberately not a peek into live engine state)."""
        m, gpu, tp = self.model, self.gpu, self.config.tp
        batch = 16
        step = (
            m.num_layers * m.layer_nonattn_time(batch, gpu, 0.85, tp)
            + m.lm_head_time(batch, gpu, 0.85, tp)
        )
        return batch / step

    def _make_engine(self, replica: int, tracer=None, checkpoint=None, store=None):
        from repro.faults.recover import ResilienceConfig
        from repro.serving.engine import ServingEngine

        cfg = self._engine_config()
        interconnect = (
            TPInterconnect(self.topology, self.model, cfg.tensor_parallel)
            if cfg.tensor_parallel > 1
            else None
        )
        resilience = ResilienceConfig() if self.config.record_tokens else None
        engine = ServingEngine.from_config(
            cfg, model=self.model, gpu=self.gpu,
            backend_factory=self.backend_factory,
            tracer=tracer, resilience=resilience,
            checkpoint=checkpoint, checkpoint_store=store,
            interconnect=interconnect,
        )
        engine.dp_world = self.config.dp
        engine.dp_rank = replica
        if self._engine_roles:
            # Disagg wiring rides the side tables so every life gets the
            # replica's role, sink and imports without special-casing.
            engine.role = self._engine_roles.get(replica)
            engine.handoff_sink = self._engine_sinks.get(replica)
            engine._handoff_imports = self._engine_imports.get(replica)
        if self.config.overload is not None:
            from repro.serving.overload import BrownoutController

            engine.track_pressure = True
            engine.brownout = BrownoutController(self.config.overload)
            # Last engine built for a replica owns its brownout stats (a
            # failover takeover replaces the dead replica's controller).
            self._brownouts[replica] = engine.brownout
        return engine

    # -- the cluster run -------------------------------------------------------

    def route(self, requests) -> Tuple[List[list], List[int]]:
        """Assign rids and split the workload across replicas.

        Returns ``(per_replica_requests, assignments)``; each replica list
        stays arrival-sorted (routing walks the global arrival order).
        With a ``health_schedule``, the pass skips replicas that are down
        at a request's arrival (backpressuring them in the load tracker),
        and when *every* replica is down it holds the arrival at the
        front door until the first rejoin — queued, never dropped.

        With :attr:`ClusterConfig.overload` set, the workload first passes
        the tenant-aware :class:`~repro.serving.overload.FrontDoor`
        (rate-limit + seeded client retries), per-replica
        :class:`~repro.cluster.router.CircuitBreaker` masks fold into the
        health mask, seeded dispatch timeouts strike breakers and
        re-dispatch, and slow dispatches hedge onto a second replica —
        every re-arrival via ``clamp_arrival`` (rid unchanged, so tokens
        are unchanged by construction).
        """
        cfg = self.config
        reqs = assign_rids(requests)
        overload = cfg.overload
        report = None
        breakers = None
        if overload is not None:
            from repro.serving.overload import FrontDoor

            reqs, report = FrontDoor(overload).admit(reqs)
            bcfg = (
                overload.breaker if overload.breaker is not None
                else BreakerConfig()
            )
            breakers = [CircuitBreaker(j, bcfg) for j in range(cfg.dp)]
            self._brownouts = {}
        self._overload_report = report
        self._breakers = breakers
        disagg = self.roles is not None
        self._decode_assignments = {}
        self.router.reset(cfg.dp, cfg.router_seed)
        tracker = LoadTracker(cfg.dp, self._nominal_service_rate())
        schedule = self.health_schedule
        plan = self.fault_plan
        timeout_armed = (
            breakers is not None and plan is not None and plan.armed("timeout")
        )
        per_replica: List[list] = [[] for _ in range(cfg.dp)]
        assignments: List[int] = []
        held = 0
        waits: List[float] = []  # estimated dispatch waits (hedge history)
        for r in reqs:
            healthy = None
            if schedule is not None:
                healthy = schedule.mask(r.arrival)
                if not any(healthy):
                    # All replicas down: hold the request until the first
                    # one rejoins (rid unchanged, so tokens are unchanged).
                    t_rejoin, who = schedule.next_recovery(r.arrival)
                    if who is not None:
                        r = clamp_arrival(r, t_rejoin)
                        healthy = schedule.mask(r.arrival)
                        held += 1
            if breakers is not None:
                allow = [b.allow(r.arrival) for b in breakers]
                if healthy is not None:
                    allow = [h and a for h, a in zip(healthy, allow)]
                if any(allow):
                    healthy = allow
                # else: every breaker open too — keep the schedule mask
                # (possibly None) so the request is still placed; a breaker
                # never drops work, it only steers it.
            if healthy is not None:
                for j in range(cfg.dp):
                    tracker.set_pressure(
                        j, 0.0 if healthy[j] else DEFAULT_UNHEALTHY_PRESSURE
                    )
            tracker.observe(r.arrival)
            loads = tracker.loads()
            choice = int(self.router.route(r, r.arrival, loads, healthy))
            if not 0 <= choice < cfg.dp:
                raise ValueError(
                    f"router {self.router.name!r} chose replica {choice} "
                    f"outside [0, {cfg.dp})"
                )
            if breakers is not None:
                r, choice = self._overload_dispatch(
                    r, choice, healthy, breakers, loads,
                    tracker.service_rate, waits, report, timeout_armed,
                )
            per_replica[choice].append(r)
            assignments.append(choice)
            if disagg:
                # The prompt compute lands on the prefill replica; the
                # decode work lands on the paired decode replica, chosen
                # least-loaded-healthy within its pool now so later
                # arrivals see the decode pool's true outstanding work.
                pair = int(self.router.pair(r, r.arrival, loads, healthy))
                self._decode_assignments[r.rid] = pair
                tracker.assign(choice, float(r.prompt_len))
                tracker.assign(pair, float(r.output_len * r.n))
            else:
                tracker.assign(choice, r.prompt_len + r.output_len * r.n)
        self._held_requests = held
        if held or breakers is not None:
            # Clamped arrivals (holds, retries, timeouts, hedges) can land
            # past later requests routed to the same replica; engines
            # expect arrival-sorted input.
            for lst in per_replica:
                lst.sort(key=lambda q: q.arrival)
        return per_replica, assignments

    def _overload_dispatch(
        self, r, choice, mask, breakers, loads, service_rate, waits,
        report, timeout_armed,
    ):
        """Breaker strikes, seeded timeout re-dispatch, and hedged prefill
        for one routed request; returns the (possibly re-timed) request
        and its final replica.  Deterministic, and token-exact by
        construction: only arrivals shift, never rids."""
        overload = self.config.overload
        bcfg = breakers[choice].config
        dp = self.config.dp
        t = r.arrival
        # Under disagg, re-dispatch and hedging stay within the prefill
        # pool — a decode replica never prefills.
        pool = self.roles[0] if self.roles is not None else range(dp)

        def alternates(exclude: int) -> List[int]:
            return [
                j for j in pool
                if j != exclude
                and (mask is None or mask[j])
                and breakers[j].state != "open"
            ]

        # Seeded dispatch timeout: the replica never acked this dispatch.
        # Strike its breaker and resend to the best alternate after the
        # client's timeout penalty.
        timed_out = timeout_armed and self.fault_plan.fire("timeout")
        if timed_out:
            report.timeouts += 1
            breakers[choice].record_failure(t, "timeout")
            alts = alternates(choice)
            if alts:
                t = t + bcfg.timeout_penalty
                r = clamp_arrival(r, t)
                choice = min(alts, key=lambda j: (loads[j], j))
                report.reroutes += 1
        else:
            # Pressure signal: estimated backlog ahead of this dispatch.
            if loads[choice] / service_rate > bcfg.pressure_threshold:
                breakers[choice].record_failure(t, "pressure")
            else:
                breakers[choice].record_success(t)
        est_wait = loads[choice] / service_rate
        # Hedged prefill: when the estimated start lags the hedge quantile
        # of observed waits, issue a duplicate on the best alternate after
        # the quantile delay and keep whichever copy starts first.  The
        # loser is cancelled before doing any work (zero cost), so exactly
        # one replica ever prefills this rid — token-exact either way.
        if (
            overload.hedge
            and len(waits) >= overload.hedge_min_samples
            and est_wait > 0
        ):
            delay = float(np.quantile(waits, overload.hedge_quantile))
            if est_wait > delay:
                alts = alternates(choice)
                if alts:
                    second = min(alts, key=lambda j: (loads[j], j))
                    est_second = delay + loads[second] / service_rate
                    report.hedged += 1
                    if est_second < est_wait:
                        # Secondary starts first: it wins; the primary
                        # copy is cancelled unstarted.
                        r = clamp_arrival(r, t + delay)
                        choice = second
                        report.hedge_wins += 1
        waits.append(loads[choice] / service_rate)
        return r, choice

    def _resolve_failures(self) -> Dict[int, List[ReplicaFailure]]:
        """Scripted failures plus seeded-random draws from the fault
        plan's ``replica`` site (one draw per replica per run)."""
        failures = {r: list(fs) for r, fs in self.replica_failures.items()}
        plan = self.fault_plan
        if plan is not None and plan.armed("replica"):
            for r in range(self.config.dp):
                if plan.fire("replica") and r not in failures:
                    step = 1 + plan.choose("replica", 12)
                    failures[r] = [ReplicaFailure(step, "crash", "boundary")]
        return failures

    def _stages(self) -> List[Sequence[int]]:
        """Replica ids grouped in causal evaluation order (see the class
        docstring): one stage when colocated, the prefill pool then the
        decode pool when disaggregated."""
        if self.roles is None:
            return [range(self.config.dp)]
        return list(self.roles)

    def run(self, requests) -> ClusterMetrics:
        """Serve the workload across the cluster; returns cluster metrics."""
        cfg = self.config
        per_replica, assignments = self.route(requests)
        failures = self._resolve_failures()
        controller = None
        if cfg.failover is not None:
            controller = FailoverController(
                cfg.failover, self.topology, cfg.dp,
                fault_plan=self.fault_plan, tracers=self.tracers,
            )
            for r, fs in failures.items():
                if len(fs) > 1:
                    raise ValueError(
                        f"replica {r}: failover supports one failure per "
                        f"replica per run (got {len(fs)})"
                    )
        else:
            for r, fs in failures.items():
                for f in fs:
                    if f.mode == "drain":
                        raise ValueError(
                            f"replica {r}: drain requires ClusterConfig."
                            f"failover (a drain is a KV handoff)"
                        )
        crash_reports: Optional[List[object]] = (
            [None] * cfg.dp if failures and controller is None else None
        )
        # Token work routed to each replica — the controller's load
        # signal for picking migration targets.  Disagg splits each
        # request's work across its prefill/decode pair.
        assigned_tokens = [0.0] * cfg.dp
        for i, lst in enumerate(per_replica):
            for r in lst:
                assigned_tokens[i] += float(r.prompt_len)
                assigned_tokens[
                    self._decode_assignments.get(r.rid, i)
                ] += float(r.output_len * r.n)
        self._engine_imports = {}
        prefix_on = self._engine_config().prefix_cache
        self._engine_sinks = {
            i: HandoffSink(i, self._decode_assignments, prefix_caching=prefix_on)
            for i, role in self._engine_roles.items()
            if role == "prefill"
        }
        failing = frozenset(failures)
        everyone = frozenset(range(cfg.dp))
        replica_metrics: List[object] = [None] * cfg.dp
        for k, stage in enumerate(self._stages()):
            if k:
                self._ship_handoffs(per_replica)
            # A failing replica never migrates onto another stage's pool
            # (a prefill replica must not take over decode work, or vice
            # versa), nor onto a replica that is itself scripted to fail.
            exclude = failing | everyone.difference(stage)
            for i in stage:
                replica_metrics[i] = self._run_replica(
                    i, per_replica, failures, controller, assigned_tokens,
                    exclude, crash_reports,
                )
        failover_report = controller.finish() if controller is not None else None
        cm = ClusterMetrics(
            tp=cfg.tp, dp=cfg.dp, router=self.router.name,
            topology=self.topology, replicas=replica_metrics,
            replica_requests=per_replica, assignments=assignments,
            crash_reports=crash_reports, failover=failover_report,
            held_requests=self._held_requests,
            overload=self._overload_report,
            disagg=self._disagg_report,
        )
        if self._overload_report is not None:
            report = self._overload_report
            report.attach_breakers(self._breakers or ())
            report.attach_brownouts(
                [self._brownouts.get(i) for i in range(cfg.dp)]
            )
            report.finalize_slo(cm)
        return cm

    def _run_replica(
        self,
        i: int,
        per_replica: List[list],
        failures: Dict[int, List[ReplicaFailure]],
        controller: Optional[FailoverController],
        assigned_tokens: List[float],
        exclude: frozenset,
        crash_reports: Optional[List[object]],
    ):
        """Build replica ``i``'s engine and run it to completion.

        A replica is a loop of engine *lives*
        (:func:`repro.serving.checkpoint.run_lives`): the first runs the
        routed requests, and each :class:`EngineCrash` (a scripted crash
        or drain) ends a life and starts the next with ``resume`` from the
        latest checkpoint.  Configurations differ only in *how* that state
        is recovered: in place, or — with :attr:`ClusterConfig.failover` —
        after heartbeat-timeout detection and live KV migration to a
        healthy host outside ``exclude`` over priced links, so that the
        next life is the token-exact takeover.
        """
        cfg = self.config
        tracer = self.tracers[i] if self.tracers is not None else None
        script = {(f.step, f.phase): f for f in failures.get(i, ())}
        # The checkpoint cadence rule: a replica scripted to die snapshots
        # every 4 steps unless the config asks for its own cadence.
        every = cfg.checkpoint_every
        if every <= 0 and script:
            every = 4
        ckpt = store = None
        if every > 0:
            ckpt = CheckpointConfig(every_steps=every)
            store = CheckpointStore()
        heartbeats: List[float] = []
        rejoin = None

        def make_engine():
            engine = self._make_engine(i, tracer, ckpt, store)
            if controller is not None:
                engine.track_pressure = True
                if script:
                    engine.heartbeat = heartbeats.append
            return engine

        def fail_over(crash, recovered):
            # The heartbeat trail feeds the detector (back-dated, so
            # detection timestamps are polling-independent); the snapshot
            # migrates to the least-loaded healthy host.  No healthy
            # target, or migration retries exhausted → the same recovery,
            # in place.
            nonlocal rejoin
            t_dead = controller.observe_failure(
                i, heartbeats, crash.t,
                script[(crash.step_index, crash.phase)].mode,
            )
            host = i
            resume_at = t_dead + controller.config.rejoin_delay
            target = controller.pick_target(i, assigned_tokens, exclude=exclude)
            if target is None:
                controller.note_fallback(i, t_dead, "no healthy migration target")
            else:
                try:
                    snap, mreport = controller.migrate(
                        recovered.snapshot, t_dead, source=i, target=target
                    )
                except MigrationError as exc:
                    controller.note_fallback(i, t_dead, str(exc))
                else:
                    cache = PagedKVCache.from_state(snap["cache"])
                    recovered = dataclasses.replace(
                        recovered, snapshot=snap, cache=cache,
                        corrupt_pages=cache.find_corrupted(),
                    )
                    host = target
                    resume_at = mreport.t_end
            resume_at = max(resume_at, float(recovered.snapshot["t"]))
            # The takeover life keeps the dead replica's dp_rank (the
            # snapshot's world check) and its tracer — the resume gap
            # and migration events render on replica i's trace row.
            rejoin = (
                i, host, crash.t, t_dead, resume_at,
                inflight_units(recovered.snapshot),
            )
            return recovered, resume_at

        metrics, crash_phases = run_lives(
            make_engine, per_replica[i], store, script=script,
            on_crash=fail_over if controller is not None else None,
        )
        if rejoin is not None:
            controller.note_recovery(*rejoin)
        if crash_reports is not None and script:
            crash_reports[i] = CrashReport.from_lives(metrics, crash_phases)
        return metrics

    def _ship_handoffs(self, per_replica: List[list]) -> None:
        """The wire between the prefill and the decode stage.

        Each prompt the prefill stage finished sits in its replica's
        :class:`~repro.cluster.disagg.HandoffSink` (a failover takeover or
        in-place restore re-fires into the *same* sink, whose ``(rid,
        gen)`` keying dedups the re-executed spawns — a dying prefill
        replica's in-flight handoffs are recomputed, never lost).  The
        coordinator ships every handoff over the topology as priced
        ``kind="handoff"`` chunks, and each decode replica's entry of
        ``per_replica`` becomes its imported requests — arrival clamped to
        when the last handoff chunk cleared the wire — replacing the empty
        routed list, so trace ``req_id`` → rid mapping stays correct for
        the divergence check.
        """
        prefill_ids, decode_ids = self.roles
        report = DisaggReport(
            prefill_replicas=prefill_ids, decode_replicas=decode_ids
        )
        coordinator = DisaggCoordinator(
            self.topology, self.config.failover, self.fault_plan,
            prefix_caching=self._engine_config().prefix_cache,
        )
        handoffs = []
        for i in prefill_ids:
            handoffs.extend(self._engine_sinks[i].handoffs.values())
        imports_by_target = coordinator.ship(
            handoffs, report, corrupt_handoffs=self._corrupt_handoffs
        )
        self._disagg_report = report
        rid_to_req = {
            r.rid: r for i in prefill_ids for r in per_replica[i]
        }
        for i in decode_ids:
            by_rid: Dict[int, list] = {}
            for imp in imports_by_target.get(i, []):
                by_rid.setdefault(imp.rid, []).append(imp)
            reqs = []
            for rid, lst in by_rid.items():
                # The stream cannot resume before its last chunk lands.
                t_avail = max(x.t_available for x in lst)
                reqs.append(clamp_arrival(rid_to_req[rid], t_avail))
            reqs.sort(key=lambda q: (q.arrival, q.rid))
            per_replica[i] = reqs
            self._engine_imports[i] = {
                idx: sorted(by_rid[q.rid], key=lambda x: x.gen)
                for idx, q in enumerate(reqs)
            }

    def run_reference(self, requests):
        """The single-GPU token oracle: tp=1, dp=1, same rids, no topology.

        Token ids depend only on ``(rid, gen, pos)``, so this run's tokens
        are what every cluster shape must reproduce exactly.
        """
        from repro.faults.recover import ResilienceConfig
        from repro.serving.engine import ServingEngine

        cfg = dataclasses.replace(self._engine_config(), tensor_parallel=1)
        engine = ServingEngine.from_config(
            cfg, model=self.model, gpu=self.gpu,
            backend_factory=self.backend_factory,
            resilience=ResilienceConfig(),
        )
        return engine.run(assign_rids(requests))

    def trace_processes(self):
        """Per-replica ``(label, events, fault_events)`` triples for
        :func:`repro.obs.write_cluster_trace`."""
        if self.tracers is None:
            raise ValueError("construct the ClusterEngine with trace=True")

        def label(i: int) -> str:
            role = self._engine_roles.get(i)
            if role is not None:
                return f"replica {i} ({role}, tp={self.config.tp})"
            return f"replica {i} (tp={self.config.tp})"

        return [
            (label(i), tr.events, tr.fault_events)
            for i, tr in enumerate(self.tracers)
        ]

"""Engine construction, one repetition, simulated metrics and oracles for the
five serving workloads (``kernel_batch`` lives in :mod:`kernel_batch`).

Everything is H100-80G, Llama-3.1-8B, FlashInfer backend.  A repetition
always runs on fresh engine objects; ``traced=True`` attaches the public
:class:`repro.obs.StepTracer` (with kernel capture) to every engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cluster import (
    BreakerConfig,
    ClusterConfig,
    ClusterEngine,
    FailoverConfig,
    ReplicaFailure,
)
from repro.gpu import H100_80G
from repro.obs import StepTracer
from repro.serving import (
    EngineConfig,
    FaultPlan,
    LLAMA_3_1_8B,
    OverloadConfig,
    Request,
    ServingEngine,
)

from workloads import OVERLOAD_MAX_OUTPUT, WORKLOADS, Workload

MODEL = LLAMA_3_1_8B
GPU = H100_80G
#: Attainment a rate must reach to count as sustained.
ATTAINMENT_TARGET = 0.90


def build_engine(name: str, seed: int, traced: bool = False):
    """Fresh engine objects for one repetition of a serving workload."""
    tracer = StepTracer(capture_kernels=True) if traced else None
    if name == "chat_decode":
        return ServingEngine.from_config(
            EngineConfig(max_running=32), model=MODEL, gpu=GPU, tracer=tracer)
    if name == "long_prefill":
        return ServingEngine.from_config(
            EngineConfig(chunked_prefill=True, prefill_chunk_size=1024),
            model=MODEL, gpu=GPU, tracer=tracer)
    if name == "prefix_fleet":
        return ClusterEngine(
            MODEL, GPU,
            ClusterConfig(
                tp=2, dp=2, topology="nvlink", router="cache-aware",
                engine=EngineConfig(max_running=256, chunked_prefill=True,
                                    prefix_cache=True, composable=True)),
            trace=traced)
    if name == "disagg_failover":
        return ClusterEngine(
            MODEL, GPU,
            ClusterConfig(
                dp=4, roles="prefill=2,decode=2", failover=FailoverConfig(),
                engine=EngineConfig(max_running=256, chunked_prefill=True,
                                    composable=True)),
            trace=traced,
            replica_failures={0: ReplicaFailure(20, "crash")},
            fault_plan=FaultPlan(seed=seed, schedules={"link": (0, 1)}))
    if name == "overload_burst":
        # Calibrated so that bursts are refused at the door and retried, the
        # brownout ladder climbs, and nothing fails: the clamp rung is set to
        # the longest output and the shed rung to no priority class, so the
        # ladder shrinks chunks and turns cascade off but cuts no stream.
        overload = OverloadConfig(
            tenants=4, seed=seed, slo_ttft=WORKLOADS[name].slo_ttft_s,
            admit_rate=90.0, burst_capacity=4.0, max_client_retries=5, retry_budget=2.0,
            retry_base=0.08, retry_factor=2.0, retry_jitter=0.25,
            engage_after=6, anneal_after=30,
            brownout_clamp=OVERLOAD_MAX_OUTPUT, shed_priority_below=0,
            breaker=BreakerConfig(fail_threshold=3, cooldown=0.25,
                                  probe_successes=2, pressure_threshold=0.5))
        return ClusterEngine(
            MODEL, GPU,
            ClusterConfig(
                dp=2, overload=overload,
                engine=EngineConfig(max_running=16, chunked_prefill=True,
                                    composable=True, prefill_chunk_size=256)),
            trace=traced,
            fault_plan=FaultPlan(seed=seed, timeout_rate=0.08))
    raise KeyError(name)


@dataclass
class Finished:
    """One completed stream on the simulated clock, keyed by ``rid``."""

    rid: int
    replica: int
    arrival: float  # scheduled arrival in the generated load
    first_token: float
    token_times: List[float]
    tokens: Optional[List[int]]
    clamped: bool

    @property
    def ttft(self) -> float:
        return self.first_token - self.arrival

    @property
    def itls(self) -> np.ndarray:
        return np.diff([self.first_token] + list(self.token_times))


@dataclass
class Outcome:
    """What one repetition of a serving workload produced."""

    name: str
    load: List[Request]
    result: object  # ServingMetrics or ClusterMetrics
    #: The public StepTracers of a traced repetition (one per replica) and
    #: the cluster-level fault plan; the engines themselves are not kept.
    tracers: list = field(default_factory=list)
    fault_plan: object = None
    finished: List[Finished] = field(default_factory=list)
    shed: int = 0
    dropped: int = 0

    @property
    def sent(self) -> int:
        return len(self.load)

    @property
    def succeeded(self) -> int:
        return len({f.rid for f in self.finished})

    @property
    def failed(self) -> int:
        return self.sent - self.succeeded

    @property
    def makespan(self) -> float:
        return float(self.result.total_time)

    @property
    def replicas(self) -> list:
        """Per-replica ServingMetrics (a single engine is one replica)."""
        return getattr(self.result, "replicas", None) or [self.result]


def run_once(name: str, seed: int, load: List[Request], traced: bool = False) -> Outcome:
    """One repetition: fresh engines, serve ``load`` to completion."""
    engine = build_engine(name, seed, traced)
    return collect(name, load, engine, engine.run(load))


def collect(name: str, load: List[Request], engine, result) -> Outcome:
    """Rebuild per-request records keyed by rid, timed from the schedule."""
    out = Outcome(name, load, result, fault_plan=getattr(engine, "fault_plan", None))
    if isinstance(engine, ClusterEngine):
        out.tracers = list(engine.tracers or [])
        for replica, (requests, metrics) in enumerate(
            zip(result.replica_requests, result.replicas)
        ):
            out.shed += metrics.sheds
            for tr in metrics.traces:
                rid = requests[tr.req_id].rid
                out.finished.append(_finished(rid, replica, load, tr))
        if result.overload is not None:
            out.dropped = int(result.overload.dropped)
    else:
        out.tracers = [engine.tracer] if engine.tracer is not None else []
        by_arrival = {r.arrival: i for i, r in enumerate(load)}
        out.shed = result.sheds
        for tr in result.traces:
            out.finished.append(_finished(by_arrival[tr.arrival], 0, load, tr))
    return out


def _finished(rid: int, replica: int, load, tr) -> Finished:
    return Finished(
        rid=rid, replica=replica, arrival=load[rid].arrival,
        first_token=tr.first_token_time, token_times=tr.token_times,
        tokens=tr.tokens, clamped=tr.outcome_reason == "brownout-clamp",
    )


# -- simulated metrics ----------------------------------------------------------


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def attainment(w: Workload, outs: List[Outcome]) -> float:
    """Share of requests *sent* that finished within both limits."""
    met = 0
    for f in (f for out in outs for f in out.finished):
        gaps = f.itls
        mean_gap = float(gaps.mean()) if gaps.size else 0.0
        if f.ttft <= w.slo_ttft_s and mean_gap <= w.slo_itl_s:
            met += 1
    return met / sum(out.sent for out in outs)


def sim_metrics(w: Workload, outs: List[Outcome]) -> Dict[str, float]:
    """The simulated-clock end-to-end metrics, pooled over the parts in
    ``outs``: percentiles over all their requests and token gaps, the
    makespan summed as if the parts were served back to back."""
    finished = [f for out in outs for f in out.finished]
    ttfts = np.asarray([f.ttft for f in finished])
    gaps = [f.itls for f in finished if f.token_times]
    itls = np.concatenate(gaps) if gaps else np.empty(0)
    tokens = sum(1 + len(f.token_times) for f in finished)
    makespan = sum(out.makespan for out in outs)
    return {
        "sim_makespan_s": makespan,
        "sim_tok_s": tokens / makespan,
        "sim_ttft_p50_ms": percentile(ttfts, 50) * 1e3,
        "sim_ttft_p95_ms": percentile(ttfts, 95) * 1e3,
        "sim_itl_p50_ms": percentile(itls, 50) * 1e3,
        "sim_itl_p99_ms": percentile(itls, 99) * 1e3,
        "sim_slo_attainment": attainment(w, outs),
        "success_share": sum(o.succeeded for o in outs) / sum(o.sent for o in outs),
        "samples_ttft": float(ttfts.size),
        "samples_itl": float(itls.size),
    }


def sustained(w: Workload, out: Outcome) -> bool:
    """No growing backlog: the run ends within 10% of the arrival span plus
    the longest SLO-conforming lifetime of a request still in flight."""
    span = out.load[-1].arrival
    drain = w.slo_ttft_s + max(r.output_len for r in out.load) * w.slo_itl_s
    return out.makespan <= 1.1 * span + drain


def max_rate(points: List[Tuple[float, float, bool]]) -> Tuple[float, float]:
    """``(interpolated, fixed)`` highest sustainable rate from
    ``(rate, attainment, sustained)`` points.

    ``fixed`` is the highest offered rate whose attainment reaches the
    target without a growing backlog (0 if none).  ``interpolated`` places
    the crossing of the target linearly between that rate and the next one
    up (with attainment 1 at rate 0 as the implicit first point), so it
    moves continuously instead of jumping between the fixed rates.
    """
    points = sorted(points)
    curve = [(0.0, 1.0)]
    for rate, att, ok in points:
        curve.append((rate, att if ok else 0.0))
    fixed = 0.0
    for (r0, a0), (r1, a1) in zip(curve, curve[1:]):
        if a1 >= ATTAINMENT_TARGET:
            fixed = r1
            continue
        frac = (a0 - ATTAINMENT_TARGET) / (a0 - a1) if a0 > a1 else 0.0
        return r0 + max(min(frac, 1.0), 0.0) * (r1 - r0), fixed
    return fixed, fixed


# -- oracles ----------------------------------------------------------------------


def reference_tokens(name: str, seed: int, load) -> Dict[int, list]:
    """``{rid: tokens}`` from the single-GPU reference run of a cluster
    workload (``ClusterEngine.run_reference``)."""
    reference = build_engine(name, seed).run_reference(load)
    return {t.req_id: t.tokens for t in reference.traces
            if t.tokens is not None and t.req_id >= 0}


def token_divergence(out: Outcome, expected: Optional[Dict[int, list]]) -> Tuple[int, int]:
    """``(divergent, compared)``.

    Cluster workloads: ``(rid, position)`` tokens that differ from the
    reference (a brownout-clamped stream must be an exact prefix; missing or
    extra tokens count).  Single-engine workloads record no token ids, so
    the unit is the request: wrong token count or non-monotone times.
    """
    divergent = compared = 0
    if expected is None:
        for f in out.finished:
            times = [f.arrival, f.first_token] + list(f.token_times)
            want = out.load[f.rid].output_len
            bad = 1 + len(f.token_times) != want or any(np.diff(times) < 0)
            divergent += bool(bad)
            compared += 1
        return divergent, compared
    for f in out.finished:
        want = expected[f.rid]
        got = f.tokens or []
        compared += len(want) if not f.clamped else len(got)
        divergent += sum(a != b for a, b in zip(got, want))
        if len(got) > len(want) or (len(got) < len(want) and not f.clamped):
            divergent += abs(len(want) - len(got))
    return divergent, compared

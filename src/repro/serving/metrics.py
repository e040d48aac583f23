"""Serving latency metrics: TTFT, ITL, percentiles (paper §4.1).

* **TTFT** (time to first token): request arrival → first output token.
* **ITL** (inter-token latency): gaps between consecutive output tokens of
  one request.

The paper reports medians under a P99-TTFT < 200 ms operating point; the
same accessors are provided here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np


@dataclass
class RequestTrace:
    """Completion record for one request (one generation stream)."""

    arrival: float
    first_token_time: float
    token_times: List[float] = field(default_factory=list)
    #: Request index within the run's (arrival-sorted) request list and
    #: generation index within the request (the "n" parameter); -1/0 for
    #: callers that construct traces directly.
    req_id: int = -1
    gen_index: int = 0
    #: ``"ok"`` or ``"shed"``; shed traces carry the reason in
    #: :attr:`outcome_reason` (``deadline`` / ``overload`` / ``retries``).
    outcome: str = "ok"
    outcome_reason: str = ""
    #: Deterministic token ids, recorded only when the engine runs with
    #: ``ResilienceConfig.record_tokens`` (token-exactness checks).
    tokens: Optional[List[int]] = None

    @property
    def ttft(self) -> float:
        return self.first_token_time - self.arrival

    @property
    def itls(self) -> np.ndarray:
        times = [self.first_token_time] + list(self.token_times)
        return np.diff(times)

    def to_state(self) -> dict:
        """Serializable form for engine checkpointing."""
        return {
            "arrival": self.arrival,
            "first_token_time": self.first_token_time,
            "token_times": list(self.token_times),
            "req_id": self.req_id,
            "gen_index": self.gen_index,
            "outcome": self.outcome,
            "outcome_reason": self.outcome_reason,
            "tokens": list(self.tokens) if self.tokens is not None else None,
        }

    @classmethod
    def from_state(cls, state: dict) -> "RequestTrace":
        return cls(
            arrival=float(state["arrival"]),
            first_token_time=float(state["first_token_time"]),
            token_times=[float(x) for x in state["token_times"]],
            req_id=int(state["req_id"]),
            gen_index=int(state["gen_index"]),
            outcome=state["outcome"],
            outcome_reason=state["outcome_reason"],
            tokens=(
                [int(x) for x in state["tokens"]]
                if state["tokens"] is not None else None
            ),
        )


@dataclass
class ServingMetrics:
    """Aggregated metrics over a run."""

    traces: List[RequestTrace] = field(default_factory=list)
    total_time: float = 0.0
    total_output_tokens: int = 0
    #: Streams evicted under memory pressure (decode could not get a page).
    preemptions: int = 0
    #: Streams resumed from a crash-recovery snapshot — deliberately a
    #: separate counter from :attr:`preemptions` so dashboards don't
    #: conflate capacity eviction with restart recovery.
    recover_resumed: int = 0
    #: Rolling counters from the run's :class:`repro.obs.StepTracer`
    #: (step counts by kind, per-component time totals, step-latency
    #: percentiles); attached by the engine when tracing is enabled.
    step_stats: Optional[Dict[str, float]] = None
    #: Streams shed by deadline/overload/retry-exhaustion (``outcome ==
    #: "shed"``); their partial tokens do not count toward throughput.
    shed_traces: List[RequestTrace] = field(default_factory=list)
    #: Fault/recovery counters (``faults_injected``, ``retries``, ``sheds``,
    #: ``degraded_steps``, ``checksum_failures``, …); attached by the engine
    #: only on resilience runs so a plain run's summary is unchanged.
    fault_stats: Optional[Dict[str, float]] = None
    #: Plan-cache accounting for the run (``plan_cache_hits``,
    #: ``plan_cache_misses``, ``plan_cache_hit_rate``, ``plan_cache_entries``);
    #: attached by the engine when its :class:`repro.serving.PlanCache` is on.
    plan_cache_stats: Optional[Dict[str, float]] = None
    #: Prompt tokens served from the radix prefix cache instead of being
    #: recomputed at prefill (whole-page granularity).
    radix_hit_tokens: int = 0
    #: Prompts that admitted with a non-empty radix hit.
    radix_hit_prompts: int = 0
    #: Steps that ran attention through a multi-level cascade (shared-prefix
    #: KV loaded once per level instead of once per request).
    cascade_steps: int = 0
    #: Estimated HBM bytes of shared-prefix K/V traffic the cascade avoided
    #: re-reading, summed over cascade steps.
    cascade_bytes_saved: float = 0.0
    #: Prefix-cache roll-up (``radix_hit_tokens``, ``prefill_flops_saved``,
    #: ``cascade_hbm_bytes_saved``, …); attached by the engine at end of run
    #: when ``EngineConfig.prefix_cache`` is on.
    prefix_stats: Optional[Dict[str, float]] = None
    #: Peak admission saturation ((admitted + running) / max_running) —
    #: the overload-backpressure signal cluster failover feeds back into
    #: routing.  Written only when ``engine.track_pressure`` is set, so
    #: plain-run summaries stay byte-identical.
    admission_pressure: float = 0.0
    #: Time-weighted mean admission saturation over the run — sustained
    #: overload, where :attr:`admission_pressure` is a single spike; the
    #: breaker/brownout layer keys off this distinction.  Written (with
    #: the same guard) only when ``engine.track_pressure`` is set.
    admission_pressure_mean: float = 0.0

    def add(self, trace: RequestTrace) -> None:
        self.traces.append(trace)
        self.total_output_tokens += 1 + len(trace.token_times)

    def shed(self, trace: RequestTrace) -> None:
        """Record a stream that was shed before completing."""
        trace.outcome = "shed"
        self.shed_traces.append(trace)

    @property
    def sheds(self) -> int:
        return len(self.shed_traces)

    @property
    def ttfts(self) -> np.ndarray:
        return np.asarray([t.ttft for t in self.traces])

    @property
    def all_itls(self) -> np.ndarray:
        if not self.traces:
            return np.empty(0)
        parts = [t.itls for t in self.traces if t.token_times]
        return np.concatenate(parts) if parts else np.empty(0)

    def median_ttft(self) -> float:
        return float(np.median(self.ttfts)) if self.traces else float("nan")

    def p99_ttft(self) -> float:
        return float(np.percentile(self.ttfts, 99)) if self.traces else float("nan")

    def median_itl(self) -> float:
        itls = self.all_itls
        return float(np.median(itls)) if itls.size else float("nan")

    def p99_itl(self) -> float:
        itls = self.all_itls
        return float(np.percentile(itls, 99)) if itls.size else float("nan")

    def ttft_percentile(self, q: float) -> float:
        """TTFT at percentile ``q`` (0–100) over completed traces."""
        return float(np.percentile(self.ttfts, q)) if self.traces else float("nan")

    def itl_percentile(self, q: float) -> float:
        """ITL at percentile ``q`` (0–100), pooled over every trace's gaps."""
        itls = self.all_itls
        return float(np.percentile(itls, q)) if itls.size else float("nan")

    def throughput_tokens_per_s(self) -> float:
        return self.total_output_tokens / self.total_time if self.total_time > 0 else 0.0

    def summary(self) -> Dict[str, float]:
        out = {
            "median_ttft": self.median_ttft(),
            "p50_ttft": self.ttft_percentile(50),
            "p95_ttft": self.ttft_percentile(95),
            "p99_ttft": self.p99_ttft(),
            "median_itl": self.median_itl(),
            "p50_itl": self.itl_percentile(50),
            "p95_itl": self.itl_percentile(95),
            "p99_itl": self.p99_itl(),
            "throughput_tok_s": self.throughput_tokens_per_s(),
            "num_requests": float(len(self.traces)),
            "preemptions": float(self.preemptions),
            "recover_resumed": float(self.recover_resumed),
        }
        if self.step_stats:
            for key, value in self.step_stats.items():
                out[f"obs_{key}"] = value
        if self.plan_cache_stats is not None:
            out.update(self.plan_cache_stats)
        if self.prefix_stats is not None:
            out.update(self.prefix_stats)
        if self.admission_pressure:
            out["admission_pressure"] = float(self.admission_pressure)
        if self.admission_pressure_mean:
            out["admission_pressure_mean"] = float(self.admission_pressure_mean)
        if self.fault_stats is not None:
            out.update(self.fault_stats)
            # Per-request shed records: which stream was shed, and when.
            for trace in self.shed_traces:
                out[f"shed_req_{trace.req_id}_{trace.gen_index}"] = float(
                    len(trace.token_times)
                )
        return out

    @classmethod
    def merge(cls, parts: "List[ServingMetrics]") -> "ServingMetrics":
        """Cluster-wide aggregation of per-replica metrics.

        Traces concatenate in replica order; ``total_time`` is the max
        (replicas share one simulated clock, so the cluster finishes when
        its slowest replica does), making
        :meth:`throughput_tokens_per_s` the cluster throughput.  The
        per-run stat dicts (``step_stats``/``fault_stats``/…) stay on the
        individual replicas — aggregate views live in
        ``repro.cluster.ClusterMetrics.summary``.
        """
        merged = cls()
        for p in parts:
            merged.traces.extend(p.traces)
            merged.shed_traces.extend(p.shed_traces)
            merged.total_output_tokens += p.total_output_tokens
            merged.preemptions += p.preemptions
            merged.recover_resumed += p.recover_resumed
            merged.radix_hit_tokens += p.radix_hit_tokens
            merged.radix_hit_prompts += p.radix_hit_prompts
            merged.cascade_steps += p.cascade_steps
            merged.cascade_bytes_saved += p.cascade_bytes_saved
            merged.admission_pressure = max(
                merged.admission_pressure, p.admission_pressure
            )
            # Means don't sum across replicas; report the worst replica's.
            merged.admission_pressure_mean = max(
                merged.admission_pressure_mean, p.admission_pressure_mean
            )
            merged.total_time = max(merged.total_time, p.total_time)
        return merged

    def export_state(self) -> dict:
        """Serializable snapshot for engine checkpointing.

        ``step_stats``/``fault_stats``/``plan_cache_stats`` are attached by
        the engine at end of run, so only the accumulating fields travel.
        """
        return {
            "traces": [t.to_state() for t in self.traces],
            "shed_traces": [t.to_state() for t in self.shed_traces],
            "total_time": self.total_time,
            "total_output_tokens": self.total_output_tokens,
            "preemptions": self.preemptions,
            "recover_resumed": self.recover_resumed,
            "radix_hit_tokens": self.radix_hit_tokens,
            "radix_hit_prompts": self.radix_hit_prompts,
            "cascade_steps": self.cascade_steps,
            "cascade_bytes_saved": self.cascade_bytes_saved,
            "admission_pressure": self.admission_pressure,
            "admission_pressure_mean": self.admission_pressure_mean,
        }

    @classmethod
    def from_state(cls, state: dict) -> "ServingMetrics":
        m = cls(
            traces=[RequestTrace.from_state(t) for t in state["traces"]],
            total_time=float(state["total_time"]),
            total_output_tokens=int(state["total_output_tokens"]),
            preemptions=int(state["preemptions"]),
            recover_resumed=int(state["recover_resumed"]),
        )
        m.shed_traces = [RequestTrace.from_state(t) for t in state["shed_traces"]]
        m.radix_hit_tokens = int(state["radix_hit_tokens"])
        m.radix_hit_prompts = int(state["radix_hit_prompts"])
        m.cascade_steps = int(state["cascade_steps"])
        m.cascade_bytes_saved = float(state["cascade_bytes_saved"])
        m.admission_pressure = float(state["admission_pressure"])
        m.admission_pressure_mean = float(state["admission_pressure_mean"])
        return m

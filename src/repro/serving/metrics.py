"""Serving latency metrics: TTFT, ITL, percentiles (paper §4.1).

* **TTFT** (time to first token): request arrival → first output token.
* **ITL** (inter-token latency): gaps between consecutive output tokens of
  one request.

The paper reports medians under a P99-TTFT < 200 ms operating point; the
same accessors are provided here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np


@dataclass
class RequestTrace:
    """Completion record for one request (one generation stream); its
    fields are its snapshot form."""

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
    #: Deterministic token ids, recorded only when the engine runs with a
    #: ``ResilienceConfig`` (token-exactness checks).
    tokens: Optional[List[int]] = None

    @property
    def ttft(self) -> float:
        return self.first_token_time - self.arrival

    @property
    def itls(self) -> np.ndarray:
        times = [self.first_token_time] + list(self.token_times)
        return np.diff(times)


@dataclass
class ServingMetrics:
    """Aggregated metrics over a run.  Its fields but ``fault_stats``
    (attached at the end of a run) are a snapshot's ``metrics`` section."""

    traces: List[RequestTrace] = field(default_factory=list)
    total_time: float = 0.0
    total_output_tokens: int = 0
    #: Streams evicted under memory pressure (decode could not get a page).
    preemptions: int = 0
    #: Streams resumed from a crash-recovery snapshot — deliberately a
    #: separate counter from :attr:`preemptions` so dashboards don't
    #: conflate capacity eviction with restart recovery.
    recover_resumed: int = 0
    #: Streams shed by deadline/overload/retry-exhaustion (``outcome ==
    #: "shed"``); their partial tokens do not count toward throughput.
    shed_traces: List[RequestTrace] = field(default_factory=list)
    #: Fault/recovery counters (``faults_injected``, ``retries``, ``sheds``,
    #: ``degraded_steps``, ``checksum_failures``, …); attached by the engine
    #: only on resilience runs so a plain run's summary is unchanged.
    fault_stats: Optional[Dict[str, float]] = None
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

    def ttft_percentile(self, q: float) -> float:
        """TTFT at percentile ``q`` (0–100) over completed traces."""
        return float(np.percentile(self.ttfts, q)) if self.traces else float("nan")

    def itl_percentile(self, q: float) -> float:
        """ITL at percentile ``q`` (0–100), pooled over every trace's gaps."""
        itls = self.all_itls
        return float(np.percentile(itls, q)) if itls.size else float("nan")

    def throughput_tokens_per_s(self) -> float:
        return self.total_output_tokens / self.total_time if self.total_time > 0 else 0.0

    def token_divergence(
        self,
        expected: Dict[Tuple[int, int], List[int]],
        rids: Optional[Sequence[Optional[int]]] = None,
    ) -> Tuple[int, int]:
        """Compare every completed stream against the token oracle
        ``expected`` (:func:`repro.serving.batching.expected_tokens` of
        the workload).

        Returns ``(divergent, compared)``.  A stream is keyed by
        ``(req_id, gen_index)``, or by ``(rids[req_id], gen_index)`` when
        the run served cluster-routed requests (a ``None`` rid is
        skipped).  Streams without recorded tokens and keys the oracle
        lacks are skipped.  A stream clamped by brownout rung 3
        (``outcome_reason == "brownout-clamp"``) must equal the exact
        *prefix* of its reference tokens: the clamp shortens a stream, it
        never changes a token.
        """
        divergent = compared = 0
        for tr in self.traces:
            if tr.tokens is None or tr.req_id < 0:
                continue
            key = tr.req_id if rids is None else rids[tr.req_id]
            if key is None:
                continue
            want = expected.get((key, tr.gen_index))
            if want is None:
                continue
            compared += 1
            if tr.outcome_reason == "brownout-clamp":
                want = want[: len(tr.tokens)]
            if tr.tokens != want:
                divergent += 1
        return divergent, compared

    def summary(self) -> Dict[str, float]:
        out = {
            "median_ttft": self.median_ttft(),
            "p99_ttft": self.p99_ttft(),
            "median_itl": self.median_itl(),
            "throughput_tok_s": self.throughput_tokens_per_s(),
            "recover_resumed": float(self.recover_resumed),
        }
        if self.fault_stats is not None:
            out.update(self.fault_stats)
        return out

    @classmethod
    def merge(cls, parts: "List[ServingMetrics]") -> "ServingMetrics":
        """Cluster-wide aggregation of per-replica metrics.

        Traces concatenate in replica order; ``total_time`` is the max
        (replicas share one simulated clock, so the cluster finishes when
        its slowest replica does), making
        :meth:`throughput_tokens_per_s` the cluster throughput.  The
        per-run ``fault_stats`` stay on the individual replicas.
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
            merged.total_time = max(merged.total_time, p.total_time)
        return merged

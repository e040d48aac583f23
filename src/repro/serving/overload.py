"""Overload-hardened front door: admission, client retries, brownout, SLOs.

The serving-side half of the cluster's overload layer (the per-replica
circuit breakers live with the router in :mod:`repro.cluster.router`).
Four pieces compose into graceful saturation:

* **Tenant-aware front door** — :class:`FrontDoor` walks the
  arrival-sorted, rid-stamped workload through per-tenant
  :class:`TokenBucket` rate limiters whose refill rates split
  :attr:`OverloadConfig.admit_rate` in proportion to
  ``tenant_weights`` (weighted-fair admission).  A rejected request
  re-arrives through a deterministic seeded client-retry model
  (exponential backoff + jitter keyed by ``SeedSequence([seed, rid,
  attempt])``, so the schedule is independent of processing order),
  bounded by ``max_client_retries`` per request *and* a global retry
  budget (``retry_budget × offered`` re-arrivals total) so a retry
  storm cannot amplify the very overload that caused it.  Exhausted
  requests are dropped at the door and count as SLO misses.

* **Brownout ladder** — :class:`BrownoutController` walks an SLO-driven
  degradation ladder with dwell-count hysteresis (modeled on
  :class:`repro.faults.recover.DegradeController`): shrink the prefill
  chunk size → disable cascade composition → clamp ``max_new_tokens`` →
  shed the lowest priority tier.  Fed one admission-saturation sample
  per engine step; anneals back rung by rung once saturation stays
  below the exit threshold.

* **SLO attainment** — :func:`slo_attainment` scores TTFT against the
  target over *everything offered* (drops and sheds are misses), with
  retried requests measured from their original arrival so client-side
  backoff is not hidden.

* **Token exactness** — rid-keyed token ids make every re-arrival,
  re-dispatch and hedge token-exact by construction;
  :meth:`repro.cluster.ClusterMetrics.token_divergence` holds a
  brownout-clamped stream to the exact prefix of its reference (a clamp
  shortens a stream, it never changes a token).

Everything here is consulted only when
:attr:`repro.cluster.ClusterConfig.overload` is set; ``overload=None``
runs are bit-identical to the pre-overload engine.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "BROWNOUT_LADDER",
    "BrownoutController",
    "FrontDoor",
    "OverloadConfig",
    "OverloadReport",
    "TokenBucket",
    "slo_attainment",
]


@dataclass
class OverloadConfig:
    """Front-door, retry, hedging, breaker and brownout knobs."""

    #: Tenants behind the front door; untagged requests (``Request.tenant
    #: is None``) hash deterministically to ``rid % tenants``.
    tenants: int = 4
    #: Aggregate sustained admission rate (requests/s), split across the
    #: per-tenant token buckets in proportion to :attr:`tenant_weights`
    #: (weighted-fair shares).
    admit_rate: float = 100.0
    #: Per-tenant bucket depth: requests of burst absorbed at full rate
    #: before the bucket starts rejecting.
    burst_capacity: float = 8.0
    #: One positive weight per tenant (``None`` = equal shares).
    tenant_weights: Optional[Sequence[float]] = None
    # -- client retry model (what rejected requests do next) --------------
    #: First-retry backoff in seconds; attempt ``k`` waits
    #: ``retry_base * retry_factor**k * (1 + retry_jitter * u)`` with
    #: ``u`` drawn from ``SeedSequence([seed, rid, attempt])``.
    retry_base: float = 0.05
    retry_factor: float = 2.0
    retry_jitter: float = 0.5
    #: Re-arrivals per request before the client gives up.
    max_client_retries: int = 3
    #: Global retry budget as a fraction of offered requests: at most
    #: ``ceil(retry_budget * offered)`` retry re-arrivals total, so retry
    #: storms cannot amplify overload.
    retry_budget: float = 0.5
    #: Seed for the retry-jitter streams (non-negative).
    seed: int = 0
    # -- SLO + brownout ladder --------------------------------------------
    #: TTFT target scored by :func:`slo_attainment`.
    slo_ttft: float = 0.2
    #: Admission saturation at/above which a step counts toward engaging
    #: the next brownout rung; at/below :attr:`brownout_exit` it counts
    #: toward annealing one rung.  The band between holds (hysteresis).
    brownout_enter: float = 0.9
    brownout_exit: float = 0.6
    #: Consecutive hot steps to climb one rung / cool steps to descend.
    engage_after: int = 2
    anneal_after: int = 6
    #: Rung-1 prefill chunk size (tokens) replacing the engine's
    #: configured ``prefill_chunk_size`` while engaged.
    brownout_chunk: int = 128
    #: Rung-3 ``max_new_tokens`` clamp (total output tokens per stream).
    brownout_clamp: int = 32
    #: Rung 4 sheds queued requests with ``priority <`` this threshold.
    shed_priority_below: int = 1
    # -- hedged prefill ----------------------------------------------------
    hedge: bool = True
    #: Quantile of observed dispatch waits that sets the hedging delay.
    hedge_quantile: float = 0.9
    #: Dispatches observed before hedging activates.
    hedge_min_samples: int = 8
    #: Optional :class:`repro.cluster.router.BreakerConfig` (held as an
    #: opaque object so this module stays cluster-free); ``None`` uses the
    #: breaker defaults.
    breaker: Optional[object] = None

    def __post_init__(self) -> None:
        if self.tenants < 1:
            raise ValueError("tenants must be >= 1")
        if self.admit_rate <= 0 or self.burst_capacity <= 0:
            raise ValueError("admit_rate and burst_capacity must be positive")
        if self.retry_base <= 0 or self.retry_factor < 1.0:
            raise ValueError("need retry_base > 0 and retry_factor >= 1")
        if self.retry_jitter < 0:
            raise ValueError("retry_jitter must be >= 0")
        if self.max_client_retries < 0 or self.retry_budget < 0:
            raise ValueError("max_client_retries and retry_budget must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.slo_ttft <= 0:
            raise ValueError("slo_ttft must be positive")
        if not 0.0 <= self.brownout_exit < self.brownout_enter:
            raise ValueError("need 0 <= brownout_exit < brownout_enter")
        if self.engage_after < 1 or self.anneal_after < 1:
            raise ValueError("engage_after and anneal_after must be >= 1")
        if self.brownout_chunk < 1 or self.brownout_clamp < 1:
            raise ValueError("brownout_chunk and brownout_clamp must be >= 1")
        if not 0.0 < self.hedge_quantile < 1.0:
            raise ValueError("hedge_quantile must be in (0, 1)")
        if self.hedge_min_samples < 1:
            raise ValueError("hedge_min_samples must be >= 1")


class TokenBucket:
    """Deterministic token bucket on the simulated clock.

    Refills continuously at ``rate`` tokens/second up to ``capacity``;
    :meth:`allow` consults and consumes in one call.  State depends only
    on the sequence of ``allow`` timestamps.
    """

    def __init__(self, rate: float, capacity: float):
        if rate <= 0 or capacity <= 0:
            raise ValueError("rate and capacity must be positive")
        self.rate = float(rate)
        self.capacity = float(capacity)
        self.tokens = float(capacity)
        self._t = 0.0

    def allow(self, t: float, cost: float = 1.0) -> bool:
        """Admit a ``cost``-token request at time ``t``?"""
        dt = max(t - self._t, 0.0)
        if dt:
            self.tokens = min(self.capacity, self.tokens + dt * self.rate)
        self._t = max(self._t, t)
        if self.tokens >= cost:
            self.tokens -= cost
            return True
        return False


class FrontDoor:
    """Tenant-aware admission over an arrival-sorted, rid-stamped workload.

    :meth:`admit` returns the admitted request list (arrival-sorted;
    retried admissions carry their retry arrival, rid unchanged so tokens
    are unchanged) plus an :class:`OverloadReport` with the front-door
    counters filled in.
    """

    def __init__(self, config: OverloadConfig):
        self.config = config

    def tenant_of(self, req) -> int:
        """The request's tenant, or a deterministic hash for untagged ones."""
        if req.tenant is not None:
            return int(req.tenant) % self.config.tenants
        return int(req.rid or 0) % self.config.tenants

    def _jitter(self, rid: int, attempt: int) -> float:
        cfg = self.config
        if not cfg.retry_jitter:
            return 1.0
        u = np.random.default_rng(
            np.random.SeedSequence([cfg.seed, int(rid), int(attempt)])
        ).random()
        return 1.0 + cfg.retry_jitter * float(u)

    def admit(self, reqs: Sequence) -> Tuple[list, "OverloadReport"]:
        cfg = self.config
        weights = (
            [float(w) for w in cfg.tenant_weights]
            if cfg.tenant_weights is not None
            else [1.0] * cfg.tenants
        )
        if len(weights) != cfg.tenants or any(w <= 0 for w in weights):
            raise ValueError(
                f"tenant_weights needs one positive weight per tenant "
                f"(got {len(weights)} for {cfg.tenants} tenants)"
            )
        total_w = sum(weights)
        buckets = [
            TokenBucket(cfg.admit_rate * w / total_w, cfg.burst_capacity)
            for w in weights
        ]
        report = OverloadReport(
            tenants=cfg.tenants,
            offered=len(reqs),
            offered_streams=sum(r.n for r in reqs),
            slo_ttft=cfg.slo_ttft,
        )
        retry_budget = int(math.ceil(cfg.retry_budget * len(reqs)))
        # The (t, rid, attempt) key orders the heap deterministically and
        # never falls through to comparing Request objects.
        events = [(r.arrival, int(r.rid or 0), 0, r) for r in reqs]
        heapq.heapify(events)
        admitted: List = []
        while events:
            t, rid, attempt, r = heapq.heappop(events)
            tenant = self.tenant_of(r)
            if buckets[tenant].allow(t):
                report.admitted += 1
                report.tenant_admitted[tenant] = (
                    report.tenant_admitted.get(tenant, 0) + 1
                )
                if attempt:
                    # Re-arrive at the retry time; rid (and therefore every
                    # token id) is unchanged.
                    report.origin[rid] = r.arrival
                    r = replace(r, arrival=t)
                admitted.append(r)
                continue
            report.rejected += 1
            if attempt >= cfg.max_client_retries or report.retries >= retry_budget:
                report.dropped += 1
                continue
            report.retries += 1
            delay = cfg.retry_base * (cfg.retry_factor ** attempt)
            delay *= self._jitter(rid, attempt)
            heapq.heappush(events, (t + delay, rid, attempt + 1, r))
        admitted.sort(key=lambda q: q.arrival)
        return admitted, report


#: Brownout rungs in engagement order; ``level`` k (1-based) applies rungs
#: ``BROWNOUT_LADDER[:k]`` simultaneously.
BROWNOUT_LADDER: Tuple[str, ...] = (
    "shrink-prefill-chunk",
    "disable-cascade",
    "clamp-new-tokens",
    "shed-low-priority",
)


class BrownoutController:
    """SLO-driven degradation ladder with dwell-count hysteresis.

    The overload counterpart of
    :class:`repro.faults.recover.DegradeController`: where that machine
    trades the fancy backend for the dense baseline under *faults*, this
    one trades output quality-of-service for admission headroom under
    *load*, one rung at a time::

        level 0   off
        level 1   shrink prefill chunk size      (slower TTFT for long prompts)
        level 2   + disable cascade composition  (more HBM traffic)
        level 3   + clamp max_new_tokens         (shorter answers, exact prefix)
        level 4   + shed lowest priority tier    (drop queued priority < threshold)

    :meth:`observe` is fed one admission-saturation sample per engine
    step; ``engage_after`` consecutive samples at/above ``brownout_enter``
    climb a rung, ``anneal_after`` consecutive samples at/below
    ``brownout_exit`` descend one, and the band between holds — the same
    dwell-count hysteresis that keeps the degrade controller from
    flapping.  Every knob is read from the :class:`OverloadConfig`.
    """

    def __init__(self, config: OverloadConfig):
        self.config = config
        self.level = 0
        self.peak_level = 0
        self.engage_events = 0
        self.anneal_events = 0
        self._hot = 0
        self._cool = 0
        #: ``(t, from_level, to_level)`` rung changes, timestamped.
        self.transitions: List[Tuple[float, int, int]] = []

    def observe(self, sat: float, t: float) -> int:
        """Feed one step's admission saturation; returns +1 on engaging a
        rung, -1 on annealing one, 0 otherwise."""
        cfg = self.config
        if sat >= cfg.brownout_enter:
            self._hot += 1
            self._cool = 0
            if self._hot >= cfg.engage_after and self.level < len(BROWNOUT_LADDER):
                self._hot = 0
                self.level += 1
                self.peak_level = max(self.peak_level, self.level)
                self.engage_events += 1
                self.transitions.append((float(t), self.level - 1, self.level))
                return 1
        elif sat <= cfg.brownout_exit:
            self._cool += 1
            self._hot = 0
            if self._cool >= cfg.anneal_after and self.level > 0:
                self._cool = 0
                self.level -= 1
                self.anneal_events += 1
                self.transitions.append((float(t), self.level + 1, self.level))
                return -1
        else:
            # Hysteresis band: hold the current rung, reset both dwells.
            self._hot = 0
            self._cool = 0
        return 0

    @property
    def rung_name(self) -> str:
        return "off" if self.level == 0 else BROWNOUT_LADDER[self.level - 1]

    def chunk_budget(self, default: int) -> int:
        """Effective prefill chunk budget under the current rung."""
        return min(default, self.config.brownout_chunk) if self.level >= 1 else default

    @property
    def cascade_disabled(self) -> bool:
        return self.level >= 2

    @property
    def token_clamp(self) -> Optional[int]:
        """Total output tokens per stream while rung 3 is engaged."""
        return self.config.brownout_clamp if self.level >= 3 else None

    @property
    def shed_active(self) -> bool:
        return self.level >= 4

    def export_state(self) -> dict:
        """Serializable state (the DegradeController checkpoint contract)."""
        return {
            "level": self.level,
            "peak_level": self.peak_level,
            "hot": self._hot,
            "cool": self._cool,
            "engage_events": self.engage_events,
            "anneal_events": self.anneal_events,
        }

    def import_state(self, state: dict) -> None:
        self.level = int(state["level"])
        self.peak_level = int(state["peak_level"])
        self._hot = int(state["hot"])
        self._cool = int(state["cool"])
        self.engage_events = int(state["engage_events"])
        self.anneal_events = int(state["anneal_events"])


@dataclass
class OverloadReport:
    """Front-door / breaker / hedging / brownout / SLO accounting for one
    cluster run; attached as ``ClusterMetrics.overload`` and merged into
    its ``summary()`` only when overload is configured."""

    tenants: int
    offered: int = 0
    offered_streams: int = 0
    admitted: int = 0
    #: Bucket rejections (every denied dispatch attempt, retries included).
    rejected: int = 0
    #: Retry re-arrivals scheduled (bounded by the retry budget).
    retries: int = 0
    #: Requests that gave up at the door (attempts or budget exhausted).
    dropped: int = 0
    tenant_admitted: Dict[int, int] = field(default_factory=dict)
    #: rid → original (pre-retry) arrival, for honest SLO attainment.
    origin: Dict[int, float] = field(default_factory=dict)
    #: Seeded dispatch timeouts fired, and those re-dispatched elsewhere.
    timeouts: int = 0
    reroutes: int = 0
    #: Hedged prefills issued, and hedges whose secondary copy won.
    hedged: int = 0
    hedge_wins: int = 0
    breaker_opens: int = 0
    breaker_half_opens: int = 0
    breaker_closes: int = 0
    #: Every :class:`repro.cluster.router.BreakerTransition`, all replicas.
    breaker_transitions: List[object] = field(default_factory=list)
    brownout_engaged: int = 0
    brownout_annealed: int = 0
    brownout_peak_level: int = 0
    brownout_final_level: int = 0
    slo_ttft: float = 0.2
    slo_met: int = 0
    slo_attainment: float = 0.0

    def attach_breakers(self, breakers: Sequence) -> None:
        for b in breakers:
            self.breaker_transitions.extend(b.transitions)
            self.breaker_opens += b.open_count
            self.breaker_half_opens += b.half_open_count
            self.breaker_closes += b.close_count

    def attach_brownouts(self, controllers: Sequence) -> None:
        for c in controllers:
            if c is None:
                continue
            self.brownout_engaged += c.engage_events
            self.brownout_annealed += c.anneal_events
            self.brownout_peak_level = max(self.brownout_peak_level, c.peak_level)
            self.brownout_final_level = max(self.brownout_final_level, c.level)

    def finalize_slo(self, cluster_metrics) -> None:
        self.slo_met, self.slo_attainment = slo_attainment(
            cluster_metrics, self.offered_streams, self.slo_ttft, self.origin
        )

    def summary(self) -> Dict[str, float]:
        out = {
            "overload_offered": float(self.offered),
            "overload_admitted": float(self.admitted),
            "overload_rejected": float(self.rejected),
            "overload_retries": float(self.retries),
            "overload_dropped": float(self.dropped),
            "overload_timeouts": float(self.timeouts),
            "overload_reroutes": float(self.reroutes),
            "hedged_prefills": float(self.hedged),
            "hedge_wins": float(self.hedge_wins),
            "breaker_open_total": float(self.breaker_opens),
            "breaker_half_open_total": float(self.breaker_half_opens),
            "breaker_close_total": float(self.breaker_closes),
            "brownout_engaged": float(self.brownout_engaged),
            "brownout_annealed": float(self.brownout_annealed),
            "brownout_peak_level": float(self.brownout_peak_level),
            "brownout_final_level": float(self.brownout_final_level),
            "slo_attainment": float(self.slo_attainment),
        }
        for tenant, n in sorted(self.tenant_admitted.items()):
            out[f"tenant{tenant}_admitted"] = float(n)
        return out


def slo_attainment(
    cluster_metrics,
    offered_streams: int,
    slo_ttft: float,
    origin: Optional[Dict[int, float]] = None,
) -> Tuple[int, float]:
    """``(met, fraction)`` of offered streams whose TTFT beat ``slo_ttft``.

    The denominator is *everything offered*: streams dropped at the front
    door or shed inside an engine never produce a first token and count
    as misses, so an admission gate cannot improve its score by refusing
    work it could have served.  With ``origin`` (rid → original arrival),
    retried requests are measured from their first arrival — the
    client-side backoff is part of the latency the user saw.
    """
    met = 0
    for requests, metrics in zip(
        cluster_metrics.replica_requests, cluster_metrics.replicas
    ):
        for tr in metrics.traces:
            t0 = tr.arrival
            if origin is not None and 0 <= tr.req_id < len(requests):
                rid = requests[tr.req_id].rid
                if rid is not None:
                    t0 = origin.get(rid, tr.arrival)
            if tr.first_token_time - t0 <= slo_ttft:
                met += 1
    frac = met / offered_streams if offered_streams > 0 else 0.0
    return met, frac

"""The step tracer: typed event recording plus rolling statistics.

A :class:`StepTracer` is handed to :class:`repro.serving.engine.ServingEngine`
(or attached to the standalone API wrappers) and records one
:class:`~repro.obs.events.StepEvent` per engine step plus any
:class:`~repro.obs.events.KernelRecord` the attention backend surfaces.
It simultaneously folds every event into rolling counters and log-scale
latency histograms, so a long run can be summarized without retaining
gigabytes of events (``keep_events=False`` drops the event list entirely
and keeps only the rolling state).

The engine guarantees *zero* tracing overhead when no tracer is
installed: the step loop performs a single ``is None`` check and
allocates no event objects.
"""

from __future__ import annotations

import math
from typing import Dict, List

from repro.obs.events import STEP_COMPONENTS, FaultEvent, KernelRecord, StepEvent


class RollingHistogram:
    """Fixed-bin log-scale histogram of positive durations (seconds).

    Bins are half-open decades split ``bins_per_decade`` ways between
    ``lo`` and ``hi``; under/overflow land in the edge bins.  O(1) per
    observation, O(bins) memory — suitable for million-step runs.
    """

    def __init__(self, lo: float = 1e-6, hi: float = 10.0, bins_per_decade: int = 4):
        self.lo = lo
        self.hi = hi
        self.bins_per_decade = bins_per_decade
        decades = math.log10(hi / lo)
        self.num_bins = int(math.ceil(decades * bins_per_decade)) + 2  # ±overflow
        self.counts = [0] * self.num_bins
        self.total = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = 0.0

    def _bin(self, value: float) -> int:
        if value < self.lo:
            return 0
        if value >= self.hi:
            return self.num_bins - 1
        return 1 + int(math.log10(value / self.lo) * self.bins_per_decade)

    def add(self, value: float) -> None:
        if value <= 0:
            return
        self.counts[self._bin(value)] += 1
        self.total += 1
        self.sum += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)

    def bin_edges(self) -> List[float]:
        """Upper edge of each bin (the first bin's lower edge is 0)."""
        edges = [self.lo]
        for i in range(1, self.num_bins - 1):
            edges.append(self.lo * 10 ** (i / self.bins_per_decade))
        edges.append(math.inf)
        return edges

    def quantile(self, q: float) -> float:
        """Approximate quantile: the upper edge of the bin holding rank q."""
        if self.total == 0:
            return float("nan")
        rank = q * self.total
        edges = self.bin_edges()
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen >= rank:
                return min(edges[i], self.max)
        return self.max

    @property
    def mean(self) -> float:
        return self.sum / self.total if self.total else float("nan")


class StepTracer:
    """Records step events and kernel reports; maintains rolling stats.

    Parameters
    ----------
    capture_kernels:
        Also capture per-kernel :class:`SimReport` records from the
        attention backend (one or more per step).  Costs a few list
        allocations per step; switch off for very long runs.
    keep_events:
        Retain the full event list (needed by the Chrome-trace and CSV
        exporters).  With ``False`` only rolling counters/histograms are
        kept.
    """

    def __init__(self, capture_kernels: bool = True, keep_events: bool = True):
        self.capture_kernels = capture_kernels
        self.keep_events = keep_events
        self.events: List[StepEvent] = []
        self.kernels: List[KernelRecord] = []  #: standalone wrapper records
        # -- rolling state ----------------------------------------------------
        self.steps_by_kind: Dict[str, int] = {}
        self.component_time: Dict[str, float] = {c: 0.0 for c in STEP_COMPONENTS}
        self.idle_time = 0.0
        self.busy_time = 0.0
        self.total_prefill_tokens = 0
        self.total_decode_tokens = 0
        self.total_preemptions = 0
        self.total_prefix_hits = 0
        self.total_radix_hit_tokens = 0
        self.total_cascade_steps = 0
        self.kernel_time = 0.0
        self.num_kernels = 0
        self.step_hist = RollingHistogram()
        self.decode_step_hist = RollingHistogram()
        # -- fault/resilience state (all zero/empty outside chaos runs) ------
        self.fault_events: List[FaultEvent] = []
        self.fault_counts: Dict[str, int] = {}
        self.total_degraded_steps = 0
        # -- plan-cache state (zero unless an engine reports a PlanCache) ----
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0

    # -- recording ------------------------------------------------------------

    @property
    def num_steps(self) -> int:
        """Engine steps observed (idle gaps excluded)."""
        return sum(n for k, n in self.steps_by_kind.items() if k != "idle")

    def on_step(self, event: StepEvent) -> None:
        """Fold one step event into the rolling state (and retain it)."""
        if self.keep_events:
            self.events.append(event)
        self.steps_by_kind[event.kind] = self.steps_by_kind.get(event.kind, 0) + 1
        dur = event.duration
        if event.kind == "idle":
            self.idle_time += dur
            return
        self.busy_time += dur
        for comp, secs in event.breakdown.items():
            self.component_time[comp] = self.component_time.get(comp, 0.0) + secs
        self.total_prefill_tokens += event.num_prefill_tokens
        self.total_decode_tokens += event.num_decode_tokens
        self.total_preemptions += event.preemptions
        self.total_prefix_hits += event.prefix_cache_hits
        self.total_radix_hit_tokens += event.radix_hit_tokens
        if event.cascade_levels:
            self.total_cascade_steps += 1
        for k in event.kernels:
            self.kernel_time += k.makespan
            self.num_kernels += 1
        self.step_hist.add(dur)
        if event.kind == "decode":
            self.decode_step_hist.add(dur)
        if event.degraded:
            self.total_degraded_steps += 1

    def on_fault(self, event: FaultEvent) -> None:
        """Fold one fault/recovery event (kept when ``keep_events``)."""
        if self.keep_events:
            self.fault_events.append(event)
        key = f"{event.site}:{event.action}"
        self.fault_counts[key] = self.fault_counts.get(key, 0) + 1

    def note_plan_cache(self, hits: int, misses: int) -> None:
        """Accumulate plan-cache hit/miss deltas reported by an engine run."""
        self.plan_cache_hits += hits
        self.plan_cache_misses += misses

    def record_kernel(self, record: KernelRecord) -> None:
        """Record a kernel execution outside the engine step loop (the
        standalone API-wrapper hook)."""
        if self.capture_kernels:
            self.kernels.append(record)
        self.kernel_time += record.makespan
        self.num_kernels += 1

    # -- summaries ------------------------------------------------------------

    def counters(self) -> Dict[str, float]:
        """Flat counter dict, suitable for merging into a metrics summary."""
        out: Dict[str, float] = {
            "steps": float(self.num_steps),
            "busy_time": self.busy_time,
            "idle_time": self.idle_time,
            "prefill_tokens": float(self.total_prefill_tokens),
            "decode_tokens": float(self.total_decode_tokens),
            "prefix_cache_hits": float(self.total_prefix_hits),
            "kernels": float(self.num_kernels),
            "kernel_time": self.kernel_time,
        }
        for kind, n in sorted(self.steps_by_kind.items()):
            out[f"steps_{kind}"] = float(n)
        for comp, secs in self.component_time.items():
            out[f"time_{comp}"] = secs
        if self.step_hist.total:
            out["step_p50"] = self.step_hist.quantile(0.5)
            out["step_p99"] = self.step_hist.quantile(0.99)
        # Fault counters appear only when fault activity occurred, so a
        # fault-free run's counter dict is bit-identical to pre-resilience
        # behaviour.
        if self.fault_counts or self.total_degraded_steps:
            out["degraded_steps"] = float(self.total_degraded_steps)
            for key, n in sorted(self.fault_counts.items()):
                out[f"fault_{key.replace(':', '_')}"] = float(n)
        # Same convention: radix/cascade counters only when a hit occurred.
        if self.total_radix_hit_tokens or self.total_cascade_steps:
            out["radix_hit_tokens"] = float(self.total_radix_hit_tokens)
            out["cascade_steps"] = float(self.total_cascade_steps)
        # Same convention: plan-cache counters only when a cache was active.
        if self.plan_cache_hits or self.plan_cache_misses:
            out["plan_cache_hits"] = float(self.plan_cache_hits)
            out["plan_cache_misses"] = float(self.plan_cache_misses)
        return out

    def component_shares(self) -> Dict[str, float]:
        """Fraction of busy time per component (sums to ~1)."""
        if self.busy_time <= 0:
            return {c: 0.0 for c in self.component_time}
        return {c: s / self.busy_time for c, s in self.component_time.items()}

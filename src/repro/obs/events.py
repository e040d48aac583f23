"""Typed observability events (the schema of ``repro.obs``).

The paper's end-to-end analysis (§4.1, Figures 7–10) is about *where a
serving step's time goes* — attention vs GEMM vs allreduce vs host
overhead — and about how individual kernels behave inside each step
(Figure 8).  Two event types carry exactly that:

* :class:`StepEvent` — one engine step (prefill / decode / mixed /
  resume / idle) with its wall-clock interval, token counts, the
  per-component time breakdown of ``StepExecutor._step_terms``,
  KV-pool occupancy, and preemption/prefix-cache counters.
* :class:`KernelRecord` — one simulated kernel execution (a
  :class:`~repro.gpu.executor.SimReport` plus identity), captured from
  the attention backend or from a standalone API-wrapper call.

Both are plain dataclasses with ``to_dict`` so every exporter
(Chrome trace, CSV, text summary) shares one schema.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.gpu.executor import SimReport

#: Component keys of a step's time breakdown, in display order.  The sum
#: of these components equals the step duration exactly (they are the
#: terms of ``StepExecutor._step_terms``, regrouped).
STEP_COMPONENTS: Tuple[str, ...] = (
    "attention", "gemm", "allreduce", "lm_head", "overhead",
)

#: Step kinds a :class:`StepEvent` may carry.  ``idle`` marks wall-clock
#: gaps where the engine waited for the next arrival, so that the events
#: of a run tile ``[0, total_time]`` exactly.
STEP_KINDS: Tuple[str, ...] = ("prefill", "decode", "mixed", "resume", "idle")


@dataclass
class KernelRecord:
    """One simulated kernel execution, attributed to its wrapper."""

    name: str  #: wrapper/kernel label (e.g. ``fmt0_batch_3``, ``triton_fa2_decode``)
    phase: str  #: ``"prefill"`` / ``"decode"`` / ``"single"`` …
    makespan: float
    total_flops: float
    total_bytes: float
    num_tiles: int
    num_ctas: int
    balance: float

    @classmethod
    def from_report(cls, name: str, phase: str, report: SimReport) -> "KernelRecord":
        return cls(
            name=name,
            phase=phase,
            makespan=report.makespan,
            total_flops=report.total_flops,
            total_bytes=report.total_bytes,
            num_tiles=report.num_tiles,
            num_ctas=report.num_ctas,
            balance=report.balance,
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "phase": self.phase,
            "makespan": self.makespan,
            "total_flops": self.total_flops,
            "total_bytes": self.total_bytes,
            "num_tiles": self.num_tiles,
            "num_ctas": self.num_ctas,
            "balance": self.balance,
        }


@dataclass
class StepEvent:
    """One serving-engine step (or idle gap) on the simulated clock."""

    index: int  #: 0-based step number within the run
    kind: str  #: one of :data:`STEP_KINDS`
    t_start: float  #: simulated seconds since run start
    t_end: float
    num_prefill_tokens: int = 0  #: prompt tokens processed this step
    num_decode_tokens: int = 0  #: decode tokens produced this step
    num_streams: int = 0  #: live decode streams after the step
    #: Component → seconds; keys are :data:`STEP_COMPONENTS`.  Empty for
    #: ``idle`` events.
    breakdown: Dict[str, float] = field(default_factory=dict)
    kv_free_pages: int = 0
    kv_used_pages: int = 0
    preemptions: int = 0  #: streams evicted while making room for this step
    prefix_cache_hits: int = 0  #: prompts that reused cached prefix pages
    radix_hit_tokens: int = 0  #: prompt tokens served from the radix cache
    cascade_levels: int = 0  #: attention levels when run as a cascade (0 = dense)
    kernels: List[KernelRecord] = field(default_factory=list)
    #: Step ran on the degraded (dense-baseline) backend after repeated
    #: kernel faults; always ``False`` outside resilience runs.
    degraded: bool = False

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    @property
    def num_tokens(self) -> int:
        return self.num_prefill_tokens + self.num_decode_tokens

    def component(self, name: str) -> float:
        return self.breakdown.get(name, 0.0)

    def to_dict(self) -> Dict[str, object]:
        d: Dict[str, object] = {
            "index": self.index,
            "kind": self.kind,
            "t_start": self.t_start,
            "t_end": self.t_end,
            "duration": self.duration,
            "num_prefill_tokens": self.num_prefill_tokens,
            "num_decode_tokens": self.num_decode_tokens,
            "num_streams": self.num_streams,
            "kv_free_pages": self.kv_free_pages,
            "kv_used_pages": self.kv_used_pages,
            "preemptions": self.preemptions,
            "prefix_cache_hits": self.prefix_cache_hits,
        }
        if self.degraded:
            # Only resilience runs carry the key: plain-run exports are
            # byte-identical with and without the fault layer compiled in.
            d["degraded"] = True
        if self.radix_hit_tokens:
            # Same convention for the prefix-cache keys: cold-cache exports
            # are byte-identical with and without the radix layer wired in.
            d["radix_hit_tokens"] = self.radix_hit_tokens
        if self.cascade_levels:
            d["cascade_levels"] = self.cascade_levels
        for comp in STEP_COMPONENTS:
            d[comp] = self.breakdown.get(comp, 0.0)
        d["kernels"] = [k.to_dict() for k in self.kernels]
        return d


#: Actions a :class:`FaultEvent` may record.  ``injected`` events come
#: from the fault plan; every one must be matched by a detection /
#: recovery / shed event for a chaos run to be token-exact.
#: ``committed``/``restored``/``replayed``/``diverged`` belong to the
#: crash-recovery layer: a snapshot landed in the checkpoint store, an
#: engine resumed from one, a journaled token was re-emitted identically
#: on replay, or it was not.
FAULT_ACTIONS: Tuple[str, ...] = (
    "injected", "detected", "evicted", "retry", "shed", "degraded", "annealed",
    "flagged", "committed", "restored", "replayed", "diverged",
)


@dataclass
class FaultEvent:
    """One fault-related occurrence on the simulated clock.

    ``site`` names the injection/detection site (``kernel``, ``corrupt``,
    ``alloc``, ``straggler``, ``numeric``, ``crash``, ``ckpt``,
    ``recover``, ``checksum``, ``watchdog``, ``deadline``, ``overload``,
    ``retries``, ``backend``); ``action`` is one of :data:`FAULT_ACTIONS`.
    """

    site: str
    action: str
    t: float  #: simulated seconds since run start
    step_index: int = -1  #: engine step during which this occurred
    req_id: int = -1  #: affected request index (-1 = not request-scoped)
    detail: str = ""

    def to_dict(self) -> Dict[str, object]:
        return {
            "site": self.site,
            "action": self.action,
            "t": self.t,
            "step_index": self.step_index,
            "req_id": self.req_id,
            "detail": self.detail,
        }


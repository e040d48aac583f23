"""Recovery policy: retries, deadlines, degradation, watchdog budgets.

:class:`ResilienceConfig` is the engine-side policy companion to the
injection-side :class:`repro.faults.FaultPlan`: the plan decides *what
breaks*, this config decides *what the engine does about it*.  The two are
deliberately independent — a deadline-only run needs no fault plan, and an
injection run with recovery disabled is the negative control that proves
the detection layer is load-bearing.

:class:`DegradeController` is the graceful-degradation state machine::

        consecutive kernel faults >= DEGRADE_AFTER
      PRIMARY ────────────────────────────────────────▶ DEGRADED
   (FlashInfer)  ◀──────────────────────────────────  (dense baseline)
        anneal_after consecutive clean degraded steps
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass
class ResilienceConfig:
    """Detection and recovery knobs for :class:`repro.serving.ServingEngine`.

    Only a field a program sets or a test needs stays a field
    (``tests/test_knobs.py``); the rest are constants.  A resilient engine
    always records token ids and sheds queued work when capacity-blocked.
    """

    #: Per-stream bound on recompute retries (checksum rollbacks and
    #: transient-alloc re-queues); exceeding it sheds the stream.
    max_retries: int = 3
    #: Default relative deadline (seconds after arrival) applied to
    #: requests that do not carry their own; ``None`` disables shedding
    #: on time.
    deadline: Optional[float] = None
    #: Verify KV page checksums at the top of every engine step and roll
    #: corrupted sequences back to their last verified page.
    checksums: bool = True
    #: Simulated-clock watchdog: flag steps longer than this budget
    #: (seconds); ``None`` disables the watchdog.
    step_budget: Optional[float] = None
    #: Consecutive clean degraded steps before annealing back to the
    #: primary backend.
    anneal_after: int = 8

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError("deadline must be positive")
        if self.step_budget is not None and self.step_budget <= 0:
            raise ValueError("step_budget must be positive")
        if self.anneal_after < 1:
            raise ValueError("anneal_after must be >= 1")


#: Consecutive kernel faults that trip degradation to the dense baseline
#: backend.
DEGRADE_AFTER = 3


class DegradeController:
    """Tracks the PRIMARY ↔ DEGRADED backend state across engine steps."""

    def __init__(self, anneal_after: int):
        self.anneal_after = anneal_after
        self.degraded = False
        self._fault_strikes = 0
        self._clean_streak = 0

    def on_kernel_fault(self) -> bool:
        """Record one kernel fault; returns True if this trips degradation."""
        self._fault_strikes += 1
        if not self.degraded and self._fault_strikes >= DEGRADE_AFTER:
            self.degraded = True
            self._clean_streak = 0
            return True
        return False

    def force_degrade(self) -> bool:
        """Degrade immediately (per-step retry budget exhausted)."""
        if not self.degraded:
            self.degraded = True
            self._clean_streak = 0
            return True
        return False

    def on_clean_step(self) -> bool:
        """Record a fault-free step; returns True if this anneals back."""
        if self.degraded:
            self._clean_streak += 1
            if self._clean_streak >= self.anneal_after:
                self.degraded = False
                self._fault_strikes = 0
                self._clean_streak = 0
                return True
        else:
            self._fault_strikes = 0
        return False

    def export_state(self) -> dict:
        """Serializable snapshot for engine checkpointing."""
        return {
            "degraded": self.degraded,
            "fault_strikes": self._fault_strikes,
            "clean_streak": self._clean_streak,
        }

    def import_state(self, state) -> None:
        self.degraded = bool(state["degraded"])
        self._fault_strikes = int(state["fault_strikes"])
        self._clean_streak = int(state["clean_streak"])


class KVScrubber:
    """KV-integrity interception points around each engine step.

    Two hooks, both no-ops without an attached fault plan / checksums:

    * :meth:`scrub` — top of step, *before* any extend/COW can copy a
      corrupted page: detect corrupted pages and roll their owners back.
    * :meth:`inject` — end of step: corrupt one live page from the fault
      plan's ``corrupt`` RNG stream for the next scrub to find.

    Duck-typed against the engine pipeline (``engine`` for counters and
    fault events, ``state`` for queues/cache, ``admission`` for shedding
    and retry budgets) so the faults layer does not import serving.
    """

    def __init__(self, engine, state, admission):
        self.engine = engine
        self.state = state
        self.admission = admission

    def scrub(self, t: float) -> None:
        """Detect corrupted pages and roll their owners back.

        The radix tree forgets every cached chunk backed by one (and the
        chunks below it), so no later prompt can match it.  A stream
        holding one is truncated to its last verified page boundary and
        re-prefills the rest (recompute) through the preemption
        machinery; partial prefills restart.  Per-stream retries are
        bounded; exceeding the bound sheds the stream.
        """
        eng, st, adm = self.engine, self.state, self.admission
        cache, requests = st.cache, st.requests
        bad = cache.find_corrupted()
        if not bad:
            return
        bad_set = set(bad)
        resil = eng.resilience
        eng._count("checksum_failures", len(bad))
        eng._fault_event("corrupt", "detected", t, detail=f"pages {bad}")
        if st.radix is not None:
            dropped = st.radix.drop_pages(bad_set)
            if dropped:
                eng._fault_event(
                    "corrupt", "evicted", t,
                    detail=f"radix tree dropped {dropped} cached pages",
                )
        for pp in [p for p in st.prefilling if bad_set.intersection(cache.seq_pages(p.seq_id))]:
            st.prefilling.remove(pp)
            cache.free_seq(pp.seq_id)
            req = requests[pp.req_idx]
            n_retry = adm.prefill_retries.get(pp.req_idx, 0) + 1
            adm.prefill_retries[pp.req_idx] = n_retry
            if n_retry > resil.max_retries:
                adm.shed_request(req, pp.req_idx, t, "retries")
            else:
                eng._count("retries")
                eng._fault_event("corrupt", "retry", t, req_id=pp.req_idx,
                                 detail="partial prefill restarted")
                st.prefill_queue.appendleft(pp.req_idx)
        for s in [s for s in st.streams if bad_set.intersection(cache.seq_pages(s.seq_id))]:
            st.streams.remove(s)
            self._rollback_stream(s, bad_set, t)
        for s in [
            s for s in st.preempted
            if s.seq_id >= 0 and bad_set.intersection(cache.seq_pages(s.seq_id))
        ]:
            st.preempted.remove(s)
            self._rollback_stream(s, bad_set, t)

    def _rollback_stream(self, s, bad_set, t: float) -> None:
        """Truncate a corrupted stream to its last verified page boundary
        and queue the recompute, or shed it if its retry budget is spent."""
        eng, st, adm = self.engine, self.state, self.admission
        cache = st.cache
        pages = cache.seq_pages(s.seq_id)
        first_bad = min(i for i, p in enumerate(pages) if p in bad_set)
        keep = first_bad * cache.page_size
        s.resume_len = max(cache.seq_len(s.seq_id), s.resume_len)
        if keep > 0:
            cache.truncate(s.seq_id, keep)
        else:
            cache.free_seq(s.seq_id)
            s.seq_id = -1
        s.retries += 1
        if s.retries > eng.resilience.max_retries:
            if s.seq_id >= 0:
                cache.free_seq(s.seq_id)
                s.seq_id = -1
            adm.shed_stream(s, t, "retries")
        else:
            eng._count("retries")
            eng._fault_event(
                "corrupt", "retry", t, req_id=s.req_idx,
                detail=f"rolled back to {keep}/{s.resume_len} tokens",
            )
            st.preempted.append(s)

    def inject(self, t: float) -> None:
        """End-of-step KV corruption: pick a live page from the plan's
        ``corrupt`` stream.  The scrub at the top of the next step (or the
        taint path, when detection is off) observes it."""
        plan = self.engine.fault_plan
        if plan is None:
            return
        cache = self.state.cache
        used = cache.used_pages()
        if not used:
            return
        if plan.fire("corrupt"):
            page = used[plan.choose("corrupt", len(used))]
            cache.corrupt_page(page)
            self.engine._fault_event("corrupt", "injected", t, detail=f"page {page}")

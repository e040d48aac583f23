"""Admission control: queueing, capacity gates, deadlines and shedding.

First layer of the engine pipeline.  Arrival-ordered requests are admitted
FCFS under the ``max_running`` concurrency gate (the
:class:`repro.serving.policy.SchedulerPolicy` may then reorder the
admitted queue); page-capacity fits keep one page of decode headroom per
live stream; and every way a unit of work leaves the system early —
deadline expiry, overload, retry exhaustion — lives here.

:meth:`AdmissionController.requeue` is the single transient-allocation
recovery path: queued prompts, partial prefill chunks and decode/resume
streams all fold into it (previously three near-duplicate blocks).
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.kvcache.paged import TransientAllocFault
from repro.serving.batching import PartialPrefill, RunState, Stream
from repro.serving.metrics import RequestTrace
from repro.serving.workload import Request


class AdmissionController:
    """Per-run queue admission, capacity fits, requeue and shedding."""

    def __init__(self, engine, state: RunState):
        self.engine = engine
        self.state = state
        #: Per-request transient-fault retries consumed before the prompt
        #: finished prefilling (streams carry their own counter after).
        self.prefill_retries: Dict[int, int] = {}

    # -- admission ------------------------------------------------------------

    def admit(self, t: float) -> None:
        """Move arrived requests into the prefill queue, FCFS, under the
        ``max_running`` concurrency gate."""
        eng = self.engine
        st, cfg = self.state, eng.config
        while st.waiting and st.requests[st.waiting[0]].arrival <= t:
            idx = st.waiting[0]
            if len(st.streams) + len(st.prefill_queue) + st.requests[idx].n > cfg.max_running:
                break
            st.prefill_queue.append(idx)
            st.waiting.popleft()
            if eng._journal is not None:
                eng._journal.admit(idx, t)

    def absorb_handoffs(self, t: float) -> None:
        """Turn admitted handed-off requests into live decode streams.

        Disaggregated decode replicas never prefill a handed-off prompt:
        the prefill pool already did that compute and shipped the KV pages
        over the topology.  Absorbing an import allocates the context's
        page-table structure (the wire transfer already priced the bytes),
        seeds each generation's stream with the prefill-side first token,
        and resumes decoding at position 1 — token-exactly, because token
        ids are a pure function of ``(rid, gen, position)``.

        Imports that do not fit under pool pressure stay queued and retry
        next step; a transient allocation fault follows the same
        retry-or-shed path as a faulted prefill.
        """
        eng = self.engine
        st = self.state
        imports = eng._handoff_imports
        record = eng._degrade is not None
        for idx in list(st.prefill_queue):
            imps = imports.get(idx)
            if imps is None:
                continue
            if not self.fits(imps[0].context_len):
                continue  # pool pressure: keep queued, retry next step
            st.prefill_queue.remove(idx)
            req = st.requests[idx]
            base_sid = -1
            created = []
            try:
                for k, imp in enumerate(imps):
                    if k == 0:
                        sid = st.cache.new_seq()
                        created.append(sid)
                        st.cache.extend(sid, imp.context_len)
                        base_sid = sid
                    else:
                        # Generations share the prompt pages copy-on-write,
                        # exactly as colocated fork groups do.
                        sid = st.cache.fork_seq(base_sid)
                        created.append(sid)
            except TransientAllocFault:
                for sid in created:
                    st.cache.free_seq(sid)
                self.requeue_prompt(idx, t)
                continue
            for sid, imp in zip(created, imps):
                trace = RequestTrace(
                    arrival=imp.arrival, first_token_time=imp.t_ready,
                    req_id=idx, gen_index=imp.gen,
                )
                stream = Stream(idx, sid, imp.remaining, trace)
                stream.gen_index = imp.gen
                if eng._degrade is not None:
                    stream.deadline = eng._deadline_for(req)
                if record:
                    trace.tokens = [imp.tok0]
                    eng._emit_token(idx, imp.gen, 0, imp.tok0, t)
                st.streams.append(stream)

    def fits(self, tokens: int) -> bool:
        """Admission control: keep one page of decode headroom per live
        stream so prefill cannot starve running decodes.

        Radix-cached pages the tree could evict count as free: cached-but-
        idle prefixes must never block admission (the batch former evicts
        them on demand before extending).
        """
        st = self.state
        need = -(-tokens // st.cache.page_size) + len(st.streams)
        free = st.cache.num_free_pages
        if free < need and st.radix is not None:
            free += st.radix.evictable_pages()
        return free >= need

    def fits_resume(self, s: Stream) -> bool:
        st = self.state
        if s.seq_id >= 0:
            # Partial rollback: only the truncated tail needs pages.
            need = (
                -(-s.resume_len // st.cache.page_size)
                - len(st.cache.seq_pages(s.seq_id))
                + len(st.streams)
            )
            free = st.cache.num_free_pages
            if free < need and st.radix is not None:
                free += st.radix.evictable_pages()
            return free >= need
        return self.fits(s.resume_len)

    # -- transient-alloc requeue (the unified helper) -------------------------

    def requeue(
        self,
        req_id: int,
        t: float,
        bump: Callable[[], int],
        on_shed: Callable[[], None],
        on_retry: Callable[[], None],
    ) -> None:
        """One transient-allocation recovery: trace the injection, charge a
        retry against the budget, then requeue or shed.

        ``bump`` advances and returns the relevant retry counter;
        ``on_retry``/``on_shed`` put the work back (queue head, prefilling
        head, or preempted deque) or account the shed.
        """
        eng = self.engine
        eng._count("alloc_faults")
        eng._fault_event("alloc", "injected", t, req_id=req_id)
        if bump() > eng.resilience.max_retries:
            on_shed()
        else:
            eng._count("retries")
            eng._fault_event("alloc", "retry", t, req_id=req_id)
            on_retry()

    def _bump_prefill(self, idx: int) -> int:
        n = self.prefill_retries.get(idx, 0) + 1
        self.prefill_retries[idx] = n
        return n

    def requeue_prompt(self, idx: int, t: float) -> None:
        """A queued prompt hit a transient allocation fault: retry it at
        the head of the queue, or shed it once its budget is spent."""
        st = self.state
        self.requeue(
            idx, t,
            bump=lambda: self._bump_prefill(idx),
            on_shed=lambda: self.shed_request(st.requests[idx], idx, t, "retries"),
            on_retry=lambda: st.prefill_queue.appendleft(idx),
        )

    def requeue_chunk(self, pp: PartialPrefill, t: float) -> None:
        """A prefill chunk hit a transient allocation fault: the partial
        prompt keeps the queue head and retries next step, unless its
        request's retry budget is spent."""
        st = self.state

        def on_shed() -> None:
            st.prefilling.remove(pp)
            st.cache.free_seq(pp.seq_id)
            self.shed_request(st.requests[pp.req_idx], pp.req_idx, t, "retries")

        self.requeue(
            pp.req_idx, t,
            bump=lambda: self._bump_prefill(pp.req_idx),
            on_shed=on_shed,
            on_retry=lambda: None,  # pp already holds the prefilling head
        )

    def requeue_stream(self, s: Stream, t: float, front: bool = False) -> None:
        """A decode extend or resume recompute hit a transient allocation
        fault: preempt the stream for recompute (``front`` restores a
        resume-step stream to the head of the preempted deque), or shed it
        when out of retries."""
        st = self.state

        def bump() -> int:
            s.retries += 1
            return s.retries

        def on_shed() -> None:
            if s.seq_id >= 0:
                st.cache.free_seq(s.seq_id)
                s.seq_id = -1
            self.shed_stream(s, t, "retries")

        def on_retry() -> None:
            if front:
                st.preempted.appendleft(s)
            else:
                st.preempted.append(s)

        self.requeue(s.req_idx, t, bump=bump, on_shed=on_shed, on_retry=on_retry)

    # -- shedding -------------------------------------------------------------

    def shed_queued(self, req: Request, idx: int, gen: int, t: float, reason: str) -> None:
        """Shed a generation that never produced a token."""
        trace = RequestTrace(
            arrival=req.arrival, first_token_time=t,
            req_id=idx, gen_index=gen, outcome_reason=reason,
        )
        self.state.metrics.shed(trace)
        self.engine._note_shed(idx, gen, reason, t)

    def shed_request(self, req: Request, idx: int, t: float, reason: str) -> None:
        """Shed every not-yet-spawned generation of one request."""
        for j in range(req.n):
            self.shed_queued(req, idx, j, t, reason)

    def shed_stream(self, s: Stream, t: float, reason: str) -> None:
        s.trace.outcome_reason = reason
        self.state.metrics.shed(s.trace)
        self.engine._note_shed(s.req_idx, s.gen_index, reason, t)

    def shed_expired(self, t: float) -> None:
        """Deterministic deadline shedding: drop every unit of work whose
        absolute deadline has passed, scanning queues in a fixed order."""
        st = self.state
        requests, cache = st.requests, st.cache

        def expired(req: Request) -> bool:
            dl = self.engine._deadline_for(req)
            return dl is not None and t > dl

        for idx in [i for i in st.prefill_queue if expired(requests[i])]:
            st.prefill_queue.remove(idx)
            self.shed_request(requests[idx], idx, t, "deadline")
        for pp in [p for p in st.prefilling if expired(requests[p.req_idx])]:
            st.prefilling.remove(pp)
            cache.free_seq(pp.seq_id)
            self.shed_request(requests[pp.req_idx], pp.req_idx, t, "deadline")
        for s in [s for s in st.streams if s.deadline is not None and t > s.deadline]:
            st.streams.remove(s)
            cache.free_seq(s.seq_id)
            self.shed_stream(s, t, "deadline")
        for s in [s for s in st.preempted if s.deadline is not None and t > s.deadline]:
            st.preempted.remove(s)
            if s.seq_id >= 0:
                cache.free_seq(s.seq_id)
            self.shed_stream(s, t, "deadline")

    def shed_overload(self, t: float) -> None:
        """Capacity-blocked with nothing running: shed the youngest unit of
        queued work instead of aborting the whole run.

        Youngest-first deliberately ignores ``Request.priority`` — arrival
        recency is the tiebreak even between same-age requests (the queue
        *tail* goes first).  Priority still protects high-priority work
        indirectly: :class:`repro.serving.policy.PriorityPolicy` keeps it at
        the queue head, so under pressure low-priority requests pool at the
        tail where this shed bites (covered by
        ``tests/test_serving_admission.py::TestShedPriorityInteraction``).
        Priority-*targeted* shedding is the brownout ladder's last rung
        (:class:`repro.serving.overload.BrownoutController`), not this path.
        """
        st = self.state
        if st.prefill_queue:
            idx = st.prefill_queue.pop()  # youngest admitted request
            self.shed_request(st.requests[idx], idx, t, "overload")
        else:
            s = st.preempted.pop()  # youngest preempted stream
            if s.seq_id >= 0:
                st.cache.free_seq(s.seq_id)
                s.seq_id = -1
            self.shed_stream(s, t, "overload")

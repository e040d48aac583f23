"""Step execution and postprocessing: the back half of the engine pipeline.

:class:`StepExecutor` prices one :class:`~repro.serving.batching.StepPlan`
through the attention backend — owning the kernel fault-retry loop and the
degrade-to-dense-fallback hooks — and assembles the full step time
(layers × (attention + GEMM + allreduce) + LM head + overhead).

:class:`Postprocessor` applies a priced step back to the run state: stream
spawn/fork on finished prefills, token recording, finishes, and the
per-step :class:`~repro.obs.StepEvent` emission for tracing.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.faults.recover import DEGRADE_AFTER
from repro.gpu.executor import KernelFault
from repro.obs.events import KernelRecord, StepEvent
from repro.serving.batching import (
    RunState,
    StepPlan,
    Stream,
    TOKEN_VOCAB,
    token_id,
)
from repro.serving.metrics import RequestTrace
from repro.serving.workload import Request

#: Host batching and sampling time charged to every step (seconds).
SCHEDULER_OVERHEAD = 30e-6
#: Kernel-launch retries within one step before it falls back to the
#: degraded backend.
MAX_KERNEL_RETRIES = 3
#: Simulated seconds charged per failed kernel launch (the retry is not
#: free: the host observes the fault and re-dispatches).
FAULT_LATENCY = 200e-6


def _token_key(requests, idx: int) -> int:
    """Token key for request ``idx``: its cluster-global ``rid`` when the
    router assigned one, else the replica-local index (identical for
    single-engine runs, so token streams are unchanged)."""
    rid = requests[idx].rid
    return idx if rid is None else rid


class StepExecutor:
    """Price a formed step: attention (with retry/degrade) plus the rest."""

    def __init__(self, engine, state: RunState):
        self.engine = engine
        self.state = state
        #: With numerics, the last step's last-row logits of each query
        #: group, keyed by its stream or, for a prompt, its request index.
        self.logits: dict = {}
        #: Host-observed extra latency from kernel retries this step.
        self.fault_penalty = 0.0
        #: Backend that actually priced the last step (for kernel reports).
        self.step_backend = engine.backend
        self.step_degraded = False

    def execute(self, plan: StepPlan, t: float) -> Tuple[float, float, float]:
        """Run ``plan``'s attention and advance time.

        Returns ``(t_start, t_end, attn_per_layer)``.
        """
        attn = self._attention(plan, t) if self.engine.numerics is None else self._compute(plan)
        t_end = t + self._step_time(attn, plan.num_tokens)
        ic = self.engine.interconnect
        if ic is not None:
            # Account this step's all-reduce traffic against the cluster
            # interconnect (pricing happened inside _step_time).
            ic.charge_step(
                plan.num_tokens, self.engine.backend.characteristics.allreduce_efficiency
            )
        return t, t_end, attn

    # -- step-time assembly ---------------------------------------------------

    def _allreduce_per_layer(self, num_tokens: int) -> float:
        """Per-layer tensor-parallel all-reduce time: the flat NVLink-bus
        model, or — under a cluster interconnect — the topology's ring
        model."""
        eng = self.engine
        ch = eng.backend.characteristics
        ic = eng.interconnect
        if ic is None:
            return eng.model.allreduce_time(
                num_tokens, eng.config.tensor_parallel, ch.allreduce_efficiency
            )
        return ic.allreduce_per_layer(num_tokens, ch.allreduce_efficiency)

    def _step_terms(
        self, attn_per_layer: float, num_tokens: int
    ) -> Tuple[float, float, float, float, float]:
        """Per-layer attention, GEMM and all-reduce time, then the LM head
        and the backend's per-step overhead: the terms of one step."""
        eng = self.engine
        m, cfg = eng.model, eng.config
        ch = eng.backend.characteristics
        return (
            attn_per_layer,
            m.layer_nonattn_time(num_tokens, eng.gpu, ch.gemm_efficiency, cfg.tensor_parallel),
            self._allreduce_per_layer(num_tokens),
            m.lm_head_time(num_tokens, eng.gpu, ch.gemm_efficiency, cfg.tensor_parallel),
            eng.backend.step_overhead(m.num_layers, eng.gpu),
        )

    def _step_time(self, attn_per_layer: float, num_tokens: int) -> float:
        attn, gemm, allreduce, lm_head, overhead = self._step_terms(attn_per_layer, num_tokens)
        total = (
            self.engine.model.num_layers * (attn + gemm + allreduce)
            + lm_head + overhead + SCHEDULER_OVERHEAD
        )
        if self.fault_penalty:
            total += self.fault_penalty  # host-observed kernel retries
        return total

    def _step_components(self, attn_per_layer: float, num_tokens: int) -> dict:
        """The terms of :meth:`_step_time` itemized for tracing; the values
        sum to the step duration (same terms, regrouped)."""
        attn, gemm, allreduce, lm_head, overhead = self._step_terms(attn_per_layer, num_tokens)
        layers = self.engine.model.num_layers
        return {
            "attention": layers * attn,
            "gemm": layers * gemm,
            "allreduce": layers * allreduce,
            "lm_head": lm_head,
            "overhead": overhead + SCHEDULER_OVERHEAD + self.fault_penalty,
        }

    # -- numerics ---------------------------------------------------------------

    def _compute(self, plan: StepPlan) -> float:
        """Run ``plan``'s rows through the model, keeping each query group's
        last-row logits in :attr:`logits`; returns the attention time per
        layer.  Each layer variant's stack is planned once for the step's
        formats and run in every layer of that variant, over the cache
        whose head axis holds every layer's KV."""
        eng, st = self.engine, self.state
        model, cache, mapping = eng.numerics, st.cache, plan.mapping
        if plan.kind == "prefill":
            sources = [idx for idx, _ in plan.prefilled]
        elif plan.kind == "resume":
            sources = plan.resumed
        else:
            sources = st.streams + [pp.req_idx for pp, _ in plan.chunks]
        starts, pos = mapping.qo_indptr, mapping.q_pos
        groups = np.repeat(np.arange(mapping.num_groups), mapping.qo_lens)
        # A row reads its position of its history: the prompt, then what its
        # stream generated (a decode row its last token, a resumed stream's
        # recompute everything before it).
        tokens = np.concatenate([
            self._history(src)[pos[starts[g]:starts[g + 1]]] for g, src in enumerate(sources)
        ])
        kv, page = mapping.kv, cache.page_size
        slots = kv.indices[kv.indptr[groups] + pos // page] * page + pos % page
        heads = eng.heads.num_kv_heads
        stacks = {v: eng.backend.stack(v, model.kv_dtype, plan.formats)
                  for v in dict.fromkeys(model.layer_variants)}
        makespans = []

        def attend(layer, q, k, v):
            layer_heads = slice(layer * heads, (layer + 1) * heads)
            k_pool, v_pool = cache.k_pool[:, layer_heads], cache.v_pool[:, layer_heads]
            k_pool[slots], v_pool[slots] = k, v
            out, report = stacks[model.layer_variants[layer]].run(q, k_pool, v_pool)
            makespans.append(report.makespan)
            return out

        h = model.forward(tokens, pos, attend)
        self.logits = dict(zip(sources, model.logits(h[starts[1:] - 1])))
        return sum(makespans) / len(makespans)

    def _history(self, source) -> np.ndarray:
        """A prompt's tokens (``source`` a request index), or a stream's
        prompt followed by the tokens it generated."""
        stream = source if isinstance(source, Stream) else None
        idx = source if stream is None else stream.req_idx
        requests = self.state.requests
        prompt = self.engine.numerics.prompt(requests[idx], _token_key(requests, idx))
        return prompt if stream is None else np.append(prompt, stream.trace.tokens)

    # -- attention with retry / degradation ------------------------------------

    def _fallback(self):
        """The degraded-mode backend: a dense baseline with no injector
        attached, so its launches cannot fault."""
        from repro.serving.backends import TritonBackend

        eng = self.engine
        fb = eng._fallback_backend
        if fb is None:
            fb = TritonBackend(eng.heads, eng.gpu)
            eng._fallback_backend = fb
        fb.collect_kernel_reports = eng.backend.collect_kernel_reports
        return fb

    def _attention(self, plan: StepPlan, t: float) -> float:
        """One step's attention with retry / degradation around the backend;
        the fallback prices the dense ``plan.mapping``.

        Plain runs take the first branch: a direct backend call."""
        eng = self.engine
        if eng._degrade is None:
            return eng.backend.attention_time(plan.formats)
        ctrl = eng._degrade
        self.fault_penalty = 0.0
        self.step_backend = eng.backend
        self.step_degraded = False
        # Stragglers stretch a CTA inside the executor without raising, so
        # the engine surfaces them by diffing the plan's fired counter.
        fault_plan = eng.fault_plan
        stragglers_before = fault_plan.injected["straggler"] if fault_plan is not None else 0
        if ctrl.degraded:
            fb = self._fallback()
            attn = fb.attention_time(plan.mapping)
            self.step_backend = fb
            self.step_degraded = True
            eng._count("degraded_steps")
            if ctrl.on_clean_step():
                eng._fault_event(
                    "degrade", "annealed", t,
                    detail=f"{ctrl.anneal_after} clean degraded steps",
                )
            self._note_stragglers(stragglers_before, t)
            return attn
        faults = 0
        while True:
            try:
                attn = eng.backend.attention_time(plan.formats)
                break
            except KernelFault as exc:
                faults += 1
                self.fault_penalty += FAULT_LATENCY
                eng._count("kernel_faults")
                eng._fault_event("kernel", "injected", t, detail=str(exc)[:120])
                if ctrl.on_kernel_fault():
                    eng._fault_event(
                        "degrade", "degraded", t,
                        detail=f"{DEGRADE_AFTER} kernel-fault strikes",
                    )
                elif faults > MAX_KERNEL_RETRIES and ctrl.force_degrade():
                    eng._fault_event(
                        "degrade", "degraded", t,
                        detail="per-step kernel retry budget exhausted",
                    )
                if ctrl.degraded:
                    # Final, guaranteed-clean attempt on the fallback.
                    fb = self._fallback()
                    attn = fb.attention_time(plan.mapping)
                    self.step_backend = fb
                    self.step_degraded = True
                    eng._count("degraded_steps")
                    break
                eng._count("retries")
                eng._fault_event("kernel", "retry", t, detail=f"attempt {faults + 1}")
        if faults == 0:
            ctrl.on_clean_step()
        self._note_stragglers(stragglers_before, t)
        return attn

    def _note_stragglers(self, before: int, t: float) -> None:
        """Trace straggler injections that fired during this step's
        launches; their latency cost is already inside the simulated
        makespan, so no recovery action is needed."""
        plan = self.engine.fault_plan
        if plan is None:
            return
        for _ in range(plan.injected["straggler"] - before):
            self.engine._fault_event(
                "straggler", "injected", t,
                detail=f"CTA serial+memory streams x{plan.straggler_factor:g}",
            )


class Postprocessor:
    """Apply a priced step: spawn/record/finish streams, emit trace events."""

    def __init__(self, engine, state: RunState, executor: StepExecutor):
        self.engine = engine
        self.state = state
        self.executor = executor

    def finalize(self, plan: StepPlan, t0: float, t1: float, attn: float) -> None:
        eng, st = self.engine, self.state
        cache, requests, streams = st.cache, st.requests, st.streams
        if plan.kind == "prefill":
            for idx, sid in plan.prefilled:
                req = requests[idx]
                for j in range(req.n):
                    stream_seq = sid if j == req.n - 1 else cache.fork_seq(sid)
                    self._spawn_stream(req, idx, j, stream_seq, t1)
        elif plan.kind == "mixed":
            # Prompts whose last chunk landed this step start decoding.
            for pp, _ in plan.chunks:
                req = requests[pp.req_idx]
                if pp.filled == req.prompt_len:
                    for j in range(req.n):
                        sid = pp.seq_id if j == req.n - 1 else cache.fork_seq(pp.seq_id)
                        self._spawn_stream(req, pp.req_idx, j, sid, t1)
            self._advance_decodes(t1, skip_spawned=True)
        elif plan.kind == "decode":
            self._advance_decodes(t1, skip_spawned=False)
        elif plan.kind == "resume":
            streams.extend(plan.resumed)
        if eng._tracer is not None:
            self._emit_step(
                plan.kind, t0, t1, attn, plan.num_prefill_tokens,
                plan.num_decode_tokens, len(streams), cache,
                st.metrics.preemptions - plan.preempt_before,
            )

    def _advance_decodes(self, t: float, skip_spawned: bool) -> None:
        """One decoded token per live stream; finish exhausted streams."""
        eng, st = self.engine, self.state
        finished: List[Stream] = []
        record = eng._degrade is not None or eng.numerics is not None
        for s in st.streams:
            if skip_spawned and s.trace.first_token_time == t:
                continue  # spawned this step; first decode token comes next
            s.trace.token_times.append(t)
            if record:
                self._record_token(s, t)
            s.remaining -= 1
            if s.remaining <= 0:
                finished.append(s)
        for s in finished:
            self._finish(s, t)

    def _token(self, source, idx: int, gen: int, pos: int) -> int:
        """Generation ``gen`` of request ``idx``'s token at ``pos``: the
        model's from ``source``'s logits (:attr:`StepExecutor.logits`), or
        the cost-only hash."""
        key = _token_key(self.state.requests, idx)
        model = self.engine.numerics
        if model is None:
            return token_id(key, gen, pos)
        return model.next_token(self.executor.logits[source], key, gen, pos)

    def _record_token(self, s: Stream, t: float) -> None:
        eng = self.engine
        pos = len(s.trace.tokens)
        tok = self._token(s, s.req_idx, s.gen_index, pos)
        if eng._taint and s.seq_id >= 0 and self.state.cache.seq_is_corrupt(s.seq_id):
            tok += TOKEN_VOCAB  # decoded from corrupted KV, undetected
        s.trace.tokens.append(tok)
        eng._emit_token(s.req_idx, s.gen_index, pos, tok, t)

    def _spawn_stream(
        self, req: Request, idx: int, gen: int, seq_id: int, t: float
    ) -> None:
        eng = self.engine
        trace = RequestTrace(
            arrival=req.arrival, first_token_time=t, req_id=idx, gen_index=gen
        )
        stream = Stream(idx, seq_id, req.output_len - 1, trace)
        stream.gen_index = gen
        if eng.brownout is not None:
            clamp = eng.brownout.token_clamp
            if clamp is not None and stream.remaining > clamp - 1:
                # Brownout rung 3: clamp max_new_tokens.  The clamped
                # stream emits an exact prefix of the reference tokens —
                # shorter answer, never a different one.
                stream.remaining = clamp - 1
                trace.outcome_reason = "brownout-clamp"
        if eng._degrade is not None:
            stream.deadline = eng._deadline_for(req)
        if eng._degrade is not None or eng.numerics is not None:
            tok0 = self._token(idx, idx, gen, 0)
            trace.tokens = [tok0]
            eng._emit_token(idx, gen, 0, tok0, t)
        if eng.handoff_sink is not None and stream.remaining > 0:
            # Disaggregated prefill replica: the finished prompt's live KV
            # leaves for a decode replica instead of decoding here.  The
            # sink exports the pages before the sequence is freed; the
            # completed trace belongs to the decode side.  Streams whose
            # single token already landed this step complete locally.
            eng.handoff_sink(req, idx, gen, seq_id, t, stream, self.state.cache)
            self.state.cache.free_seq(seq_id)
            return
        self.state.streams.append(stream)
        if stream.remaining == 0:
            self._finish(stream, t)

    def _finish(self, stream: Stream, t: float) -> None:
        eng, st = self.engine, self.state
        if stream.trace.token_times or stream.remaining <= 0:
            st.metrics.add(stream.trace)
            if eng._journal is not None:
                eng._journal.finish(stream.req_idx, stream.gen_index, t)
        st.cache.free_seq(stream.seq_id)
        if stream in st.streams:
            st.streams.remove(stream)

    # -- tracing ----------------------------------------------------------------

    def _emit_step(
        self, kind, t_start, t_end, attn_per_layer, prefill_tokens,
        decode_tokens, num_streams, cache, preemptions,
    ) -> None:
        """Record one :class:`StepEvent`; called only when tracing is on."""
        eng, ex = self.engine, self.executor
        tracer = eng._tracer
        event = StepEvent(
            index=eng._event_index,
            kind=kind,
            t_start=t_start,
            t_end=t_end,
            num_prefill_tokens=prefill_tokens,
            num_decode_tokens=decode_tokens,
            num_streams=num_streams,
            breakdown=ex._step_components(attn_per_layer, prefill_tokens + decode_tokens),
            kv_free_pages=cache.num_free_pages,
            kv_used_pages=cache.num_used_pages,
            preemptions=preemptions,
            prefix_cache_hits=eng._step_prefix_hits,
            radix_hit_tokens=eng._step_radix_hit_tokens,
            cascade_levels=eng._step_cascade_levels,
        )
        if eng._degrade is not None and ex.step_degraded:
            event.degraded = True
        if tracer.capture_kernels:
            backend = eng.backend
            if eng._degrade is not None and ex.step_backend is not None:
                backend = ex.step_backend
            event.kernels = [
                KernelRecord.from_report(name, kind, report)
                for name, report in backend.pop_kernel_reports()
            ]
        eng._event_index += 1
        eng._step_prefix_hits = 0
        eng._step_radix_hit_tokens = 0
        eng._step_cascade_levels = 0
        tracer.on_step(event)

    def _emit_idle(self, t_start: float, t_end: float) -> None:
        eng = self.engine
        eng._tracer.on_step(
            StepEvent(index=eng._event_index, kind="idle", t_start=t_start, t_end=t_end)
        )
        eng._event_index += 1

"""Batch forming: admitted work → an explicit :class:`StepPlan` IR.

The :class:`BatchFormer` is the middle of the engine pipeline
(admission → policy → **batch forming** → execution → postprocessing):
each step it turns the run's queues into one :class:`StepPlan` — the
prefill chunks, decode set or resume set, with every page-table mutation
(extend / truncate / fork / preempt) already applied — and hands it to
the :class:`repro.serving.executor.StepExecutor`.  Transient allocation
faults surfaced while forming are routed to
:meth:`repro.serving.admission.AdmissionController.requeue`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List, Optional, Sequence, Tuple

import numpy as np

from repro.kvcache.paged import OutOfPagesError, PagedKVCache, TransientAllocFault
from repro.kvcache.radix import RadixTree
from repro.serving.metrics import RequestTrace, ServingMetrics
from repro.serving.workload import Request
from repro.sparse.composable import (
    PrefixCluster,
    decompose_multi_level,
    decompose_shared_prefix,
    detect_shared_prefixes,
)
from repro.sparse.layout import AttentionMapping

#: Vocabulary size of the deterministic token model; tokens decoded from a
#: corrupted sequence with detection off are offset by this (the "taint"
#: marker the negative-control tests look for).
TOKEN_VOCAB = 50257


def token_id(req_idx: int, gen_index: int, pos: int) -> int:
    """Deterministic stand-in for a sampled token id.

    A pure function of (request, generation stream, position), so any two
    runs — faulty or not — that complete a stream must produce identical
    token sequences unless corrupted KV leaked into decoding.  It is also
    what makes scheduling policies trivially token-exact per stream: no
    ordering decision can change a stream's tokens.
    """
    h = req_idx * 1000003 + gen_index * 8191 + pos * 2654435761
    return (h & 0x7FFFFFFF) % TOKEN_VOCAB


def prompt_token_ids(
    prefix_group: Optional[int], prefix_len: int, rid: int, length: int
) -> np.ndarray:
    """Deterministic stand-in for a request's first ``length`` *prompt*
    token ids, as one int64 array (the hash stays inside int64 for ``rid``
    and ``prefix_group`` below 2**31 and ``length`` up to 2**24).

    Positions inside a request's declared shared prefix hash on the
    ``prefix_group`` alone, so every member of a group (on any replica)
    carries byte-identical prefix tokens — the structure the radix tree
    discovers.  Suffix positions hash on the request's cluster-global id,
    so no two requests ever alias beyond their declared shared prefix.
    """
    shared = min(prefix_len, length) if prefix_group is not None else 0
    h = np.arange(length, dtype=np.int64) * 2654435761
    h[shared:] += rid * 1000003 + 615241
    if shared:
        h[:shared] += prefix_group * 7878787 + 970181
    return (h & 0x7FFFFFFF) % TOKEN_VOCAB


class Stream:
    """One decode stream (a single generation of a request)."""

    __slots__ = (
        "req_idx", "seq_id", "remaining", "trace", "resume_len",
        "gen_index", "retries", "deadline",
    )

    def __init__(
        self,
        req_idx: int,
        seq_id: int,
        remaining: int,
        trace: RequestTrace,
        gen_index: int = 0,
        deadline: Optional[float] = None,
    ):
        self.req_idx = req_idx
        self.seq_id = seq_id  # -1 while preempted with all pages freed
        self.remaining = remaining
        self.trace = trace
        self.resume_len = 0  # KV length to recompute after preemption
        self.gen_index = gen_index
        self.retries = 0  # recompute retries consumed (rollback/alloc)
        self.deadline = deadline  # absolute shed time, or None

    def to_state(self) -> dict:
        """Serializable form for engine checkpointing (carries its trace:
        a live stream's trace is not yet in metrics)."""
        return {
            "req_idx": self.req_idx,
            "seq_id": self.seq_id,
            "remaining": self.remaining,
            "trace": self.trace.to_state(),
            "resume_len": self.resume_len,
            "gen_index": self.gen_index,
            "retries": self.retries,
            "deadline": self.deadline,
        }

    @classmethod
    def from_state(cls, state: dict) -> "Stream":
        s = cls(
            req_idx=int(state["req_idx"]),
            seq_id=int(state["seq_id"]),
            remaining=int(state["remaining"]),
            trace=RequestTrace.from_state(state["trace"]),
            gen_index=int(state["gen_index"]),
            deadline=state["deadline"],
        )
        s.resume_len = int(state["resume_len"])
        s.retries = int(state["retries"])
        return s


class PartialPrefill:
    """A prompt being prefilled chunk by chunk."""

    __slots__ = ("req_idx", "seq_id", "filled")

    def __init__(self, req_idx: int, seq_id: int):
        self.req_idx = req_idx
        self.seq_id = seq_id
        self.filled = 0

    def to_state(self) -> dict:
        return {
            "req_idx": self.req_idx,
            "seq_id": self.seq_id,
            "filled": self.filled,
        }

    @classmethod
    def from_state(cls, state: dict) -> "PartialPrefill":
        pp = cls(int(state["req_idx"]), int(state["seq_id"]))
        pp.filled = int(state["filled"])
        return pp


@dataclass
class RunState:
    """Everything one serving run mutates, shared by the pipeline layers."""

    requests: Sequence[Request]
    cache: PagedKVCache
    metrics: ServingMetrics
    waiting: Deque[int] = field(default_factory=deque)
    prefill_queue: Deque[int] = field(default_factory=deque)
    streams: List[Stream] = field(default_factory=list)
    prefilling: Deque[PartialPrefill] = field(default_factory=deque)
    preempted: Deque[Stream] = field(default_factory=deque)
    #: Automatic longest-prefix cache over prompt token ids
    #: (``EngineConfig.prefix_cache``); ``None`` when the feature is off.
    radix: Optional[RadixTree] = None

    def has_work(self) -> bool:
        return bool(
            self.waiting or self.prefill_queue or self.prefilling
            or self.streams or self.preempted
        )

    def export_state(self) -> dict:
        """Serializable snapshot of the queues and live streams.

        ``requests``, ``cache`` and ``metrics`` travel separately in the
        engine snapshot (the cache has its own page-table serializer and
        the request list is re-supplied on recovery).
        """
        state = {
            "waiting": list(self.waiting),
            "prefill_queue": list(self.prefill_queue),
            "streams": [s.to_state() for s in self.streams],
            "prefilling": [pp.to_state() for pp in self.prefilling],
            "preempted": [s.to_state() for s in self.preempted],
        }
        if self.radix is not None:
            state["radix"] = self.radix.export_state()
        return state

    @classmethod
    def from_state(
        cls, state: dict, requests: Sequence[Request],
        cache: PagedKVCache, metrics: ServingMetrics,
    ) -> "RunState":
        rs = cls(requests=requests, cache=cache, metrics=metrics)
        rs.waiting = deque(int(i) for i in state["waiting"])
        rs.prefill_queue = deque(int(i) for i in state["prefill_queue"])
        rs.streams = [Stream.from_state(s) for s in state["streams"]]
        rs.prefilling = deque(
            PartialPrefill.from_state(pp) for pp in state["prefilling"]
        )
        rs.preempted = deque(Stream.from_state(s) for s in state["preempted"])
        if state.get("radix") is not None:
            # The restored cache's refcounts already include the tree's
            # holds, so the rebuild takes no new page references.
            rs.radix = RadixTree.from_state(cache, state["radix"])
        return rs


@dataclass
class StepPlan:
    """One step's worth of formed work — the IR between pipeline layers.

    The :class:`BatchFormer` produces it with all page-table mutations
    already applied; the executor prices its attention and advances time;
    the postprocessor spawns/records/finishes streams from it.
    """

    #: ``"prefill"`` | ``"decode"`` | ``"mixed"`` | ``"resume"``.
    kind: str
    #: What the attention backend prices: the dense mapping, or a
    #: composable format stack for fork groups.
    formats: object
    #: The dense :class:`AttentionMapping`, always present — the degraded
    #: fallback backend cannot run composable formats.
    mapping: AttentionMapping
    #: Backend phase flag (decode-shaped attention kernels).
    decode: bool
    #: Prompt tokens prefilled (or recomputed) this step.
    num_prefill_tokens: int
    #: Live decode streams advanced one token this step.
    num_decode_tokens: int
    #: KV sequence ids in batch order (decode streams first for mixed).
    seq_ids: List[int]
    #: ``metrics.preemptions`` snapshot from before forming, so the trace
    #: event carries the per-step preemption delta.
    preempt_before: int
    #: Fully prefilled prompts to spawn as streams: ``(req_idx, seq_id)``.
    prefilled: List[Tuple[int, int]] = field(default_factory=list)
    #: Chunked-prefill segments processed: ``(PartialPrefill, chunk)``.
    chunks: List[Tuple[PartialPrefill, int]] = field(default_factory=list)
    #: Preempted streams whose KV was recomputed and now resume decoding.
    resumed: List[Stream] = field(default_factory=list)

    @property
    def num_tokens(self) -> int:
        return self.num_prefill_tokens + self.num_decode_tokens


class BatchFormer:
    """Turn admitted work into one :class:`StepPlan` per engine step.

    Holds no step state of its own: everything flows from
    :class:`RunState` in and :class:`StepPlan` out.  ``form_*`` methods
    return ``None`` for a no-op step (everything alloc-faulted away) —
    the engine still runs the end-of-step resilience hooks then.
    """

    def __init__(self, engine, state: RunState, admission):
        self.engine = engine
        self.state = state
        self.admission = admission

    # -- prefix caching -------------------------------------------------------

    def _prompt_tokens(self, idx: int, length: int) -> np.ndarray:
        """The first ``length`` prompt token ids of request ``idx``."""
        req = self.state.requests[idx]
        rid = idx if req.rid is None else req.rid
        return prompt_token_ids(req.prefix_group, req.prefix_len, rid, length)

    def _radix_insert(self, idx: int, seq_id: int) -> None:
        """Register a fully prefilled prompt's whole pages in the tree."""
        st = self.state
        if st.radix is None:
            return
        tokens = self._prompt_tokens(idx, st.requests[idx].prompt_len)
        st.radix.insert(tokens, st.cache.seq_pages(seq_id))

    def _reclaim(self, pages_needed: int) -> None:
        """Evict radix-cached pages before live work has to be preempted."""
        st = self.state
        if st.radix is not None and st.cache.num_free_pages < pages_needed:
            st.radix.evict_until(pages_needed)

    def _start_prefill_seq(self, cache: PagedKVCache, idx: int):
        """Create a sequence for request ``idx``, reusing the longest
        radix-cached prefix of its prompt.

        Returns ``(seq_id, tokens_to_prefill)``.  The reusable length is
        capped below the full prompt — the last token's logits must always
        be computed fresh.
        """
        st, eng = self.state, self.engine
        req = st.requests[idx]
        page = eng.config.page_size
        cap = ((req.prompt_len - 1) // page) * page
        cached = 0
        if st.radix is not None and cap > 0:
            cached, pages = st.radix.match_prefix(self._prompt_tokens(idx, cap))
        if cached <= 0:
            return cache.new_seq(), req.prompt_len
        sid = cache.new_seq(shared_pages=pages, shared_len=cached)
        eng._step_prefix_hits += 1
        eng._step_radix_hit_tokens += cached
        st.metrics.radix_hit_tokens += cached
        st.metrics.radix_hit_prompts += 1
        return sid, req.prompt_len - cached

    # -- forming --------------------------------------------------------------

    def form_prefill(self, t: float) -> Optional[StepPlan]:
        """Token-budgeted batch of whole prompts (non-chunked mode)."""
        cfg, st = self.engine.config, self.state
        requests, prefill_queue, cache, streams = (
            st.requests, st.prefill_queue, st.cache, st.streams,
        )
        batch: List[int] = []
        tokens = 0
        evictable = st.radix.evictable_pages() if st.radix is not None else 0
        pages_left = cache.num_free_pages + evictable - len(streams)  # decode headroom
        imports = self.engine._handoff_imports
        while prefill_queue and (
            not batch or tokens + requests[prefill_queue[0]].prompt_len <= cfg.max_prefill_tokens
        ):
            if imports and prefill_queue[0] in imports:
                break  # handed-off prompt: absorbed, never compute-prefilled
            nxt = requests[prefill_queue[0]].prompt_len
            need = -(-nxt // cfg.page_size)
            if batch and need > pages_left:
                break
            idx = prefill_queue.popleft()
            batch.append(idx)
            tokens += nxt
            pages_left -= need

        ok_batch: List[int] = []
        seqs: List[int] = []
        qo_lens: List[int] = []
        for idx in batch:
            sid, new_tokens = self._start_prefill_seq(cache, idx)
            self._reclaim(-(-new_tokens // cfg.page_size) + len(streams))
            try:
                cache.extend(sid, new_tokens)
            except TransientAllocFault:
                cache.free_seq(sid)
                self.admission.requeue_prompt(idx, t)
                continue
            self._radix_insert(idx, sid)
            ok_batch.append(idx)
            seqs.append(sid)
            qo_lens.append(new_tokens)
        if not seqs:
            return None
        tokens = sum(qo_lens)
        mapping = AttentionMapping(
            np.concatenate([[0], np.cumsum(qo_lens)]).astype(np.int64),
            cache.layout(seqs),
            causal=True,
        )
        return StepPlan(
            kind="prefill", formats=mapping, mapping=mapping, decode=False,
            num_prefill_tokens=tokens, num_decode_tokens=0, seq_ids=seqs,
            preempt_before=st.metrics.preemptions,
            prefilled=list(zip(ok_batch, seqs)),
        )

    def form_mixed(self, t: float) -> Optional[StepPlan]:
        """One chunked-prefill step: all decode streams plus up to
        ``prefill_chunk_size`` prompt tokens piggybacked (Sarathi-serve)."""
        eng, cfg, st = self.engine, self.engine.config, self.state
        requests, prefill_queue, prefilling, cache, streams = (
            st.requests, st.prefill_queue, st.prefilling, st.cache, st.streams,
        )
        preempt_before = st.metrics.preemptions
        self._ensure_decode_capacity()
        alloc_failed: List[Stream] = []
        for s in streams:
            try:
                cache.extend(s.seq_id, 1)
            except TransientAllocFault:
                alloc_failed.append(s)
        for s in alloc_failed:
            self._preempt_alloc_failed(s, t)

        budget = eng._chunk_budget()  # config size, shrunk under brownout
        segments: List[tuple] = []  # (PartialPrefill, chunk)
        while budget > 0:
            if not prefilling:
                if not prefill_queue:
                    break
                if eng._handoff_imports and prefill_queue[0] in eng._handoff_imports:
                    break  # handed-off prompt: absorbed, never compute-prefilled
                idx = prefill_queue.popleft()
                sid, _ = self._start_prefill_seq(cache, idx)
                pp = PartialPrefill(idx, sid)
                pp.filled = cache.seq_len(sid)  # cached prefix already present
                prefilling.append(pp)
            pp = prefilling[0]
            remaining = requests[pp.req_idx].prompt_len - pp.filled
            chunk = min(budget, remaining)
            # Admission control: leave decode headroom (one page/stream).
            need = -(-chunk // cfg.page_size) + 1
            self._reclaim(need + len(streams))
            headroom = cache.num_free_pages - len(streams)
            if need > headroom:
                chunk = max((headroom - 1) * cfg.page_size, 0)
                if chunk == 0:
                    break
            pre_len = cache.seq_len(pp.seq_id)
            try:
                cache.extend(pp.seq_id, chunk)
            except TransientAllocFault:
                cache.truncate(pp.seq_id, pre_len)  # drop partial growth
                self.admission.requeue_chunk(pp, t)
                break
            segments.append((pp, chunk))
            budget -= chunk
            pp.filled += chunk
            if pp.filled == requests[pp.req_idx].prompt_len:
                self._radix_insert(pp.req_idx, pp.seq_id)
                prefilling.popleft()
            else:
                break  # the partial prompt keeps the head of the queue

        if eng._degrade is not None and not streams and not segments:
            return None
        seq_ids = [s.seq_id for s in streams] + [pp.seq_id for pp, _ in segments]
        qo_lens = [1] * len(streams) + [chunk for _, chunk in segments]
        mapping = AttentionMapping(
            np.concatenate([[0], np.cumsum(qo_lens)]).astype(np.int64),
            cache.layout(seq_ids),
            causal=True,
        )
        formats: object = mapping
        cascade = self._compose_formats(mapping)
        if cascade is not None:
            formats = cascade
        return StepPlan(
            kind="mixed", formats=formats, mapping=mapping, decode=not segments,
            num_prefill_tokens=sum(chunk for _, chunk in segments),
            num_decode_tokens=len(streams), seq_ids=seq_ids,
            preempt_before=preempt_before, chunks=segments,
        )

    def form_decode(self, t: float) -> Optional[StepPlan]:
        """Advance every live decode stream by one token."""
        eng, st = self.engine, self.state
        cache, streams = st.cache, st.streams
        preempt_before = st.metrics.preemptions
        self._ensure_decode_capacity()
        alloc_failed: List[Stream] = []
        for s in streams:
            try:
                cache.extend(s.seq_id, 1)
            except TransientAllocFault:
                alloc_failed.append(s)
        for s in alloc_failed:
            self._preempt_alloc_failed(s, t)
        if eng._degrade is not None and not streams:
            return None
        seq_ids = [s.seq_id for s in streams]
        mapping = AttentionMapping(
            np.arange(len(streams) + 1, dtype=np.int64),
            cache.layout(seq_ids),
            causal=True,
        )
        formats: object = mapping
        cascade = self._compose_formats(mapping)
        if cascade is not None:
            formats = cascade
        return StepPlan(
            kind="decode", formats=formats, mapping=mapping, decode=True,
            num_prefill_tokens=0, num_decode_tokens=len(streams),
            seq_ids=seq_ids, preempt_before=preempt_before,
        )

    def form_resume(self, t: float) -> Optional[StepPlan]:
        """Re-prefill preempted streams' KV (recompute) so they can resume."""
        cfg, st = self.engine.config, self.state
        cache, streams, preempted = st.cache, st.streams, st.preempted
        batch: List[Stream] = []
        tokens = 0
        pages_left = cache.num_free_pages - len(streams)
        while preempted and (
            not batch
            or tokens + self._resume_tokens(preempted[0]) <= cfg.max_prefill_tokens
        ):
            # Only resume what the pool can hold right now.
            need = self._resume_pages(preempted[0])
            if batch and need > pages_left:
                break
            stream = preempted.popleft()
            batch.append(stream)
            tokens += self._resume_tokens(stream)
            pages_left -= need
        ok: List[Stream] = []
        qo_lens: List[int] = []
        for stream in batch:
            sid = stream.seq_id if stream.seq_id >= 0 else cache.new_seq()
            kept = cache.seq_len(sid)
            recompute = stream.resume_len - kept
            self._reclaim(-(-recompute // cfg.page_size) + len(streams))
            try:
                cache.extend(sid, recompute)
            except TransientAllocFault:
                if stream.seq_id >= 0:
                    cache.truncate(sid, kept)
                else:
                    cache.free_seq(sid)
                self.admission.requeue_stream(stream, t, front=True)
                continue
            stream.seq_id = sid
            ok.append(stream)
            qo_lens.append(recompute)
        if not ok:
            return None
        tokens = sum(qo_lens)
        mapping = AttentionMapping(
            np.concatenate([[0], np.cumsum(qo_lens)]).astype(np.int64),
            cache.layout([s.seq_id for s in ok]),
            causal=True,
        )
        return StepPlan(
            kind="resume", formats=mapping, mapping=mapping, decode=False,
            num_prefill_tokens=tokens, num_decode_tokens=0,
            seq_ids=[s.seq_id for s in ok],
            preempt_before=st.metrics.preemptions, resumed=ok,
        )

    # -- capacity / preemption ------------------------------------------------

    def _preempt_alloc_failed(self, s: Stream, t: float) -> None:
        """A decode extend hit a transient allocation fault: preempt the
        stream (recompute later) or shed it when out of retries."""
        st = self.state
        st.streams.remove(s)
        s.resume_len = st.cache.seq_len(s.seq_id)
        st.cache.free_seq(s.seq_id)
        s.seq_id = -1
        self.admission.requeue_stream(s, t)

    def _ensure_decode_capacity(self) -> None:
        """Preempt-by-recompute when the page pool cannot absorb this step.

        vLLM-style backpressure: the youngest streams are evicted (their
        pages freed) and later re-prefilled from scratch; without it a
        full pool would abort the whole serving run mid-flight.
        """
        st = self.state
        cache, streams, preempted = st.cache, st.streams, st.preempted

        def pages_needed() -> int:
            needed = 0
            for s in streams:
                length = cache.seq_len(s.seq_id)
                if length % cache.page_size == 0:
                    needed += 1
                else:
                    last = cache.seq_pages(s.seq_id)[-1]
                    if cache.page_refcount(last) > 1:
                        needed += 1  # copy-on-write of a shared partial page
            return needed

        while cache.num_free_pages < pages_needed():
            # Cached-but-idle radix pages go first; preemption only when
            # eviction can free nothing more.
            if st.radix is not None and st.radix.evict_until(pages_needed()):
                continue
            if len(streams) <= 1:
                raise OutOfPagesError(
                    "KV pool too small for even one stream; increase "
                    f"EngineConfig.num_pool_pages ({cache._stats_brief()})"
                )
            victim = streams.pop()  # youngest stream
            victim.resume_len = cache.seq_len(victim.seq_id)
            cache.free_seq(victim.seq_id)
            victim.seq_id = -1
            preempted.append(victim)
            st.metrics.preemptions += 1

    def _resume_tokens(self, s: Stream) -> int:
        """Tokens to recompute when resuming ``s``: everything after the
        verified pages a rollback kept (all of them for a full eviction)."""
        cache = self.state.cache
        if s.seq_id >= 0:
            return s.resume_len - cache.seq_len(s.seq_id)
        return s.resume_len

    def _resume_pages(self, s: Stream) -> int:
        cache = self.state.cache
        if s.seq_id >= 0:
            return -(-s.resume_len // cache.page_size) - len(cache.seq_pages(s.seq_id))
        return -(-s.resume_len // cache.page_size)

    def _compose_formats(self, mapping: AttentionMapping):
        """The cascade stack for this step's batch, or ``None`` for dense.

        Level 0 peels prefixes the page table itself reveals as shared —
        radix-cache hits surface here, since a hit aliases whole pages
        across sequences (paper §3.1.2 detection from the block structure).
        Level 1 peels per-request fork groups (parallel generations of one
        prompt) that extend past the level-0 prefix.  Shared pages are then
        read once per step instead of once per request, with partial states
        merged by ``⊕``.
        """
        eng, cfg, st = self.engine, self.engine.config, self.state
        if not (
            cfg.composable
            and eng.backend.supports_composable
            and not eng._step_is_degraded()
            and not (eng.brownout is not None and eng.brownout.cascade_disabled)
        ):
            return None
        fork = self._fork_clusters()
        detected: List[PrefixCluster] = []
        if st.radix is not None:
            detected = detect_shared_prefixes(mapping.kv)
        formats = None
        if detected:
            peel = {}
            for cl in detected:
                for r in cl.requests:
                    peel[r] = cl.prefix_len
            inner = [
                cl for cl in fork
                if cl.prefix_len > peel.get(cl.requests[0], 0)
                and len({peel.get(r, 0) for r in cl.requests}) == 1
            ]
            levels = [detected, inner] if inner else [detected]
            try:
                comp = decompose_multi_level(mapping, levels)
                if len(comp) > 1:
                    formats = comp
            except ValueError:
                formats = None  # degenerate geometry: fall through to dense
        if formats is None and fork:
            comp = decompose_shared_prefix(mapping, fork)
            if len(comp) > 1:
                formats = comp
        if formats is not None:
            self._note_cascade(formats)
        eng._step_cascade_levels = len(formats) if formats is not None else 0
        return formats

    def _note_cascade(self, formats) -> None:
        """Account HBM traffic the cascade avoids: each prefix-level group
        is read once per step instead of once per covered query row."""
        eng, m = self.engine, self.state.metrics
        model = eng.model
        saved_tokens = 0
        for fmt in formats.mappings[:-1]:  # prefix levels only
            spans = np.diff(fmt.qo_indptr)
            saved_tokens += int(np.sum((spans - 1) * fmt.kv.kv_lens))
        if saved_tokens <= 0:
            return
        bytes_per_token = model.num_kv_heads * model.head_dim * 2 * 2  # K+V, fp16
        m.cascade_steps += 1
        m.cascade_bytes_saved += float(
            saved_tokens * bytes_per_token * model.num_layers
        )

    def _fork_clusters(self) -> List[PrefixCluster]:
        """Consecutive streams of the same request share its prompt pages."""
        cfg, st = self.engine.config, self.state
        streams, requests = st.streams, st.requests
        clusters: List[PrefixCluster] = []
        i = 0
        while i < len(streams):
            j = i
            while j + 1 < len(streams) and streams[j + 1].req_idx == streams[i].req_idx:
                j += 1
            if j > i:
                prompt = requests[streams[i].req_idx].prompt_len
                aligned = (prompt // cfg.page_size) * cfg.page_size
                if aligned >= cfg.page_size:
                    clusters.append(PrefixCluster(tuple(range(i, j + 1)), aligned))
            i = j + 1
        return clusters

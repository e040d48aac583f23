"""The user-facing attention wrappers (paper §3.4, Listing 1).

:class:`BatchAttentionWrapper` owns one attention *format*: at construction
it JIT-compiles the variant kernel for fixed tile sizes and pins the
persistent grid size; ``plan()`` chooses the plan by price on CPU and copies
the plan arrays into fixed-offset workspace sections; ``run()`` executes the
persistent attention + contraction kernels, reading the plan *from the
workspace*, and reports the price the plan was chosen with — so a CUDAGraph
replay of ``run`` picks up fresh plan data without changing any launch
argument.

:class:`ComposableAttentionWrapper` stacks one wrapper per format
(§3.1.2 / §3.4: "FlashInfer creates multiple attention wrappers, each with
distinct block sizes"), merges the per-format partial states with ``⊕`` and
applies the variant's output transform once at the end.  A stack of several
formats runs one contraction launch, its last format's, which folds every
state any format wrote.
"""

from __future__ import annotations

import functools
from typing import Callable, List, Optional, Tuple, Union

import numpy as np

# Looked up per call as module attributes, so the benchmark's span wrappers see them.
from repro.core import simulate
from repro.core.jit import CompiledKernel, KernelTraits, get_kernel
from repro.core.kernels import (
    PARTIAL_ITEMSIZE,
    HeadConfig,
    run_mapping,
)
from repro.core.scheduler import (
    ITEM_FIELDS,
    MERGE_FIELDS,
    MERGE_QROWS,
    SchedulePlan,
    break_even_step,
    kv_chunk_len,
    plan_schedule,
    plan_signature,
)
from repro.core.tiles import compiled_q_tiles, ctas_per_sm, select_kv_tile, select_q_tile
from repro.core.variant import AttentionVariant
from repro.gpu.cost import KernelCostModel
from repro.gpu.cudagraph import CudaGraph
from repro.gpu.executor import PersistentKernelExecutor, SimReport
from repro.gpu.spec import A100_40G, GPUSpec
from repro.gpu.workspace import WorkspaceBuffer
from repro.sparse.bsr import ceil_div
from repro.sparse.composable import ComposableFormat
from repro.sparse.layout import AttentionMapping
from repro.core.state import merge_states
from repro.utils.dtypes import StorageDType

#: Seconds below any modelled launch time and far above the rounding of one:
#: a plan is rejected on a bound only when the bound clears its price by this.
_PRICE_SLACK = 1e-12


def _num_query_rows(q: Optional[np.ndarray], compute: bool, planned_rows: int) -> int:
    """Rows of the output a ``run`` produces: ``q``'s, or — for a cost-only
    run, where ``q`` may be ``None`` — the rows the planned mapping covers."""
    if q is not None:
        return q.shape[0]
    if compute:
        raise ValueError("compute=True requires q/k_pool/v_pool tensors")
    return planned_rows


def break_even_kv_len(rows: int, head_dim: int, kv_dtype: StorageDType) -> int:
    """KV tokens whose K and V bytes equal what one more split of a
    ``rows``-row tile moves: its fp32 partial state ``(O, LSE)``, written by
    the attention kernel and read back by the contraction (App. D.3)."""
    split_bytes = 2 * rows * (head_dim + 1) * PARTIAL_ITEMSIZE
    return ceil_div(split_bytes, 2 * head_dim * kv_dtype.itemsize)


def _apply_output_transform(kernel: CompiledKernel, out: np.ndarray, rows: np.ndarray, params):
    """The variant's output transform over ``rows`` of ``out``, head by head."""
    for h in range(out.shape[1]):
        out[rows, h, :] = kernel.output_transform(out[rows, h, :], rows, h, params)


class BatchAttentionWrapper:
    """Plan/run attention for one block-sparse format.

    Parameters
    ----------
    variant:
        The attention variant specification (JIT-compiled at init, §3.4).
    heads:
        Head geometry (query heads, KV heads, head dim).
    workspace:
        User-allocated buffer for plan info and split-KV partial outputs.
    gpu:
        Simulated target device; chooses the FA2/FA3 template (Hopper → FA3).
    avg_qo_len:
        Task-information hint: expected average query length per group
        (1 for decode).  Fixes the launch's compile-time query tile; each
        work item runs on the smallest compiled tile up to it that covers
        its rows (``core/simulate.item_tiles``), or on ``q_tile`` if given.
    kv_dtype:
        KV-cache storage precision (fp16 default; fp8 for Appendix F).
    fuse_head_groups:
        GQA head-group fusion (Appendix A).
    sparse_gather:
        False for contiguous (ragged dense) KV — enables TMA on Hopper.
    max_batch_size / max_total_qo:
        Upper bounds for workspace sizing (Appendix D.3).  Default: pinned
        from the first ``plan`` call.
    sm_limit:
        Restrict the persistent grid to this many SMs, leaving the rest
        for horizontally fused kernels running in other streams
        (Appendix E / Nanoflow-style overlap).
    executor:
        The simulated device to launch on.  It carries the per-run state —
        ``fault_injector`` and ``plan_cache`` — so an owner that builds
        several wrappers on one executor (a serving backend) attaches either
        once, before or after building them.  Default: a private executor
        over ``cost_model``; ``plan_cache``, when given, is attached to it.
    """

    def __init__(
        self,
        variant: AttentionVariant,
        heads: HeadConfig,
        workspace: WorkspaceBuffer,
        gpu: GPUSpec = A100_40G,
        avg_qo_len: float = 1.0,
        kv_dtype: StorageDType = StorageDType.FP16,
        fuse_head_groups: bool = True,
        sparse_gather: bool = True,
        max_batch_size: Optional[int] = None,
        max_total_qo: Optional[int] = None,
        cost_model: Optional[KernelCostModel] = None,
        name: Optional[str] = None,
        backend: Optional[str] = None,
        q_tile: Optional[int] = None,
        kv_tile: Optional[int] = None,
        split_kv: bool = True,
        sm_limit: Optional[int] = None,
        executor: Optional[PersistentKernelExecutor] = None,
        plan_cache=None,
    ):
        self.variant = variant
        self.heads = heads
        self.workspace = workspace
        self.gpu = gpu
        self.kv_dtype = kv_dtype
        self.fuse_head_groups = fuse_head_groups
        self.sparse_gather = sparse_gather
        self.split_kv = split_kv
        self.name = workspace.claim_name(name or workspace.free_name("attn"))

        self.backend = backend or ("fa3" if gpu.supports_tma else "fa2")
        g_eff = heads.group_size if fuse_head_groups else 1
        self.q_tile = select_q_tile(avg_qo_len * g_eff, self.backend) if q_tile is None else q_tile
        self.kv_tile = (select_kv_tile(self.q_tile, heads.head_dim, kv_dtype, gpu)
                        if kv_tile is None else kv_tile)
        # Sparse gathering on Hopper cannot use TMA and pays register
        # pressure: smaller KV tiles plus a compute penalty (Appendix B).
        self.compute_penalty = 1.0
        if self.backend == "fa3" and sparse_gather:
            self.kv_tile = min(self.kv_tile, 64)
            self.compute_penalty = 1.06

        self.traits = KernelTraits(
            head_dim=heads.head_dim,
            q_tile=self.q_tile,
            kv_tile=self.kv_tile,
            is_sparse=sparse_gather,
            kv_dtype=kv_dtype,
            backend=self.backend,
        )
        self.kernel: CompiledKernel = get_kernel(variant, self.traits)

        occ = max(ctas_per_sm(self.q_tile, self.kv_tile, heads.head_dim, kv_dtype, gpu), 1)
        #: Persistent grid size, fixed for CUDAGraph compatibility (§3.3.1).
        #: ``sm_limit`` reserves the remaining SMs for concurrently running
        #: kernels (Nanoflow-style GEMM/communication overlap, Appendix E).
        if sm_limit is not None:
            if not 0 < sm_limit <= gpu.num_sms:
                raise ValueError(
                    f"sm_limit must be in [1, {gpu.num_sms}], got {sm_limit}"
                )
            self.num_ctas = sm_limit * occ
        else:
            self.num_ctas = gpu.num_sms * occ
        #: Each CTA's share of its SM's compute when the grid oversubscribes it.
        self._compute_share = min(1.0, gpu.num_sms / self.num_ctas)

        # Queries tile over rows; GQA fuses g rows per query (Appendix A).
        self._sched_q_tile = max(self.q_tile // g_eff, 1)
        #: The head dimension the scheduler enumerates (fused GQA → KV heads).
        self._sched_heads = heads.num_kv_heads if fuse_head_groups else heads.num_qo_heads
        self._max_rows_eff = self._sched_q_tile * g_eff
        #: The query tiles (fused rows) a work item may run on, the launch's last.
        smaller = [t for t in compiled_q_tiles(self.backend) if g_eff <= t < self._max_rows_eff]
        self._tile_set = tuple(smaller if q_tile is None else []) + (self._max_rows_eff,)

        self._max_batch_size = max_batch_size
        self._max_total_qo = max_total_qo
        self._sections_ready = False
        self._mapping: Optional[AttentionMapping] = None
        self._params = variant.bind_params({}) if not variant.params else None
        self._sm_scale: float = 1.0 / float(np.sqrt(heads.head_dim))
        self.executor = executor or PersistentKernelExecutor(gpu, cost_model)
        if plan_cache is not None:
            self.plan_cache = plan_cache
        self.last_report: Optional[SimReport] = None
        #: ``(streams, price)`` of each launch of the staged plan (a stack's
        #: contraction priced by the stack), or ``None`` (:meth:`_submit`).
        self._launches: Optional[list] = None
        self.plan_count = 0
        #: ``None``, or this wrapper is a format of a composable stack of
        #: several (set by :meth:`ComposableAttentionWrapper.plan`): every
        #: tile writes its fp32 state, and the contraction launch runs these
        #: entries ``(n_slots, rows_eff)`` instead of the plan's merge
        #: entries — the stack's, folding every format's states, on its last
        #: format; none, so no launch, on the others.
        self.stack_merges: Optional[Tuple[np.ndarray, np.ndarray]] = None
        #: Optional duck-typed :class:`repro.faults.OutputGuard`; when set,
        #: every compute-path :meth:`run` checks its output through it
        #: (raising ``NumericalFault`` on NaN/Inf).  ``None`` costs one
        #: attribute check.
        self.output_guard = None

    @property
    def plan_cache(self):
        """Optional duck-typed :class:`repro.serving.PlanCache`, held by the
        executor; when set, :meth:`plan` consults it before recomputing the
        CPU schedule.  The key is the signature of every scheduler input and
        whether this wrapper is a format of a stack (whose prices count its
        states' contraction), so a hit returns a plan identical to the one
        it replaces (§3.3.1), which :meth:`run` re-prices."""
        return self.executor.plan_cache

    @plan_cache.setter
    def plan_cache(self, cache) -> None:
        self.executor.plan_cache = cache

    # -- workspace layout ---------------------------------------------------

    def _section(self, suffix: str) -> str:
        return f"{self.name}.{suffix}"

    def _ensure_sections(self, batch_size: int, total_qo: int) -> None:
        if self._sections_ready:
            return
        if self._max_batch_size is None:
            self._max_batch_size = batch_size
        if self._max_total_qo is None:
            self._max_total_qo = total_qo
        max_tiles = (
            self._max_batch_size + ceil_div(self._max_total_qo, self._sched_q_tile)
        ) * self._sched_heads
        # Split-KV produces at most 2·#CTA partial outputs (Appendix D.3).
        max_slots = 2 * self.num_ctas
        max_items = max_tiles + max_slots
        ws = self.workspace
        ws.allocate_section(self._section("counts"), 8 * 8)
        ws.allocate_section(self._section("work_items"), max_items * ITEM_FIELDS * 8)
        ws.allocate_section(self._section("cta_indptr"), (self.num_ctas + 1) * 8)
        ws.allocate_section(self._section("merge_meta"), max_slots * MERGE_FIELDS * 8)
        ws.allocate_section(self._section("merge_indptr"), (max_slots + 1) * 8)
        ws.allocate_section(self._section("merge_slots"), max_slots * 8)
        d = self.heads.head_dim
        ws.allocate_section(
            self._section("partial_o"),
            max_slots * self._max_rows_eff * d * PARTIAL_ITEMSIZE,
        )
        ws.allocate_section(
            self._section("partial_lse"), max_slots * self._max_rows_eff * PARTIAL_ITEMSIZE
        )
        self._max_slots = max_slots
        self._sections_ready = True

    # -- plan ----------------------------------------------------------------

    def plan(
        self,
        mapping: AttentionMapping,
        params: Optional[dict] = None,
        sm_scale: Optional[float] = None,
    ) -> SchedulePlan:
        """Choose the plan (:meth:`_choose`) and stage it into the workspace.

        Called once per generation step; host code, not capturable by
        CUDAGraph, exactly as in Listing 1.  A variant with a ``look_back``
        bound plans only the KV pages some query row can see.  The plan cache
        keys on the scheduler inputs and on whether this wrapper is a format
        of a stack, so a hit skips the whole choice and ``run`` re-prices.
        """
        bound = self.variant.bind_params(params)
        mapping = self._visible_kv(mapping, bound)
        args, kwargs = self._schedule_inputs(mapping)
        cache = self.plan_cache
        key = cache is not None and (plan_signature(*args, **kwargs), self.stack_merges is not None)
        plan, launches = cache.get(key) if key else None, None  # a hit re-prices at run
        if plan is None:
            plan, launches = self._choose(mapping, args, kwargs)
            if key:
                cache.put(key, plan)
        self._ensure_sections(mapping.num_groups, mapping.total_qo)
        if plan.num_partial_slots > self._max_slots:
            raise ValueError(
                f"plan needs {plan.num_partial_slots} partial slots but the "
                f"workspace was sized for {self._max_slots}; raise "
                f"max_batch_size/max_total_qo (Appendix D.3)"
            )
        capacity = self.workspace.section(self._section("work_items")).nbytes // (ITEM_FIELDS * 8)
        if plan.num_work_items > capacity:
            raise ValueError(
                f"plan has {plan.num_work_items} work items but the workspace "
                f"was sized for {capacity}; pass larger "
                f"max_batch_size/max_total_qo upper bounds at wrapper "
                f"construction (Appendix D.3)"
            )
        self._write_plan(plan)
        if launches and self.stack_merges is not None:
            launches = launches[:1]  # a format of a stack runs the stack's contraction
        self._launches = launches
        self._mapping = mapping
        self._params = bound
        self._sm_scale = (
            1.0 / float(np.sqrt(self.heads.head_dim)) if sm_scale is None else float(sm_scale)
        )
        self.plan_count += 1
        return plan

    def _visible_kv(self, mapping: AttentionMapping, params) -> AttentionMapping:
        """``mapping`` without the whole leading KV pages of each group that
        the variant's ``look_back`` bound hides from every query row of the
        group (its lowest row sees the most: ``kv_pos > q_pos - bound``),
        judged by each page's own position."""
        if self.variant.look_back is None:
            return mapping
        bound = int(getattr(params, self.variant.look_back))
        kv, n = mapping.kv, mapping.num_groups
        lowest = np.minimum.reduceat(  # an empty group's KV is read by no row
            np.append(mapping.q_pos, np.iinfo(np.int64).max), mapping.qo_indptr[:-1])
        group = np.repeat(np.arange(n), kv.indptr[1:] - kv.indptr[:-1])  # of each page
        hidden = group[mapping._block_positions + kv.block_size <= (lowest - bound + 1)[group]]
        # Positions ascend in a group, so the hidden pages lead; a partial last one stays.
        pages = np.minimum(np.bincount(hidden, minlength=n), kv.kv_lens // kv.block_size)
        return mapping.drop_leading_blocks(pages) if pages.any() else mapping

    def _schedule_inputs(self, mapping: AttentionMapping) -> Tuple[tuple, dict]:
        """``(args, kwargs)`` of :func:`plan_schedule` for ``mapping``."""
        # The largest tile's fused rows price one more split.
        g_eff = self.heads.group_size if self.fuse_head_groups else 1
        rows = min(self._sched_q_tile, int(mapping.qo_lens.max(initial=0))) * g_eff
        args = (mapping.qo_lens, mapping.kv.kv_lens, self._sched_q_tile, self.num_ctas)
        return args, dict(
            num_kv_heads=self._sched_heads,
            chunk_granularity=self.kv_tile,
            split_kv=self.split_kv,
            causal=mapping.causal,
            causal_kv_lens=mapping.causal_kv_lens,
            break_even_kv=break_even_kv_len(rows, self.heads.head_dim, self.kv_dtype),
        )

    def _candidates(self, mapping: AttentionMapping, kwargs: dict) -> Tuple[list, float]:
        """``([(planner kwargs, longest, contraction, extra), ...], unsplit)``
        of the plans :meth:`_choose` weighs, in order of preference: the
        unsplit plan when its items fit one wave; Algorithm 1 with Step 3's
        break-even release (``kwargs``), unless it splits nothing where the
        unsplit plan is weighed; and, when that release stopped below ``L*``
        with a split, the plan at :func:`break_even_step`, unless it splits
        nothing.  From the lengths alone: ``longest`` bounds the plan's
        longest serial stream below (:func:`simulate.unsplit_bounds` under its
        KV chunk); ``contraction`` is its contraction launch's bytes, ``None``
        where it runs none, and ``extra`` what its attention launch moves
        beyond the unsplit plan's (:func:`simulate.split_bytes`); ``unsplit``
        bounds the unsplit plan's bytes above.  A lone candidate is not
        bounded."""
        stacked = self.stack_merges is not None
        qo, kv = mapping.qo_lens, mapping.kv.kv_lens
        q_tiles = -(-qo // self._sched_q_tile)
        longest_kv = int(kv.max(where=qo > 0, initial=0))
        break_even, granularity = kwargs["break_even_kv"], kwargs["chunk_granularity"]
        l_kv = kv_chunk_len(q_tiles * self._sched_heads, kv, self.num_ctas, granularity,
                            kwargs["split_kv"], break_even)
        one_wave = kwargs["split_kv"] and 0 < int(q_tiles.sum()) * self._sched_heads <= self.num_ctas
        found = [(dict(kwargs, split_kv=False), longest_kv)] if one_wave else []
        if l_kv < longest_kv or not one_wave:
            found.append((kwargs, l_kv))
        if l_kv < min(longest_kv, break_even):
            step = break_even_step(l_kv, break_even, granularity)
            if step < longest_kv:
                found.append((dict(kwargs, min_kv_chunk=step), step))
        if len(found) == 1:
            return [(found[0][0], 0.0, None, 0.0)], 0.0
        cost_model, bounded = self.executor.cost_model, []
        longest, unsplit = simulate.unsplit_bounds(
            q_tiles, mapping, self.heads, self.kv_dtype, self._sched_q_tile, self._tile_set,
            self.fuse_head_groups, self.sparse_gather,
            cost_model, self._compute_share, self.compute_penalty, stacked,
            [chunk for _, chunk in found],
        )
        for (kw, chunk), stream in zip(found, longest):
            contraction, extra = None, 0.0
            if stacked or chunk < longest_kv:
                contraction, extra = simulate.split_bytes(
                    qo, kv, chunk, self.heads.head_dim, self.heads.num_qo_heads, stacked,
                    cost_model,
                )
            bounded.append((kw, stream, contraction, extra))
        return bounded, unsplit * self._sched_heads

    def _floor(self, longest: float, contraction: Optional[float], mem: float) -> float:
        """What a plan costs at least whose attention launch has a serial
        stream of ``longest`` and moves ``mem`` effective bytes, followed —
        unless ``contraction`` is ``None`` — by a contraction launch of at
        least one tile moving ``contraction`` bytes, which hides up to its
        dispatch behind the attention launch on a PDL device
        (``PersistentKernelExecutor.follow``).  No drain outruns the peak
        bandwidth."""
        spec = self.executor.spec
        dispatch, peak = spec.kernel_dispatch_overhead, spec.peak_bandwidth_bytes
        attention = max(longest, mem / peak)
        if contraction is None:
            return dispatch + attention
        merge = max(self.executor.cost_model.tile_latency, contraction / peak)
        if spec.supports_pdl:
            return dispatch + max(attention, dispatch) + merge
        return 2 * dispatch + attention + merge

    def _choose(
        self, mapping: AttentionMapping, args: tuple, kwargs: dict
    ) -> Tuple[SchedulePlan, list]:
        """``(plan, launches)``: the cheapest of :meth:`_candidates`, and the
        launches ``run`` submits for it as ``(streams, price)``.

        A candidate's price is :meth:`_priced`'s.  One rule picks: candidates
        are taken cheapest estimate first — the floor (:meth:`_floor`) over
        the unsplit plan's bytes bounded from above — and each is priced only
        when its floor does not clear the cheapest price so far.  A split
        plan's attention launch moves at least its ``extra`` bytes and, once
        the unsplit plan is priced, that plan's bytes besides.  The cheapest
        wins, or the earliest of equally cheap ones.  No fault is consulted."""
        found, unsplit = self._candidates(mapping, kwargs)
        best, mem = None, 0.0
        estimate = [self._floor(longest, contraction, unsplit + extra)
                    for _, longest, contraction, extra in found]
        for i in sorted(range(len(found)), key=estimate.__getitem__):
            kw, longest, contraction, extra = found[i]
            if best and self._floor(longest, contraction, mem + extra) > best[0] + _PRICE_SLACK:
                continue
            plan = plan_schedule(*args, **kw)
            value, launches = self._priced(plan, mapping)
            if not kw["split_kv"]:  # the unsplit plan: its attention bytes floor a split plan's
                (_, unsplit_mem, *_), _ = launches[0]
                mem = float(unsplit_mem.sum())
            if best is None or (value, i) < best[:2]:
                best = (value, i, plan, launches)
        return best[2:]

    def _priced(self, plan: SchedulePlan, mapping: AttentionMapping) -> Tuple[float, list]:
        """``plan``'s price for :meth:`_choose` and its launches as ``(streams,
        price)``; a format of a stack contracts the plan's own states."""
        launches: list = []
        merges = self._merges(plan) if self.stack_merges is None else simulate.format_merge_entries(
            mapping, plan.kv_chunk_size, self.heads.num_qo_heads)
        return self._price(plan, mapping, merges, self._recorder(launches)).makespan, launches

    def _recorder(self, launches: list) -> Callable[..., SimReport]:
        """A ``launch`` that prices its streams and appends both to ``launches``."""

        def launch(*streams) -> SimReport:
            launches.append((streams, self.executor.price_streams(*streams)))
            return launches[-1][1]

        return launch

    def _write_plan(self, plan: SchedulePlan) -> None:
        """Copy the plan tables into their fixed-offset sections."""
        counts = np.array(
            [
                plan.num_work_items, len(plan.merge_meta), plan.merge_slots.size,
                plan.num_partial_slots, plan.q_tile_size, plan.kv_chunk_size, 0, 0,
            ],
            dtype=np.int64,
        )
        self._launches = None
        ws = self.workspace
        ws.write(self._section("counts"), counts)
        ws.write(self._section("work_items"), plan.items)
        ws.write(self._section("cta_indptr"), plan.cta_indptr)
        ws.write(self._section("merge_meta"), plan.merge_meta)
        ws.write(self._section("merge_indptr"), plan.merge_indptr)
        ws.write(self._section("merge_slots"), plan.merge_slots)

    def _read_plan(self) -> SchedulePlan:
        """The plan as the workspace holds it (the kernel's view)."""

        def read(section: str, count: int) -> np.ndarray:
            return self.workspace.read(self._section(section), np.int64, count)

        n_items, n_merges, n_slots, n_partial, q_tile_size, kv_chunk = read("counts", 6).tolist()
        return SchedulePlan(
            items=read("work_items", n_items * ITEM_FIELDS).reshape(n_items, ITEM_FIELDS),
            cta_indptr=read("cta_indptr", self.num_ctas + 1),
            merge_meta=read("merge_meta", n_merges * MERGE_FIELDS).reshape(n_merges, MERGE_FIELDS),
            merge_indptr=read("merge_indptr", n_merges + 1),
            merge_slots=read("merge_slots", n_slots),
            num_partial_slots=n_partial,
            q_tile_size=q_tile_size,
            kv_chunk_size=kv_chunk,
        )

    # -- run -------------------------------------------------------------------

    def _simulate_fast(self, launch: Optional[Callable[..., SimReport]] = None) -> SimReport:
        """Price the planned launch — attention kernel, then contraction
        kernel — from the serialized plan arrays, numerics or not, each
        drained by ``launch`` (default: the executor's ``run_streams``).
        Pinned to the per-object model of ``tests/reference_costs.py``.

        Contraction entry ``i`` folds ``n_slots[i]`` states into each of its
        ``rows_eff[i]`` (query row, query head) pairs — the plan's merge
        entries, or :attr:`stack_merges` in a stack — and the pairs are dealt
        over the CTAs in contiguous blocks (``core/simulate.merge_cost_arrays``).
        """
        plan = self._read_plan()
        merges = self._merges(plan) if self.stack_merges is None else self.stack_merges
        return self._price(plan, self._mapping, merges, launch or self.executor.run_streams)

    def _merges(self, plan: SchedulePlan) -> Tuple[np.ndarray, np.ndarray]:
        """Contraction entries ``(n_slots, rows_eff)`` of ``plan``'s own merges."""
        g_eff = self.heads.group_size if self.fuse_head_groups else 1
        return plan.merge_indptr[1:] - plan.merge_indptr[:-1], plan.merge_meta[:, MERGE_QROWS] * g_eff

    def _price(
        self,
        plan: SchedulePlan,
        mapping: AttentionMapping,
        merges: Tuple[np.ndarray, np.ndarray],
        launch: Callable[..., SimReport],
    ) -> SimReport:
        """``plan``'s attention launch, then the contraction launch of
        ``merges`` (:meth:`_contract`), each drained by ``launch`` (the
        executor's ``run_streams``, or ``price_streams``)."""
        costs = self._item_costs(plan.items, mapping, plan.q_tile_size)
        report = simulate.simulate_queues(launch, costs, plan.cta_of_item, self.num_ctas)
        return self._contract(report, merges, launch)

    def _contract(
        self, report: SimReport, merges: Tuple[np.ndarray, np.ndarray],
        launch: Callable[..., SimReport],
    ) -> SimReport:
        """``report`` followed by the contraction launch of ``merges = (n_slots,
        rows_eff)`` where there are any, drained by ``launch``."""
        n_slots, rows_eff = merges
        if not n_slots.size:
            return report
        mcosts = simulate.merge_cost_arrays(
            n_slots, rows_eff, self.heads.head_dim, self.executor.cost_model,
            self._compute_share, self.num_ctas,
        )
        contraction = simulate.simulate_queues(
            launch, mcosts, np.arange(mcosts.serial.size), self.num_ctas
        )
        return report.then(self.executor.follow(report, contraction))

    def _submit(self, submit: bool = True) -> SimReport:
        """The planned launches at the prices they were planned with, each
        submitted unless ``submit`` is false — or, after a plan-cache hit or
        a ``_write_plan`` by hand, priced from the workspace."""
        executor = self.executor
        if self._launches is None:
            return self._simulate_fast(None if submit else executor.price_streams)
        report = None
        for streams, priced in self._launches:  # the attention launch, then its contraction
            launch = executor.run_streams(*streams, priced=priced) if submit else priced
            report = launch if report is None else report.then(executor.follow(report, launch))
        return report

    def _item_costs(
        self, items: np.ndarray, mapping: AttentionMapping, q_tile_size: int
    ) -> simulate.PlanCostArrays:
        """The attention kernel's cost streams of ``items`` on this launch."""
        return simulate.item_cost_arrays(
            items, mapping, self.heads, self.kv_tile, self.kv_dtype, q_tile_size, self._tile_set,
            self.fuse_head_groups, self.sparse_gather,
            self.executor.cost_model, self._compute_share, self.compute_penalty,
            self.stack_merges is not None,
        )

    def _signature(self) -> Tuple:
        """Launch-time arguments CUDAGraph freezes."""
        secs = tuple(
            self.workspace.section(self._section(s)).address
            for s in ("counts", "work_items", "cta_indptr", "partial_o", "partial_lse")
        )
        return (self.num_ctas, self.traits.q_tile, self.traits.kv_tile, secs)

    def run(
        self,
        q: Optional[np.ndarray],
        k_pool: Optional[np.ndarray] = None,
        v_pool: Optional[np.ndarray] = None,
        compute: bool = True,
        apply_output_transform: bool = True,
    ) -> Tuple[np.ndarray, np.ndarray, SimReport]:
        """Execute the attention + contraction kernels under the cached plan.

        Returns ``(out, lse, report)``.  ``out``/``lse`` rows not covered by
        this wrapper's mapping stay zero / ``-inf``, so composable formats
        can ``⊕``-merge several wrappers' results.  ``out`` is float32 and
        ``lse`` float64.

        ``q`` may be ``None`` for cost-only runs (``compute=False``) — the
        simulated-GPU report is produced without touching any tensor data.
        """
        if self._mapping is None:
            raise RuntimeError("run() before plan()")
        mapping = self._mapping
        out = lse = None
        if compute:
            ends = mapping.q_row_starts + mapping.qo_lens
            planned = int(ends.max()) if mapping.num_groups else 0
            total_q = _num_query_rows(q, compute, planned)
            h = self.heads
            # A K/V transform may read another width than head_dim (a latent cache).
            k_tail, v_tail = ((h.num_kv_heads,) + (() if t else (h.head_dim,))
                              for t in (self.variant.key_transform, self.variant.value_transform))
            wants = (("q", q, planned, (h.num_qo_heads, h.head_dim)),
                     ("k_pool", k_pool, 0, k_tail), ("v_pool", v_pool, 0, v_tail))
            for name, x, rows, tail in wants:
                shape = np.shape(x)
                if len(shape) != 3 or shape[0] < rows or shape[1:1 + len(tail)] != tail:
                    raise ValueError(f"{name} has shape {shape}, the plan needs {tail} per row"
                                     + (f" and {rows} rows" if rows else ""))
            # Staged in float32 (the kernel computes in float64): what the
            # split-KV partials already are (App. D.3).
            out = np.zeros(
                (total_q, self.heads.num_qo_heads, self.heads.head_dim), dtype=np.float32
            )
            lse = np.full((total_q, self.heads.num_qo_heads), -np.inf)
            d = self.heads.head_dim
            partial_o = self.workspace.view(self._section("partial_o"), np.float32)[
                : self._max_slots * self._max_rows_eff * d
            ].reshape(self._max_slots, self._max_rows_eff, d)
            partial_lse = self.workspace.view(self._section("partial_lse"), np.float32)[
                : self._max_slots * self._max_rows_eff
            ].reshape(self._max_slots, self._max_rows_eff)

        def launch() -> SimReport:
            if compute:
                run_mapping(
                    q, k_pool, v_pool, mapping, self._read_plan(), self.kernel, self.heads,
                    self._params, self._sm_scale, self.kv_tile, out, lse,
                    partial_o, partial_lse, kv_dtype=self.kv_dtype,
                    fuse_head_groups=self.fuse_head_groups,
                    sparse_gather=self.sparse_gather,
                    tile_set=self._tile_set,
                    compute_penalty=self.compute_penalty,
                )
            report = self.last_report = self._submit()
            return report

        launch.current_signature = self._signature  # type: ignore[attr-defined]
        report = CudaGraph.add_launch(launch, self._signature(), name=self.name)

        if compute:
            inj = self.executor.fault_injector
            if inj is not None and total_q and inj.fire("numeric"):
                out[inj.choose("numeric", total_q)] = np.nan
            if self.output_guard is not None:
                self.output_guard.check(out, self.name)

        if compute and apply_output_transform and self.kernel.output_transform is not None:
            lens = mapping.qo_lens
            within = np.arange(mapping.total_qo) - np.repeat(mapping.qo_indptr[:-1], lens)
            covered = np.unique(np.repeat(mapping.q_row_starts, lens) + within)
            _apply_output_transform(self.kernel, out, covered, self._params)
        return out, lse, report


class ComposableAttentionWrapper:
    """A stack of per-format wrappers merged with ``⊕`` (§3.1.2).

    One :class:`BatchAttentionWrapper` per format, each with its own block
    sizes; ``run`` merges the per-format partial states and applies the
    variant's output transform once.  A stack of several formats is priced
    as each format's attention launch, then one contraction launch — the
    last format's — that folds, per (query row, query head) pair, every
    state any format wrote for it and writes the row once.  Each launch
    depends on the one before it (``PersistentKernelExecutor.follow``).
    The numerics fold in the same order as before (each format's split
    slots, then ``⊕``), so only the price is the stack's.
    """

    def __init__(
        self,
        variant: AttentionVariant,
        heads: HeadConfig,
        workspace: WorkspaceBuffer,
        gpu: GPUSpec = A100_40G,
        **wrapper_kwargs,
    ):
        self.variant = variant
        self.heads = heads
        self.workspace = workspace
        self.gpu = gpu
        self._kwargs = wrapper_kwargs
        self.wrappers: List[BatchAttentionWrapper] = []
        self._format: Optional[ComposableFormat] = None
        self.last_report: Optional[SimReport] = None
        #: The last ``run``'s report of each format as it ran in the stack,
        #: each after the one before it: they add up to :attr:`last_report`.
        self.format_reports: List[SimReport] = []

    def plan(
        self,
        formats: Union[ComposableFormat, AttentionMapping],
        params: Optional[dict] = None,
        sm_scale: Optional[float] = None,
    ) -> None:
        if isinstance(formats, AttentionMapping):
            formats = ComposableFormat.single(formats)
        if self.wrappers and len(self.wrappers) != len(formats):
            raise ValueError(
                f"wrapper stack was built for {len(self.wrappers)} formats, "
                f"got {len(formats)}; composable configurations need separate "
                f"wrappers/CUDAGraphs (§3.4)"
            )
        if not self.wrappers:
            for i, m in enumerate(formats):
                avg = float(np.mean(m.qo_lens)) if m.num_groups else 1.0
                if m.block_row_size:
                    avg = max(avg, float(m.block_row_size))
                # Stacks may share one workspace (one per format count).  An
                # ``avg_qo_len`` given at construction holds for all.
                self.wrappers.append(
                    BatchAttentionWrapper(
                        self.variant, self.heads, self.workspace, self.gpu,
                        name=self.workspace.free_name(f"fmt{i}_{m.label}_"),
                        **{"avg_qo_len": avg, **self._kwargs},
                    )
                )
        # Mark every format of a stack before planning it, so the one-launch
        # rule counts no contraction launch of its own; then hand the last
        # format the contraction entries of the whole stack.
        stacked = len(self.wrappers) > 1
        for w in self.wrappers:
            w.stack_merges = (np.zeros(0, np.int64), np.zeros(0, np.int64)) if stacked else None
        plans = [w.plan(m, params=params, sm_scale=sm_scale) for w, m in zip(self.wrappers, formats)]
        if stacked:
            last = self.wrappers[-1]
            last.stack_merges = simulate.stack_merge_entries(
                [(p.items, w._mapping) for p, w in zip(plans, self.wrappers)],
                last._sched_heads, last.heads.group_size if last.fuse_head_groups else 1,
            )
            if last._launches:  # the stack's contraction, priced once: ``run`` submits it
                last._contract(last._launches[0][1], last.stack_merges,
                               last._recorder(last._launches))
        self._format = formats

    def price(self) -> float:
        """The makespan :meth:`run` reports for the planned stack when no
        fault fires, read from the prices its launches were planned with:
        nothing is launched or recorded."""
        return self._in_order([w._submit(submit=False) for w in self.wrappers])[1].makespan

    def _in_order(self, reports: List[SimReport]) -> Tuple[List[SimReport], SimReport]:
        """``(each format's report as it runs in the stack, the stack's)``:
        each format after the one before it."""
        ran = reports[:1]
        for w, rep in zip(self.wrappers[1:], reports[1:]):
            ran.append(w.executor.follow(ran[-1], rep))
        return ran, functools.reduce(SimReport.then, ran)

    def run(
        self,
        q: Optional[np.ndarray],
        k_pool: Optional[np.ndarray] = None,
        v_pool: Optional[np.ndarray] = None,
        compute: bool = True,
    ) -> Tuple[Optional[np.ndarray], SimReport]:
        """Run every format and contract their states into the final output."""
        if self._format is None:
            raise RuntimeError("run() before plan()")
        total_q = _num_query_rows(q, compute, self._format.total_qo)
        h, d = self.heads.num_qo_heads, self.heads.head_dim
        acc_o = np.zeros((total_q, h, d)) if compute else None
        acc_lse = np.full((total_q, h), -np.inf) if compute else None
        reports = []
        for w in self.wrappers:
            o_f, lse_f, rep = w.run(
                q, k_pool, v_pool, compute=compute, apply_output_transform=False
            )
            reports.append(rep)
            if compute:
                if self.variant.use_softmax:
                    acc_o, acc_lse = merge_states(acc_o, acc_lse, o_f, lse_f)
                else:
                    acc_o = acc_o + o_f
        first = self.wrappers[0]
        if compute and first.kernel.output_transform is not None:
            _apply_output_transform(first.kernel, acc_o, np.arange(total_q), first._params)
        self.format_reports, self.last_report = self._in_order(reports)
        return acc_o, self.last_report

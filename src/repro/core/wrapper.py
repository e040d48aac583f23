"""The user-facing attention wrappers (paper §3.4, Listing 1).

:class:`BatchAttentionWrapper` owns one attention *format*: at construction
it JIT-compiles the variant kernel for fixed tile sizes and pins the
persistent grid size; ``plan()`` runs the load-balanced scheduler on CPU and
copies the plan arrays into fixed-offset workspace sections; ``run()``
executes the persistent attention + contraction kernels, reading the plan
*from the workspace* — so a CUDAGraph replay of ``run`` picks up fresh plan
data without changing any launch argument.

:class:`ComposableAttentionWrapper` stacks one wrapper per format
(§3.1.2 / §3.4: "FlashInfer creates multiple attention wrappers, each with
distinct block sizes"), merges the per-format partial states with ``⊕`` and
applies the variant's output transform once at the end.
"""

from __future__ import annotations

import itertools
from typing import List, Optional, Tuple, Union

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
    plan_schedule,
    plan_signature,
)
from repro.core.tiles import ctas_per_sm, select_kv_tile, select_q_tile
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

_wrapper_counter = itertools.count()


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
        (1 for decode).  Fixes the compile-time query tile size.
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
        self.name = name or f"attn{next(_wrapper_counter)}"

        self.backend = backend or ("fa3" if gpu.supports_tma else "fa2")
        g_eff = heads.group_size if fuse_head_groups else 1
        fused_len = avg_qo_len * g_eff
        self.q_tile = q_tile if q_tile is not None else select_q_tile(fused_len, self.backend)
        self.kv_tile = (
            kv_tile
            if kv_tile is not None
            else select_kv_tile(self.q_tile, heads.head_dim, kv_dtype, gpu)
        )
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

        # Queries tile over rows; GQA fuses g rows per query (Appendix A).
        self._sched_q_tile = max(self.q_tile // g_eff, 1)
        #: The head dimension the scheduler enumerates (fused GQA → KV heads).
        self._sched_heads = heads.num_kv_heads if fuse_head_groups else heads.num_qo_heads
        self._max_rows_eff = self._sched_q_tile * g_eff

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
        self.plan_count = 0
        #: Contraction entries ``(n_slots, rows_eff)`` this launch's
        #: contraction kernel runs after its own merge entries: the
        #: cross-format ``⊕`` of a composable stack whose last format this is
        #: (set by :meth:`ComposableAttentionWrapper.plan`).
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
        CPU schedule.  The signature captures every scheduler input, so a
        hit returns a plan identical to the one it replaces (§3.3.1)."""
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
        """Run the CPU scheduler and stage the plan into the workspace.

        Called once per generation step; not capturable by CUDAGraph (it is
        host code), exactly as in Listing 1.
        """
        sched_args = (
            mapping.qo_lens, mapping.kv.kv_lens, self._sched_q_tile, self.num_ctas
        )
        # The largest tile's fused rows price one more split.
        g_eff = self.heads.group_size if self.fuse_head_groups else 1
        rows = min(self._sched_q_tile, int(mapping.qo_lens.max(initial=0))) * g_eff
        sched_kwargs = dict(
            num_kv_heads=self._sched_heads,
            chunk_granularity=self.kv_tile,
            split_kv=self.split_kv,
            causal=mapping.causal,
            q_pos_offset=mapping.q_pos_offset,
            kv_pos_offset=mapping.kv_pos_offset,
            break_even_kv=break_even_kv_len(rows, self.heads.head_dim, self.kv_dtype),
        )
        cache = self.plan_cache
        plan = None
        if cache is not None:
            key = plan_signature(*sched_args, **sched_kwargs)
            plan = cache.get(key)
        if plan is None:
            plan = plan_schedule(*sched_args, **sched_kwargs)
            if cache is not None:
                cache.put(key, plan)
        self._ensure_sections(mapping.num_groups, mapping.total_qo)
        if plan.num_partial_slots > self._max_slots:
            raise ValueError(
                f"plan needs {plan.num_partial_slots} partial slots but the "
                f"workspace was sized for {self._max_slots}; raise "
                f"max_batch_size/max_total_qo (Appendix D.3)"
            )
        item_capacity = self.workspace.section(self._section("work_items")).nbytes // (
            ITEM_FIELDS * 8
        )
        if plan.num_work_items > item_capacity:
            raise ValueError(
                f"plan has {plan.num_work_items} work items but the workspace "
                f"was sized for {item_capacity}; pass larger "
                f"max_batch_size/max_total_qo upper bounds at wrapper "
                f"construction (Appendix D.3)"
            )
        self._write_plan(plan)
        self._mapping = mapping
        self._params = self.variant.bind_params(params)
        self._sm_scale = (
            1.0 / float(np.sqrt(self.heads.head_dim)) if sm_scale is None else float(sm_scale)
        )
        self.plan_count += 1
        return plan

    def _write_plan(self, plan: SchedulePlan) -> None:
        """Copy the plan tables into their fixed-offset sections."""
        counts = np.array(
            [
                plan.num_work_items, len(plan.merge_meta), plan.merge_slots.size,
                plan.num_partial_slots, plan.q_tile_size, plan.kv_chunk_size, 0, 0,
            ],
            dtype=np.int64,
        )
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

    def _simulate_fast(self) -> SimReport:
        """Price the planned launch — attention kernel, then contraction
        kernel — from the serialized plan arrays, numerics or not.  Pinned to
        the per-object model of ``tests/reference_costs.py``.

        Contraction entry ``i`` folds ``n_slots[i]`` states into each of its
        ``rows_eff[i]`` (query row, query head) pairs — the plan's merge
        entries, then :attr:`stack_merges` — and the pairs are dealt over
        the CTAs in contiguous blocks (``core/simulate.merge_cost_arrays``).
        """
        plan = self._read_plan()
        g_eff = self.heads.group_size if self.fuse_head_groups else 1
        compute_share = min(1.0, self.gpu.num_sms / self.num_ctas)
        costs = simulate.item_cost_arrays(
            plan.items, self._mapping, self.heads, self.kv_tile, self.kv_dtype,
            plan.q_tile_size, self.fuse_head_groups, self.traits.uses_tensor_cores,
            self.sparse_gather, self.executor.cost_model, compute_share,
            self.compute_penalty,
        )
        report = simulate.simulate_queues(self.executor, costs, plan.cta_of_item, self.num_ctas)
        n_slots = plan.merge_indptr[1:] - plan.merge_indptr[:-1]
        rows_eff = plan.merge_meta[:, MERGE_QROWS] * g_eff
        if self.stack_merges is not None:
            n_slots = np.concatenate([n_slots, self.stack_merges[0]])
            rows_eff = np.concatenate([rows_eff, self.stack_merges[1]])
        if n_slots.size:
            mcosts = simulate.merge_cost_arrays(
                n_slots, rows_eff, self.heads.head_dim, self.executor.cost_model,
                compute_share, self.num_ctas,
            )
            report = report.combine(
                simulate.simulate_queues(
                    self.executor, mcosts, np.arange(mcosts.serial.size), self.num_ctas
                )
            )
        return report

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
        out: Optional[np.ndarray] = None,
        lse: Optional[np.ndarray] = None,
        compute: bool = True,
        apply_output_transform: bool = True,
    ) -> Tuple[np.ndarray, np.ndarray, SimReport]:
        """Execute the attention + contraction kernels under the cached plan.

        Returns ``(out, lse, report)``.  ``out``/``lse`` rows not covered by
        this wrapper's mapping are left untouched (``lse`` stays ``-inf``),
        so composable formats can ``⊕``-merge several wrappers' results.
        ``out`` defaults to a float32 array (a supplied one keeps its
        dtype); ``lse`` is float64.

        ``q`` may be ``None`` for cost-only runs (``compute=False``) — the
        simulated-GPU report is produced without touching any tensor data.
        """
        if self._mapping is None:
            raise RuntimeError("run() before plan()")
        mapping = self._mapping
        planned = int((mapping.q_row_starts + mapping.qo_lens).max()) if mapping.num_groups else 0
        total_q = _num_query_rows(q, compute, planned)
        if compute and out is None:
            # Staged in float32 (the kernel computes in float64): what the
            # split-KV partials already are (App. D.3).
            out = np.zeros(
                (total_q, self.heads.num_qo_heads, self.heads.head_dim), dtype=np.float32
            )
        if compute and lse is None:
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
                    uses_tensor_cores=self.traits.uses_tensor_cores,
                    compute_penalty=self.compute_penalty,
                )
            report = self.last_report = self._simulate_fast()
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
    variant's output transform once.
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
                # Unique names: several composable stacks may share one
                # workspace (e.g. decode and prefill configurations), and
                # section names must not collide.
                self.wrappers.append(
                    BatchAttentionWrapper(
                        self.variant, self.heads, self.workspace, self.gpu,
                        avg_qo_len=avg,
                        name=f"fmt{i}_{m.label}_{next(_wrapper_counter)}",
                        **self._kwargs,
                    )
                )
        for w, m in zip(self.wrappers, formats):
            w.plan(m, params=params, sm_scale=sm_scale)
        # The cross-format ⊕ runs in the last format's contraction launch:
        # each later format's covered (row, head) pairs fold 2 states.
        h = self.heads.num_qo_heads
        pairs = np.array([m.qo_lens.sum() * h for m in formats.mappings[1:]], dtype=np.int64)
        pairs = pairs[pairs > 0]
        if self.wrappers:
            self.wrappers[-1].stack_merges = (np.full(pairs.size, 2), pairs) if pairs.size else None
        self._format = formats

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
        report: Optional[SimReport] = None
        for w in self.wrappers:
            o_f, lse_f, rep = w.run(
                q, k_pool, v_pool, compute=compute, apply_output_transform=False
            )
            report = rep if report is None else report.combine(rep)
            if compute:
                if self.variant.use_softmax:
                    acc_o, acc_lse = merge_states(acc_o, acc_lse, o_f, lse_f)
                else:
                    acc_o = acc_o + o_f
        first = self.wrappers[0] if self.wrappers else None
        if compute and first.kernel.output_transform is not None:
            _apply_output_transform(first.kernel, acc_o, np.arange(total_q), first._params)
        self.last_report = report
        return acc_o, report

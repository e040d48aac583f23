"""The plan-array cost model must reproduce the per-object one.

``tests/reference_costs.py`` holds the cost model as it was while the compute
path priced a launch one ``TileCost`` at a time and drained the objects through
``run_persistent``.  ``repro.core.simulate`` prices the same plan from its
arrays, for ``run(compute=True)`` as for ``run(compute=False)``.  Across the
strategy every launch's ``makespan``, ``per_cta_time``, ``total_flops`` and
``total_bytes``, the same of the chained call, and every field of the
``TileCost`` lists ``run_mapping`` still returns agree within 1e-12 relative,
on A100 and on H100, whose dependent launches overlap their dispatch
(``reference_chain`` walks explicit start instants), on a fixed query tile
and with each work item on its own.  On the 18 plans of the
benchmark's ``kernel_batch`` workload at seed 0 every launch's ``makespan``
and ``per_cta_time`` agree bit for bit.  (``total_bytes`` is a pairwise
``ndarray.sum`` there and a sequential Python sum in the reference: the last
ulp may differ on a prefill plan.)  The contraction launch
is also priced over random merge tables, where it must move exactly its
entries' footprints, hold at most ⌈P/#CTA⌉ (query row, query head) pairs on a
CTA and equal the pair-by-pair deal of ``distribute_merges`` bit for bit.  A
composable stack of several formats is their attention launches and one
contraction, priced against ``reference_stack_report``, which counts each
(query row, query head) pair's states item by item.  Hypothesis runs
derandomized, so tier-1 sees a fixed sample.
"""

import dataclasses
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.core.wrapper as wrapper_module
from conftest import (
    sweep,
    benchmark_workloads,
    kv_from_page_table,
    make_paged_mapping,
    make_shared_prefix_mapping,
    runs,
)
from reference_costs import (
    block_cost,
    contraction_cost,
    distribute_merges,
    reference_report,
    reference_stack_report,
    reference_tile_costs,
)
from repro import (
    A100_40G,
    AttentionMapping,
    BatchAttentionWrapper,
    ComposableAttentionWrapper,
    H100_80G,
    PagedKVCache,
    WorkspaceBuffer,
    decompose_shared_prefix,
)
from repro.core import VANILLA, HeadConfig, MergeEntry
from repro.core.scheduler import COL_GROUP, COL_KVHEAD, COL_QROWS, ITEM_FIELDS, plan_schedule
from repro.core.simulate import (
    merge_cost_arrays,
    merge_footprints,
    simulate_queues,
    stack_merge_entries,
)
from repro.gpu.executor import PersistentKernelExecutor
from repro.sparse import PrefixCluster, decompose_multi_level
from repro.utils.dtypes import StorageDType

FIXED = sweep(15, 60)
RTOL = 1e-12

#: Ragged groups ``(qo_len, kv_len)``: empty groups, decode rows, prefill of
#: several query tiles, more queries than KV (the first rows see nothing) and
#: KV long enough to split over the grid.
GROUPS = st.lists(
    st.tuples(
        st.sampled_from([0, 1, 1, 5, 17, 70, 150]),
        st.sampled_from([0, 1, 9, 64, 130, 700, 1500]),
    ),
    min_size=1, max_size=5,
)


def _launches(executor, price):
    """``price()``'s result and the report of every launch it submits."""
    seen, real = [], executor.run_streams

    def spy(*args, **kwargs):
        seen.append(real(*args, **kwargs))
        return seen[-1]

    executor.run_streams = spy
    try:
        return price(), seen
    finally:
        del executor.run_streams


def _stack_launches(price):
    """``price()``'s result and the report of every launch it submits on any
    executor (the formats of a stack may each own one)."""
    seen, real = [], PersistentKernelExecutor.run_streams

    def spy(self, *args, **kwargs):
        seen.append(real(self, *args, **kwargs))
        return seen[-1]

    with mock.patch.object(PersistentKernelExecutor, "run_streams", spy):
        return price(), seen


def _assert_reports_match(fast_launches, fast, slow_launches, slow, bitwise):
    """Launch for launch, then the chained call, within 1e-12; ``bitwise``:
    every launch bit for bit.  The call adds its launches in another order
    than the oracle — a sum of makespans less the hidden dispatch against a
    walk over explicit start instants, a stack's last format chained before
    it follows the others — so its sums may round apart in the last place."""
    assert len(fast_launches) == len(slow_launches)
    for new, old in zip(fast_launches + [fast], slow_launches + [slow]):
        assert (new.num_tiles, new.num_ctas) == (old.num_tiles, old.num_ctas)
        for field in ("makespan", "per_cta_time", "total_flops", "total_bytes"):
            np.testing.assert_allclose(
                getattr(new, field), getattr(old, field), rtol=RTOL, atol=0.0, err_msg=field
            )
    if bitwise:
        for new, old in zip(fast_launches, slow_launches):
            assert (new.makespan, new.total_flops) == (old.makespan, old.total_flops)
            np.testing.assert_array_equal(new.per_cta_time, old.per_cta_time)


def _assert_stack_matches(stack, bitwise=False):
    """Price a planned stack both ways: one launch per format plus one
    contraction, each equal to the oracle's."""
    slow, slow_launches = _stack_launches(lambda: reference_stack_report(stack))
    (_, fast), fast_launches = _stack_launches(lambda: stack.run(None, compute=False))
    assert len(fast_launches) == len(stack.wrappers) + 1
    _assert_reports_match(fast_launches, fast, slow_launches, slow, bitwise)


def _assert_launches_match(w, bitwise=False):
    """Price ``w``'s planned launch both ways, launch for launch."""
    slow, slow_launches = _launches(w.executor, lambda: reference_report(w, w._read_plan()))
    fast, fast_launches = _launches(w.executor, w._simulate_fast)
    _assert_reports_match(fast_launches, fast, slow_launches, slow, bitwise)


def _assert_tile_costs_match(new, old):
    assert new.uses_tensor_cores == old.uses_tensor_cores
    assert new.n_gather_segments == old.n_gather_segments
    assert isinstance(new.n_gather_segments, int)
    np.testing.assert_allclose(
        dataclasses.astuple(new)[:5], dataclasses.astuple(old)[:5], rtol=RTOL, atol=0.0
    )


@FIXED
@given(
    groups=GROUPS,
    geometry=st.sampled_from([(4, 2, 8), (8, 2, 16), (4, 4, 8), (8, 1, 16)]),
    fuse=st.booleans(),
    causal=st.booleans(),
    positions=st.sampled_from(["trailing", "mid_kv", "after_prefix", "gappy_rows",
                               "gappy_pages"]),
    sparse_gather=st.booleans(),
    page_size=st.sampled_from([1, 4, 16]),
    kv_dtype=st.sampled_from([StorageDType.FP16, StorageDType.FP8_E4M3]),
    split_kv=st.booleans(),
    q_tile=st.sampled_from([None, 1, 16, 64, 128]),
    kv_tile=st.sampled_from([16, 64]),
    gpu=st.sampled_from([A100_40G, H100_80G]),
)
def test_plan_arrays_price_like_the_per_object_model(
    groups, geometry, fuse, causal, positions, sparse_gather, page_size, kv_dtype,
    split_kv, q_tile, kv_tile, gpu,
):
    qo, kv = (np.array(col) for col in zip(*groups))
    pages = -(-kv // page_size)
    rng = np.random.default_rng(int(qo @ kv))
    q_pos, block_pos = {
        # Chunked prefill: queries inside the KV.
        "mid_kv": (runs(np.maximum(kv - qo - 37, 0), qo), None),
        # A cascade suffix: KV past 0.
        "after_prefix": (runs(512 + kv - qo, qo), runs(np.full(len(kv), 512), pages, page_size)),
        # Rows that ascend with gaps, anywhere up to a little past the KV.
        "gappy_rows": (np.concatenate([np.sort(rng.choice(n + q + 40, q, replace=False))
                                       for q, n in zip(qo, kv)]), None),
        # Pages far apart in position, as Quest prunes them (non-causal only).
        "gappy_pages": (None, np.concatenate([np.cumsum(rng.integers(1, 9, n)) * page_size
                                              for n in pages])),
    }.get(positions, (None, None))
    causal = causal and positions != "gappy_pages"
    mapping, slots = make_paged_mapping(kv, qo, page_size, causal, q_pos, block_pos)
    heads = HeadConfig(*geometry)
    w = BatchAttentionWrapper(
        VANILLA, heads, WorkspaceBuffer(1 << 26), gpu, kv_dtype=kv_dtype,
        fuse_head_groups=fuse, sparse_gather=sparse_gather, split_kv=split_kv,
        q_tile=q_tile, kv_tile=kv_tile,
        avg_qo_len=float(qo.max()),  # no q_tile: each item on its own tile up to this one
        backend="fa2" if q_tile == 16 else None,  # FA3 row tiles are 1 or 64k
    )
    plan = w.plan(mapping)
    _assert_launches_match(w)

    # The TileCost lists run_mapping returns, and the report of a run that
    # also computes: priced once, from the arrays.
    returned, real = [], wrapper_module.run_mapping

    def spy(*args, **kwargs):
        returned.append(real(*args, **kwargs))
        return returned[-1]

    q = np.zeros((int(qo.sum()), heads.num_qo_heads, heads.head_dim))
    pool = np.zeros((slots, heads.num_kv_heads, heads.head_dim), dtype=np.float32)
    with mock.patch.object(wrapper_module, "run_mapping", spy):
        _, _, computed = w.run(q, pool, pool)
    _, _, cost_only = w.run(None, compute=False)
    assert computed == cost_only
    (cost_queues, merge_costs), = returned
    ref_queues, ref_merges = reference_tile_costs(w, plan)
    assert [len(queue) for queue in cost_queues] == [len(queue) for queue in ref_queues]
    assert len(merge_costs) == len(ref_merges)
    for new, old in zip(
        [c for queue in cost_queues for c in queue] + merge_costs,
        [c for queue in ref_queues for c in queue] + ref_merges,
    ):
        _assert_tile_costs_match(new, old)


def _kernel_batch_call(case, page):
    """The planned wrapper of one ``kernel_batch`` call, built as
    ``benchmarks/e2e/kernel_batch.py`` builds it (head geometry, device, page
    size, shared prefix by ``fork_seq``) over a pool with no tensor data: the
    composable stack of a shared-prefix case, else one batch wrapper."""
    heads = HeadConfig(32, 8, 128)
    own = sum(-(-(n - case.prefix_len) // page) for n in case.kv_lens)
    cache = PagedKVCache(case.prefix_len // page + own + 8, page, 1, 1)
    root = cache.new_seq()
    cache.extend(root, case.prefix_len)
    seqs = []
    for n in case.kv_lens:
        seqs.append(cache.fork_seq(root))
        cache.extend(seqs[-1], n - case.prefix_len)
    qo_indptr = np.concatenate([[0], np.cumsum(case.qo_lens)])
    mapping = AttentionMapping(qo_indptr, cache.layout(seqs), causal=True)
    workspace = WorkspaceBuffer(96 * 1024 * 1024)
    if case.prefix_len:
        cluster = PrefixCluster(tuple(range(len(seqs))), case.prefix_len)
        stack = ComposableAttentionWrapper(VANILLA, heads, workspace, H100_80G)
        stack.plan(decompose_shared_prefix(mapping, [cluster]))
        return stack
    w = BatchAttentionWrapper(
        VANILLA, heads, workspace, H100_80G,
        avg_qo_len=float(np.mean(case.qo_lens)),
        kv_dtype=StorageDType.FP8_E4M3 if case.precision == "fp8" else StorageDType.FP16,
    )
    w.plan(mapping)
    return w


def test_kernel_batch_plans_of_seed_0_price_bit_for_bit():
    workloads = benchmark_workloads()
    cases = [c for part in range(workloads.PARTS) for c in workloads.kernel_load(0, part)]
    assert len(cases) == 18
    for case in cases:
        planned = _kernel_batch_call(case, workloads.KERNEL_PAGE)
        if isinstance(planned, ComposableAttentionWrapper):
            _assert_stack_matches(planned, bitwise=True)
        else:
            _assert_launches_match(planned, bitwise=True)


#: Merge tables ``(slots, rows)``: one-pair entries, long split tiles among
#: short ones, fewer pairs than CTAs and many more.
MERGE_TABLES = st.lists(
    st.tuples(st.integers(1, 24), st.sampled_from([1, 1, 3, 4, 16, 48, 129, 512])),
    min_size=1, max_size=40,
)


def _contraction(executor, n_slots, rows, head_dim, num_ctas):
    """``(cost arrays, report)`` of one contraction launch on ``num_ctas``."""
    costs = merge_cost_arrays(
        n_slots, rows, head_dim, executor.cost_model,
        min(1.0, executor.spec.num_sms / num_ctas), num_ctas,
    )
    return costs, simulate_queues(executor.run_streams, costs, np.arange(costs.serial.size), num_ctas)


@FIXED
@given(
    table=MERGE_TABLES,
    num_ctas=st.sampled_from([1, 2, 7, 108, 264]),
    head_dim=st.sampled_from([64, 128]),
    gpu=st.sampled_from([A100_40G, H100_80G]),
)
def test_contraction_is_dealt_over_row_head_pairs(table, num_ctas, head_dim, gpu):
    n_slots, rows = (np.array(col, dtype=np.int64) for col in zip(*table))
    executor = PersistentKernelExecutor(gpu)
    costs, report = _contraction(executor, n_slots, rows, head_dim, num_ctas)

    # The launch moves what its entries move, exactly.
    flops, bytes_read, bytes_written = merge_footprints(n_slots * rows, rows, head_dim)
    assert costs.flops.sum() == flops.sum() == report.total_flops
    assert costs.traffic.sum() == (bytes_read + bytes_written).sum() == report.total_bytes

    # No CTA holds more than ⌈P/#CTA⌉ pairs: with one slot per pair, a
    # block's flops count its pairs.
    total = int(rows.sum())
    ones, _ = _contraction(executor, np.ones_like(n_slots), rows, head_dim, num_ctas)
    held = ones.flops / (4.0 * head_dim)
    assert held.sum() == total and held.size <= num_ctas
    assert held.max() <= -(-total // num_ctas)

    # The same launch dealt one pair at a time, bit for bit.
    merges = [MergeEntry(0, 0, 0, int(r), 0, tuple(range(n))) for n, r in table]
    queues = distribute_merges(rows.tolist(), num_ctas)
    assert max(len(pairs) for pairs in queues) == held.max()
    oracle = executor.run_persistent(
        [[block_cost(merges, pairs, head_dim)] if pairs else [] for pairs in queues]
    )
    assert report == oracle


@FIXED
@given(
    slots=st.lists(st.integers(1, 24), min_size=1, max_size=64),
    num_ctas=st.sampled_from([64, 108, 264]),
)
def test_single_pair_entries_price_as_one_entry_per_cta(slots, num_ctas):
    """With P ≤ #CTA one-pair entries every block is one entry on the CTA the
    per-entry assignment gave it, so the launch prices exactly as before."""
    executor = PersistentKernelExecutor(H100_80G)
    merges = [MergeEntry(0, 0, 0, 1, 0, tuple(range(n))) for n in slots]
    per_entry = executor.run_persistent(
        [[contraction_cost(m, 1, 128)] for m in merges] + [[]] * (num_ctas - len(merges))
    )
    _, report = _contraction(executor, np.array(slots), np.ones(len(slots)), 128, num_ctas)
    assert report == per_entry


#: The shared-prefix call of ``kernel_batch``: 12 decode queries over a
#: 1 008-token shared prefix, H100, 32/8 heads, d=128.
CASCADE = SimpleNamespace(
    prefix_len=1008, kv_lens=[1024 + 5 * i for i in range(12)], qo_lens=[1] * 12
)


def test_shared_prefix_contraction_is_spread_over_the_grid():
    """The prefix format is one group of 12 queries × 4 fused GQA rows, its
    KV split into 8 slots per KV head: 128-token chunks, the first KV-tile
    step past its 97-token break-even, price below Algorithm 1's 64-token
    ones in the stack.  One CTA per merge entry put the contraction of 16
    such slots on 8 of 264 CTAs, at 6.52 µs longer than their 4.15 µs
    attention launch; the stack's one contraction, which also folds the
    suffix's states, deals its pairs over the grid."""
    prefix, suffix = _kernel_batch_call(CASCADE, 16).wrappers
    assert set(np.diff(prefix._read_plan().merge_indptr)) == {8}
    _, (_, contraction) = _launches(suffix.executor, suffix._simulate_fast)
    assert contraction.makespan <= 3e-6
    assert contraction.makespan < prefix._simulate_fast().makespan


def test_a_stack_is_its_attention_launches_and_one_contraction():
    """The shared-prefix call is three launches: each format's attention
    launch, then the suffix format's contraction.  The 16- to 71-token
    suffixes run unsplit, one state per (query row, KV head), which prices
    below Algorithm 1's 64-token split of the two longest.  The contraction
    reads each of the 12 × 32 (query row, query head) pairs' 8 prefix states
    and one suffix state once, and writes the row once.  Launch for launch,
    bit for bit, it is the oracle's."""
    stack = _kernel_batch_call(CASCADE, 16)
    prefix, suffix = stack.wrappers
    assert [col.size for col in prefix.stack_merges] == [0, 0]
    assert suffix._read_plan().num_partial_slots == 0
    own = np.bincount(suffix._read_plan().items[:, COL_GROUP], minlength=12) // 8
    assert set(own.tolist()) == {1}
    states = np.repeat(8 + own, 32)
    n_slots, pairs = suffix.stack_merges
    assert (int(pairs.sum()), int((n_slots * pairs).sum())) == (384, states.sum())

    args, kwargs = suffix._schedule_inputs(suffix._mapping)
    split = plan_schedule(*args, **kwargs)
    assert split.kv_chunk_size == 64 and split.num_partial_slots == 2 * 2 * 8
    assert suffix._priced(suffix._read_plan(), suffix._mapping)[0] < suffix._priced(
        split, suffix._mapping)[0]

    flops, bytes_read, bytes_written = merge_footprints(states, np.ones(384), 128)
    (_, report), launches = _stack_launches(lambda: stack.run(None, compute=False))
    assert [r.num_tiles for r in launches[:2]] == [
        w._read_plan().num_work_items for w in stack.wrappers
    ]
    contraction = launches[2]
    assert contraction.total_flops == flops.sum()
    assert contraction.total_bytes == (bytes_read + bytes_written).sum()
    # On H100 each launch dispatches while the one before it runs: the
    # suffix's behind the prefix's, which drains for longer than a dispatch,
    # the contraction behind the suffix's shorter drain.
    dispatch = H100_80G.kernel_dispatch_overhead
    assert launches[0].drain >= dispatch > launches[1].drain
    hidden = dispatch + launches[1].drain
    assert report.makespan == pytest.approx(sum(r.makespan for r in launches) - hidden, rel=RTOL)
    _assert_stack_matches(stack, bitwise=True)


def _planned(case, plan_cache=None):
    """A wrapper of each kind of plan ``run`` submits, planned on H100 with
    32/8 heads, d=128: Algorithm 1's split of a ragged decode batch, the
    unsplit plan of a lone 76-token prompt, the release step of twelve
    decode queries over a 1 008-token prefix, and the stacked suffix format
    of a cascade.  Returns ``(wrapper, plan again)``."""
    heads = HeadConfig(32, 8, 128)
    executor = PersistentKernelExecutor(H100_80G)
    executor.plan_cache = plan_cache
    if case == "stacked":
        mapping, _, clusters = make_shared_prefix_mapping(1, 12, 256, 100)
        stack = ComposableAttentionWrapper(
            VANILLA, heads, WorkspaceBuffer(1 << 27), H100_80G, executor=executor
        )
        formats = decompose_shared_prefix(mapping, clusters)
        stack.plan(formats)
        return stack.wrappers[-1], lambda: stack.plan(formats)
    kv, qo = {
        "split": ([2002, 412, 270, 201, 160, 133, 114, 100, 89, 80, 73, 67], [1] * 12),
        "unsplit": ([76], [76]),
        "release": ([1008], [12]),
    }[case]
    mapping, _ = make_paged_mapping(kv, qo)
    w = BatchAttentionWrapper(
        VANILLA, heads, WorkspaceBuffer(1 << 27), H100_80G, avg_qo_len=float(qo[0]),
        executor=executor,
    )
    w.plan(mapping)
    return w, lambda: w.plan(mapping)


@pytest.mark.parametrize("case", ["split", "unsplit", "release", "stacked"])
def test_run_reports_the_price_its_plan_won_with(case):
    """``run`` submits the streams ``_choose`` priced, one ``run_streams``
    call per launch, and reports bit for bit what re-pricing the plan from
    the workspace reports: with no fault plan, and with one whose straggler
    fires on every launch (the same schedule replayed for both), which
    leaves the kept streams as they were priced.  A plan-cache hit, which
    re-prices, reports what the miss did."""
    from repro.faults import FaultPlan
    from repro.serving import PlanCache

    w, _ = _planned(case)
    plan = w._read_plan()
    merges = w._merges(plan) if w.stack_merges is None else w.stack_merges
    launches = 1 + bool(merges[0].size)
    assert launches == (1 if case == "unsplit" else 2)
    if case == "release":  # the plan at L*, past Algorithm 1's early stop
        args, kwargs = w._schedule_inputs(w._mapping)
        assert plan.kv_chunk_size == 128 > plan_schedule(*args, **kwargs).kv_chunk_size
    (_, _, report), seen = _launches(w.executor, lambda: w.run(None, compute=False))
    assert len(seen) == launches and w._launches is not None
    assert report == w._simulate_fast()

    # Seed 4 stretches a busy CTA in every case.
    w.executor.fault_injector = faults = FaultPlan(4, schedules={"straggler": range(launches)})
    _, _, stretched = w.run(None, compute=False)
    faults.reset()
    assert stretched == w._simulate_fast() and stretched.makespan > report.makespan
    w.executor.fault_injector = None
    assert w.run(None, compute=False)[2] == report

    cached, replan = _planned(case, PlanCache())
    miss = cached.run(None, compute=False)[2]
    replan()  # the second sighting stores the plan
    replan()
    assert cached._launches is None  # a hit re-prices
    assert cached.run(None, compute=False)[2] == miss == report


@st.composite
def shared_prefix_stacks(draw, query_lens=(1,)):
    """``(format stack, head geometry, device)``: one to three clusters of
    two to six requests over a whole-page shared prefix, up to twelve
    requests of their own, as a prefix + suffix stack or a two-level one."""
    page = draw(st.sampled_from([1, 16]))
    pages, kv_lens, clusters, c = [], [], [], 0
    for _ in range(draw(st.integers(1, 3))):
        prefix = draw(st.integers(1, 40)) * 16
        shared = np.arange(c, c + prefix // page)
        c += shared.size
        members = []
        for _ in range(draw(st.integers(2, 6))):
            own = -(-draw(st.integers(1, 400)) // page)
            pages.append(np.concatenate([shared, np.arange(c, c + own)]))
            c += own
            kv_lens.append(prefix + own * page)
            members.append(len(kv_lens) - 1)
        clusters.append(PrefixCluster(tuple(members), prefix))
    for _ in range(draw(st.integers(0, 12))):
        own = -(-draw(st.integers(1, 1500)) // page)
        pages.append(np.arange(c, c + own))
        c += own
        kv_lens.append(own * page)
    qo = [min(draw(st.sampled_from(query_lens)), n) for n in kv_lens]
    mapping = AttentionMapping(
        np.concatenate([[0], np.cumsum(qo)]).astype(np.int64),
        kv_from_page_table(pages, kv_lens, page, c), causal=True,
    )
    inner = [cl for cl in clusters if cl.prefix_len > 16]
    if inner and draw(st.booleans()):  # every cluster shares its first page, then the rest
        outer = [PrefixCluster(cl.requests, 16) for cl in inner]
        formats = decompose_multi_level(mapping, [outer, inner])
    else:
        formats = decompose_shared_prefix(mapping, clusters)
    heads = draw(st.sampled_from([HeadConfig(4, 2, 16), HeadConfig(32, 8, 128)]))
    return formats, heads, draw(st.sampled_from([A100_40G, H100_80G]))


@sweep(8, 30)
@given(shared_prefix_stacks(query_lens=(1, 1, 3, 17)))
def test_random_stacks_price_like_the_oracle(drawn):
    formats, heads, gpu = drawn
    stack = ComposableAttentionWrapper(VANILLA, heads, WorkspaceBuffer(1 << 27), gpu)
    stack.plan(formats)
    _assert_stack_matches(stack)


@FIXED
@given(
    groups=GROUPS,
    heads=st.sampled_from([HeadConfig(4, 2, 8), HeadConfig(32, 8, 128)]),
    gpu=st.sampled_from([A100_40G, H100_80G]),
)
def test_a_one_format_stack_prices_like_a_batch_wrapper(groups, heads, gpu):
    qo, kv = (np.array(col) for col in zip(*groups))
    mapping, _ = make_paged_mapping(kv, qo)
    stack = ComposableAttentionWrapper(VANILLA, heads, WorkspaceBuffer(1 << 26), gpu)
    stack.plan(mapping)
    w = BatchAttentionWrapper(
        VANILLA, heads, WorkspaceBuffer(1 << 26), gpu,
        avg_qo_len=float(np.mean(qo)) if qo.size else 1.0,
    )
    w.plan(mapping)
    assert stack.wrappers[0].stack_merges is None
    (_, report), launches = _stack_launches(lambda: stack.run(None, compute=False))
    _, _, plain = w.run(None, compute=False)
    assert report == plain
    assert len(launches) == 1 + bool(w._read_plan().merge_meta.size)


def _one_state_per_pair(mapping, sched_heads):
    """A work-item table writing one state per (row, scheduler head) the
    mapping covers: what a format hands a later ``⊕`` once it has merged
    its own states."""
    group = np.repeat(np.arange(mapping.num_groups), sched_heads)
    items = np.zeros((group.size, ITEM_FIELDS), dtype=np.int64)
    items[:, COL_GROUP] = group
    items[:, COL_QROWS] = mapping.qo_lens[group]
    items[:, COL_KVHEAD] = np.tile(np.arange(sched_heads), mapping.num_groups)
    return items


def _priced_format_by_format(stack):
    """The stack's formats priced standalone, each with a contraction launch
    of its own: its attention launch, then a contraction of its own states,
    the last format's also folding each earlier format's merged state."""
    total = 0.0
    for w in stack.wrappers:
        formats = [(w._read_plan().items, w._mapping)]
        if w is stack.wrappers[-1]:
            formats += [
                (_one_state_per_pair(v._mapping, v._sched_heads), v._mapping)
                for v in stack.wrappers[:-1]
            ]
        own = stack_merge_entries(formats, w._sched_heads, w.heads.group_size)
        with mock.patch.object(w, "stack_merges", own):
            total += w._simulate_fast().makespan
    return total


@sweep(10, 40)
@given(shared_prefix_stacks())
def test_one_contraction_never_costs_more_than_one_per_format(drawn):
    """Over random decode stacks, folding every format's states in one
    launch is never priced above contracting format by format."""
    formats, heads, gpu = drawn
    stack = ComposableAttentionWrapper(VANILLA, heads, WorkspaceBuffer(1 << 27), gpu)
    stack.plan(formats)
    _, report = stack.run(None, compute=False)
    assert report.makespan <= _priced_format_by_format(stack)

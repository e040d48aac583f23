"""The plan-array cost model must reproduce the per-object one.

``tests/reference_costs.py`` holds the cost model as it was while the compute
path priced a launch one ``TileCost`` at a time and drained the objects through
``run_persistent``.  ``repro.core.simulate`` prices the same plan from its
arrays, for ``run(compute=True)`` as for ``run(compute=False)``.  Across the
strategy every launch's ``makespan``, ``per_cta_time``, ``total_flops`` and
``total_bytes`` and every field of the ``TileCost`` lists ``run_mapping`` still
returns agree within 1e-12 relative; on the 18 plans of the benchmark's
``kernel_batch`` workload at seed 0 ``makespan`` and ``per_cta_time`` agree
bit for bit, which is what holds its ``sim_*`` cells still.  (``total_bytes``
is a pairwise ``ndarray.sum`` there and a sequential Python sum in the
reference: the last ulp may differ on a prefill plan.)  The contraction launch
is also priced over random merge tables, where it must move exactly its
entries' footprints, hold at most ⌈P/#CTA⌉ (query row, query head) pairs on a
CTA and equal the pair-by-pair deal of ``distribute_merges`` bit for bit.  A
composable stack's cross-format ⊕ is part of its last format's contraction
launch, in the oracle as in the library.  Hypothesis runs derandomized, so
tier-1 sees a fixed sample.
"""

import dataclasses
from types import SimpleNamespace
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.wrapper as wrapper_module
from conftest import benchmark_workloads, make_paged_mapping
from reference_costs import (
    block_cost,
    contraction_cost,
    distribute_merges,
    reference_report,
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
from repro.core.scheduler import MERGE_QROWS
from repro.core.simulate import merge_cost_arrays, merge_footprints, simulate_queues
from repro.gpu.executor import PersistentKernelExecutor
from repro.sparse import PrefixCluster
from repro.utils.dtypes import StorageDType

FIXED = settings(max_examples=60, deadline=None, derandomize=True)
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

    def spy(*args):
        seen.append(real(*args))
        return seen[-1]

    executor.run_streams = spy
    try:
        return price(), seen
    finally:
        del executor.run_streams


def _assert_launches_match(w, bitwise=False):
    """Price ``w``'s planned launch both ways, launch for launch."""
    slow, slow_launches = _launches(w.executor, lambda: reference_report(w, w._read_plan()))
    fast, fast_launches = _launches(w.executor, w._simulate_fast)
    assert len(fast_launches) == len(slow_launches)
    for new, old in zip(fast_launches + [fast], slow_launches + [slow]):
        assert (new.num_tiles, new.num_ctas) == (old.num_tiles, old.num_ctas)
        if bitwise:
            assert new.makespan == old.makespan
            assert new.per_cta_time == old.per_cta_time
            assert new.total_flops == old.total_flops
        for field in ("makespan", "per_cta_time", "total_flops", "total_bytes"):
            np.testing.assert_allclose(
                getattr(new, field), getattr(old, field), rtol=RTOL, atol=0.0, err_msg=field
            )


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
    offsets=st.sampled_from(["trailing", "mid_kv", "after_prefix"]),
    sparse_gather=st.booleans(),
    page_size=st.sampled_from([1, 4, 16]),
    kv_dtype=st.sampled_from([StorageDType.FP16, StorageDType.FP8_E4M3]),
    split_kv=st.booleans(),
    q_tile=st.sampled_from([1, 16, 64, 128]),
    kv_tile=st.sampled_from([16, 64]),
    gpu=st.sampled_from([A100_40G, H100_80G]),
)
def test_plan_arrays_price_like_the_per_object_model(
    groups, geometry, fuse, causal, offsets, sparse_gather, page_size, kv_dtype,
    split_kv, q_tile, kv_tile, gpu,
):
    qo, kv = (np.array(col) for col in zip(*groups))
    mapping, slots = make_paged_mapping(kv, qo, page_size, causal)
    if offsets == "mid_kv":  # a chunked-prefill step: queries inside the KV
        mapping = dataclasses.replace(mapping, q_pos_offset=np.maximum(kv - qo - 37, 0))
    elif offsets == "after_prefix":  # a cascade suffix: KV starts past position 0
        mapping = dataclasses.replace(
            mapping, q_pos_offset=512 + kv - qo, kv_pos_offset=np.full(len(kv), 512)
        )
    heads = HeadConfig(*geometry)
    w = BatchAttentionWrapper(
        VANILLA, heads, WorkspaceBuffer(1 << 26), gpu, kv_dtype=kv_dtype,
        fuse_head_groups=fuse, sparse_gather=sparse_gather, split_kv=split_kv,
        q_tile=q_tile, kv_tile=kv_tile,
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


def _kernel_batch_wrappers(case, page):
    """The planned wrappers of one ``kernel_batch`` call, built as
    ``benchmarks/e2e/kernel_batch.py`` builds them (head geometry, device,
    page size, shared prefix by ``fork_seq``) over a pool with no tensor data."""
    planned = _kernel_batch_call(case, page)
    return planned.wrappers if isinstance(planned, ComposableAttentionWrapper) else [planned]


def _kernel_batch_call(case, page):
    """The planned wrapper of one ``kernel_batch`` call: the composable
    stack of a shared-prefix case, else one batch wrapper."""
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
        for w in _kernel_batch_wrappers(case, workloads.KERNEL_PAGE):
            _assert_launches_match(w, bitwise=True)


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
    return costs, simulate_queues(executor, costs, np.arange(costs.serial.size), num_ctas)


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


def test_shared_prefix_contraction_is_spread_over_the_grid():
    """12 decode queries over a 1 008-token shared prefix on H100, 32/8 heads,
    d=128: the prefix format is one group of 12 queries × 4 fused GQA rows,
    its KV split into 16 slots per KV head.  One CTA per merge entry put its
    contraction on 8 of 264 CTAs, at 6.52 µs longer than its 4.15 µs
    attention launch."""
    case = SimpleNamespace(
        prefix_len=1008, kv_lens=[1024 + 5 * i for i in range(12)], qo_lens=[1] * 12
    )
    prefix = _kernel_batch_wrappers(case, 16)[0]
    assert set(np.diff(prefix._read_plan().merge_indptr)) == {16}
    _, (attention, contraction) = _launches(prefix.executor, prefix._simulate_fast)
    assert contraction.makespan <= 3e-6
    assert contraction.makespan < attention.makespan


def test_cross_format_merge_rides_in_the_last_contraction_launch():
    """The same shared-prefix call: the stack's ⊕ is no launch of its own.
    The suffix format's contraction also folds the prefix state into each
    of its 12 × 32 covered (query row, query head) pairs, 2 states per pair,
    after its own split tiles, and the stack's report is the four launches
    of its two formats."""
    case = SimpleNamespace(
        prefix_len=1008, kv_lens=[1024 + 5 * i for i in range(12)], qo_lens=[1] * 12
    )
    stack = _kernel_batch_call(case, 16)
    prefix, suffix = stack.wrappers
    assert prefix.stack_merges is None
    assert [col.tolist() for col in suffix.stack_merges] == [[2], [12 * 32]]

    plan = suffix._read_plan()
    own_slots = np.diff(plan.merge_indptr)
    own_rows = plan.merge_meta[:, MERGE_QROWS] * 4
    assert own_slots.size  # the two longest suffixes split
    flops, bytes_read, bytes_written = merge_footprints(
        np.append(own_slots * own_rows, 2 * 384), np.append(own_rows, 384), 128
    )
    _, (_, contraction) = _launches(suffix.executor, suffix._simulate_fast)
    assert contraction.total_flops == flops.sum()
    assert contraction.total_bytes == (bytes_read + bytes_written).sum()

    _, report = stack.run(None, compute=False)
    assert report == prefix._simulate_fast().combine(suffix._simulate_fast())

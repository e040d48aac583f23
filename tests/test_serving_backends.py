"""Unit tests for the serving attention backends."""

import pytest

from conftest import CountingPlanCache, make_paged_mapping, make_shared_prefix_mapping
from repro.core import HeadConfig
from repro.gpu import A100_40G, H100_80G
from repro.serving import FlashInferBackend, TritonBackend, TRTLLMBackend

HEADS = HeadConfig(32, 8, 128)


def stacks(be):  # the cost-only (vanilla, fp16) stacks by format count
    return {n: cw for (_, _, n), cw in be._stacks.items()}


class TestFlashInferBackend:
    def test_attention_time_monotone_in_kv(self):
        be = FlashInferBackend(HEADS, H100_80G)
        short, _ = make_paged_mapping([256] * 8, [1] * 8, 16)
        long, _ = make_paged_mapping([4096] * 8, [1] * 8, 16)
        assert be.attention_time(long) > be.attention_time(short)

    def test_one_wrapper_prices_decode_and_prefill(self):
        """No phase key: a decode batch and a prefill run on one wrapper,
        compiled at the largest query tile, each item on its own tile — a
        decode row of a group of 4 on the CUDA cores."""
        be = FlashInferBackend(HEADS, H100_80G)
        d, _ = make_paged_mapping([256] * 4, [1] * 4, 16)
        p, _ = make_paged_mapping([256] * 4, [256] * 4, 16)
        be.attention_time(d)
        (w,) = stacks(be)[1].wrappers
        be.attention_time(p)
        assert list(stacks(be)) == [1] and stacks(be)[1].wrappers == [w]
        assert w.q_tile == 128 and w._tile_set == (1, 64, 128)

    def test_composable_wrapper_cached_per_format_count(self):
        from repro.sparse import ComposableFormat

        be = FlashInferBackend(HEADS, H100_80G)
        m1, _ = make_paged_mapping([256] * 4, [1] * 4, 16)
        be.attention_time(ComposableFormat.single(m1))
        cw = stacks(be)[1]
        m2, _ = make_paged_mapping([512] * 4, [1] * 4, 16)
        be.attention_time(m2)  # a dense step is a one-format stack
        assert stacks(be)[1] is cw

    def test_each_format_count_gets_its_own_stack(self):
        """Listing 1's ``select_graph``: one wrapper stack (one CUDAGraph) per
        task configuration, selected by format count alone."""
        from repro.sparse import ComposableFormat, decompose_shared_prefix

        be = FlashInferBackend(HEADS, H100_80G)
        mapping, _, clusters = make_shared_prefix_mapping(2, 3, 64, 48)
        two = decompose_shared_prefix(mapping, clusters)
        one = ComposableFormat.single(mapping)
        for formats in (two, one, two):
            be.attention_time(formats)
        by_count = stacks(be)
        assert sorted(by_count) == [1, 2]
        assert [len(by_count[k].wrappers) for k in sorted(by_count)] == [1, 2]

    def test_a_stack_prices_the_same_whatever_was_planned_before(self):
        """A stack's tiles do not depend on the first plan under its format
        count: a prefill stack prices the same on a backend that first
        planned a one-row stack of the same shape as on a fresh one.  (Tiles
        fixed from the first plan's mean query length priced the 48-row
        stack at 44.56 µs after the one-row stack, 43.26 µs alone; 43.14 µs
        once each causal query tile was planned over the KV it sees; 41.74
        µs with 64-row tiles priced as candidates, one-row items on the
        CUDA cores and the contraction writing fp16 rows.)"""
        from repro.sparse import decompose_shared_prefix

        def stack(rows):
            mapping, _, clusters = make_shared_prefix_mapping(2, 6, 1008, 240, rows)
            return decompose_shared_prefix(mapping, clusters)

        alone = FlashInferBackend(HEADS, H100_80G).attention_time(stack(48))
        be = FlashInferBackend(HEADS, H100_80G)
        be.attention_time(stack(1))
        assert be.attention_time(stack(48)) == alone
        assert alone * 1e6 == pytest.approx(41.74, abs=5e-3)

    def test_traced_records_of_a_cascade_step_add_up(self):
        """One record per format of a cascade step, as it ran in the stack.
        They sum to the step's makespan, flops and bytes: on H100 a format's
        record counts only the dispatch its first launch did not hide behind
        the format before it.  Every format but the last records its
        attention launch alone; the last also carries the stack's one
        contraction, and each CTA's busy time over both launches."""
        from repro.sparse import decompose_shared_prefix

        be = FlashInferBackend(HEADS, H100_80G)
        be.collect_kernel_reports = True
        mapping, _, clusters = make_shared_prefix_mapping(2, 6, 1008, 40)
        makespan = be.attention_time(decompose_shared_prefix(mapping, clusters))
        records = be.pop_kernel_reports()
        cw = stacks(be)[2]
        assert [name for name, _ in records] == [w.name for w in cw.wrappers]
        reports = [report for _, report in records]
        assert sum(r.makespan for r in reports) == makespan
        assert sum(r.total_flops for r in reports) == cw.last_report.total_flops
        assert sum(r.total_bytes for r in reports) == cw.last_report.total_bytes
        assert sum(r.makespan for r in reports) < sum(w.last_report.makespan for w in cw.wrappers)
        for w, r in zip(cw.wrappers, reports):
            items = w._read_plan().num_work_items
            assert len(r.per_cta_time) == w.num_ctas
            if w is cw.wrappers[-1]:
                assert r.num_tiles > items  # attention and contraction
            else:
                assert r.num_tiles == items


class CountingInjector:
    """Duck-typed fault plan that never fires and counts its consultations."""

    straggler_factor = 1.0

    def __init__(self):
        self.consulted = 0

    def fire(self, site):
        self.consulted += 1
        return False


class TestPerRunStateAttach:
    """State attached to a fresh backend — before any wrapper exists, as
    ``ServingEngine`` does — must reach the cascade stack built later."""

    @staticmethod
    def cascade_formats():
        from repro.sparse import decompose_shared_prefix

        mapping, _, clusters = make_shared_prefix_mapping(2, 3, 64, 48)
        return decompose_shared_prefix(mapping, clusters)

    def test_injector_reaches_composable_stack_on_first_step(self):
        be = FlashInferBackend(HEADS, H100_80G)
        inj = CountingInjector()
        be.set_fault_injector(inj)
        formats = self.cascade_formats()
        be.attention_time(formats)
        first = inj.consulted
        assert first > 0
        be.attention_time(formats)
        assert inj.consulted == 2 * first

    def test_plan_cache_reaches_composable_stack_on_first_step(self):
        be = FlashInferBackend(HEADS, H100_80G)
        cache = CountingPlanCache()
        be.set_plan_cache(cache)
        formats = self.cascade_formats()
        be.attention_time(formats)
        assert (cache.hits, cache.misses) == (0, len(formats))
        be.attention_time(formats)  # the second sighting stores each plan
        assert (cache.hits, cache.misses) == (0, 2 * len(formats))
        be.attention_time(formats)
        assert (cache.hits, cache.misses) == (len(formats), 2 * len(formats))

    def test_detach_reaches_existing_wrappers(self):
        be = TRTLLMBackend(HEADS, H100_80G)
        inj = CountingInjector()
        m, _ = make_paged_mapping([256] * 4, [1] * 4, 16)
        be.set_fault_injector(inj)
        be.attention_time(m)
        seen = inj.consulted
        assert seen > 0
        be.set_fault_injector(None)
        be.attention_time(m)
        assert inj.consulted == seen


class TestBackendOrdering:
    def test_triton_attention_slower(self):
        mapping, _ = make_paged_mapping([2048] * 16, [1] * 16, 16)
        fi = FlashInferBackend(HEADS, A100_40G).attention_time(mapping)
        tr = TritonBackend(HEADS, A100_40G).attention_time(mapping)
        assert tr > 1.3 * fi

    def test_trtllm_attention_matches_flashinfer(self):
        mapping, _ = make_paged_mapping([2048] * 16, [1] * 16, 16)
        fi = FlashInferBackend(HEADS, A100_40G).attention_time(mapping)
        trt = TRTLLMBackend(HEADS, A100_40G).attention_time(mapping)
        assert trt == pytest.approx(fi, rel=0.05)

    def test_trtllm_better_stack_constants(self):
        fi = FlashInferBackend(HEADS, A100_40G).characteristics
        trt = TRTLLMBackend(HEADS, A100_40G).characteristics
        assert trt.gemm_efficiency > fi.gemm_efficiency
        assert trt.allreduce_efficiency > fi.allreduce_efficiency


class TestTritonReadsItsPhaseFromTheMapping:
    """The Triton arm keeps the library's fixed tiles: a mapping whose every
    group has one query row runs the decode kernel, any other the prefill
    kernel, priced exactly as when the caller passed the phase (the values
    are those calls' prices)."""

    ONE_ROW = ([2048] * 16, [1] * 16)
    MIXED = ([700] * 6 + [400], [1] * 6 + [200])

    @pytest.mark.parametrize("gpu, one_row_s, mixed_s", [
        (A100_40G, 0.00028156014341825376, 4.278769230769232e-05),
        (H100_80G, 9.065398568019094e-05, 1.8395195146612736e-05),
    ], ids=["A100", "H100"])
    def test_one_row_runs_decode_and_mixed_runs_prefill(self, gpu, one_row_s, mixed_s):
        be = TritonBackend(HEADS, gpu)
        one_row, _ = make_paged_mapping(*self.ONE_ROW, 16)
        mixed, _ = make_paged_mapping(*self.MIXED, 16)
        assert be.attention_time(one_row) == one_row_s
        assert be.attention_time(mixed) == mixed_s
        assert be._fa.run(one_row, decode=True, sparse_gather=True)[1].makespan == one_row_s
        assert be._fa.run(mixed, decode=False, sparse_gather=True)[1].makespan == mixed_s

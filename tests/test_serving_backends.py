"""Unit tests for the serving attention backends."""

import pytest

from conftest import CountingPlanCache, make_paged_mapping, make_shared_prefix_mapping
from repro.core import HeadConfig
from repro.gpu import A100_40G, H100_80G
from repro.serving import FlashInferBackend, TritonBackend, TRTLLMBackend

HEADS = HeadConfig(32, 8, 128)


class TestFlashInferBackend:
    def test_attention_time_monotone_in_kv(self):
        be = FlashInferBackend(HEADS, H100_80G)
        short, _ = make_paged_mapping([256] * 8, [1] * 8, 16)
        long, _ = make_paged_mapping([4096] * 8, [1] * 8, 16)
        assert be.attention_time(long, decode=True) > be.attention_time(short, decode=True)

    def test_wrappers_cached_per_phase(self):
        be = FlashInferBackend(HEADS, H100_80G)
        m, _ = make_paged_mapping([256] * 4, [1] * 4, 16)
        be.attention_time(m, decode=True)
        w1 = be._wrappers["decode"]
        be.attention_time(m, decode=True)
        assert be._wrappers["decode"] is w1

    def test_prefill_and_decode_use_distinct_tiles(self):
        be = FlashInferBackend(HEADS, H100_80G)
        d, _ = make_paged_mapping([256] * 4, [1] * 4, 16)
        p, _ = make_paged_mapping([256] * 4, [256] * 4, 16)
        be.attention_time(d, decode=True)
        be.attention_time(p, decode=False)
        assert be._wrappers["decode"].q_tile < be._wrappers["prefill"].q_tile

    def test_composable_wrapper_cached_per_format_count(self):
        from repro.sparse import ComposableFormat

        be = FlashInferBackend(HEADS, H100_80G)
        m1, _ = make_paged_mapping([256] * 4, [1] * 4, 16)
        be.attention_time(ComposableFormat.single(m1), decode=True)
        cw = be._composable_wrappers["decode_1"]
        m2, _ = make_paged_mapping([512] * 4, [1] * 4, 16)
        be.attention_time(ComposableFormat.single(m2), decode=True)
        assert be._composable_wrappers["decode_1"] is cw

    def test_each_phase_and_format_count_gets_its_own_stack(self):
        """Listing 1's ``select_graph``: one wrapper stack (one CUDAGraph) per
        task configuration, selected by phase and format count."""
        from repro.sparse import ComposableFormat, decompose_shared_prefix

        be = FlashInferBackend(HEADS, H100_80G)
        mapping, _, clusters = make_shared_prefix_mapping(2, 3, 64, 48)
        two = decompose_shared_prefix(mapping, clusters)
        one = ComposableFormat.single(mapping)
        for formats, decode in ((two, True), (one, True), (two, False), (two, True)):
            be.attention_time(formats, decode=decode)
        stacks = be._composable_wrappers
        assert sorted(stacks) == ["decode_1", "decode_2", "prefill_2"]
        assert len({id(cw) for cw in stacks.values()}) == 3
        assert [len(stacks[k].wrappers) for k in sorted(stacks)] == [1, 2, 2]

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
        makespan = be.attention_time(decompose_shared_prefix(mapping, clusters), decode=True)
        records = be.pop_kernel_reports()
        cw = be._composable_wrappers["decode_2"]
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
        be.attention_time(formats, decode=True)
        first = inj.consulted
        assert first > 0
        be.attention_time(formats, decode=True)
        assert inj.consulted == 2 * first

    def test_plan_cache_reaches_composable_stack_on_first_step(self):
        be = FlashInferBackend(HEADS, H100_80G)
        cache = CountingPlanCache()
        be.set_plan_cache(cache)
        formats = self.cascade_formats()
        be.attention_time(formats, decode=True)
        assert (cache.hits, cache.misses) == (0, len(formats))
        be.attention_time(formats, decode=True)
        assert (cache.hits, cache.misses) == (len(formats), len(formats))

    def test_detach_reaches_existing_wrappers(self):
        be = TRTLLMBackend(HEADS, H100_80G)
        inj = CountingInjector()
        m, _ = make_paged_mapping([256] * 4, [1] * 4, 16)
        be.set_fault_injector(inj)
        be.attention_time(m, decode=True)
        seen = inj.consulted
        assert seen > 0
        be.set_fault_injector(None)
        be.attention_time(m, decode=True)
        assert inj.consulted == seen


class TestBackendOrdering:
    def test_triton_attention_slower(self):
        mapping, _ = make_paged_mapping([2048] * 16, [1] * 16, 16)
        fi = FlashInferBackend(HEADS, A100_40G).attention_time(mapping, decode=True)
        tr = TritonBackend(HEADS, A100_40G).attention_time(mapping, decode=True)
        assert tr > 1.3 * fi

    def test_trtllm_attention_matches_flashinfer(self):
        mapping, _ = make_paged_mapping([2048] * 16, [1] * 16, 16)
        fi = FlashInferBackend(HEADS, A100_40G).attention_time(mapping, decode=True)
        trt = TRTLLMBackend(HEADS, A100_40G).attention_time(mapping, decode=True)
        assert trt == pytest.approx(fi, rel=0.05)

    def test_trtllm_better_stack_constants(self):
        fi = FlashInferBackend(HEADS, A100_40G).characteristics
        trt = TRTLLMBackend(HEADS, A100_40G).characteristics
        assert trt.gemm_efficiency > fi.gemm_efficiency
        assert trt.allreduce_efficiency > fi.allreduce_efficiency

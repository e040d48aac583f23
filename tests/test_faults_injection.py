"""Tests for fault injection and detection hooks (executor, wrapper, cache)."""

import numpy as np
import pytest

from repro.core import HeadConfig, VANILLA
from repro.core.wrapper import BatchAttentionWrapper
from repro.faults import (
    FaultPlan,
    KernelFault,
    KVCorruptionError,
    NumericalFault,
    OutputGuard,
    TransientAllocFault,
)
from repro.gpu import A100_40G, WorkspaceBuffer
from repro.kvcache import OutOfPagesError, PagedKVCache
from repro.sparse.layout import AttentionMapping

HEADS = HeadConfig(4, 2, 32)


def build_mapping(rng, kv_lens=(40, 111, 70), page_size=16):
    cache = PagedKVCache(256, page_size, 2, 32)
    seqs = []
    for n in kv_lens:
        sid = cache.new_seq()
        cache.append(sid, rng.standard_normal((n, 2, 32)),
                     rng.standard_normal((n, 2, 32)))
        seqs.append(sid)
    mapping = AttentionMapping(
        np.arange(len(seqs) + 1), cache.layout(seqs), causal=True
    )
    return cache, mapping


def decode_wrapper():
    return BatchAttentionWrapper(
        VANILLA, HEADS, WorkspaceBuffer(1 << 26), A100_40G, avg_qo_len=1
    )


class TestExecutorInjection:
    def test_scheduled_kernel_fault_raises(self, rng):
        _, mapping = build_mapping(rng)
        w = decode_wrapper()
        w.plan(mapping)
        w.executor.fault_injector = FaultPlan(schedules={"kernel": [0]})
        with pytest.raises(KernelFault):
            w.run(None, compute=False)

    def test_retry_after_transient_fault_succeeds(self, rng):
        _, mapping = build_mapping(rng)
        w = decode_wrapper()
        w.plan(mapping)
        w.executor.fault_injector = FaultPlan(schedules={"kernel": [0]})
        with pytest.raises(KernelFault):
            w.run(None, compute=False)
        # The fault was transient: the very next launch goes through.
        _, _, report = w.run(None, compute=False)
        assert report.makespan > 0

    def test_straggler_inflates_makespan(self):
        # A uniformly loaded grid, so whichever CTA the plan picks as the
        # straggler sits on the critical path.
        from repro.gpu.cost import TileCost
        from repro.gpu.executor import PersistentKernelExecutor

        queues = [
            [TileCost(flops=1e9, padded_flops=1e9, bytes_read=1e6,
                      uses_tensor_cores=True)]
            for _ in range(8)
        ]
        ex = PersistentKernelExecutor(A100_40G)
        base = ex.run_persistent(queues)
        ex.fault_injector = FaultPlan(
            schedules={"straggler": [0]}, straggler_factor=16.0
        )
        slow = ex.run_persistent(queues)
        assert slow.makespan > base.makespan

    def test_disabled_plan_changes_nothing(self, rng):
        _, mapping = build_mapping(rng)
        clean = decode_wrapper()
        clean.plan(mapping)
        _, _, base = clean.run(None, compute=False)

        attached = decode_wrapper()
        attached.plan(mapping)
        attached.executor.fault_injector = FaultPlan(seed=42)  # all rates 0
        _, _, report = attached.run(None, compute=False)
        assert report.makespan == base.makespan


class TestNumericGuard:
    def test_injected_nan_caught_by_output_guard(self, rng):
        cache, mapping = build_mapping(rng)
        w = decode_wrapper()
        w.plan(mapping)
        w.executor.fault_injector = FaultPlan(schedules={"numeric": [0]})
        w.output_guard = OutputGuard()
        q = rng.standard_normal((3, 4, 32))
        with pytest.raises(NumericalFault):
            w.run(q, cache.k_pool, cache.v_pool)

    def test_no_guard_lets_nan_through(self, rng):
        cache, mapping = build_mapping(rng)
        w = decode_wrapper()
        w.plan(mapping)
        w.executor.fault_injector = FaultPlan(schedules={"numeric": [0]})
        q = rng.standard_normal((3, 4, 32))
        out, _, _ = w.run(q, cache.k_pool, cache.v_pool)
        assert not np.isfinite(out).all()

    def test_guard_passes_clean_output(self, rng):
        cache, mapping = build_mapping(rng)
        w = decode_wrapper()
        w.plan(mapping)
        w.output_guard = OutputGuard()
        q = rng.standard_normal((3, 4, 32))
        out, _, _ = w.run(q, cache.k_pool, cache.v_pool)
        assert np.isfinite(out).all()

    def test_guard_unit(self):
        guard = OutputGuard()
        guard.check(np.ones((4, 2, 8)), "test")  # finite: no raise
        bad = np.ones((4, 2, 8))
        bad[2] = np.inf
        with pytest.raises(NumericalFault, match="test"):
            guard.check(bad, "test")
        with pytest.raises(ValueError):
            OutputGuard(sample_stride=0)


class TestCacheIntegrity:
    def make(self, rng, checksums=True, num_pages=16, page_size=4):
        cache = PagedKVCache(num_pages, page_size, 1, 8, checksums=checksums)
        sid = cache.new_seq()
        cache.append(sid, rng.standard_normal((10, 1, 8)),
                     rng.standard_normal((10, 1, 8)))
        return cache, sid

    def test_corruption_detected(self, rng):
        cache, sid = self.make(rng)
        page = cache.seq_pages(sid)[1]
        assert not cache.seq_is_corrupt(sid)
        cache.corrupt_page(page)
        assert cache.seq_is_corrupt(sid)
        assert cache.find_corrupted() == [page]
        with pytest.raises(KVCorruptionError) as exc:
            cache.gather(sid)
        assert page in exc.value.pages
        with pytest.raises(KVCorruptionError):
            cache.layout([sid])

    def test_checksums_off_skips_export_verification(self, rng):
        cache, sid = self.make(rng, checksums=False)
        cache.corrupt_page(cache.seq_pages(sid)[0])
        cache.gather(sid)  # no raise: export verification gated off
        # ... but the bookkeeping still sees it.
        assert cache.seq_is_corrupt(sid)

    def test_write_restamps_checksum(self, rng):
        cache, sid = self.make(rng)
        page = cache.seq_pages(sid)[-1]
        cache.corrupt_page(page)
        # Appending writes through the partial last page, re-stamping it.
        cache.append(sid, rng.standard_normal((1, 1, 8)),
                     rng.standard_normal((1, 1, 8)))
        assert page not in cache.find_corrupted()

    def test_realloc_sanitizes_freed_corrupted_page(self, rng):
        cache, sid = self.make(rng, num_pages=3)
        page = cache.seq_pages(sid)[0]
        cache.corrupt_page(page)
        cache.free_seq(sid)
        # Exhaust the pool so the corrupted page must be reused.
        sid2 = cache.new_seq()
        cache.append(sid2, rng.standard_normal((12, 1, 8)),
                     rng.standard_normal((12, 1, 8)))
        assert page in cache.seq_pages(sid2)
        assert cache.find_corrupted() == []
        k, _ = cache.gather(sid2)
        assert np.isfinite(k).all()

    def test_truncate_releases_pages(self, rng):
        cache, sid = self.make(rng)  # 10 tokens over 3 pages of 4
        free_before = cache.num_free_pages
        cache.truncate(sid, 5)
        assert cache.seq_len(sid) == 5
        assert len(cache.seq_pages(sid)) == 2
        assert cache.num_free_pages == free_before + 1
        cache.truncate(sid, 0)
        assert cache.seq_pages(sid) == []

    def test_exhaustion_message_carries_pool_state(self, rng):
        cache = PagedKVCache(2, 4, 1, 8)
        sid = cache.new_seq()
        with pytest.raises(OutOfPagesError, match="free / 2 total"):
            cache.append(sid, np.zeros((12, 1, 8)), np.zeros((12, 1, 8)))


class TestAllocFault:
    def test_scheduled_alloc_fault_is_transient(self, rng):
        cache = PagedKVCache(16, 4, 1, 8)
        cache.fault_injector = FaultPlan(schedules={"alloc": [0]})
        sid = cache.new_seq()
        k = rng.standard_normal((3, 1, 8))
        with pytest.raises(TransientAllocFault):
            cache.append(sid, k, k)
        # Subclass of OutOfPagesError, so legacy handlers still catch it.
        assert issubclass(TransientAllocFault, OutOfPagesError)
        # Next attempt (call index 1) succeeds.
        cache.append(sid, k, k)
        assert cache.seq_len(sid) == 3

    def test_no_injection_without_plan(self, rng):
        cache = PagedKVCache(16, 4, 1, 8)
        sid = cache.new_seq()
        k = rng.standard_normal((9, 1, 8))
        cache.append(sid, k, k)
        assert cache.seq_len(sid) == 9


class TestDegradeController:
    """State-machine boundaries of the PRIMARY ↔ DEGRADED controller."""

    def _controller(self):
        from repro.faults.recover import DegradeController

        return DegradeController(anneal_after=2)

    def test_degrade_and_anneal_cycle(self):
        dc = self._controller()
        assert not dc.on_kernel_fault()
        assert not dc.on_kernel_fault()
        assert dc.on_kernel_fault()  # third strike trips it
        assert dc.degraded
        assert not dc.on_clean_step()
        assert dc.on_clean_step()  # second clean step anneals back
        assert not dc.degraded

    def test_re_degrades_after_completed_anneal(self):
        """Annealing must fully reset the strike counter: a fresh burst of
        faults after recovery re-trips degradation at the same threshold,
        not earlier and not never."""
        dc = self._controller()
        for _ in range(3):
            dc.on_kernel_fault()
        for _ in range(2):
            dc.on_clean_step()
        assert not dc.degraded
        # One stray fault is below threshold again — no hair trigger.
        assert not dc.on_kernel_fault()
        assert not dc.degraded
        # A clean step while healthy clears the stray strike entirely.
        dc.on_clean_step()
        assert not dc.on_kernel_fault()
        assert not dc.on_kernel_fault()
        assert dc.on_kernel_fault()  # full threshold needed once more
        assert dc.degraded

    def test_force_degrade_is_idempotent_while_degraded(self):
        dc = self._controller()
        assert dc.force_degrade()
        assert not dc.force_degrade()

    def test_faulty_steps_do_not_advance_the_anneal_streak(self):
        """While degraded, only clean steps count toward annealing; a step
        with a fault neither advances nor rewinds the streak."""
        dc = self._controller()
        for _ in range(3):
            dc.on_kernel_fault()
        dc.on_clean_step()
        dc.on_kernel_fault()  # faulty step: streak holds at 1
        assert dc.degraded
        assert dc.on_clean_step()  # second clean step completes the anneal
        assert not dc.degraded

    def test_state_round_trips_through_export(self):
        from repro.faults.recover import DegradeController

        dc = self._controller()
        for _ in range(3):
            dc.on_kernel_fault()
        dc.on_clean_step()
        other = DegradeController(anneal_after=2)
        other.import_state(dc.export_state())
        # The clone continues the exact trajectory: one more clean step
        # completes the anneal on both.
        assert dc.on_clean_step() and other.on_clean_step()
        assert other.export_state() == dc.export_state()

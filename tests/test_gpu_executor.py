"""Tests for the simulated GPU: cost model and event-driven executor."""

import numpy as np
import pytest

from repro.gpu import A100_40G, H100_80G, KernelCostModel, PersistentKernelExecutor, TileCost


def mem_tile(bytes_read, bytes_written=0.0):
    return TileCost(flops=1.0, padded_flops=1.0, bytes_read=bytes_read,
                    bytes_written=bytes_written, uses_tensor_cores=False)


def compute_tile(flops):
    return TileCost(flops=flops, padded_flops=flops, bytes_read=0.0,
                    uses_tensor_cores=True)


class TestSpec:
    def test_per_sm_shares(self):
        assert H100_80G.sm_fp16_flops * H100_80G.num_sms == pytest.approx(
            H100_80G.peak_fp16_flops
        )

    def test_tma_flags(self):
        assert H100_80G.supports_tma and not A100_40G.supports_tma

    def test_pdl_flags(self):
        assert H100_80G.supports_pdl and not A100_40G.supports_pdl


class TestCostModel:
    def test_transaction_quantization(self):
        cm = KernelCostModel(A100_40G)
        # 64-byte runs waste half of every 128-byte transaction.
        c = TileCost(bytes_read=1000.0, contiguous_run_bytes=64.0, n_gather_segments=2)
        assert cm.effective_bytes_read(c) == pytest.approx(2000.0)
        # Aligned runs waste nothing.
        c2 = TileCost(bytes_read=1000.0, contiguous_run_bytes=256.0, n_gather_segments=2)
        assert cm.effective_bytes_read(c2) == pytest.approx(1000.0)

    def test_dense_loads_unquantized(self):
        cm = KernelCostModel(A100_40G)
        c = TileCost(bytes_read=1000.0)
        assert cm.effective_bytes_read(c) == 1000.0

    def test_padded_flops_floor(self):
        c = TileCost(flops=100.0, padded_flops=10.0)
        assert c.padded_flops == 100.0

    def test_merge(self):
        a = mem_tile(10.0)
        b = compute_tile(5.0)
        m = a.merge(b)
        assert m.bytes_read == 10.0 and m.flops == 6.0


class TestPersistentExecutor:
    def test_bandwidth_never_exceeds_peak(self):
        exe = PersistentKernelExecutor(A100_40G)
        queues = [[mem_tile(1e6)] for _ in range(A100_40G.num_sms)]
        rep = exe.run_persistent(queues)
        assert rep.achieved_bandwidth() <= A100_40G.peak_bandwidth_bytes * 1.001

    def test_oversubscribed_grid_not_faster(self):
        exe = PersistentKernelExecutor(A100_40G)
        n = A100_40G.num_sms
        one = exe.run_persistent([[mem_tile(1e6)] for _ in range(n)])
        two = exe.run_persistent([[mem_tile(0.5e6)] for _ in range(2 * n)])
        assert two.makespan == pytest.approx(one.makespan, rel=0.05)

    def test_straggler_limited_by_sm_cap(self):
        """A single CTA holding all bytes cannot draw full device bandwidth —
        the reason split-KV matters."""
        exe = PersistentKernelExecutor(A100_40G)  # SINGLE_SM_BANDWIDTH_FRACTION = 0.05
        total = 100e6
        lone = exe.run_persistent([[mem_tile(total)]] + [[] for _ in range(107)])
        split = exe.run_persistent([[mem_tile(total / 108)] for _ in range(108)])
        assert lone.makespan > 10 * split.makespan

    def test_balance_metric(self):
        exe = PersistentKernelExecutor(A100_40G)
        rep = exe.run_persistent([[mem_tile(1e6)], [mem_tile(1e6)]])
        assert rep.balance == pytest.approx(1.0)
        rep2 = exe.run_persistent([[mem_tile(1e6)], []])
        assert rep2.balance < 1.0

    def test_compute_bound_uses_tensor_roof(self):
        exe = PersistentKernelExecutor(A100_40G)
        cm = exe.cost_model
        flops = 1e9
        rep = exe.run_persistent([[compute_tile(flops)]])
        expected = flops / (A100_40G.sm_fp16_flops * cm.mma_efficiency)
        assert rep.makespan == pytest.approx(
            expected + cm.tile_latency + A100_40G.kernel_dispatch_overhead, rel=0.01
        )

    def test_cuda_core_roof_slower(self):
        exe = PersistentKernelExecutor(A100_40G)
        tc = exe.run_persistent([[compute_tile(1e9)]])
        cc = TileCost(flops=1e9, padded_flops=1e9, uses_tensor_cores=False)
        cuda = exe.run_persistent([[cc]])
        assert cuda.makespan > tc.makespan

    def test_empty(self):
        exe = PersistentKernelExecutor(A100_40G)
        rep = exe.run_persistent([])
        assert rep.num_tiles == 0 and rep.total_bytes == 0

    def test_totals_accumulate(self):
        exe = PersistentKernelExecutor(A100_40G)
        rep = exe.run_persistent([[mem_tile(100.0, 50.0), compute_tile(10.0)]])
        assert rep.total_bytes == 150.0
        assert rep.total_flops == 11.0
        assert rep.num_tiles == 2

    def test_price_streams_is_the_fault_free_report_and_draws_no_fault(self):
        import numpy as np

        from repro.faults import FaultPlan

        rng = np.random.default_rng(3)
        serial, mem = rng.random(264) * 1e-6, rng.random(264) * 1e6
        exe = PersistentKernelExecutor(H100_80G)
        want = exe.run_streams(serial.copy(), mem.copy(), 1.0, 2.0, 264)
        exe.fault_injector = FaultPlan(schedules={"kernel": [0], "straggler": [0]})
        assert exe.price_streams(serial, mem, 1.0, 2.0, 264) == want
        assert exe.price_streams(serial, mem).makespan == want.makespan
        assert exe.fault_injector.consultations("kernel") == 0


class TestGridExecutor:
    def test_wave_quantization(self):
        """One block more than the SM count costs a whole extra wave."""
        exe = PersistentKernelExecutor(A100_40G)
        n = A100_40G.num_sms
        flops = 1e9
        full = exe.run_grid([compute_tile(flops)] * n)
        plus1 = exe.run_grid([compute_tile(flops)] * (n + 1))
        assert plus1.makespan > 1.8 * full.makespan

    def test_in_order_dispatch_tail(self):
        """A heavy block submitted last extends the makespan by its length."""
        exe = PersistentKernelExecutor(A100_40G)
        light = [compute_tile(1e7)] * (A100_40G.num_sms * 2)
        heavy = compute_tile(1e9)
        early = exe.run_grid([heavy] + light)
        late = exe.run_grid(light + [heavy])
        assert late.makespan > early.makespan

    def test_empty_grid_costs_one_dispatch(self):
        rep = PersistentKernelExecutor(A100_40G).run_grid([])
        assert rep.makespan == A100_40G.kernel_dispatch_overhead
        assert rep.num_tiles == 0 and rep.total_flops == 0.0

    def test_grid_holds_one_block_per_sm(self):
        """Every SM runs one block at a time: the block past the first wave
        queues behind slot 0, which ends up twice as busy as the rest."""
        exe = PersistentKernelExecutor(A100_40G)
        n = A100_40G.num_sms
        rep = exe.run_grid([compute_tile(1e9)] * (n + 1))
        assert rep.num_ctas == len(rep.per_cta_time) == n
        assert rep.per_cta_time[0] == pytest.approx(2 * rep.per_cta_time[1])
        assert rep.per_cta_time[1:] == pytest.approx([rep.per_cta_time[1]] * (n - 1))

    def test_combine_sequential(self):
        exe = PersistentKernelExecutor(A100_40G)
        a = exe.run_grid([compute_tile(1e8)])
        b = exe.run_grid([compute_tile(1e8)])
        c = a.combine(b)
        assert c.makespan == pytest.approx(a.makespan + b.makespan)
        assert c.total_flops == 2e8


class TestChainedLaunches:
    """``follow`` + ``then``: the launches of one call, each depending on the
    one before it.  Without PDL they add; with it a launch dispatches while
    its predecessor runs and pays only the dispatch that outlasts it."""

    @staticmethod
    def launch(exe, bytes_per_cta, ctas=8):
        return exe.run_persistent([[mem_tile(bytes_per_cta)] for _ in range(ctas)])

    @staticmethod
    def chain(exe, launches):
        report = launches[0]
        for launch in launches[1:]:
            report = report.then(exe.follow(report, launch))
        return report

    def test_a100_chain_is_the_plain_sum_bit_for_bit(self):
        exe = PersistentKernelExecutor(A100_40G)
        launches = [self.launch(exe, b) for b in (3e6, 1e3, 7e5)]
        chained = self.chain(exe, launches)
        combined = launches[0].combine(launches[1]).combine(launches[2])
        assert chained.makespan == combined.makespan
        assert (chained.total_flops, chained.total_bytes) == (
            combined.total_flops, combined.total_bytes)

    def test_h100_pays_one_dispatch_behind_long_predecessors(self):
        exe = PersistentKernelExecutor(H100_80G)
        dispatch = H100_80G.kernel_dispatch_overhead
        launches = [self.launch(exe, b) for b in (3e6, 2e6, 1e6)]
        assert all(r.drain >= dispatch for r in launches)
        chained = self.chain(exe, launches)
        assert chained.makespan == pytest.approx(sum(r.drain for r in launches) + dispatch)
        assert chained.drain == launches[-1].drain

    def test_a_short_predecessor_leaves_the_rest_of_the_dispatch_visible(self):
        exe = PersistentKernelExecutor(H100_80G)
        dispatch = H100_80G.kernel_dispatch_overhead
        short, tail = self.launch(exe, 1e3), self.launch(exe, 1e6)
        assert short.drain < dispatch
        followed = exe.follow(short, tail)
        assert followed.makespan == pytest.approx(tail.makespan - short.drain)
        assert short.then(followed).makespan == pytest.approx(
            dispatch + short.drain + (dispatch - short.drain) + tail.drain)

    def test_busy_time_adds_per_cta(self):
        exe = PersistentKernelExecutor(H100_80G)
        a = exe.run_persistent([[mem_tile(1e6)], [mem_tile(3e6)], []])
        b = exe.run_persistent([[mem_tile(2e6)], [], [mem_tile(1e6)]])
        chained = a.then(exe.follow(a, b))
        np.testing.assert_array_equal(
            chained.per_cta_time, np.add(a.per_cta_time, b.per_cta_time))
        assert 0.0 < chained.balance < 1.0
        assert a.combine(b).per_cta_time == []  # different grids: no per-CTA view


class TestMemEfficiency:
    def test_lower_efficiency_slower(self):
        good = PersistentKernelExecutor(A100_40G, KernelCostModel(A100_40G))
        bad = PersistentKernelExecutor(
            A100_40G, KernelCostModel(A100_40G, mem_efficiency=0.5)
        )
        queues = [[mem_tile(1e6)] for _ in range(108)]
        assert bad.run_persistent(queues).makespan > 1.5 * good.run_persistent(queues).makespan


class TestReportAccessors:
    def test_zero_makespan_guards(self):
        from repro.gpu import SimReport

        rep = SimReport(0.0, 0.0, 0.0, 0, 0, [])
        assert rep.achieved_bandwidth() == 0.0
        assert rep.achieved_flops() == 0.0
        assert rep.balance == 1.0

    def test_utilizations_consistent(self):
        exe = PersistentKernelExecutor(A100_40G)
        rep = exe.run_persistent([[mem_tile(1e6)] for _ in range(108)])
        assert rep.bandwidth_utilization(A100_40G) == pytest.approx(
            rep.achieved_bandwidth() / A100_40G.peak_bandwidth_bytes
        )
        assert 0 < rep.flops_utilization(A100_40G) < 1

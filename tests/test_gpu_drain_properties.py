"""Property tests for the shared-bandwidth drain (the executor's core)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import sweep
from repro.gpu import A100_40G, PersistentKernelExecutor, TileCost
from repro.gpu.executor import SINGLE_SM_BANDWIDTH_FRACTION


def executor():
    return PersistentKernelExecutor(A100_40G)


work = st.lists(
    st.tuples(st.floats(0, 1e-4), st.floats(0, 1e7)),  # (serial s, bytes)
    min_size=1,
    max_size=40,
)


class TestDrainInvariants:
    @given(work)
    @sweep(25, 100)
    def test_all_jobs_finish(self, jobs):
        exe = executor()
        serial = np.array([j[0] for j in jobs])
        mem = np.array([j[1] for j in jobs])
        finish = exe._drain(serial, mem, resident=1)
        assert np.all(np.isfinite(finish))
        assert np.all(finish >= 0)

    @given(work)
    @sweep(25, 100)
    def test_finish_not_before_either_stream(self, jobs):
        """A job can't finish before its serial time nor before its bytes
        could drain at full device bandwidth."""
        exe = executor()
        serial = np.array([j[0] for j in jobs])
        mem = np.array([j[1] for j in jobs])
        finish = exe._drain(serial, mem, resident=1)
        lower = np.maximum(serial, mem / A100_40G.peak_bandwidth_bytes)
        assert np.all(finish >= lower - 1e-12)

    @given(work)
    @sweep(25, 100)
    def test_bandwidth_conservation(self, jobs):
        """Total bytes drained can never exceed peak_bw × makespan."""
        exe = executor()
        serial = np.array([j[0] for j in jobs])
        mem = np.array([j[1] for j in jobs])
        finish = exe._drain(serial, mem, resident=1)
        makespan = float(finish.max())
        if makespan > 0:
            assert mem.sum() <= A100_40G.peak_bandwidth_bytes * makespan * (1 + 1e-9)

    @given(work)
    @sweep(25, 100)
    def test_single_cta_cap(self, jobs):
        """No single job drains faster than the per-SM bandwidth cap."""
        exe = executor()
        serial = np.array([j[0] for j in jobs])
        mem = np.array([j[1] for j in jobs])
        finish = exe._drain(serial, mem, resident=1)
        cap = A100_40G.peak_bandwidth_bytes * SINGLE_SM_BANDWIDTH_FRACTION
        assert np.all(finish >= mem / cap - 1e-12)

    @given(work, st.floats(1.1, 3.0))
    @sweep(15, 60)
    def test_monotone_in_work(self, jobs, factor):
        """Scaling every job's work up never reduces the makespan."""
        exe = executor()
        serial = np.array([j[0] for j in jobs])
        mem = np.array([j[1] for j in jobs])
        base = exe._drain(serial, mem, resident=1).max()
        more = exe._drain(serial * factor, mem * factor, resident=1).max()
        assert more >= base - 1e-15

    def test_empty_streams(self):
        exe = executor()
        finish = exe._drain(np.zeros(3), np.zeros(3), resident=1)
        assert np.all(finish == 0.0)

    def test_grid_matches_persistent_when_one_wave(self):
        """With ≤ one block per slot, grid and persistent agree."""
        exe = executor()
        tiles = [
            TileCost(flops=1e8, padded_flops=1e8, bytes_read=1e5)
            for _ in range(A100_40G.num_sms)
        ]
        grid = exe.run_grid(tiles)
        persistent = exe.run_persistent([[t] for t in tiles])
        assert grid.makespan == pytest.approx(persistent.makespan, rel=1e-9)

"""Tests for ring attention (sequence-parallel ⊕ composition, §2.2)."""

import numpy as np
import pytest

from conftest import fp16
from repro.cluster import NVLINK_P2P, Link, Topology
from repro.core import HeadConfig, reference_attention
from repro.distributed import RingAttention

HEADS = HeadConfig(4, 2, 16)


def data(rng, n=96):
    q = rng.standard_normal((n, 4, 16))
    k = rng.standard_normal((n, 2, 16))
    v = rng.standard_normal((n, 2, 16))
    return q, k, v


class TestNumerics:
    @pytest.mark.parametrize("num_devices", [1, 2, 3, 4, 7])
    def test_matches_single_device_causal(self, rng, num_devices):
        q, k, v = data(rng)
        ring = RingAttention(num_devices, HEADS)
        out, _ = ring.run(q, k, v, causal=True)
        ref = reference_attention(q, fp16(k), fp16(v), causal=True)
        np.testing.assert_allclose(out, ref, atol=1e-6)

    def test_matches_non_causal(self, rng):
        q, k, v = data(rng, n=50)
        out, _ = RingAttention(3, HEADS).run(q, k, v, causal=False)
        ref = reference_attention(q, fp16(k), fp16(v), causal=False)
        np.testing.assert_allclose(out, ref, atol=1e-6)

    def test_uneven_shards(self, rng):
        # n not divisible by devices.
        q, k, v = data(rng, n=97)
        out, _ = RingAttention(4, HEADS).run(q, k, v, causal=True)
        ref = reference_attention(q, fp16(k), fp16(v), causal=True)
        np.testing.assert_allclose(out, ref, atol=1e-6)

    def test_decode_shaped_input(self, rng):
        # Fewer queries than KV (trailing-positions convention).
        q = rng.standard_normal((8, 4, 16))
        k = rng.standard_normal((64, 2, 16))
        v = rng.standard_normal((64, 2, 16))
        out, _ = RingAttention(4, HEADS).run(q, k, v, causal=True)
        ref = reference_attention(q, fp16(k), fp16(v), causal=True)
        np.testing.assert_allclose(out, ref, atol=1e-6)


class TestCausalSkip:
    def test_future_shards_skipped(self, rng):
        q, k, v = data(rng, n=96)
        _, rep = RingAttention(4, HEADS).run(q, k, v, causal=True)
        # Upper-triangular (device, shard) pairs are skipped: 6 of 16.
        assert rep.skipped_pairs == 6

    def test_non_causal_skips_nothing(self, rng):
        q, k, v = data(rng, n=96)
        _, rep = RingAttention(4, HEADS).run(q, k, v, causal=False)
        assert rep.skipped_pairs == 0

    def test_skip_reduces_device_work_not_step_makespan(self, rng):
        """The plain ring's causal skip saves device-seconds, but each step
        still waits for its busiest device."""
        q, k, v = data(rng, n=96)
        _, causal = RingAttention(4, HEADS).run(q, k, v, causal=True)
        _, full = RingAttention(4, HEADS).run(q, k, v, causal=False)
        assert causal.device_seconds < full.device_seconds
        assert causal.compute_time == pytest.approx(full.compute_time, rel=0.01)


class TestCostModel:
    def test_comm_scales_with_shard_size(self, rng):
        q, k, v = data(rng, n=96)
        _, small = RingAttention(4, HEADS).run(q, k, v)
        q2, k2, v2 = data(rng, n=192)
        _, big = RingAttention(4, HEADS).run(q2, k2, v2)
        assert big.comm_time > small.comm_time

    def test_comm_time_is_shard_bytes_over_link_bandwidth(self, rng):
        q, k, v = data(rng, n=96)  # each hop is a p2p send over the topology's link model
        topo = Topology("ring", 4, Link("test", 1e9, NVLINK_P2P.latency))
        _, rep = RingAttention(4, HEADS, topo).run(q, k, v)
        # Three hops of a 24-token K and V shard; the last step sends nothing.
        shard = 24 * HEADS.num_kv_heads * HEADS.head_dim * 2 * 2  # fp16 K and V
        assert rep.comm_time == pytest.approx(3 * topo.p2p_time(shard))
        assert topo.traffic_bytes == {"p2p": 3 * 4 * shard}  # every device sends each hop

    def test_shared_medium_serializes_the_hops(self, rng):
        q, k, v = data(rng, n=96)
        topo = Topology.preset("pcie", 4)  # every hop crosses the one host bridge
        _, rep = RingAttention(4, HEADS, topo).run(q, k, v)
        shard = 24 * HEADS.num_kv_heads * HEADS.head_dim * 2 * 2
        assert rep.comm_time == topo.busy_seconds["p2p"]
        assert rep.comm_time == pytest.approx(3 * 4 * topo.p2p_time(shard))

    def test_slow_link_makes_comm_bound(self, rng):
        q, k, v = data(rng, n=96)
        slow = Topology("ring", 4, Link("slow", 1e6, NVLINK_P2P.latency))
        _, rep = RingAttention(4, HEADS, slow).run(q, k, v)
        assert rep.comm_bound and rep.makespan == pytest.approx(rep.comm_time)

    def test_single_device_no_comm(self, rng):
        q, k, v = data(rng, n=64)
        _, rep = RingAttention(1, HEADS).run(q, k, v)
        assert (rep.comm_time, rep.steps) == (0.0, 1)

    def test_overlap_bound(self, rng):
        q, k, v = data(rng, n=96)
        _, rep = RingAttention(4, HEADS).run(q, k, v)  # the default NVLink ring
        assert rep.makespan == max(rep.compute_time, rep.comm_time) and not rep.comm_bound


class TestValidation:
    def test_num_devices_positive(self):
        with pytest.raises(ValueError):
            RingAttention(0, HEADS)

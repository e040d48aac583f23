"""The surviving collective, ``p2p_send``: bitwise copy, cost charging,
degraded-window pricing; plus ring-attention shard-strategy parity."""

import numpy as np
import pytest

from repro.cluster.collectives import p2p_send
from repro.cluster.topology import Topology
from repro.core import HeadConfig


def test_p2p_send_is_bitwise_and_charged():
    topo = Topology.preset("nvlink", world=2)
    a = np.random.default_rng(1).standard_normal((5, 5))
    received, cost = p2p_send(a, topo)
    np.testing.assert_array_equal(received, a)
    assert received is not a
    assert cost == pytest.approx(topo.p2p_time(float(a.nbytes)))
    assert topo.traffic_bytes["p2p"] == pytest.approx(float(a.nbytes))


def test_degraded_window_raises_collective_cost():
    topo = Topology.preset("nvlink", world=4)
    a = np.random.default_rng(0).standard_normal((256, 256))
    _, healthy = p2p_send(a, topo, t=0.0)
    topo.degrade(10.0, 20.0, factor=0.1)
    received, degraded = p2p_send(a, topo, t=15.0)
    assert degraded > healthy
    # Degradation moves time only; the bytes are untouched.
    np.testing.assert_array_equal(received, a)


def test_zigzag_and_contiguous_ring_attention_agree():
    # The zigzag shard strategy re-partitions causal work across devices;
    # it must not change the attention output, only the balance.
    from repro.distributed.ring import RingAttention

    heads = HeadConfig(4, 4, 64)
    rng = np.random.default_rng(3)
    n = 256
    q = rng.standard_normal((n, 4, 64))
    k = rng.standard_normal((n, 4, 64))
    v = rng.standard_normal((n, 4, 64))
    out = {}
    reports = {}
    for strategy in ("contiguous", "zigzag"):
        ring = RingAttention(4, heads, shard_strategy=strategy)
        out[strategy], reports[strategy] = ring.run(q, k, v, causal=True)
    np.testing.assert_allclose(out["zigzag"], out["contiguous"], rtol=1e-10)
    # Zigzag exists to balance causal work: the per-step critical path
    # (max over devices) must never be worse than contiguous sharding.
    assert reports["zigzag"].compute_time <= reports["contiguous"].compute_time
    assert reports["contiguous"].skipped_pairs > 0

"""The surviving collective, ``p2p_send``: bitwise copy, cost charging,
degraded-window pricing."""

import numpy as np
import pytest

from repro.cluster.collectives import p2p_send
from repro.cluster.topology import Topology


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


def test_p2p_send_without_topology_is_free():
    a = np.arange(12.0).reshape(3, 4)
    received, cost = p2p_send(a)
    np.testing.assert_array_equal(received, a)
    assert cost == 0.0


def test_wire_bytes_price_the_modeled_payload_under_its_kind():
    # Migration ships page-table metadata but pays for the KV it stands for.
    topo = Topology.preset("nvlink", world=2)
    meta = np.zeros(16, dtype=np.uint8)
    _, cost = p2p_send(meta, topo, t=0.0, kind="migration", wire_bytes=64e6)
    assert cost == pytest.approx(topo.p2p_time(64e6))
    assert topo.traffic_bytes == {"migration": pytest.approx(64e6)}

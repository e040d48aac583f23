"""Topology link model: the preset, collective costs, accounting."""

import pytest

from repro.cluster.topology import NVLINK_P2P, Link, Topology

MB = 1 << 20


def test_preset_constructs_and_unknown_rejected():
    topo = Topology.preset("nvlink", world=4)
    assert (topo.world, topo.name, topo.link) == (4, "nvlink", NVLINK_P2P)
    with pytest.raises(ValueError, match="unknown topology"):
        Topology.preset("infiniband", world=4)
    with pytest.raises(ValueError):
        Topology("bad", world=0, link=NVLINK_P2P)


def test_p2p_time_is_latency_plus_bytes_over_bandwidth():
    topo = Topology("test", world=2, link=Link("test", bandwidth=100e9, latency=1e-6))
    assert topo.p2p_time(0) == pytest.approx(1e-6)
    assert topo.p2p_time(100e9) == pytest.approx(1.0 + 1e-6)


@pytest.mark.parametrize("nbytes", [4096, 64 * MB], ids=["latency-bound", "bandwidth-bound"])
def test_all_reduce_cost_monotone_in_world_size(nbytes):
    costs = [
        Topology.preset("nvlink", world=g).all_reduce_time(nbytes)
        for g in (2, 3, 4, 6, 8)
    ]
    for smaller, larger in zip(costs, costs[1:]):
        assert larger > smaller


@pytest.mark.parametrize("world", [2, 4, 8])
@pytest.mark.parametrize("collective", ["all_reduce_time", "p2p_time"])
def test_collective_cost_monotone_in_message_bytes(collective, world):
    topo = Topology.preset("nvlink", world=world)
    fn = getattr(topo, collective)
    costs = [fn(nbytes) for nbytes in (1 * MB, 4 * MB, 16 * MB, 64 * MB)]
    for smaller, larger in zip(costs, costs[1:]):
        assert larger > smaller
    assert fn(0.0) >= 0.0


def test_all_reduce_matches_ring_formula():
    # NVLink ring: 2(g-1) rounds of bytes/g, one hop latency per round.
    topo = Topology.preset("nvlink", world=4)
    nbytes = 64 * MB
    g = 4
    expected = 2 * (g - 1) * (
        NVLINK_P2P.latency + (nbytes / g) / NVLINK_P2P.bandwidth
    )
    assert topo.all_reduce_time(nbytes) == pytest.approx(expected)
    # Trivial group: free.
    assert topo.all_reduce_time(nbytes, group_size=1) == 0.0


def test_group_size_validation():
    topo = Topology.preset("nvlink", world=4)
    with pytest.raises(ValueError, match="group_size"):
        topo.all_reduce_time(MB, group_size=5)
    with pytest.raises(ValueError, match="group_size"):
        topo.all_reduce_time(MB, group_size=0)


def test_traffic_accounting_and_link_stats():
    topo = Topology.preset("nvlink", world=4)
    topo.charge("all_reduce", 1000.0, 0.25)
    topo.charge("all_reduce", 500.0, 0.25)
    topo.charge("p2p", 100.0, 0.1)
    assert topo.total_traffic_bytes == pytest.approx(1600.0)
    assert topo.total_busy_seconds == pytest.approx(0.6)
    stats = topo.link_stats(makespan=1.2)
    assert stats["link_bytes"] == pytest.approx(1600.0)
    assert stats["link_all_reduce_bytes"] == pytest.approx(1500.0)
    assert topo.busy_seconds["p2p"] == pytest.approx(0.1)
    assert stats["link_utilization"] == pytest.approx(0.5)
    assert topo.utilization(0.0) == 0.0


def test_constant_unification_keeps_legacy_values():
    # The flat all-reduce model's former literals moved here unchanged.
    from repro.serving.model import ALLREDUCE_LATENCY, NVLINK_ALLREDUCE_BW

    assert NVLINK_ALLREDUCE_BW == 300e9
    assert ALLREDUCE_LATENCY == 8e-6


def test_all_reduce_wire_bytes_count_every_ring_round():
    # 2(g-1) rounds, each moving g chunks of nbytes/g; one rank moves nothing.
    assert Topology.all_reduce_wire_bytes(MB, 1) == 0.0
    assert Topology.all_reduce_wire_bytes(MB, 4) == 6 * MB

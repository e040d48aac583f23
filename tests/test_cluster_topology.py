"""Topology link model: presets, collective costs, degradation, accounting."""

import pytest

from repro.cluster.topology import (
    NVLINK_P2P,
    PCIE_HOST,
    TOPOLOGY_PRESETS,
    Link,
    LinkDegradation,
    Topology,
)

MB = 1 << 20


def test_presets_construct_and_unknown_rejected():
    for name in TOPOLOGY_PRESETS:
        topo = Topology.preset(name, world=4)
        assert topo.world == 4
        assert topo.name == name
    with pytest.raises(ValueError, match="unknown topology"):
        Topology.preset("infiniband", world=4)
    with pytest.raises(ValueError):
        Topology("bad", world=0, link=NVLINK_P2P)


def test_p2p_time_is_latency_plus_bytes_over_bandwidth():
    topo = Topology("test", world=2, link=Link("test", bandwidth=100e9, latency=1e-6))
    assert topo.p2p_time(0) == pytest.approx(1e-6)
    assert topo.p2p_time(100e9) == pytest.approx(1.0 + 1e-6)
    # A derating window slows the bandwidth, not the latency.
    topo.degrade(1.0, 2.0, factor=0.5)
    assert topo.p2p_time(100e9, t=1.5) == pytest.approx(2.0 + 1e-6)


@pytest.mark.parametrize("preset", sorted(TOPOLOGY_PRESETS))
def test_all_reduce_cost_monotone_in_world_size(preset):
    costs = [
        Topology.preset(preset, world=g).all_reduce_time(64 * MB)
        for g in (2, 3, 4, 6, 8)
    ]
    for smaller, larger in zip(costs, costs[1:]):
        assert larger > smaller


@pytest.mark.parametrize("preset", sorted(TOPOLOGY_PRESETS))
@pytest.mark.parametrize("collective", ["all_reduce_time", "p2p_time"])
def test_collective_cost_monotone_in_message_bytes(preset, collective):
    topo = Topology.preset(preset, world=4)
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


def test_pcie_host_bridge_serializes_and_double_hops():
    # Same round count, but each round's g transfers serialize on the
    # root complex and every hop pays the bridge twice.
    nvlink = Topology.preset("nvlink", world=4)
    pcie = Topology.preset("pcie", world=4)
    nbytes = 16 * MB
    g = 4
    expected = 2 * (g - 1) * (
        2 * PCIE_HOST.latency + g * (nbytes / g) / PCIE_HOST.bandwidth
    )
    assert pcie.all_reduce_time(nbytes) == pytest.approx(expected)
    assert pcie.all_reduce_time(nbytes) > nvlink.all_reduce_time(nbytes)


def test_group_size_validation():
    topo = Topology.preset("nvlink", world=4)
    with pytest.raises(ValueError, match="group_size"):
        topo.all_reduce_time(MB, group_size=5)
    with pytest.raises(ValueError, match="group_size"):
        topo.all_reduce_time(MB, group_size=0)


def test_degradation_window_slows_only_inside_the_window():
    topo = Topology.preset("nvlink", world=4)
    healthy = topo.all_reduce_time(64 * MB, t=0.0)
    topo.degrade(1.0, 2.0, factor=0.25)
    assert topo.all_reduce_time(64 * MB, t=0.5) == pytest.approx(healthy)
    assert topo.all_reduce_time(64 * MB, t=1.5) > healthy
    assert topo.all_reduce_time(64 * MB, t=2.0) == pytest.approx(healthy)
    # Overlapping windows compound.
    topo.degrade(1.0, 2.0, factor=0.5)
    assert topo.bandwidth_factor(1.5) == pytest.approx(0.125)
    assert topo.bandwidth_factor(0.5) == 1.0


def test_degradation_validation():
    with pytest.raises(ValueError):
        LinkDegradation(0.0, 1.0, factor=0.0)
    with pytest.raises(ValueError):
        LinkDegradation(0.0, 1.0, factor=1.5)
    with pytest.raises(ValueError):
        LinkDegradation(1.0, 1.0, factor=0.5)


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


def test_overlapping_degradation_windows_compound_only_where_they_overlap():
    topo = Topology("test", world=2, link=Link("test", bandwidth=100e9, latency=0.0))
    topo.degrade(1.0, 3.0, factor=0.5)
    topo.degrade(2.0, 4.0, factor=0.5)
    factors = [topo.bandwidth_factor(t) for t in (0.5, 1.5, 2.5, 3.5, 4.0)]
    assert factors == pytest.approx([1.0, 0.5, 0.25, 0.5, 1.0])
    # A transfer is priced at the factor of its start time.
    assert topo.p2p_time(100e9, t=2.5) == pytest.approx(4.0)
    assert topo.p2p_time(100e9, t=3.5) == pytest.approx(2.0)
    assert len(topo.degradations) == 2


def test_pcie_p2p_pays_the_bridge_twice():
    # One transfer over the host bridge: two hops of latency, one payload.
    topo = Topology.preset("pcie", world=2)
    nbytes = 8 * MB
    expected = 2 * PCIE_HOST.latency + nbytes / PCIE_HOST.bandwidth
    assert topo.p2p_time(nbytes) == pytest.approx(expected)


def test_all_reduce_wire_bytes_count_every_ring_round():
    # 2(g-1) rounds, each moving g chunks of nbytes/g; one rank moves nothing.
    assert Topology.all_reduce_wire_bytes(MB, 1) == 0.0
    assert Topology.all_reduce_wire_bytes(MB, 4) == 6 * MB

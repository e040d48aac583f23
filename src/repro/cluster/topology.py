"""Interconnect topologies: links, collective cost models, degradation.

One simulated GPU became many: this module models *how they are wired*.
A :class:`Link` is a (bandwidth, latency) pair; a :class:`Topology` is a
world of devices joined by one link class in a fixed shape — an NVLink
ring (direct neighbour links, transfers in one ring step proceed in
parallel) or a PCIe host bridge (every transfer crosses the shared root
complex twice and serializes against every other transfer).  Collective
costs use the standard ring algorithms:

* all-reduce:      ``2(g−1)`` rounds, each moving ``bytes/g`` per rank
* p2p:             one transfer of ``bytes``

so an NVLink ring all-reduce costs ``2(g−1)/g · bytes/bw + 2(g−1)·lat``,
the formula NCCL's ring protocol converges to for large messages.

This module is also the single source of truth for link constants:
ring attention (:mod:`repro.distributed.ring`) ships its K/V shards over
a :class:`Topology` (the ``nvlink`` preset by default), and
:data:`NVLINK_ALLREDUCE_BW` / :data:`ALLREDUCE_LATENCY` (the engine's flat
tensor-parallel all-reduce model, :mod:`repro.serving.model`) are defined
here and imported there.

Fault injection: :meth:`Topology.degrade` installs a time-windowed
bandwidth derating (a flapping NVLink, a PCIe retrain); every collective
priced inside the window sees the reduced bandwidth.  All traffic is
accounted per collective kind so a run can report per-link utilization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

__all__ = [
    "ALLREDUCE_LATENCY",
    "Link",
    "LinkDegradation",
    "NVLINK_ALLREDUCE_BW",
    "NVLINK_BUS",
    "NVLINK_P2P",
    "PCIE_HOST",
    "TOPOLOGY_PRESETS",
    "Topology",
]


@dataclass(frozen=True)
class Link:
    """One interconnect link class: per-direction bandwidth and hop latency."""

    name: str
    bandwidth: float  # bytes/s, per direction
    latency: float  # seconds per hop


#: NVLink-class neighbour link (ring attention shard transfers, ring
#: collectives): the ``nvlink`` preset's.
NVLINK_P2P = Link("nvlink-p2p", bandwidth=200e9, latency=2e-6)

#: NVLink all-reduce effective *bus* bandwidth and base latency — the
#: flat per-all-reduce model :meth:`repro.serving.model.ModelConfig.
#: allreduce_time` uses (the former module literals, unchanged).
NVLINK_BUS = Link("nvlink-bus", bandwidth=300e9, latency=8e-6)

#: PCIe Gen4 x16 host bridge: every device-to-device transfer crosses the
#: shared root complex, so transfers serialize against each other.
PCIE_HOST = Link("pcie-host", bandwidth=32e9, latency=5e-6)

# Back-compat aliases re-exported by their original home.
NVLINK_ALLREDUCE_BW = NVLINK_BUS.bandwidth
ALLREDUCE_LATENCY = NVLINK_BUS.latency


@dataclass(frozen=True)
class LinkDegradation:
    """A time-windowed bandwidth derating (fault injection).

    While ``t_start <= t < t_end`` the topology's link bandwidth is
    multiplied by ``factor`` (overlapping windows compound).
    """

    t_start: float
    t_end: float
    factor: float

    def __post_init__(self) -> None:
        if not 0.0 < self.factor <= 1.0:
            raise ValueError("degradation factor must be in (0, 1]")
        if self.t_end <= self.t_start:
            raise ValueError("degradation window must have t_end > t_start")

    def active(self, t: float) -> bool:
        return self.t_start <= t < self.t_end


class Topology:
    """A world of devices joined by one link class in a fixed shape.

    ``shared_medium=False`` (ring): the ``world`` neighbour links carry
    one transfer each per collective round, in parallel.
    ``shared_medium=True`` (host bridge): all devices hang off one root
    complex; each round's per-rank transfers serialize on it and every
    hop pays the bridge latency twice (up and down).
    """

    def __init__(
        self,
        name: str,
        world: int,
        link: Link,
        shared_medium: bool = False,
    ):
        if world < 1:
            raise ValueError("world must be >= 1")
        self.name = name
        self.world = world
        self.link = link
        self.shared_medium = shared_medium
        self.degradations: List[LinkDegradation] = []
        #: Wire bytes actually moved, per collective kind.
        self.traffic_bytes: Dict[str, float] = {}
        #: Simulated seconds the interconnect spent busy, per kind.
        self.busy_seconds: Dict[str, float] = {}

    @classmethod
    def preset(cls, name: str, world: int) -> "Topology":
        """Build a named preset topology (see :data:`TOPOLOGY_PRESETS`)."""
        try:
            return TOPOLOGY_PRESETS[name](world)
        except KeyError:
            raise ValueError(
                f"unknown topology {name!r}; available: "
                f"{', '.join(sorted(TOPOLOGY_PRESETS))}"
            ) from None

    # -- degradation (fault injection) ----------------------------------------

    def degrade(self, t_start: float, t_end: float, factor: float) -> LinkDegradation:
        """Install a bandwidth derating window; returns the record."""
        deg = LinkDegradation(t_start, t_end, factor)
        self.degradations.append(deg)
        return deg

    def bandwidth_factor(self, t: float) -> float:
        """Compounded derating factor at simulated time ``t``."""
        factor = 1.0
        for deg in self.degradations:
            if deg.active(t):
                factor *= deg.factor
        return factor

    # -- collective cost models ------------------------------------------------

    def _hop_latency(self) -> float:
        # A host-bridge hop traverses the root complex up and down.
        return self.link.latency * (2.0 if self.shared_medium else 1.0)

    def _round_time(self, chunk_bytes: float, group: int, efficiency: float, t: float) -> float:
        """One collective round: each of ``group`` ranks moves ``chunk_bytes``
        to its neighbour — concurrently on a ring, serially on a bridge."""
        bw = self.link.bandwidth * efficiency * self.bandwidth_factor(t)
        transfers = group if self.shared_medium else 1
        return self._hop_latency() + transfers * chunk_bytes / bw

    def _group(self, group_size: Optional[int]) -> int:
        g = self.world if group_size is None else group_size
        if g < 1 or g > self.world:
            raise ValueError(f"group_size {g} outside [1, world={self.world}]")
        return g

    def p2p_time(self, nbytes: float, t: float = 0.0) -> float:
        """One point-to-point transfer (a ring-attention shard hop)."""
        return self._round_time(float(nbytes), 1, 1.0, t)

    def all_reduce_time(
        self, nbytes: float, group_size: Optional[int] = None,
        efficiency: float = 1.0, t: float = 0.0,
    ) -> float:
        """Ring all-reduce of an ``nbytes`` payload across the group."""
        g = self._group(group_size)
        if g <= 1:
            return 0.0
        return 2 * (g - 1) * self._round_time(nbytes / g, g, efficiency, t)

    @staticmethod
    def all_reduce_wire_bytes(nbytes: float, group_size: int) -> float:
        """Bytes a ring all-reduce actually moves: ``2(g−1)`` rounds of
        ``g`` chunks of ``nbytes/g`` (the accounting the utilization
        counters charge)."""
        if group_size <= 1:
            return 0.0
        return 2.0 * (group_size - 1) * nbytes

    # -- accounting ------------------------------------------------------------

    def charge(self, kind: str, wire_bytes: float, seconds: float) -> None:
        """Account one collective against the interconnect."""
        self.traffic_bytes[kind] = self.traffic_bytes.get(kind, 0.0) + wire_bytes
        self.busy_seconds[kind] = self.busy_seconds.get(kind, 0.0) + seconds

    @property
    def total_traffic_bytes(self) -> float:
        return sum(self.traffic_bytes.values())

    @property
    def total_busy_seconds(self) -> float:
        return sum(self.busy_seconds.values())

    def utilization(self, makespan: float) -> float:
        """Fraction of ``makespan`` the interconnect was busy (can exceed
        1.0 when collectives of different replicas overlap in simulated
        time — the links are per-replica-group but accounted together)."""
        if makespan <= 0:
            return 0.0
        return self.total_busy_seconds / makespan

    def link_stats(self, makespan: Optional[float] = None) -> Dict[str, float]:
        """Per-link accounting for metrics summaries."""
        stats: Dict[str, float] = {
            "link_bytes": self.total_traffic_bytes,
            "link_degradations": float(len(self.degradations)),
        }
        for kind in sorted(self.traffic_bytes):
            stats[f"link_{kind}_bytes"] = self.traffic_bytes[kind]
        if makespan is not None:
            stats["link_utilization"] = self.utilization(makespan)
        return stats

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Topology({self.name!r}, world={self.world}, link={self.link.name}, "
            f"shared_medium={self.shared_medium})"
        )


def _nvlink(world: int) -> Topology:
    """Fully-connected NVLink ring: neighbour transfers run in parallel."""
    return Topology("nvlink", world, NVLINK_P2P, shared_medium=False)


def _pcie(world: int) -> Topology:
    """PCIe host bridge: all transfers serialize on the root complex."""
    return Topology("pcie", world, PCIE_HOST, shared_medium=True)


#: Named topology presets (``serve --topology`` accepts these keys).
TOPOLOGY_PRESETS = {
    "nvlink": _nvlink,
    "pcie": _pcie,
}

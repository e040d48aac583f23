"""Multi-GPU cluster simulation: topology, p2p transfer, TP, DP routing.

Layered exactly like a real serving stack:

* :mod:`repro.cluster.topology` — interconnect presets (NVLink ring,
  PCIe host bridge) with per-link bandwidth/latency, ring-collective
  cost formulas, time-windowed degradation, and traffic accounting.
  The single source of truth for link constants (``repro.serving.model``
  imports its own from here; ``repro.distributed`` ships over a topology).
* :mod:`repro.cluster.collectives` — simulated ``p2p_send``: a bitwise
  copy plus the topology-priced cost, charged per traffic kind.
* :mod:`repro.cluster.router` — pluggable data-parallel routing
  policies (round-robin, least-loaded, power-of-two, session-affinity,
  cache-aware), looked up by name like the scheduler policies, and the
  per-replica circuit breakers.
* :mod:`repro.cluster.tp` — tensor-parallel head sharding and the
  per-layer all-reduce interconnect charged to the topology.
* :mod:`repro.cluster.engine` — the :class:`ClusterEngine` running
  ``dp`` replicas stage by stage on a shared simulated time axis,
  token-exact against the single-GPU engine.
* :mod:`repro.cluster.failover` — heartbeat-timeout failure timing,
  each failed replica's timestamped timeline, the chunked checksummed KV
  transfer (live migration over priced links), and token-exact takeover.
* :mod:`repro.cluster.disagg` — disaggregated prefill/decode serving:
  role pools, live KV handoff over priced ``kind="handoff"`` links, and
  token-exact decode-side stream resumption.

The topology/collectives/router layer is import-light (no serving
dependency) and loads eagerly; the tp/engine layer imports the serving
stack — which itself imports :mod:`repro.cluster.topology` for link
constants — so those symbols load lazily to keep the cycle one-way.
"""

from __future__ import annotations

import importlib

from repro.cluster.collectives import p2p_send
from repro.cluster.router import (
    BREAKER_STATES,
    ROUTING_POLICIES,
    BreakerConfig,
    BreakerTransition,
    CacheAwarePolicy,
    CircuitBreaker,
    DisaggPolicy,
    IllegalBreakerTransition,
    LeastLoadedPolicy,
    LoadTracker,
    PowerOfTwoPolicy,
    RoundRobinPolicy,
    RoutingPolicy,
    SessionAffinityPolicy,
    get_routing_policy,
)
from repro.cluster.topology import (
    ALLREDUCE_LATENCY,
    NVLINK_ALLREDUCE_BW,
    NVLINK_BUS,
    NVLINK_P2P,
    PCIE_HOST,
    TOPOLOGY_PRESETS,
    Link,
    LinkDegradation,
    Topology,
)

# Symbols whose modules import the serving stack; resolved on first access
# (PEP 562) to keep ``repro.serving.model → repro.cluster.topology``
# import-safe.
_LAZY = {
    "ClusterConfig": "engine",
    "ClusterEngine": "engine",
    "ClusterMetrics": "engine",
    "assign_rids": "engine",
    "expected_tokens": "engine",
    "TPInterconnect": "tp",
    "TPSharding": "tp",
    "plan_tp_sharding": "tp",
    "FailoverConfig": "failover",
    "FailoverController": "failover",
    "FailoverReport": "failover",
    "KVMigrator": "failover",
    "MigrationChecksumError": "failover",
    "MigrationError": "failover",
    "MigrationReport": "failover",
    "ReplicaFailure": "failover",
    "DisaggCoordinator": "disagg",
    "DisaggReport": "disagg",
    "HandoffSink": "disagg",
    "KVHandoff": "disagg",
    "parse_roles": "disagg",
}

__all__ = [
    "ALLREDUCE_LATENCY",
    "NVLINK_ALLREDUCE_BW",
    "NVLINK_BUS",
    "NVLINK_P2P",
    "PCIE_HOST",
    "TOPOLOGY_PRESETS",
    "Link",
    "LinkDegradation",
    "Topology",
    "p2p_send",
    "BREAKER_STATES",
    "BreakerConfig",
    "BreakerTransition",
    "CircuitBreaker",
    "IllegalBreakerTransition",
    "LoadTracker",
    "RoutingPolicy",
    "RoundRobinPolicy",
    "LeastLoadedPolicy",
    "PowerOfTwoPolicy",
    "SessionAffinityPolicy",
    "CacheAwarePolicy",
    "DisaggPolicy",
    "ROUTING_POLICIES",
    "get_routing_policy",
    *sorted(_LAZY),
]


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))

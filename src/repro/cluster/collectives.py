"""Simulated point-to-point send: exact bytes plus topology-priced cost.

:func:`p2p_send` hands the receiver a bitwise copy of the array and
returns ``(received, cost_seconds)``, the cost coming from the
:class:`~repro.cluster.topology.Topology` link model (``topology=None``
sends for free).  Every priced send is charged to the topology's
per-kind traffic counters, which is where the ``link_<kind>_*`` stats of
KV migration and prefill→decode handoff come from.  Tensor-parallel
all-reduces are priced, not executed:
:class:`~repro.cluster.tp.TPInterconnect` charges
:meth:`Topology.all_reduce_time` per layer.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.cluster.topology import Topology

__all__ = ["p2p_send"]


def p2p_send(
    array: np.ndarray,
    topology: Optional[Topology] = None,
    kind: str = "p2p",
    wire_bytes: Optional[float] = None,
) -> Tuple[np.ndarray, float]:
    """Send an array to a neighbour; the receiver gets a bitwise copy.

    ``kind`` names the traffic bucket charged on the topology (KV
    migration uses ``"migration"`` so it shows up as its own
    ``link_migration_*`` stats).  ``wire_bytes`` overrides the priced
    payload size when the array is a stand-in for larger modeled traffic
    — migration ships page-table metadata bitwise but prices the KV
    pages those entries represent.
    """
    a = np.asarray(array)
    received = a.copy()
    cost = 0.0
    if topology is not None:
        nbytes = float(a.nbytes) if wire_bytes is None else float(wire_bytes)
        cost = topology.p2p_time(nbytes)
        topology.charge(kind, nbytes, cost)
    return received, cost

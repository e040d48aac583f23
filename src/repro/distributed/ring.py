"""Ring attention: sequence-parallel exact attention via ``⊕`` (paper §2.2).

A sequence too long for one device is sharded across ``N`` devices, device
``d`` owning query and KV shard ``d``.  At ring step ``s`` device ``d`` attends
its queries against KV shard ``(d - s) mod N`` while the next shard streams in
from its neighbour, and folds the partial state into its running one with
``⊕``: exact, ``⊕`` being associative and commutative over disjoint KV sets.

Ring attention is a lowering: each (query shard, KV shard) pair is a
one-group ragged :class:`AttentionMapping` whose positions place both shards
in the sequence, planned, priced and run on one :class:`BatchAttentionWrapper`;
each hop ships a K/V shard at storage precision with :func:`p2p_send` over a
:class:`Topology`, the link model the cluster's collectives use.

Causality gives the classic skip: a KV shard wholly in a query shard's future
is neither computed nor charged, which with contiguous shards idles device 0
while device N−1 computes every step.  Each step's compute (its slowest
device's launch) overlaps the next hop: the double-buffered schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.cluster.collectives import p2p_send
from repro.cluster.topology import Topology
from repro.core.kernels import HeadConfig
from repro.core.state import merge_states
from repro.core.variant import VANILLA
from repro.core.wrapper import BatchAttentionWrapper
from repro.gpu.workspace import WorkspaceBuffer
from repro.sparse.layout import AttentionMapping, BlockSparseKV


@dataclass
class RingReport:
    """Timing decomposition of a ring-attention execution."""

    makespan: float
    compute_time: float  # sum over steps of the slowest device's launch
    comm_time: float  # sum over steps of the longest hop, or of every hop on a shared medium
    device_seconds: float  # total launch time across all devices
    steps: int
    skipped_pairs: int  # (device, shard) pairs skipped by causality

    @property
    def comm_bound(self) -> bool:
        return self.comm_time > self.compute_time


class RingAttention:
    """Sequence-parallel exact attention across simulated A100s joined by
    ``topology`` (default: an NVLink ring of ``num_devices``)."""

    def __init__(self, num_devices: int, heads: HeadConfig, topology: Optional[Topology] = None):
        if num_devices < 1:
            raise ValueError("num_devices must be >= 1")
        self.num_devices = num_devices
        self.heads = heads
        self.topology = topology or Topology.preset("nvlink", num_devices)

    def _shard_bounds(self, n: int) -> list:
        """Contiguous near-equal shards of ``n`` positions, one per device."""
        ends = np.cumsum([0] + [len(s) for s in np.array_split(np.arange(n), self.num_devices)])
        return list(zip(ends[:-1], ends[1:]))

    def run(
        self, q: np.ndarray, k: np.ndarray, v: np.ndarray, causal: bool = True
    ) -> Tuple[np.ndarray, RingReport]:
        """Exact attention for one long sequence, sharded over the ring:
        ``q`` is ``(n_q, H_qo, D)``, ``k``/``v`` ``(n_kv, H_kv, D)``, the
        queries at the trailing ``n_q`` positions (a prefill when equal)."""
        n_q, n_dev = q.shape[0], self.num_devices
        q_ranges, kv_ranges = self._shard_bounds(n_q), self._shard_bounds(k.shape[0])
        q_pos = np.arange(n_q) + k.shape[0] - n_q
        rows = max(r1 - r0 for r0, r1 in q_ranges)
        wrapper = BatchAttentionWrapper(VANILLA, self.heads, WorkspaceBuffer(1 << 26),
                                        avg_qo_len=rows, sparse_gather=False,
                                        max_batch_size=1, max_total_qo=rows)
        kv = np.stack((k, v)).astype(np.float16)  # what each device stores and ships
        held = [kv[:, k0:k1] for k0, k1 in kv_ranges]
        acc_o, acc_lse = np.zeros(q.shape), np.full(q.shape[:2], -np.inf)
        compute_time = comm_time = device_seconds = 0.0
        skipped = 0  # pairs wholly in their queries' future
        for step in range(n_dev):
            times = []
            for dev, (qs0, qs1) in enumerate(q_ranges):
                ks0, ks1 = kv_ranges[(dev - step) % n_dev]
                if qs1 == qs0 or ks1 == ks0:
                    continue
                if causal and ks0 > q_pos[qs1 - 1]:
                    skipped += 1
                    continue
                pair = AttentionMapping([0, qs1 - qs0], BlockSparseKV.ragged([0, ks1 - ks0]),
                                        causal, q_pos=q_pos[qs0:qs1], kv_pos_offset=[ks0])
                wrapper.plan(pair)
                o, lse, report = wrapper.run(q[qs0:qs1], held[dev][0], held[dev][1])
                acc_o[qs0:qs1], acc_lse[qs0:qs1] = merge_states(
                    acc_o[qs0:qs1], acc_lse[qs0:qs1], o, lse)
                times.append(report.makespan)
            compute_time += max(times, default=0.0)
            device_seconds += sum(times)
            if step < n_dev - 1:  # every device passes its shard on; the last step sends nothing
                held, hops = zip(*(p2p_send(held[dev - 1], self.topology) for dev in range(n_dev)))
                # Concurrent on a point-to-point ring, serial on a shared medium.
                comm_time = sum(hops if self.topology.shared_medium else [max(hops)], comm_time)
        return acc_o, RingReport(max(compute_time, comm_time),  # the slower resource dominates
                                 compute_time, comm_time, device_seconds, n_dev, skipped)

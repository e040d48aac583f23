"""Ring attention: sequence-parallel exact attention via ``⊕`` (paper §2.2).

Setup: a sequence too long for one device is sharded across ``N`` devices —
device ``d`` owns query shard ``d`` and KV shard ``d``.  The algorithm runs
``N`` ring steps; at step ``s`` device ``d`` attends its queries against KV
shard ``(d - s) mod N`` while that shard's K/V stream in from its ring
neighbour.  Each step produces a partial attention state, merged into the
running state with ``⊕`` — exact because ``⊕`` is associative/commutative
over disjoint KV sets (the same algebra the split-KV scheduler uses
on-device).

Causality gives the classic ring-attention skip: a KV shard strictly in a
query shard's future contributes nothing and is neither computed nor
charged.  With contiguous shards the skip is badly distributed — device 0
idles while device N−1 computes every step — so the ``zigzag`` strategy
gives each device one slice from the front and one from the back of the
sequence, equalizing causal work (the schedule production ring-attention
implementations use).  The cost model overlaps each step's compute (max
over devices, simulated per-device by the engine's executor) with the ring
transfer of the next shard, the standard double-buffered schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.jit import KernelTraits, get_kernel
from repro.core.kernels import HeadConfig, regroup_heads
from repro.core.state import merge_states
from repro.core.tiles import select_kv_tile, select_q_tile
from repro.core.variant import VANILLA, AttentionVariant
from repro.gpu.cost import TileCost
from repro.gpu.executor import PersistentKernelExecutor
from repro.gpu.spec import A100_40G, GPUSpec

# NVLink-class ring link bandwidth per direction (bytes/s) — defined once
# in the cluster topology module and re-exported here for back-compat.
from repro.cluster.topology import DEFAULT_LINK_BANDWIDTH


@dataclass
class RingReport:
    """Timing decomposition of a ring-attention execution."""

    makespan: float
    compute_time: float  # sum over steps of the slowest device's kernel
    comm_time: float  # sum over steps of the shard transfer time
    device_seconds: float  # total kernel time across all devices
    steps: int
    skipped_pairs: int  # (device, shard) pairs skipped by causality

    @property
    def comm_bound(self) -> bool:
        return self.comm_time > self.compute_time


class RingAttention:
    """Sequence-parallel exact attention across simulated devices."""

    def __init__(
        self,
        num_devices: int,
        heads: HeadConfig,
        gpu: GPUSpec = A100_40G,
        variant: AttentionVariant = VANILLA,
        link_bandwidth: float = DEFAULT_LINK_BANDWIDTH,
        kv_itemsize: int = 2,
        shard_strategy: str = "contiguous",
    ):
        if num_devices < 1:
            raise ValueError("num_devices must be >= 1")
        if shard_strategy not in ("contiguous", "zigzag"):
            raise ValueError(f"unknown shard_strategy {shard_strategy!r}")
        self.shard_strategy = shard_strategy
        self.num_devices = num_devices
        self.heads = heads
        self.gpu = gpu
        self.variant = variant
        self.link_bandwidth = link_bandwidth
        self.kv_itemsize = kv_itemsize
        q_tile = select_q_tile(128.0)
        self._traits = KernelTraits(
            head_dim=heads.head_dim,
            q_tile=q_tile,
            kv_tile=select_kv_tile(q_tile, heads.head_dim, self._kv_dtype(), gpu),
            is_sparse=False,
        )
        self._kernel = get_kernel(variant, self._traits)
        self._executor = PersistentKernelExecutor(gpu)

    @staticmethod
    def _kv_dtype():
        from repro.utils.dtypes import StorageDType

        return StorageDType.FP16

    def _shard_bounds(self, n: int) -> List[Tuple[int, int]]:
        """Contiguous near-equal shards of ``n`` positions."""
        base, rem = divmod(n, self.num_devices)
        bounds = []
        start = 0
        for d in range(self.num_devices):
            size = base + (1 if d < rem else 0)
            bounds.append((start, start + size))
            start += size
        return bounds

    def _device_ranges(self, n: int) -> List[List[Tuple[int, int]]]:
        """Per-device position ranges under the shard strategy.

        ``contiguous``: device ``d`` owns one slice.  ``zigzag``: the
        sequence splits into ``2N`` half-slices and device ``d`` owns
        half-slices ``d`` and ``2N−1−d``, balancing causal work.
        """
        if self.shard_strategy == "contiguous" or self.num_devices == 1:
            return [[b] for b in self._shard_bounds(n)]
        halves = []
        base, rem = divmod(n, 2 * self.num_devices)
        start = 0
        for i in range(2 * self.num_devices):
            size = base + (1 if i < rem else 0)
            halves.append((start, start + size))
            start += size
        return [
            [halves[d], halves[2 * self.num_devices - 1 - d]]
            for d in range(self.num_devices)
        ]

    def run(
        self,
        q: np.ndarray,
        k: np.ndarray,
        v: np.ndarray,
        causal: bool = True,
        sm_scale: Optional[float] = None,
        params: Optional[dict] = None,
    ) -> Tuple[np.ndarray, RingReport]:
        """Exact attention for one long sequence, sharded over the ring.

        ``q``: ``(n, H_qo, D)``; ``k``/``v``: ``(n, H_kv, D)`` (full prefill:
        query and KV lengths match; incremental shapes work too as long as
        positions follow the trailing-queries convention).
        """
        n_q, h_qo, d = q.shape
        n_kv = k.shape[0]
        if sm_scale is None:
            sm_scale = 1.0 / np.sqrt(d)
        bound_params = self.variant.bind_params(params)

        q_ranges = self._device_ranges(n_q)
        kv_ranges = self._device_ranges(n_kv)
        q_pos_base = n_kv - n_q  # trailing-queries convention

        acc_o = np.zeros((n_q, h_qo, d))
        acc_lse = np.full((n_q, h_qo), -np.inf)
        compute_time = comm_time = device_seconds = 0.0
        skipped = 0
        shard_bytes = max(
            sum(r1 - r0 for r0, r1 in ranges) for ranges in kv_ranges
        ) * (self.heads.num_kv_heads * d * 2 * self.kv_itemsize)

        for step in range(self.num_devices):
            step_device_times = []
            for dev in range(self.num_devices):
                dev_costs: List[TileCost] = []
                for qs0, qs1 in q_ranges[dev]:
                    if qs1 == qs0:
                        continue
                    q_pos_hi = q_pos_base + qs1 - 1
                    for ks0, ks1 in kv_ranges[(dev - step) % self.num_devices]:
                        if ks1 == ks0:
                            continue
                        if causal and ks0 > q_pos_hi:
                            skipped += 1  # entirely in this range's future
                            continue
                        o_part, lse_part, costs = self._pair_partial(
                            q[qs0:qs1], k[ks0:ks1], v[ks0:ks1],
                            q_pos_base + qs0, ks0, causal, sm_scale, bound_params,
                        )
                        acc_o[qs0:qs1], acc_lse[qs0:qs1] = merge_states(
                            acc_o[qs0:qs1], acc_lse[qs0:qs1], o_part, lse_part
                        )
                        dev_costs.extend(costs)
                if dev_costs:
                    # All of a device's pairs run in one persistent launch.
                    step_device_times.append(self._time_costs(dev_costs))
            step_compute = max(step_device_times, default=0.0)
            device_seconds += sum(step_device_times)
            # Double buffering: the next shard streams in under this step's
            # compute; the last step sends nothing.
            step_comm = shard_bytes / self.link_bandwidth if step < self.num_devices - 1 else 0.0
            compute_time += step_compute
            comm_time += step_comm

        makespan = self._overlapped_makespan(compute_time, comm_time)
        report = RingReport(
            makespan=makespan,
            compute_time=compute_time,
            comm_time=comm_time,
            device_seconds=device_seconds,
            steps=self.num_devices,
            skipped_pairs=skipped,
        )
        return acc_o, report

    def _overlapped_makespan(self, compute_time: float, comm_time: float) -> float:
        """Perfectly pipelined schedule: the slower resource dominates."""
        return max(compute_time, comm_time)

    def _pair_partial(
        self, q_shard, k_shard, v_shard, q_pos0, kv_pos0, causal, sm_scale, params
    ):
        """Partial state for one (q range × kv range) pair, plus its raw
        cost footprints (the caller times a device's pairs together)."""
        from repro.utils.dtypes import StorageDType, round_to_storage

        n_q = q_shard.shape[0]
        n_kv = k_shard.shape[0]
        d = self.heads.head_dim
        g = self.heads.group_size
        h_kv = self.heads.num_kv_heads
        q_pos = q_pos0 + np.arange(n_q)
        kv_pos = kv_pos0 + np.arange(n_kv)

        kr = round_to_storage(k_shard, StorageDType.FP16)
        vr = round_to_storage(v_shard, StorageDType.FP16)
        # One call for every KV head, its GQA group fused into the rows.
        o_t, lse_t = self._kernel.fn(
            regroup_heads(q_shard, g), kr.swapaxes(0, 1), vr.swapaxes(0, 1),
            np.repeat(q_pos, g), kv_pos,
            np.tile(np.arange(h_kv * g).reshape(h_kv, g), (1, n_q)), np.arange(h_kv),
            params, sm_scale, causal, self._traits.kv_tile,
        )
        o, lse = regroup_heads(o_t, g), regroup_heads(lse_t, g)
        costs = [
            TileCost(
                flops=4.0 * d * n_q * g * n_kv,
                padded_flops=4.0 * d * n_q * g * n_kv,
                bytes_read=float(n_kv * d * 2 * self.kv_itemsize
                                 + n_q * g * d * self.kv_itemsize),
                bytes_written=float(n_q * g * (d + 1) * 4),
            )
        ] * h_kv
        return o, lse, costs

    def _time_costs(self, costs: List[TileCost]) -> float:
        """Simulated time of one device launch covering ``costs``.

        Work is spread over the device's SMs by splitting each cost into
        per-SM slices (head-level granularity is too coarse for small
        KV-head counts).
        """
        queues: List[List[TileCost]] = [[] for _ in range(self.gpu.num_sms)]
        slices = max(self.gpu.num_sms // max(len(costs), 1), 1)
        for i, c in enumerate(costs):
            frac = 1.0 / slices
            for j in range(slices):
                queues[(i * slices + j) % self.gpu.num_sms].append(
                    TileCost(
                        flops=c.flops * frac,
                        padded_flops=c.padded_flops * frac,
                        bytes_read=c.bytes_read * frac,
                        bytes_written=c.bytes_written * frac,
                    )
                )
        return self._executor.run_persistent(queues).makespan

"""Simulated kernel execution: a roofline with shared bandwidth.

Each work tile contributes two concurrent streams (the software-pipelined
roofline assumption):

* a **serial stream** — tensor-core/CUDA-core compute plus fixed per-tile
  latencies, running at the CTA's share of its SM;
* a **memory stream** — HBM traffic, drained at a *globally shared* rate:
  active CTAs split the device bandwidth equally, capped at what a single
  SM can pull.  This is the crucial property for the paper's phenomena:
  when load imbalance leaves few CTAs running, the stragglers cannot use
  the idle SMs' bandwidth beyond the per-SM cap, so decode tails crawl —
  and split-KV (FlashInfer's scheduler, flash-decoding) recovers exactly
  that bandwidth.

Two launch disciplines are modelled:

* **persistent kernels** (FlashInfer §3.3.1): fixed grid, CTA ``i`` drains
  queue ``i``; per-CTA work is aggregated (the pipeline overlaps tiles) and
  every CTA starts at t=0, so finish times have a closed form (``_drain``).
* **grid launches** (the FlashAttention-library baseline): one block per
  tile, dispatched in submission order to free SM slots — wave
  quantization and tail imbalance appear naturally (an event loop,
  ``_drain_dynamic``).

Reported utilizations (the quantities of paper Figure 8) divide useful
FLOPs / traffic by makespan and the device peak.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.gpu.cost import KernelCostModel, TileCost
from repro.gpu.spec import GPUSpec

#: Fraction of peak HBM bandwidth one SM can sustain alone.  Microbenchmarks
#: put a single SM's streaming rate at a few percent of the device peak;
#: 5% makes a lone straggler ~20× slower than a balanced grid on A100.
SINGLE_SM_BANDWIDTH_FRACTION = 0.05

_EPS = 1e-18


class KernelFault(RuntimeError):
    """A transient simulated-kernel failure (injected by a fault plan).

    Raised from :meth:`PersistentKernelExecutor.run_persistent` /
    :meth:`~PersistentKernelExecutor.run_grid` (and the vectorized
    cost-only paths in :mod:`repro.core.simulate`) before any work is
    timed — the launch never happened, so callers may simply retry.
    """


@dataclass
class SimReport:
    """Outcome of one simulated kernel execution."""

    makespan: float
    total_flops: float
    total_bytes: float
    num_tiles: int
    num_ctas: int
    per_cta_time: List[float]

    @property
    def balance(self) -> float:
        """Mean CTA busy time / max CTA busy time (1.0 = perfectly balanced)."""
        busy = list(self.per_cta_time)
        if not busy or max(busy) == 0:
            return 1.0
        return sum(busy) / (len(busy) * max(busy))

    def achieved_bandwidth(self) -> float:
        """Useful bytes per second over the whole execution."""
        return self.total_bytes / self.makespan if self.makespan > 0 else 0.0

    def bandwidth_utilization(self, spec: GPUSpec) -> float:
        return self.achieved_bandwidth() / spec.peak_bandwidth_bytes

    def achieved_flops(self) -> float:
        return self.total_flops / self.makespan if self.makespan > 0 else 0.0

    def flops_utilization(self, spec: GPUSpec) -> float:
        return self.achieved_flops() / spec.peak_fp16_flops

    def combine(self, other: "SimReport") -> "SimReport":
        """Sequential composition of two kernel executions."""
        return SimReport(
            makespan=self.makespan + other.makespan,
            total_flops=self.total_flops + other.total_flops,
            total_bytes=self.total_bytes + other.total_bytes,
            num_tiles=self.num_tiles + other.num_tiles,
            num_ctas=max(self.num_ctas, other.num_ctas),
            per_cta_time=[],
        )

    def to_dict(self) -> dict:
        """Flat scalar view for tracing/export (``repro.obs``); the
        per-CTA times are summarized by :attr:`balance` rather than
        serialized."""
        return {
            "makespan": self.makespan,
            "total_flops": self.total_flops,
            "total_bytes": self.total_bytes,
            "num_tiles": self.num_tiles,
            "num_ctas": self.num_ctas,
            "balance": self.balance,
        }


class PersistentKernelExecutor:
    """Executes simulated work under a cost model on a :class:`GPUSpec`."""

    #: Optional fault injector (duck-typed :class:`repro.faults.FaultPlan`):
    #: consulted once per simulated launch.  ``None`` (the default) keeps
    #: the launch paths exactly as before — a single attribute check.
    fault_injector = None
    #: Optional plan memo (duck-typed :class:`repro.serving.PlanCache`).  The
    #: executor never reads it: it rides here because the executor is the one
    #: object every wrapper of a serving backend shares, so the backend
    #: attaches per-run state (this and :attr:`fault_injector`) in one place.
    plan_cache = None

    def __init__(
        self,
        spec: GPUSpec,
        cost_model: Optional[KernelCostModel] = None,
        single_sm_bw_fraction: float = SINGLE_SM_BANDWIDTH_FRACTION,
    ):
        self.spec = spec
        self.cost_model = cost_model if cost_model is not None else KernelCostModel(spec)
        self.single_sm_bw_fraction = single_sm_bw_fraction
        #: ``_drain``'s per-stream rate vectors by ``(streams, per-CTA cap)``:
        #: a wrapper launches on one fixed grid every step.
        self._rates: Dict[Tuple[int, float], np.ndarray] = {}

    # -- fault injection ------------------------------------------------------

    def _consult_injector(self, serial: np.ndarray, mem: np.ndarray) -> None:
        """One consultation of the attached fault plan per simulated launch.

        May raise :class:`KernelFault` (a transient launch failure — no
        work was timed) or stretch one CTA's serial and memory streams in
        place (a straggler CTA).
        """
        inj = self.fault_injector
        if inj is None:
            return
        if inj.fire("kernel"):
            raise KernelFault(
                f"injected transient kernel fault "
                f"(launch #{inj.consultations('kernel') - 1})"
            )
        if serial.size and inj.fire("straggler"):
            i = inj.choose("straggler", serial.size)
            serial[i] *= inj.straggler_factor
            mem[i] *= inj.straggler_factor

    # -- tile → stream conversion -------------------------------------------

    def _streams(self, cost: TileCost, compute_share: float) -> Tuple[float, float]:
        """Return ``(serial_seconds, memory_bytes)`` for one tile."""
        cm = self.cost_model
        roof = (
            self.spec.sm_fp16_flops * cm.mma_efficiency
            if cost.uses_tensor_cores
            else self.spec.sm_cuda_core_flops
        ) * compute_share
        serial = (
            cost.padded_flops / roof
            + cost.n_gather_segments * cm.gather_issue_overhead
            + cm.tile_latency
        )
        mem = (cm.effective_bytes_read(cost) + cost.bytes_written) / cm.mem_efficiency
        return serial, mem

    # -- launch disciplines ----------------------------------------------------

    def run_streams(
        self, serial: np.ndarray, mem: np.ndarray,
        total_flops: float, total_bytes: float, num_tiles: int,
    ) -> SimReport:
        """Fixed-grid persistent kernel from per-CTA streams: CTA ``i`` holds
        ``serial[i]`` seconds and ``mem[i]`` effective bytes (a straggler
        fault stretches them in place); the totals are reported as given."""
        n = serial.size
        if self.fault_injector is not None:
            self._consult_injector(serial, mem)
        finish = self._drain(serial, mem, max(1, -(-n // self.spec.num_sms)))
        makespan = float(finish.max(initial=0.0)) + self.spec.kernel_dispatch_overhead
        return SimReport(makespan, total_flops, total_bytes, num_tiles, n, finish.tolist())

    def run_persistent(self, cta_queues: Sequence[Sequence[TileCost]]) -> SimReport:
        """Fixed-grid persistent kernel: CTA ``i`` drains ``cta_queues[i]``."""
        n = len(cta_queues)
        if n == 0:
            return SimReport(self.spec.kernel_dispatch_overhead, 0.0, 0.0, 0, 0, [])
        compute_share = min(1.0, self.spec.num_sms / n)
        serial = np.zeros(n)
        mem = np.zeros(n)
        total_flops = total_bytes = 0.0
        num_tiles = 0
        for i, queue in enumerate(cta_queues):
            for cost in queue:
                s, m = self._streams(cost, compute_share)
                serial[i] += s
                mem[i] += m
                total_flops += cost.flops
                total_bytes += cost.bytes_read + cost.bytes_written
                num_tiles += 1
        return self.run_streams(serial, mem, total_flops, total_bytes, num_tiles)

    def run_grid(self, block_costs: Sequence[TileCost], ctas_per_sm: int = 1) -> SimReport:
        """One thread block per tile, dispatched in order to free SM slots."""
        blocks = list(block_costs)
        if not blocks:
            return SimReport(self.spec.kernel_dispatch_overhead, 0.0, 0.0, 0, 0, [])
        slots = self.spec.num_sms * max(1, ctas_per_sm)
        compute_share = min(1.0, self.spec.num_sms / slots)
        resident = max(1, ctas_per_sm)
        streams = [self._streams(c, compute_share) for c in blocks]
        if self.fault_injector is not None:
            s_arr = np.asarray([s for s, _ in streams])
            m_arr = np.asarray([m for _, m in streams])
            self._consult_injector(s_arr, m_arr)
            streams = list(zip(s_arr.tolist(), m_arr.tolist()))
        total_flops = sum(c.flops for c in blocks)
        total_bytes = sum(c.bytes_read + c.bytes_written for c in blocks)

        makespan, slot_busy = self._drain_dynamic(streams, slots, resident)
        return SimReport(
            makespan=makespan + self.spec.kernel_dispatch_overhead,
            total_flops=total_flops,
            total_bytes=total_bytes,
            num_tiles=len(blocks),
            num_ctas=slots,
            per_cta_time=slot_busy,
        )

    # -- the shared-bandwidth drains --------------------------------------------

    def _cta_bw_cap(self, resident: int) -> float:
        return self.spec.peak_bandwidth_bytes * self.single_sm_bw_fraction / resident

    def _drain(self, serial: np.ndarray, mem: np.ndarray, resident: int) -> np.ndarray:
        """All jobs start at t=0; return per-job finish times.

        A serial stream runs at rate 1 whatever memory does, so job ``i``'s
        serial side ends at ``serial[i]``.  Memory streams share the device
        bandwidth equally under the per-CTA cap: sort the bytes ascending,
        ``a_0 <= ... <= a_{n-1}``; while ``n - j`` streams still hold bytes
        each drains at ``bw_j = min(cap, peak / (n - j))``, so the ``j``-th
        smallest completes at ``T_j = sum_{k<=j} (a_k - a_{k-1}) / bw_k``
        (``a_{-1} = 0``) and a job finishes at ``max(serial, T)``.

        A stream ``<= _EPS`` is absent: as zero bytes it sorts first with a
        zero-length segment, so it takes no bandwidth share, and a job with
        neither stream finishes at 0.0.  Equal byte counts have a zero
        segment between them, hence bit-equal finish times, and the result
        does not depend on the order of the jobs.
        """
        n = serial.size
        a = np.where(mem > _EPS, mem, 0.0)
        order = a.argsort(kind="stable")
        a = a[order]
        segment = a.copy()
        segment[1:] -= a[:-1]
        cap = self._cta_bw_cap(resident)
        bw = self._rates.get((n, cap))
        if bw is None:
            bw = np.minimum(cap, self.spec.peak_bandwidth_bytes / np.arange(n, 0, -1))
            bw.flags.writeable = False
            self._rates[n, cap] = bw
        finish = np.empty(n)
        finish[order] = (segment / bw).cumsum()
        return np.maximum(finish, np.where(serial > _EPS, serial, 0.0))

    def _drain_dynamic(
        self, streams: Sequence[Tuple[float, float]], slots: int, resident: int
    ) -> Tuple[float, List[float]]:
        """Blocks start when a slot frees (submission order)."""
        cap = self._cta_bw_cap(resident)
        peak = self.spec.peak_bandwidth_bytes
        pending = list(reversed(streams))  # pop() takes the next block
        run_s = np.zeros(slots)
        run_m = np.zeros(slots)
        occupied = np.zeros(slots, dtype=bool)
        slot_busy = [0.0] * slots
        t = 0.0
        while pending or occupied.any():
            # Fill free slots.
            for i in range(slots):
                if not occupied[i] and pending:
                    s, m = pending.pop()
                    run_s[i], run_m[i] = s, m
                    occupied[i] = True
            mem_active = occupied & (run_m > _EPS)
            n_mem = int(mem_active.sum())
            bw = min(cap, peak / n_mem) if n_mem else 0.0
            dt = np.inf
            s_live = occupied & (run_s > _EPS)
            if s_live.any():
                dt = min(dt, float(run_s[s_live].min()))
            if n_mem and bw > 0:
                dt = min(dt, float(run_m[mem_active].min()) / bw)
            if not np.isfinite(dt):
                # All running jobs have both streams drained; free them.
                done = occupied & (run_s <= _EPS) & (run_m <= _EPS)
                occupied &= ~done
                continue
            dt = max(dt, _EPS)
            t += dt
            run_s[s_live] -= dt
            if n_mem:
                run_m[mem_active] -= bw * dt
            np.clip(run_s, 0.0, None, out=run_s)
            np.clip(run_m, 0.0, None, out=run_m)
            done = occupied & (run_s <= _EPS) & (run_m <= _EPS)
            for i in np.nonzero(done)[0]:
                slot_busy[i] = t
            occupied &= ~done
        return t, slot_busy

"""The step tracer: the typed event log of a run.

A :class:`StepTracer` is handed to :class:`repro.serving.engine.ServingEngine`
(or attached to the standalone API wrappers) and records one
:class:`~repro.obs.events.StepEvent` per engine step plus any
:class:`~repro.obs.events.KernelRecord` the attention backend surfaces.
It keeps nothing but the events: every count, time total and percentile
of a run is read off them (:func:`repro.obs.summary_table`).

The engine guarantees *zero* tracing overhead when no tracer is
installed: the step loop performs a single ``is None`` check and
allocates no event objects.
"""

from __future__ import annotations

from typing import List

from repro.obs.events import FaultEvent, KernelRecord, StepEvent


class StepTracer:
    """Records step events, fault events and standalone kernel reports.

    Parameters
    ----------
    capture_kernels:
        Also capture per-kernel :class:`SimReport` records from the
        attention backend (one or more per step).  Costs a few list
        allocations per step; switch off for very long runs.
    """

    def __init__(self, capture_kernels: bool = True):
        self.capture_kernels = capture_kernels
        self.events: List[StepEvent] = []
        self.kernels: List[KernelRecord] = []  #: standalone wrapper records
        #: Fault/recovery events (empty outside chaos and recovery runs).
        self.fault_events: List[FaultEvent] = []

    @property
    def num_steps(self) -> int:
        """Engine steps observed (idle gaps excluded)."""
        return sum(1 for e in self.events if e.kind != "idle")

    def on_step(self, event: StepEvent) -> None:
        self.events.append(event)

    def on_fault(self, event: FaultEvent) -> None:
        self.fault_events.append(event)

    def record_kernel(self, record: KernelRecord) -> None:
        """Record a kernel execution outside the engine step loop (the
        standalone API-wrapper hook)."""
        if self.capture_kernels:
            self.kernels.append(record)

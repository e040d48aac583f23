"""Observability: step-level tracing and profiling for the serving stack.

Usage::

    from repro.obs import StepTracer, write_chrome_trace

    tracer = StepTracer()
    engine = ServingEngine(model, backend, gpu, cfg, tracer=tracer)
    metrics = engine.run(requests)
    write_chrome_trace("trace.json", tracer.events)   # chrome://tracing

See ``docs/ARCHITECTURE.md`` ("Observability") for the event schema.
"""

from repro.obs.events import (
    FAULT_ACTIONS,
    STEP_COMPONENTS,
    STEP_KINDS,
    FaultEvent,
    KernelRecord,
    StepEvent,
)
from repro.obs.export import (
    summary_table,
    to_chrome_trace,
    to_cluster_trace,
    to_csv,
    write_chrome_trace,
    write_cluster_trace,
    write_csv,
)
from repro.obs.tracer import StepTracer

__all__ = [
    "FAULT_ACTIONS",
    "STEP_COMPONENTS",
    "STEP_KINDS",
    "FaultEvent",
    "KernelRecord",
    "StepEvent",
    "StepTracer",
    "summary_table",
    "to_chrome_trace",
    "to_cluster_trace",
    "to_csv",
    "write_chrome_trace",
    "write_cluster_trace",
    "write_csv",
]

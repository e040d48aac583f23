"""Deterministic fault injection and resilience for the serving stack.

Three layers, mirroring how production engines harden themselves:

1. **Injection** (:mod:`~repro.faults.plan`): a seeded
   :class:`FaultPlan` with independent per-site RNG streams — transient
   kernel failures, straggler CTAs, KV-page corruption, transient
   page-allocation failures, numeric output corruption.
2. **Detection** (:mod:`~repro.faults.inject`): :class:`OutputGuard`
   ``isfinite`` sampling on wrapper outputs, per-page checksum
   mismatches in :class:`repro.kvcache.PagedKVCache`, and the engine's
   simulated-clock step watchdog.
3. **Recovery** (:mod:`~repro.faults.recover`):
   :class:`ResilienceConfig` — bounded retry-with-recompute from the last
   verified page, request deadlines with youngest-first load shedding,
   and the :class:`DegradeController` primary↔dense-baseline state
   machine.

Quickstart::

    from repro.faults import FaultPlan, ResilienceConfig, chaos_plan

    engine = ServingEngine(model, backend, gpu, cfg,
                           fault_plan=chaos_plan(seed=7),
                           resilience=ResilienceConfig(deadline=30.0))
    metrics = engine.run(requests)
    print(metrics.summary()["faults_injected"], metrics.summary()["sheds"])

See ``docs/ARCHITECTURE.md`` ("Resilience") for the fault sites, detection
points and the recovery state machine.
"""

from repro.faults.inject import (
    EngineCrash,
    KernelFault,
    KVCorruptionError,
    NumericalFault,
    OutputGuard,
    TransientAllocFault,
)
from repro.faults.plan import FAULT_SITES, FaultPlan, chaos_plan
from repro.faults.recover import DegradeController, ResilienceConfig

__all__ = [
    "FAULT_SITES",
    "FaultPlan",
    "chaos_plan",
    "DegradeController",
    "ResilienceConfig",
    "EngineCrash",
    "KernelFault",
    "KVCorruptionError",
    "NumericalFault",
    "OutputGuard",
    "TransientAllocFault",
]

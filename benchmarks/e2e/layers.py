"""Per-layer metrics of the traced repetition.

Host parts (``calls``, ``host_self_s``) come from the span table; simulated
parts come from the public :class:`repro.obs.StepTracer` events, the
``SimReport`` kernel records they carry and the run's ``summary()``-style
reports; bytes and FLOPs are computed from tensor sizes by the cost model,
not measured.  A metric whose span target no longer resolves is ``None``.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.gpu import H100_80G

from spans import SPAN_TABLE, SpanTracer

GPU = H100_80G


def kernel_utilisation(kernels) -> Dict[str, float]:
    """Simulated attention-kernel utilisation over ``(decode, kernel)``
    pairs (``SimReport``s or the tracer's ``KernelRecord``s): achieved / H100 peak HBM bandwidth of the decode kernels,
    achieved / peak FLOPs of the prefill kernels (the paper's Fig. 8
    quantities; computed from tensor sizes by the cost model)."""
    acc = {True: [0.0, 0.0], False: [0.0, 0.0]}  # decode? -> [work, seconds]
    tiles = 0
    balances = []
    for decode, k in kernels:
        acc[decode][0] += k.total_bytes if decode else k.total_flops
        acc[decode][1] += k.makespan
        tiles += k.num_tiles
        balances.append(k.balance)
    d, p = acc[True], acc[False]
    return {
        "bw_util_decode": d[0] / d[1] / GPU.peak_bandwidth_bytes if d[1] else 0.0,
        "flops_util_prefill": p[0] / p[1] / GPU.peak_fp16_flops if p[1] else 0.0,
        "tiles": float(tiles),
        "sim_busy_s": d[1] + p[1],
        "balance_mean": float(np.mean(balances)) if balances else 0.0,
    }


def event_kernels(events):
    """``(decode, SimReport)`` pairs of traced step events: kernels of steps
    that produce only decode tokens count as decode, kernels of steps that
    carry prompt tokens as prefill."""
    return ((not e.num_prefill_tokens, k) for e in events for k in e.kernels)


def step_events(tracers) -> list:
    return [e for tr in tracers for e in tr.events if e.kind != "idle"]


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(
    st: SpanTracer,
    bench: Dict[str, float],
    outcome=None,
    kernel: Optional[dict] = None,
    jit_compiles: int = 0,
) -> Dict[str, Optional[float]]:
    """Every per-layer metric of one traced repetition.

    ``outcome`` is the traced serving :class:`scenarios.Outcome` (``None``
    for ``kernel_batch``, which passes ``kernel`` = its reports and oracle
    result instead); ``jit_compiles`` is how many kernels the JIT compiled
    during the repetition.
    """
    by_layer = st.by_layer()
    broken = {layer for layer, target, *_ in SPAN_TABLE if target in st.unresolved}
    c = st.counters
    m: Dict[str, Optional[float]] = {f"bench.{k}": v for k, v in bench.items()}

    def spans(layer: str, key: str, metric: Optional[str] = None, name: Optional[str] = None):
        value = None if layer in broken else float(by_layer.get(layer, {}).get(key, 0.0))
        m[f"{name or layer}.{metric or key}"] = value
        return value or 0.0

    def calls(target: str) -> float:
        return float(st.calls(target))

    events = step_events(outcome.tracers) if outcome is not None else []
    replicas = outcome.replicas if outcome is not None else []
    result = outcome.result if outcome is not None else None

    def fault_stat(key: str) -> float:
        return float(sum((r.fault_stats or {}).get(key, 0.0) for r in replicas))

    # -- planner, plan cache, wrappers, cost simulation -----------------------
    plans = spans("core.scheduler", "calls")
    self_s = spans("core.scheduler", "host_self_s")
    m["core.scheduler.work_items"] = c["core.scheduler.work_items"]
    m["core.scheduler.host_us_per_item"] = _ratio(self_s * 1e6, c["core.scheduler.work_items"])
    m["core.scheduler.load_balance_mean"] = _ratio(c["core.scheduler.load_balance_sum"], plans)
    m["core.scheduler.merge_entries"] = c["core.scheduler.merge_entries"]
    m["serving.plan_cache.lookups"] = c["serving.plan_cache.lookups"]
    m["serving.plan_cache.misses"] = c["serving.plan_cache.misses"]
    m["serving.plan_cache.cross_step_hit_rate"] = (
        1.0 - _ratio(c["serving.plan_cache.misses"], c["serving.plan_cache.lookups"])
        if c["serving.plan_cache.lookups"] else 0.0
    )
    for phase in ("plan", "run"):
        spans(f"core.wrapper.{phase}", "calls", f"{phase}_calls", "core.wrapper")
        spans(f"core.wrapper.{phase}", "host_self_s", f"{phase}_host_self_s", "core.wrapper")
    for layer in ("core.simulate", "serving.policy", "serving.backends", "serving.engine"):
        spans(layer, "calls")
        spans(layer, "host_self_s")

    # -- simulated GPU --------------------------------------------------------
    spans("gpu.executor", "calls")
    spans("gpu.executor", "host_self_s")
    if kernel is not None:
        util = kernel["utilisation"]
    else:
        util = kernel_utilisation(event_kernels(events))
    for key, value in util.items():
        m[f"gpu.executor.{key}"] = value

    spans("gpu.workspace", "host_self_s")

    # -- numerics and JIT -----------------------------------------------------
    spans("core.kernels", "calls")
    spans("core.kernels", "host_self_s")
    m["core.kernels.flops"] = c["core.kernels.flops"]
    m["core.kernels.bytes_moved"] = c["core.kernels.bytes_moved"]
    errs = kernel["check"]["max_abs_err"] if kernel is not None else {"fp16": 0.0, "fp8": 0.0}
    m["core.kernels.max_abs_err"] = errs["fp16"]
    m["core.kernels.max_abs_err_fp8"] = errs["fp8"]
    spans("core.jit", "host_self_s")
    m["core.jit.compiles"] = float(jit_compiles)
    m["core.jit.cache_hits"] = calls("repro.core.wrapper:get_kernel") - jit_compiles

    # -- sparse formats, KV cache ---------------------------------------------
    spans("sparse", "calls")
    spans("sparse", "host_self_s")
    m["sparse.cascade_steps"] = float(sum(r.cascade_steps for r in replicas))
    spans("kvcache.paged", "calls", "ops")
    spans("kvcache.paged", "host_self_s")
    m["kvcache.paged.peak_used_pages"] = c["kvcache.paged.peak_used_pages"]
    m["kvcache.paged.reserved_over_used"] = _ratio(
        c["kvcache.paged.reserved_slots"], c["kvcache.paged.used_slots"])
    m["kvcache.paged.alloc_failures"] = float(sum(
        n for key, n in st.errors.items()
        if "kvcache.paged" in key and key.endswith(("OutOfPagesError", "TransientAllocFault"))
    ))
    m["kvcache.radix.lookups"] = calls("repro.kvcache.radix:RadixTree.match_prefix")
    m["kvcache.radix.hit_token_share"] = _ratio(
        c["kvcache.radix.hit_tokens"], c["kvcache.radix.query_tokens"])
    m["kvcache.radix.inserted_pages"] = c["kvcache.radix.inserted_pages"]
    m["kvcache.radix.evicted_pages"] = c["kvcache.radix.evicted_pages"]
    spans("kvcache.radix", "host_self_s")

    # -- serving pipeline -----------------------------------------------------
    spans("serving.admission", "calls")
    spans("serving.admission", "host_self_s")
    admits = calls("repro.serving.admission:AdmissionController.admit")
    m["serving.admission.sim_queue_depth_mean"] = _ratio(
        c["serving.admission.queue_depth_sum"], admits)
    m["serving.admission.sim_queue_depth_max"] = c["serving.admission.queue_depth_max"]
    m["serving.admission.sheds"] = float(outcome.shed) if outcome is not None else 0.0
    m["serving.admission.preemptions"] = float(sum(r.preemptions for r in replicas))
    spans("serving.batching", "host_self_s")
    tokens = sum(e.num_tokens for e in events)
    decode_steps = [e.num_decode_tokens for e in events if e.num_decode_tokens]
    m["serving.batching.steps"] = float(len(events))
    m["serving.batching.steps_mixed_share"] = _ratio(
        sum(1 for e in events if e.num_prefill_tokens and e.num_decode_tokens), len(events))
    m["serving.batching.batch_size_mean"] = float(np.mean(decode_steps)) if decode_steps else 0.0
    m["serving.batching.tokens_per_step_mean"] = _ratio(tokens, len(events))
    m["serving.batching.prefill_token_share"] = _ratio(
        sum(e.num_prefill_tokens for e in events), tokens)
    spans("serving.executor", "calls")
    spans("serving.executor", "host_self_s")
    busy = sum(e.duration for e in events)
    for share, comps in (("attention", ("attention",)), ("gemm", ("gemm", "lm_head")),
                         ("allreduce", ("allreduce",)), ("overhead", ("overhead",))):
        m[f"serving.executor.sim_{share}_share"] = _ratio(
            sum(e.component(k) for e in events for k in comps), busy)
    m["serving.executor.retries"] = fault_stat("retries")
    spans("serving.postprocess", "calls")
    spans("serving.postprocess", "host_self_s")
    m["serving.postprocess.tokens_emitted"] = float(sum(r.total_output_tokens for r in replicas))
    report = getattr(result, "overload", None)
    for key, attr in (("offered", "offered"), ("admitted", "admitted"),
                      ("rejected", "rejected"), ("client_retries", "retries"),
                      ("dropped", "dropped"), ("brownout_peak_level", "brownout_peak_level")):
        m[f"serving.overload.{key}"] = float(getattr(report, attr, 0))
    spans("serving.overload", "host_self_s")
    m["serving.checkpoint.snapshots"] = fault_stat("ckpt_snapshots")
    m["serving.checkpoint.journal_records"] = fault_stat("ckpt_journal_records")
    spans("serving.checkpoint", "host_self_s")

    # -- cluster --------------------------------------------------------------
    cluster = result is not None and hasattr(result, "assignments")
    spans("cluster.engine", "host_self_s")
    m["cluster.engine.replica_runs"] = (
        calls("repro.serving.engine:ServingEngine.run")
        + calls("repro.serving.engine:ServingEngine.resume")
    ) if cluster else 0.0
    times = [r.total_time for r in replicas]
    m["cluster.engine.sim_replica_imbalance"] = (
        _ratio(max(times), float(np.mean(times))) if cluster else 0.0)
    m["cluster.router.decisions"] = (
        calls("repro.cluster.router:RoutingPolicy.route")
        + calls("repro.cluster.router:DisaggPolicy.route"))
    spans("cluster.router", "host_self_s")
    m["cluster.router.prefix_affinity_share"] = _prefix_affinity(outcome) if cluster else 0.0
    work = [sum(q.prompt_len + q.output_len for q in reqs)
            for reqs in getattr(result, "replica_requests", [])]
    m["cluster.router.load_imbalance"] = _ratio(max(work), float(np.mean(work))) if work else 0.0
    m["cluster.router.breaker_opens"] = float(getattr(report, "breaker_opens", 0))
    m["cluster.router.hedged"] = float(getattr(report, "hedged", 0))
    m["cluster.router.hedge_wins"] = float(getattr(report, "hedge_wins", 0))
    spans("cluster.collectives", "calls")
    spans("cluster.collectives", "host_self_s")
    topo = getattr(result, "topology", None)
    traffic = topo.traffic_bytes if topo is not None else {}
    busy_by_kind = topo.busy_seconds if topo is not None else {}
    m["cluster.collectives.sim_busy_s"] = float(busy_by_kind.get("all_reduce", 0.0))
    m["cluster.topology.link_bytes_tp"] = float(traffic.get("all_reduce", 0.0))
    m["cluster.topology.link_bytes_handoff"] = float(traffic.get("handoff", 0.0))
    m["cluster.topology.link_bytes_migration"] = float(traffic.get("migration", 0.0))
    m["cluster.topology.link_busy_s"] = float(topo.total_busy_seconds) if topo else 0.0
    m["cluster.topology.link_utilization"] = (
        float(topo.utilization(result.total_time)) if topo else 0.0)
    fo = getattr(result, "failover", None)
    migrations = list(getattr(fo, "migrations", []))
    m["cluster.failover.crashes"] = float(getattr(fo, "crashes", 0))
    m["cluster.failover.sim_detect_s"] = float(getattr(fo, "detect_seconds", 0.0))
    m["cluster.failover.sim_recovery_s"] = float(getattr(fo, "recovery_seconds", 0.0))
    m["cluster.failover.migrations"] = float(len(migrations))
    m["cluster.failover.migrated_pages"] = float(sum(x.pages for x in migrations))
    m["cluster.failover.migration_retries"] = float(sum(x.retries for x in migrations))
    m["cluster.failover.inflight_migrated"] = float(getattr(fo, "inflight_migrated", 0))
    spans("cluster.failover", "host_self_s")
    dg = getattr(result, "disagg", None)
    m["cluster.disagg.handoffs"] = float(getattr(dg, "requests", 0))
    m["cluster.disagg.handoff_pages"] = float(getattr(dg, "pages", 0))
    m["cluster.disagg.handoff_bytes"] = float(getattr(dg, "wire_bytes", 0.0))
    m["cluster.disagg.handoff_retries"] = float(getattr(dg, "retries", 0))
    m["cluster.disagg.sim_wire_s"] = float(getattr(dg, "seconds", 0.0))
    spans("cluster.disagg", "host_self_s")

    # -- injected faults ------------------------------------------------------
    plan = getattr(outcome, "fault_plan", None)
    m["faults.injected"] = (
        float(plan.total_injected if plan is not None else 0)
        + fault_stat("faults_injected") + m["cluster.failover.crashes"])
    m["faults.recovered"] = (
        m["cluster.failover.migration_retries"] + m["cluster.disagg.handoff_retries"]
        + float(getattr(report, "reroutes", 0)) + m["serving.executor.retries"]
        + m["cluster.failover.migrations"] + float(getattr(fo, "fallbacks", 0)))
    return m


def _prefix_affinity(outcome) -> float:
    """Share of prefix-group requests routed to a replica that had already
    been sent a request of the same group."""
    seen = set()
    hits = total = 0
    for req, replica in zip(outcome.load, outcome.result.assignments):
        if req.prefix_group is None:
            continue
        total += 1
        hits += (req.prefix_group, replica) in seen
        seen.add((req.prefix_group, replica))
    return _ratio(hits, total)

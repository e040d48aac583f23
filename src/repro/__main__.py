"""Command-line entry point: ``python -m repro <command>``.

Subcommands:

* ``info``        — library, GPU-model and JIT-cache summary.
* ``demo``        — the quickstart flow with plan/report diagnostics.
* ``generate``    — run the tiny transformer through the paged engine.
* ``serve``       — a small serving comparison across attention backends.
* ``figures``     — how to regenerate every paper figure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np


def _cmd_info(args) -> int:
    import repro
    from repro.core import cache_info
    from repro.gpu import A100_40G, H100_80G

    print(f"repro {repro.__version__} — FlashInfer (MLSys 2025) reproduction")
    for spec in (A100_40G, H100_80G):
        print(
            f"  {spec.name}: {spec.num_sms} SMs, "
            f"{spec.peak_bandwidth_bytes / 1e12:.2f} TB/s, "
            f"{spec.peak_fp16_flops / 1e12:.0f} TFLOP/s fp16"
        )
    print(f"  JIT kernel cache: {cache_info()}")
    return 0


def _cmd_demo(args) -> int:
    from repro import A100_40G, AttentionMapping, BatchAttentionWrapper, WorkspaceBuffer
    from repro.core import HeadConfig, VANILLA
    from repro.diagnostics import format_plan, format_plan_load, format_report
    from repro.kvcache import PagedKVCache

    rng = np.random.default_rng(args.seed)
    heads = HeadConfig(8, 2, 64)
    cache = PagedKVCache(1024, 16, 2, 64)
    seqs = []
    for n in (700, 5300, 90, 2500):
        sid = cache.new_seq()
        cache.append(sid, rng.standard_normal((n, 2, 64)), rng.standard_normal((n, 2, 64)))
        seqs.append(sid)
    mapping = AttentionMapping(np.arange(len(seqs) + 1), cache.layout(seqs), causal=True)
    w = BatchAttentionWrapper(VANILLA, heads, WorkspaceBuffer(1 << 28), A100_40G, avg_qo_len=1)
    plan = w.plan(mapping)
    print("— schedule plan " + "—" * 48)
    print(format_plan(plan))
    q = rng.standard_normal((len(seqs), 8, 64))
    _, _, report = w.run(q, cache.k_pool, cache.v_pool)
    print("\n— simulated execution " + "—" * 42)
    print(format_report(report, A100_40G))
    print("\n— planned per-CTA load (Algorithm 1 weights) " + "—" * 18)
    print(format_plan_load(plan))
    return 0


def _cmd_generate(args) -> int:
    from repro.models import GenerationSession, TinyConfig, TinyTransformer
    from repro.models.sampling import SamplingParams, sample_token

    model = TinyTransformer(TinyConfig(), seed=args.seed)
    sess = GenerationSession(model)
    rng = np.random.default_rng(args.seed)
    prompt = rng.integers(0, model.config.vocab_size, 6).tolist()
    sid = sess.new_sequence()
    logits = sess.step([sid], [prompt])
    params = SamplingParams(temperature=args.temperature, top_k=args.top_k)
    tokens = [sample_token(logits[0], params, rng)]
    for _ in range(args.tokens - 1):
        logits = sess.step([sid], [[tokens[-1]]])
        tokens.append(sample_token(logits[0], params, rng))
    print(f"prompt : {prompt}")
    print(f"output : {tokens}")
    print(f"(temperature={args.temperature}, top_k={args.top_k}, paged attention engine)")
    return 0


def _single_engine(args, model, backend_factory=None, **kwargs):
    """The engine of every single-engine ``serve`` pass (``kwargs`` reach the
    :class:`ServingEngine` constructor: tracer, fault plan, checkpointing)."""
    from repro.serving import EngineConfig, ServingEngine

    cfg = EngineConfig(max_running=256, policy=args.policy, tensor_parallel=args.tp)
    return ServingEngine.from_config(cfg, model=model, backend_factory=backend_factory, **kwargs)


def _write_trace(args, tracer, model, noun, note=None, table=True, **metadata) -> None:
    """Write a traced pass's chrome trace and say where it went (``note``
    defaults to the embedded fault-event count); with ``table``, also the
    ``--trace-csv`` step log and the summary table."""
    from repro.obs import summary_table, write_chrome_trace, write_csv

    write_chrome_trace(
        args.trace, tracer.events,
        metadata={"model": model.name, "backend": "flashinfer",
                  "requests": args.requests, "rate": args.rate, **metadata},
        fault_events=tracer.fault_events,
    )
    note = note or f"{len(tracer.fault_events)} fault events embedded"
    lead = "\n  " if table else "    "
    print(f"{lead}{noun} → {args.trace} ({note})")
    if table:
        if args.trace_csv:
            write_csv(args.trace_csv, tracer.events)
            print(f"  {'step log':<{len(noun)}} → {args.trace_csv}")
        print("\n" + summary_table(tracer) + "\n")


def _cmd_serve(args) -> int:
    from repro.serving import (
        CheckpointConfig, DirectoryStore, FlashInferBackend, LLAMA_3_1_8B,
        TritonBackend, TRTLLMBackend, sharegpt_workload,
    )

    model = LLAMA_3_1_8B
    if args.recover:
        return _serve_recover(args, model)
    features = [
        flag if value is True else f"{flag} {value}" for flag, value in (
            ("--disagg", args.disagg), ("--prefix-cache", args.prefix_cache),
            ("--overload", args.overload), ("--fail-replica", args.fail_replica),
        ) if value not in (None, False)
    ]
    if features or args.tp > 1 or args.dp is not None:
        for flag in ("chaos", "crash", "journal"):
            if getattr(args, flag):
                print(f"serve: --{flag} drives the single-engine path and "
                      f"cannot be combined with {(features + ['--tp/--dp'])[0]}",
                      file=sys.stderr)
                return 2
        try:
            return _serve_cluster(args, model, features)
        except ValueError as exc:
            # Flags that cannot be honoured together (a role split that
            # contradicts --dp, a router that cannot serve role pools, a
            # tp that does not divide the heads) are refused, not dropped.
            print(f"serve: {exc}", file=sys.stderr)
            return 2
    requests = sharegpt_workload(args.requests, args.rate, seed=args.seed)
    if args.crash:
        return _serve_crash(args, model, requests)
    print(f"{args.requests} ShareGPT-like requests at {args.rate} req/s, {model.name} on H100")
    for make in (FlashInferBackend, TritonBackend, TRTLLMBackend):
        # The FlashInfer run (the system under test) carries the tracer —
        # unless --chaos is on, in which case the chaos run below gets it.
        tracer = None
        if args.trace and make is FlashInferBackend and not args.chaos:
            from repro.obs import StepTracer

            tracer = StepTracer()
        # Checkpointing only instruments the system under test; the
        # competitor backends stay on the plain hot path.
        ckpt = store = None
        if args.checkpoint_every > 0 and make is FlashInferBackend:
            ckpt = CheckpointConfig(every_steps=args.checkpoint_every)
            if args.journal:
                store = DirectoryStore(args.journal)
        engine = _single_engine(
            args, model, make, tracer=tracer, checkpoint=ckpt, checkpoint_store=store
        )
        s = engine.run(requests).summary()
        print(
            f"  {engine.backend.name:>10s}: ITL {s['median_itl'] * 1e3:6.2f} ms, "
            f"TTFT {s['median_ttft'] * 1e3:6.1f} ms, "
            f"P99 TTFT {s['p99_ttft'] * 1e3:5.0f} ms"
        )
        if ckpt is not None:
            print(
                f"             checkpoints: {int(s['ckpt_snapshots'])} snapshots, "
                f"{int(s['ckpt_journal_records'])} journal records"
                + (f" → {args.journal}" if args.journal else " (in memory)")
            )
        if tracer is not None:
            _write_trace(args, tracer, model, "step trace",
                         "load in chrome://tracing or Perfetto")

    if args.chaos:
        return _serve_chaos(args, model, requests)
    return 0


#: ``serve`` report sections, printed when the section's first key is in
#: :meth:`ClusterMetrics.summary` — each feature's keys exist only when
#: the feature ran, so the sections compose the way the features do.
_SERVE_SECTIONS = (
    ("latency", ("cluster_p50_ttft", "cluster_p95_ttft", "cluster_p99_ttft",
                 "cluster_p50_itl", "cluster_p95_itl", "cluster_p99_itl")),
    ("links", ("link_bytes", "link_utilization", "link_degradations")),
    ("handoff", ("handoff_requests", "handoff_pages", "handoff_bytes",
                 "handoff_chunks", "handoff_retries", "handoff_pages_skipped",
                 "link_handoff_bytes", "handoff_transfer_s")),
    ("failover", ("failover_detect_s", "failover_recovery_s",
                  "failover_transitions", "failover_inflight_migrated",
                  "failover_fallbacks")),
    ("migration", ("migration_pages", "migration_chunks", "migration_bytes",
                   "migration_retries", "link_migration_bytes")),
    ("prefix", ("cluster_radix_hit_tokens", "cluster_radix_hit_prompts",
                "cluster_cascade_steps", "cluster_cascade_bytes_saved")),
    ("front door", ("overload_offered", "overload_admitted",
                    "overload_rejected", "overload_retries",
                    "overload_dropped", "overload_timeouts",
                    "overload_reroutes")),
    ("breakers", ("breaker_open_total", "breaker_half_open_total",
                  "breaker_close_total")),
    ("brownout", ("brownout_engaged", "brownout_annealed",
                  "brownout_peak_level", "brownout_final_level")),
    ("hedging", ("hedged_prefills", "hedge_wins")),
    ("slo", ("slo_attainment",)),
)


def _print_arm(title: str, cm) -> None:
    """One cluster run: the makespan line, a line per replica, then every
    report section its summary has keys for."""
    s = cm.summary()
    print(
        f"  {title}: {s['cluster_total_time'] * 1e3:.1f} ms makespan, "
        f"{s['cluster_throughput_tok_s']:.0f} tok/s, "
        f"{int(s['cluster_output_tokens'])} tokens, "
        f"{int(s['cluster_preemptions'])} preemptions"
    )
    for i in range(cm.dp):
        print(
            f"    replica {i} : {int(s[f'replica{i}_requests']):3d} requests, "
            f"{s[f'replica{i}_total_time'] * 1e3:8.1f} ms, "
            f"{s[f'replica{i}_throughput_tok_s']:7.0f} tok/s, "
            f"{s[f'replica{i}_utilization']:6.1%} of makespan"
        )
    for label, keys in _SERVE_SECTIONS:
        if keys[0] in s:
            print(f"    {label:<10}: " + " ".join(
                f"{key.removeprefix('cluster_')}={_fmt_metric(key, s.get(key, 0.0))}"
                for key in keys
            ))


def _fmt_metric(key: str, value: float) -> str:
    if key.endswith(("_s", "_ttft", "_itl")):
        return f"{value * 1e3:.2f}ms"
    return str(int(value)) if float(value).is_integer() else f"{value:.3f}"


def _serve_cluster(args, model, features) -> int:
    """The one cluster ``serve`` path.

    The flags build one workload, one :class:`ClusterConfig` and the
    engine's keyword arguments, so ``--tp/--dp``, ``--disagg``,
    ``--prefix-cache``, ``--overload`` and ``--fail-replica`` compose.  It
    runs the single-GPU token oracle, the requested cluster, and one
    *control arm* — the same trace with every requested feature off (or,
    with no feature requested, at dp=1) — then prints each report section
    whose keys :meth:`ClusterMetrics.summary` emitted.  Exit code 0 means
    every stream of both arms matched the oracle.
    """
    import dataclasses

    from repro.cluster import (
        BreakerConfig, ClusterConfig, ClusterEngine, FailoverConfig,
        ReplicaFailure, expected_tokens, parse_roles,
    )
    from repro.faults import FaultPlan
    from repro.gpu import H100_80G
    from repro.serving import (
        EngineConfig, bursty_workload, mixed_disagg_workload,
        shared_prefix_workload, sharegpt_workload,
    )
    from repro.serving.overload import OverloadConfig, slo_attainment

    dp = args.dp or 1
    if args.disagg:
        dp = sum(len(pool) for pool in parse_roles(args.disagg, args.dp))
    failure = None
    if args.fail_replica is not None:
        step, _, mode = str(args.fail_replica).partition(":")
        failure = ReplicaFailure(int(step), mode or "crash")

    # The workload is the one the leading feature is about; the engine
    # template takes every requested feature's settings.
    engine = dict(max_running=256, policy=args.policy)
    if args.overload or args.prefix_cache or args.disagg:
        engine.update(chunked_prefill=True, composable=True)
    overload = None
    if args.overload:
        dp = max(dp, 2)
        requests = bursty_workload(
            args.requests, args.rate, seed=args.seed, tenants=args.tenants,
            burst=args.burst, burst_len=0.25, burst_every=0.6,
        )
        kind = f"bursty ({args.tenants} tenants, {args.burst:g}x bursts)"
        engine.update(max_running=16, prefill_chunk_size=256)
        overload = OverloadConfig(
            tenants=args.tenants, admit_rate=24.0, burst_capacity=8.0,
            max_client_retries=5, retry_budget=2.0, retry_base=0.08,
            seed=args.seed, slo_ttft=0.4, engage_after=25, anneal_after=60,
            brownout_clamp=32,
            breaker=BreakerConfig(fail_threshold=3, cooldown=0.25,
                                  probe_successes=2, pressure_threshold=0.5),
        )
    elif args.prefix_cache:
        requests = shared_prefix_workload(args.requests, args.rate, seed=args.seed)
        kind = "shared-prefix"
    elif args.disagg:
        requests = mixed_disagg_workload(args.requests, args.rate, seed=args.seed)
        kind = "mixed long-prompt/chatty"
    else:
        requests = sharegpt_workload(args.requests, args.rate, seed=args.seed)
        kind = "ShareGPT-like"

    # ``plain`` is the cluster with every feature off; ``cfg`` turns the
    # requested ones on.
    plain = ClusterConfig(
        tp=args.tp, dp=dp, topology=args.topology, router=args.router,
        engine=EngineConfig(**engine),
        checkpoint_every=args.checkpoint_every,
    )
    cfg = dataclasses.replace(
        plain, roles=args.disagg, overload=overload,
        engine=dataclasses.replace(plain.engine, prefix_cache=args.prefix_cache),
        failover=FailoverConfig() if failure else None,
    )
    cluster = ClusterEngine(
        model, H100_80G, cfg, trace=bool(args.trace),
        replica_failures={0: failure} if failure else None,
        fault_plan=(
            FaultPlan(seed=args.seed, timeout_rate=0.08) if overload else None
        ),
    )
    print(
        f"{len(requests)} {kind} requests at {args.rate} req/s, {model.name} "
        f"on a {args.tp * dp}-GPU H100 cluster (tp={args.tp}, dp={dp}, "
        f"{args.topology} topology, {cluster.router.name} router"
        + "".join(f", {flag}" for flag in features) + ")"
    )

    # The oracle has every feature off: caching, disaggregation, failover
    # and admission control are timing-only (brownout clamps cut a stream
    # to an exact prefix, which token_divergence accepts).
    control = ClusterEngine(
        model, H100_80G, plain if features else dataclasses.replace(plain, dp=1)
    )
    oracle = expected_tokens(control.run_reference(requests))
    cm = cluster.run(requests)
    _print_arm("run", cm)
    divergent, compared = cm.token_divergence(oracle)
    if features or dp > 1:
        base = control.run(requests)
        _print_arm(f"control arm ({'features off' if features else 'dp=1'})", base)
        if overload is not None:
            _, met = slo_attainment(base, len(requests), overload.slo_ttft)
            print(f"    slo       : slo_attainment={met:.3f}")
        if not features:
            speedup = cm.throughput_tokens_per_s() / base.throughput_tokens_per_s()
            print(f"  dp_speedup={speedup:.2f} (vs dp=1 at tp={args.tp})")
        base_divergent, base_compared = base.token_divergence(oracle)
        divergent += base_divergent
        compared += base_compared
    print(
        f"  token_divergence={divergent} "
        f"({compared} streams compared vs single-GPU reference)"
    )
    if args.trace:
        from repro.obs import write_cluster_trace

        write_cluster_trace(
            args.trace, cluster.trace_processes(),
            metadata={"model": model.name, "tp": args.tp, "dp": dp,
                      "topology": args.topology, "router": cluster.router.name,
                      "requests": args.requests, "rate": args.rate},
        )
        print(f"  cluster trace → {args.trace} "
              f"({dp} replica process rows, shared simulated clock)")
    return 0 if divergent == 0 else 1


def _serve_chaos(args, model, requests) -> int:
    """The ``serve --chaos`` pass: a no-fault resilience baseline, then a
    seeded chaos run, and a token-exactness comparison between the two."""
    from repro.faults import ResilienceConfig, chaos_plan

    resil = ResilienceConfig(deadline=args.deadline, max_retries=args.max_retries)
    baseline = _single_engine(args, model, resilience=resil).run(requests)

    tracer = None
    if args.trace:
        from repro.obs import StepTracer

        tracer = StepTracer()
    chaos = _single_engine(
        args, model, tracer=tracer, fault_plan=chaos_plan(args.chaos_seed),
        resilience=resil,
    ).run(requests)

    s = chaos.summary()
    expected = {(t.req_id, t.gen_index): t.tokens for t in baseline.traces}
    compared = [
        t for t in chaos.traces if (t.req_id, t.gen_index) in expected
    ]
    divergent = sum(
        1 for t in compared if t.tokens != expected[(t.req_id, t.gen_index)]
    )
    print(f"\n  chaos (seed {args.chaos_seed}):")
    print(
        f"    faults_injected={int(s['faults_injected'])} "
        f"kernel_faults={int(s['kernel_faults'])} "
        f"checksum_failures={int(s['checksum_failures'])} "
        f"alloc_faults={int(s['alloc_faults'])}"
    )
    print(
        f"    retries={int(s['retries'])} sheds={int(s['sheds'])} "
        f"degraded_steps={int(s['degraded_steps'])} "
        f"watchdog_flags={int(s['watchdog_flags'])}"
    )
    print(
        f"    token_divergence={divergent} "
        f"({len(compared)} streams compared, {chaos.sheds} shed)"
    )
    if tracer is not None:
        _write_trace(args, tracer, model, "chaos trace", chaos_seed=args.chaos_seed)
    return 0 if divergent == 0 else 1


def _serve_crash(args, model, requests) -> int:
    """The ``serve --crash N`` pass: an uninterrupted baseline, then a
    kill/restore campaign (scripted deaths, plus seeded-random ones under
    ``--crash-rate``) recovered via snapshot + journal replay, and a
    token-exactness comparison between the two."""
    from repro.faults import ResilienceConfig, chaos_plan
    from repro.serving import (
        CheckpointConfig, CheckpointStore, CrashHarness, DirectoryStore,
    )

    resil = ResilienceConfig(deadline=args.deadline, max_retries=args.max_retries)
    every = args.checkpoint_every if args.checkpoint_every > 0 else 4

    # Uninterrupted baseline: same workload, same fault seed (when --chaos),
    # no deaths.  Every surviving stream must match it byte for byte.
    baseline = _single_engine(
        args, model, resilience=resil,
        fault_plan=chaos_plan(args.chaos_seed) if args.chaos else None,
    ).run(requests)
    expected = {(t.req_id, t.gen_index): t.tokens for t in baseline.traces}

    store = DirectoryStore(args.journal) if args.journal else CheckpointStore()
    # One fault plan shared across process "lives" keeps the crash RNG
    # stream advanced past already-fired deaths (recovery rewinds every
    # other site stream to the snapshot).
    shared_plan = None
    if args.chaos or args.crash_rate > 0:
        shared_plan = chaos_plan(
            args.chaos_seed if args.chaos else 0, crash_rate=args.crash_rate
        )
        if not args.chaos:
            for site in ("kernel", "corrupt", "alloc", "straggler"):
                shared_plan.disarm(site)
    tracer = None
    if args.trace:
        from repro.obs import StepTracer

        tracer = StepTracer()

    def factory():
        return _single_engine(
            args, model, tracer=tracer, fault_plan=shared_plan, resilience=resil,
            checkpoint=CheckpointConfig(every_steps=every),
            checkpoint_store=store,
        )

    # Alternate boundary and mid-step kills so any N >= 2 exercises both.
    script = [
        (3 + 4 * k, "mid-step" if k % 2 else "boundary") for k in range(args.crash)
    ]
    report = CrashHarness(
        factory, requests, store, crash_script=script, expected_tokens=expected
    ).run()

    s = report.metrics.summary()
    phases = ", ".join(
        f"{p}×{report.crash_phases.count(p)}"
        for p in dict.fromkeys(report.crash_phases)
    )
    print(f"\n  kill/restore ({args.crash} scripted kills, "
          f"crash-rate {args.crash_rate}, snapshot every {every} steps):")
    print(f"    crashes={report.crashes} ({phases}) recoveries={report.recoveries}")
    print(
        f"    snapshots={int(s['ckpt_snapshots'])} "
        f"journal_records={int(s['ckpt_journal_records'])} "
        f"replayed_tokens={int(s['recover_replayed_tokens'])} "
        f"resumed_streams={int(s['recover_resumed'])}"
    )
    print(
        f"    token_divergence={report.token_divergence} "
        f"({report.compared} streams compared vs uninterrupted baseline)"
    )
    if args.journal:
        print(f"    journal + snapshots → {args.journal}")
    if tracer is not None:
        _write_trace(args, tracer, model, "recovery trace", table=False,
                     crashes=report.crashes)
    ok = report.token_divergence == 0 and report.crashes >= args.crash
    return 0 if ok else 1


def _serve_recover(args, model) -> int:
    """The ``serve --recover`` cold start: open the journal directory from
    a previous (killed) ``serve --checkpoint-every N --journal DIR`` run,
    load and verify the latest snapshot, and resume it to completion."""
    from repro.faults import FaultPlan
    from repro.serving import (
        CheckpointConfig, DirectoryStore, NoSnapshotError, RecoveryManager,
        SnapshotIntegrityError, SnapshotVerificationError, WorldMismatchError,
    )
    from repro.serving.checkpoint import snapshot_world

    if not args.journal:
        print("serve --recover needs --journal DIR (the directory the "
              "crashed run was journaling to)", file=sys.stderr)
        return 2
    store = DirectoryStore(args.journal)
    try:
        # A snapshot taken at one cluster shape must not be resumed into
        # another: the KV cache is sharded by tp and the request subset by
        # dp, so a shape change would silently corrupt the resumed run.
        recovered = RecoveryManager(
            store, expected_world={"tp": args.tp, "dp": args.dp or 1}
        ).recover()
    except NoSnapshotError as exc:
        print(f"nothing to recover: {exc}", file=sys.stderr)
        return 1
    except WorldMismatchError as exc:
        print(f"refusing to resume: {exc}", file=sys.stderr)
        return 1
    except (SnapshotIntegrityError, SnapshotVerificationError) as exc:
        print(f"refusing to resume: {exc}", file=sys.stderr)
        return 1
    snap = recovered.snapshot
    print(
        f"recovering {args.journal}: snapshot {recovered.snapshot_id} "
        f"(step {snap['steps_done']}, t={snap['t']:.3f}s, "
        f"{len(recovered.corrupt_pages)} KV pages to recompute, "
        f"{recovered.replay.window_size if recovered.replay else 0} "
        f"journaled tokens to replay)"
    )
    # Rebuild the fault plan from the snapshot, but keep the crash site
    # disarmed: re-seeding the death we are recovering from would re-kill
    # the resumed run at the same step, forever.
    plan = None
    if snap["fault_plan"] is not None:
        plan = FaultPlan.from_state(snap["fault_plan"])
        plan.disarm("crash")
    every = args.checkpoint_every if args.checkpoint_every > 0 else 4
    # Rebuild the engine at the snapshot's cluster shape: sharded heads
    # for tp > 1 (``from_config``), and the dp coordinates the replica ran at.
    snap_world = snapshot_world(snap)
    engine = _single_engine(
        args, model, fault_plan=plan,
        checkpoint=CheckpointConfig(every_steps=every), checkpoint_store=store,
    )
    engine.dp_world = int(snap_world["dp"])
    engine.dp_rank = int(snap_world["replica"])
    s = engine.resume(recovered).summary()
    print(
        f"  resumed to completion: ITL {s['median_itl'] * 1e3:6.2f} ms, "
        f"TTFT {s['median_ttft'] * 1e3:6.1f} ms, "
        f"{int(s['recover_resumed'])} streams resumed"
    )
    print(
        f"  replay: {int(s['recover_replayed_tokens'])} journaled tokens "
        f"re-verified, divergence={int(s['recover_token_divergence'])}"
    )
    return 0 if int(s["recover_token_divergence"]) == 0 else 1


def _cmd_figures(args) -> int:
    print("Regenerate every paper figure (tables print with -s):")
    print("  pytest benchmarks/ --benchmark-only -s")
    print("Individual figures:")
    for fig, target in [
        ("Figure 7 (end-to-end serving)", "benchmarks/test_fig7_e2e_serving.py"),
        ("Figure 8 (kernel dynamism)", "benchmarks/test_fig8_kernel_dynamism.py"),
        ("Figure 9 (StreamingLLM)", "benchmarks/test_fig9_streaming_llm.py"),
        ("Figure 10 (parallel generation)", "benchmarks/test_fig10_parallel_generation.py"),
        ("Figure 12 (sparse overhead)", "benchmarks/test_fig12_sparse_overhead.py"),
        ("Design ablations", "benchmarks/test_ablation_*.py"),
    ]:
        print(f"  {fig:38s} pytest {target} --benchmark-only -s")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="FlashInfer reproduction: attention engine demos and tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="library and simulated-GPU summary")

    demo = sub.add_parser("demo", help="plan/run a batch with diagnostics")
    demo.add_argument("--seed", type=int, default=0)

    gen = sub.add_parser("generate", help="generate tokens with the tiny model")
    gen.add_argument("--tokens", type=int, default=16)
    gen.add_argument("--temperature", type=float, default=0.8)
    gen.add_argument("--top-k", type=int, default=8, dest="top_k")
    gen.add_argument("--seed", type=int, default=0)

    from repro.cluster.router import available_routing_policies
    from repro.cluster.topology import TOPOLOGY_PRESETS
    from repro.serving.policy import available_policies

    serve = sub.add_parser("serve", help="compare serving backends")
    serve.add_argument("--requests", type=int, default=40)
    serve.add_argument("--rate", type=float, default=60.0)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--tp", type=int, default=1, metavar="N",
        help="tensor-parallel shards per replica (must divide the model's "
        "query heads); tp > 1 switches serve to the cluster path with a "
        "token-exactness check against a single-GPU reference run",
    )
    serve.add_argument(
        "--dp", type=int, default=None, metavar="M",
        help="data-parallel replicas behind the cluster router (default 1, "
        "or the --disagg pool sizes); with no other cluster feature the "
        "control arm is a dp=1 run and the dp_speedup over it is reported",
    )
    serve.add_argument(
        "--topology", default="nvlink", choices=sorted(TOPOLOGY_PRESETS),
        help="interconnect preset used to price collectives on the "
        "cluster path (default: nvlink)",
    )
    serve.add_argument(
        "--router", default="round-robin",
        help="routing policy for dp > 1; registered: "
        f"{', '.join(available_routing_policies())} (default: round-robin)",
    )
    serve.add_argument(
        "--policy", default="fcfs",
        help="scheduling policy for the admitted prefill queue; registered: "
        f"{', '.join(available_policies())} "
        "(default: fcfs, token-exact with the classic engine)",
    )
    serve.add_argument(
        "--trace", metavar="OUT.json", default=None,
        help="record a step-level trace of the FlashInfer run and write "
        "Chrome trace_event JSON (chrome://tracing / Perfetto)",
    )
    serve.add_argument(
        "--trace-csv", metavar="OUT.csv", default=None, dest="trace_csv",
        help="also write the per-step CSV log (requires --trace)",
    )
    serve.add_argument(
        "--prefix-cache", action="store_true", dest="prefix_cache",
        help="serve a shared-prefix workload cold and warm (radix prefix "
        "cache + cascade attention), verify token-exactness against the "
        "single-GPU reference, and report the prefill FLOPs and HBM bytes "
        "saved (composes with --tp/--dp/--router)",
    )
    serve.add_argument(
        "--chaos", action="store_true",
        help="after the comparison, run the FlashInfer engine again under a "
        "seeded fault plan (transient kernel faults, KV corruption, alloc "
        "failures, stragglers) and verify token-exact recovery",
    )
    serve.add_argument(
        "--chaos-seed", type=int, default=7, dest="chaos_seed",
        help="seed for the chaos fault plan (default: 7)",
    )
    serve.add_argument(
        "--deadline", type=float, default=None,
        help="per-request deadline in seconds after arrival; expired "
        "requests are shed (chaos/resilience runs only)",
    )
    serve.add_argument(
        "--max-retries", type=int, default=3, dest="max_retries",
        help="recompute retries per stream before it is shed (default: 3)",
    )
    serve.add_argument(
        "--checkpoint-every", type=int, default=0, dest="checkpoint_every",
        metavar="N",
        help="snapshot the full engine state every N executed steps "
        "(0 = off, the default: no journal writes, no snapshot copies)",
    )
    serve.add_argument(
        "--journal", metavar="DIR", default=None,
        help="persist snapshots and the write-ahead request journal to DIR "
        "(atomic snap-*.json files + journal.jsonl); omit for in-memory",
    )
    serve.add_argument(
        "--recover", action="store_true",
        help="cold start: load the latest snapshot from --journal DIR, "
        "verify its KV pages, replay the journal window and resume the "
        "killed run to completion",
    )
    serve.add_argument(
        "--crash", type=int, default=0, metavar="N",
        help="kill/restore campaign: inject N scripted engine deaths "
        "(alternating step-boundary and mid-step), recover each from the "
        "latest snapshot + journal, and verify token-exactness against an "
        "uninterrupted baseline (composes with --chaos)",
    )
    serve.add_argument(
        "--crash-rate", type=float, default=0.0, dest="crash_rate",
        metavar="P",
        help="additionally arm seeded-random engine death at probability P "
        "per step phase (requires --crash for the kill/restore harness)",
    )
    serve.add_argument(
        "--overload", action="store_true",
        help="overload drill: drive a bursty multi-tenant workload at a "
        "multiple of cluster capacity through the tenant-aware front door, "
        "circuit breakers, hedged prefill and the SLO-driven brownout "
        "ladder (dp >= 2; accepted streams stay token-exact vs an "
        "uncontended reference, and the run reports the SLO attainment "
        "delta vs the same trace without the overload layer)",
    )
    serve.add_argument(
        "--tenants", type=int, default=4,
        help="tenant count for --overload: per-tenant token buckets at the "
        "front door, weighted-fair admission (default: 4)",
    )
    serve.add_argument(
        "--burst", type=float, default=3.0,
        help="burst multiplier for --overload's arrival process: seeded "
        "Poisson bursts at this multiple of the diurnal base rate "
        "(default: 3.0)",
    )
    serve.add_argument(
        "--disagg", default=None, metavar="prefill=N,decode=M",
        help="disaggregated serving: partition the dp pool into dedicated "
        "prefill and decode replicas; finished prompts hand their live KV "
        "pages to a paired decode replica over priced handoff links "
        "(checksummed chunks, bounded retry), and the resumed streams are "
        "verified token-exact against a single-GPU reference",
    )
    serve.add_argument(
        "--fail-replica", default=None, dest="fail_replica",
        metavar="STEP[:crash|drain]",
        help="cluster failover demo: kill (or drain, for planned scale-in) "
        "replica 0 at engine step STEP with failover enabled — heartbeat "
        "timeout detection, live KV migration to a healthy replica over "
        "priced topology links, token-exact takeover resume (use with "
        "--dp >= 2; dp=1 falls back to in-place recovery)",
    )

    sub.add_parser("figures", help="how to regenerate the paper figures")

    args = parser.parse_args(argv)
    return {
        "info": _cmd_info,
        "demo": _cmd_demo,
        "generate": _cmd_generate,
        "serve": _cmd_serve,
        "figures": _cmd_figures,
    }[args.command](args)


if __name__ == "__main__":
    sys.exit(main())

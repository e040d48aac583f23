"""Step-level tracing and profiling of a serving run (repro.obs).

Runs a ShareGPT-like workload through the serving engine with a
:class:`repro.obs.StepTracer` attached, then shows the three exporters:

* a Chrome ``trace_event`` JSON you can open in ``chrome://tracing`` or
  https://ui.perfetto.dev — steps, per-component lanes (attention / GEMM /
  allreduce / LM head / overhead), per-kernel slices, and KV-pool counters;
* a per-step CSV log;
* a text summary read off the same events: step and token counts,
  per-component time and exact step-latency percentiles.

The tracer keeps only the events; the latency numbers of the run itself
(TTFT, ITL, throughput) come from ``ServingMetrics.summary()``.

Standalone API-wrapper calls are profiled with the same schema: pass a
tracer to ``single_prefill_with_kv_cache`` / the batch wrappers and each
``run()`` appends a ``KernelRecord``.

Run:  PYTHONPATH=src python examples/tracing_profiling.py
"""

import numpy as np

from repro.api import single_prefill_with_kv_cache
from repro.core import HeadConfig
from repro.diagnostics import format_step_events
from repro.gpu import H100_80G
from repro.obs import StepTracer, summary_table, to_csv, write_chrome_trace
from repro.serving import (
    EngineConfig,
    FlashInferBackend,
    LLAMA_3_1_8B,
    ServingEngine,
    sharegpt_workload,
)


def main() -> None:
    model = LLAMA_3_1_8B
    heads = HeadConfig(model.num_qo_heads, model.num_kv_heads, model.head_dim)
    requests = sharegpt_workload(24, rate=80.0, seed=0)

    tracer = StepTracer()  # capture_kernels=True by default
    engine = ServingEngine(
        model,
        FlashInferBackend(heads, H100_80G),
        H100_80G,
        EngineConfig(max_running=128, chunked_prefill=True),
        tracer=tracer,
    )
    metrics = engine.run(requests)

    print(f"{len(requests)} requests served in {metrics.total_time * 1e3:.1f} ms "
          f"over {tracer.num_steps} engine steps\n")

    # 1. Chrome trace — open in chrome://tracing or Perfetto.
    write_chrome_trace("serving_trace.json", tracer.events,
                       metadata={"model": model.name})
    print("wrote serving_trace.json (chrome://tracing)")

    # 2. CSV step log (first lines shown).
    csv = to_csv(tracer.events)
    print("\n— step log (CSV head) " + "—" * 42)
    print("\n".join(csv.splitlines()[:5]))

    # 3. Per-step table + the summary read off the events.
    print("\n— per-step view " + "—" * 48)
    print(format_step_events(tracer.events, max_rows=10))
    print()
    print(summary_table(tracer))

    # Standalone wrapper profiling with the same schema.
    single_tracer = StepTracer()
    q = np.random.default_rng(0).standard_normal((128, heads.num_qo_heads, heads.head_dim))
    kv = np.random.default_rng(1).standard_normal((128, heads.num_kv_heads, heads.head_dim))
    single_prefill_with_kv_cache(q, kv, kv, gpu=H100_80G, tracer=single_tracer)
    rec = single_tracer.kernels[-1]
    print(f"\nstandalone single_prefill: {rec.name} ran {rec.num_tiles} tiles "
          f"in {rec.makespan * 1e6:.1f} µs (balance {rec.balance:.2f})")


if __name__ == "__main__":
    main()

"""Parallel generation with composable formats (paper §3.1.2, §4.4).

Each request asks for ``n`` parallel completions (the OpenAI ``n``
parameter).  All ``n`` decode streams share the prompt's KV pages; the
composable-format decomposition computes attention over the shared prefix
once per cluster with a large block row size, then merges with the
per-stream suffix states using the ``⊕`` operator.

Run:  python examples/parallel_generation.py
"""

from repro.core import HeadConfig
from repro.gpu import H100_80G
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
    print(f"{'n':>3s} {'single ITL':>12s} {'composable ITL':>15s} {'speedup':>8s}")
    for n in (1, 2, 4, 8, 16):
        requests = sharegpt_workload(num_requests=24, rate=16.0, seed=1, n=n)
        itl = {}
        for composable in (False, True):
            backend = FlashInferBackend(heads, H100_80G)
            engine = ServingEngine(
                model, backend, H100_80G,
                EngineConfig(max_running=1024, composable=composable),
            )
            metrics = engine.run(requests)
            itl[composable] = metrics.median_itl()
        speedup = 1 - itl[True] / itl[False]
        print(
            f"{n:3d} {itl[False] * 1e3:9.2f} ms {itl[True] * 1e3:12.2f} ms "
            f"{speedup:7.1%}"
        )
    print("\n(peak benefit is expected at moderate n; tiny n lacks sharing,")
    print(" huge n is no longer attention-dominated — paper Figure 10)")


if __name__ == "__main__":
    main()

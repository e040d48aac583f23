"""A real transformer generating tokens through the serving engine.

Builds a tiny randomly-initialized Llama-style model and serves it two
ways: (a) the dense oracle (full forward pass recomputed every token) and
(b) the production path — ``ServingEngine`` with its paged KV cache,
price-chosen plans and the JIT-compiled kernel — verifying the two
generate token-identical output.  Then it serves an ``n=2`` request with
sampling: both generations decode from the prompt's KV pages, shared by
refcount instead of copied.

Run:  python examples/tiny_model_generation.py
"""

from repro.models import TinyConfig, TinyTransformer
from repro.models.sampling import SamplingParams
from repro.serving import EngineConfig, Request, ServingEngine


def main() -> None:
    model = TinyTransformer(TinyConfig(num_layers=3), seed=7)
    request = Request(0.0, 6, 12)
    prompt = model.prompt(request, 0).tolist()

    dense = model.greedy_generate_dense(prompt, 12)
    engine = ServingEngine.from_config(EngineConfig(num_pool_pages=8), model=model)
    (paged,) = engine.run([request]).traces

    print(f"prompt tokens : {prompt}")
    print(f"dense oracle  : {dense}")
    print(f"paged engine  : {paged.tokens}")
    print(f"token-exact   : {dense == paged.tokens}")

    # Parallel generation: the finished prompt's sequence is forked once
    # per extra generation, sharing its full pages (zero copies); each
    # generation samples its own continuation.
    sampled = TinyTransformer(
        TinyConfig(num_layers=3), seed=7, sampling=SamplingParams(temperature=0.8, top_k=8)
    )
    engine = ServingEngine.from_config(EngineConfig(num_pool_pages=16), model=sampled)
    shared = []
    engine.heartbeat = lambda t: shared.append(
        sum(engine.cache.page_refcount(p) > 1 for p in engine.cache.used_pages())
    )
    metrics = engine.run([Request(0.0, 40, 8, n=2)])
    print()
    for trace in sorted(metrics.traces, key=lambda tr: tr.gen_index):
        print(f"generation {trace.gen_index} (sampled) : {trace.tokens}")
    print(f"prompt pages shared between generations (refcount > 1): {max(shared)}")


if __name__ == "__main__":
    main()

"""Figure 10: parallel generation with composable formats (paper §4.4).

The MLC-Engine-analog serving engine under a prefix-caching configuration:
each request generates ``n`` parallel completions (forked decode streams
sharing the prompt's KV pages), with the composable-format decomposition
toggled on/off.  Request rate 16, Llama-3.1-8B (TP1) and 70B (TP4) on H100.

Workload note (DESIGN.md): parallel generation is used for agent-style
fan-out over substantial prompts, so this benchmark's ShareGPT-like
marginals weight prompts more heavily (mean ≈ 650 tokens) than the raw
chat distribution — with very short prompts the shared-prefix traffic is
too small a share of a decode step for either system to notice.

Paper shape: no benefit at n ≤ 2, consistent ITL/TTFT speedups for
moderate n, and a plateau once attention stops dominating.  (The paper's
peak lands at n=4; in our reproduction the gain ramps through n=4 and
plateaus around n=16–32 — see EXPERIMENTS.md.)
"""

import numpy as np
import pytest

from conftest import emit_table
from repro.gpu import H100_80G
from repro.serving import (
    EngineConfig,
    LLAMA_3_1_8B,
    LLAMA_3_1_70B,
    ServingEngine,
)
from repro.serving.workload import Request, poisson_arrivals
from repro.utils.rng import new_rng

N_VALUES = (1, 2, 4, 8, 16, 32)
RATE = 16.0
NUM_REQUESTS = 24


def agent_workload(n_req, rate, seed, n):
    """ShareGPT-like lengths reweighted toward long prompts (agent fan-out)."""
    rng = new_rng(seed)
    arrivals = poisson_arrivals(n_req, rate, rng)
    prompts = np.clip(np.rint(rng.lognormal(6.5, 0.6, n_req)), 64, 4096).astype(int)
    outputs = np.clip(np.rint(rng.lognormal(5.0, 0.6, n_req)), 16, 1024).astype(int)
    return [
        Request(float(a), int(p), int(o), n=n)
        for a, p, o in zip(arrivals, prompts, outputs)
    ]


def request_ttfts(metrics):
    """Each request's TTFT (its first stream's), in request order."""
    first = {}
    for trace in metrics.traces:
        first[trace.req_id] = min(first.get(trace.req_id, np.inf), trace.ttft)
    return np.array([first[r] for r in sorted(first)])


def run_experiment():
    """One row per (model, n).  The TTFT cut is paired: both arms serve the
    same requests, so it is one minus the ratio of their summed per-request
    TTFTs — a request that waits one step more in one arm and one that
    waits one step less move it by their difference, not by a reordered
    median."""
    rows = []
    for model, tp in ((LLAMA_3_1_8B, 1), (LLAMA_3_1_70B, 4)):
        for n in N_VALUES:
            requests = agent_workload(NUM_REQUESTS, RATE, 3, n)
            summaries, ttfts = {}, {}
            for composable in (False, True):
                engine = ServingEngine.from_config(
                    EngineConfig(
                        max_running=1024, composable=composable,
                        num_pool_pages=1 << 18, tensor_parallel=tp,
                    ),
                    model=model, gpu=H100_80G,
                )
                metrics = engine.run(requests)
                summaries[composable], ttfts[composable] = metrics.summary(), request_ttfts(metrics)
            assert ttfts[True].size == ttfts[False].size == NUM_REQUESTS
            d_itl = 1 - summaries[True]["median_itl"] / summaries[False]["median_itl"]
            d_ttft = 1 - ttfts[True].sum() / ttfts[False].sum()
            rows.append(
                (model.name, n,
                 summaries[False]["median_itl"] * 1e3,
                 summaries[True]["median_itl"] * 1e3,
                 d_itl * 100, d_ttft * 100)
            )
    return rows


def test_fig10_parallel_generation(once, benchmark):
    rows = once(run_experiment)
    emit_table(
        "fig10_parallel_generation",
        ["model", "n", "single_itl_ms", "composable_itl_ms",
         "itl_reduction_%", "ttft_reduction_%"],
        rows,
        benchmark,
    )
    by = {(r[0], r[1]): r for r in rows}

    for model in ("llama-3.1-8b", "llama-3.1-70b"):
        # n=1: a single stream has nothing to share.
        assert abs(by[(model, 1)][4]) < 2.0
        # Small n barely benefits; moderate n benefits consistently.
        assert by[(model, 2)][4] < by[(model, 8)][4]
        for n in (8, 16, 32):
            assert by[(model, n)][4] > 0, f"{model} n={n} shows no composable gain"

    # The 8B model reaches a double-digit ITL reduction in the moderate-n
    # band (the paper reports 13.7% at its peak).
    assert max(by[("llama-3.1-8b", n)][4] for n in (4, 8, 16)) > 10.0
    # 70B benefits too (paper: 17.4% peak).
    assert max(by[("llama-3.1-70b", n)][4] for n in (8, 16, 32)) > 10.0

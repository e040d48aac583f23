"""Figure 7: end-to-end LLM serving latency (paper §4.1).

Median inter-token latency (ITL) and time-to-first-token (TTFT) for the
serving engine with three attention backends — FlashInfer, the Triton
analog, and the TensorRT-LLM analog — on Llama-3.1-8B (1×H100, TP1) and
Llama-3.1-70B (4×H100, TP4), over ShareGPT-like and Variable workloads at
request rates near the paper's P99-TTFT ≈ 200 ms operating point.

Paper shape: 29–69% ITL reduction vs the Triton backend; competitive with
TRT-LLM on Variable; TRT-LLM somewhat ahead on ShareGPT TTFT (better
non-attention kernels/allreduce), especially for 70B.
"""

import pytest

from conftest import emit_table
from repro.gpu import H100_80G
from repro.serving import (
    EngineConfig,
    FlashInferBackend,
    LLAMA_3_1_8B,
    LLAMA_3_1_70B,
    ServingEngine,
    TritonBackend,
    TRTLLMBackend,
    sharegpt_workload,
    variable_workload,
)

CONFIGS = [
    # (model, tensor_parallel, workload name, workload factory)
    (LLAMA_3_1_8B, 1, "sharegpt", lambda: sharegpt_workload(240, 300.0, seed=0)),
    (LLAMA_3_1_8B, 1, "variable", lambda: variable_workload(120, 28.0, seed=0)),
    (LLAMA_3_1_70B, 4, "sharegpt", lambda: sharegpt_workload(160, 90.0, seed=0)),
    (LLAMA_3_1_70B, 4, "variable", lambda: variable_workload(80, 8.0, seed=0)),
]

BACKENDS = [FlashInferBackend, TritonBackend, TRTLLMBackend]


def run_experiment():
    rows = []
    for model, tp, wname, factory in CONFIGS:
        requests = factory()
        for make in BACKENDS:
            engine = ServingEngine.from_config(
                EngineConfig(max_running=512, tensor_parallel=tp),
                model=model, gpu=H100_80G, backend_factory=make,
            )
            s = engine.run(requests).summary()
            rows.append(
                (model.name, wname, engine.backend.name,
                 s["median_itl"] * 1e3, s["median_ttft"] * 1e3, s["p99_ttft"] * 1e3)
            )
    return rows


def test_fig7_e2e_serving(once, benchmark):
    rows = once(run_experiment)
    emit_table(
        "fig7_e2e_serving",
        ["model", "workload", "backend", "median_itl_ms", "median_ttft_ms", "p99_ttft_ms"],
        rows,
        benchmark,
    )
    by = {(r[0], r[1], r[2]): r for r in rows}
    for model, tp, wname, _ in CONFIGS:
        fi = by[(model.name, wname, "flashinfer")]
        tr = by[(model.name, wname, "triton")]
        trt = by[(model.name, wname, "trtllm")]
        # FlashInfer reduces ITL vs the Triton backend in every setting.
        reduction = 1 - fi[3] / tr[3]
        assert reduction > 0.10, f"{model.name}/{wname}: only {reduction:.0%} vs Triton"
        # Competitive with TRT-LLM on ITL (within 5%).
        assert fi[3] < 1.05 * trt[3]
        # TRT-LLM's stack advantage shows on TTFT.
        assert trt[4] <= fi[4] * 1.05

    # The 8B Variable setting shows the largest Triton gap (long contexts →
    # attention-dominated), matching the paper's upper band.
    big = 1 - by[("llama-3.1-8b", "variable", "flashinfer")][3] / by[
        ("llama-3.1-8b", "variable", "triton")
    ][3]
    assert big > 0.25

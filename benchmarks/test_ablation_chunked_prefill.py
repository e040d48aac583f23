"""Ablation: chunked prefill (Sarathi-serve piggybacking, paper §5.4).

Long prompts arriving mid-stream stall every running decode for their full
prefill unless the prompt is chunked and piggybacked onto decode steps.
Measures the worst decode stall and the prompt's own TTFT across chunk
sizes — the throughput-latency tradeoff Sarathi-serve targets, running on
FlashInfer's incremental-prefill (ragged-query) attention path.
"""

import numpy as np
import pytest

from conftest import emit_table
from repro.core import HeadConfig
from repro.gpu import H100_80G
from repro.serving import (
    EngineConfig,
    FlashInferBackend,
    LLAMA_3_1_8B,
    Request,
    ServingEngine,
)

MODEL = LLAMA_3_1_8B
HEADS = HeadConfig(MODEL.num_qo_heads, MODEL.num_kv_heads, MODEL.head_dim)


def run_config(chunked, chunk_size=512):
    reqs = [Request(0.0, 64, 300)] + [
        Request(0.2 + 0.4 * i, 16384, 8) for i in range(3)
    ]
    cfg = EngineConfig(
        num_pool_pages=1 << 15, chunked_prefill=chunked,
        prefill_chunk_size=chunk_size,
    )
    engine = ServingEngine(MODEL, FlashInferBackend(HEADS, H100_80G), H100_80G, cfg)
    m = engine.run(reqs)
    decode_stream = max(m.traces, key=lambda tr: len(tr.token_times))
    long_ttfts = [tr.ttft for tr in m.traces if tr is not decode_stream]
    return (
        float(decode_stream.itls.max()) * 1e3,
        float(np.median(decode_stream.itls)) * 1e3,
        float(np.median(long_ttfts)) * 1e3,
    )


def run_experiment():
    rows = []
    worst, med, ttft = run_config(False)
    rows.append(("unchunked", worst, med, ttft))
    for chunk in (512, 1024, 4096):
        worst, med, ttft = run_config(True, chunk)
        rows.append((f"chunk={chunk}", worst, med, ttft))
    return rows


def test_ablation_chunked_prefill(once, benchmark):
    rows = once(run_experiment)
    emit_table(
        "ablation_chunked_prefill",
        ["config", "worst_decode_stall_ms", "median_itl_ms", "long_prompt_ttft_ms"],
        rows,
        benchmark,
    )
    by = {r[0]: r for r in rows}
    # Chunking bounds the worst decode stall, more tightly for smaller chunks.
    assert by["chunk=512"][1] < by["chunk=4096"][1] < by["unchunked"][1]
    assert by["unchunked"][1] > 3 * by["chunk=1024"][1]
    # The tradeoff: the long prompt's TTFT does not improve from chunking.
    assert by["chunk=512"][3] >= 0.9 * by["unchunked"][3]

"""The ``kernel_batch`` workload: a closed batch of real-numerics attention
calls through the public plan/run wrappers over materialised paged KV.

Six cases per part (Llama-3.1-8B head geometry 32/8, d=128, H100), lengths
drawn from the seed:

* ``decode_zipf``   decode, batch 12, Zipf-skewed KV lengths (mean 256)
* ``decode_const``  decode, batch 12, one KV length within 1/8 of 256
* ``prefill``       causal prefill, batch 6 x 64-192
* ``decode_fp8``    decode over fp8 KV storage (Zipf lengths)
* ``decode_jit``    a JIT variant: sliding window + soft-cap + fused RoPE
* ``decode_cascade`` shared prefix of 896-1152 tokens through the
  composable wrapper, suffixes 16-80

(the paper's Fig. 8 uses batch 16 and mean 1024; real numerics in NumPy cost
about 1 ms of host time per KV token, hence the smaller shapes)

Inputs (the paged pools and queries) are built once per set-up; a timed
repetition constructs fresh wrappers and plans and runs every case.  The
oracle is a dense float64 attention over the storage-rounded K/V.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro import (
    AttentionMapping,
    BatchAttentionWrapper,
    ComposableAttentionWrapper,
    H100_80G,
    HeadConfig,
    PagedKVCache,
    WorkspaceBuffer,
    decompose_shared_prefix,
    reference_attention,
)
from repro.core import VANILLA, compose_variants
from repro.sparse import PrefixCluster
from repro.utils import StorageDType, round_to_storage
from repro.variants import apply_rope, make_fused_rope, make_logits_softcap, make_sliding_window

from layers import kernel_utilisation
from workloads import KERNEL_PAGE as PAGE, KernelCase

HEADS = HeadConfig(32, 8, 128)
WINDOW = 512
SOFTCAP = 30.0
#: Output tolerance per KV storage precision (max abs error vs the oracle).
TOLERANCE = {"fp16": 1e-3, "fp8": 5e-2}


@dataclass
class KernelInputs:
    """Materialised tensors of one case (built in set-up, reused by reps)."""

    case: KernelCase
    cache: PagedKVCache
    mapping: AttentionMapping
    formats: object  # ComposableFormat for the cascade case, else None
    q: np.ndarray


def build_inputs(case: KernelCase) -> KernelInputs:
    rng = np.random.default_rng(case.data_seed)
    h, d = HEADS.num_kv_heads, HEADS.head_dim
    # The shared prefix (whole pages) is stored once, the suffixes per sequence.
    own = sum(-(-(n - case.prefix_len) // PAGE) for n in case.kv_lens)
    pages = case.prefix_len // PAGE + own + 8
    cache = PagedKVCache(pages, PAGE, h, d)

    def kv(n):
        return (rng.standard_normal((n, h, d), dtype=np.float32),
                rng.standard_normal((n, h, d), dtype=np.float32))

    seqs = []
    if case.prefix_len:
        root = cache.new_seq()
        cache.append(root, *kv(case.prefix_len))
        for n in case.kv_lens:
            sid = cache.fork_seq(root)
            cache.append(sid, *kv(n - case.prefix_len))
            seqs.append(sid)
        cache.free_seq(root)
    else:
        for n in case.kv_lens:
            sid = cache.new_seq()
            cache.append(sid, *kv(n))
            seqs.append(sid)
    qo_indptr = np.concatenate([[0], np.cumsum(case.qo_lens)]).astype(np.int64)
    mapping = AttentionMapping(qo_indptr, cache.layout(seqs), causal=True)
    formats = None
    if case.prefix_len:
        cluster = PrefixCluster(tuple(range(len(seqs))), case.prefix_len)
        formats = decompose_shared_prefix(mapping, [cluster])
    q = rng.standard_normal((int(qo_indptr[-1]), HEADS.num_qo_heads, d))
    return KernelInputs(case, cache, mapping, formats, q)


def _jit_variant():
    return compose_variants(
        "swa_softcap_rope",
        compose_variants("swa_softcap", make_sliding_window(WINDOW),
                         make_logits_softcap(SOFTCAP)),
        make_fused_rope(),
    )


def run_case(inp: KernelInputs):
    """Plan and run one case on a fresh wrapper and workspace; returns
    ``(out, SimReport)``."""
    case = inp.case
    workspace = WorkspaceBuffer(96 * 1024 * 1024)
    if case.kind == "decode_cascade":
        w = ComposableAttentionWrapper(VANILLA, HEADS, workspace, H100_80G)
        w.plan(inp.formats)
        return w.run(inp.q, inp.cache.k_pool, inp.cache.v_pool)
    variant = _jit_variant() if case.kind == "decode_jit" else VANILLA
    dtype = StorageDType.FP8_E4M3 if case.precision == "fp8" else StorageDType.FP16
    w = BatchAttentionWrapper(
        variant, HEADS, workspace, H100_80G,
        avg_qo_len=float(np.mean(case.qo_lens)), kv_dtype=dtype,
        name=f"bench_{case.kind}",
    )
    w.plan(inp.mapping)
    out, _, report = w.run(inp.q, inp.cache.k_pool, inp.cache.v_pool)
    return out, report


def run_batch(inputs: List[KernelInputs]):
    """One repetition: every case of one part; returns one ``(out,
    SimReport)`` per call, in call order."""
    return [run_case(inp) for inp in inputs]


# -- simulated metrics ----------------------------------------------------------------

#: Kernel "SLO": a call meets it when its simulated time stays within
#: ``1 / ROOFLINE_TARGET`` of the roofline bound for the bytes and FLOPs it
#: moves (the lower of peak compute and peak bandwidth times ops per byte).
ROOFLINE_TARGET = 0.35


def roofline_share(report) -> float:
    """Roofline-bound time over simulated time for one call."""
    ideal = max(report.total_bytes / H100_80G.peak_bandwidth_bytes,
                report.total_flops / H100_80G.peak_fp16_flops)
    return ideal / report.makespan


def utilisation(calls) -> Dict[str, float]:
    """Fig. 8's quantities over ``(case, SimReport)`` pairs."""
    return kernel_utilisation((c.decode, r) for c, r in calls)


def sim_metrics(calls) -> Dict[str, float]:
    """End-to-end metrics of the closed batch on the simulated clock.

    The serving names map onto kernels as: TTFT = simulated latency of a
    prefill call, ITL = simulated latency of a decode call (one layer's
    attention), tokens = query tokens attended, attainment = share of calls
    reaching ``ROOFLINE_TARGET`` of their roofline bound.
    """
    makespan = sum(r.makespan for _, r in calls)
    prefill = [r.makespan for c, r in calls if not c.decode]
    decode = [r.makespan for c, r in calls if c.decode]
    util = utilisation(calls)
    return {
        "sim_makespan_s": makespan,
        "sim_tok_s": sum(sum(c.qo_lens) for c, _ in calls) / makespan,
        "sim_ttft_p50_ms": float(np.percentile(prefill, 50)) * 1e3,
        "sim_ttft_p95_ms": float(np.percentile(prefill, 95)) * 1e3,
        "sim_itl_p50_ms": float(np.percentile(decode, 50)) * 1e3,
        "sim_itl_p99_ms": float(np.percentile(decode, 99)) * 1e3,
        "sim_slo_attainment": sum(roofline_share(r) >= ROOFLINE_TARGET for _, r in calls)
        / len(calls),
        "sim_decode_bw_util": util["bw_util_decode"],
        "sim_prefill_flops_util": util["flops_util_prefill"],
    }


# -- oracle -----------------------------------------------------------------------


def _dense_variant(q, k, v):
    """Dense float64 oracle of the JIT variant for one request (decode
    convention: queries are the trailing positions)."""
    n_q, h_qo, d = q.shape
    n_kv = k.shape[0]
    g = h_qo // k.shape[1]
    q_pos = np.arange(n_kv - n_q, n_kv)
    kv_pos = np.arange(n_kv)
    out = np.zeros_like(q, dtype=np.float64)
    visible = (q_pos[:, None] >= kv_pos[None, :]) & (
        (q_pos[:, None] - kv_pos[None, :]) < WINDOW
    )
    for h in range(h_qo):
        qh = apply_rope(q[:, h], q_pos)
        kh = apply_rope(k[:, h // g], kv_pos)
        s = SOFTCAP * np.tanh((qh @ kh.T) / math.sqrt(d) / SOFTCAP)
        s = np.where(visible, s, -np.inf)
        p = np.exp(s - s.max(axis=1, keepdims=True))
        out[:, h] = (p / p.sum(axis=1, keepdims=True)) @ v[:, h // g]
    return out


def reference(inp: KernelInputs) -> np.ndarray:
    """Dense oracle output for a whole case."""
    case = inp.case
    dtype = StorageDType.FP8_E4M3 if case.precision == "fp8" else StorageDType.FP16
    out = np.zeros_like(inp.q, dtype=np.float64)
    for r in range(inp.mapping.num_groups):
        slots = inp.mapping.kv.slot_indices(r)
        k = round_to_storage(inp.cache.k_pool[slots], dtype).astype(np.float64)
        v = round_to_storage(inp.cache.v_pool[slots], dtype).astype(np.float64)
        s0, s1 = int(inp.mapping.qo_indptr[r]), int(inp.mapping.qo_indptr[r + 1])
        if case.kind == "decode_jit":
            out[s0:s1] = _dense_variant(inp.q[s0:s1], k, v)
        else:
            out[s0:s1] = reference_attention(inp.q[s0:s1], k, v, causal=True)
    return out


def check_outputs(inputs: List[KernelInputs], outputs: List[np.ndarray],
                  references: Optional[List[np.ndarray]] = None) -> Dict[str, object]:
    """Compare each call's output with the oracle.

    Returns calls attempted/failed (over tolerance), query rows compared and
    rows over tolerance, and the worst error per storage precision.
    """
    failed = rows = bad_rows = 0
    worst = {"fp16": 0.0, "fp8": 0.0}
    for i, (inp, out) in enumerate(zip(inputs, outputs)):
        ref = references[i] if references is not None else reference(inp)
        err = np.abs(np.asarray(out, dtype=np.float64) - ref).reshape(len(ref), -1).max(axis=1)
        err = np.where(np.isfinite(err), err, np.inf)
        tol = TOLERANCE[inp.case.precision]
        worst[inp.case.precision] = max(worst[inp.case.precision], float(err.max()))
        rows += err.size
        bad_rows += int((err > tol).sum())
        failed += bool((err > tol).any())
    return {"attempted": len(inputs), "failed": failed, "rows": rows,
            "bad_rows": bad_rows, "max_abs_err": worst}

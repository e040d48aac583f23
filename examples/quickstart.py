"""Quickstart: batched decode attention over a paged KV cache.

Mirrors the paper's core workflow (§3.4, Listing 1): store per-request KV in
a paged pool, hand its page table to ``BatchDecodeWithPagedKVCacheWrapper``,
which plans a load-balanced schedule on the CPU and runs the JIT-compiled
kernel.  The result is checked against a dense softmax oracle, one request is
recomputed from two halves of its KV folded with ``⊕`` (``merge_state`` /
``merge_states``), and the simulated-GPU report shows the load balance the
scheduler achieved.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import A100_40G, WorkspaceBuffer
from repro.api import (
    BatchDecodeWithPagedKVCacheWrapper,
    merge_state,
    merge_states,
    single_decode_with_kv_cache,
)
from repro.core import reference_attention
from repro.kvcache import PagedKVCache
from repro.utils.dtypes import StorageDType, round_to_storage

PAGE = 16


def page_table(kv):
    """The library's page-table triple ``(kv_indptr, kv_indices, last_page_len)``."""
    pages = np.diff(kv.indptr)
    return kv.indptr, kv.indices, kv.kv_lens - (pages - 1) * PAGE


def main() -> None:
    rng = np.random.default_rng(0)

    # 1. A paged KV cache, page size 16 — four requests with varied history.
    #    Llama-8B-like heads (GQA group size 4), small head_dim for speed.
    cache = PagedKVCache(num_pages=512, page_size=PAGE, num_kv_heads=2, head_dim=64)
    kv_lens = [700, 1300, 90, 2500]
    seqs = []
    for n in kv_lens:
        sid = cache.new_seq()
        cache.append(sid, rng.standard_normal((n, 2, 64)), rng.standard_normal((n, 2, 64)))
        seqs.append(sid)
    print(f"cache: {cache}")

    # 2. Plan + run (Listing 1).  The page table *is* the block-sparse
    #    attention structure (§3.1.1); the wrapper JIT-compiles the kernel at
    #    construction and plan balances work across CTAs per step.
    workspace = WorkspaceBuffer(256 * 1024 * 1024)
    wrapper = BatchDecodeWithPagedKVCacheWrapper(workspace, 8, 2, 64, PAGE, gpu=A100_40G)
    wrapper.plan(*page_table(cache.layout(seqs)))
    q = rng.standard_normal((len(seqs), 8, 64))
    out = wrapper.run(q, cache.k_pool, cache.v_pool)
    report = wrapper.last_report

    # 3. Verify against the dense oracle.
    dense = [[round_to_storage(x, StorageDType.FP16) for x in cache.gather(sid)] for sid in seqs]
    worst = max(
        float(np.abs(out[r : r + 1] - reference_attention(q[r : r + 1], k, v, causal=True)).max())
        for r, (k, v) in enumerate(dense)
    )
    print(f"max |error| vs dense oracle: {worst:.2e}")

    # 4. Attention states compose (§2.2): the longest request's two KV halves,
    #    each run as a one-request batch on the same wrapper, fold with ⊕
    #    into the state over its whole KV.
    r = kv_lens.index(max(kv_lens))
    _, pages, last_page_len = page_table(cache.layout([seqs[r]]))
    cut = pages.size // 2
    half = cut * PAGE
    states = []
    for part, last in ((pages[:cut], [PAGE]), (pages[cut:], last_page_len)):
        wrapper.plan(np.array([0, part.size]), part, np.asarray(last))
        states.append(wrapper.run(q[r : r + 1], cache.k_pool, cache.v_pool, return_lse=True))
    (o_a, s_a), (o_b, s_b) = states
    folded, _ = merge_state(o_a, s_a, o_b, s_b)
    stacked, _ = merge_states(np.stack([o_a, o_b]), np.stack([s_a, s_b]))
    single = single_decode_with_kv_cache(q[r], *dense[r], gpu=A100_40G)
    err = max(float(np.abs(x - out[r]).max()) for x in (folded[0], stacked[0], single))
    print(f"request {r}: halves of {half} + {kv_lens[r] - half} tokens folded with ⊕, "
          f"max |error| vs the batch run: {err:.2e}")
    assert worst < 1e-6 and err < 1e-6, (worst, err)

    # 5. The simulated GPU's view of the batch kernel.
    print(
        f"simulated kernel: {report.makespan * 1e6:.1f} µs on {A100_40G.name}, "
        f"bandwidth {report.achieved_bandwidth() / 1e9:.0f} GB/s "
        f"({report.bandwidth_utilization(A100_40G):.0%} of peak), "
        f"CTA load balance {report.balance:.2f}"
    )


if __name__ == "__main__":
    main()

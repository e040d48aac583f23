"""Quest-style query-aware sparse attention (paper §5.4).

Quest (Tang et al. 2024) keeps per-page key metadata (element-wise min and
max) and, at each decode step, scores every page with an *upper bound* on
its attention logits, attending only the top-``page_budget`` pages.  The
paper cites this as the kind of dynamic KV-cache sparsity "where
FlashInfer's block sparse kernel remains effective": the selected pages
simply become the step's block-sparse gather structure — no kernel changes.

This module provides the metadata (:class:`PageSummaryStore`), the bound
scoring, and :func:`quest_mapping`, which turns a paged layout plus the
current queries into a pruned :class:`~repro.sparse.AttentionMapping`.

Simplifications vs the original system (documented): pages are scored with
query-head-summed bounds (one page set per request rather than per head),
and attention sinks / the most recent pages are always kept.  Selected
pages are gappy in position space: each keeps its true position (the
mapping's ``block_pos``), so RoPE, ALiBi and windows read the keys where
they sit, and the pruned mapping is non-causal — valid for decode, where
the query is the newest position and every selected key lies in its past.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.sparse.layout import AttentionMapping, BlockSparseKV


class PageSummaryStore:
    """Element-wise min/max of the keys in every page of a pool.

    Maintained incrementally as tokens append; ``page_budget`` selection
    reads only these summaries (2 vectors per page per KV head), which is
    the metadata footprint Quest trades for pruned attention.
    """

    def __init__(self, num_pages: int, page_size: int, num_kv_heads: int, head_dim: int):
        self.page_size = page_size
        self.num_kv_heads = num_kv_heads
        self.head_dim = head_dim
        self.k_min = np.full((num_pages, num_kv_heads, head_dim), np.inf, dtype=np.float32)
        self.k_max = np.full((num_pages, num_kv_heads, head_dim), -np.inf, dtype=np.float32)
        self._count = np.zeros(num_pages, dtype=np.int64)

    def update(self, page: int, k_new: np.ndarray) -> None:
        """Fold new key rows ``(n, H_kv, D)`` of ``page`` into its summary."""
        k_new = np.asarray(k_new, dtype=np.float32)
        if k_new.ndim != 3 or k_new.shape[1:] != (self.num_kv_heads, self.head_dim):
            raise ValueError(
                f"k_new must be (n, {self.num_kv_heads}, {self.head_dim}), got {k_new.shape}"
            )
        if self._count[page] + k_new.shape[0] > self.page_size:
            raise ValueError(f"page {page} would exceed page_size")
        self.k_min[page] = np.minimum(self.k_min[page], k_new.min(axis=0))
        self.k_max[page] = np.maximum(self.k_max[page], k_new.max(axis=0))
        self._count[page] += k_new.shape[0]

    def rebuild_from_pool(self, k_pool: np.ndarray, pages: Sequence[int], kv_len: int) -> None:
        """Recompute summaries for a request's ``pages`` from the pool."""
        for i, page in enumerate(pages):
            s0 = page * self.page_size
            valid = min(self.page_size, kv_len - i * self.page_size)
            if valid <= 0:
                break
            seg = np.asarray(k_pool[s0 : s0 + valid], dtype=np.float32)
            self.k_min[page] = seg.min(axis=0)
            self.k_max[page] = seg.max(axis=0)
            self._count[page] = valid

    def score_bound(self, q: np.ndarray, pages: np.ndarray) -> np.ndarray:
        """Upper bound of ``max_k q·k`` per page, summed over query heads.

        For each dimension the maximizing key coordinate is ``k_max`` when
        ``q_d > 0`` and ``k_min`` otherwise — Quest's criticality estimate.
        ``q``: ``(H_qo, D)``; returns ``(len(pages),)``.
        """
        q = np.asarray(q, dtype=np.float32)
        h_qo = q.shape[0]
        g = h_qo // self.num_kv_heads
        kv_head_of_q = np.arange(h_qo) // g
        kmin = self.k_min[pages][:, kv_head_of_q, :]  # (P, H_qo, D)
        kmax = self.k_max[pages][:, kv_head_of_q, :]
        contrib = np.maximum(q[None] * kmin, q[None] * kmax)
        return contrib.sum(axis=(1, 2))


#: Leading (attention-sink) and trailing (most recent) pages every
#: request keeps whatever their score.
NUM_SINK_PAGES = 1
NUM_RECENT_PAGES = 1


def select_pages(
    q: np.ndarray,
    pages: np.ndarray,
    store: PageSummaryStore,
    page_budget: int,
) -> np.ndarray:
    """Indices (into ``pages``) of the pages one request attends this step.

    Always keeps the first :data:`NUM_SINK_PAGES` and last
    :data:`NUM_RECENT_PAGES` pages; fills the remaining budget with the
    highest-bound pages.
    Returned indices are sorted (gather order = position order).
    """
    n = len(pages)
    if page_budget >= n:
        return np.arange(n)
    keep = set(range(min(NUM_SINK_PAGES, n)))
    keep.update(range(max(n - NUM_RECENT_PAGES, 0), n))
    free = page_budget - len(keep)
    if free > 0:
        candidates = np.asarray([i for i in range(n) if i not in keep])
        scores = store.score_bound(q, pages[candidates])
        top = candidates[np.argsort(-scores, kind="stable")[:free]]
        keep.update(int(i) for i in top)
    return np.asarray(sorted(keep), dtype=np.int64)


def quest_mapping(
    kv: BlockSparseKV,
    q: np.ndarray,
    store: PageSummaryStore,
    page_budget: int,
) -> AttentionMapping:
    """Prune a decode layout to each request's top-``page_budget`` pages.

    ``kv`` is the full page table for the batch (one group per request);
    ``q`` is the decode query tensor ``(batch, H_qo, D)``.  The pruned
    mapping keeps exact KV lengths for partial last pages and marks itself
    non-causal (every selected key precedes the query).
    """
    bc, batch = kv.block_size, kv.num_groups
    if q.shape[0] != batch:
        raise ValueError(f"q has {q.shape[0]} rows for {batch} requests")
    sel = [select_pages(q[r], kv.group_blocks(r), store, page_budget) for r in range(batch)]
    counts = np.array([s.size for s in sel], dtype=np.int64)
    picked = np.concatenate([np.empty(0, np.int64), *sel])  # each page's index in its request
    # Only a request's final (most recent) page may be partial.
    last = kv.indptr[1:] - kv.indptr[:-1] - 1
    partial = np.array([last[r] in s for r, s in enumerate(sel)], dtype=bool)
    pruned = BlockSparseKV(
        bc, kv.pool_blocks, np.append(0, np.cumsum(counts)),
        kv.indices[np.repeat(kv.indptr[:-1], counts) + picked],
        counts * bc - np.where(partial, (last + 1) * bc - kv.kv_lens, 0),
    )
    return AttentionMapping(
        np.arange(batch + 1), pruned, causal=False,
        q_pos=kv.kv_lens - 1, block_pos=picked * bc,  # true positions: page j starts at j·bc
        label="quest",
    )

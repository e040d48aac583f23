"""Conversions between KV-cache structures and sparse formats.

These functions realize the paper's unification claim (§3.1.1, Figure 2):
page tables and BSR masks (:meth:`BSRMatrix.from_dense_mask` lowers a
dense one) all lower to the same block-sparse gather representation
consumed by the kernels.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.sparse.bsr import BSRMatrix, ceil_div
from repro.sparse.layout import AttentionMapping, BlockSparseKV


def kv_from_page_table(
    page_lists: Sequence[np.ndarray],
    kv_lens: Sequence[int],
    page_size: int,
    pool_pages: int,
) -> BlockSparseKV:
    """Wrap a per-request page table as a :class:`BlockSparseKV`.

    ``page_lists[r]`` are the ordered page ids of request ``r``;
    ``kv_lens[r]`` is its token count (the last page may be partial).
    """
    kv_lens = np.asarray(kv_lens, dtype=np.int64)
    if len(page_lists) != kv_lens.size:
        raise ValueError("page_lists and kv_lens must have the same length")
    indptr = np.zeros(len(page_lists) + 1, dtype=np.int64)
    indices: List[int] = []
    for r, pages in enumerate(page_lists):
        pages = np.asarray(pages, dtype=np.int64)
        need = ceil_div(int(kv_lens[r]), page_size) if kv_lens[r] else 0
        if pages.size != need:
            raise ValueError(
                f"request {r}: kv_len={kv_lens[r]} needs {need} pages of size "
                f"{page_size}, got {pages.size}"
            )
        indices.extend(pages.tolist())
        indptr[r + 1] = indptr[r] + pages.size
    return BlockSparseKV(
        page_size, pool_pages, indptr, np.asarray(indices, dtype=np.int64), kv_lens
    )


def mapping_from_bsr(bsr: BSRMatrix, causal: bool = False) -> AttentionMapping:
    """Lower a uniform BSR adjacency to a kernel-facing mapping.

    Each BSR block row becomes one query group gathering its blocks'
    slots — the path used for custom block-sparse attention masks
    (tree attention, Quest-style importance masks).  Positions are the
    matrix's: row ``r`` sits at ``r`` and block column ``j`` starts at
    ``j · B_c``, so a position-dependent variant sees the skipped blocks
    as gaps (a causal group's blocks must be consecutive, as
    :class:`AttentionMapping` requires).
    """
    br, bc = bsr.block_size
    qo_indptr = np.minimum(np.arange(bsr.n_block_rows + 1, dtype=np.int64) * br, bsr.shape[0])
    kv = BlockSparseKV(bc, bsr.n_block_cols, bsr.indptr, bsr.indices, bsr.row_kv_lens)
    return AttentionMapping(
        qo_indptr,
        kv,
        causal=causal,
        block_row_size=br,
        label="bsr",
        q_pos=np.arange(bsr.shape[0], dtype=np.int64),
        block_pos=bsr.indices * bc,
    )

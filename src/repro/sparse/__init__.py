"""Sparse storage formats used by the attention engine.

FlashInfer's central observation (paper §3.1) is that the many KV-cache
layouts used in LLM serving — page tables, radix trees, tree-attention masks,
importance masks — are all instances of one structure: a block-sparse row
(BSR) matrix whose rows are query positions and whose columns are KV-cache
slots.  This subpackage provides that structure plus the kernel-facing
gather layouts and the composable multi-format decomposition used for
shared prefixes.
"""

from repro.sparse.csr import CSRMatrix
from repro.sparse.bsr import BSRMatrix
from repro.sparse.layout import AttentionMapping, BlockSparseKV
from repro.sparse.conversions import (
    bsr_from_dense_mask,
    bsr_from_page_table,
    bsr_to_dense_mask,
    csr_to_bsr,
    kv_from_page_table,
    mapping_from_bsr,
)
from repro.sparse.composable import (
    ComposableFormat,
    PrefixCluster,
    decompose_multi_level,
    decompose_shared_prefix,
    detect_shared_prefixes,
)
from repro.sparse.quest import PageSummaryStore, quest_mapping, select_pages

__all__ = [
    "CSRMatrix",
    "BSRMatrix",
    "AttentionMapping",
    "BlockSparseKV",
    "bsr_from_dense_mask",
    "bsr_from_page_table",
    "bsr_to_dense_mask",
    "csr_to_bsr",
    "kv_from_page_table",
    "mapping_from_bsr",
    "ComposableFormat",
    "PrefixCluster",
    "decompose_multi_level",
    "decompose_shared_prefix",
    "detect_shared_prefixes",
    "PageSummaryStore",
    "quest_mapping",
    "select_pages",
]

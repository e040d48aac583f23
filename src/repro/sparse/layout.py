"""Kernel-facing block-sparse KV gather layouts.

FlashInfer kernels consume the page-table-like triple
``(qo_indptr, kv_indptr, kv_indices [, kv_lens])``: queries are grouped, and
each group gathers an ordered list of KV *blocks* from the global pool
(paper §3.1.1).  :class:`BlockSparseKV` holds the KV side of that triple;
:class:`AttentionMapping` pairs it with the query grouping plus the masking
metadata needed for causal attention, and is the unit a *composable format*
stack is made of (§3.1.2): the standard batch case is one mapping whose
groups are requests; a shared-prefix decomposition is one mapping whose
single group spans many requests' queries (large ``B_r``) plus one mapping
for the unique suffixes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.sparse.bsr import ceil_div


class BlockSparseKV:
    """Per-group block-compressed KV gather structure (generalized page table).

    Group ``g`` gathers blocks ``indices[indptr[g]:indptr[g+1]]`` from a pool
    of ``pool_blocks`` blocks of ``block_size`` (= ``B_c``) slots each, for a
    total of ``kv_lens[g]`` valid slots (the final block may be partial —
    FlashInfer's ``last_page_len``).
    """

    __slots__ = ("block_size", "pool_blocks", "indptr", "indices", "kv_lens")

    def __init__(
        self,
        block_size: int,
        pool_blocks: int,
        indptr: np.ndarray,
        indices: np.ndarray,
        kv_lens: np.ndarray,
    ):
        if block_size <= 0:
            raise ValueError(f"block_size must be positive, got {block_size}")
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        kv_lens = np.asarray(kv_lens, dtype=np.int64)
        if indptr.ndim != 1 or indptr.size < 1 or indptr[0] != 0:
            raise ValueError("indptr must be 1-D, non-empty, starting at 0")
        nblocks = indptr[1:] - indptr[:-1]
        if np.any(nblocks < 0):
            raise ValueError("indptr must be non-decreasing")
        if indptr[-1] != indices.size:
            raise ValueError(f"indptr[-1] ({indptr[-1]}) != len(indices) ({indices.size})")
        if indices.size and (indices.min() < 0 or indices.max() >= pool_blocks):
            raise ValueError("block indices out of pool range")
        if kv_lens.shape != (indptr.size - 1,):
            raise ValueError(f"kv_lens must have shape ({indptr.size - 1},)")
        expected = np.where(kv_lens > 0, -(-kv_lens // block_size), 0)
        if np.any(expected != nblocks):
            bad = int(np.nonzero(expected != nblocks)[0][0])
            raise ValueError(
                f"group {bad}: kv_lens={kv_lens[bad]} implies {expected[bad]} "
                f"blocks of size {block_size} but indptr gives {nblocks[bad]}"
            )
        self.block_size = int(block_size)
        self.pool_blocks = int(pool_blocks)
        self.indptr = indptr
        self.indices = indices
        self.kv_lens = kv_lens

    @property
    def num_groups(self) -> int:
        return self.indptr.size - 1

    def group_blocks(self, g: int) -> np.ndarray:
        """Ordered block ids gathered by group ``g``."""
        return self.indices[self.indptr[g] : self.indptr[g + 1]]

    def slot_indices(self, g: int, start: int = 0, stop: Optional[int] = None) -> np.ndarray:
        """Element slot ids (into the pool) for group ``g``, range ``[start, stop)``.

        This is the gather list the kernel materializes into shared memory
        (paper §3.2.1, Figure 4).  ``start``/``stop`` select a KV chunk, which
        is how the load-balancing scheduler splits long KVs.
        """
        bc = self.block_size
        total = int(self.kv_lens[g])
        stop = total if stop is None else min(stop, total)
        if start < 0 or start > stop:
            raise ValueError(f"invalid chunk range [{start}, {stop})")
        if start == stop:
            return np.empty(0, dtype=np.int64)
        b0, b1 = start // bc, ceil_div(stop, bc)
        blocks = self.group_blocks(g)[b0:b1]
        slots = (blocks[:, None] * bc + np.arange(bc)[None, :]).reshape(-1)
        return slots[start - b0 * bc : stop - b0 * bc]

    def drop_leading_blocks(self, blocks: np.ndarray) -> "BlockSparseKV":
        """The same gather without the first ``blocks[g]`` blocks of each
        group ``g`` (at most all of them; no KV moves)."""
        blocks = np.asarray(blocks, dtype=np.int64)
        nblocks = self.indptr[1:] - self.indptr[:-1]
        if blocks.shape != nblocks.shape or np.any((blocks < 0) | (blocks > nblocks)):
            raise ValueError("blocks must give 0..len(group) leading blocks per group")
        kept = np.arange(self.indices.size) >= np.repeat(self.indptr[:-1] + blocks, nblocks)
        indptr = self.indptr.copy()
        indptr[1:] -= blocks.cumsum()
        return BlockSparseKV(
            self.block_size, self.pool_blocks, indptr, self.indices[kept],
            np.maximum(self.kv_lens - blocks * self.block_size, 0),
        )

    def __repr__(self) -> str:
        return (
            f"BlockSparseKV(groups={self.num_groups}, block_size={self.block_size}, "
            f"pool_blocks={self.pool_blocks}, total_kv={int(self.kv_lens.sum())})"
        )


@dataclass
class AttentionMapping:
    """One format of a (possibly composable) attention computation.

    Attributes
    ----------
    qo_indptr:
        Query grouping: group ``g`` owns packed query rows
        ``[qo_indptr[g], qo_indptr[g+1])``.
    kv:
        KV gather structure with ``kv.num_groups == len(qo_indptr) - 1``.
    causal:
        Whether the causal mask applies within this mapping.
    q_pos:
        Absolute sequence position of each packed query row of this mapping
        (``total_qo`` of them, in ``qo_indptr`` order).  Defaults to the
        decode/prefill convention: a group's rows are the last ``qo_len``
        positions of its KV.  A prefix format's group spans several
        requests' rows, so its positions need not be consecutive.
    kv_pos_offset:
        Absolute sequence position of group ``g``'s first KV slot: KV
        element ``j`` (in gather order) has ``kv_pos_offset[g]+j``.  With
        ``q_pos`` it is what causal and position-dependent variants (RoPE,
        ALiBi, windows) read, so a prefix/suffix split keeps every position.
    block_row_size:
        The ``B_r`` hint for this format — how many query rows the kernel
        should tile together.  Shared-prefix formats use a large ``B_r`` so
        all sharing queries reuse one shared-memory load of the prefix.
    q_row_starts:
        Absolute start row of each group in the *packed* query/output
        tensor.  Defaults to ``qo_indptr[:-1]`` (groups tile the packed
        tensor); a prefix format whose groups are sub-ranges of the packed
        tensor sets these explicitly.
    label:
        Human-readable tag for diagnostics ("batch", "prefix", "suffix"...).
    qo_lens:
        Query rows per group, ``qo_indptr[1:] - qo_indptr[:-1]``; derived
        once at construction (``qo_indptr`` is not mutated afterwards).
    q_pos_offset:
        Each group's first-row position (an empty group's is arbitrary),
        derived once at construction.  The planner's causal weights and the
        causal pricing read it: they price causal formats only, whose rows
        are consecutive positions.
    """

    qo_indptr: np.ndarray
    kv: BlockSparseKV
    causal: bool = False
    q_pos: Optional[np.ndarray] = None
    kv_pos_offset: Optional[np.ndarray] = None
    block_row_size: Optional[int] = None
    q_row_starts: Optional[np.ndarray] = None
    label: str = "batch"
    qo_lens: np.ndarray = field(init=False, repr=False, compare=False)
    q_pos_offset: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.qo_indptr = np.asarray(self.qo_indptr, dtype=np.int64)
        if self.qo_indptr.ndim != 1 or self.qo_indptr.size < 1 or self.qo_indptr[0] != 0:
            raise ValueError("qo_indptr must be 1-D starting at 0")
        self.qo_lens = self.qo_indptr[1:] - self.qo_indptr[:-1]
        if np.any(self.qo_lens < 0):
            raise ValueError("qo_indptr must be non-decreasing")
        n = self.num_groups
        if self.kv.num_groups != n:
            raise ValueError(
                f"kv has {self.kv.num_groups} groups but qo_indptr defines {n}"
            )
        if self.q_pos is None:
            first = self.kv.kv_lens - self.qo_lens
            self.q_pos = (np.repeat(first - self.qo_indptr[:-1], self.qo_lens)
                          + np.arange(self.total_qo))
        else:
            self.q_pos = np.asarray(self.q_pos, dtype=np.int64)
            if self.q_pos.shape != (self.total_qo,):
                raise ValueError(f"q_pos must have shape ({self.total_qo},)")
            first = np.append(self.q_pos, 0)[self.qo_indptr[:-1]]
        self.q_pos_offset = first
        if self.kv_pos_offset is None:
            self.kv_pos_offset = np.zeros(n, dtype=np.int64)
        else:
            self.kv_pos_offset = np.asarray(self.kv_pos_offset, dtype=np.int64)
            if self.kv_pos_offset.shape != (n,):
                raise ValueError(f"kv_pos_offset must have shape ({n},)")
        if self.q_row_starts is None:
            self.q_row_starts = self.qo_indptr[:-1].copy()
        else:
            self.q_row_starts = np.asarray(self.q_row_starts, dtype=np.int64)
            if self.q_row_starts.shape != (n,):
                raise ValueError(f"q_row_starts must have shape ({n},)")

    @property
    def num_groups(self) -> int:
        return self.qo_indptr.size - 1

    @property
    def total_qo(self) -> int:
        return int(self.qo_indptr[-1])

    def drop_leading_blocks(
        self, blocks: np.ndarray, label: Optional[str] = None
    ) -> "AttentionMapping":
        """This mapping without the first ``blocks[g]`` KV blocks of each
        group ``g``: ``kv_pos_offset`` advances past them, so every KV slot
        that remains keeps its absolute position (a shared prefix peeled
        into its own format, or KV a sliding window hides)."""
        blocks = np.asarray(blocks, dtype=np.int64)
        return AttentionMapping(
            qo_indptr=self.qo_indptr,
            kv=self.kv.drop_leading_blocks(blocks),
            causal=self.causal,
            q_pos=self.q_pos,
            kv_pos_offset=self.kv_pos_offset + blocks * self.kv.block_size,
            block_row_size=self.block_row_size,
            q_row_starts=self.q_row_starts,
            label=self.label if label is None else label,
        )

    def __repr__(self) -> str:
        return (
            f"AttentionMapping(label={self.label!r}, groups={self.num_groups}, "
            f"total_qo={self.total_qo}, causal={self.causal}, "
            f"B_c={self.kv.block_size}, B_r={self.block_row_size})"
        )

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
from functools import cached_property
from typing import Optional, Tuple

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

    @classmethod
    def ragged(cls, kv_indptr) -> "BlockSparseKV":
        """Contiguous (ragged) KV: group ``g`` owns rows ``[kv_indptr[g],
        kv_indptr[g+1])`` of packed K/V tensors — the identity page table,
        "page" ``j`` is row ``j`` and every page is full (``B_c = 1``)."""
        indptr = np.asarray(kv_indptr, dtype=np.int64)
        return cls(1, int(indptr[-1]), indptr, np.arange(indptr[-1]), np.diff(indptr))

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

    def __repr__(self) -> str:
        return (
            f"BlockSparseKV(groups={self.num_groups}, block_size={self.block_size}, "
            f"pool_blocks={self.pool_blocks}, total_kv={int(self.kv_lens.sum())})"
        )


def _steps(pos: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """The step from each element of ``pos`` to the next of its group."""
    inner = np.ones(pos.size + 1, dtype=bool)  # False where a group starts
    inner[indptr] = False
    return np.diff(pos)[inner[1:-1]]


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
    block_pos:
        Absolute sequence position of each gathered KV block, in
        ``kv.indices`` order (slot ``i`` of block ``b`` sits at
        ``block_pos[b] + i``); ascending within a group.  ``None`` (the
        default) is ``j · block_size`` for a group's ``j``-th block, built on
        a first read.  With ``q_pos`` it is what causal and position-dependent
        variants (RoPE, ALiBi, windows) read, so a prefix/suffix split or
        Quest's pruned pages keep every position.
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
    causal_kv_lens:
        A causal mapping's KV slots each query row sees (``None`` when not
        causal), derived once from the row's position and its group's first
        KV position; the planner and the causal pricing read it (the pricing
        through ``_causal_rows``, a row search built beside it).  They rely
        on a causal group's rows ascending and its blocks being consecutive
        in position, which construction checks.
    """

    qo_indptr: np.ndarray
    kv: BlockSparseKV
    causal: bool = False
    q_pos: Optional[np.ndarray] = None
    block_pos: Optional[np.ndarray] = None
    block_row_size: Optional[int] = None
    q_row_starts: Optional[np.ndarray] = None
    label: str = "batch"
    qo_lens: np.ndarray = field(init=False, repr=False, compare=False)
    causal_kv_lens: Optional[np.ndarray] = field(init=False, repr=False, compare=False)
    _causal_rows: Optional[Tuple[np.ndarray, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.qo_indptr = np.asarray(self.qo_indptr, dtype=np.int64)
        if self.qo_indptr.ndim != 1 or self.qo_indptr.size < 1 or self.qo_indptr[0] != 0:
            raise ValueError("qo_indptr must be 1-D starting at 0")
        self.qo_lens = self.qo_indptr[1:] - self.qo_indptr[:-1]
        if np.any(self.qo_lens < 0):
            raise ValueError("qo_indptr must be non-decreasing")
        n, kv = self.num_groups, self.kv
        if kv.num_groups != n:
            raise ValueError(f"kv has {kv.num_groups} groups but qo_indptr defines {n}")
        if self.q_pos is None:
            first = kv.kv_lens - self.qo_lens
            self.q_pos = (np.repeat(first - self.qo_indptr[:-1], self.qo_lens)
                          + np.arange(self.total_qo))
        else:
            self.q_pos = np.asarray(self.q_pos, dtype=np.int64)
            if self.q_pos.shape != (self.total_qo,):
                raise ValueError(f"q_pos must have shape ({self.total_qo},)")
            if self.causal and np.any(_steps(self.q_pos, self.qo_indptr) < 0):
                raise ValueError("a causal group's query rows must ascend in position")
        first_kv = 0  # the first KV position of each row's group
        if self.block_pos is not None:
            self.block_pos = np.asarray(self.block_pos, dtype=np.int64)
            if self.block_pos.shape != kv.indices.shape:
                raise ValueError(f"block_pos must have shape ({kv.indices.size},)")
            if self.causal and np.any(_steps(self.block_pos, kv.indptr) != kv.block_size):
                raise ValueError("a causal group's KV blocks must be consecutive in position")
            first_kv = np.repeat(np.append(self.block_pos, 0)[kv.indptr[:-1]], self.qo_lens)
        self.causal_kv_lens = self._causal_rows = None
        if self.causal:
            lens = self.causal_kv_lens = np.minimum(np.maximum(self.q_pos - (first_kv - 1), 0),
                                                    np.repeat(kv.kv_lens, self.qo_lens))
            # The pricing's row search: ``key`` (each row's count plus its group's
            # ``base``) ascends over the mapping, so one ``searchsorted`` of ``base[g] +
            # column`` finds the first row of group ``g`` that sees past a KV column;
            # ``prefix`` is the running sum of the counts, from 0.
            span = kv.kv_lens + 1  # the counts a group's rows can have, 0..kv_len
            base, prefix = np.cumsum(span) - span, np.zeros(lens.size + 1, dtype=np.int64)
            np.cumsum(lens, out=prefix[1:])
            self._causal_rows = (base, lens + np.repeat(base, self.qo_lens), prefix)
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

    @cached_property
    def _block_positions(self) -> np.ndarray:
        """``block_pos``, or its default built on this first read."""
        if self.block_pos is not None:
            return self.block_pos
        kv = self.kv
        first = np.repeat(kv.indptr[:-1], np.diff(kv.indptr))  # each block's group's first
        return (np.arange(kv.indices.size) - first) * kv.block_size

    def drop_leading_blocks(
        self, blocks: np.ndarray, label: Optional[str] = None
    ) -> "AttentionMapping":
        """This mapping without the first ``blocks[g]`` (at most all) KV
        blocks of each group ``g``; no KV moves, and every block left keeps
        its position (a shared prefix peeled into its own format, or KV a
        sliding window hides)."""
        kv, blocks = self.kv, np.asarray(blocks, dtype=np.int64)
        nblocks = kv.indptr[1:] - kv.indptr[:-1]
        if blocks.shape != nblocks.shape or np.any((blocks < 0) | (blocks > nblocks)):
            raise ValueError("blocks must give 0..len(group) leading blocks per group")
        kept = np.arange(kv.indices.size) >= np.repeat(kv.indptr[:-1] + blocks, nblocks)
        bc, indptr = kv.block_size, np.cumsum(np.append(0, nblocks - blocks))
        left = BlockSparseKV(bc, kv.pool_blocks, indptr, kv.indices[kept],
                             np.maximum(kv.kv_lens - blocks * bc, 0))
        return AttentionMapping(
            self.qo_indptr, left, self.causal, self.q_pos, self._block_positions[kept],
            self.block_row_size, self.q_row_starts, self.label if label is None else label,
        )

    def __repr__(self) -> str:
        return (
            f"AttentionMapping(label={self.label!r}, groups={self.num_groups}, "
            f"total_qo={self.total_qo}, causal={self.causal}, "
            f"B_c={self.kv.block_size}, B_r={self.block_row_size})"
        )

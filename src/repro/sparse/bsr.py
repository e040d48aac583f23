"""Block-Sparse Row (BSR) matrices with arbitrary block sizes.

In FlashInfer a BSR matrix is the *attention adjacency*: logical rows are
packed query positions, logical columns are KV-cache slots in the global
pool, and a non-zero block ``(i, j)`` means query tile ``i`` attends to KV
block ``j`` (paper §3.1.1, Figure 2).  The row block size ``B_r`` matches the
kernel's query tile size; the column block size ``B_c`` is chosen by the
KV-cache manager (the page size, or 1 for vector-sparse layouts).

Unlike textbook BSR, the last non-zero block of a row may be a *column
prefix* of a block (a partially-filled last page); ``row_kv_lens`` records
each block row's total valid KV length.  All rows inside one block row share
the same structure — finer-grained masking (e.g. causal) is applied inside
the attention kernel via ``LogitsMask``, never via BSR structure.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


class BSRMatrix:
    """BSR structure over a logical ``(num_rows, num_cols)`` boolean matrix.

    Parameters
    ----------
    shape:
        ``(num_rows, num_cols)`` in element coordinates.
    block_size:
        ``(B_r, B_c)``.  Any positive sizes are supported (paper §2.3); the
        last block row/column may be partial if shape is not divisible.
    indptr:
        Shape ``(n_block_rows + 1,)`` offsets into ``indices``.
    indices:
        Column-block ids of the non-zero blocks, in gather order per row.
    row_kv_lens:
        Optional per-block-row total valid KV length (elements).  Defaults to
        every non-zero block being full (clipped at ``num_cols`` for the last
        block column).  Must satisfy
        ``nnz_blocks(i) == ceil(row_kv_lens[i] / B_c)`` when given.
    """

    __slots__ = ("shape", "block_size", "indptr", "indices", "row_kv_lens")

    def __init__(
        self,
        shape: Tuple[int, int],
        block_size: Tuple[int, int],
        indptr: np.ndarray,
        indices: np.ndarray,
        row_kv_lens: Optional[np.ndarray] = None,
    ):
        num_rows, num_cols = int(shape[0]), int(shape[1])
        br, bc = int(block_size[0]), int(block_size[1])
        if br <= 0 or bc <= 0:
            raise ValueError(f"block_size must be positive, got {(br, bc)}")
        if num_rows < 0 or num_cols < 0:
            raise ValueError(f"shape must be non-negative, got {shape}")
        n_brows = ceil_div(num_rows, br) if num_rows else 0
        n_bcols = ceil_div(num_cols, bc) if num_cols else 0

        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        if indptr.shape != (n_brows + 1,):
            raise ValueError(f"indptr must have shape ({n_brows + 1},), got {indptr.shape}")
        if indptr[0] != 0 or np.any(np.diff(indptr) < 0):
            raise ValueError("indptr must start at 0 and be non-decreasing")
        if indptr[-1] != indices.size:
            raise ValueError(f"indptr[-1] ({indptr[-1]}) != len(indices) ({indices.size})")
        if indices.size and (indices.min() < 0 or indices.max() >= n_bcols):
            raise ValueError("block column indices out of range")

        self.shape = (num_rows, num_cols)
        self.block_size = (br, bc)
        self.indptr = indptr
        self.indices = indices

        nnz_per_row = np.diff(indptr)
        if row_kv_lens is None:
            # Full blocks; the physical last block column may be short.
            row_kv_lens = np.empty(n_brows, dtype=np.int64)
            for i in range(n_brows):
                blocks = indices[indptr[i] : indptr[i + 1]]
                total = blocks.size * bc
                # A block touching the ragged matrix edge holds fewer slots.
                total -= np.count_nonzero(blocks == n_bcols - 1) * (n_bcols * bc - num_cols)
                row_kv_lens[i] = total
        else:
            row_kv_lens = np.asarray(row_kv_lens, dtype=np.int64)
            if row_kv_lens.shape != (n_brows,):
                raise ValueError(
                    f"row_kv_lens must have shape ({n_brows},), got {row_kv_lens.shape}"
                )
            expected_blocks = np.where(row_kv_lens > 0, -(-row_kv_lens // bc), 0)
            if np.any(expected_blocks != nnz_per_row):
                bad = int(np.nonzero(expected_blocks != nnz_per_row)[0][0])
                raise ValueError(
                    f"row {bad}: row_kv_lens={row_kv_lens[bad]} implies "
                    f"{expected_blocks[bad]} blocks but indptr gives {nnz_per_row[bad]}"
                )
        self.row_kv_lens = row_kv_lens

    # -- geometry ----------------------------------------------------------

    @property
    def n_block_rows(self) -> int:
        return self.indptr.size - 1

    @property
    def n_block_cols(self) -> int:
        return ceil_div(self.shape[1], self.block_size[1]) if self.shape[1] else 0

    @property
    def nnz_blocks(self) -> int:
        return int(self.indices.size)

    @classmethod
    def from_dense_mask(
        cls, mask: np.ndarray, block_size: Tuple[int, int]
    ) -> "BSRMatrix":
        """Build BSR from a dense boolean mask.

        Requires the mask to be exactly representable: all rows within a
        block row identical, and each non-zero block either full or — for the
        block holding a row's last valid column — a column *prefix*.
        """
        mask = np.asarray(mask, dtype=bool)
        if mask.ndim != 2:
            raise ValueError("mask must be 2-D")
        num_rows, num_cols = mask.shape
        br, bc = block_size
        n_brows = ceil_div(num_rows, br) if num_rows else 0

        indptr = np.zeros(n_brows + 1, dtype=np.int64)
        all_indices = []
        row_kv_lens = np.zeros(n_brows, dtype=np.int64)
        for i in range(n_brows):
            r0, r1 = i * br, min((i + 1) * br, num_rows)
            tile = mask[r0:r1]
            if not (tile == tile[0]).all():
                raise ValueError(f"rows {r0}:{r1} differ; mask not representable with B_r={br}")
            row = tile[0]
            per_block = row.reshape(-1) if bc == 1 else None
            blocks = []
            valid = 0
            n_bcols = ceil_div(num_cols, bc)
            for j in range(n_bcols):
                seg = row[j * bc : (j + 1) * bc]
                cnt = int(seg.sum())
                if cnt == 0:
                    continue
                if not seg[:cnt].all():
                    raise ValueError(
                        f"block ({i},{j}) is not a column prefix; "
                        f"mask not representable with B_c={bc}"
                    )
                blocks.append(j)
                valid += cnt
            # Only the final gathered block may be partial.
            for k, j in enumerate(blocks[:-1]):
                seg = row[j * bc : min((j + 1) * bc, num_cols)]
                if not seg.all():
                    raise ValueError(
                        f"non-final block ({i},{j}) is partial; "
                        f"mask not representable with B_c={bc}"
                    )
            all_indices.extend(blocks)
            indptr[i + 1] = indptr[i] + len(blocks)
            row_kv_lens[i] = valid
        return cls(
            (num_rows, num_cols),
            (br, bc),
            indptr,
            np.asarray(all_indices, dtype=np.int64),
            row_kv_lens,
        )

    def __repr__(self) -> str:
        return (
            f"BSRMatrix(shape={self.shape}, block_size={self.block_size}, "
            f"nnz_blocks={self.nnz_blocks})"
        )

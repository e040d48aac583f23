"""Tests for BSR matrices (CSR is the ``(1, 1)``-block case)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import sweep
from repro.sparse import BSRMatrix, mapping_from_bsr


def gathers(bsr, i):
    """The KV slots the kernel gathers for block row ``i``."""
    return mapping_from_bsr(bsr).kv.slot_indices(i)


def assert_gathers(bsr, mask):
    """Every block row gathers exactly the columns its rows set in ``mask``."""
    assert bsr.shape == mask.shape
    for i in range(bsr.n_block_rows):
        r0, _ = bsr.block_row_rows(i)
        assert np.array_equal(np.sort(gathers(bsr, i)), np.flatnonzero(mask[r0]))


class TestCSRBlocks:
    """``(1, 1)`` blocks: every row a block row, every column a block."""

    @given(st.lists(st.integers(0, 7), min_size=1, max_size=10), st.integers(0, 2**32 - 1))
    @sweep(12, 50)
    def test_row_lengths_round_trip(self, lengths, seed):
        """Rows of any length (empty ones included) lower from a dense mask,
        and ``indptr`` is the prefix sum of the row lengths."""
        rng = np.random.default_rng(seed)
        mask = np.zeros((len(lengths), 8), dtype=bool)
        for i, n in enumerate(lengths):
            mask[i, rng.choice(8, size=n, replace=False)] = True
        bsr = BSRMatrix.from_dense_mask(mask, (1, 1))
        assert np.array_equal(np.diff(bsr.indptr), lengths)
        assert bsr.nnz_blocks == int(mask.sum())
        assert_gathers(bsr, mask)

    def test_any_column_set_is_representable(self, rng):
        mask = rng.random((7, 11)) > 0.5
        assert_gathers(BSRMatrix.from_dense_mask(mask, (1, 1)), mask)


class TestBSRValidation:
    def test_indptr_length_must_match_block_rows(self):
        with pytest.raises(ValueError, match="indptr must have shape"):
            BSRMatrix((4, 8), (2, 4), np.array([0, 1]), np.array([0]))

    def test_indptr_must_start_at_zero(self):
        with pytest.raises(ValueError, match="start at 0"):
            BSRMatrix((2, 8), (2, 4), np.array([1, 2]), np.array([0, 1]))

    def test_indptr_must_not_decrease(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            BSRMatrix((4, 8), (2, 4), np.array([0, 2, 1]), np.array([0]))

    def test_indptr_must_cover_indices(self):
        with pytest.raises(ValueError, match="indptr\\[-1\\]"):
            BSRMatrix((2, 8), (2, 4), np.array([0, 1]), np.array([0, 1]))

    def test_negative_block_column_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            BSRMatrix((2, 8), (2, 4), np.array([0, 1]), np.array([-1]))

    def test_negative_shape_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            BSRMatrix((-1, 8), (2, 4), np.array([0]), np.array([]))

    def test_kv_lens_shape_must_match_block_rows(self):
        with pytest.raises(ValueError, match="row_kv_lens must have shape"):
            BSRMatrix((2, 8), (2, 4), np.array([0, 1]), np.array([0]),
                      row_kv_lens=np.array([4, 4]))

    def test_from_dense_mask_rejects_non_2d(self):
        with pytest.raises(ValueError, match="2-D"):
            BSRMatrix.from_dense_mask(np.ones(4, dtype=bool), (1, 1))


class TestBSRGeometry:
    def test_full_blocks(self):
        # 4x8 matrix, 2x4 blocks, both blocks of row 0 set.
        bsr = BSRMatrix((4, 8), (2, 4), np.array([0, 2, 2]), np.array([0, 1]))
        assert bsr.n_block_rows == 2
        assert bsr.n_block_cols == 2
        assert bsr.nnz_blocks == 2
        assert np.array_equal(gathers(bsr, 0), np.arange(8))
        assert gathers(bsr, 1).size == 0

    def test_gather_order_follows_indices(self):
        bsr = BSRMatrix((2, 8), (2, 4), np.array([0, 2]), np.array([1, 0]))
        assert np.array_equal(gathers(bsr, 0), [4, 5, 6, 7, 0, 1, 2, 3])

    def test_partial_last_block_via_kv_lens(self):
        bsr = BSRMatrix(
            (2, 8), (2, 4), np.array([0, 2]), np.array([0, 1]), row_kv_lens=np.array([6])
        )
        assert np.array_equal(gathers(bsr, 0), [0, 1, 2, 3, 4, 5])

    def test_ragged_matrix_edge_shortens_default_kv_len(self):
        # 10 columns with B_c=4: last block column holds only 2 slots.
        bsr = BSRMatrix((2, 10), (2, 4), np.array([0, 2]), np.array([0, 2]))
        assert bsr.row_kv_lens[0] == 6

    def test_block_row_rows_clamps(self):
        bsr = BSRMatrix((5, 4), (2, 4), np.array([0, 1, 1, 2]), np.array([0, 0]))
        assert bsr.block_row_rows(2) == (4, 5)

    def test_kv_lens_block_count_mismatch(self):
        with pytest.raises(ValueError, match="blocks"):
            BSRMatrix((2, 8), (2, 4), np.array([0, 2]), np.array([0, 1]),
                      row_kv_lens=np.array([3]))

    def test_invalid_block_size(self):
        with pytest.raises(ValueError):
            BSRMatrix((2, 8), (0, 4), np.array([0, 0]), np.array([]))

    def test_indices_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            BSRMatrix((2, 8), (2, 4), np.array([0, 1]), np.array([7]))


class TestBSRDenseRoundTrip:
    def test_round_trip_simple(self):
        mask = np.zeros((4, 8), dtype=bool)
        mask[0:2, 0:4] = True
        mask[2:4, 4:8] = True
        bsr = BSRMatrix.from_dense_mask(mask, (2, 4))
        assert_gathers(bsr, mask)

    def test_round_trip_with_prefix_block(self):
        mask = np.zeros((2, 8), dtype=bool)
        mask[:, :6] = True  # second block is a 2-column prefix
        bsr = BSRMatrix.from_dense_mask(mask, (2, 4))
        assert bsr.row_kv_lens[0] == 6
        assert_gathers(bsr, mask)

    def test_rows_must_match_within_block(self):
        mask = np.zeros((2, 4), dtype=bool)
        mask[0, :] = True
        with pytest.raises(ValueError, match="differ"):
            BSRMatrix.from_dense_mask(mask, (2, 4))

    def test_non_prefix_block_rejected(self):
        mask = np.zeros((1, 4), dtype=bool)
        mask[0, [1, 2]] = True  # hole at column 0
        with pytest.raises(ValueError, match="prefix"):
            BSRMatrix.from_dense_mask(mask, (1, 4))

    def test_partial_non_final_block_rejected(self):
        mask = np.zeros((1, 8), dtype=bool)
        mask[0, 0:2] = True  # partial block 0 ...
        mask[0, 4:8] = True  # ... followed by a full block
        with pytest.raises(ValueError, match="partial"):
            BSRMatrix.from_dense_mask(mask, (1, 4))

    @given(
        st.integers(1, 4),  # B_r
        st.integers(1, 5),  # B_c
        st.integers(1, 3),  # block rows
        st.integers(1, 4),  # block cols
        st.integers(0, 2**12 - 1),
    )
    @sweep(38, 150)
    def test_random_block_structure_round_trip(self, br, bc, nbr, nbc, pattern):
        rows, cols = nbr * br, nbc * bc
        mask = np.zeros((rows, cols), dtype=bool)
        for i in range(nbr):
            for j in range(nbc):
                if (pattern >> (i * nbc + j)) & 1:
                    mask[i * br : (i + 1) * br, j * bc : (j + 1) * bc] = True
        bsr = BSRMatrix.from_dense_mask(mask, (br, bc))
        assert_gathers(bsr, mask)

    def test_vector_sparse_bc1(self, rng):
        # B_c = 1 can represent any per-block-row column set.
        mask = np.tile(rng.random(16) > 0.5, (2, 1))
        bsr = BSRMatrix.from_dense_mask(mask, (2, 1))
        assert_gathers(bsr, mask)


class TestConversionEdges:
    def test_empty_matrix(self):
        bsr = BSRMatrix((0, 0), (2, 4), np.array([0]), np.array([]))
        assert bsr.n_block_rows == 0
        assert bsr.n_block_cols == 0

    def test_gather_of_an_empty_row(self):
        bsr = BSRMatrix((4, 8), (2, 4), np.array([0, 0, 1]), np.array([1]))
        assert gathers(bsr, 0).size == 0
        assert np.array_equal(gathers(bsr, 1), [4, 5, 6, 7])

"""Tests for BSR and CSR matrices."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse import BSRMatrix, CSRMatrix, csr_to_bsr


class TestCSR:
    def test_round_trip_dense(self, rng):
        mask = rng.random((7, 11)) > 0.5
        csr = CSRMatrix.from_dense_mask(mask)
        assert np.array_equal(csr.to_dense_mask(), mask)
        assert csr.nnz == int(mask.sum())

    def test_row_indices(self):
        mask = np.zeros((2, 5), dtype=bool)
        mask[0, [1, 3]] = True
        csr = CSRMatrix.from_dense_mask(mask)
        assert np.array_equal(csr.row_indices(0), [1, 3])
        assert csr.row_indices(1).size == 0

    def test_validation_indices_range(self):
        with pytest.raises(ValueError, match="out of range"):
            CSRMatrix((1, 3), np.array([0, 1]), np.array([5]))

    def test_validation_indptr(self):
        with pytest.raises(ValueError):
            CSRMatrix((2, 3), np.array([0, 2, 1]), np.array([0, 1]))

    def test_data_alignment(self):
        with pytest.raises(ValueError, match="data"):
            CSRMatrix((1, 3), np.array([0, 2]), np.array([0, 1]), data=np.ones(3))

    def test_indptr_must_start_at_zero(self):
        with pytest.raises(ValueError, match="start at 0"):
            CSRMatrix((1, 3), np.array([1, 2]), np.array([0, 1]))

    def test_indptr_must_cover_indices(self):
        with pytest.raises(ValueError, match="indptr\\[-1\\]"):
            CSRMatrix((1, 3), np.array([0, 1]), np.array([0, 1]))

    def test_indptr_length_must_match_rows(self):
        with pytest.raises(ValueError, match="indptr must have shape"):
            CSRMatrix((3, 3), np.array([0, 1]), np.array([0]))

    def test_negative_column_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            CSRMatrix((1, 3), np.array([0, 1]), np.array([-1]))

    def test_from_dense_mask_rejects_non_2d(self):
        with pytest.raises(ValueError, match="2-D"):
            CSRMatrix.from_dense_mask(np.ones(4, dtype=bool))

    def test_all_empty_rows(self):
        csr = CSRMatrix((3, 5), np.zeros(4, dtype=np.int64), np.array([], dtype=np.int64))
        assert csr.nnz == 0
        assert all(csr.row_indices(i).size == 0 for i in range(3))
        assert not csr.to_dense_mask().any()

    def test_row_indices_are_views(self):
        csr = CSRMatrix.from_dense_mask(np.eye(3, dtype=bool))
        assert np.shares_memory(csr.row_indices(1), csr.indices)

    @given(st.lists(st.integers(0, 7), min_size=1, max_size=10), st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_row_lengths_round_trip(self, lengths, seed):
        """Rows of any length (empty ones included) survive dense → CSR →
        dense, and ``indptr`` is the prefix sum of the row lengths."""
        rng = np.random.default_rng(seed)
        mask = np.zeros((len(lengths), 8), dtype=bool)
        for i, n in enumerate(lengths):
            mask[i, rng.choice(8, size=n, replace=False)] = True
        csr = CSRMatrix.from_dense_mask(mask)
        assert np.array_equal(np.diff(csr.indptr), lengths)
        assert np.array_equal(csr.to_dense_mask(), mask)


class TestBSRGeometry:
    def test_full_blocks(self):
        # 4x8 matrix, 2x4 blocks, both blocks of row 0 set.
        bsr = BSRMatrix((4, 8), (2, 4), np.array([0, 2, 2]), np.array([0, 1]))
        assert bsr.n_block_rows == 2
        assert bsr.n_block_cols == 2
        assert bsr.nnz_blocks == 2
        assert np.array_equal(bsr.row_kv_indices(0), np.arange(8))
        assert bsr.row_kv_indices(1).size == 0

    def test_gather_order_follows_indices(self):
        bsr = BSRMatrix((2, 8), (2, 4), np.array([0, 2]), np.array([1, 0]))
        assert np.array_equal(bsr.row_kv_indices(0), [4, 5, 6, 7, 0, 1, 2, 3])

    def test_partial_last_block_via_kv_lens(self):
        bsr = BSRMatrix(
            (2, 8), (2, 4), np.array([0, 2]), np.array([0, 1]), row_kv_lens=np.array([6])
        )
        assert np.array_equal(bsr.row_kv_indices(0), [0, 1, 2, 3, 4, 5])

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
        assert np.array_equal(bsr.to_dense_mask(), mask)

    def test_round_trip_with_prefix_block(self):
        mask = np.zeros((2, 8), dtype=bool)
        mask[:, :6] = True  # second block is a 2-column prefix
        bsr = BSRMatrix.from_dense_mask(mask, (2, 4))
        assert bsr.row_kv_lens[0] == 6
        assert np.array_equal(bsr.to_dense_mask(), mask)

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
    @settings(max_examples=150, deadline=None)
    def test_random_block_structure_round_trip(self, br, bc, nbr, nbc, pattern):
        rows, cols = nbr * br, nbc * bc
        mask = np.zeros((rows, cols), dtype=bool)
        for i in range(nbr):
            for j in range(nbc):
                if (pattern >> (i * nbc + j)) & 1:
                    mask[i * br : (i + 1) * br, j * bc : (j + 1) * bc] = True
        bsr = BSRMatrix.from_dense_mask(mask, (br, bc))
        assert np.array_equal(bsr.to_dense_mask(), mask)

    def test_vector_sparse_bc1(self, rng):
        # B_c = 1 can represent any per-block-row column set.
        mask = np.tile(rng.random(16) > 0.5, (2, 1))
        bsr = BSRMatrix.from_dense_mask(mask, (2, 1))
        assert np.array_equal(bsr.to_dense_mask(), mask)


class TestCSRtoBSR:
    def test_regroup(self):
        mask = np.zeros((4, 8), dtype=bool)
        mask[0:2, 4:8] = True
        csr = CSRMatrix.from_dense_mask(mask)
        bsr = csr_to_bsr(csr, (2, 4))
        assert bsr.nnz_blocks == 1
        assert np.array_equal(bsr.to_dense_mask(), mask)


class TestConversionEdges:
    def test_csr_to_bsr_rejects_non_representable(self, rng):
        from repro.sparse import CSRMatrix, csr_to_bsr

        mask = np.zeros((4, 8), dtype=bool)
        mask[0, 0] = True  # rows within the 2-row block differ
        csr = CSRMatrix.from_dense_mask(mask)
        with pytest.raises(ValueError, match="differ"):
            csr_to_bsr(csr, (2, 4))

    def test_bsr_dense_aliases(self, rng):
        from repro.sparse import bsr_from_dense_mask, bsr_to_dense_mask

        mask = np.zeros((4, 8), dtype=bool)
        mask[0:2, 0:4] = True
        bsr = bsr_from_dense_mask(mask, (2, 4))
        assert np.array_equal(bsr_to_dense_mask(bsr), mask)

    def test_empty_matrix(self):
        from repro.sparse import BSRMatrix

        bsr = BSRMatrix((0, 0), (2, 4), np.array([0]), np.array([]))
        assert bsr.n_block_rows == 0
        assert bsr.to_dense_mask().shape == (0, 0)

    def test_row_kv_indices_empty_row(self):
        from repro.sparse import BSRMatrix

        bsr = BSRMatrix((4, 8), (2, 4), np.array([0, 0, 1]), np.array([1]))
        assert bsr.row_kv_indices(0).size == 0
        assert np.array_equal(bsr.row_kv_indices(1), [4, 5, 6, 7])

"""Tests for BlockSparseKV and AttentionMapping."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import sweep
from repro import BatchAttentionWrapper, WorkspaceBuffer
from repro.core import HeadConfig, VANILLA
from repro.sparse import AttentionMapping, BlockSparseKV, BSRMatrix, kv_from_page_table
from repro.sparse.conversions import mapping_from_bsr
from repro.utils.dtypes import StorageDType, round_to_storage
from repro.variants import alibi_slopes, apply_rope, make_alibi, make_fused_rope


class TestBlockSparseKV:
    @pytest.mark.parametrize("pages, kv_len, chunk, slots", [
        ([2, 0, 1], 12, (), [8, 9, 10, 11, 0, 1, 2, 3, 4, 5, 6, 7]),
        ([0, 1], 6, (), [0, 1, 2, 3, 4, 5]),
        ([1, 0, 2], 12, (3, 9), [7, 0, 1, 2, 3, 8]),  # crosses the first→second page boundary
        ([0], 3, (1, 100), [1, 2]),
        ([0], 4, (2, 2), []),
    ], ids=["full", "partial-last-page", "chunk-range", "chunk-beyond-length-clamps",
            "empty-chunk"])
    def test_slot_indices(self, pages, kv_len, chunk, slots):
        kv = kv_from_page_table([np.array(pages)], [kv_len], 4, 3)
        assert np.array_equal(kv.slot_indices(0, *chunk), slots)

    def test_chunk_invalid_range(self):
        kv = kv_from_page_table([np.array([0])], [3], 4, 1)
        with pytest.raises(ValueError):
            kv.slot_indices(0, 2, 1)

    def test_empty_chunk(self):
        kv = kv_from_page_table([np.array([0])], [4], 4, 1)
        assert kv.slot_indices(0, 2, 2).size == 0

    def test_page_count_validation(self):
        with pytest.raises(ValueError, match="pages"):
            kv_from_page_table([np.array([0])], [9], 4, 2)

    def test_kv_lens_shape_validation(self):
        with pytest.raises(ValueError):
            BlockSparseKV(4, 2, np.array([0, 1]), np.array([0]), np.array([4, 4]))

    def test_block_indices_range(self):
        with pytest.raises(ValueError, match="pool"):
            BlockSparseKV(4, 2, np.array([0, 1]), np.array([5]), np.array([4]))


class TestAttentionMapping:
    def test_default_positions_decode(self):
        kv = kv_from_page_table([np.arange(2), np.arange(2, 4)], [8, 5], 4, 4)
        m = AttentionMapping(np.array([0, 1, 2]), kv, causal=True)
        # Decode convention: the single query sits at the last position.
        assert np.array_equal(m.q_pos, [7, 4])
        assert m.block_pos is None and np.array_equal(m._block_positions, [0, 4, 0, 4])  # KV from 0
        assert np.array_equal(m.causal_kv_lens, [8, 5])
        assert np.array_equal(m.q_row_starts, [0, 1])

    def test_default_positions_prefill(self):
        kv = kv_from_page_table([np.arange(2)], [8], 4, 2)
        m = AttentionMapping(np.array([0, 8]), kv)
        assert np.array_equal(m.q_pos, np.arange(8))

    def test_group_count_mismatch(self):
        kv = kv_from_page_table([np.arange(2)], [8], 4, 2)
        with pytest.raises(ValueError, match="groups"):
            AttentionMapping(np.array([0, 4, 8]), kv)

    @pytest.mark.parametrize("positions, match", [
        (dict(q_pos=[0, 1]), "q_pos must have shape"),
        (dict(block_pos=[0]), "block_pos must have shape"),
        (dict(q_pos=[0, 1, 2, 3, 3, 2, 6, 7]), "rows must ascend"),
        (dict(block_pos=[0, 8]), "blocks must be consecutive"),
    ], ids=["q_pos-shape", "block_pos-shape", "rows-descend", "blocks-gappy"])
    def test_explicit_positions_validated(self, positions, match):
        """A causal group's rows ascend and its blocks are consecutive in
        position; a non-causal one may hold any rows and gappy blocks."""
        kv = kv_from_page_table([np.arange(2)], [8], 4, 2)
        with pytest.raises(ValueError, match=match):
            AttentionMapping(np.array([0, 8]), kv, causal=True, **positions)
        if "shape" not in match:
            assert AttentionMapping(np.array([0, 8]), kv, **positions).causal_kv_lens is None
        # A group's rows may start below the previous group's.
        m = AttentionMapping([0, 2, 4], BlockSparseKV.ragged([0, 9, 20]), True, [7, 8, 3, 4])
        assert m.causal_kv_lens.tolist() == [8, 9, 4, 5]

    def test_qo_lens(self):
        kv = kv_from_page_table([np.arange(1), np.arange(1, 2)], [4, 4], 4, 2)
        m = AttentionMapping(np.array([0, 3, 4]), kv)
        assert np.array_equal(m.qo_lens, [3, 1])
        assert m.total_qo == 4


def drop_blocks_per_group(kv, blocks):
    """The per-group loop that built a shared-prefix suffix format."""
    indptr, indices = [0], []
    for g in range(kv.num_groups):
        kept = kv.group_blocks(g)[blocks[g]:]
        indices.extend(kept.tolist())
        indptr.append(indptr[-1] + kept.size)
    lens = np.maximum(kv.kv_lens - np.asarray(blocks) * kv.block_size, 0)
    return BlockSparseKV(kv.block_size, kv.pool_blocks, np.asarray(indptr), np.asarray(indices), lens)


class TestDropLeadingBlocks:
    @given(st.lists(st.tuples(st.integers(0, 70), st.integers(0, 8)), min_size=1, max_size=12),
           st.sampled_from([1, 4, 16]), st.data())
    @sweep(20, 80)
    def test_equals_the_per_group_loop(self, groups, block, data):
        lens = [n for n, _ in groups]
        pages = [-(-n // block) for n in lens]
        pool = sum(pages) + 3
        order = data.draw(st.permutations(range(pool)))
        starts = np.cumsum([0] + pages)
        kv = kv_from_page_table(
            [np.asarray(order[a:b]) for a, b in zip(starts, starts[1:])], lens, block, pool
        )
        blocks = [min(drop, p) for (_, drop), p in zip(groups, pages)]
        indptr = kv.indptr.copy()
        mapping = AttentionMapping(np.arange(len(lens) + 1), kv, causal=True)
        trimmed = mapping.drop_leading_blocks(blocks, label="suffix")
        got, want = trimmed.kv, drop_blocks_per_group(kv, blocks)
        for name in ("indptr", "indices", "kv_lens"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert np.array_equal(kv.indptr, indptr)  # the source is not touched
        assert trimmed.label == "suffix"
        assert np.array_equal(trimmed.q_pos, mapping.q_pos)
        for g, n in enumerate(blocks):
            # Every block left keeps its absolute position.
            assert np.array_equal(trimmed.kv.slot_indices(g), kv.slot_indices(g)[n * block:])
            assert np.array_equal(trimmed.block_pos[trimmed.kv.indptr[g]:trimmed.kv.indptr[g + 1]],
                                  (n + np.arange(pages[g] - n)) * block)

    def test_more_blocks_than_a_group_has_is_rejected(self):
        mapping = AttentionMapping([0, 1], kv_from_page_table([np.arange(2)], [8], 4, 2))
        with pytest.raises(ValueError, match="leading blocks"):
            mapping.drop_leading_blocks([3])
        with pytest.raises(ValueError, match="leading blocks"):
            mapping.drop_leading_blocks([-1])


class TestBSRBridge:
    def test_figure2_bsr_from_page_table(self):
        # Paper Figure 2: a page table is a BSR matrix with B_r = queries per
        # request and B_c = page size; its rows gather the same slots.
        kv = kv_from_page_table([np.array([0, 2]), np.array([1])], [8, 3], 4, 3)
        bsr = BSRMatrix((8, 12), (4, 4), kv.indptr, kv.indices, kv.kv_lens)
        gathered = mapping_from_bsr(bsr).kv
        assert np.array_equal(gathered.slot_indices(0), [0, 1, 2, 3, 8, 9, 10, 11])
        assert np.array_equal(gathered.slot_indices(1), [4, 5, 6])
        for r in range(2):
            assert np.array_equal(gathered.slot_indices(r), kv.slot_indices(r))

    def test_mapping_from_bsr_keeps_block_rows_and_causality(self):
        # Two block rows of 2 queries: each is one query group of B_r rows.
        bsr = BSRMatrix((4, 8), (2, 4), np.array([0, 1, 3]), np.array([1, 0, 1]))
        m = mapping_from_bsr(bsr, causal=True)
        assert m.causal and m.label == "bsr" and m.block_row_size == 2
        assert np.array_equal(m.qo_indptr, [0, 2, 4])
        assert np.array_equal(m.kv.slot_indices(1), np.arange(8))

    def test_mapping_from_bsr(self):
        bsr = BSRMatrix((2, 4), (2, 4), np.array([0, 1]), np.array([0]))
        m = mapping_from_bsr(bsr, causal=False)
        assert m.num_groups == 1
        assert m.total_qo == 2
        assert np.array_equal(m.kv.slot_indices(0), [0, 1, 2, 3])


class TestStructuralSparseAttention:
    """Attention restricted by BSR *structure* (paper §3.1.1): the kernel
    simply never gathers the zero blocks — no mask functor involved."""

    def _block_mask(self, n_brows, n_bcols, density, rng):
        mask = rng.random((n_brows, n_bcols)) < density
        mask[:, 0] = True  # keep every row non-empty
        return mask

    def test_bsr_structure_equals_dense_mask(self):
        rng = np.random.default_rng(5)
        br, bc = 4, 8
        n_brows, n_bcols = 6, 8
        blocks = self._block_mask(n_brows, n_bcols, 0.5, rng)
        dense_mask = np.kron(blocks, np.ones((br, bc), dtype=bool))
        bsr = BSRMatrix.from_dense_mask(dense_mask, (br, bc))
        mapping = mapping_from_bsr(bsr, causal=False)

        heads = HeadConfig(2, 2, 16)
        n_q, n_kv = n_brows * br, n_bcols * bc
        q = rng.standard_normal((n_q, 2, 16))
        kp = rng.standard_normal((n_kv, 2, 16))
        vp = rng.standard_normal((n_kv, 2, 16))
        w = BatchAttentionWrapper(VANILLA, heads, WorkspaceBuffer(1 << 26), avg_qo_len=br)
        w.plan(mapping)
        out, _, _ = w.run(q, kp, vp)

        kr = round_to_storage(kp, StorageDType.FP16).astype(np.float64)
        vr = round_to_storage(vp, StorageDType.FP16).astype(np.float64)
        sm = 1 / np.sqrt(16)
        for h in range(2):
            s = (q[:, h] @ kr[:, h].T) * sm
            s = np.where(dense_mask, s, -np.inf)
            m = s.max(axis=1, keepdims=True)
            p = np.exp(s - m)
            ref = (p / p.sum(axis=1, keepdims=True)) @ vr[:, h]
            np.testing.assert_allclose(out[:, h, :], ref, atol=1e-6)

    @pytest.mark.parametrize("variant", ["alibi", "rope"])
    def test_positions_are_the_matrix_s(self, variant):
        """A position-dependent variant over a BSR mapping whose rows skip
        blocks equals the dense masked reference: row ``r`` sits at ``r``
        and a block column ``j`` starts at ``j · B_c``, skipped or not."""
        rng = np.random.default_rng(7)
        br, bc, n_brows, n_bcols, d = 4, 8, 5, 6, 16
        blocks = self._block_mask(n_brows, n_bcols, 0.5, rng)
        dense_mask = np.kron(blocks, np.ones((br, bc), dtype=bool))
        assert (~blocks[:, 1:-1]).any()  # some row skips an inner block
        slopes = alibi_slopes(2)
        kernel, qx, kx, bias = {
            "alibi": (make_alibi(slopes), None, None, slopes),
            "rope": (make_fused_rope(), apply_rope, apply_rope, np.zeros(2)),
        }[variant]
        q = rng.standard_normal((n_brows * br, 2, d))
        kp, vp = rng.standard_normal((2, n_bcols * bc, 2, d))
        w = BatchAttentionWrapper(kernel, HeadConfig(2, 2, d), WorkspaceBuffer(1 << 26),
                                  avg_qo_len=br)
        w.plan(mapping_from_bsr(BSRMatrix.from_dense_mask(dense_mask, (br, bc))))
        out, _, _ = w.run(q, kp, vp)
        qp, kvp = np.arange(n_brows * br), np.arange(n_bcols * bc)
        k, v = (round_to_storage(x, StorageDType.FP16).astype(np.float64) for x in (kp, vp))
        for h in range(2):
            qh = q[:, h] if qx is None else qx(q[:, h], qp)
            kh = k[:, h] if kx is None else kx(k[:, h], kvp)
            s = (qh @ kh.T) / np.sqrt(d) + bias[h] * (kvp[None, :] - qp[:, None])
            p = np.exp(np.where(dense_mask, s, -np.inf) - s.max(axis=1, keepdims=True))
            ref = (p / p.sum(axis=1, keepdims=True)) @ v[:, h]
            np.testing.assert_allclose(out[:, h, :], ref, atol=1e-6)

    def test_structure_skips_zero_blocks_traffic(self):
        rng = np.random.default_rng(6)
        br, bc, n_brows, n_bcols = 4, 16, 8, 32
        sparse_blocks = self._block_mask(n_brows, n_bcols, 0.25, rng)
        full_blocks = np.ones_like(sparse_blocks)
        heads = HeadConfig(2, 2, 16)
        traffic = {}
        for name, blocks in (("sparse", sparse_blocks), ("full", full_blocks)):
            mask = np.kron(blocks, np.ones((br, bc), dtype=bool))
            bsr = BSRMatrix.from_dense_mask(mask, (br, bc))
            mapping = mapping_from_bsr(bsr, causal=False)
            w = BatchAttentionWrapper(VANILLA, heads, WorkspaceBuffer(1 << 27),
                                      avg_qo_len=br)
            w.plan(mapping)
            _, _, rep = w.run(None, compute=False)
            traffic[name] = rep.total_bytes
        assert traffic["sparse"] < 0.5 * traffic["full"]

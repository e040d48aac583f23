"""Tests for the kernel execution layer: reference oracle and cost accounting."""

import numpy as np
import pytest

from conftest import make_paged_mapping, priced_kv_columns
from reference_costs import kv_reuse_factor, work_item_cost
from repro import VANILLA, AttentionMapping, BatchAttentionWrapper, BlockSparseKV, WorkspaceBuffer
from repro.core import HeadConfig, reference_attention
from repro.core.scheduler import WorkItem
from repro.utils.dtypes import StorageDType


class TestHeadConfig:
    def test_group_size(self):
        assert HeadConfig(32, 8, 128).group_size == 4

    def test_divisibility_required(self):
        with pytest.raises(ValueError):
            HeadConfig(6, 4, 128)


class TestReferenceAttention:
    def test_uniform_weights_average_values(self, rng):
        # Zero queries → uniform attention → output is the mean of V.
        k = rng.standard_normal((10, 2, 8))
        v = rng.standard_normal((10, 2, 8))
        q = np.zeros((1, 2, 8))
        out = reference_attention(q, k, v, causal=False)
        np.testing.assert_allclose(out[0], v.mean(axis=0))

    def test_one_hot_attention(self):
        # A huge logit on one key selects exactly its value.
        d = 8
        k = np.zeros((4, 1, d))
        k[2, 0, 0] = 100.0
        v = np.arange(4, dtype=float)[:, None, None] * np.ones((4, 1, d))
        q = np.zeros((1, 1, d))
        q[0, 0, 0] = 100.0
        out = reference_attention(q, k, v, causal=False, sm_scale=1.0)
        np.testing.assert_allclose(out[0, 0], 2.0, atol=1e-6)

    def test_gqa_head_mapping(self, rng):
        # With g=2, query heads (0,1) must both read KV head 0.
        k = rng.standard_normal((6, 2, 8))
        v = rng.standard_normal((6, 2, 8))
        q = rng.standard_normal((1, 4, 8))
        out = reference_attention(q, k, v, causal=False)
        q2 = q.copy()
        q2[0, 1] = q[0, 0]
        out2 = reference_attention(q2, k, v, causal=False)
        np.testing.assert_allclose(out2[0, 0], out2[0, 1])

    def test_default_positions_causal_decode(self, rng):
        # Single query at the end sees everything: causal == non-causal.
        k = rng.standard_normal((6, 2, 8))
        v = rng.standard_normal((6, 2, 8))
        q = rng.standard_normal((1, 2, 8))
        np.testing.assert_allclose(
            reference_attention(q, k, v, causal=True),
            reference_attention(q, k, v, causal=False),
        )


def item_cost(kv_lens, qo_lens, item, heads=HeadConfig(8, 2, 32), **kwargs):
    mapping, _ = make_paged_mapping(kv_lens, qo_lens, 16)
    defaults = dict(
        kv_tile=64, kv_dtype=StorageDType.FP16, q_tile_size=16,
        fuse_head_groups=True, sparse_gather=True,
    )
    defaults.update(kwargs)
    g_eff = heads.group_size if defaults["fuse_head_groups"] else 1
    defaults.setdefault("tile_set", (defaults["q_tile_size"] * g_eff,))
    return work_item_cost(item, mapping, heads, **defaults)


class TestWorkItemCost:
    def test_causal_halves_useful_flops(self):
        # Full prefill tile over its own KV: roughly half the positions live.
        item = WorkItem(0, 0, 0, 0, 128, 0, 128, 0, -1)
        causal = item_cost([128], [128], item)
        mapping, _ = make_paged_mapping([128], [128], 16, causal=False)
        full = work_item_cost(
            item, mapping, HeadConfig(8, 2, 32), 64, StorageDType.FP16, 16, (64,),
            True, True,
        )
        assert causal.flops < 0.6 * full.flops

    def test_fully_masked_chunk_free(self):
        # Chunk entirely in the future of the tile's queries (full prefill:
        # query row 0 sits at position 0, the chunk covers 100..200).
        item = WorkItem(0, 0, 0, 0, 1, 100, 200, 0, -1)
        c = item_cost([200], [200], item)
        assert c.flops == 0
        assert c.padded_flops == 0

    def test_gqa_fusion_cuts_kv_traffic(self):
        heads = HeadConfig(8, 2, 32)
        item = WorkItem(0, 0, 0, 0, 1, 0, 512, 0, -1)
        fused = item_cost([512], [1], item, heads=heads, fuse_head_groups=True)
        unfused = item_cost([512], [1], item, heads=heads, fuse_head_groups=False)
        # Per-item KV bytes identical, but the fused item serves g=4 query
        # heads at once: per-query-head traffic is 4× lower.
        kv_bytes = 512 * 32 * 2 * 2
        assert fused.bytes_read >= kv_bytes and unfused.bytes_read >= kv_bytes
        assert fused.flops == pytest.approx(4 * unfused.flops)

    def test_partial_slot_writes_state(self):
        item_final = WorkItem(0, 0, 0, 0, 1, 0, 128, 0, -1)
        item_partial = WorkItem(0, 0, 0, 0, 1, 0, 128, 0, 3)
        final = item_cost([128], [1], item_final)
        partial = item_cost([128], [1], item_partial)
        assert partial.bytes_written > final.bytes_written  # (D+1)·fp32 vs D·fp16

    def test_fp8_halves_kv_bytes(self):
        item = WorkItem(0, 0, 0, 0, 1, 0, 512, 0, -1)
        f16 = item_cost([512], [1], item, kv_dtype=StorageDType.FP16)
        f8 = item_cost([512], [1], item, kv_dtype=StorageDType.FP8_E4M3)
        assert f8.bytes_read < 0.6 * f16.bytes_read

    def test_dense_gather_no_segments(self):
        item = WorkItem(0, 0, 0, 0, 1, 0, 128, 0, -1)
        dense = item_cost([128], [1], item, sparse_gather=False)
        sparse = item_cost([128], [1], item, sparse_gather=True)
        assert dense.n_gather_segments == 0
        assert sparse.n_gather_segments > 0

    def test_compute_penalty_scales_padded_only(self):
        item = WorkItem(0, 0, 0, 0, 1, 0, 128, 0, -1)
        base = item_cost([128], [1], item)
        pen = item_cost([128], [1], item, compute_penalty=1.1)
        assert pen.padded_flops == pytest.approx(1.1 * base.padded_flops)
        assert pen.flops == base.flops


class TestKVReuseFactor:
    """The L2 reuse model: how many query tiles re-read a KV chunk."""

    def _item(self, kv_start, kv_stop, group=0):
        return WorkItem(0, group, 0, 0, 1, kv_start, kv_stop, 0, -1)

    def test_decode_reuse_is_one(self):
        mapping, _ = make_paged_mapping([1024], [1], 16)
        assert kv_reuse_factor(self._item(0, 1024), mapping, 16) == 1

    def test_prefill_first_chunk_read_by_all_tiles(self):
        mapping, _ = make_paged_mapping([256], [256], 16)
        # 256 queries, tile 64 → 4 tiles; the first KV chunk is visible to all.
        assert kv_reuse_factor(self._item(0, 64), mapping, 64) == 4

    def test_prefill_last_chunk_read_once(self):
        mapping, _ = make_paged_mapping([256], [256], 16)
        assert kv_reuse_factor(self._item(200, 256), mapping, 64) == 1

    def test_non_causal_every_tile(self):
        mapping, _ = make_paged_mapping([256], [256], 16, causal=False)
        assert kv_reuse_factor(self._item(200, 256), mapping, 64) == 4

    def test_reuse_divides_kv_traffic(self):
        item = WorkItem(0, 0, 0, 0, 64, 0, 64, 0, -1)
        heads = HeadConfig(4, 4, 32)
        mapping, _ = make_paged_mapping([256], [256], 16)
        c = work_item_cost(item, mapping, heads, 64, StorageDType.FP16, 64, (64,),
                           True, True)
        # First chunk: reuse 4 → KV bytes quartered vs logical.
        logical_kv = 64 * 32 * 2 * 2
        q_bytes = 64 * 32 * 2
        assert c.bytes_read == pytest.approx(logical_kv / 4 + q_bytes)


class TestNumericsTouchOnlyWhatTheLaunchIsPricedFor:
    """A causal launch is priced for ``processed`` KV columns per item — the
    KV tiles some row of the item can see (``core/simulate``).  The numerics
    read nothing else: NaN everywhere outside the priced columns changes no
    output (it used to reach ``out`` as ``0·NaN`` from hidden tiles, which is
    what ``PagedKVCache.corrupt_page`` writes), NaN inside them still does."""

    HEADS, Q_TILE, KV_TILE = HeadConfig(4, 2, 8), 4, 8
    #: Ragged prefill, ``qo_len > kv_len`` included (its first rows see nothing).
    GROUPS = [(14, 75), (9, 9), (14, 7), (1, 40), (6, 23)]

    def _problem(self, fuse, num_ctas):
        from repro.core import plan_schedule

        qo, kv = (list(col) for col in zip(*self.GROUPS))
        mapping, slots = make_paged_mapping(kv, qo, page_size=4)
        plan = plan_schedule(
            qo, kv, self.Q_TILE, num_ctas,
            num_kv_heads=self.HEADS.num_kv_heads if fuse else self.HEADS.num_qo_heads,
            min_kv_chunk=8, chunk_granularity=self.KV_TILE, causal=True,
        )
        rng = np.random.default_rng(11)
        q = rng.standard_normal((sum(qo), 4, 8))
        k, v = rng.standard_normal((2, slots, 2, 8)).astype(np.float32)
        return mapping, plan, q, k, v

    def _run(self, mapping, plan, q, k, v, fuse):
        from repro.core import VANILLA, KernelTraits, get_kernel, run_mapping

        n, slots = len(q), max(plan.num_partial_slots, 1)
        rows_eff = self.Q_TILE * (self.HEADS.group_size if fuse else 1)
        out, lse = np.zeros((n, 4, 8)), np.full((n, 4), -np.inf)
        run_mapping(
            q, k, v, mapping, plan,
            get_kernel(VANILLA, KernelTraits(head_dim=8, q_tile=self.Q_TILE, kv_tile=self.KV_TILE)),
            self.HEADS, VANILLA.bind_params(), 0.3, self.KV_TILE, out, lse,
            np.zeros((slots, rows_eff, 8), dtype=np.float32),
            np.full((slots, rows_eff), -np.inf, dtype=np.float32),
            fuse_head_groups=fuse,
        )
        return out, lse

    def _tiles(self, mapping, plan):
        """``(output rows, priced pool slots)`` of every query tile."""
        from repro.core.scheduler import COL_GROUP, COL_KVSTART, COL_QROWS, COL_QSTART

        it, processed = plan.items, priced_kv_columns(mapping, plan.items, self.KV_TILE)
        for group, q_start, q_rows in np.unique(it[:, [COL_GROUP, COL_QSTART, COL_QROWS]], axis=0):
            sel = (it[:, COL_GROUP] == group) & (it[:, COL_QSTART] == q_start)
            priced = [mapping.kv.slot_indices(group, a, a + n)
                      for a, n in zip(it[sel, COL_KVSTART], processed[sel])]
            row0 = int(mapping.q_row_starts[group]) + q_start
            yield slice(row0, row0 + q_rows), np.unique(np.concatenate(priced)).astype(np.int64)

    @pytest.mark.parametrize("fuse", [True, False])
    @pytest.mark.parametrize("num_ctas", [1, 64])
    def test_nan_outside_the_priced_columns_changes_nothing(self, fuse, num_ctas):
        from repro.core.scheduler import COL_KVSTART, COL_KVSTOP, COL_SLOT

        mapping, plan, q, k, v = self._problem(fuse, num_ctas)
        it, processed = plan.items, priced_kv_columns(mapping, plan.items, self.KV_TILE)
        assert (it[:, COL_SLOT] >= 0).any() == (num_ctas == 64)  # split plan / writethrough plan
        assert (processed == 0).any()  # whole items above the diagonal …
        chunk = it[:, COL_KVSTOP] - it[:, COL_KVSTART]
        assert ((processed > 0) & (processed < chunk)).any()  # … and hidden tails of chunks
        clean_out, clean_lse = self._run(mapping, plan, q, k, v, fuse)
        assert np.isfinite(clean_out).all()
        for rows, priced in self._tiles(mapping, plan):
            kp, vp = np.full_like(k, np.nan), np.full_like(v, np.nan)
            kp[priced], vp[priced] = k[priced], v[priced]
            out, lse = self._run(mapping, plan, q, kp, vp, fuse)
            assert np.array_equal(out[rows], clean_out[rows])
            assert np.array_equal(lse[rows], clean_lse[rows])

    @pytest.mark.parametrize("fuse", [True, False])
    def test_nan_inside_a_priced_diagonal_tile_still_reaches_its_rows(self, fuse):
        """Rows 0-3 of group 0 sit at positions 61-64 and are priced for KV
        ``[0, 72)``: slot 71 is hidden from all four, but its tile is swept
        and masked, so a NaN there is the output's NaN (``OutputGuard``'s)."""
        mapping, plan, q, k, v = self._problem(fuse, 1)
        rows, priced = next(iter(self._tiles(mapping, plan)))
        assert rows == slice(0, 4) and priced.max() == mapping.kv.slot_indices(0, 71, 72)[0]
        v[priced.max()] = np.nan
        out, _ = self._run(mapping, plan, q, k, v, fuse)
        assert np.isnan(out[rows]).all() and np.isfinite(out[14:]).all()

    def test_ring_shard_wholly_in_the_future_is_the_merge_identity(self, rng):
        # A one-group ragged mapping whose KV all lies after its last query row.
        w = BatchAttentionWrapper(VANILLA, self.HEADS, WorkspaceBuffer(1 << 24), avg_qo_len=5,
                                  sparse_gather=False)
        w.plan(AttentionMapping([0, 5], BlockSparseKV.ragged([0, 40]), causal=True,
                                q_pos=np.arange(10, 15), block_pos=np.arange(15, 55)))
        future = np.full((40, 2, 8), np.nan)
        o, lse, _ = w.run(rng.standard_normal((5, 4, 8)), future, future)
        assert np.array_equal(o, np.zeros((5, 4, 8))) and np.isneginf(lse).all()

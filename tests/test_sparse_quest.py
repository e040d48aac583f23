"""Tests for Quest-style query-aware page selection."""

import numpy as np
import pytest

from conftest import fp16, make_paged_mapping
from repro import BatchAttentionWrapper, WorkspaceBuffer
from repro.core import HeadConfig, VANILLA, reference_attention
from repro.sparse import PageSummaryStore, quest_mapping, select_pages
from repro.variants import apply_rope, make_fused_rope

HEADS = HeadConfig(4, 2, 16)
PAGE = 8


def build(kv_lens, rng, dim=16, heads=2):
    mapping, slots = make_paged_mapping(kv_lens, [1] * len(kv_lens), PAGE)
    k_pool = rng.standard_normal((slots, heads, dim)).astype(np.float32)
    v_pool = rng.standard_normal((slots, heads, dim)).astype(np.float32)
    store = PageSummaryStore(slots // PAGE, PAGE, heads, dim)
    for r in range(mapping.num_groups):
        store.rebuild_from_pool(k_pool, mapping.kv.group_blocks(r), int(kv_lens[r]))
    return mapping, k_pool, v_pool, store


class TestSummaries:
    def test_minmax_bounds_actual_keys(self, rng):
        mapping, k_pool, _, store = build([64], rng)
        for page in mapping.kv.group_blocks(0):
            seg = k_pool[page * PAGE : (page + 1) * PAGE]
            assert np.all(store.k_min[page] <= seg.min(axis=0) + 1e-6)
            assert np.all(store.k_max[page] >= seg.max(axis=0) - 1e-6)

    def test_score_is_upper_bound(self, rng):
        """The page bound must dominate every actual per-head logit sum."""
        mapping, k_pool, _, store = build([64], rng)
        q = rng.standard_normal((4, 16)).astype(np.float32)
        pages = mapping.kv.group_blocks(0)
        bounds = store.score_bound(q, pages)
        g = 2  # 4 qo heads / 2 kv heads
        for i, page in enumerate(pages):
            seg = k_pool[page * PAGE : (page + 1) * PAGE]  # (P, Hkv, D)
            actual = 0.0
            for h in range(4):
                actual += (q[h] @ seg[:, h // g].T).max()
            assert bounds[i] >= actual - 1e-4

    def test_incremental_update_matches_rebuild(self, rng):
        store_a = PageSummaryStore(4, PAGE, 2, 16)
        store_b = PageSummaryStore(4, PAGE, 2, 16)
        k = rng.standard_normal((PAGE, 2, 16)).astype(np.float32)
        store_a.update(0, k[:3])
        store_a.update(0, k[3:])
        store_b.rebuild_from_pool(k, [0], PAGE)
        np.testing.assert_allclose(store_a.k_min[0], store_b.k_min[0])
        np.testing.assert_allclose(store_a.k_max[0], store_b.k_max[0])

    def test_overflow_rejected(self, rng):
        store = PageSummaryStore(1, PAGE, 2, 16)
        store.update(0, np.zeros((PAGE, 2, 16)))
        with pytest.raises(ValueError, match="page_size"):
            store.update(0, np.zeros((1, 2, 16)))


class TestSelection:
    def test_budget_covers_all(self, rng):
        mapping, _, _, store = build([64], rng)
        q = rng.standard_normal((4, 16))
        sel = select_pages(q, mapping.kv.group_blocks(0), store, page_budget=100)
        assert np.array_equal(sel, np.arange(8))

    def test_sinks_and_recent_always_kept(self, rng):
        mapping, _, _, store = build([64], rng)
        q = rng.standard_normal((4, 16))
        sel = select_pages(q, mapping.kv.group_blocks(0), store, page_budget=3)
        assert 0 in sel and 7 in sel
        assert len(sel) == 3

    def test_budget_below_sinks_and_recent_keeps_only_them(self, rng):
        from repro.sparse.quest import NUM_RECENT_PAGES, NUM_SINK_PAGES

        mapping, _, _, store = build([64], rng)
        q = rng.standard_normal((4, 16))
        pages = mapping.kv.group_blocks(0)
        sel = select_pages(q, pages, store, page_budget=1)
        # The sink and the most recent page are never traded for the budget.
        assert len(sel) == NUM_SINK_PAGES + NUM_RECENT_PAGES == 2
        assert np.array_equal(sel, [0, len(pages) - 1])

    def test_selects_hot_page(self, rng):
        """A page built to maximize q·k must be chosen."""
        mapping, k_pool, _, store = build([64], rng)
        q = np.ones((4, 16))
        hot = mapping.kv.group_blocks(0)[4]
        k_pool[hot * PAGE : (hot + 1) * PAGE] = 10.0  # aligned with q
        store.rebuild_from_pool(k_pool, mapping.kv.group_blocks(0), 64)
        sel = select_pages(q, mapping.kv.group_blocks(0), store, page_budget=3)
        assert 4 in sel


class TestQuestMapping:
    def test_full_budget_equals_full_attention(self, rng):
        mapping, k_pool, v_pool, store = build([64, 40], rng)
        q = rng.standard_normal((2, 4, 16))
        pruned = quest_mapping(mapping.kv, q, store, page_budget=100)
        w = BatchAttentionWrapper(VANILLA, HEADS, WorkspaceBuffer(1 << 26), avg_qo_len=1)
        w.plan(pruned)
        out, _, _ = w.run(q, k_pool, v_pool)
        for r in range(2):
            sl = mapping.kv.slot_indices(r)
            ref = reference_attention(q[r : r + 1], fp16(k_pool[sl]), fp16(v_pool[sl]),
                                      causal=True)
            np.testing.assert_allclose(out[r : r + 1], ref, atol=1e-6)

    def test_partial_last_page_length_preserved(self, rng):
        mapping, _, _, store = build([61], rng)  # last page holds 5 slots
        q = rng.standard_normal((1, 4, 16))
        pruned = quest_mapping(mapping.kv, q, store, page_budget=3)
        # 3 pages selected including the partial recent page: 2·8 + 5.
        assert pruned.kv.kv_lens[0] == 21

    def test_pruned_output_close_when_mass_concentrated(self, rng):
        """If attention mass lives on a few pages, Quest's pruned output
        approximates full attention."""
        mapping, k_pool, v_pool, store = build([128], rng)
        k_pool *= 0.3  # background keys carry little attention mass
        q = rng.standard_normal((1, 4, 16))
        # Concentrate: one hot page aligned with every query head of each
        # KV-head group, so its logits dominate for all heads.
        hot = mapping.kv.group_blocks(0)[7]
        for h in range(2):
            k_pool[hot * PAGE : (hot + 1) * PAGE, h] = 4.0 * (
                q[0, 2 * h] + q[0, 2 * h + 1]
            )
        store.rebuild_from_pool(k_pool, mapping.kv.group_blocks(0), 128)
        pruned = quest_mapping(mapping.kv, q, store, page_budget=4)

        w = BatchAttentionWrapper(VANILLA, HEADS, WorkspaceBuffer(1 << 26), avg_qo_len=1)
        w.plan(pruned)
        out, _, _ = w.run(q, k_pool, v_pool)
        sl = mapping.kv.slot_indices(0)
        full = reference_attention(q, fp16(k_pool[sl]), fp16(v_pool[sl]), causal=True)
        assert np.abs(out - full).max() < 0.05

    def test_traffic_scales_with_budget(self, rng):
        mapping, _, _, store = build([512] * 4, rng)
        q = rng.standard_normal((4, 4, 16))
        reports = {}
        for budget in (8, 64):
            pruned = quest_mapping(mapping.kv, q, store, page_budget=budget)
            w = BatchAttentionWrapper(VANILLA, HEADS, WorkspaceBuffer(1 << 27),
                                      avg_qo_len=1)
            w.plan(pruned)
            _, _, rep = w.run(None, compute=False)
            reports[budget] = rep.total_bytes
        assert reports[8] < 0.25 * reports[64]

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "quest_mapping keeps kv_pos_offset at 0 over gappy pages, so a variant reading "
        "kv_pos sees the pruned keys at gather-order positions; needs per-slot KV positions"))
    def test_fused_rope_reads_the_true_positions_of_pruned_pages(self, rng):
        mapping, k_pool, v_pool, store = build([128], rng)
        k_pool[11 * PAGE : 13 * PAGE] *= 3.0  # pages 11 and 12 bound the highest scores
        store.rebuild_from_pool(k_pool, mapping.kv.group_blocks(0), 128)
        q = rng.standard_normal((1, 4, 16))
        pruned = quest_mapping(mapping.kv, q, store, page_budget=4)
        sl = pruned.kv.slot_indices(0)  # the pool is laid out in position order
        assert np.array_equal(pruned.kv.group_blocks(0), [0, 11, 12, 15])
        w = BatchAttentionWrapper(make_fused_rope(), HEADS, WorkspaceBuffer(1 << 26), avg_qo_len=1)
        w.plan(pruned)
        out, _, _ = w.run(q, k_pool, v_pool)
        rope = lambda x, pos: np.stack([apply_rope(x[:, h], pos) for h in range(x.shape[1])], 1)
        ref = reference_attention(rope(q, [127]), rope(fp16(k_pool[sl]), sl), fp16(v_pool[sl]))
        np.testing.assert_allclose(out, ref, atol=1e-6)

    def test_batch_size_mismatch(self, rng):
        mapping, _, _, store = build([64], rng)
        with pytest.raises(ValueError, match="requests"):
            quest_mapping(mapping.kv, np.zeros((3, 4, 16)), store, 2)

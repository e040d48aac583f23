"""Tests for composable-format decomposition (paper §3.1.2)."""

import numpy as np
import pytest

from conftest import make_shared_prefix_mapping
from repro.sparse import (
    ComposableFormat,
    PrefixCluster,
    decompose_shared_prefix,
    detect_shared_prefixes,
    kv_from_page_table,
)
from repro.sparse.composable import MIN_CLUSTER_SIZE


class TestPrefixCluster:
    def test_requests_must_be_consecutive(self):
        with pytest.raises(ValueError, match="consecutive"):
            PrefixCluster((0, 2), 16)

    def test_negative_prefix_rejected(self):
        with pytest.raises(ValueError):
            PrefixCluster((0, 1), -1)


class TestDecompose:
    def test_two_formats_produced(self):
        mapping, _, clusters = make_shared_prefix_mapping(2, 3, 64, 32)
        comp = decompose_shared_prefix(mapping, clusters)
        assert [m.label for m in comp] == ["prefix", "suffix"]

    def test_exact_partition_of_kv(self):
        """Every query's KV set is covered exactly once across formats."""
        mapping, _, clusters = make_shared_prefix_mapping(2, 3, 64, 40)
        comp = decompose_shared_prefix(mapping, clusters)
        prefix, suffix = comp.mappings
        for r in range(mapping.num_groups):
            full = set(mapping.kv.slot_indices(r).tolist())
            suf = set(suffix.kv.slot_indices(r).tolist())
            # Find the prefix group covering this request's rows.
            row = int(mapping.qo_indptr[r])
            pg = None
            for g in range(prefix.num_groups):
                s = int(prefix.q_row_starts[g])
                if s <= row < s + int(prefix.qo_lens[g]):
                    pg = g
            assert pg is not None
            pre = set(prefix.kv.slot_indices(pg).tolist())
            assert pre | suf == full
            assert not (pre & suf)

    def test_positions_preserved(self):
        mapping, _, clusters = make_shared_prefix_mapping(1, 2, 64, 32)
        comp = decompose_shared_prefix(mapping, clusters)
        prefix, suffix = comp.mappings
        assert prefix.kv_pos_offset[0] == 0
        assert np.all(suffix.kv_pos_offset == 64)
        # Decode queries still sit at their absolute last positions.
        assert np.all(suffix.q_pos_offset == mapping.q_pos_offset)

    def test_prefix_not_causal(self):
        mapping, _, clusters = make_shared_prefix_mapping(1, 2, 64, 32)
        comp = decompose_shared_prefix(mapping, clusters)
        assert comp.mappings[0].causal is False
        assert comp.mappings[1].causal is True

    def test_prefix_rounds_down_to_block(self):
        mapping, _, clusters = make_shared_prefix_mapping(1, 2, 64, 32)
        cl = PrefixCluster(clusters[0].requests, 70)  # not page aligned
        comp = decompose_shared_prefix(mapping, [cl])
        assert comp.mappings[0].kv.kv_lens[0] == 64

    def test_single_request_cluster_ignored(self):
        mapping, _, _ = make_shared_prefix_mapping(1, 2, 64, 32)
        comp = decompose_shared_prefix(mapping, [PrefixCluster((0,), 64)])
        assert len(comp) == 1  # falls back to the single format

    def test_short_prefix_ignored(self):
        mapping, _, clusters = make_shared_prefix_mapping(1, 2, 64, 32, page_size=16)
        cl = PrefixCluster(clusters[0].requests, 8)  # < one block
        comp = decompose_shared_prefix(mapping, [cl])
        assert len(comp) == 1

    def test_non_shared_prefix_rejected(self):
        # Two requests with entirely distinct pages.
        kv = kv_from_page_table([np.arange(4), np.arange(4, 8)], [64, 64], 16, 8)
        mapping_qo = np.array([0, 1, 2])
        from repro.sparse import AttentionMapping

        mapping = AttentionMapping(mapping_qo, kv, causal=True)
        with pytest.raises(ValueError, match="share"):
            decompose_shared_prefix(mapping, [PrefixCluster((0, 1), 64)])

    def test_double_claim_rejected(self):
        mapping, _, clusters = make_shared_prefix_mapping(1, 3, 64, 32)
        a = PrefixCluster(clusters[0].requests[:2], 64)
        b = PrefixCluster(clusters[0].requests[1:], 64)
        with pytest.raises(ValueError, match="two clusters"):
            decompose_shared_prefix(mapping, [a, b])

    def test_block_row_size_hint(self):
        mapping, _, clusters = make_shared_prefix_mapping(2, 4, 64, 32, qo_per_stream=2)
        comp = decompose_shared_prefix(mapping, clusters)
        assert comp.mappings[0].block_row_size == 8  # 4 streams × 2 queries


class TestDetect:
    def test_detects_planted_clusters(self):
        mapping, _, clusters = make_shared_prefix_mapping(3, 4, 64, 32)
        found = detect_shared_prefixes(mapping.kv)
        assert len(found) == 3
        for got, want in zip(found, clusters):
            assert got.requests == want.requests
            assert got.prefix_len == want.prefix_len

    def test_no_clusters_in_disjoint_pool(self):
        kv = kv_from_page_table(
            [np.arange(0, 2), np.arange(2, 4), np.arange(4, 6)], [32, 32, 32], 16, 6
        )
        assert detect_shared_prefixes(kv) == []

    def test_prefix_stops_at_the_first_differing_page(self):
        # Three streams share pages 0-1; the first two also share page 2.
        kv = kv_from_page_table(
            [np.array([0, 1, 2, 3]), np.array([0, 1, 2, 4]), np.array([0, 1, 5, 6])],
            [64, 64, 64], 16, 7,
        )
        (found,) = detect_shared_prefixes(kv)
        assert found.requests == (0, 1, 2)
        assert found.prefix_len == 32

    def test_prefix_is_capped_by_the_shortest_member(self):
        # Identical page lists, but one stream holds only 20 tokens: the
        # prefix keeps whole pages of the shortest member (one 16-token page).
        kv = kv_from_page_table(
            [np.array([0, 1, 2]), np.array([0, 1])], [48, 20], 16, 3
        )
        (found,) = detect_shared_prefixes(kv)
        assert found.prefix_len == 16

    def test_min_cluster_size(self):
        # Two streams sharing a prefix are the smallest cluster.
        assert MIN_CLUSTER_SIZE == 2
        mapping, _, _ = make_shared_prefix_mapping(1, 2, 64, 32)
        (found,) = detect_shared_prefixes(mapping.kv)
        assert found.requests == (0, 1)


class TestComposableFormat:
    def test_single(self):
        mapping, _, _ = make_shared_prefix_mapping(1, 2, 64, 32)
        comp = ComposableFormat.single(mapping)
        assert len(comp) == 1
        assert comp.total_qo == mapping.total_qo


class TestMultiLevel:
    def _two_level_setup(self):
        """8 requests: all share a 32-token system prompt; requests 0-3 and
        4-7 additionally share 32 more tokens each (fork prompts)."""
        from repro.sparse import kv_from_page_table, AttentionMapping

        page = 16
        sys_pages = np.arange(0, 2)          # 32 tokens shared by everyone
        grp_a = np.arange(2, 4)              # +32 shared by requests 0-3
        grp_b = np.arange(4, 6)              # +32 shared by requests 4-7
        pages, kv_lens, c = [], [], 6
        for r in range(8):
            grp = grp_a if r < 4 else grp_b
            own = np.arange(c, c + 2)        # 32 unique tokens
            c += 2
            pages.append(np.concatenate([sys_pages, grp, own]))
            kv_lens.append(96)
        kv = kv_from_page_table(pages, kv_lens, page, c)
        mapping = AttentionMapping(np.arange(9, dtype=np.int64), kv, causal=True)
        levels = [
            [PrefixCluster(tuple(range(8)), 32)],
            [PrefixCluster(tuple(range(4)), 64), PrefixCluster(tuple(range(4, 8)), 64)],
        ]
        return mapping, levels, c * page

    def test_three_formats_produced(self):
        from repro.sparse import decompose_multi_level

        mapping, levels, _ = self._two_level_setup()
        comp = decompose_multi_level(mapping, levels)
        assert [m.label for m in comp] == ["prefix_l0", "prefix_l1", "suffix"]
        # Level 0: one group spanning all 8 queries; level 1: two groups.
        assert comp.mappings[0].num_groups == 1
        assert comp.mappings[1].num_groups == 2
        assert np.all(comp.mappings[1].kv_pos_offset == 32)
        assert np.all(comp.mappings[2].kv_pos_offset == 64)

    def test_numerics_match_single_format(self, rng):
        from repro.sparse import decompose_multi_level
        from repro import BatchAttentionWrapper, ComposableAttentionWrapper, WorkspaceBuffer
        from repro.core import HeadConfig, VANILLA

        mapping, levels, slots = self._two_level_setup()
        comp = decompose_multi_level(mapping, levels)
        heads = HeadConfig(4, 2, 16)
        q = rng.standard_normal((8, 4, 16))
        kp = rng.standard_normal((slots, 2, 16))
        vp = rng.standard_normal((slots, 2, 16))
        cw = ComposableAttentionWrapper(VANILLA, heads, WorkspaceBuffer(1 << 27))
        cw.plan(comp)
        out_c, _ = cw.run(q, kp, vp)
        sw = BatchAttentionWrapper(VANILLA, heads, WorkspaceBuffer(1 << 27), avg_qo_len=1)
        sw.plan(mapping)
        out_s, _, _ = sw.run(q, kp, vp)
        np.testing.assert_allclose(out_c, out_s, atol=1e-5)

    def test_two_levels_beat_one_on_traffic(self, rng):
        """With a large shared system prompt, peeling it into its own
        level removes its duplicate reads across fork clusters."""
        from repro.sparse import decompose_multi_level, decompose_shared_prefix, \
            kv_from_page_table, AttentionMapping
        from repro import ComposableAttentionWrapper, WorkspaceBuffer
        from repro.core import HeadConfig, VANILLA

        page = 16
        sys_pages = np.arange(0, 64)  # 1024-token system prompt
        # Two fork clusters of 8 requests, each sharing 64 extra tokens.
        pages, kv_lens, c = [], [], 64
        grp_a = np.arange(c, c + 4); c += 4
        grp_b = np.arange(c, c + 4); c += 4
        for r in range(16):
            grp = grp_a if r < 8 else grp_b
            own = np.arange(c, c + 1); c += 1
            pages.append(np.concatenate([sys_pages, grp, own]))
            kv_lens.append(64 * page + 4 * page + page)
        kv = kv_from_page_table(pages, kv_lens, page, c)
        mapping = AttentionMapping(np.arange(17, dtype=np.int64), kv, causal=True)
        levels = [
            [PrefixCluster(tuple(range(16)), 64 * page)],
            [PrefixCluster(tuple(range(8)), 68 * page),
             PrefixCluster(tuple(range(8, 16)), 68 * page)],
        ]
        heads = HeadConfig(4, 2, 16)
        two = decompose_multi_level(mapping, levels)
        one = decompose_shared_prefix(mapping, levels[1])  # fork level only
        traffic = {}
        for name, comp in (("two", two), ("one", one)):
            cw = ComposableAttentionWrapper(VANILLA, heads, WorkspaceBuffer(1 << 27))
            cw.plan(comp)
            _, rep = cw.run(None, compute=False)
            traffic[name] = rep.total_bytes
        assert traffic["two"] < traffic["one"]

    def test_inner_prefix_must_extend_outer(self):
        from repro.sparse import decompose_multi_level

        mapping, levels, _ = self._two_level_setup()
        bad = [levels[0], [PrefixCluster(tuple(range(4)), 32)]]  # same as outer
        with pytest.raises(ValueError, match="extend"):
            decompose_multi_level(mapping, bad)

    def test_unequal_peeling_rejected(self):
        from repro.sparse import decompose_multi_level

        mapping, levels, _ = self._two_level_setup()
        # Outer level only covers half the requests the inner one does.
        bad_outer = [PrefixCluster(tuple(range(2, 6)), 32)]
        with pytest.raises(ValueError, match="unequal"):
            decompose_multi_level(mapping, [bad_outer, levels[1]])


class TestDecomposeProperties:
    """Property-based checks over random cluster structures."""

    from hypothesis import given, settings
    from hypothesis import strategies as st

    @given(
        st.integers(0, 2**31 - 1),
        st.integers(1, 4),   # number of clusters
        st.integers(2, 4),   # cluster size
        st.integers(1, 4),   # prefix pages
        st.integers(1, 5),   # suffix pages
    )
    @settings(max_examples=30, deadline=None)
    def test_partition_and_numerics(self, seed, n_clusters, csize, ppages, spages):
        from conftest import make_shared_prefix_mapping
        from repro import BatchAttentionWrapper, ComposableAttentionWrapper, WorkspaceBuffer
        from repro.core import HeadConfig, VANILLA

        page = 8
        mapping, slots, clusters = make_shared_prefix_mapping(
            n_clusters, csize, ppages * page, spages * page, page_size=page
        )
        comp = decompose_shared_prefix(mapping, clusters)
        assert len(comp) == 2

        # Partition: prefix ∪ suffix == full KV, disjoint, per request.
        prefix, suffix = comp.mappings
        for r in range(mapping.num_groups):
            full = set(mapping.kv.slot_indices(r).tolist())
            suf = set(suffix.kv.slot_indices(r).tolist())
            row = int(mapping.qo_indptr[r])
            pg = next(
                g for g in range(prefix.num_groups)
                if int(prefix.q_row_starts[g]) <= row
                < int(prefix.q_row_starts[g]) + int(prefix.qo_lens[g])
            )
            pre = set(prefix.kv.slot_indices(pg).tolist())
            assert pre | suf == full and not (pre & suf)

        # Numerics: ⊕-merged stack equals the single format.
        rng = np.random.default_rng(seed)
        heads = HeadConfig(2, 2, 8)
        q = rng.standard_normal((mapping.total_qo, 2, 8))
        kp = rng.standard_normal((slots, 2, 8))
        vp = rng.standard_normal((slots, 2, 8))
        cw = ComposableAttentionWrapper(VANILLA, heads, WorkspaceBuffer(1 << 26))
        cw.plan(comp)
        out_c, _ = cw.run(q, kp, vp)
        sw = BatchAttentionWrapper(VANILLA, heads, WorkspaceBuffer(1 << 26), avg_qo_len=1)
        sw.plan(mapping)
        out_s, _, _ = sw.run(q, kp, vp)
        np.testing.assert_allclose(out_c, out_s, atol=1e-5)

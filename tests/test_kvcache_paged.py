"""Tests for the paged KV cache (page table, refcounts, COW)."""

import json

import numpy as np
import pytest

from repro.kvcache import OutOfPagesError, PagedKVCache


def make_cache(num_pages=16, page_size=4, heads=2, dim=8):
    return PagedKVCache(num_pages, page_size, heads, dim)


def kv(n, heads=2, dim=8, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, heads, dim)), rng.standard_normal((n, heads, dim))


class TestAppendGather:
    def test_append_round_trip(self):
        c = make_cache()
        s = c.new_seq()
        k, v = kv(10)
        c.append(s, k, v)
        gk, gv = c.gather(s)
        assert np.allclose(gk, k) and np.allclose(gv, v)

    def test_incremental_appends(self):
        c = make_cache()
        s = c.new_seq()
        k, v = kv(11)
        for i in range(11):
            c.append(s, k[i : i + 1], v[i : i + 1])
        gk, _ = c.gather(s)
        assert np.allclose(gk, k)
        assert c.seq_len(s) == 11
        assert len(c.seq_pages(s)) == 3  # ceil(11/4)

    def test_page_accounting(self):
        c = make_cache(num_pages=4)
        s = c.new_seq()
        k, v = kv(9)
        c.append(s, k, v)
        assert c.num_used_pages == 3
        c.free_seq(s)
        assert c.num_used_pages == 0
        assert c.num_free_pages == 4

    def test_out_of_pages(self):
        c = make_cache(num_pages=2)
        s = c.new_seq()
        k, v = kv(8)
        c.append(s, k, v)
        with pytest.raises(OutOfPagesError):
            c.append(s, k[:1], v[:1])

    def test_shape_validation(self):
        c = make_cache()
        s = c.new_seq()
        with pytest.raises(ValueError, match="shape"):
            c.append(s, np.zeros((1, 3, 8)), np.zeros((1, 3, 8)))

    def test_kv_shape_mismatch(self):
        c = make_cache()
        s = c.new_seq()
        with pytest.raises(ValueError, match="shape"):
            c.append(s, np.zeros((1, 2, 8)), np.zeros((2, 2, 8)))

    def test_unknown_seq(self):
        c = make_cache()
        with pytest.raises(KeyError):
            c.seq_len(99)


class TestForkCow:
    def test_fork_shares_full_pages(self):
        c = make_cache()
        a = c.new_seq()
        k, v = kv(8)  # exactly 2 pages
        c.append(a, k, v)
        b = c.fork_seq(a)
        assert c.seq_pages(a) == c.seq_pages(b)
        assert c.num_used_pages == 2
        for p in c.seq_pages(a):
            assert c.page_refcount(p) == 2

    def test_fork_copies_partial_page(self):
        c = make_cache()
        a = c.new_seq()
        k, v = kv(6)  # 1.5 pages
        c.append(a, k, v)
        b = c.fork_seq(a)
        assert c.seq_pages(a)[0] == c.seq_pages(b)[0]
        assert c.seq_pages(a)[1] != c.seq_pages(b)[1]
        gk, _ = c.gather(b)
        assert np.allclose(gk, k)

    def test_writes_after_fork_are_isolated(self):
        c = make_cache()
        a = c.new_seq()
        k, v = kv(6)
        c.append(a, k, v)
        b = c.fork_seq(a)
        k2, v2 = kv(1, seed=7)
        c.append(a, k2, v2)
        gk_b, _ = c.gather(b)
        assert gk_b.shape[0] == 6
        assert np.allclose(gk_b, k)  # fork unaffected

    def test_cow_on_shared_partial_page(self):
        """Appending to a sequence whose partial last page is shared must
        copy before writing (prefix-cache safety)."""
        c = make_cache()
        a = c.new_seq()
        k, v = kv(8)
        c.append(a, k, v)
        b = c.fork_seq(a)  # shares both full pages
        k2, v2 = kv(2, seed=3)
        c.append(a, k2, v2)  # new page for a
        c.append(b, k2, v2)  # new page for b
        ga, _ = c.gather(a)
        gb, _ = c.gather(b)
        assert np.allclose(ga, gb)

    def test_free_fork_keeps_parent(self):
        c = make_cache()
        a = c.new_seq()
        k, v = kv(8)
        c.append(a, k, v)
        b = c.fork_seq(a)
        c.free_seq(b)
        gk, _ = c.gather(a)
        assert np.allclose(gk, k)
        assert c.num_used_pages == 2


class TestSharedPrefix:
    def test_new_seq_from_cached_pages(self):
        c = make_cache()
        a = c.new_seq()
        k, v = kv(8)
        c.append(a, k, v)
        pages = c.seq_pages(a)
        b = c.new_seq(shared_pages=pages, shared_len=8)
        gk, _ = c.gather(b)
        assert np.allclose(gk, k)
        c.free_seq(a)
        gk2, _ = c.gather(b)  # pages kept alive by b's reference
        assert np.allclose(gk2, k)

    def test_shared_len_must_fill_pages(self):
        c = make_cache()
        with pytest.raises(ValueError, match="shared_len"):
            c.new_seq(shared_pages=[0], shared_len=3)

    def test_retain_release(self):
        c = make_cache()
        a = c.new_seq()
        k, v = kv(4)
        c.append(a, k, v)
        p = c.seq_pages(a)
        c.retain_pages(p)
        c.free_seq(a)
        assert c.num_used_pages == 1
        c.release_pages(p)
        assert c.num_used_pages == 0


class TestExtend:
    def test_extend_allocates_structure(self):
        c = make_cache()
        s = c.new_seq()
        c.extend(s, 9)
        assert c.seq_len(s) == 9
        assert len(c.seq_pages(s)) == 3

    def test_extend_negative_rejected(self):
        c = make_cache()
        s = c.new_seq()
        with pytest.raises(ValueError):
            c.extend(s, -1)

    def test_extend_cow(self):
        c = make_cache()
        a = c.new_seq()
        c.extend(a, 6)
        b = c.fork_seq(a)
        pages_before = c.seq_pages(b)
        c.extend(b, 1)
        assert c.seq_len(b) == 7
        # b's partial page was private after fork, so no change of page ids.
        assert c.seq_pages(b)[:2] == pages_before[:2]


class TestCacheTruncation:
    def test_truncate_frees_pages(self):
        cache = PagedKVCache(16, 4, 1, 4)
        sid = cache.new_seq()
        cache.extend(sid, 14)
        used = cache.num_used_pages
        cache.truncate(sid, 5)
        assert cache.seq_len(sid) == 5
        assert cache.num_used_pages == 2
        assert cache.num_used_pages < used

    def test_truncate_then_extend(self):
        cache = PagedKVCache(16, 4, 1, 4)
        sid = cache.new_seq()
        cache.extend(sid, 10)
        cache.truncate(sid, 3)
        cache.extend(sid, 6)
        assert cache.seq_len(sid) == 9

    def test_truncate_bounds(self):
        cache = PagedKVCache(16, 4, 1, 4)
        sid = cache.new_seq()
        cache.extend(sid, 4)
        with pytest.raises(ValueError):
            cache.truncate(sid, 5)
        with pytest.raises(ValueError):
            cache.truncate(sid, -1)

    def test_truncate_shared_page_keeps_fork_intact(self):
        """Rolling back one fork must not disturb its sibling, even when the
        cut lands inside a page the two still share."""
        c = make_cache()
        root = c.new_seq()
        k, v = kv(9)  # two full pages (shared by a fork) + one partial
        c.append(root, k, v)
        fork = c.fork_seq(root)
        c.append(fork, *kv(3, seed=1))
        c.truncate(fork, 9)  # reject the fork's extension
        assert np.allclose(c.gather(fork)[0], k)
        c.truncate(fork, 5)  # cut inside the second shared page
        c.append(fork, *kv(2, seed=2))  # must copy that page before writing
        k_new, v_new = kv(1, seed=3)
        c.append(root, k_new, v_new)
        gk, gv = c.gather(root)
        assert np.allclose(gk, np.concatenate([k, k_new]))
        assert np.allclose(gv, np.concatenate([v, v_new]))
        assert c.seq_pages(root)[0] == c.seq_pages(fork)[0]
        assert c.seq_pages(root)[1] != c.seq_pages(fork)[1]

    def test_truncate_to_zero_releases_every_page(self):
        c = make_cache()
        s = c.new_seq()
        c.extend(s, 10)
        c.truncate(s, 0)
        assert c.seq_len(s) == 0
        assert c.seq_pages(s) == []
        assert c.num_used_pages == 0

    def test_truncate_at_current_length_is_a_noop(self):
        c = make_cache()
        s = c.new_seq()
        k, v = kv(7)
        c.append(s, k, v)
        pages = c.seq_pages(s)
        c.truncate(s, 7)
        assert c.seq_pages(s) == pages
        assert np.allclose(c.gather(s)[0], k)

    def test_truncate_on_page_boundary_keeps_whole_pages(self):
        c = make_cache()
        s = c.new_seq()
        c.extend(s, 11)
        pages = c.seq_pages(s)
        c.truncate(s, 8)
        assert c.seq_pages(s) == pages[:2]
        assert c.num_used_pages == 2

    def test_truncate_keeps_prefix_data(self):
        c = make_cache()
        s = c.new_seq()
        k, v = kv(10)
        c.append(s, k, v)
        c.truncate(s, 6)
        gk, gv = c.gather(s)
        assert np.allclose(gk, k[:6]) and np.allclose(gv, v[:6])
        k2, v2 = kv(3, seed=5)
        c.append(s, k2, v2)  # overwrites the rolled-back slots
        gk, gv = c.gather(s)
        assert np.allclose(gk, np.concatenate([k[:6], k2]))
        assert np.allclose(gv, np.concatenate([v[:6], v2]))

    def test_truncated_pages_serve_other_sequences(self):
        c = make_cache(num_pages=3)
        a = c.new_seq()
        c.extend(a, 12)  # the whole pool
        b = c.new_seq()
        with pytest.raises(OutOfPagesError):
            c.extend(b, 1)
        c.truncate(a, 4)
        c.extend(b, 8)
        assert c.num_free_pages == 0
        assert set(c.seq_pages(a)).isdisjoint(c.seq_pages(b))

    def test_truncate_unknown_seq(self):
        c = make_cache()
        with pytest.raises(KeyError):
            c.truncate(99, 0)


class TestLayoutExport:
    def test_layout_matches_pages(self):
        c = make_cache()
        a, b = c.new_seq(), c.new_seq()
        c.extend(a, 6)
        c.extend(b, 4)
        layout = c.layout([a, b])
        assert layout.block_size == 4
        assert np.array_equal(layout.kv_lens, [6, 4])
        assert np.array_equal(layout.group_blocks(0), c.seq_pages(a))
        assert np.array_equal(layout.group_blocks(1), c.seq_pages(b))

    def test_layout_slots_gather_correct_data(self):
        c = make_cache()
        a = c.new_seq()
        k, v = kv(7)
        c.append(a, k, v)
        layout = c.layout([a])
        slots = layout.slot_indices(0)
        assert np.allclose(c.k_pool[slots], k)


class TestStructureOnlyMode:
    def test_materialize_false_has_no_pools(self):
        c = PagedKVCache(8, 4, 2, 8, materialize=False)
        assert c.k_pool is None and c.v_pool is None

    def test_append_rejected(self):
        c = PagedKVCache(8, 4, 2, 8, materialize=False)
        s = c.new_seq()
        with pytest.raises(RuntimeError, match="materialized"):
            c.append(s, np.zeros((1, 2, 8)), np.zeros((1, 2, 8)))

    def test_gather_rejected(self):
        c = PagedKVCache(8, 4, 2, 8, materialize=False)
        s = c.new_seq()
        c.extend(s, 4)
        with pytest.raises(RuntimeError, match="materialized"):
            c.gather(s)

    def test_structure_operations_work(self):
        c = PagedKVCache(8, 4, 2, 8, materialize=False)
        a = c.new_seq()
        c.extend(a, 10)
        b = c.fork_seq(a)
        c.extend(b, 1)  # COW on the shared partial page, no data copied
        layout = c.layout([a, b])
        assert np.array_equal(layout.kv_lens, [10, 11])
        c.truncate(b, 3)
        assert c.seq_len(b) == 3


class TestLiveOnlyState:
    """The bookkeeping and its snapshot name live pages only."""

    @staticmethod
    def _fifty_ops(c):
        seqs = [c.new_seq() for _ in range(5)]
        for i in range(40):
            c.extend(seqs[i % 5], 7 + 3 * i)
        seqs.append(c.fork_seq(seqs[1]))
        c.truncate(seqs[3], 20)
        c.free_seq(seqs[0])
        c.corrupt_page(c.seq_pages(seqs[2])[1])
        c.extend(seqs[4], 100)

    def test_snapshot_size_is_independent_of_pool_size(self):
        big = PagedKVCache(1 << 24, 16, 8, 128, materialize=False)
        small = PagedKVCache(256, 16, 8, 128, materialize=False)
        self._fifty_ops(big)
        self._fifty_ops(small)
        sizes = [len(json.dumps(c.export_state())) for c in (big, small)]
        assert sizes[0] - sizes[1] == len(str(1 << 24)) - len(str(256))

    def test_round_trip_keeps_the_reuse_order_of_freed_pages(self):
        c = PagedKVCache(16, 4, 2, 8, materialize=False)
        a, b, keep = c.new_seq(), c.new_seq(), c.new_seq()
        for s in (a, keep, b):
            c.extend(s, 8)
        c.free_seq(b)  # pages 4, 5 ...
        c.free_seq(a)  # ... then 0, 1: reused 1, 0, 5, 4, then fresh 6
        restored = PagedKVCache.from_state(json.loads(json.dumps(c.export_state())))
        for cache in (c, restored):
            s = cache.new_seq()
            cache.extend(s, 20)
            assert cache.seq_pages(s) == [1, 0, 5, 4, 6]

    @pytest.mark.parametrize("edit, match", [
        (lambda st: st["refcount"].update({"9": 1}), "fresh"),
        (lambda st: st["recycled"].append(0), "recycled"),
        (lambda st: st["seqs"]["0"]["pages"].append(3), "not live"),
    ])
    def test_from_state_rejects_an_inconsistent_page_table(self, edit, match):
        c = PagedKVCache(16, 4, 2, 8, materialize=False)
        a, b = c.new_seq(), c.new_seq()
        c.extend(a, 8)
        c.extend(b, 8)
        c.free_seq(b)  # live {0, 1}, recycled [2, 3], fresh 4
        state = json.loads(json.dumps(c.export_state()))
        PagedKVCache.from_state(state)
        edit(state)
        with pytest.raises(ValueError, match=match):
            PagedKVCache.from_state(state)

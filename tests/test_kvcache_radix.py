"""Tests for the radix-tree prefix cache."""


from repro.kvcache import PagedKVCache, RadixTree


def setup_cache(num_pages=32, page_size=4):
    cache = PagedKVCache(num_pages, page_size, 1, 4)
    return cache, RadixTree(cache)


def fill_seq(cache, tokens):
    """Allocate a sequence covering ``tokens`` (structure only)."""
    sid = cache.new_seq()
    cache.extend(sid, len(tokens))
    return sid


class TestInsertMatch:
    def test_miss_on_empty_tree(self):
        _, tree = setup_cache()
        assert tree.match_prefix([1, 2, 3, 4]) == (0, [])

    def test_exact_hit(self):
        cache, tree = setup_cache()
        toks = [1, 2, 3, 4, 5, 6, 7, 8]
        sid = fill_seq(cache, toks)
        tree.insert(toks, cache.seq_pages(sid))
        matched, pages = tree.match_prefix(toks)
        assert matched == 8
        assert pages == cache.seq_pages(sid)

    def test_partial_hit_whole_pages_only(self):
        cache, tree = setup_cache()
        toks = [1, 2, 3, 4, 5, 6, 7, 8]
        sid = fill_seq(cache, toks)
        tree.insert(toks, cache.seq_pages(sid))
        # Query diverges in the second page: only the first page matches.
        matched, pages = tree.match_prefix([1, 2, 3, 4, 5, 6, 99, 100])
        assert matched == 4
        assert pages == cache.seq_pages(sid)[:1]

    def test_sub_page_divergence_no_hit(self):
        cache, tree = setup_cache()
        toks = [1, 2, 3, 4]
        sid = fill_seq(cache, toks)
        tree.insert(toks, cache.seq_pages(sid))
        matched, pages = tree.match_prefix([1, 2, 99, 4])
        assert matched == 0 and pages == []

    def test_unaligned_tail_not_cached(self):
        cache, tree = setup_cache()
        toks = [1, 2, 3, 4, 5, 6]  # 1.5 pages
        sid = fill_seq(cache, toks)
        new = tree.insert(toks, cache.seq_pages(sid))
        assert new == 1  # only the full page
        assert tree.match_prefix(toks)[0] == 4

    def test_extending_insert_reuses_prefix(self):
        cache, tree = setup_cache()
        a = fill_seq(cache, range(8))
        tree.insert(list(range(8)), cache.seq_pages(a))
        # A longer sequence sharing the first 8 tokens.
        b = cache.new_seq(shared_pages=cache.seq_pages(a), shared_len=8)
        cache.extend(b, 8)
        new = tree.insert(list(range(8)) + [90, 91, 92, 93, 94, 95, 96, 97],
                          cache.seq_pages(b))
        assert new == 2  # only the two new pages
        matched, pages = tree.match_prefix(list(range(8)) + [90, 91, 92, 93])
        assert matched == 12

    def test_branching(self):
        cache, tree = setup_cache()
        a = fill_seq(cache, [1, 2, 3, 4, 5, 6, 7, 8])
        tree.insert([1, 2, 3, 4, 5, 6, 7, 8], cache.seq_pages(a))
        b = fill_seq(cache, [1, 2, 3, 4, 50, 60, 70, 80])
        tree.insert([1, 2, 3, 4, 50, 60, 70, 80], cache.seq_pages(b))
        m1, _ = tree.match_prefix([1, 2, 3, 4, 5, 6, 7, 8])
        m2, _ = tree.match_prefix([1, 2, 3, 4, 50, 60, 70, 80])
        assert m1 == 8 and m2 == 8

    def test_insert_takes_reference(self):
        cache, tree = setup_cache()
        a = fill_seq(cache, range(8))
        pages = cache.seq_pages(a)
        tree.insert(list(range(8)), pages)
        cache.free_seq(a)
        # Pages stay allocated for the cache's benefit.
        assert cache.num_used_pages == 2
        assert tree.match_prefix(list(range(8)))[0] == 8


class TestEviction:
    def test_evict_releases_pages(self):
        cache, tree = setup_cache()
        a = fill_seq(cache, range(8))
        tree.insert(list(range(8)), cache.seq_pages(a))
        cache.free_seq(a)
        released = tree.evict(2)
        assert released == 2
        assert cache.num_used_pages == 0
        assert tree.num_cached_pages == 0

    def test_evicts_lru_first(self):
        cache, tree = setup_cache()
        a = fill_seq(cache, [1, 2, 3, 4])
        tree.insert([1, 2, 3, 4], cache.seq_pages(a))
        b = fill_seq(cache, [9, 9, 9, 9])
        tree.insert([9, 9, 9, 9], cache.seq_pages(b))
        tree.match_prefix([1, 2, 3, 4])  # touch a → b becomes LRU
        tree.evict(1)
        assert tree.match_prefix([1, 2, 3, 4])[0] == 4
        assert tree.match_prefix([9, 9, 9, 9])[0] == 0

    def test_evict_more_than_cached(self):
        cache, tree = setup_cache()
        a = fill_seq(cache, range(4))
        tree.insert(list(range(4)), cache.seq_pages(a))
        assert tree.evict(100) == 1

    def test_evict_empty_tree(self):
        _, tree = setup_cache()
        assert tree.evict(5) == 0

    def test_drop_pages_forgets_the_node_and_everything_below_it(self):
        cache, tree = setup_cache()
        shared = [1, 2, 3, 4, 5, 6, 7, 8]
        a = fill_seq(cache, shared + [10, 11, 12, 13])
        b = cache.new_seq(cache.seq_pages(a)[:2], 8)
        cache.extend(b, 4)
        tree.insert(shared + [10, 11, 12, 13], cache.seq_pages(a))
        tree.insert(shared + [20, 21, 22, 23], cache.seq_pages(b))
        pages_a, pages_b = cache.seq_pages(a), cache.seq_pages(b)
        cache.free_seq(a)
        cache.free_seq(b)
        assert tree.num_cached_pages == cache.num_used_pages == 4
        # A page of one leaf: only that leaf goes.
        assert tree.drop_pages({pages_b[2]}) == 1
        assert tree.match_prefix(shared + [20, 21, 22, 23])[0] == 8
        assert tree.match_prefix(shared + [10, 11, 12, 13])[0] == 12
        # A page of the shared chunk: the chunk and the leaf under it go.
        assert tree.drop_pages({pages_a[1]}) == 3
        assert tree.match_prefix(shared + [10, 11, 12, 13]) == (0, [])
        assert tree.num_cached_pages == cache.num_used_pages == 0


class TestAccounting:
    def test_num_cached_pages(self):
        cache, tree = setup_cache()
        a = fill_seq(cache, range(12))
        assert tree.insert(list(range(12)), cache.seq_pages(a)) == 3
        assert tree.num_cached_pages == 3
        assert tree.insert(list(range(12)), cache.seq_pages(a)) == 0  # no dupes
        assert tree.num_cached_pages == 3

"""Tests for the radix-tree prefix cache."""

import json

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from conftest import benchmark_workloads, cached_pages, sweep
from reference_radix import TwoWalkRadixTree
from repro.kvcache import PagedKVCache, RadixTree
from repro.serving.batching import prompt_token_ids


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
        assert tree.evict_until(cache.num_pages) == 2
        assert cache.num_used_pages == 0
        assert cached_pages(tree) == 0

    def test_evicts_lru_first(self):
        cache, tree = setup_cache()
        a = fill_seq(cache, [1, 2, 3, 4])
        tree.insert([1, 2, 3, 4], cache.seq_pages(a))
        b = fill_seq(cache, [9, 9, 9, 9])
        tree.insert([9, 9, 9, 9], cache.seq_pages(b))
        cache.free_seq(a)
        cache.free_seq(b)
        tree.match_prefix([1, 2, 3, 4])  # touch a → b becomes LRU
        assert tree.evict_until(cache.num_free_pages + 1) == 1
        assert tree.match_prefix([1, 2, 3, 4])[0] == 4
        assert tree.match_prefix([9, 9, 9, 9])[0] == 0

    def test_evict_more_than_cached(self):
        cache, tree = setup_cache()
        a = fill_seq(cache, range(4))
        tree.insert(list(range(4)), cache.seq_pages(a))
        cache.free_seq(a)
        assert tree.evict_until(10**6) == 1  # stops once the tree is empty

    def test_evict_empty_tree(self):
        _, tree = setup_cache()
        assert tree.evict_until(10**6) == 0

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
        assert cached_pages(tree) == cache.num_used_pages == 4
        # A page of one leaf: only that leaf goes.
        assert tree.drop_pages({pages_b[2]}) == 1
        assert tree.match_prefix(shared + [20, 21, 22, 23])[0] == 8
        assert tree.match_prefix(shared + [10, 11, 12, 13])[0] == 12
        # A page of the shared chunk: the chunk and the leaf under it go.
        assert tree.drop_pages({pages_a[1]}) == 3
        assert tree.match_prefix(shared + [10, 11, 12, 13]) == (0, [])
        assert cached_pages(tree) == cache.num_used_pages == 0


class TestAccounting:
    def test_num_cached_pages(self):
        cache, tree = setup_cache()
        a = fill_seq(cache, range(12))
        assert tree.insert(list(range(12)), cache.seq_pages(a)) == 3
        assert cached_pages(tree) == 3
        assert tree.insert(list(range(12)), cache.seq_pages(a)) == 0  # no dupes
        assert cached_pages(tree) == 3


class TestFirstPageKeying:
    """Children are keyed by their first *page*: the tree splits on pages,
    so a first-token key let one prompt shadow every other prompt that
    starts with the same token (every real tokenizer's BOS)."""

    def test_same_first_token_different_first_page_both_cached(self):
        cache, tree = setup_cache()
        first, second = [5, 1, 2, 3, 4, 4, 4, 4], [5, 9, 9, 9, 4, 4, 4, 4]
        a, b = fill_seq(cache, first), fill_seq(cache, second)
        assert tree.insert(first, cache.seq_pages(a)) == 2
        assert tree.insert(second, cache.seq_pages(b)) == 2  # was 0, forever
        assert tree.match_prefix(second) == (8, cache.seq_pages(b))
        assert tree.match_prefix(first) == (8, cache.seq_pages(a))
        # ... and through a snapshot, split and eviction of one of the two.
        rebuilt = RadixTree.from_state(cache, json.loads(json.dumps(tree.export_state())))
        assert rebuilt.match_prefix(second[:4] + [0] * 4) == (4, cache.seq_pages(b)[:1])
        assert rebuilt.match_prefix(first) == (8, cache.seq_pages(a))
        cache.free_seq(a)
        cache.free_seq(b)
        # LRU leaf: the tail split off ``second``.
        assert rebuilt.evict_until(cache.num_free_pages + 1) == 1
        assert rebuilt.match_prefix(second)[0] == 4
        assert rebuilt.match_prefix(first)[0] == 8

    def test_benchmark_prompts_key_alike_by_token_and_by_page(self):
        """Why no ``prefix_fleet`` number moved with the key: in its loads,
        prompts with an equal first token always have an equal first page
        (the four groups start on four different tokens, and members of a
        group share their whole first page)."""
        workloads = benchmark_workloads()
        for seed in range(10):
            for part in range(workloads.PARTS):
                first_pages = {}
                for rid, r in enumerate(workloads.serving_load("prefix_fleet", seed, part)):
                    page = tuple(prompt_token_ids(r.prefix_group, r.prefix_len, rid, 16).tolist())
                    first_pages.setdefault(page[0], set()).add(page)
                assert len(first_pages) == 4
                assert all(len(pages) == 1 for pages in first_pages.values())


# -- lists and int64 arrays are the same input; the old walks are the oracle -------

_PAGE = 4
#: Page ids 0 and 2 (1 and 3) start on the same token.  A prompt is a cut of
#: one of two stems plus a short random tail, so op sequences are full of
#: long shared prefixes, mid-chunk divergences and same-first-token collisions.
_PAGES = {i: [i % 2, i, i + 1, 7] for i in range(4)}
_STEMS = ((0, 1, 2, 3, 2, 1), (2, 1, 2, 3, 0, 0))
_prompt = st.tuples(
    st.sampled_from(_STEMS), st.integers(0, 6),
    st.lists(st.sampled_from(sorted(_PAGES)), max_size=2),
).map(lambda p: [t for i in (*p[0][: p[1]], *p[2]) for t in _PAGES[i]]).filter(bool)
_op = st.one_of(
    st.tuples(st.just("insert"), _prompt, st.integers(0, 3)),
    st.tuples(st.just("match_prefix"), _prompt, st.integers(0, 3)),
    st.tuples(st.just("evict_until"), st.integers(0, 24)),
    st.tuples(st.just("drop_pages"), st.sets(st.integers(0, 23), max_size=3)),
)


def _replay(ops, as_input, tree_cls=RadixTree):
    """Run ``ops`` on a fresh tree, handing it tokens through ``as_input``;
    returns every return value, the final refcounts and the tree."""
    cache = PagedKVCache(24, _PAGE, 1, 4)
    tree = tree_cls(cache)
    out = []
    for op in ops:
        if op[0] == "insert":
            tokens = op[1] + [9] * op[2]  # a ragged tail is never cached
            matched, pages = tree.match_prefix(as_input(tokens))
            need = -(-len(tokens) // _PAGE) - len(pages)
            if need > cache.num_free_pages:
                tree.evict_until(need)
            if need > cache.num_free_pages:
                continue
            sid = cache.new_seq(shared_pages=pages, shared_len=matched)
            cache.extend(sid, len(tokens) - matched)
            out.append((matched, pages, tree.insert(as_input(tokens), cache.seq_pages(sid))))
            cache.free_seq(sid)
        elif op[0] == "match_prefix":
            out.append(tree.match_prefix(as_input(op[1] + [9] * op[2])))
        else:
            out.append(getattr(tree, op[0])(op[1]))
    refcounts = [cache.page_refcount(p) for p in range(cache.num_pages)]
    return out, refcounts, tree


class TestInputsAndOracle:
    @sweep(38, 150)
    @given(st.lists(_op, min_size=1, max_size=24))
    def test_lists_arrays_and_the_old_walks_build_the_same_tree(self, ops):
        out_l, ref_l, tree_l = _replay(ops, list)
        out_a, ref_a, tree_a = _replay(ops, lambda t: np.asarray(t, dtype=np.int64))
        assert out_a == out_l
        assert ref_a == ref_l
        state = tree_a.export_state()
        assert state == tree_l.export_state()
        # ... and the same as the predecessor's two per-page walks: return
        # values, refcounts, split points and LRU clocks.
        out_o, ref_o, tree_o = _replay(ops, list, TwoWalkRadixTree)
        assert (out_o, ref_o, tree_o.export_state()) == (out_l, ref_l, state)
        # The snapshot trap: array-fed labels must still be Python ints.
        assert len(json.dumps(state)) == len(json.dumps(tree_l.export_state()))
        rebuilt = RadixTree.from_state(tree_a.cache, json.loads(json.dumps(state)))
        for op in ops:
            if op[0] in ("insert", "match_prefix"):
                tokens = op[1] + [9] * op[2]
                # ``match_prefix`` may split a node, so compare on copies' answers only.
                assert rebuilt.match_prefix(tokens) == tree_l.match_prefix(tokens)

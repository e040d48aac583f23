"""The live-only page table must behave exactly like the dense one.

``tests/reference_paged.py`` holds the bookkeeping ``PagedKVCache`` had
when it kept a free list and three arrays the size of the pool.  Page ids
decide every downstream layout, so "same" means the same id from every
allocation, the same answer from every query and ``OutOfPagesError`` at
the same call — checked after each operation of a random sequence, with a
snapshot → JSON → restore round trip of the live-only cache in the
middle.  Hypothesis runs derandomized, so tier-1 sees a fixed sample.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from reference_paged import DensePagedKVCache
from repro.kvcache import OutOfPagesError, PagedKVCache

FIXED = settings(max_examples=200, deadline=None, derandomize=True)

NUM_PAGES, PAGE_SIZE = 8, 4
OPS = ("new_seq", "extend", "fork_seq", "truncate", "free_seq",
       "retain_pages", "release_pages", "corrupt_page")


def assert_same_state(new: PagedKVCache, old: DensePagedKVCache) -> None:
    assert sorted(new._seqs) == sorted(old.seqs)
    for sid, (pages, length) in old.seqs.items():
        assert new.seq_pages(sid) == pages, sid
        assert new.seq_len(sid) == length, sid
    for page in range(NUM_PAGES):
        assert new.page_refcount(page) == old.refcount[page], page
        assert new.page_is_corrupt(page) == old.page_is_corrupt(page), page
    assert new.find_corrupted() == old.find_corrupted()
    assert new.used_pages() == old.used_pages()
    assert new.num_free_pages == len(old.free)
    assert new.num_used_pages == NUM_PAGES - len(old.free)


def concrete_call(old: DensePagedKVCache, held, op, a, b):
    """Turn a drawn ``(op, a, b)`` into a ``(method, args)`` that is valid
    in the current state; ``held`` lists the externally retained pages."""
    seqs, used = sorted(old.seqs), old.used_pages()
    if op == "new_seq" or not seqs:
        shared = []
        if seqs and a % 2:  # start from whole pages of a live sequence
            pages, length = old.seqs[seqs[a % len(seqs)]]
            shared = pages[: length // PAGE_SIZE][: b % 3]
        return "new_seq", (shared, len(shared) * PAGE_SIZE)
    sid = seqs[a % len(seqs)]
    if op in ("fork_seq", "free_seq"):
        return op, (sid,)
    if op == "truncate":
        return "truncate", (sid, b % (old.seqs[sid][1] + 1))
    if op == "retain_pages" and used:
        held.append(used[a % len(used):][: 1 + b % 3])
        return "retain_pages", (held[-1],)
    if op == "release_pages" and held:
        return "release_pages", (held.pop(a % len(held)),)
    if op == "corrupt_page" and used:
        return "corrupt_page", (used[b % len(used)],)
    return "extend", (sid, b % (3 * PAGE_SIZE))


def outcome(cache, method, args):
    try:
        return getattr(cache, method)(*args)
    except OutOfPagesError:
        return OutOfPagesError


@given(
    st.lists(
        st.tuples(st.sampled_from(OPS), st.integers(0, 1 << 16), st.integers(0, 1 << 16)),
        min_size=1, max_size=60,
    ),
    st.integers(0, 1 << 16),
)
@FIXED
def test_live_only_cache_matches_the_dense_reference(ops, round_trip_at):
    new = PagedKVCache(NUM_PAGES, PAGE_SIZE, 2, 8, materialize=False)
    old = DensePagedKVCache(NUM_PAGES, PAGE_SIZE)
    held = []
    for i, (op, a, b) in enumerate(ops):
        if i == round_trip_at % len(ops):
            new = PagedKVCache.from_state(json.loads(json.dumps(new.export_state())))
            assert_same_state(new, old)
        method, args = concrete_call(old, held, op, a, b)
        assert outcome(new, method, args) == outcome(old, method, args), method
        assert_same_state(new, old)

"""Radix-tree prefix cache (SGLang-style RadixAttention substrate).

Maps token sequences to KV-cache pages at page granularity: a lookup returns
the longest cached prefix (in whole pages) plus its page ids; an insert
registers a computed sequence's pages for future reuse.  Unreferenced leaves
are evicted LRU when the paged pool runs dry.

Internally the tree is a compressed trie whose edges are labelled with
page-aligned token chunks; each node owns the pages backing its chunk and
holds a reference on them in the :class:`~repro.kvcache.paged.PagedKVCache`
so shared prefixes stay live while cached.
"""

from __future__ import annotations

from typing import AbstractSet, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.kvcache.paged import PagedKVCache


def _as_labels(tokens: Sequence[int]) -> Tuple[int, ...]:
    """``tokens`` (array or sequence) as a tuple of Python ``int``s, at C
    speed.  Not ``np.int64``: labels go into every engine snapshot through
    :meth:`RadixTree.export_state` and ``json.dumps`` rejects NumPy scalars."""
    return tuple(np.asarray(tokens, dtype=np.int64).tolist())


class _Node:
    __slots__ = ("tokens", "pages", "children", "parent", "last_used")

    def __init__(self, tokens: Tuple[int, ...], pages: List[int], parent: Optional["_Node"]):
        self.tokens = tokens  # page-aligned token chunk labelling the edge in
        self.pages = pages  # pages backing this chunk (len = len(tokens)/page_size)
        # Keyed by the first *page* of the child chunk: the tree only splits
        # on pages, so a first-token key would let one prompt shadow every
        # other that starts with the same token (BOS) but differs in page 0.
        self.children: Dict[Tuple[int, ...], "_Node"] = {}
        self.parent = parent
        self.last_used = 0


class RadixTree:
    """Token-level prefix cache over a :class:`PagedKVCache`.

    All chunks are multiples of ``page_size`` tokens, so a cache hit always
    hands over whole pages — matching the constraint that only whole pages
    can be shared without data movement (paper §3.1.2).
    """

    def __init__(self, cache: PagedKVCache):
        self.cache = cache
        self.page_size = cache.page_size
        self._root = _Node((), [], None)
        self._clock = 0
        self._num_cached_pages = 0

    # -- queries -----------------------------------------------------------

    @property
    def num_cached_pages(self) -> int:
        return self._num_cached_pages

    def _walk(self, tokens: Tuple[int, ...]) -> Tuple[_Node, int, List[int]]:
        """Descend along ``tokens`` while whole cached pages match, touching
        the path for LRU; a node matched in part is split at the last
        matching page, so a hit always ends on a node.  Returns the node
        reached, the number of tokens matched and the pages backing them."""
        page = self.page_size
        node, pos, matched = self._root, 0, []
        self._clock += 1
        while True:
            child = node.children.get(tokens[pos : pos + page])
            if child is None:
                return node, pos, matched
            chunk = child.tokens
            m = len(chunk)
            if tokens[pos : pos + m] != chunk:
                # Some page of ``chunk`` differs or ``tokens`` ends inside it
                # (which stops this scan); the key lookup matched the first.
                m = page
                while tokens[pos + m : pos + m + page] == chunk[m : m + page]:
                    m += page
                self._split(child, m)
                child = child.parent
            child.last_used = self._clock
            matched.extend(child.pages)
            pos += m
            node = child

    def match_prefix(self, tokens: Sequence[int]) -> Tuple[int, List[int]]:
        """Longest cached prefix of ``tokens``.

        Returns ``(matched_len, pages)`` where ``matched_len`` is a multiple
        of ``page_size``.  Touches matched nodes for LRU.
        """
        _, pos, matched = self._walk(_as_labels(tokens))
        return pos, matched

    def insert(self, tokens: Sequence[int], pages: Sequence[int]) -> int:
        """Register ``tokens`` (page-aligned prefix only) backed by ``pages``.

        Only the first ``len(pages) * page_size`` tokens are cached; the
        caller passes the sequence's full pages and the tree stores whole
        pages only.  Returns the number of *new* pages cached (the rest were
        already present).  The tree takes its own reference on new pages.
        """
        tokens = _as_labels(tokens)
        usable = min(len(tokens) // self.page_size, len(pages))
        tokens = tokens[: usable * self.page_size]
        node, pos, matched = self._walk(tokens)
        new_pages = list(pages[len(matched) : usable])
        if new_pages:
            self.cache.retain_pages(new_pages)
            leaf = _Node(tokens[pos:], new_pages, node)
            leaf.last_used = self._clock
            node.children[tokens[pos : pos + self.page_size]] = leaf
            self._num_cached_pages += len(new_pages)
        return len(new_pages)

    def _split(self, node: _Node, token_offset: int) -> None:
        """Split ``node`` so its first ``token_offset`` tokens become a parent."""
        assert token_offset % self.page_size == 0
        npages = token_offset // self.page_size
        parent = node.parent
        assert parent is not None
        upper = _Node(node.tokens[:token_offset], node.pages[:npages], parent)
        upper.last_used = node.last_used
        node.tokens = node.tokens[token_offset:]
        node.pages = node.pages[npages:]
        node.parent = upper
        upper.children[node.tokens[: self.page_size]] = node
        parent.children[upper.tokens[: self.page_size]] = upper

    # -- eviction ------------------------------------------------------------

    def evict(self, num_pages: int) -> int:
        """Evict up to ``num_pages`` pages from LRU leaves.

        Returns the number of pages actually released.  Pages still
        referenced by live sequences remain allocated in the pool (the tree
        merely drops its own reference).
        """
        released = 0
        while released < num_pages:
            leaf = self._lru_leaf()
            if leaf is None:
                break
            released += self._drop(leaf)
        return released

    def _drop(self, node: _Node) -> int:
        """Detach ``node`` and its subtree, releasing the tree's reference
        on every page they hold; returns the number of pages dropped."""
        assert node.parent is not None
        del node.parent.children[node.tokens[: self.page_size]]
        dropped = 0
        stack = [node]
        while stack:
            n = stack.pop()
            stack.extend(n.children.values())
            self.cache.release_pages(n.pages)
            dropped += len(n.pages)
        self._num_cached_pages -= dropped
        return dropped

    def drop_pages(self, pages: AbstractSet[int]) -> int:
        """Forget every node holding one of ``pages``, together with its
        subtree — a chunk is only reachable through its ancestors, so
        nothing below a lost page can be matched again.  Returns the number
        of pages the tree stopped referencing."""
        dropped = 0
        stack = list(self._root.children.values())
        while stack:
            n = stack.pop()
            if pages.isdisjoint(n.pages):
                stack.extend(n.children.values())
            else:
                dropped += self._drop(n)
        return dropped

    def _lru_leaf(self) -> Optional[_Node]:
        best: Optional[_Node] = None
        stack = list(self._root.children.values())
        while stack:
            n = stack.pop()
            if n.children:
                stack.extend(n.children.values())
            else:
                if best is None or n.last_used < best.last_used:
                    best = n
        return best

    def evictable_pages(self) -> int:
        """Cached pages that eviction could return to the free pool.

        A page only becomes free when the tree holds the last reference —
        pages pinned by in-flight sequences stay allocated even after the
        tree drops them, so they don't count toward reclaimable headroom.
        """
        free = 0
        stack = list(self._root.children.values())
        while stack:
            n = stack.pop()
            stack.extend(n.children.values())
            free += sum(1 for p in n.pages if self.cache.page_refcount(p) == 1)
        return free

    def evict_until(self, target_free: int) -> int:
        """Evict LRU leaves until the pool has ``target_free`` free pages.

        Returns the number of pages whose last reference was released (i.e.
        actually freed).  Stops early once the tree is empty; pages pinned
        by live sequences are dropped from the tree but stay allocated.
        """
        freed = 0
        while self.cache.num_free_pages < target_free and self._num_cached_pages:
            leaf = self._lru_leaf()
            if leaf is None:
                break
            before = self.cache.num_free_pages
            self._drop(leaf)
            freed += self.cache.num_free_pages - before
        return freed

    # -- snapshot / restore ---------------------------------------------------

    def export_state(self) -> dict:
        """JSON-serializable snapshot of the tree structure.

        Page references are *not* re-taken on restore: the paged cache's own
        snapshot already carries refcounts that include the tree's holds, so
        :meth:`from_state` only rebuilds the trie over the restored pool.
        """

        def node_state(n: _Node) -> dict:
            return {
                "tokens": list(n.tokens),
                "pages": list(n.pages),
                "last_used": n.last_used,
                "children": [node_state(c) for c in n.children.values()],
            }

        return {"clock": self._clock, "root": node_state(self._root)}

    @classmethod
    def from_state(cls, cache: PagedKVCache, state: dict) -> "RadixTree":
        """Rebuild a tree over ``cache`` from :meth:`export_state` output.

        ``cache`` must be the restored pool whose refcounts already include
        this tree's references — no pages are retained here.
        """
        tree = cls.__new__(cls)
        tree.cache = cache
        tree.page_size = cache.page_size
        tree._clock = int(state["clock"])
        tree._num_cached_pages = 0

        def build(ns: dict, parent: Optional[_Node]) -> _Node:
            node = _Node(tuple(ns["tokens"]), list(ns["pages"]), parent)
            node.last_used = int(ns["last_used"])
            if parent is not None:
                tree._num_cached_pages += len(node.pages)
            for cs in ns["children"]:
                child = build(cs, node)
                node.children[child.tokens[: tree.page_size]] = child
            return node

        tree._root = build(state["root"], None)
        return tree

    def __repr__(self) -> str:
        return f"RadixTree(cached_pages={self._num_cached_pages})"

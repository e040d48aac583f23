"""The radix tree's two per-page walks, kept as the test oracle.

``TwoWalkRadixTree`` is ``RadixTree`` with ``match_prefix`` and ``insert``
as ``repro.kvcache.radix`` shipped them before both became one ``_walk``:
every token goes through ``int()`` in a generator, each method descends on
its own, and a chunk is compared page by page.  (Children are keyed by
first page, as in the library — with the first-token key these walks had
originally, the second of two prompts that share a first token but not a
first page could never be cached.)  ``tests/test_kvcache_radix.py``
requires the library tree to return the same values, split at the same
pages and keep the same LRU clocks, operation for operation.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.kvcache import RadixTree
from repro.kvcache.radix import _Node


class TwoWalkRadixTree(RadixTree):
    def match_prefix(self, tokens: Sequence[int]) -> Tuple[int, List[int]]:
        tokens = tuple(int(t) for t in tokens)
        node = self._root
        matched: List[int] = []
        pos = 0
        self._clock += 1
        while pos < len(tokens):
            key = tokens[pos : pos + self.page_size]
            child = node.children.get(key)
            if child is None:
                break
            chunk = child.tokens
            if tokens[pos : pos + len(chunk)] != chunk:
                m = self.page_size
                while (
                    m + self.page_size <= len(chunk)
                    and tokens[pos + m : pos + m + self.page_size]
                    == chunk[m : m + self.page_size]
                ):
                    m += self.page_size
                self._split(child, m)
                child = node.children[key]
                matched.extend(child.pages)
                pos += m
                child.last_used = self._clock
                break
            matched.extend(child.pages)
            pos += len(chunk)
            child.last_used = self._clock
            node = child
        return pos, matched

    def insert(self, tokens: Sequence[int], pages: Sequence[int]) -> int:
        tokens = tuple(int(t) for t in tokens)
        usable = min(len(tokens) // self.page_size, len(pages))
        tokens = tokens[: usable * self.page_size]
        pages = list(pages[:usable])
        node = self._root
        pos = 0
        page_pos = 0
        self._clock += 1
        while pos < len(tokens):
            key = tokens[pos : pos + self.page_size]
            child = node.children.get(key)
            if child is None:
                chunk = tokens[pos:]
                new_pages = pages[page_pos:]
                self.cache.retain_pages(new_pages)
                leaf = _Node(chunk, new_pages, node)
                leaf.last_used = self._clock
                node.children[key] = leaf
                self._num_cached_pages += len(new_pages)
                return len(new_pages)
            chunk = child.tokens
            m = self.page_size
            while (
                m + self.page_size <= len(chunk)
                and m + self.page_size <= len(tokens) - pos
                and tokens[pos + m : pos + m + self.page_size] == chunk[m : m + self.page_size]
            ):
                m += self.page_size
            if m < len(chunk):
                self._split(child, m)
                child = node.children[key]
            child.last_used = self._clock
            pos += m
            page_pos += m // self.page_size
            node = child
        return 0

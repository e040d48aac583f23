"""The dense page-table bookkeeping, kept as the test oracle.

``DensePagedKVCache`` is the structure-only half of ``PagedKVCache`` as
``repro.kvcache.paged`` shipped it before it kept its live pages only: a
stack free list ``[n-1, ..., 0]`` and three ``int64[num_pages]`` arrays —
refcount, write version and checksum stamp, with ``version != stamp``
meaning corrupt.  ``tests/test_kvcache_equivalence.py`` requires the
live-only cache to hand out the same page ids and answer every query the
same way, operation for operation.
"""

from __future__ import annotations

import numpy as np

from repro.kvcache import OutOfPagesError


class DensePagedKVCache:
    def __init__(self, num_pages: int, page_size: int):
        self.num_pages, self.page_size = num_pages, page_size
        self.free = list(range(num_pages - 1, -1, -1))
        self.refcount = np.zeros(num_pages, dtype=np.int64)
        self.version = np.zeros(num_pages, dtype=np.int64)
        self.stamp = np.zeros(num_pages, dtype=np.int64)
        self.seqs = {}  # seq id -> [pages, length]
        self.next_seq_id = 0

    def _alloc(self) -> int:
        if not self.free:
            raise OutOfPagesError("pool exhausted")
        page = self.free.pop()
        self.refcount[page] = 1
        if self.version[page] != self.stamp[page]:
            self.version[page] = self.stamp[page] = 0
        return page

    def _touch(self, page: int) -> None:
        self.version[page] += 1
        self.stamp[page] = self.version[page]

    def _release(self, page: int) -> None:
        self.refcount[page] -= 1
        if self.refcount[page] == 0:
            self.free.append(page)

    def _take_seq_id(self) -> int:
        self.next_seq_id += 1
        return self.next_seq_id - 1

    def retain_pages(self, pages) -> None:
        for p in pages:
            self.refcount[p] += 1

    def release_pages(self, pages) -> None:
        for p in pages:
            self._release(p)

    def new_seq(self, shared_pages=(), shared_len=0) -> int:
        seq_id = self._take_seq_id()
        self.retain_pages(shared_pages)
        self.seqs[seq_id] = [list(shared_pages), shared_len]
        return seq_id

    def fork_seq(self, seq_id: int) -> int:
        pages, length = self.seqs[seq_id]
        new_id = self._take_seq_id()  # taken even when the copy below fails
        forked = pages[: length // self.page_size]
        self.retain_pages(forked)
        if length % self.page_size:
            forked.append(self._alloc())
            self._touch(forked[-1])
        self.seqs[new_id] = [forked, length]
        return new_id

    def extend(self, seq_id: int, n: int) -> None:
        seq = self.seqs[seq_id]
        pages = seq[0]
        while n > 0:
            offset = seq[1] % self.page_size
            if offset == 0:
                pages.append(self._alloc())
            elif self.refcount[pages[-1]] > 1:
                fresh = self._alloc()
                self._release(pages[-1])
                pages[-1] = fresh
            take = min(n, self.page_size - offset)
            self._touch(pages[-1])
            seq[1] += take
            n -= take

    def truncate(self, seq_id: int, new_len: int) -> None:
        seq = self.seqs[seq_id]
        keep = -(-new_len // self.page_size)
        self.release_pages(seq[0][keep:])
        seq[0], seq[1] = seq[0][:keep], new_len

    def free_seq(self, seq_id: int) -> None:
        self.release_pages(self.seqs.pop(seq_id)[0])

    def corrupt_page(self, page: int) -> None:
        self.version[page] += 1

    def page_is_corrupt(self, page: int) -> bool:
        return bool(self.version[page] != self.stamp[page])

    def find_corrupted(self):
        bad = (self.refcount > 0) & (self.version != self.stamp)
        return np.nonzero(bad)[0].tolist()

    def used_pages(self):
        return np.nonzero(self.refcount > 0)[0].tolist()

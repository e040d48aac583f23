"""Paged KV cache: a vLLM-style page table over a fixed slot pool.

The cache owns two pools ``(pool_slots, num_kv_heads, head_dim)`` for keys
and values, carved into pages of ``page_size`` slots.  Sequences hold
ordered page lists; pages are refcounted so that forked sequences (parallel
generation) and radix-cached prefixes share physical pages.  Appending to a
shared partial page triggers copy-on-write.

The exported structure (:meth:`layout`) is the ``(kv_indptr, kv_indices,
last_page_len)`` triple of the paper, wrapped as
:class:`repro.sparse.BlockSparseKV`.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Sequence, Set, Tuple

import numpy as np

from repro.sparse.layout import BlockSparseKV
from repro.utils.validation import check_positive


class OutOfPagesError(RuntimeError):
    """Raised when an allocation cannot be satisfied from the free pool."""


class TransientAllocFault(OutOfPagesError):
    """An injected, retryable page-allocation failure (fault plan ``alloc``
    site): the pool has pages, but this particular allocation hiccuped.
    Subclasses :class:`OutOfPagesError` so non-resilient callers see the
    usual failure mode."""


class KVCorruptionError(RuntimeError):
    """Integrity check failed: a live page's checksum no longer matches.

    Carries the offending page ids in :attr:`pages` so the engine can map
    corruption back to the sequences that reference those pages.
    """

    def __init__(self, message: str, pages: Sequence[int] = ()):
        super().__init__(message)
        self.pages = list(pages)


class _SeqState:
    __slots__ = ("pages", "length")

    def __init__(self) -> None:
        self.pages: List[int] = []
        self.length: int = 0


class PagedKVCache:
    """Fixed-pool paged KV cache with refcounted pages.

    Parameters
    ----------
    num_pages:
        Total pages in the pool.
    page_size:
        Slots (tokens) per page — the BSR column block size ``B_c``.
        ``page_size=1`` gives the vector-sparse layout.
    num_kv_heads, head_dim:
        Shape of each slot's K and V entries.
    checksums:
        Verify per-page integrity on :meth:`gather`/:meth:`layout`
        (raising :class:`KVCorruptionError` on mismatch).  The set of
        pages whose checksum no longer matches is always maintained, so
        detection can also be driven externally via
        :meth:`find_corrupted`; this flag only gates the export-time
        verification.

    All bookkeeping is proportional to the *live* pages, never to the
    pool: like the exported ``indptr``/``indices``, it names the pages that
    exist and nothing else.
    """

    #: Optional fault injector (duck-typed :class:`repro.faults.FaultPlan`):
    #: consulted on sequence-growth page allocations (``alloc`` site).
    fault_injector = None

    def __init__(
        self,
        num_pages: int,
        page_size: int,
        num_kv_heads: int,
        head_dim: int,
        materialize: bool = True,
        checksums: bool = False,
    ):
        check_positive(num_pages, "num_pages")
        check_positive(page_size, "page_size")
        check_positive(num_kv_heads, "num_kv_heads")
        check_positive(head_dim, "head_dim")
        self.num_pages = num_pages
        self.page_size = page_size
        self.num_kv_heads = num_kv_heads
        self.head_dim = head_dim
        self.materialized = materialize
        total_slots = num_pages * page_size
        if materialize:
            self.k_pool = np.zeros((total_slots, num_kv_heads, head_dim), dtype=np.float32)
            self.v_pool = np.zeros((total_slots, num_kv_heads, head_dim), dtype=np.float32)
        else:
            # Structure-only mode for cost simulations: page-table accounting
            # without backing storage (append/gather are unavailable).
            self.k_pool = None
            self.v_pool = None
        # Free pages are ``_recycled`` (freed, reused LIFO) followed by the
        # never-allocated ids ``_fresh, _fresh + 1, ...`` in ascending order.
        self._fresh = 0
        self._recycled: List[int] = []
        self._refcount: Dict[int, int] = {}  # live pages only
        self._seqs: Dict[int, _SeqState] = {}
        self._next_seq_id = 0
        self.checksums = checksums
        # Pages whose checksum no longer matches their content: corruption
        # adds a page, a write (which re-stamps) or reallocation removes it.
        self._corrupt: Set[int] = set()

    # -- pool accounting -----------------------------------------------------

    @property
    def num_free_pages(self) -> int:
        return self.num_pages - len(self._refcount)

    @property
    def num_used_pages(self) -> int:
        return len(self._refcount)

    def page_refcount(self, page: int) -> int:
        return self._refcount.get(page, 0)

    def _stats_brief(self) -> str:
        per_seq = sorted(
            ((len(st.pages), sid) for sid, st in self._seqs.items()), reverse=True
        )
        largest = (
            f", largest seq #{per_seq[0][1]} holds {per_seq[0][0]} pages"
            if per_seq
            else ""
        )
        return (
            f"{self.num_free_pages} free / {self.num_pages} total pages "
            f"({self.page_size} slots each), {len(self._seqs)} live "
            f"sequences{largest}"
        )

    def pool_stats(self) -> Dict[str, object]:
        """Pool state snapshot for diagnostics and error messages."""
        per_seq = {sid: len(st.pages) for sid, st in self._seqs.items()}
        return {
            "num_pages": self.num_pages,
            "page_size": self.page_size,
            "free_pages": self.num_free_pages,
            "used_pages": self.num_used_pages,
            "num_seqs": len(per_seq),
            "seq_pages": per_seq,
            "max_seq_pages": max(per_seq.values(), default=0),
            "shared_pages": sum(1 for c in self._refcount.values() if c > 1),
            "corrupted_pages": len(self.find_corrupted()),
        }

    def _alloc_page(self, inject: bool = False) -> int:
        if not self.num_free_pages:
            raise OutOfPagesError(
                f"KV-cache pool exhausted: {self._stats_brief()}"
            )
        if inject and self.fault_injector is not None and self.fault_injector.fire("alloc"):
            raise TransientAllocFault(
                f"injected transient page-allocation failure "
                f"({self._stats_brief()})"
            )
        if self._recycled:
            page = self._recycled.pop()
        else:
            page = self._fresh
            self._fresh += 1
        self._refcount[page] = 1
        if page in self._corrupt:
            # A freed corrupted page must not poison its next owner.
            if self.materialized:
                slot0 = page * self.page_size
                self.k_pool[slot0 : slot0 + self.page_size] = 0.0
                self.v_pool[slot0 : slot0 + self.page_size] = 0.0
            self._corrupt.discard(page)
        return page

    def _touch_page(self, page: int) -> None:
        """Record a write: the page's checksum is re-stamped."""
        self._corrupt.discard(page)

    def _release_page(self, page: int) -> None:
        count = self._refcount.get(page, 0) - 1
        if count < 0:
            raise AssertionError(f"page {page} refcount underflow")
        if count:
            self._refcount[page] = count
        else:
            del self._refcount[page]
            self._recycled.append(page)

    def retain_pages(self, pages: Sequence[int]) -> None:
        """Add an external reference to ``pages`` (used by the radix cache)."""
        for p in pages:
            if p not in self._refcount:
                raise ValueError(f"page {p} is not live")
            self._refcount[p] += 1

    def release_pages(self, pages: Sequence[int]) -> None:
        """Drop an external reference added with :meth:`retain_pages`."""
        for p in pages:
            self._release_page(p)

    # -- sequence lifecycle ---------------------------------------------------

    def new_seq(self, shared_pages: Sequence[int] = (), shared_len: int = 0) -> int:
        """Create a sequence, optionally starting from cached prefix pages.

        ``shared_len`` must fill the shared pages completely (prefix caching
        hands over only whole pages).
        """
        if shared_len != len(shared_pages) * self.page_size:
            raise ValueError(
                f"shared_len ({shared_len}) must equal "
                f"len(shared_pages) * page_size ({len(shared_pages) * self.page_size})"
            )
        seq_id = self._next_seq_id
        self._next_seq_id += 1
        st = _SeqState()
        st.pages = list(shared_pages)
        st.length = shared_len
        for p in st.pages:
            if p not in self._refcount:
                raise ValueError(f"shared page {p} is not live")
            self._refcount[p] += 1
        self._seqs[seq_id] = st
        return seq_id

    def fork_seq(self, seq_id: int) -> int:
        """Fork a sequence, sharing all full pages; the partial last page is
        copied (copy-on-write happens eagerly here for simplicity)."""
        st = self._state(seq_id)
        new_id = self._next_seq_id
        self._next_seq_id += 1
        new_st = _SeqState()
        new_st.length = st.length
        full = st.length // self.page_size
        new_st.pages = st.pages[:full]
        for p in new_st.pages:
            self._refcount[p] += 1
        rem = st.length - full * self.page_size
        if rem:
            src = st.pages[full]
            dst = self._alloc_page()
            if self.materialized:
                s0, d0 = src * self.page_size, dst * self.page_size
                self.k_pool[d0 : d0 + rem] = self.k_pool[s0 : s0 + rem]
                self.v_pool[d0 : d0 + rem] = self.v_pool[s0 : s0 + rem]
            self._touch_page(dst)
            new_st.pages.append(dst)
        self._seqs[new_id] = new_st
        return new_id

    def free_seq(self, seq_id: int) -> None:
        st = self._state(seq_id)
        for p in st.pages:
            self._release_page(p)
        del self._seqs[seq_id]

    def _state(self, seq_id: int) -> _SeqState:
        try:
            return self._seqs[seq_id]
        except KeyError:
            raise KeyError(f"unknown sequence id {seq_id}") from None

    # -- data path -------------------------------------------------------------

    def _grow(self, st: _SeqState, n: int) -> Iterator[Tuple[int, int, int]]:
        """Grow ``st`` by ``n`` tokens, yielding one ``(page, offset, take)``
        span per page touched: a page is allocated on a page boundary, a
        shared partial last page is unshared first (copy-on-write), and the
        span counts as written once the consumer resumes the generator."""
        while n > 0:
            offset = st.length % self.page_size
            if offset == 0:
                st.pages.append(self._alloc_page(inject=True))
            elif self._refcount[st.pages[-1]] > 1:
                # Copy-on-write: unshare the partial page before writing.
                shared = st.pages[-1]
                st.pages[-1] = self._alloc_page(inject=True)
                if self.materialized:
                    s0, d0 = shared * self.page_size, st.pages[-1] * self.page_size
                    self.k_pool[d0 : d0 + offset] = self.k_pool[s0 : s0 + offset]
                    self.v_pool[d0 : d0 + offset] = self.v_pool[s0 : s0 + offset]
                self._release_page(shared)
            page = st.pages[-1]
            take = min(n, self.page_size - offset)
            yield page, offset, take
            self._touch_page(page)
            st.length += take
            n -= take

    def append(self, seq_id: int, k: np.ndarray, v: np.ndarray) -> None:
        """Append new K/V entries ``(n, num_kv_heads, head_dim)`` to a sequence.

        Allocates pages on demand; copy-on-write if the partial last page is
        shared with another sequence.
        """
        k = np.asarray(k, dtype=np.float32)
        v = np.asarray(v, dtype=np.float32)
        if k.shape != v.shape:
            raise ValueError(f"k shape {k.shape} != v shape {v.shape}")
        if k.ndim != 3 or k.shape[1:] != (self.num_kv_heads, self.head_dim):
            raise ValueError(
                f"k/v must have shape (n, {self.num_kv_heads}, {self.head_dim}), got {k.shape}"
            )
        if not self.materialized:
            raise RuntimeError("append() requires a materialized cache")
        written = 0
        for page, offset, take in self._grow(self._state(seq_id), k.shape[0]):
            slot0 = page * self.page_size + offset
            self.k_pool[slot0 : slot0 + take] = k[written : written + take]
            self.v_pool[slot0 : slot0 + take] = v[written : written + take]
            written += take

    def extend(self, seq_id: int, n_tokens: int) -> None:
        """Grow a sequence by ``n_tokens`` without writing K/V data.

        Allocates pages (with the same copy-on-write rules as
        :meth:`append`) and advances the length; used by cost-only serving
        simulations where only the page-table *structure* matters.
        """
        if n_tokens < 0:
            raise ValueError("n_tokens must be non-negative")
        for _ in self._grow(self._state(seq_id), n_tokens):
            pass

    def truncate(self, seq_id: int, new_len: int) -> None:
        """Roll a sequence back to ``new_len`` tokens, freeing tail pages.

        Batching drops the partial growth of a failed allocation and KV
        scrubbing cuts a sequence before its first corrupt page; pages that
        become entirely unused are released.
        """
        st = self._state(seq_id)
        if not 0 <= new_len <= st.length:
            raise ValueError(
                f"new_len must be in [0, {st.length}], got {new_len}"
            )
        keep_pages = -(-new_len // self.page_size) if new_len else 0
        for page in st.pages[keep_pages:]:
            self._release_page(page)
        st.pages = st.pages[:keep_pages]
        st.length = new_len

    # -- integrity -------------------------------------------------------------

    def corrupt_page(self, page: int) -> None:
        """Silently corrupt a live page (fault-plan ``corrupt`` site).

        The page's content changes without its checksum being re-stamped;
        in materialized mode the page's K/V slots are also overwritten
        with NaN so numeric guards can observe the damage.
        """
        if page not in self._refcount:
            raise ValueError(f"page {page} is not live")
        self._corrupt.add(page)
        if self.materialized:
            slot0 = page * self.page_size
            self.k_pool[slot0 : slot0 + self.page_size] = np.nan
            self.v_pool[slot0 : slot0 + self.page_size] = np.nan

    def page_is_corrupt(self, page: int) -> bool:
        return page in self._corrupt

    def seq_is_corrupt(self, seq_id: int) -> bool:
        """True if any page of ``seq_id`` fails its checksum."""
        st = self._state(seq_id)
        return bool(self._corrupt) and not self._corrupt.isdisjoint(st.pages)

    def find_corrupted(self) -> List[int]:
        """All live pages whose checksum no longer matches."""
        return sorted(p for p in self._corrupt if p in self._refcount)

    def used_pages(self) -> List[int]:
        """All live (refcount > 0) page ids, ascending."""
        return sorted(self._refcount)

    @property
    def page_kv_bytes(self) -> int:
        """Modeled wire size of one page's K+V payload at fp16 — the
        pricing unit for KV migration (and, later, disaggregated
        prefill→decode handoff): ``page_size`` slots × heads × head_dim
        × 2 tensors (K and V) × 2 bytes."""
        return 2 * 2 * self.page_size * self.num_kv_heads * self.head_dim

    def export_pages(self, pages: Sequence[int]) -> List[int]:
        """The validated ids of ``pages`` — what a KV transfer (snapshot
        migration, prefill→decode handoff) puts into its page chunks."""
        idx = [int(p) for p in pages]
        for p in idx:
            if not 0 <= p < self.num_pages:
                raise ValueError(f"page {p} outside [0, {self.num_pages})")
        return idx

    def _verify_pages(self, pages: Sequence[int], context: str) -> None:
        if not self._corrupt:
            return
        bad = [p for p in pages if p in self._corrupt]
        if bad:
            raise KVCorruptionError(
                f"KV page checksum mismatch on {context}: "
                f"pages {bad} were modified outside append/extend",
                pages=bad,
            )

    def seq_len(self, seq_id: int) -> int:
        return self._state(seq_id).length

    def seq_pages(self, seq_id: int) -> List[int]:
        return list(self._state(seq_id).pages)

    def gather(self, seq_id: int) -> "tuple[np.ndarray, np.ndarray]":
        """Materialize a sequence's full K and V as dense ``(len, H, D)``."""
        if not self.materialized:
            raise RuntimeError("gather() requires a materialized cache")
        st = self._state(seq_id)
        if self.checksums:
            self._verify_pages(st.pages, f"gather(seq {seq_id})")
        slots = self._slot_indices(st)
        return self.k_pool[slots], self.v_pool[slots]

    def _slot_indices(self, st: _SeqState) -> np.ndarray:
        if not st.pages:
            return np.empty(0, dtype=np.int64)
        pages = np.asarray(st.pages, dtype=np.int64)
        slots = (pages[:, None] * self.page_size + np.arange(self.page_size)[None, :]).reshape(-1)
        return slots[: st.length]

    # -- state capture (engine checkpointing) ------------------------------------

    def export_state(self) -> dict:
        """Serializable snapshot of the full page-table state.

        Captures geometry and the bookkeeping exactly as it is kept — the
        first never-allocated page id, the recycled free pages in reuse
        order, the live pages' refcounts, the pages whose checksum no
        longer matches (so corruption present at snapshot time survives
        the round-trip and is re-detected after restore) — plus every
        sequence's page list and length, and the K/V pools when
        materialized.  :meth:`from_state` rebuilds an identical cache.
        """
        state = {
            "num_pages": self.num_pages,
            "page_size": self.page_size,
            "num_kv_heads": self.num_kv_heads,
            "head_dim": self.head_dim,
            "materialized": self.materialized,
            "checksums": self.checksums,
            "fresh": self._fresh,
            "recycled": list(self._recycled),
            "refcount": {str(p): c for p, c in self._refcount.items()},
            "corrupt": sorted(self._corrupt),
            "next_seq_id": self._next_seq_id,
            "seqs": {
                str(sid): {"pages": list(st.pages), "length": st.length}
                for sid, st in self._seqs.items()
            },
        }
        if self.materialized:
            state["k_pool"] = self.k_pool.tolist()
            state["v_pool"] = self.v_pool.tolist()
        return state

    @classmethod
    def from_state(cls, state: dict) -> "PagedKVCache":
        """Rebuild a cache from :meth:`export_state` output.

        The state may come from disk, so a page table that contradicts
        itself is refused with :class:`ValueError`.
        """
        cache = cls(
            num_pages=int(state["num_pages"]),
            page_size=int(state["page_size"]),
            num_kv_heads=int(state["num_kv_heads"]),
            head_dim=int(state["head_dim"]),
            materialize=bool(state["materialized"]),
            checksums=bool(state["checksums"]),
        )
        cache._fresh = int(state["fresh"])
        cache._recycled = [int(p) for p in state["recycled"]]
        cache._refcount = {int(p): int(c) for p, c in state["refcount"].items()}
        cache._corrupt = {int(p) for p in state["corrupt"]}
        cache._next_seq_id = int(state["next_seq_id"])
        for sid, seq in state["seqs"].items():
            st = _SeqState()
            st.pages = [int(p) for p in seq["pages"]]
            st.length = int(seq["length"])
            cache._seqs[int(sid)] = st
        live = cache._refcount.keys()
        if not 0 <= cache._fresh <= cache.num_pages:
            raise ValueError(f"fresh={cache._fresh} outside the {cache.num_pages}-page pool")
        if any(not 0 <= p < cache._fresh for p in live):
            raise ValueError(f"a live page lies outside [0, fresh={cache._fresh})")
        if not live.isdisjoint(cache._recycled):
            raise ValueError("a page is both live and on the recycled free list")
        for sid, st in cache._seqs.items():
            if not live >= set(st.pages):
                raise ValueError(f"sequence {sid} names a page that is not live")
        if cache.materialized:
            cache.k_pool = np.asarray(state["k_pool"], dtype=np.float32)
            cache.v_pool = np.asarray(state["v_pool"], dtype=np.float32)
        return cache

    # -- export to the attention engine -----------------------------------------

    def layout(self, seq_ids: Sequence[int]) -> BlockSparseKV:
        """Export the page-table structure for ``seq_ids`` (in order)."""
        indptr = np.zeros(len(seq_ids) + 1, dtype=np.int64)
        indices: List[int] = []
        kv_lens = np.zeros(len(seq_ids), dtype=np.int64)
        for i, sid in enumerate(seq_ids):
            st = self._state(sid)
            indices.extend(st.pages)
            indptr[i + 1] = indptr[i] + len(st.pages)
            kv_lens[i] = st.length
        if self.checksums:
            self._verify_pages(indices, f"layout({list(seq_ids)})")
        return BlockSparseKV(
            self.page_size,
            self.num_pages,
            indptr,
            np.asarray(indices, dtype=np.int64),
            kv_lens,
        )

    def __repr__(self) -> str:
        return (
            f"PagedKVCache(pages={self.num_used_pages}/{self.num_pages}, "
            f"page_size={self.page_size}, seqs={len(self._seqs)})"
        )

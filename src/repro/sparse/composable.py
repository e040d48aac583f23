"""Composable formats: multi-format decomposition for shared prefixes.

Paper §3.1.2 (Figure 3): when several requests share a KV prefix, a single
block-sparse format must choose one ``B_r``, trading shared-memory reuse
against fragmentation.  Instead, the sparse matrix is *decomposed* into a
stack of formats — a large-``B_r`` format over the dense shared-prefix
submatrix (all sharing queries reuse one shared-memory load of the prefix)
plus a small-``B_r`` format over the unique suffixes.  No KV data moves;
only new index arrays are computed.  Partial attention states from each
format are merged with the ``⊕`` operator (§2.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.sparse.layout import AttentionMapping, BlockSparseKV


@dataclass(frozen=True)
class PrefixCluster:
    """A run of consecutive requests sharing ``prefix_len`` leading KV tokens."""

    requests: Tuple[int, ...]
    prefix_len: int

    def __post_init__(self) -> None:
        reqs = tuple(int(r) for r in self.requests)
        if list(reqs) != list(range(reqs[0], reqs[0] + len(reqs))):
            raise ValueError(f"cluster requests must be consecutive, got {reqs}")
        object.__setattr__(self, "requests", reqs)
        if self.prefix_len < 0:
            raise ValueError("prefix_len must be non-negative")


@dataclass
class ComposableFormat:
    """An ordered stack of :class:`AttentionMapping` formats.

    The attention output for each packed query row is the ``⊕``-merge of the
    partial states produced by every format that covers that row.  The stack
    must jointly cover each query's full KV set exactly once, so a stack
    holds at least one format.
    """

    mappings: List[AttentionMapping]

    def __post_init__(self) -> None:
        if not self.mappings:
            raise ValueError("a composable format stacks at least one mapping")

    @classmethod
    def single(cls, mapping: AttentionMapping) -> "ComposableFormat":
        return cls([mapping])

    @property
    def total_qo(self) -> int:
        return max(m.total_qo for m in self.mappings)

    def __iter__(self):
        return iter(self.mappings)

    def __len__(self) -> int:
        return len(self.mappings)


#: Whole KV blocks a prefix must span to get a format of its own.
MIN_PREFIX_BLOCKS = 1
#: Groups a detected shared prefix must span.
MIN_CLUSTER_SIZE = 2


def decompose_shared_prefix(
    mapping: AttentionMapping,
    clusters: Sequence[PrefixCluster],
) -> ComposableFormat:
    """Split a batch mapping into prefix + suffix formats.

    Parameters
    ----------
    mapping:
        The single-format batch mapping (one group per request, causal).
    clusters:
        Shared-prefix clusters.  Prefix lengths are rounded *down* to the KV
        block size (only whole blocks can be shared without data movement);
        clusters whose aligned prefix is shorter than
        :data:`MIN_PREFIX_BLOCKS` blocks are left in the suffix format.
    Returns
    -------
    A two-format stack ``[prefix, suffix]`` (prefix omitted if no cluster
    qualifies).  The prefix format has one group per cluster with
    ``block_row_size`` = the cluster's total query count; the suffix format
    keeps one group per request with the prefix blocks removed.
    """
    kv = mapping.kv
    bc = kv.block_size
    n_req = mapping.num_groups

    claimed = np.zeros(n_req, dtype=bool)
    prefix_lens = np.zeros(n_req, dtype=np.int64)
    live_clusters: List[Tuple[PrefixCluster, int]] = []
    for cl in clusters:
        aligned = (cl.prefix_len // bc) * bc
        if aligned < MIN_PREFIX_BLOCKS * bc or len(cl.requests) < 2:
            continue
        for r in cl.requests:
            if not 0 <= r < n_req:
                raise ValueError(f"cluster request {r} out of range")
            if claimed[r]:
                raise ValueError(f"request {r} claimed by two clusters")
            if kv.kv_lens[r] < aligned:
                raise ValueError(
                    f"request {r} has kv_len {kv.kv_lens[r]} < prefix {aligned}"
                )
            claimed[r] = True
            prefix_lens[r] = aligned
        # All members must actually share the prefix blocks.
        first_blocks = kv.group_blocks(cl.requests[0])[: aligned // bc]
        for r in cl.requests[1:]:
            if not np.array_equal(kv.group_blocks(r)[: aligned // bc], first_blocks):
                raise ValueError(
                    f"request {r} does not share the first {aligned} KV slots "
                    f"with request {cl.requests[0]}"
                )
        live_clusters.append((cl, aligned))

    if not live_clusters:
        return ComposableFormat.single(mapping)

    # -- prefix format: one group per cluster, spanning all its queries ----
    # Its groups are sub-ranges [lo, hi) of the packed query rows, each row
    # keeping its own request's position.
    firsts = [cl.requests[0] for cl, _ in live_clusters]
    lo = mapping.qo_indptr[firsts]
    hi = mapping.qo_indptr[[cl.requests[-1] + 1 for cl, _ in live_clusters]]
    if np.any(lo[1:] < hi[:-1]):
        raise ValueError("clusters overlap in packed query space")
    p_lens = np.asarray([a for _, a in live_clusters], dtype=np.int64)
    prefix_mapping = AttentionMapping(
        qo_indptr=np.concatenate([[0], np.cumsum(hi - lo)]),
        kv=BlockSparseKV(
            bc,
            kv.pool_blocks,
            np.concatenate([[0], np.cumsum(p_lens // bc)]),
            np.concatenate([kv.group_blocks(r)[: n // bc] for r, n in zip(firsts, p_lens)]),
            p_lens,
        ),
        causal=False,  # every row sits past the prefix
        q_pos=np.concatenate([mapping.q_pos[a:b] for a, b in zip(lo, hi)]),
        block_pos=np.concatenate([mapping._block_positions[mapping.kv.indptr[r]:][: n // bc]
                                  for r, n in zip(firsts, p_lens)]),
        block_row_size=int((hi - lo).max()),
        q_row_starts=lo,
        label="prefix",
    )

    # -- suffix format: one group per request, prefix blocks removed -------
    suffix_mapping = mapping.drop_leading_blocks(prefix_lens // bc, label="suffix")
    return ComposableFormat([prefix_mapping, suffix_mapping])


def decompose_multi_level(
    mapping: AttentionMapping,
    levels: Sequence[Sequence[PrefixCluster]],
) -> ComposableFormat:
    """Multi-level shared-prefix decomposition (paper §5.1: "multi-level,
    multiple-prefix decoding with unified page table management").

    ``levels`` lists cluster sets from outermost to innermost — e.g. a
    system prompt shared by every request, then per-request fork groups.
    Prefix lengths are *absolute* (from each sequence's start); each level
    peels its prefix into its own large-``B_r`` format and the next level
    decomposes the remaining suffix.  Partial states from every format
    merge with ``⊕`` as usual.
    """
    formats: List[AttentionMapping] = []
    current = mapping
    for depth, clusters in enumerate(levels):
        peeled = mapping.kv.kv_lens - current.kv.kv_lens
        rel_clusters = []
        for cl in clusters:
            peels = peeled[list(cl.requests)]
            if np.any(peels != peels[0]):
                raise ValueError(
                    f"level {depth}: cluster {cl.requests} members have "
                    f"unequal already-peeled prefixes {peels.tolist()}"
                )
            rel = cl.prefix_len - int(peels[0])
            if rel <= 0:
                raise ValueError(
                    f"level {depth}: cluster prefix {cl.prefix_len} does not "
                    f"extend past the {int(peels[0])} tokens peeled by outer levels"
                )
            rel_clusters.append(PrefixCluster(cl.requests, rel))
        comp = decompose_shared_prefix(current, rel_clusters)
        if len(comp) == 1:
            continue
        prefix_fmt, suffix_fmt = comp.mappings
        prefix_fmt.label = f"prefix_l{depth}"
        formats.append(prefix_fmt)
        current = suffix_fmt
    formats.append(current)
    return ComposableFormat(formats)


def detect_shared_prefixes(kv: BlockSparseKV) -> List[PrefixCluster]:
    """Find runs of consecutive groups sharing leading KV blocks.

    A lightweight stand-in for the radix-tree knowledge a serving framework
    would provide; used when only the page table is available.
    """
    clusters: List[PrefixCluster] = []
    n = kv.num_groups
    r = 0
    while r < n - 1:
        base = kv.group_blocks(r)
        # Longest common block prefix with the next group.
        def common(a: np.ndarray, b: np.ndarray) -> int:
            m = min(a.size, b.size)
            neq = np.nonzero(a[:m] != b[:m])[0]
            return int(neq[0]) if neq.size else m

        run_end = r
        run_common = base.size
        while run_end + 1 < n:
            c = common(base, kv.group_blocks(run_end + 1))
            if min(run_common, c) < MIN_PREFIX_BLOCKS:
                break
            run_common = min(run_common, c)
            run_end += 1
        size = run_end - r + 1
        if size >= MIN_CLUSTER_SIZE and run_common >= MIN_PREFIX_BLOCKS:
            # The shared prefix cannot extend past any member's full KV
            # (a query must keep at least its own last token in the suffix
            # when causal); prefix_len in tokens, block-aligned.
            max_pref = min(int(kv.kv_lens[g]) for g in range(r, run_end + 1))
            prefix_len = min(run_common * kv.block_size, max_pref)
            prefix_len = (prefix_len // kv.block_size) * kv.block_size
            if prefix_len >= MIN_PREFIX_BLOCKS * kv.block_size:
                clusters.append(PrefixCluster(tuple(range(r, run_end + 1)), prefix_len))
            r = run_end + 1
        else:
            r += 1
    return clusters

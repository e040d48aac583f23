"""Shared fixtures and builders for the test suite."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import HeadConfig
from repro.serving import PlanCache
from repro.sparse import AttentionMapping, kv_from_page_table
from repro.utils.dtypes import StorageDType, round_to_storage


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def benchmark_workloads():
    """``benchmarks/e2e/workloads.py`` as a module (the harness is not a
    package): the generated loads of the benchmark, for tests that pin a
    property of exactly those inputs."""
    path = Path(__file__).parents[1] / "benchmarks" / "e2e" / "workloads.py"
    spec = importlib.util.spec_from_file_location("e2e_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look themselves up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def make_paged_mapping(kv_lens, qo_lens, page_size=16, causal=True):
    """Build a mapping over a freshly laid-out page pool.

    Pages are allocated contiguously per request; returns
    ``(mapping, total_slots)``.
    """
    kv_lens = list(int(x) for x in kv_lens)
    qo_lens = list(int(x) for x in qo_lens)
    pool = sum(-(-l // page_size) for l in kv_lens)
    pages, c = [], 0
    for l in kv_lens:
        n = -(-l // page_size)
        pages.append(np.arange(c, c + n))
        c += n
    kv = kv_from_page_table(pages, kv_lens, page_size, pool)
    qo_indptr = np.concatenate([[0], np.cumsum(qo_lens)]).astype(np.int64)
    return AttentionMapping(qo_indptr, kv, causal=causal), pool * page_size


def make_shared_prefix_mapping(
    n_clusters, cluster_size, prefix_len, suffix_len, qo_per_stream=1, page_size=16
):
    """Clusters of requests sharing prefix pages; returns (mapping, slots,
    clusters) where clusters are PrefixCluster-compatible tuples."""
    from repro.sparse import PrefixCluster

    kv_lens, pages, c = [], [], 0
    pp = prefix_len // page_size
    assert prefix_len % page_size == 0
    clusters = []
    req = 0
    for _ in range(n_clusters):
        shared = np.arange(c, c + pp)
        c += pp
        members = []
        for _ in range(cluster_size):
            sp = -(-suffix_len // page_size)
            own = np.arange(c, c + sp)
            c += sp
            pages.append(np.concatenate([shared, own]))
            kv_lens.append(prefix_len + suffix_len)
            members.append(req)
            req += 1
        clusters.append(PrefixCluster(tuple(members), prefix_len))
    kv = kv_from_page_table(pages, kv_lens, page_size, c)
    qo_lens = [qo_per_stream] * (n_clusters * cluster_size)
    qo_indptr = np.concatenate([[0], np.cumsum(qo_lens)]).astype(np.int64)
    mapping = AttentionMapping(qo_indptr, kv, causal=True)
    return mapping, c * page_size, clusters


def priced_kv_columns(mapping, items, kv_tile):
    """``processed`` of the cost model for every row of a plan's item table:
    the leading KV columns of the item's chunk a causal launch is priced for
    (whole KV tiles up to the last one some row of the item can see)."""
    from repro.core.scheduler import COL_GROUP, COL_KVSTART, COL_KVSTOP, COL_QROWS, COL_QSTART
    from repro.core.simulate import _causal_processed

    group = items[:, COL_GROUP]
    lo = (mapping.q_pos_offset[group] + items[:, COL_QSTART]
          - mapping.kv_pos_offset[group] - items[:, COL_KVSTART] + 1)
    chunk = items[:, COL_KVSTOP] - items[:, COL_KVSTART]
    return _causal_processed(lo, items[:, COL_QROWS], chunk, kv_tile)[1].astype(np.int64)


class CountingPlanCache(PlanCache):
    """Counts lookups and misses the way the benchmark's span probe does:
    a lookup that returns ``None`` is a miss."""

    def __init__(self, capacity: int = 1024):
        super().__init__(capacity)
        self.lookups = self.misses = 0

    def get(self, key):
        plan = super().get(key)
        self.lookups += 1
        self.misses += plan is None
        return plan

    @property
    def hits(self) -> int:
        return self.lookups - self.misses


def cached_pages(tree) -> int:
    """Pages a :class:`repro.kvcache.RadixTree` holds, counted over its
    exported structure."""
    def count(node):
        return len(node["pages"]) + sum(count(c) for c in node["children"])
    return count(tree.export_state()["root"])


def crash_phases(fault_events) -> list:
    """The phase of every engine crash a tracer saw, in order (read off the
    ``crash:injected`` events' ``scripted kill, step N <phase>`` detail)."""
    return [e.detail.rsplit(" ", 1)[1] for e in fault_events
            if (e.site, e.action) == ("crash", "injected")]


def restores(fault_events) -> int:
    """How many times an engine resumed from a snapshot (``recover:restored``)."""
    return sum((e.site, e.action) == ("recover", "restored") for e in fault_events)


def fp16(x):
    """Round through fp16 storage (what the engine does to K/V)."""
    return round_to_storage(np.asarray(x), StorageDType.FP16).astype(np.float64)


SMALL_HEADS = HeadConfig(4, 2, 16)
MHA_HEADS = HeadConfig(4, 4, 16)

"""Pins the vectorized cost simulation to the per-object reference model
(``tests/reference_costs.py``) on named cases; the swept strategy and the
``TileCost`` fields are in ``tests/test_costs_equivalence.py``."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_paged_mapping
from reference_costs import reference_report
from repro import BatchAttentionWrapper, WorkspaceBuffer
from repro.core import HeadConfig, VANILLA
from repro.utils.dtypes import StorageDType


def both_paths(heads, kv_lens, qo_lens, **kwargs):
    """Price one plan with the per-object reference (slow) and from the plan
    arrays (fast, what ``run`` reports with or without numerics)."""
    page_size = kwargs.pop("page_size", 16)
    causal = kwargs.pop("causal", True)
    offsets = {k: kwargs.pop(k) for k in ("q_pos_offset", "kv_pos_offset") if k in kwargs}
    mapping, _ = make_paged_mapping(kv_lens, qo_lens, page_size, causal)
    mapping = dataclasses.replace(mapping, **offsets)
    ws = WorkspaceBuffer(1 << 28)
    w = BatchAttentionWrapper(
        VANILLA, heads, ws, avg_qo_len=float(np.mean(qo_lens)), **kwargs
    )
    slow = reference_report(w, w.plan(mapping))
    _, _, fast = w.run(None, compute=False)
    return slow, fast


def assert_reports_equal(slow, fast):
    assert fast.makespan == pytest.approx(slow.makespan, rel=1e-12)
    assert fast.total_flops == pytest.approx(slow.total_flops, rel=1e-12)
    assert fast.total_bytes == pytest.approx(slow.total_bytes, rel=1e-12)
    assert fast.num_tiles == slow.num_tiles


class TestEquivalence:
    def test_decode_batch(self):
        slow, fast = both_paths(HeadConfig(8, 2, 32), [100, 900, 33], [1, 1, 1])
        assert_reports_equal(slow, fast)

    def test_prefill_causal(self):
        slow, fast = both_paths(HeadConfig(4, 4, 16), [130, 64], [130, 64])
        assert_reports_equal(slow, fast)

    def test_causal_chunked_prefill_with_offsets(self):
        """Mid-prompt chunks: queries sit inside the KV, not at its end, and
        one group's KV starts past position 0 (a cascade suffix)."""
        slow, fast = both_paths(
            HeadConfig(4, 2, 16), [700, 200, 300], [130, 48, 64],
            q_pos_offset=[100, 512 + 72, 0], kv_pos_offset=[0, 512, 0],
        )
        assert_reports_equal(slow, fast)

    def test_non_causal(self):
        slow, fast = both_paths(HeadConfig(4, 2, 16), [64, 80], [8, 8], causal=False)
        assert_reports_equal(slow, fast)

    def test_split_kv_with_merges(self):
        slow, fast = both_paths(HeadConfig(4, 2, 16), [5000, 64], [1, 1])
        assert_reports_equal(slow, fast)

    def test_no_fusion(self):
        slow, fast = both_paths(
            HeadConfig(8, 2, 16), [200, 50], [1, 1], fuse_head_groups=False
        )
        assert_reports_equal(slow, fast)

    def test_fp8(self):
        slow, fast = both_paths(
            HeadConfig(4, 2, 16), [128], [1], kv_dtype=StorageDType.FP8_E4M3
        )
        assert_reports_equal(slow, fast)

    def test_dense_gather(self):
        slow, fast = both_paths(HeadConfig(4, 2, 16), [256], [16], sparse_gather=False)
        assert_reports_equal(slow, fast)

    def test_vector_sparse(self):
        slow, fast = both_paths(HeadConfig(4, 2, 16), [77], [1], page_size=1)
        assert_reports_equal(slow, fast)

    def test_fa3(self):
        from repro.gpu import H100_80G

        slow, fast = both_paths(HeadConfig(4, 2, 16), [300, 900], [32, 64], gpu=H100_80G)
        assert_reports_equal(slow, fast)

    @given(
        st.lists(
            st.tuples(st.integers(1, 64), st.integers(1, 2000)),
            min_size=1,
            max_size=6,
        ),
        st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_batches(self, lens, causal):
        qo = [min(a, b) for a, b in lens]  # causal needs qo ≤ kv
        kv = [b for _, b in lens]
        slow, fast = both_paths(HeadConfig(4, 2, 16), kv, qo, causal=causal)
        assert_reports_equal(slow, fast)

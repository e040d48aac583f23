"""Tests for the contraction kernel (partial-state merging)."""

import numpy as np
import pytest

from reference_costs import contraction_cost, distribute_merges
from repro.core import contract_entry
from repro.core.scheduler import MergeEntry


class TestContractEntry:
    def test_matches_joint_softmax(self, rng):
        """Contracting per-chunk states equals attention over the whole KV."""
        d, rows, n_kv = 8, 3, 30
        q = rng.standard_normal((rows, d))
        k = rng.standard_normal((n_kv, d))
        v = rng.standard_normal((n_kv, d))
        chunks = [(0, 10), (10, 22), (22, 30)]
        partial_o = np.zeros((3, rows, d))
        partial_lse = np.zeros((3, rows))
        for i, (a, b) in enumerate(chunks):
            s = q @ k[a:b].T
            lse = np.log(np.exp(s).sum(axis=1))
            partial_o[i] = (np.exp(s - lse[:, None])) @ v[a:b]
            partial_lse[i] = lse
        entry = MergeEntry(0, 0, 0, rows, 0, (0, 1, 2))
        o, lse = contract_entry(entry, partial_o, partial_lse)
        s = q @ k.T
        ref_lse = np.log(np.exp(s).sum(axis=1))
        ref_o = np.exp(s - ref_lse[:, None]) @ v
        assert np.allclose(o, ref_o)
        assert np.allclose(lse, ref_lse)

    def test_sum_semantics(self, rng):
        partial_o = rng.standard_normal((2, 3, 4))
        entry = MergeEntry(0, 0, 0, 3, 0, (0, 1))
        o, _ = contract_entry(entry, partial_o, np.zeros((2, 3)), use_softmax=False)
        assert np.allclose(o, partial_o.sum(axis=0))

    def test_empty_entry_rejected(self):
        with pytest.raises(ValueError):
            contract_entry(MergeEntry(0, 0, 0, 1, 0, ()), np.zeros((1, 1, 1)), np.zeros((1, 1)))

    def test_single_slot_passthrough(self, rng):
        partial_o = rng.standard_normal((1, 2, 4))
        partial_lse = rng.standard_normal((1, 2))
        entry = MergeEntry(0, 0, 0, 2, 0, (0,))
        o, lse = contract_entry(entry, partial_o, partial_lse)
        assert np.allclose(o, partial_o[0])
        assert np.allclose(lse, partial_lse[0])


class TestContractionCost:
    def test_traffic_scales_with_slots(self):
        e2 = MergeEntry(0, 0, 0, 4, 0, (0, 1))
        e4 = MergeEntry(0, 0, 0, 4, 0, (0, 1, 2, 3))
        c2 = contraction_cost(e2, rows=4, head_dim=16)
        c4 = contraction_cost(e4, rows=4, head_dim=16)
        assert c4.bytes_read == 2 * c2.bytes_read
        assert c4.bytes_written == c2.bytes_written

    def test_not_tensor_core(self):
        c = contraction_cost(MergeEntry(0, 0, 0, 1, 0, (0, 1)), 1, 8)
        assert not c.uses_tensor_cores


class TestDistribute:
    def test_contiguous_pair_blocks(self):
        assert distribute_merges([1] * 5, 2) == [[0, 1, 2], [3, 4]]

    def test_long_entry_spans_ctas(self):
        assert distribute_merges([6, 1], 4) == [[0, 0], [0, 0], [0, 0], [1]]

    def test_empty(self):
        assert distribute_merges([], 3) == [[], [], []]

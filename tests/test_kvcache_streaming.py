"""Tests for the StreamingLLM rolling KV cache."""

import numpy as np
import pytest

from repro.kvcache import StreamingKVCache


def token(i, heads=1, dim=4):
    return np.full((heads, dim), float(i)), np.full((heads, dim), float(-i))


class TestAppendOrder:
    def test_before_overflow_keeps_everything(self):
        c = StreamingKVCache(1, num_sinks=2, window=4, num_kv_heads=1, head_dim=4)
        for i in range(5):
            c.append(0, *token(i))
        order = c.slot_order(0)
        assert c.cache_len(0) == 5
        assert np.allclose(c.k_pool[order][:, 0, 0], [0, 1, 2, 3, 4])

    def test_overflow_evicts_oldest_window_token(self):
        c = StreamingKVCache(1, num_sinks=2, window=4, num_kv_heads=1, head_dim=4)
        for i in range(9):  # 2 sinks + tokens 2..8 through a window of 4
            c.append(0, *token(i))
        order = c.slot_order(0)
        # Expected: sinks (0, 1) then the last 4 tokens (5, 6, 7, 8).
        assert np.allclose(c.k_pool[order][:, 0, 0], [0, 1, 5, 6, 7, 8])
        assert c.cache_len(0) == 6

    def test_constant_memory(self):
        c = StreamingKVCache(1, num_sinks=4, window=8, num_kv_heads=1, head_dim=4)
        for i in range(1000):
            c.append(0, *token(i))
        assert c.cache_len(0) == 12
        order = c.slot_order(0)
        assert np.allclose(c.k_pool[order][:, 0, 0],
                           [0, 1, 2, 3] + list(range(992, 1000)))

    def test_no_sinks(self):
        c = StreamingKVCache(1, num_sinks=0, window=3, num_kv_heads=1, head_dim=4)
        for i in range(7):
            c.append(0, *token(i))
        order = c.slot_order(0)
        assert np.allclose(c.k_pool[order][:, 0, 0], [4, 5, 6])

    def test_multi_token_append(self):
        c = StreamingKVCache(1, num_sinks=1, window=3, num_kv_heads=1, head_dim=4)
        k = np.arange(5, dtype=float).reshape(5, 1, 1) * np.ones((5, 1, 4))
        c.append(0, k, -k)
        order = c.slot_order(0)
        assert np.allclose(c.k_pool[order][:, 0, 0], [0, 2, 3, 4])

    def test_batch_isolation(self):
        c = StreamingKVCache(2, num_sinks=1, window=2, num_kv_heads=1, head_dim=4)
        c.append(0, *token(10))
        c.append(1, *token(99))
        assert c.k_pool[c.slot_order(0)][0, 0, 0] == 10
        assert c.k_pool[c.slot_order(1)][0, 0, 0] == 99

    def test_shape_validation(self):
        c = StreamingKVCache(1, 1, 2, num_kv_heads=2, head_dim=4)
        with pytest.raises(ValueError, match="shape"):
            c.append(0, np.zeros((1, 1, 4)), np.zeros((1, 1, 4)))


class TestMappingExport:
    def test_cache_positions(self):
        c = StreamingKVCache(2, num_sinks=2, window=4, num_kv_heads=1, head_dim=4)
        for i in range(9):
            c.append(0, *token(i))
        for i in range(3):
            c.append(1, *token(i + 50))
        m = c.mapping([0, 1], [1, 1])
        assert m.causal
        assert np.array_equal(m.kv.kv_lens, [6, 3])
        # kv_pos are cache positions (from 0), queries at the last position.
        assert np.array_equal(m._block_positions[m.kv.indptr[:-1]], [0, 0])
        assert np.array_equal(m.q_pos, [5, 2])

    def test_gather_order_is_logical(self):
        c = StreamingKVCache(1, num_sinks=1, window=3, num_kv_heads=1, head_dim=4)
        for i in range(7):
            c.append(0, *token(i))
        m = c.mapping([0], [1])
        slots = m.kv.slot_indices(0)
        assert np.allclose(c.k_pool[slots][:, 0, 0], [0, 4, 5, 6])

    def test_validation(self):
        with pytest.raises(ValueError):
            StreamingKVCache(0, 1, 2, 1, 4)
        with pytest.raises(ValueError):
            StreamingKVCache(1, -1, 2, 1, 4)
        with pytest.raises(ValueError):
            StreamingKVCache(1, 1, 0, 1, 4)

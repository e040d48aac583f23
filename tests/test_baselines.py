"""Tests for the FlashAttention baseline and unfused pipelines."""

import numpy as np
import pytest

from conftest import fp16, make_paged_mapping
from repro import A100_40G
from repro.baselines import (
    FlashAttentionBaseline,
    rope_kernel_report,
    unfused_streaming_step,
)
from repro.core import HeadConfig, reference_attention

HEADS = HeadConfig(8, 2, 32)


class TestNumericParity:
    def test_fa2_prefill_matches_reference(self, rng):
        mapping, slots = make_paged_mapping([70, 40], [70, 40], 16)
        q = rng.standard_normal((110, 8, 32))
        kp = rng.standard_normal((slots, 2, 32))
        vp = rng.standard_normal((slots, 2, 32))
        fa = FlashAttentionBaseline(HEADS, A100_40G, version="fa2")
        out, _ = fa.run(mapping, q, kp, vp, decode=False, compute=True)
        for r, (s0, s1) in enumerate(zip(mapping.qo_indptr, mapping.qo_indptr[1:])):
            sl = mapping.kv.slot_indices(r)
            ref = reference_attention(q[s0:s1], fp16(kp[sl]), fp16(vp[sl]), causal=True)
            np.testing.assert_allclose(out[s0:s1], ref, atol=1e-6)

    def test_fa3_decode_split_matches_reference(self, rng):
        # Small batch forces flash-decoding splits.
        mapping, slots = make_paged_mapping([600, 300], [1, 1], 16)
        q = rng.standard_normal((2, 8, 32))
        kp = rng.standard_normal((slots, 2, 32))
        vp = rng.standard_normal((slots, 2, 32))
        fa = FlashAttentionBaseline(HEADS, A100_40G, version="fa3")
        out, _ = fa.run(mapping, q, kp, vp, decode=True, compute=True)
        for r in range(2):
            sl = mapping.kv.slot_indices(r)
            ref = reference_attention(q[r : r + 1], fp16(kp[sl]), fp16(vp[sl]), causal=True)
            np.testing.assert_allclose(out[r : r + 1], ref, atol=1e-5)

    def test_compute_requires_tensors(self):
        mapping, _ = make_paged_mapping([64], [1], 16)
        fa = FlashAttentionBaseline(HEADS)
        with pytest.raises(ValueError):
            fa.run(mapping, decode=True, compute=True)

    def test_unknown_version(self):
        with pytest.raises(ValueError):
            FlashAttentionBaseline(HEADS, version="fa9")


class TestSchedulingCharacter:
    def test_skew_hurts_fa2_decode(self, rng):
        flat, _ = make_paged_mapping([1024] * 16, [1] * 16, 16)
        skew, _ = make_paged_mapping([10240] + [400] * 15, [1] * 16, 16)
        fa = FlashAttentionBaseline(HeadConfig(32, 32, 128), A100_40G, version="fa2")
        _, rep_flat = fa.run(flat, decode=True)
        _, rep_skew = fa.run(skew, decode=True)
        assert rep_skew.bandwidth_utilization(A100_40G) < rep_flat.bandwidth_utilization(
            A100_40G
        )

    def test_fa3_split_helps_small_batches(self):
        mapping, _ = make_paged_mapping([8192, 8192], [1, 1], 16)
        heads = HeadConfig(8, 8, 128)
        fa2 = FlashAttentionBaseline(heads, A100_40G, version="fa2")
        fa3 = FlashAttentionBaseline(heads, A100_40G, version="fa3")
        _, r2 = fa2.run(mapping, decode=True)
        _, r3 = fa3.run(mapping, decode=True)
        assert r3.makespan < r2.makespan

    def test_decode_tile_padding_waste(self):
        """FA2's 128-row prefill tile wastes compute on single-query decode
        (the §3.2.2 motivation)."""
        mapping, _ = make_paged_mapping([2048] * 8, [1] * 8, 16)
        heads = HeadConfig(8, 8, 128)
        fa2 = FlashAttentionBaseline(heads, A100_40G, version="fa2")
        _, rep = fa2.run(mapping, decode=True)
        # Useful flops are a tiny fraction of a 128-row tile's padded work.
        assert rep.flops_utilization(A100_40G) < 0.05


class TestUnfusedPipelines:
    def test_rope_kernel_is_bandwidth_bound(self):
        rep = rope_kernel_report(100_000, 8, 128, A100_40G)
        assert rep.achieved_bandwidth() > 0.5 * A100_40G.peak_bandwidth_bytes

    def test_unfused_adds_rope_cost(self):
        from repro.gpu import SimReport

        attn = SimReport(10e-6, 0.0, 0.0, 1, 1, [])
        step = unfused_streaming_step(attn, cache_len=2048, batch_size=4,
                                      heads=HeadConfig(8, 8, 128))
        assert step.total.makespan > attn.makespan
        assert step.rope is not None

    def test_original_impl_slower_than_unfused(self):
        from repro.gpu import SimReport

        attn = SimReport(10e-6, 0.0, 0.0, 1, 1, [])
        heads = HeadConfig(8, 8, 128)
        unfused = unfused_streaming_step(attn, 2048, 4, heads)
        original = unfused_streaming_step(attn, 2048, 4, heads, original_impl=True)
        assert original.total.makespan > unfused.total.makespan

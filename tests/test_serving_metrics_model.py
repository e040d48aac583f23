"""Tests for latency metrics and the model cost roofline."""

import numpy as np
import pytest

from repro.gpu import A100_40G, H100_80G
from repro.serving import (
    LLAMA_3_1_8B,
    LLAMA_3_1_70B,
    VICUNA_13B,
    RequestTrace,
    ServingMetrics,
    expected_tokens,
)


class TestMetrics:
    def test_ttft(self):
        t = RequestTrace(arrival=1.0, first_token_time=1.5)
        assert t.ttft == pytest.approx(0.5)

    def test_itls(self):
        t = RequestTrace(arrival=0.0, first_token_time=1.0, token_times=[1.2, 1.5, 1.9])
        np.testing.assert_allclose(t.itls, [0.2, 0.3, 0.4])

    def test_aggregation(self):
        m = ServingMetrics()
        m.add(RequestTrace(0.0, 0.5, [0.7]))
        m.add(RequestTrace(1.0, 2.0, [2.4]))
        m.total_time = 3.0
        assert m.median_ttft() == pytest.approx(0.75)
        np.testing.assert_allclose(sorted(m.all_itls), [0.2, 0.4])
        assert m.median_itl() == pytest.approx(0.3)
        assert m.total_output_tokens == 4
        assert m.throughput_tokens_per_s() == pytest.approx(4 / 3)

    def test_empty_metrics_nan(self):
        m = ServingMetrics()
        assert np.isnan(m.median_ttft())
        assert np.isnan(m.median_itl())

    def test_summary_keys(self):
        m = ServingMetrics()
        m.add(RequestTrace(0.0, 0.5, [0.7]))
        s = m.summary()
        for key in ("median_ttft", "p99_ttft", "median_itl", "throughput_tok_s"):
            assert key in s


#: The token oracle's reference: stream (0, 0) and, for rid-keyed runs, 7.
REFERENCE = {(0, 0): [5, 6, 7, 8], (7, 0): [5, 6, 7, 8]}


@pytest.mark.parametrize("tokens, reason, req_id, rids, expect", [
    ([5, 6, 7, 8], "", 0, None, (0, 1)),                   # equal tokens
    ([5, 6, 9, 8], "", 0, None, (1, 1)),                   # one token off
    ([5, 6], "brownout-clamp", 0, None, (0, 1)),           # clamped exact prefix
    ([5, 9], "brownout-clamp", 0, None, (1, 1)),           # clamped wrong prefix
    ([5, 6, 7, 8, 9], "", 0, None, (1, 1)),                # longer than the reference
    ([5, 6, 7, 8], "", 3, None, (0, 0)),                   # key the oracle lacks
    (None, "", 0, None, (0, 0)),                           # no tokens recorded
    ([5, 6, 7, 8], "", 0, [7], (0, 1)),                    # keyed by rid
    ([5, 6, 7, 8], "", 0, [None], (0, 0)),                 # no rid
], ids=["equal", "one-off", "clamped-prefix", "clamped-wrong", "longer",
        "missing-key", "no-tokens", "rid", "no-rid"])
def test_token_divergence(tokens, reason, req_id, rids, expect):
    m = ServingMetrics(traces=[RequestTrace(
        0.0, 0.1, req_id=req_id, tokens=tokens, outcome_reason=reason)])
    assert m.token_divergence(REFERENCE, rids) == expect


def test_expected_tokens_keeps_identified_streams_with_tokens():
    ref = ServingMetrics(traces=[
        RequestTrace(0.0, 0.1, req_id=0, gen_index=1, tokens=[1, 2]),
        RequestTrace(0.0, 0.1, req_id=1, tokens=None),
        RequestTrace(0.0, 0.1, tokens=[3]),  # req_id -1: no identity
    ])
    assert expected_tokens(ref) == {(0, 1): [1, 2]}


class TestModelConfigs:
    def test_parameter_counts_plausible(self):
        # Layer weights × layers should land near the advertised sizes (fp16).
        for model, params_b in ((LLAMA_3_1_8B, 8e9), (LLAMA_3_1_70B, 70e9), (VICUNA_13B, 13e9)):
            weights = model.layer_weight_bytes() * model.num_layers / model.dtype_bytes
            assert weights == pytest.approx(params_b, rel=0.25)

    def test_gqa_geometry(self):
        assert LLAMA_3_1_8B.num_qo_heads // LLAMA_3_1_8B.num_kv_heads == 4
        assert VICUNA_13B.num_qo_heads == VICUNA_13B.num_kv_heads  # MHA


class TestRoofline:
    def test_decode_is_weight_bandwidth_bound(self):
        m = LLAMA_3_1_8B
        t = m.layer_nonattn_time(8, H100_80G, gemm_efficiency=0.9)
        weight_time = m.layer_weight_bytes() / H100_80G.peak_bandwidth_bytes
        assert t == pytest.approx(weight_time, rel=0.2)

    def test_prefill_is_compute_bound(self):
        m = LLAMA_3_1_8B
        t = m.layer_nonattn_time(8192, H100_80G, gemm_efficiency=0.9)
        flop_time = m.layer_gemm_flops(8192) / (H100_80G.peak_fp16_flops * 0.9)
        assert t == pytest.approx(flop_time, rel=0.05)

    def test_tensor_parallel_shrinks_shard(self):
        m = LLAMA_3_1_70B
        t1 = m.layer_nonattn_time(4, H100_80G, 0.9, tensor_parallel=1)
        t4 = m.layer_nonattn_time(4, H100_80G, 0.9, tensor_parallel=4)
        assert t4 < t1 / 3

    def test_allreduce_zero_without_tp(self):
        assert LLAMA_3_1_70B.allreduce_time(16, tensor_parallel=1) == 0.0

    def test_allreduce_scales_with_tokens(self):
        m = LLAMA_3_1_70B
        a = m.allreduce_time(1, 4)
        b = m.allreduce_time(1000, 4)
        assert b > a

    def test_allreduce_efficiency(self):
        m = LLAMA_3_1_70B
        assert m.allreduce_time(100, 4, efficiency=2.0) < m.allreduce_time(100, 4)

    def test_lm_head_time_positive(self):
        assert LLAMA_3_1_8B.lm_head_time(16, A100_40G, 0.9) > 0


class TestVicunaAndSpecScaling:
    def test_bigger_models_cost_more_per_layer(self):
        t8 = LLAMA_3_1_8B.layer_nonattn_time(4, H100_80G, 0.9)
        t70 = LLAMA_3_1_70B.layer_nonattn_time(4, H100_80G, 0.9)
        assert t70 > 2.5 * t8

    def test_qkv_features_gqa(self):
        # Llama 8B: 32 q heads + 2×8 kv heads, head_dim 128.
        assert LLAMA_3_1_8B.qkv_out_features == (32 + 16) * 128
        assert LLAMA_3_1_8B.attn_out_features == 32 * 128

    def test_h100_faster_than_a100(self):
        m = LLAMA_3_1_8B
        assert m.layer_nonattn_time(4, H100_80G, 0.9) < m.layer_nonattn_time(
            4, A100_40G, 0.9
        )

"""Tests for the P99-TTFT operating-point search."""

import pytest

from repro.serving import RequestTrace, ServingMetrics, find_max_rate
from repro.serving.tuning import P99_TTFT_LIMIT


def fake_runner(knee: float):
    """P99 TTFT grows slowly below the knee, explodes above it."""

    def run(rate: float) -> ServingMetrics:
        m = ServingMetrics()
        ttft = 0.02 + (0.0 if rate <= knee else (rate - knee) * 0.05)
        for _ in range(10):
            m.add(RequestTrace(arrival=0.0, first_token_time=ttft, token_times=[ttft + 0.01]))
        m.total_time = 1.0
        return m

    return run


class TestBisection:
    def test_converges_to_knee(self):
        assert P99_TTFT_LIMIT == 0.2
        op = find_max_rate(fake_runner(knee=40.0), lo=1, hi=512)
        # Limit 0.2s is reached ~3.6 rate units past the knee.
        assert 40.0 <= op.rate <= 45.0
        assert op.p99_ttft <= 0.2

    def test_lo_already_violating(self):
        op = find_max_rate(fake_runner(knee=0.5), lo=10, hi=100)
        assert op.rate == 10
        assert op.p99_ttft > 0.2  # caller sees the violation

    def test_hi_satisfies(self):
        op = find_max_rate(fake_runner(knee=1e9), lo=1, hi=100)
        assert op.rate == 100

    def test_custom_constraint_replaces_the_default_limit(self):
        # A tighter SLO than P99_TTFT_LIMIT stops the search nearer the knee.
        default = find_max_rate(fake_runner(knee=40.0), lo=1, hi=512)
        tight = find_max_rate(
            fake_runner(knee=40.0), lo=1, hi=512,
            constraint=lambda m: m.p99_ttft() <= 0.05,
        )
        assert tight.p99_ttft <= 0.05
        # 0.05 s is reached 0.6 rate units past the knee, 0.2 s 3.6 units.
        assert tight.rate <= 40.6 < default.rate

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            find_max_rate(fake_runner(10), lo=5, hi=5)

    def test_monotone_call_count_bounded(self):
        calls = []

        def run(rate):
            calls.append(rate)
            return fake_runner(40.0)(rate)

        find_max_rate(run, lo=1, hi=512, max_iters=8)
        assert len(calls) <= 10  # lo + hi + max_iters


class TestOnRealEngine:
    def test_search_on_small_engine(self):
        from repro.core import HeadConfig
        from repro.gpu import H100_80G
        from repro.serving import (EngineConfig, FlashInferBackend, LLAMA_3_1_8B,
                                   ServingEngine, sharegpt_workload)

        model = LLAMA_3_1_8B
        heads = HeadConfig(model.num_qo_heads, model.num_kv_heads, model.head_dim)

        def run(rate: float):
            be = FlashInferBackend(heads, H100_80G)
            eng = ServingEngine(model, be, H100_80G, EngineConfig(max_running=256))
            return eng.run(sharegpt_workload(20, rate, seed=0))

        op = find_max_rate(run, lo=4, hi=200, max_iters=3)
        assert op.rate >= 4
        assert op.p99_ttft <= 0.2 or op.rate == 4

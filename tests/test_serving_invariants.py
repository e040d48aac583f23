"""Property-based invariants of the serving engine over random workloads."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import HeadConfig
from repro.gpu import H100_80G
from repro.serving import (
    EngineConfig,
    FlashInferBackend,
    LLAMA_3_1_8B,
    Request,
    ServingEngine,
)

MODEL = LLAMA_3_1_8B
HEADS = HeadConfig(MODEL.num_qo_heads, MODEL.num_kv_heads, MODEL.head_dim)

request_strategy = st.lists(
    st.tuples(
        st.floats(0.0, 2.0),     # arrival
        st.integers(1, 600),     # prompt
        st.integers(1, 12),      # output
        st.sampled_from([1, 2, 3]),  # n
    ),
    min_size=1,
    max_size=8,
)


def build(reqs_spec):
    return [Request(a, p, o, n=n) for a, p, o, n in reqs_spec]


def run_engine(reqs, **cfg):
    base = dict(num_pool_pages=1 << 13, max_running=64)
    base.update(cfg)
    be = FlashInferBackend(HEADS, H100_80G)
    return ServingEngine(MODEL, be, H100_80G, EngineConfig(**base)).run(reqs)


class TestEngineInvariants:
    @given(request_strategy, st.booleans(), st.booleans())
    @settings(max_examples=25)
    def test_completion_and_token_conservation(self, spec, chunked, composable):
        reqs = build(spec)
        m = run_engine(reqs, chunked_prefill=chunked, composable=composable)
        # One trace per generation stream; every token accounted for.
        assert len(m.traces) == sum(r.n for r in reqs)
        assert m.total_output_tokens == sum(r.n * r.output_len for r in reqs)

    @given(request_strategy, st.booleans())
    @settings(max_examples=25)
    def test_temporal_causality(self, spec, chunked):
        reqs = build(spec)
        m = run_engine(reqs, chunked_prefill=chunked)
        for tr in m.traces:
            times = [tr.arrival, tr.first_token_time] + tr.token_times
            assert all(b >= a for a, b in zip(times, times[1:]))
            assert tr.ttft >= 0

    @given(request_strategy)
    @settings(max_examples=15)
    def test_chunked_matches_unchunked_token_counts(self, spec):
        reqs = build(spec)
        a = run_engine(reqs, chunked_prefill=False)
        b = run_engine(reqs, chunked_prefill=True, prefill_chunk_size=128)
        assert a.total_output_tokens == b.total_output_tokens

    @given(request_strategy)
    @settings(max_examples=15)
    def test_deterministic_replay(self, spec):
        reqs = build(spec)
        a = run_engine(reqs).summary()
        b = run_engine(reqs).summary()
        for key in a:
            if np.isnan(a[key]):
                assert np.isnan(b[key])
            else:
                assert a[key] == pytest.approx(b[key], rel=1e-12)

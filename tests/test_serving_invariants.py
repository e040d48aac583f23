"""Property-based invariants of the serving engine over random workloads."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import sweep
from repro.serving import EngineConfig, Request, ServingEngine

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
    return ServingEngine.from_config(EngineConfig(**base)).run(reqs)


class TestEngineInvariants:
    @given(request_strategy, st.booleans(), st.booleans())
    @example([(0.0, 600, 12, 3)] * 8, False, False)  # more work items than CTAs
    @sweep(6, 25)
    def test_completion_and_token_conservation(self, spec, chunked, composable):
        reqs = build(spec)
        m = run_engine(reqs, chunked_prefill=chunked, composable=composable)
        # One trace per generation stream; every token accounted for.
        assert len(m.traces) == sum(r.n for r in reqs)
        assert m.total_output_tokens == sum(r.n * r.output_len for r in reqs)

    @given(request_strategy, st.booleans())
    @sweep(6, 25)
    def test_temporal_causality(self, spec, chunked):
        reqs = build(spec)
        m = run_engine(reqs, chunked_prefill=chunked)
        for tr in m.traces:
            times = [tr.arrival, tr.first_token_time] + tr.token_times
            assert all(b >= a for a, b in zip(times, times[1:]))
            assert tr.ttft >= 0

    @given(request_strategy)
    @sweep(4, 15)
    def test_deterministic_replay_and_chunked_token_counts(self, spec):
        reqs = build(spec)
        plain = run_engine(reqs)
        chunked = run_engine(reqs, chunked_prefill=True, prefill_chunk_size=128)
        assert plain.total_output_tokens == chunked.total_output_tokens
        a, b = plain.summary(), run_engine(reqs).summary()
        for key in a:
            if np.isnan(a[key]):
                assert np.isnan(b[key])
            else:
                assert a[key] == pytest.approx(b[key], rel=1e-12)

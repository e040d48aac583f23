"""Tests for Sarathi-serve-style chunked prefill in the engine."""


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


def engine(chunked, chunk_size=512, composable=False):
    be = FlashInferBackend(HEADS, H100_80G)
    cfg = EngineConfig(
        num_pool_pages=1 << 14, chunked_prefill=chunked,
        prefill_chunk_size=chunk_size, composable=composable,
    )
    return ServingEngine(MODEL, be, H100_80G, cfg)


class TestCorrectness:
    def test_all_requests_complete(self):
        reqs = [Request(i * 0.01, 700, 6) for i in range(4)]
        m = engine(True).run(reqs)
        assert len(m.traces) == 4
        assert m.total_output_tokens == 24

    def test_token_times_monotone(self):
        reqs = [Request(0.0, 1500, 8), Request(0.05, 100, 8)]
        m = engine(True).run(reqs)
        for tr in m.traces:
            times = [tr.arrival, tr.first_token_time] + tr.token_times
            assert all(a <= b for a, b in zip(times, times[1:]))

    def test_matches_unchunked_token_counts(self):
        reqs = [Request(i * 0.02, 900, 5) for i in range(5)]
        chunked = engine(True).run(reqs)
        plain = engine(False).run(reqs)
        assert chunked.total_output_tokens == plain.total_output_tokens

    def test_parallel_generation_compatible(self):
        reqs = [Request(0.0, 600, 5, n=3)]
        m = engine(True, composable=True).run(reqs)
        assert len(m.traces) == 3

    def test_prompt_shorter_than_chunk(self):
        reqs = [Request(0.0, 64, 4)]
        m = engine(True, chunk_size=512).run(reqs)
        assert len(m.traces) == 1


class TestLatencyShape:
    def test_chunking_bounds_decode_stalls(self):
        """A giant prompt arriving mid-decode must not freeze running
        streams for its whole prefill (the Sarathi-serve claim)."""
        reqs = [Request(0.0, 64, 200)] + [Request(0.2, 16384, 4)]
        worst = {}
        for chunked in (False, True):
            m = engine(chunked, chunk_size=1024).run(reqs)
            long_stream = max(m.traces, key=lambda tr: len(tr.token_times))
            worst[chunked] = float(long_stream.itls.max())
        # Unchunked: the decode stream stalls for the full 16k prefill in
        # one step; chunking bounds the stall to roughly one chunk's work.
        assert worst[False] > 3.0 * worst[True]

    def test_chunking_delays_ttft_slightly(self):
        """The flip side: a chunked prompt's own TTFT is a bit worse."""
        reqs = [Request(0.0, 8192, 4)]
        ttft = {}
        for chunked in (False, True):
            m = engine(chunked, chunk_size=1024).run(reqs)
            ttft[chunked] = m.median_ttft()
        assert ttft[True] >= ttft[False] * 0.95

"""Tests for preemption-by-recompute under KV-pool pressure."""

import pytest

from repro.core import HeadConfig
from repro.gpu import H100_80G
from repro.kvcache import OutOfPagesError
from repro.serving import (
    EngineConfig,
    FlashInferBackend,
    LLAMA_3_1_8B,
    Request,
    ServingEngine,
    ServingMetrics,
)

MODEL = LLAMA_3_1_8B
HEADS = HeadConfig(MODEL.num_qo_heads, MODEL.num_kv_heads, MODEL.head_dim)


def engine(num_pool_pages, chunked=False, max_running=64):
    cfg = EngineConfig(
        num_pool_pages=num_pool_pages, max_running=max_running,
        chunked_prefill=chunked, prefill_chunk_size=512,
    )
    return ServingEngine(MODEL, FlashInferBackend(HEADS, H100_80G), H100_80G, cfg)


class TestPreemption:
    def test_tight_pool_completes_with_preemptions(self):
        # 8 requests of ~40 pages each decoding to ~53 pages; a 256-page
        # pool cannot hold all eight at once.
        reqs = [Request(i * 0.001, 640, 200) for i in range(8)]
        m = engine(num_pool_pages=256).run(reqs)
        assert len(m.traces) == 8
        assert m.total_output_tokens == 8 * 200
        assert m.preemptions > 0

    def test_roomy_pool_never_preempts(self):
        reqs = [Request(i * 0.001, 640, 50) for i in range(4)]
        m = engine(num_pool_pages=1 << 12).run(reqs)
        assert m.preemptions == 0

    def test_preemption_slows_victims_not_correctness(self):
        """Token counts are preserved; the recompute shows up as an ITL
        spike on some stream."""
        reqs = [Request(i * 0.001, 640, 120) for i in range(8)]
        tight = engine(num_pool_pages=230).run(reqs)
        roomy = engine(num_pool_pages=1 << 12).run(reqs)
        assert tight.total_output_tokens == roomy.total_output_tokens
        assert tight.preemptions > 0
        # The preempted stream's worst gap exceeds the roomy worst gap.
        assert max(t.itls.max() for t in tight.traces) > max(
            t.itls.max() for t in roomy.traces
        )

    def test_chunked_prefill_path_also_preempts(self):
        reqs = [Request(i * 0.001, 640, 150) for i in range(8)]
        m = engine(num_pool_pages=256, chunked=True).run(reqs)
        assert len(m.traces) == 8
        assert m.preemptions > 0

    def test_impossible_pool_raises(self):
        # The pool cannot hold even one prompt: no schedule exists.
        reqs = [Request(0.0, 640, 10)]
        with pytest.raises(OutOfPagesError, match="num_pool_pages"):
            engine(num_pool_pages=30).run(reqs)

    def test_tight_pool_serializes_instead_of_crashing(self):
        # Two streams cannot coexist, but one at a time fits: the engine
        # must make progress by queueing/preempting, not crash.
        reqs = [Request(0.0, 640, 200), Request(0.0, 640, 200)]
        m = engine(num_pool_pages=81).run(reqs)
        assert len(m.traces) == 2
        assert m.total_output_tokens == 400

    def test_preemptions_are_counted_and_merged(self):
        # The cluster summary's cluster_preemptions is the merged count.
        reqs = [Request(i * 0.001, 640, 120) for i in range(8)]
        m = engine(num_pool_pages=256).run(reqs)
        assert m.preemptions > 0
        assert ServingMetrics.merge([m, m]).preemptions == 2 * m.preemptions

"""Tests for the continuous-batching serving engine and backends."""

import pytest

from repro.core import HeadConfig
from repro.gpu import H100_80G
from repro.serving import (
    EngineConfig,
    FlashInferBackend,
    Request,
    ServingEngine,
    TritonBackend,
    TRTLLMBackend,
    LLAMA_3_1_8B,
    VICUNA_13B,
)

MODEL = LLAMA_3_1_8B
HEADS = HeadConfig(MODEL.num_qo_heads, MODEL.num_kv_heads, MODEL.head_dim)


def tiny_requests(n=4, prompt=64, output=8, rate_gap=0.001, n_parallel=1):
    return [
        Request(i * rate_gap, prompt, output, n=n_parallel) for i in range(n)
    ]


def small_engine(backend=None, **cfg_kwargs):
    be = backend or FlashInferBackend(HEADS, H100_80G)
    cfg = EngineConfig(num_pool_pages=1 << 12, **cfg_kwargs)
    return ServingEngine(MODEL, be, H100_80G, cfg)


@pytest.mark.parametrize("field", [
    "max_running", "max_prefill_tokens", "tensor_parallel", "num_pool_pages",
    "prefill_chunk_size",
])
def test_config_refuses_values_below_one(field):
    # Each used to hang the step loop or divide by zero mid-run.
    with pytest.raises(ValueError, match=field):
        EngineConfig(**{field: 0})


class TestBasicServing:
    def test_all_requests_complete(self):
        eng = small_engine()
        m = eng.run(tiny_requests(5))
        assert len(m.traces) == 5

    def test_token_counts(self):
        eng = small_engine()
        m = eng.run(tiny_requests(3, output=10))
        assert m.total_output_tokens == 30
        for t in m.traces:
            assert len(t.token_times) == 9  # first token + 9 decode steps

    def test_time_monotone_per_request(self):
        eng = small_engine()
        m = eng.run(tiny_requests(3, output=6))
        for t in m.traces:
            times = [t.arrival, t.first_token_time] + t.token_times
            assert all(a <= b for a, b in zip(times, times[1:]))

    def test_ttft_includes_queueing(self):
        # A burst of arrivals must queue: later requests see larger TTFT.
        reqs = [Request(0.0, 2048, 4) for _ in range(12)]
        eng = small_engine(max_prefill_tokens=2048)
        m = eng.run(reqs)
        ttfts = sorted(t.ttft for t in m.traces)
        assert ttfts[-1] > 2 * ttfts[0]

    def test_output_len_one(self):
        eng = small_engine()
        m = eng.run(tiny_requests(2, output=1))
        assert len(m.traces) == 2
        assert all(not t.token_times for t in m.traces)

    def test_idle_gap_jumps_clock(self):
        reqs = [Request(0.0, 32, 2), Request(100.0, 32, 2)]
        eng = small_engine()
        m = eng.run(reqs)
        assert m.traces[-1].first_token_time > 100.0

    def test_pages_freed_at_end(self):
        eng = small_engine()
        eng.run(tiny_requests(4))
        # engine creates its cache per run; re-running must also work.
        m = eng.run(tiny_requests(4))
        assert len(m.traces) == 4


class TestTensorParallelHeads:
    """The engine shards heads by the cluster's one rule, ``plan_tp_sharding``."""

    def test_non_dividing_tp_is_refused_naming_the_heads(self):
        # tp=3 used to keep all 32 QO heads while the GEMMs divided by 3.
        with pytest.raises(ValueError, match="num_qo_heads=32"):
            ServingEngine.from_config(EngineConfig(tensor_parallel=3))
        be = FlashInferBackend(HeadConfig(32, 2, 128), H100_80G)
        with pytest.raises(ValueError, match="num_qo_heads=32"):
            ServingEngine(MODEL, be, H100_80G, EngineConfig(tensor_parallel=3))

    def test_from_config_defaults_to_llama_8b_on_h100(self):
        engine = ServingEngine.from_config()
        assert engine.model is MODEL and engine.gpu is H100_80G
        assert engine.heads == HEADS
        assert isinstance(engine.backend, FlashInferBackend)

    @pytest.mark.parametrize("tp", [1, 2, 4, 8, 16, 32])
    def test_every_valid_tp_keeps_its_shard(self, tp):
        engine = ServingEngine.from_config(EngineConfig(tensor_parallel=tp))
        heads = HeadConfig(32 // tp, max(8 // tp, 1), 128)
        assert engine.heads == heads
        assert engine.backend.heads == heads


class TestBackends:
    def test_backend_head_mismatch_rejected(self):
        be = FlashInferBackend(HeadConfig(8, 8, 64), H100_80G)
        with pytest.raises(ValueError, match="heads"):
            ServingEngine(MODEL, be, H100_80G, EngineConfig())

    def test_triton_slower_at_load(self):
        reqs = [Request(0.0, 512, 16) for _ in range(32)]
        fi = small_engine(FlashInferBackend(HEADS, H100_80G)).run(reqs)
        tr = small_engine(TritonBackend(HEADS, H100_80G)).run(reqs)
        assert tr.median_itl() > fi.median_itl()

    def test_trtllm_attention_parity(self):
        reqs = tiny_requests(6, prompt=256, output=8)
        fi = small_engine(FlashInferBackend(HEADS, H100_80G)).run(reqs)
        trt = small_engine(TRTLLMBackend(HEADS, H100_80G)).run(reqs)
        # TRT analog has better non-attention kernels → at least as fast.
        assert trt.median_itl() <= fi.median_itl() * 1.01

    def test_step_overhead_cudagraph(self):
        be = FlashInferBackend(HEADS, H100_80G)
        assert be.step_overhead(32, H100_80G) == H100_80G.kernel_launch_overhead
        be.characteristics.uses_cudagraph = False
        assert be.step_overhead(32, H100_80G) > 32 * H100_80G.kernel_launch_overhead / 2

    def test_triton_rejects_composable(self):
        from repro.sparse import ComposableFormat
        from conftest import make_paged_mapping

        be = TritonBackend(HEADS, H100_80G)
        m1, _ = make_paged_mapping([64], [1], 16)
        m2, _ = make_paged_mapping([64], [1], 16)
        with pytest.raises(ValueError, match="composable"):
            be.attention_time(ComposableFormat([m1, m2]))


class TestParallelGeneration:
    def test_n_streams_per_request(self):
        eng = small_engine()
        m = eng.run(tiny_requests(2, output=5, n_parallel=3))
        assert len(m.traces) == 6  # one trace per stream

    def test_plain_run_stamps_every_trace_identity(self):
        m = small_engine().run(tiny_requests(2, output=5, n_parallel=3))
        ids = sorted((t.req_id, t.gen_index) for t in m.traces)
        assert ids == [(r, g) for r in range(2) for g in range(3)]

    def test_composable_matches_token_counts(self):
        be = FlashInferBackend(HEADS, H100_80G)
        eng = small_engine(be, composable=True)
        m = eng.run(tiny_requests(2, prompt=64, output=6, n_parallel=4))
        assert len(m.traces) == 8
        assert m.total_output_tokens == 48

    def test_composable_reduces_itl_at_n4(self):
        reqs = [Request(i * 0.001, 512, 24, n=4) for i in range(8)]
        single = small_engine(
            FlashInferBackend(HEADS, H100_80G), composable=False
        ).run(reqs)
        comp = small_engine(
            FlashInferBackend(HEADS, H100_80G), composable=True
        ).run(reqs)
        assert comp.median_itl() < single.median_itl()


class TestVicuna:
    def test_mha_model_serves(self):
        model = VICUNA_13B
        heads = HeadConfig(model.num_qo_heads, model.num_kv_heads, model.head_dim)
        be = FlashInferBackend(heads, H100_80G)
        eng = ServingEngine(model, be, H100_80G, EngineConfig(num_pool_pages=1 << 12))
        m = eng.run([Request(0.0, 128, 4)])
        assert len(m.traces) == 1

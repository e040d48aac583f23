"""End-to-end model tests: the serving engine computing a real transformer's
tokens, held token-exact (fp32 KV storage) against the dense oracle."""

import numpy as np
import pytest

from repro.faults import FaultPlan
from repro.models import TinyConfig, TinyTransformer
from repro.models.sampling import SamplingParams
from repro.obs import StepTracer
from repro.serving import EngineConfig, Request, ServingEngine, TritonBackend


class Recording(TinyTransformer):
    """Keeps the logits each token was chosen from, by ``(key, gen, pos)``."""

    def next_token(self, logits, key, gen, pos):
        self.chosen_from[key, gen, pos] = logits
        return super().next_token(logits, key, gen, pos)


@pytest.fixture(scope="module")
def model():
    return Recording(TinyConfig(), seed=0)


#: Gemma-2-style: alternating sliding-window / full layers, one stack per variant.
GEMMA_STYLE = TinyConfig(num_layers=4, sliding_window=8, sliding_layers=(0, 2))


@pytest.fixture(scope="module")
def gemma_style():
    return Recording(GEMMA_STYLE, seed=3)


def serve(model, requests, num_pool_pages=64, tracer=None, **features):
    """``({(key, gen): tokens}, {(key, gen, pos): logits chosen from}, metrics)``."""
    model.chosen_from = {}
    config = EngineConfig(num_pool_pages=num_pool_pages, **features)
    metrics = ServingEngine.from_config(config, model=model, tracer=tracer).run(requests)
    tokens = {(tr.req_id, tr.gen_index): tr.tokens for tr in metrics.traces}
    return tokens, model.chosen_from, metrics


def assert_token_exact(model, requests, tokens):
    """Every generation of every request equals the dense greedy oracle (the
    engine keys requests by arrival order)."""
    expected = {}
    for i, r in enumerate(sorted(requests, key=lambda r: r.arrival)):
        dense = model.greedy_generate_dense(model.prompt(r, i).tolist(), r.output_len)
        expected.update({(i, gen): dense for gen in range(r.n)})
    assert tokens == expected


class TestConfig:
    def test_geometry_and_windows_validated(self):
        with pytest.raises(ValueError, match="head_dim"):
            TinyConfig(hidden_size=64, num_qo_heads=4, head_dim=32)
        with pytest.raises(ValueError, match="multiple"):
            TinyConfig(num_qo_heads=4, num_kv_heads=3, hidden_size=64, head_dim=16)
        with pytest.raises(ValueError, match="sliding_window"):
            TinyConfig(sliding_layers=(0,))
        with pytest.raises(ValueError, match="out of range"):
            TinyConfig(sliding_window=8, sliding_layers=(5,), num_layers=2)

    def test_layer_window_lookup(self, gemma_style):
        c = gemma_style.config
        assert [c.layer_window(layer) for layer in range(4)] == [8, None, 8, None]


class TestDenseOracle:
    def test_logits_shape_and_determinism(self, model):
        logits = model.forward_logits([5, 6, 7])
        assert logits.shape == (3, model.config.vocab_size)
        assert np.array_equal(logits, model.forward_logits([5, 6, 7]))

    def test_causality(self, model):
        """Changing a later token must not change earlier logits."""
        a = model.forward_logits([1, 2, 3, 4])
        b = model.forward_logits([1, 2, 3, 99])
        np.testing.assert_allclose(a[:3], b[:3])
        assert not np.allclose(a[3], b[3])

    def test_window_changes_the_model(self, gemma_style):
        """The windowed model must differ from a plain one past the window."""
        plain = TinyTransformer(TinyConfig(num_layers=4), seed=3)
        tokens = list(range(1, 25))
        a, b = gemma_style.forward_logits(tokens), plain.forward_logits(tokens)
        assert not np.allclose(a[-1], b[-1])


class TestEngineEquivalence:
    def test_prefill_logits_match_dense(self, model):
        request = Request(0.0, 8, 1)
        _, logits, _ = serve(model, [request])
        dense = model.forward_logits(model.prompt(request, 0))
        np.testing.assert_allclose(logits[0, 0, 0], dense[-1], atol=1e-6)

    @pytest.mark.parametrize("prompt_len", [1, 6, 17])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_greedy_matches_dense_on_random_prompts(self, model, seed, prompt_len):
        """Cached decode from any prompt length (a single token, inside a
        page, across pages) reproduces the dense recompute token for token."""
        rid = int(np.random.default_rng(seed).integers(1 << 20))
        requests = [Request(0.0, prompt_len, 8, rid=rid)]
        tokens, _, _ = serve(model, requests)
        assert tokens == {(0, 0): model.greedy_generate_dense(model.prompt(requests[0], rid), 8)}

    def test_chunked_equals_one_shot_prefill(self, model):
        one, l_one, _ = serve(model, [Request(0.0, 23, 4)])
        chunked, l_chunked, _ = serve(model, [Request(0.0, 23, 4)], chunked_prefill=True,
                                      prefill_chunk_size=5)
        assert chunked == one
        np.testing.assert_allclose(l_chunked[0, 0, 0], l_one[0, 0, 0], atol=1e-6)

    def test_batched_decode_matches_solo(self, model):
        """Requests decoded in one batch produce exactly what each produces alone."""
        a, b = Request(0.0, 3, 5), Request(0.0, 5, 5, rid=1)
        solo = [serve(model, [r])[0][0, 0] for r in (a, b)]
        assert serve(model, [a, b])[0] == {(0, 0): solo[0], (1, 0): solo[1]}

    def test_mixed_prefill_decode_step(self, model):
        """A decode stream and a prompt chunk in one step match the oracle."""
        requests = [Request(0.0, 3, 6), Request(1e-4, 20, 3)]
        tracer = StepTracer(capture_kernels=False)
        tokens, _, _ = serve(model, requests, tracer=tracer, chunked_prefill=True,
                             prefill_chunk_size=8)
        assert any(e.num_prefill_tokens and e.num_decode_tokens for e in tracer.events)
        assert_token_exact(model, requests, tokens)

    def test_forks_leave_their_parent_unchanged(self, model):
        """``n=2`` with sampling: the two generations share the prompt's
        pages and diverge; each one's logits at every position must be the
        dense forward of its own history (the parent keeps its pages)."""
        sampled = Recording(seed=0, sampling=SamplingParams(temperature=1.0))
        request = Request(0.0, 20, 6, n=2)
        tokens, logits, _ = serve(sampled, [request])
        assert tokens[0, 0] != tokens[0, 1]
        prompt = sampled.prompt(request, 0).tolist()
        for gen in range(2):
            dense = sampled.forward_logits(prompt + tokens[0, gen][:-1])
            chosen_from = [logits[0, gen, pos] for pos in range(6)]
            np.testing.assert_allclose(chosen_from, dense[len(prompt) - 1:], atol=1e-6)


#: Prompts sharing a 32-token prefix (the radix cache's hits), prompts of
#: their own, and ``n=2`` requests (forks, the cascade's fork groups).
WORKLOAD = [
    Request(i * 5e-4, 40 + 7 * i if i % 2 else 10 + 7 * i, 6, n=1 + (i % 3 == 0),
            prefix_group=0 if i % 2 else None, prefix_len=32 if i % 2 else 0)
    for i in range(8)
]


#: One prompt's 128 parallel generations: on the tiny model's geometry a
#: decode step's cascade prices below its dense plan only where the shared
#: prompt saves this much KV traffic, so this keeps ``⊕`` in the oracle.
WIDE_FORK = Request(4e-3, 800, 2, n=128)


class TestEngineScenarios:
    """Whole engine runs, every token held to the dense oracle."""

    @pytest.mark.parametrize("windowed, features", [
        (False, dict(chunked_prefill=True, prefill_chunk_size=16)),
        (False, dict(chunked_prefill=True, prefill_chunk_size=7)),
        (False, dict(composable=True, prefix_cache=True)),
        (True, dict(chunked_prefill=True, prefill_chunk_size=16, composable=True,
                    prefix_cache=True)),
    ], ids=["chunk-16", "chunk-7", "prefix-cache-cascade", "gemma-style-cascade"])
    def test_token_exact(self, model, gemma_style, windowed, features):
        model = gemma_style if windowed else model
        cascade = features.get("composable", False)
        requests = WORKLOAD + ([WIDE_FORK] if cascade else [])
        tokens, _, metrics = serve(model, requests, 256 if cascade else 64, **features)
        if cascade:  # a chosen cascade step: its formats ran and merged by ⊕
            assert metrics.radix_hit_tokens and metrics.cascade_steps
        assert_token_exact(model, requests, tokens)

    def test_preemption_recomputes_the_history(self, model):
        requests = [Request(i * 1e-4, 40, 30) for i in range(6)]
        tokens, _, metrics = serve(model, requests, num_pool_pages=14)
        assert metrics.preemptions
        assert_token_exact(model, requests, tokens)


def test_numerics_refuses_what_it_cannot_compute(model):
    for features, kwargs in [(dict(tensor_parallel=2), {}), ({}, dict(fault_plan=FaultPlan())),
                             ({}, dict(backend_factory=TritonBackend))]:
        with pytest.raises(ValueError, match="computes tokens"):
            ServingEngine.from_config(EngineConfig(**features), model=model, **kwargs)

"""End-to-end model tests: the attention engine serving a real transformer."""

import numpy as np
import pytest

from repro.models import GenerationSession, TinyConfig, TinyTransformer


@pytest.fixture(scope="module")
def model():
    return TinyTransformer(TinyConfig(), seed=0)


class TestConfig:
    def test_head_geometry_validated(self):
        with pytest.raises(ValueError, match="head_dim"):
            TinyConfig(hidden_size=64, num_qo_heads=4, head_dim=32)
        with pytest.raises(ValueError, match="multiple"):
            TinyConfig(num_qo_heads=4, num_kv_heads=3, hidden_size=64, head_dim=16)


class TestDenseOracle:
    def test_logits_shape(self, model):
        logits = model.forward_logits([1, 2, 3])
        assert logits.shape == (3, model.config.vocab_size)

    def test_deterministic(self, model):
        a = model.forward_logits([5, 6, 7])
        b = model.forward_logits([5, 6, 7])
        assert np.array_equal(a, b)

    def test_causality(self, model):
        """Changing a later token must not change earlier logits."""
        a = model.forward_logits([1, 2, 3, 4])
        b = model.forward_logits([1, 2, 3, 99])
        np.testing.assert_allclose(a[:3], b[:3])
        assert not np.allclose(a[3], b[3])


class TestPagedEquivalence:
    def test_prefill_logits_match_dense(self, model):
        prompt = [3, 1, 4, 1, 5, 9, 2, 6]
        sess = GenerationSession(model)
        sid = sess.new_sequence()
        logits = sess.step([sid], [prompt])
        dense = model.forward_logits(prompt)
        np.testing.assert_allclose(logits[0], dense[-1], atol=1e-6)

    def test_greedy_generation_token_exact(self, model):
        prompt = [1, 5, 9, 33, 17]
        dense = model.greedy_generate_dense(prompt, 10)
        paged = GenerationSession(model).greedy_generate(prompt, 10)
        assert dense == paged

    @pytest.mark.parametrize("prompt_len", [1, 6, 17])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_greedy_matches_dense_on_random_prompts(self, model, seed, prompt_len):
        """Cached decode from any prompt length (a single token, inside a
        page, across pages) reproduces the dense recompute token for token."""
        rng = np.random.default_rng(seed)
        prompt = rng.integers(0, model.config.vocab_size, prompt_len).tolist()
        dense = model.greedy_generate_dense(prompt, 8)
        assert GenerationSession(model).greedy_generate(prompt, 8) == dense

    def test_incremental_equals_one_shot_prefill(self, model):
        """Feeding a prompt in two chunks (chunked prefill) must match
        one-shot prefill exactly."""
        prompt = [7, 8, 9, 10, 11, 12, 13]
        one = GenerationSession(model)
        s1 = one.new_sequence()
        logits_one = one.step([s1], [prompt])

        two = GenerationSession(model)
        s2 = two.new_sequence()
        two.step([s2], [prompt[:4]])
        logits_two = two.step([s2], [prompt[4:]])
        np.testing.assert_allclose(logits_one, logits_two, atol=1e-6)

    def test_batched_decode_matches_solo(self, model):
        """Two sequences decoded in one batch produce exactly what each
        produces alone."""
        pa, pb = [1, 2, 3], [40, 41, 42, 43, 44]
        solo_a = GenerationSession(model).greedy_generate(pa, 5)
        solo_b = GenerationSession(model).greedy_generate(pb, 5)

        sess = GenerationSession(model)
        sa, sb = sess.new_sequence(), sess.new_sequence()
        logits = sess.step([sa, sb], [pa, pb])
        toks = [int(np.argmax(logits[0])), int(np.argmax(logits[1]))]
        outs = {sa: [toks[0]], sb: [toks[1]]}
        for _ in range(4):
            logits = sess.step([sa, sb], [[outs[sa][-1]], [outs[sb][-1]]])
            outs[sa].append(int(np.argmax(logits[0])))
            outs[sb].append(int(np.argmax(logits[1])))
        assert outs[sa] == solo_a
        assert outs[sb] == solo_b

    def test_mixed_prefill_decode_batch(self, model):
        """A decode stream and a fresh prefill in one step (chunked-prefill
        style) must match their isolated results."""
        sess = GenerationSession(model)
        a = sess.new_sequence()
        la = sess.step([a], [[1, 2, 3]])
        b = sess.new_sequence()
        tok_a = int(np.argmax(la[0]))
        logits = sess.step([a, b], [[tok_a], [50, 51, 52, 53]])

        ref_a = model.forward_logits([1, 2, 3, tok_a])[-1]
        ref_b = model.forward_logits([50, 51, 52, 53])[-1]
        np.testing.assert_allclose(logits[0], ref_a, atol=1e-6)
        np.testing.assert_allclose(logits[1], ref_b, atol=1e-6)


class TestForking:
    def test_forked_sequences_diverge_correctly(self, model):
        """Fork after prefill; each fork continues with different tokens and
        must match a dense forward of its own token history."""
        prompt = [9, 8, 7, 6]
        sess = GenerationSession(model)
        root = sess.new_sequence()
        sess.step([root], [prompt])
        fork = sess.fork_sequence(root)

        la = sess.step([root], [[100]])
        lb = sess.step([fork], [[101]])
        np.testing.assert_allclose(
            la[0], model.forward_logits(prompt + [100])[-1], atol=1e-6
        )
        np.testing.assert_allclose(
            lb[0], model.forward_logits(prompt + [101])[-1], atol=1e-6
        )

    def test_fork_preserves_parent(self, model):
        prompt = [2, 4, 6]
        sess = GenerationSession(model)
        root = sess.new_sequence()
        sess.step([root], [prompt])
        sess.fork_sequence(root)
        logits = sess.step([root], [[10]])
        np.testing.assert_allclose(
            logits[0], model.forward_logits(prompt + [10])[-1], atol=1e-6
        )


class TestValidation:
    def test_empty_token_list_rejected(self, model):
        sess = GenerationSession(model)
        sid = sess.new_sequence()
        with pytest.raises(ValueError, match="at least one token"):
            sess.step([sid], [[]])


class TestMixedAttentionLayers:
    """Gemma-2-style models: alternating sliding-window / full layers served
    with per-layer JIT variants."""

    @pytest.fixture(scope="class")
    def gemma_style(self):
        cfg = TinyConfig(num_layers=4, sliding_window=8, sliding_layers=(0, 2))
        return TinyTransformer(cfg, seed=3)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="sliding_window"):
            TinyConfig(sliding_layers=(0,))
        with pytest.raises(ValueError, match="out of range"):
            TinyConfig(sliding_window=8, sliding_layers=(5,), num_layers=2)

    def test_layer_window_lookup(self, gemma_style):
        c = gemma_style.config
        assert c.layer_window(0) == 8
        assert c.layer_window(1) is None
        assert c.layer_window(2) == 8

    def test_window_changes_the_model(self, gemma_style):
        """The windowed model must differ from a plain one past the window."""
        plain = TinyTransformer(
            TinyConfig(num_layers=4), seed=3
        )
        tokens = list(range(1, 25))
        a = gemma_style.forward_logits(tokens)
        b = plain.forward_logits(tokens)
        assert not np.allclose(a[-1], b[-1])

    def test_generation_token_exact(self, gemma_style):
        prompt = [9, 8, 7, 6, 5, 4, 3, 2, 1, 9, 8, 7]
        dense = gemma_style.greedy_generate_dense(prompt, 10)
        paged = GenerationSession(gemma_style).greedy_generate(prompt, 10)
        assert dense == paged

    def test_wrapper_pairs_shared_per_variant(self, gemma_style):
        sess = GenerationSession(gemma_style)
        # Layers 0 and 2 (windowed) share a pair; layers 1 and 3 share one.
        assert sess._layer_wrappers[0] is sess._layer_wrappers[2]
        assert sess._layer_wrappers[1] is sess._layer_wrappers[3]
        assert sess._layer_wrappers[0] is not sess._layer_wrappers[1]

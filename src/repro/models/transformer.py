"""A numerically real decoder-only transformer served by the engine.

A Llama-style model (RMSNorm → GQA attention with RoPE → SwiGLU MLP) with
one layer loop, :meth:`TinyTransformer.forward`, taking its attention as a
callback: dense causal attention for the no-cache oracle
(:meth:`~TinyTransformer.forward_logits`), or — when
:class:`repro.serving.ServingEngine` is handed the model — the stacks its
backend planned for the step, run over the engine's materialized paged
cache.  ``tests/test_models_transformer.py`` pins token-exact equivalence.

Weights are randomly initialized (there is no pretrained checkpoint in
this reproduction); what is being validated is the *engine*, end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core.kernels import reference_attention
from repro.core.variant import VANILLA
from repro.models.sampling import SamplingParams, sample_token
from repro.serving.batching import prompt_token_ids
from repro.serving.model import ModelConfig
from repro.utils.dtypes import StorageDType
from repro.utils.rng import new_rng
from repro.variants import make_sliding_window
from repro.variants.rope import apply_rope


@dataclass(frozen=True)
class TinyConfig(ModelConfig):
    """The toy model: :class:`ModelConfig`'s geometry at toy sizes (the
    engine prices it like any other model), plus what only a model with
    weights needs.

    ``sliding_window``/``sliding_layers`` turn selected layers into
    sliding-window attention (Gemma-2's alternating local/global pattern),
    exercising per-layer attention variants through the serving path.
    """

    name: str = "tiny"
    num_layers: int = 2
    hidden_size: int = 64
    num_qo_heads: int = 4
    num_kv_heads: int = 2
    head_dim: int = 16
    intermediate_size: int = 128
    vocab_size: int = 128
    rope_theta: float = 10000.0
    rms_eps: float = 1e-6
    sliding_window: "int | None" = None
    sliding_layers: "tuple | None" = None

    def __post_init__(self) -> None:
        if self.num_qo_heads * self.head_dim != self.hidden_size:
            raise ValueError("num_qo_heads * head_dim must equal hidden_size")
        if self.num_qo_heads % self.num_kv_heads != 0:
            raise ValueError("num_qo_heads must be a multiple of num_kv_heads")
        if self.sliding_layers and self.sliding_window is None:
            raise ValueError("sliding_layers requires a sliding_window")
        if self.sliding_layers:
            bad = [l for l in self.sliding_layers if not 0 <= l < self.num_layers]
            if bad:
                raise ValueError(f"sliding_layers out of range: {bad}")

    def layer_window(self, layer: int) -> "int | None":
        """The sliding window applying to ``layer`` (None = full causal)."""
        if self.sliding_layers and layer in self.sliding_layers:
            return self.sliding_window
        return None


def _rms_norm(x: np.ndarray, weight: np.ndarray, eps: float) -> np.ndarray:
    var = np.mean(x * x, axis=-1, keepdims=True)
    return x / np.sqrt(var + eps) * weight


def _dense_layer_attention(q, k, v, window):
    """Dense causal attention, optionally with a sliding window (oracle)."""
    if window is None:
        return reference_attention(q, k, v, causal=True)
    n = q.shape[0]
    h_qo, h_kv = q.shape[1], k.shape[1]
    g = h_qo // h_kv
    pos = np.arange(n)
    keep = (pos[:, None] >= pos[None, :]) & ((pos[:, None] - pos[None, :]) < window)
    d = q.shape[2]
    out = np.zeros_like(q)
    for h in range(h_qo):
        s = (q[:, h] @ k[:, h // g].T) / np.sqrt(d)
        s = np.where(keep, s, -np.inf)
        m = s.max(axis=1, keepdims=True)
        p = np.exp(s - m)
        out[:, h] = (p / p.sum(axis=1, keepdims=True)) @ v[:, h // g]
    return out


class TinyTransformer:
    """Randomly initialized decoder-only transformer."""

    #: KV storage precision when the engine serves the model: fp32 keeps
    #: the engine bit-comparable to the dense oracle.
    kv_dtype = StorageDType.FP32

    def __init__(
        self, config: TinyConfig = TinyConfig(), seed: int = 0,
        sampling: Optional[SamplingParams] = None,
    ):
        self.config = config
        #: Seeds the weights and, with ``sampling``, every draw of :meth:`next_token`.
        self.seed = seed
        #: ``None`` decodes greedily.
        self.sampling = sampling
        rng = new_rng(seed)
        c = config
        s = 1.0 / np.sqrt(c.hidden_size)
        self.weights: Dict[str, np.ndarray] = {
            "embed": rng.standard_normal((c.vocab_size, c.hidden_size)) * s,
            "lm_head": rng.standard_normal((c.hidden_size, c.vocab_size)) * s,
            "final_norm": np.ones(c.hidden_size),
        }
        kv_out = c.num_kv_heads * c.head_dim
        for layer in range(c.num_layers):
            p = f"l{layer}."
            self.weights[p + "attn_norm"] = np.ones(c.hidden_size)
            self.weights[p + "wq"] = rng.standard_normal((c.hidden_size, c.hidden_size)) * s
            self.weights[p + "wk"] = rng.standard_normal((c.hidden_size, kv_out)) * s
            self.weights[p + "wv"] = rng.standard_normal((c.hidden_size, kv_out)) * s
            self.weights[p + "wo"] = rng.standard_normal((c.hidden_size, c.hidden_size)) * s
            self.weights[p + "mlp_norm"] = np.ones(c.hidden_size)
            self.weights[p + "w_gate"] = rng.standard_normal((c.hidden_size, c.intermediate_size)) * s
            self.weights[p + "w_up"] = rng.standard_normal((c.hidden_size, c.intermediate_size)) * s
            self.weights[p + "w_down"] = rng.standard_normal((c.intermediate_size, c.hidden_size)) * s
        #: Each layer's attention variant.  Equal windows make equal
        #: variants, so the engine plans one stack per distinct one.
        self.layer_variants = [
            VANILLA if w is None else make_sliding_window(w)
            for w in map(c.layer_window, range(c.num_layers))
        ]

    def forward(self, tokens: np.ndarray, positions: np.ndarray, attend: Callable) -> np.ndarray:
        """The layer loop over rows ``tokens`` at ``positions``: the hidden
        states before the final norm.

        ``attend(layer, q, k, v)`` returns the layer's attention output
        ``(rows, Hq, D)`` for these rows' rotated ``q`` ``(rows, Hq, D)``
        and ``k``/``v`` ``(rows, Hkv, D)``.
        """
        c, w = self.config, self.weights
        n = len(tokens)
        h = w["embed"][tokens]
        for layer in range(c.num_layers):
            p = f"l{layer}."
            x = _rms_norm(h, w[p + "attn_norm"], c.rms_eps)
            q = (x @ w[p + "wq"]).reshape(n, c.num_qo_heads, c.head_dim)
            k = (x @ w[p + "wk"]).reshape(n, c.num_kv_heads, c.head_dim)
            v = (x @ w[p + "wv"]).reshape(n, c.num_kv_heads, c.head_dim)
            for rotated in (q, k):
                for head in range(rotated.shape[1]):
                    rotated[:, head] = apply_rope(rotated[:, head], positions, c.rope_theta)
            h = h + attend(layer, q, k, v).reshape(n, -1) @ w[p + "wo"]
            x = _rms_norm(h, w[p + "mlp_norm"], c.rms_eps)
            gate = x @ w[p + "w_gate"]
            h = h + (gate / (1.0 + np.exp(-gate)) * (x @ w[p + "w_up"])) @ w[p + "w_down"]  # SwiGLU
        return h

    def logits(self, h: np.ndarray) -> np.ndarray:
        """``(rows, vocab)`` logits of :meth:`forward`'s hidden states."""
        w = self.weights
        return _rms_norm(h, w["final_norm"], self.config.rms_eps) @ w["lm_head"]

    def prompt(self, request, key: int) -> np.ndarray:
        """``request``'s prompt in this model's vocabulary: the engine's
        prompt token ids (``key`` is the request's token key) modulo it."""
        ids = prompt_token_ids(request.prefix_group, request.prefix_len, key, request.prompt_len)
        return ids % self.config.vocab_size

    def next_token(self, logits: np.ndarray, key: int, gen: int, pos: int) -> int:
        """The token generation ``gen`` of request ``key`` emits at output
        position ``pos`` from its last row's ``logits``: the argmax, or with
        ``sampling`` a draw seeded by ``(seed, key, gen, pos)`` alone, so no
        scheduling decision can change it."""
        if self.sampling is None:
            return int(np.argmax(logits))
        rng = np.random.default_rng((self.seed, key, gen, pos))
        return sample_token(logits, self.sampling, rng)

    # -- dense oracle ------------------------------------------------------------

    def forward_logits(self, tokens: Sequence[int]) -> np.ndarray:
        """No-cache full forward pass: ``(len(tokens), vocab)`` logits."""
        tokens = np.asarray(tokens, dtype=np.int64)
        window = self.config.layer_window
        return self.logits(self.forward(
            tokens, np.arange(tokens.size),
            lambda layer, q, k, v: _dense_layer_attention(q, k, v, window(layer)),
        ))

    def greedy_generate_dense(self, prompt: Sequence[int], num_tokens: int) -> List[int]:
        """Oracle generation: recompute the full forward pass every step."""
        tokens = list(prompt)
        out = []
        for _ in range(num_tokens):
            logits = self.forward_logits(tokens)
            nxt = int(np.argmax(logits[-1]))
            out.append(nxt)
            tokens.append(nxt)
        return out

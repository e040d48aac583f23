"""A numerically real decoder-only transformer over the attention engine.

This is the full-stack integration the attention engine exists to serve: a
Llama-style model (RMSNorm → GQA attention with RoPE → SwiGLU MLP) whose
attention runs through :class:`~repro.core.BatchAttentionWrapper` over a
:class:`~repro.kvcache.PagedKVCache` — paged incremental decoding, prefix
forking, the whole serving path — with a dense no-cache forward pass as
the oracle.  ``tests/test_models_transformer.py`` pins token-exact
equivalence between the two.

Weights are randomly initialized (there is no pretrained checkpoint in
this reproduction); what is being validated is the *engine*, end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.core.kernels import HeadConfig
from repro.core.variant import VANILLA
from repro.core.wrapper import BatchAttentionWrapper
from repro.gpu.spec import A100_40G, GPUSpec
from repro.gpu.workspace import WorkspaceBuffer
from repro.kvcache.paged import PagedKVCache
from repro.sparse.layout import AttentionMapping
from repro.utils.dtypes import StorageDType
from repro.utils.rng import SeedLike, new_rng
from repro.variants.rope import apply_rope


@dataclass(frozen=True)
class TinyConfig:
    """Geometry of the toy model (Llama-style).

    ``sliding_window``/``sliding_layers`` turn selected layers into
    sliding-window attention (Gemma-2's alternating local/global pattern),
    exercising per-layer attention variants through the serving path.
    """

    vocab_size: int = 128
    hidden_size: int = 64
    num_layers: int = 2
    num_qo_heads: int = 4
    num_kv_heads: int = 2
    head_dim: int = 16
    intermediate_size: int = 128
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

    @property
    def heads(self) -> HeadConfig:
        return HeadConfig(self.num_qo_heads, self.num_kv_heads, self.head_dim)


def _rms_norm(x: np.ndarray, weight: np.ndarray, eps: float) -> np.ndarray:
    var = np.mean(x * x, axis=-1, keepdims=True)
    return x / np.sqrt(var + eps) * weight


def _silu(x: np.ndarray) -> np.ndarray:
    return x / (1.0 + np.exp(-x))


def _dense_layer_attention(q, k, v, window):
    """Dense causal attention, optionally with a sliding window (oracle)."""
    from repro.core.kernels import reference_attention

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

    def __init__(self, config: TinyConfig = TinyConfig(), seed: SeedLike = 0):
        self.config = config
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

    # -- shared layer math ---------------------------------------------------

    def _qkv(self, layer: int, h_norm: np.ndarray, positions: np.ndarray):
        """Project and rotate: returns q (n, Hq, D) and k/v (n, Hkv, D)."""
        c = self.config
        p = f"l{layer}."
        n = h_norm.shape[0]
        q = (h_norm @ self.weights[p + "wq"]).reshape(n, c.num_qo_heads, c.head_dim)
        k = (h_norm @ self.weights[p + "wk"]).reshape(n, c.num_kv_heads, c.head_dim)
        v = (h_norm @ self.weights[p + "wv"]).reshape(n, c.num_kv_heads, c.head_dim)
        for h in range(c.num_qo_heads):
            q[:, h] = apply_rope(q[:, h], positions, c.rope_theta)
        for h in range(c.num_kv_heads):
            k[:, h] = apply_rope(k[:, h], positions, c.rope_theta)
        return q, k, v

    def _mlp(self, layer: int, h: np.ndarray) -> np.ndarray:
        p = f"l{layer}."
        gated = _silu(h @ self.weights[p + "w_gate"]) * (h @ self.weights[p + "w_up"])
        return gated @ self.weights[p + "w_down"]

    # -- dense oracle ------------------------------------------------------------

    def forward_logits(self, tokens: Sequence[int]) -> np.ndarray:
        """No-cache full forward pass: ``(len(tokens), vocab)`` logits."""
        c = self.config
        tokens = np.asarray(tokens, dtype=np.int64)
        h = self.weights["embed"][tokens]
        positions = np.arange(tokens.size)
        for layer in range(c.num_layers):
            p = f"l{layer}."
            h_norm = _rms_norm(h, self.weights[p + "attn_norm"], c.rms_eps)
            q, k, v = self._qkv(layer, h_norm, positions)
            window = c.layer_window(layer)
            attn = _dense_layer_attention(q, k, v, window)
            h = h + attn.reshape(tokens.size, -1) @ self.weights[p + "wo"]
            h_norm = _rms_norm(h, self.weights[p + "mlp_norm"], c.rms_eps)
            h = h + self._mlp(layer, h_norm)
        h = _rms_norm(h, self.weights["final_norm"], c.rms_eps)
        return h @ self.weights["lm_head"]

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


class GenerationSession:
    """Batched paged-cache generation through the attention engine.

    One prefill/decode wrapper pair serves every layer and every sequence;
    plans are made per step and reused across layers, exactly like the
    serving integration of paper §3.4.
    """

    def __init__(
        self,
        model: TinyTransformer,
        num_pages: int = 512,
        page_size: int = 8,
        gpu: GPUSpec = A100_40G,
        max_batch_size: int = 16,
    ):
        self.model = model
        c = model.config
        self.cache = [
            PagedKVCache(num_pages, page_size, c.num_kv_heads, c.head_dim)
            for _ in range(c.num_layers)
        ]
        ws = WorkspaceBuffer(128 * 1024 * 1024)
        # fp32 storage keeps the engine bit-comparable to the dense oracle.
        common = dict(
            gpu=gpu, kv_dtype=StorageDType.FP32,
            max_batch_size=max_batch_size, max_total_qo=max_batch_size * 4096,
        )
        # One (prefill, decode) wrapper pair per distinct layer variant:
        # full-causal layers share a pair; sliding-window layers get their
        # own JIT-specialized kernels (Gemma-2-style mixed models).
        from repro.variants import make_sliding_window

        def variant_for(layer: int):
            window = c.layer_window(layer)
            return (window, make_sliding_window(window)) if window else (None, VANILLA)

        self._layer_wrappers = []
        pair_cache = {}
        uid = 0
        for layer in range(c.num_layers):
            key, variant = variant_for(layer)
            if key not in pair_cache:
                pair_cache[key] = (
                    BatchAttentionWrapper(
                        variant, c.heads, ws, avg_qo_len=128.0,
                        name=f"model_prefill_{uid}", **common,
                    ),
                    BatchAttentionWrapper(
                        variant, c.heads, ws, avg_qo_len=1.0,
                        name=f"model_decode_{uid}", **common,
                    ),
                )
                uid += 1
            self._layer_wrappers.append(pair_cache[key])
        self.seqs: List[List[int]] = []  # per-sequence cache seq ids by layer
        self.lengths: List[int] = []

    # -- sequence management ----------------------------------------------------

    def new_sequence(self) -> int:
        sid = len(self.seqs)
        self.seqs.append([cache.new_seq() for cache in self.cache])
        self.lengths.append(0)
        return sid

    def fork_sequence(self, sid: int) -> int:
        """Fork a sequence's KV pages in every layer (parallel generation)."""
        new_id = len(self.seqs)
        self.seqs.append(
            [cache.fork_seq(layer_sid) for cache, layer_sid in zip(self.cache, self.seqs[sid])]
        )
        self.lengths.append(self.lengths[sid])
        return new_id

    # -- forward ------------------------------------------------------------------

    def _attention(self, layer, q, decode, seq_ids, qo_lens):
        wrapper = self._layer_wrappers[layer][1 if decode else 0]
        cache = self.cache[layer]
        layer_seqs = [self.seqs[s][layer] for s in seq_ids]
        mapping = AttentionMapping(
            np.concatenate([[0], np.cumsum(qo_lens)]).astype(np.int64),
            cache.layout(layer_seqs),
            causal=True,
        )
        wrapper.plan(mapping)
        out, _, _ = wrapper.run(q, cache.k_pool, cache.v_pool)
        return out

    def step(self, seq_ids: Sequence[int], token_lists: Sequence[Sequence[int]]) -> np.ndarray:
        """Feed ``token_lists[i]`` to sequence ``seq_ids[i]``; return the
        last-position logits per sequence ``(batch, vocab)``.

        Handles both prefill (many tokens) and decode (one token) — and
        mixed batches, the chunked-prefill case.
        """
        h, qo_lens = self._forward(seq_ids, token_lists)
        h = _rms_norm(h, self.model.weights["final_norm"], self.model.config.rms_eps)
        last_rows = np.cumsum(qo_lens) - 1
        return h[last_rows] @ self.model.weights["lm_head"]

    def _forward(self, seq_ids: Sequence[int], token_lists: Sequence[Sequence[int]]):
        """Shared transformer stack: returns pre-final-norm hidden states
        for every fed position plus the per-sequence token counts."""
        m, c = self.model, self.model.config
        qo_lens = [len(t) for t in token_lists]
        if any(l == 0 for l in qo_lens):
            raise ValueError("every sequence must receive at least one token")
        flat_tokens = np.concatenate([np.asarray(t, dtype=np.int64) for t in token_lists])
        positions = np.concatenate(
            [self.lengths[s] + np.arange(l) for s, l in zip(seq_ids, qo_lens)]
        )
        h = m.weights["embed"][flat_tokens]
        decode = max(qo_lens) == 1

        for layer in range(c.num_layers):
            p = f"l{layer}."
            h_norm = _rms_norm(h, m.weights[p + "attn_norm"], c.rms_eps)
            q, k, v = m._qkv(layer, h_norm, positions)
            # Append this step's K/V, then attend over the full cache.
            offset = 0
            for s, l in zip(seq_ids, qo_lens):
                self.cache[layer].append(self.seqs[s][layer], k[offset : offset + l],
                                         v[offset : offset + l])
                offset += l
            attn = self._attention(layer, q, decode, seq_ids, qo_lens)
            h = h + attn.reshape(h.shape[0], -1) @ m.weights[p + "wo"]
            h_norm = _rms_norm(h, m.weights[p + "mlp_norm"], c.rms_eps)
            h = h + m._mlp(layer, h_norm)

        for s, l in zip(seq_ids, qo_lens):
            self.lengths[s] += l
        return h, qo_lens

    def greedy_generate(self, prompt: Sequence[int], num_tokens: int) -> List[int]:
        """Single-sequence greedy decoding through the paged engine."""
        sid = self.new_sequence()
        logits = self.step([sid], [list(prompt)])
        out = [int(np.argmax(logits[0]))]
        for _ in range(num_tokens - 1):
            logits = self.step([sid], [[out[-1]]])
            out.append(int(np.argmax(logits[0])))
        return out

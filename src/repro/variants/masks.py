"""Mask-style attention variants: sliding window, custom masks.

These use only the ``logits_mask`` functor (paper §3.2.3: "custom mask ...
and sliding window attention"); the kernel skeleton is untouched and the
mask is evaluated on absolute positions, so KV chunking and composable
formats remain correct.
"""

from __future__ import annotations

import numpy as np

from repro.core.variant import AttentionVariant, ParamDecl


def make_sliding_window(window: int) -> AttentionVariant:
    """Longformer-style sliding window: attend to the last ``window`` keys.

    Combined with the structural causal mask by the kernel; a key at
    position ``p_k`` is visible from query position ``p_q`` iff
    ``p_q - p_k < window``.  The window is the variant's ``look_back``, so
    the wrapper neither plans nor gathers the KV pages it hides.
    """
    if window <= 0:
        raise ValueError("window must be positive")
    return AttentionVariant(
        name="sliding_window",
        params=(ParamDecl("window", default=window),),
        logits_mask="(q_pos - kv_pos) < params.window",
        look_back="window",
    )


def make_attention_sink(num_sinks: int, window: int) -> AttentionVariant:
    """StreamingLLM visibility: the first ``num_sinks`` positions plus a
    recent window (Xiao et al. 2023).  Used when the full KV is retained;
    the rolling-cache deployment instead evicts KV (see
    :mod:`repro.kvcache.streaming`).  The sinks keep the oldest positions
    visible, so the variant declares no ``look_back``."""
    if num_sinks < 0 or window <= 0:
        raise ValueError("num_sinks must be >= 0 and window > 0")
    return AttentionVariant(
        name="attention_sink",
        params=(
            ParamDecl("num_sinks", default=num_sinks),
            ParamDecl("window", default=window),
        ),
        logits_mask="(kv_pos < params.num_sinks) | ((q_pos - kv_pos) < params.window)",
    )


#: Arbitrary boolean mask supplied as a tensor parameter, indexed by
#: absolute positions — the path used for tree attention in speculative
#: decoding and Quest-style importance masks.
CUSTOM_MASK = AttentionVariant(
    name="custom_mask",
    params=(ParamDecl("mask"),),
    logits_mask="params.mask[q_pos, kv_pos]",
)


def make_custom_mask(mask: np.ndarray) -> AttentionVariant:
    """``CUSTOM_MASK`` with a default-bound mask tensor."""
    mask = np.asarray(mask, dtype=bool)
    return AttentionVariant(
        name="custom_mask",
        params=(ParamDecl("mask", default=mask),),
        logits_mask="params.mask[q_pos, kv_pos]",
    )


def tree_attention_mask(parents, context_len: int = 0) -> np.ndarray:
    """Build the speculative tree-decoding mask (Medusa/SpecInfer-style).

    ``parents[i]`` is the parent draft-token index of node ``i`` (or -1 for
    roots).  Draft token ``i`` may attend the full committed context (the
    first ``context_len`` KV positions) plus itself and its ancestors.
    Returns a boolean ``(n, context_len + n)`` mask usable with
    :func:`make_custom_mask` (after embedding it at absolute positions) or
    with :func:`make_tree_attention`.
    """
    parents = [int(p) for p in parents]
    n = len(parents)
    mask = np.zeros((n, context_len + n), dtype=bool)
    mask[:, :context_len] = True
    for i, p in enumerate(parents):
        if not -1 <= p < n:
            raise ValueError(f"node {i}: parent {p} out of range")
        mask[i, context_len + i] = True
        while p != -1:
            mask[i, context_len + p] = True
            p = parents[p]
    return mask


def make_tree_attention(parents, context_len: int) -> AttentionVariant:
    """Tree attention for speculative decoding (paper §3.1.1's "Tree
    Attentions used in speculative decoding" unified under sparse masks).

    The variant masks draft-token queries to their ancestor paths; the KV
    layout (context pages + draft tokens) is whatever the cache manager
    provides.  Positions are absolute: query ``i`` of the tree sits at
    ``context_len + i``.
    """
    mask = tree_attention_mask(parents, context_len)
    return AttentionVariant(
        name="tree_attention",
        params=(
            ParamDecl("tree_mask", default=mask),
            ParamDecl("context_len", default=context_len),
        ),
        logits_mask="params.tree_mask[q_pos - params.context_len, kv_pos]",
    )

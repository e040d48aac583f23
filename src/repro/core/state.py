"""Attention states and the ``⊕`` composition operator (paper §2.2).

An *attention state* over an index set ``I`` is the pair
``(O(I), LSE(I))`` of the attention output and the log-sum-exp of the
attention scores.  States over disjoint index sets compose::

    (O, LSE)(I ∪ J) = (O, LSE)(I) ⊕ (O, LSE)(J)

with ``⊕`` associative and commutative, which is what lets FlashInfer split
long KVs into chunks, compute partial states anywhere, and contract them in
a planned (deterministic) order.  FlashInfer adopts the attention state as
the canonical output of every attention kernel and ``⊕`` as the standard
reduction (the analog of ``+`` in GEMM split-K).

States are stored head-major: ``o`` has shape ``(..., head_dim)`` and
``lse`` the matching ``(...)`` batch shape.  An empty state (no keys seen)
has ``lse = -inf`` and ``o = 0`` — the identity element of ``⊕``.

For non-softmax variants (e.g. FlashSigmoid), outputs compose by plain
addition; see :func:`merge_states_sum`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np


@dataclass
class AttentionState:
    """A (possibly batched) attention state ``(O, LSE)``.

    ``o``: float array ``(..., head_dim)``; ``lse``: float array ``(...)``.
    """

    o: np.ndarray
    lse: np.ndarray

    def __post_init__(self) -> None:
        self.o = np.asarray(self.o, dtype=np.float64)
        self.lse = np.asarray(self.lse, dtype=np.float64)
        if self.o.shape[:-1] != self.lse.shape:
            raise ValueError(
                f"o batch shape {self.o.shape[:-1]} != lse shape {self.lse.shape}"
            )

    def merge(self, other: "AttentionState") -> "AttentionState":
        """``self ⊕ other`` (associative, commutative, numerically safe)."""
        o, lse = merge_states(self.o, self.lse, other.o, other.lse)
        return AttentionState(o, lse)

    def __matmul__(self, other: "AttentionState") -> "AttentionState":
        return self.merge(other)


def merge_states(
    o_a: np.ndarray, lse_a: np.ndarray, o_b: np.ndarray, lse_b: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The ``⊕`` operator on raw arrays (vectorized over batch dims).

    Uses the max-shifted form for numerical safety::

        m   = max(lse_a, lse_b)
        w_x = exp(lse_x - m)
        O   = (w_a · O_a + w_b · O_b) / (w_a + w_b)
        LSE = m + log(w_a + w_b)

    ``lse = -inf`` (empty set) is the identity and propagates correctly.
    """
    o_a = np.asarray(o_a, dtype=np.float64)
    o_b = np.asarray(o_b, dtype=np.float64)
    lse_a = np.asarray(lse_a, dtype=np.float64)
    lse_b = np.asarray(lse_b, dtype=np.float64)

    m = np.maximum(lse_a, lse_b)
    # Where both sides are empty the result is empty; avoid NaN from -inf - -inf.
    both_empty = np.isneginf(m)
    m_safe = np.where(both_empty, 0.0, m)
    with np.errstate(invalid="ignore"):
        w_a = np.exp(np.where(np.isneginf(lse_a), -np.inf, lse_a - m_safe))
        w_b = np.exp(np.where(np.isneginf(lse_b), -np.inf, lse_b - m_safe))
    w_sum = w_a + w_b
    denom = np.where(w_sum == 0.0, 1.0, w_sum)
    o = (w_a[..., None] * o_a + w_b[..., None] * o_b) / denom[..., None]
    with np.errstate(divide="ignore"):
        lse = np.where(both_empty, -np.inf, m_safe + np.log(denom))
    return o, lse


def merge_states_sum(o_a: np.ndarray, o_b: np.ndarray) -> np.ndarray:
    """Composition for variants without softmax: plain output addition."""
    return np.asarray(o_a, dtype=np.float64) + np.asarray(o_b, dtype=np.float64)


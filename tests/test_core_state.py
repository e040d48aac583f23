"""Tests for attention states and the ⊕ operator (paper §2.2)."""

from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AttentionState, merge_states, merge_states_sum


def empty_state(batch_shape, head_dim):
    """The state over no keys: zero output, ``-inf`` LSE (the ⊕ identity)."""
    return AttentionState(np.zeros(batch_shape + (head_dim,)), np.full(batch_shape, -np.inf))


def state_of(q, k, v):
    """Direct (O, LSE) of softmax attention for one query over (k, v)."""
    s = k @ q
    lse = np.log(np.exp(s).sum())
    o = (np.exp(s - lse) @ v)
    return o, lse


class TestMergeCorrectness:
    def test_merge_equals_joint_computation(self, rng):
        d = 8
        q = rng.standard_normal(d)
        k = rng.standard_normal((10, d))
        v = rng.standard_normal((10, d))
        o_a, lse_a = state_of(q, k[:4], v[:4])
        o_b, lse_b = state_of(q, k[4:], v[4:])
        o, lse = merge_states(o_a, lse_a, o_b, lse_b)
        o_ref, lse_ref = state_of(q, k, v)
        assert np.allclose(o, o_ref)
        assert np.isclose(lse, lse_ref)

    def test_identity_element(self, rng):
        st_ = AttentionState(rng.standard_normal((3, 8)), rng.standard_normal(3))
        ident = empty_state((3,), 8)
        merged = st_.merge(ident)
        assert np.allclose(merged.o, st_.o)
        assert np.allclose(merged.lse, st_.lse)
        merged2 = ident.merge(st_)
        assert np.allclose(merged2.o, st_.o)

    def test_both_empty(self):
        a = empty_state((2,), 4)
        m = a.merge(a)
        assert np.all(np.isneginf(m.lse))
        assert np.allclose(m.o, 0.0)
        assert not np.any(np.isnan(m.o))

    def test_large_lse_no_overflow(self):
        o_a = np.ones((1, 4))
        o_b = np.zeros((1, 4))
        o, lse = merge_states(o_a, np.array([1000.0]), o_b, np.array([990.0]))
        assert np.all(np.isfinite(o))
        assert np.isfinite(lse[0]) and lse[0] >= 1000.0

    def test_batched_shapes(self, rng):
        o_a = rng.standard_normal((2, 3, 8))
        lse_a = rng.standard_normal((2, 3))
        o, lse = merge_states(o_a, lse_a, o_a, lse_a)
        assert o.shape == (2, 3, 8)
        assert lse.shape == (2, 3)
        # Merging a state with itself keeps O, bumps LSE by log 2.
        assert np.allclose(o, o_a)
        assert np.allclose(lse, lse_a + np.log(2))


finite_states = st.integers(0, 2**32 - 1)


class TestAlgebraicProperties:
    @given(finite_states)
    @settings(max_examples=100, deadline=None)
    def test_commutative(self, seed):
        rng = np.random.default_rng(seed)
        o_a, o_b = rng.standard_normal((2, 4))
        lse_a, lse_b = rng.uniform(-5, 5, 2)
        x = merge_states(o_a, np.array(lse_a), o_b, np.array(lse_b))
        y = merge_states(o_b, np.array(lse_b), o_a, np.array(lse_a))
        assert np.allclose(x[0], y[0]) and np.allclose(x[1], y[1])

    @given(finite_states)
    @settings(max_examples=100, deadline=None)
    def test_associative(self, seed):
        rng = np.random.default_rng(seed)
        os = rng.standard_normal((3, 4))
        lses = rng.uniform(-5, 5, 3)

        def m(a, b):
            return merge_states(a[0], a[1], b[0], b[1])

        states = [(os[i], np.array(lses[i])) for i in range(3)]
        left = m(m(states[0], states[1]), states[2])
        right = m(states[0], m(states[1], states[2]))
        assert np.allclose(left[0], right[0])
        assert np.allclose(left[1], right[1])

    @given(finite_states)
    @settings(max_examples=50, deadline=None)
    def test_fold_order_insensitive(self, seed):
        rng = np.random.default_rng(seed)
        states = [
            AttentionState(rng.standard_normal((2, 4)), rng.uniform(-3, 3, 2))
            for _ in range(4)
        ]
        a = reduce(AttentionState.merge, states)
        b = reduce(AttentionState.merge, reversed(states))
        assert np.allclose(a.o, b.o)
        assert np.allclose(a.lse, b.lse)


class TestValidation:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="batch shape"):
            AttentionState(np.zeros((2, 4)), np.zeros(3))

    def test_matmul_operator(self, rng):
        a = AttentionState(rng.standard_normal((1, 4)), np.zeros(1))
        b = AttentionState(rng.standard_normal((1, 4)), np.zeros(1))
        m = a @ b
        assert np.allclose(m.o, (a.o + b.o) / 2)


class TestSumComposition:
    def test_plain_addition(self, rng):
        a, b = rng.standard_normal((2, 3, 4))
        assert np.allclose(merge_states_sum(a, b), a + b)
